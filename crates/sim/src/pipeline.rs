/// A per-cycle width limiter for one pipeline stage.
///
/// `allocate(earliest)` returns the first cycle at or after `earliest`
/// with a free slot, consuming it. Requests must arrive in
/// non-decreasing program order, which holds by construction in the
/// in-order walk of the engine.
#[derive(Debug, Clone)]
pub(crate) struct WidthLimiter {
    width: usize,
    cycle: u64,
    used: usize,
}

impl WidthLimiter {
    /// A stage processing `width` instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub(crate) fn new(width: usize) -> WidthLimiter {
        assert!(width > 0, "stage width must be positive");
        WidthLimiter { width, cycle: 0, used: 0 }
    }

    /// Claims a slot at or after `earliest`; returns the cycle granted.
    pub(crate) fn allocate(&mut self, earliest: u64) -> u64 {
        if earliest > self.cycle {
            self.cycle = earliest;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1;
            self.used = 0;
        }
        self.used += 1;
        self.cycle
    }
}

/// A width limiter for an **out-of-order** stage (issue).
///
/// Unlike [`WidthLimiter`], requests may arrive with non-monotonic
/// `earliest` cycles (a younger instruction can be ready before an older
/// one); each request is granted the first cycle at or after `earliest`
/// with spare width. Usage is tracked in a ring of recent cycles, sized
/// far beyond any realistic in-flight window.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    ring: Vec<(u64, u32)>, // (cycle, used)
    width: u32,
}

const SCHEDULER_RING: usize = 8192;

impl Scheduler {
    /// A stage issuing `width` instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub(crate) fn new(width: usize) -> Scheduler {
        assert!(width > 0, "stage width must be positive");
        Scheduler { ring: vec![(u64::MAX, 0); SCHEDULER_RING], width: width as u32 }
    }

    /// Claims a slot at or after `earliest`; returns the cycle granted.
    pub(crate) fn allocate(&mut self, earliest: u64) -> u64 {
        let mut cycle = earliest;
        loop {
            let slot = (cycle % SCHEDULER_RING as u64) as usize;
            let entry = &mut self.ring[slot];
            if entry.0 != cycle {
                *entry = (cycle, 0);
            }
            if entry.1 < self.width {
                entry.1 += 1;
                return cycle;
            }
            cycle += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_allows_out_of_order_grants() {
        let mut s = Scheduler::new(2);
        assert_eq!(s.allocate(100), 100);
        // A younger instruction ready earlier still gets its early slot.
        assert_eq!(s.allocate(50), 50);
        assert_eq!(s.allocate(50), 50);
        assert_eq!(s.allocate(50), 51, "width 2 per cycle");
        assert_eq!(s.allocate(100), 100);
        assert_eq!(s.allocate(100), 101, "cycle 100 now full");
    }

    #[test]
    fn scheduler_respects_width_under_pressure() {
        let mut s = Scheduler::new(1);
        let grants: Vec<u64> = (0..5).map(|_| s.allocate(7)).collect();
        assert_eq!(grants, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scheduler_zero_width_panics() {
        Scheduler::new(0);
    }

    #[test]
    fn width_limits_per_cycle() {
        let mut w = WidthLimiter::new(2);
        assert_eq!(w.allocate(10), 10);
        assert_eq!(w.allocate(10), 10);
        assert_eq!(w.allocate(10), 11, "third in the same cycle spills");
        assert_eq!(w.allocate(10), 11);
        assert_eq!(w.allocate(10), 12);
    }

    #[test]
    fn later_earliest_resets_the_window() {
        let mut w = WidthLimiter::new(1);
        assert_eq!(w.allocate(5), 5);
        assert_eq!(w.allocate(5), 6);
        assert_eq!(w.allocate(100), 100);
        assert_eq!(w.allocate(100), 101);
    }

    #[test]
    fn wide_stage_never_stalls_small_bursts() {
        let mut w = WidthLimiter::new(8);
        for _ in 0..8 {
            assert_eq!(w.allocate(3), 3);
        }
        assert_eq!(w.allocate(3), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_panics() {
        WidthLimiter::new(0);
    }
}
