/// Return address stack (RAS).
///
/// Calls push their fall-through address; returns pop the predicted
/// target. The stack is circular: overflow overwrites the oldest entry
/// and underflow returns `None`, matching hardware behaviour.
///
/// The paper's `call-stack` improvement (§3.2.1) exists because the
/// original converter emitted *returns* for some indirect **calls**:
/// every such branch pops instead of pushing, desynchronizing this
/// structure and producing an order-of-magnitude return MPKI inflation
/// (Figure 5).
///
/// # Example
///
/// ```
/// use bpred::ReturnAddressStack;
///
/// let mut ras = ReturnAddressStack::new(32);
/// ras.push(0x1004); // call at 0x1000
/// assert_eq!(ras.pop(), Some(0x1004));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    top: usize,
    occupied: usize,
    pushes: u64,
    pops: u64,
    underflows: u64,
}

impl ReturnAddressStack {
    /// A stack with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReturnAddressStack {
        assert!(capacity > 0, "RAS capacity must be positive");
        ReturnAddressStack {
            entries: vec![0; capacity],
            top: 0,
            occupied: 0,
            pushes: 0,
            pops: 0,
            underflows: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Pushes a return address (on a call). Overwrites the oldest entry
    /// when full.
    pub fn push(&mut self, return_address: u64) {
        self.pushes += 1;
        self.entries[self.top] = return_address;
        self.top = (self.top + 1) % self.entries.len();
        self.occupied = (self.occupied + 1).min(self.entries.len());
    }

    /// Pops the predicted return target (on a return), or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<u64> {
        self.pops += 1;
        if self.occupied == 0 {
            self.underflows += 1;
            return None;
        }
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.occupied -= 1;
        Some(self.entries[self.top])
    }

    /// Peeks at the top entry without popping.
    pub fn peek(&self) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let idx = (self.top + self.entries.len() - 1) % self.entries.len();
        Some(self.entries[idx])
    }

    /// Pushes performed (calls seen).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Pops attempted (returns seen).
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Pops that found the stack empty — the desync signature of the
    /// paper's `call-stack` bug (§3.2.1).
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Registers the stack's counters under `bpred.ras.*`.
    pub fn export_telemetry(&self, registry: &mut telemetry::Registry) {
        use telemetry::catalog;
        registry.counter(&catalog::BPRED_RAS_PUSHES, self.pushes);
        registry.counter(&catalog::BPRED_RAS_POPS, self.pops);
        registry.counter(&catalog::BPRED_RAS_UNDERFLOWS, self.underflows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.len(), 3);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.peek(), Some(1));
        assert_eq!(ras.pop(), Some(1));
        assert!(ras.is_empty());
    }

    #[test]
    fn underflow_returns_none() {
        let mut ras = ReturnAddressStack::new(4);
        assert_eq!(ras.pop(), None);
        ras.push(9);
        assert_eq!(ras.pop(), Some(9));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_keeps_newest() {
        let mut ras = ReturnAddressStack::new(3);
        for v in 1..=5u64 {
            ras.push(v);
        }
        assert_eq!(ras.len(), 3);
        assert_eq!(ras.pop(), Some(5));
        assert_eq!(ras.pop(), Some(4));
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), None);
    }

    /// Reproduces the `call-stack` bug mechanism: a call misconverted as
    /// a return pops the caller's frame, so the *real* return then
    /// mispredicts.
    #[test]
    fn misclassified_call_desynchronizes() {
        let mut ras = ReturnAddressStack::new(8);
        ras.push(0x1004); // genuine call
        let stolen = ras.pop(); // `blr x30` misconverted as return
        assert_eq!(stolen, Some(0x1004));
        // The genuine return now finds an empty stack → misprediction.
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn counters_track_pushes_pops_and_underflows() {
        let mut ras = ReturnAddressStack::new(4);
        ras.push(1);
        ras.pop();
        ras.pop(); // underflow
        assert_eq!((ras.pushes(), ras.pops(), ras.underflows()), (1, 2, 1));
        let mut registry = telemetry::Registry::new();
        ras.export_telemetry(&mut registry);
        assert_eq!(registry.counter_value("bpred.ras.underflows"), 1);
    }
}
