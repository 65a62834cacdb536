//! Cooperative cancellation through `Simulator::run_iter`, a one-lane
//! `Simulator::run_fused` pass.

use std::time::{Duration, Instant};

use champsim_trace::ChampsimRecord;
use sim::{CancelToken, CoreConfig, RunOptions, Simulator};

const TOTAL: u64 = 100_000;

fn straight_line(n: u64) -> impl Iterator<Item = ChampsimRecord> {
    (0..n).map(|i| ChampsimRecord::new(0x1000 + i * 4))
}

/// Wraps an iterator and cancels `token` after `after` items, the way a
/// server thread cancels a job mid-run.
struct CancelAfter<I> {
    inner: I,
    token: CancelToken,
    after: u64,
    yielded: u64,
}

impl<I: Iterator> Iterator for CancelAfter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        self.yielded += 1;
        if self.yielded == self.after {
            self.token.cancel();
        }
        self.inner.next()
    }
}

#[test]
fn cancel_mid_run_returns_partial_report() {
    let token = CancelToken::new();
    let records = CancelAfter {
        inner: straight_line(TOTAL),
        token: token.clone(),
        after: 10_000,
        yielded: 0,
    };
    let mut sim = Simulator::new(CoreConfig::test_small());
    let report = sim.run_iter(records, RunOptions::default().with_cancel(token.clone()));
    assert!(token.is_cancelled());
    assert!(
        report.instructions < TOTAL,
        "cancelled run must stop early: simulated {}",
        report.instructions
    );
    assert!(report.instructions >= 10_000, "cancellation cannot be retroactive");
}

#[test]
fn cancelled_simulator_is_reusable() {
    let mut sim = Simulator::new(CoreConfig::test_small());
    let baseline = sim.run_iter(straight_line(20_000), RunOptions::default());

    let token = CancelToken::new();
    token.cancel();
    let partial =
        sim.run_iter(straight_line(TOTAL), RunOptions::default().with_cancel(token.clone()));
    assert!(partial.instructions < TOTAL);

    // Partial stats are discarded; the next run on the same simulator is
    // byte-for-byte the run that would have happened without the
    // cancelled one (each run starts from cold state).
    let again = sim.run_iter(straight_line(20_000), RunOptions::default());
    assert_eq!(again.instructions, baseline.instructions);
    assert_eq!(again.cycles, baseline.cycles);
    assert_eq!(again.branches, baseline.branches);
}

#[test]
fn uncancelled_token_leaves_report_identical() {
    let mut sim = Simulator::new(CoreConfig::test_small());
    let plain = sim.run_iter(straight_line(20_000), RunOptions::default());
    let with_token =
        sim.run_iter(straight_line(20_000), RunOptions::default().with_cancel(CancelToken::new()));
    assert_eq!(with_token.instructions, plain.instructions);
    assert_eq!(with_token.cycles, plain.cycles);
}

#[test]
fn deadline_token_bounds_run_time() {
    // An effectively endless stream: without the deadline this test
    // would never finish, so returning at all proves the deadline fired
    // and nothing deadlocked.
    let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(50));
    let endless = (0u64..).map(|i| ChampsimRecord::new(0x1000 + (i % 4096) * 4));
    let mut sim = Simulator::new(CoreConfig::test_small());
    let report = sim.run_iter(endless, RunOptions::default().with_cancel(token.clone()));
    assert!(token.is_cancelled());
    assert!(report.instructions > 0);
}

#[test]
fn cancel_lands_on_epoch_boundary_when_epochs_are_on() {
    let token = CancelToken::new();
    let records =
        CancelAfter { inner: straight_line(TOTAL), token: token.clone(), after: 2_500, yielded: 0 };
    let mut sim = Simulator::new(CoreConfig::test_small());
    let report = sim.run_iter(records, RunOptions::default().with_epochs(1_000).with_cancel(token));
    assert_eq!(report.instructions % 1_000, 0, "stops at an epoch boundary");
    let epochs = report.components.epochs().expect("epochs requested");
    assert_eq!(epochs.rows() as u64, report.instructions / 1_000);
}
