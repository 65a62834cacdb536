//! Cooperative cancellation for long simulations.
//!
//! A [`CancelToken`] is a cheap, clonable handle shared between the
//! party running a simulation and the party that may need to stop it
//! (a job server enforcing a deadline, a signal handler draining a
//! worker pool). The engine polls the token at epoch boundaries — every
//! [`RunOptions::with_epochs`](crate::RunOptions::with_epochs) interval
//! when epoch sampling is on, every [`CHECK_INTERVAL`] retired records
//! otherwise — so cancellation latency is bounded without putting an
//! atomic load on the per-record hot path.
//!
//! A cancelled run returns early with a **partial** [`SimReport`]; the
//! report is not marked in-band. Callers that requested cancellation
//! must check [`CancelToken::is_cancelled`] after the run and discard
//! the partial statistics — they cover an unpredictable prefix of the
//! trace and are not comparable to a full run.
//!
//! [`SimReport`]: crate::SimReport

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Records between cancellation checks when no epoch interval is set.
///
/// At the simulator's measured multi-MIPS throughput this bounds the
/// cancellation latency to well under a millisecond of host time.
pub(crate) const CHECK_INTERVAL: u64 = 8_192;

/// [`Inner::word`] once the token has tripped.
const TRIPPED: u64 = u64::MAX;
/// [`Inner::word`] of a live token without a deadline.
const NO_DEADLINE: u64 = u64::MAX - 1;

#[derive(Debug)]
struct Inner {
    /// Zero point of the deadline encoding.
    origin: Instant,
    /// The whole token state in one atomic word, so that moving the
    /// deadline and tripping it can never interleave: [`TRIPPED`],
    /// [`NO_DEADLINE`], or the deadline in nanoseconds after `origin`.
    word: AtomicU64,
}

impl Inner {
    fn new(deadline: Option<Instant>) -> Inner {
        let mut inner = Inner { origin: Instant::now(), word: AtomicU64::new(NO_DEADLINE) };
        if let Some(deadline) = deadline {
            *inner.word.get_mut() = inner.offset(deadline);
        }
        inner
    }

    /// `at` as nanoseconds after `origin` (saturating at both ends).
    fn offset(&self, at: Instant) -> u64 {
        let nanos = at.saturating_duration_since(self.origin).as_nanos();
        u64::try_from(nanos).unwrap_or(u64::MAX).min(NO_DEADLINE - 1)
    }
}

impl Default for Inner {
    fn default() -> Inner {
        Inner::new(None)
    }
}

/// A clonable cancellation handle, optionally carrying a deadline.
///
/// [`cancel`](CancelToken::cancel) requests a stop explicitly; a token
/// built with [`with_deadline`](CancelToken::with_deadline) also trips
/// itself the first time it is polled past the deadline, which
/// [`extend_deadline`](CancelToken::extend_deadline) may push out until
/// then. Once cancelled, a token stays cancelled — create a fresh token
/// per run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](CancelToken::cancel)
    /// is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken { inner: Arc::new(Inner::new(Some(deadline))) }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.word.store(TRIPPED, Ordering::Release);
    }

    /// Moves the deadline out to `deadline`; never moves it in, and a
    /// token without a deadline keeps none. Returns `false` once the
    /// token has tripped — by [`cancel`](CancelToken::cancel) or by a
    /// poll past the old deadline — and `true` otherwise: a past-due
    /// token that nobody has polled yet is still live and extends.
    pub fn extend_deadline(&self, deadline: Instant) -> bool {
        let target = self.inner.offset(deadline);
        let moved = self.inner.word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
            (word != TRIPPED && word < target).then_some(target)
        });
        moved != Err(TRIPPED)
    }

    /// Whether the token is cancelled, tripping the deadline if one was
    /// set and has passed.
    pub fn is_cancelled(&self) -> bool {
        match self.inner.word.load(Ordering::Acquire) {
            TRIPPED => return true,
            NO_DEADLINE => return false,
            _ => {}
        }
        let now = self.inner.offset(Instant::now());
        let tripped = self.inner.word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |word| {
            (word <= now).then_some(TRIPPED)
        });
        matches!(tripped, Ok(_) | Err(TRIPPED))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fresh_token_is_live_and_cancel_sticks() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let clone = token.clone();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled(), "cancellation is visible through clones");
    }

    #[test]
    fn past_deadline_trips_on_poll() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!token.is_cancelled());
    }

    #[test]
    fn extend_deadline_moves_a_future_deadline_out() {
        let now = Instant::now();
        let token = CancelToken::with_deadline(now + Duration::from_millis(30));
        assert!(token.extend_deadline(now + Duration::from_secs(3600)));
        std::thread::sleep(Duration::from_millis(60));
        assert!(!token.is_cancelled(), "the extended deadline governs");
    }

    #[test]
    fn extend_deadline_never_shortens() {
        let now = Instant::now();
        let token = CancelToken::with_deadline(now + Duration::from_secs(3600));
        assert!(token.extend_deadline(now - Duration::from_millis(1)), "live token accepts");
        assert!(!token.is_cancelled(), "an earlier deadline is ignored");
        let open = CancelToken::new();
        assert!(open.extend_deadline(now - Duration::from_millis(1)));
        assert!(!open.is_cancelled(), "a token without a deadline gains none");
    }

    #[test]
    fn extend_deadline_revives_an_unpolled_past_due_token() {
        let now = Instant::now();
        let token = CancelToken::with_deadline(now - Duration::from_millis(1));
        assert!(token.extend_deadline(now + Duration::from_secs(3600)));
        assert!(!token.is_cancelled(), "no poll tripped the old deadline");
        assert!(!token.is_cancelled(), "and the token stays live");
    }

    #[test]
    fn extend_deadline_fails_after_cancel() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        token.cancel();
        assert!(!token.extend_deadline(Instant::now() + Duration::from_secs(7200)));
        assert!(token.is_cancelled());
    }

    #[test]
    fn extend_deadline_fails_after_a_poll_tripped_the_deadline() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(!token.extend_deadline(Instant::now() + Duration::from_secs(3600)));
        assert!(token.is_cancelled(), "a tripped token stays tripped");
    }
}
