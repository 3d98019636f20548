//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] is a cheap, clonable handle carrying a shared
//! cancellation flag and an optional wall-clock deadline. Solvers poll it
//! at natural checkpoints — [`crate::robust::solve_robust`] checks between
//! escalation-ladder rungs, and the CG and BiCGSTAB loops every
//! [`crate::solver::CANCEL_POLL_INTERVAL`] iterations — and bail out with
//! [`crate::SolveError::Cancelled`] instead of burning a full iteration
//! budget on an answer nobody is waiting for. Serving tiers hand one token
//! per request down the solve path: the request deadline becomes the token
//! deadline, and shutdown/drain flips the shared flag.
//!
//! Cancellation is *cooperative and coarse* by design: a cancelled solve
//! stops within a few dozen iterations, never inside one. The iteration
//! loops pay one relaxed load (and a clock read, for a deadline) per poll
//! interval, and a token that never fires leaves results bit-identical.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A clonable cancellation handle: a shared flag plus an optional deadline.
///
/// The default token ([`CancelToken::never`]) can never fire, so threading
/// a token parameter through a solve path costs nothing for callers that
/// do not use it.
///
/// # Equality
///
/// Tokens compare equal to every other token: cancellation state is
/// runtime plumbing, not part of the mathematical identity of a solve
/// configuration. This lets types embedding a token (e.g.
/// [`crate::robust::RobustOptions`]) keep their derived `PartialEq`
/// semantics.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Shared flag; `None` for the never-cancelled token so that default
    /// construction allocates nothing.
    flag: Option<Arc<AtomicBool>>,
    /// Absolute deadline after which the token reads as cancelled.
    deadline: Option<Instant>,
}

impl PartialEq for CancelToken {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl CancelToken {
    /// A token that can never be cancelled (no flag, no deadline).
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A manually cancellable token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A cancellable token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
        }
    }

    /// Flips the shared flag; every clone observes the cancellation. A
    /// no-op on [`CancelToken::never`] tokens.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has been cancelled or its deadline has passed.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The configured deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_never_fires() {
        let t = CancelToken::never();
        t.cancel();
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn past_deadline_reads_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let future = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn tokens_compare_equal() {
        let a = CancelToken::new();
        let b = CancelToken::never();
        a.cancel();
        assert_eq!(a, b);
    }
}
