//! Cooperative cancellation for losing replicas.
//!
//! The paper's model never cancels the sibling copy (that is what doubles
//! utilization), and [`crate::sync_exec::race`] faithfully lets losers run
//! to completion *unless* they observe the token. Real deployments (Dean &
//! Barroso's tied requests) do cancel; exposing the token lets callers pick
//! their point on that spectrum.
//!
//! The copy that finishes first cancels its siblings, where it finishes:
//! [`CancelToken::cancel`] returns `true` to exactly one caller, so that
//! copy is the winner, and a copy that ran its full demand but gets
//! `false` lost the race to a sibling running in parallel. Losers that
//! poll the token stop without waiting for whoever collects the result.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cheaply-cloneable cancellation flag shared by the copies of one
/// logical operation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals every holder to stop. Returns `true` only for the call
    /// that cancelled the token, `false` if it was already cancelled.
    pub fn cancel(&self) -> bool {
        // The release half pairs with `is_cancelled`'s acquire load; the
        // acquire half lets a caller that lost the swap see what the
        // winner wrote before cancelling.
        !self.flag.swap(true, Ordering::AcqRel)
    }

    /// `true` once any holder has called [`cancel`](Self::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_clear_and_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.cancel(), "the first cancel wins");
        assert!(t.is_cancelled());
        assert!(!t.cancel(), "a repeat cancel is not the winner");
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn visible_across_threads() {
        let t = CancelToken::new();
        let c = t.clone();
        let h = std::thread::spawn(move || {
            while !c.is_cancelled() {
                std::hint::spin_loop();
            }
            true
        });
        t.cancel();
        assert!(h.join().unwrap());
    }

    #[test]
    fn racing_cancels_name_exactly_one_winner() {
        let tokens: Vec<CancelToken> = (0..1_000).map(|_| CancelToken::new()).collect();
        let start = std::sync::Barrier::new(4);
        let wins: Vec<Vec<bool>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        tokens.iter().map(CancelToken::cancel).collect()
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for i in 0..tokens.len() {
            let winners = wins.iter().filter(|w| w[i]).count();
            assert_eq!(winners, 1, "token {i}");
        }
    }
}
