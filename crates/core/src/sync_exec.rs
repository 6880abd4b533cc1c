//! Thread-based race-to-first-response.
//!
//! [`race`] runs every copy immediately (the paper's scheme); [`hedged`]
//! releases additional copies only after a delay (tied/hedged requests).
//! Losers are signalled through a [`CancelToken`], which each replica's
//! thread cancels as soon as its closure returns; only the copy whose call
//! cancelled it reports, so that copy is the response. Whether a loser
//! honors the token is up to the closure — exactly the spectrum between the
//! paper's no-cancellation model and Dean & Barroso's tied requests.

#![expect(
    clippy::disallowed_types,
    reason = "the thread-backed racer executes in real time by definition"
)]

use crate::cancel::CancelToken;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// A replica operation: runs with a cancellation token, produces a value.
/// The racer cancels the token when a copy returns; a closure that cancels
/// it itself gives up its own report.
pub type Replica<T> = Box<dyn FnOnce(&CancelToken) -> T + Send>;

/// Wraps a closure as a [`Replica`] (helps type inference at call sites).
pub fn replica<T, F>(f: F) -> Replica<T>
where
    F: FnOnce(&CancelToken) -> T + Send + 'static,
{
    Box::new(f)
}

/// The winning response plus bookkeeping.
#[derive(Debug)]
pub struct RaceOutcome<T> {
    /// The first value produced.
    pub value: T,
    /// Index of the winning replica.
    pub winner: usize,
    /// Wall-clock latency from race start to first response.
    pub latency: Duration,
    /// Copies actually launched (equals the input length for [`race`];
    /// may be smaller for [`hedged`] when the primary answered quickly).
    pub launched: usize,
}

/// Races all copies at once; returns the first response. The first copy
/// to return cancels the rest. Returns `None` on an empty input.
///
/// Loser threads are detached: they continue until they observe the token
/// (or finish), mirroring the paper's both-copies-do-work accounting.
pub fn race<T: Send + 'static>(ops: Vec<Replica<T>>) -> Option<RaceOutcome<T>> {
    if ops.is_empty() {
        return None;
    }
    let start = Instant::now();
    let token = CancelToken::new();
    let n = ops.len();
    let (tx, rx) = mpsc::channel();
    for (i, op) in ops.into_iter().enumerate() {
        let tx = tx.clone();
        let token = token.clone();
        thread::spawn(move || run_replica(i, op, &token, &tx));
    }
    drop(tx);
    let (winner, value) = rx.recv().ok()?;
    Some(RaceOutcome {
        value,
        winner,
        latency: start.elapsed(),
        launched: n,
    })
}

/// Hedged execution: launch copy 0 immediately and each subsequent copy
/// only after `delay` more of silence. First response wins and cancels the
/// stragglers; a hedge released just after the primary returned starts
/// already cancelled and never reports.
///
/// Returns `None` on an empty input.
pub fn hedged<T: Send + 'static>(ops: Vec<Replica<T>>, delay: Duration) -> Option<RaceOutcome<T>> {
    if ops.is_empty() {
        return None;
    }
    let start = Instant::now();
    let token = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let mut launched = 0usize;
    // Each copy takes a sender at launch, the last one the original, so
    // once every launched copy has panicked `rx` disconnects instead of
    // waiting forever.
    let n = ops.len();
    let mut pending = ops.into_iter().zip(std::iter::repeat_n(tx, n)).enumerate();

    let mut launch_next = |launched: &mut usize| -> bool {
        match pending.next() {
            Some((i, (op, tx))) => {
                let token = token.clone();
                thread::spawn(move || run_replica(i, op, &token, &tx));
                *launched += 1;
                true
            }
            None => false,
        }
    };

    launch_next(&mut launched);
    let (winner, value) = loop {
        match rx.recv_timeout(delay) {
            Ok(first) => break first,
            // Silence: release the next hedge (if any remain, else keep
            // waiting for whatever is in flight).
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if !launch_next(&mut launched) {
                    break rx.recv().ok()?;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
        }
    };
    Some(RaceOutcome {
        value,
        winner,
        latency: start.elapsed(),
        launched,
    })
}

/// Runs copy `i` on its own thread. The copy whose `cancel` flips the
/// token reports; every other copy, a loser that saw the cancel and
/// returned early included, drops its value, so the caller can only take
/// the winner's.
fn run_replica<T>(i: usize, op: Replica<T>, token: &CancelToken, tx: &mpsc::Sender<(usize, T)>) {
    let out = op(token);
    if token.cancel() {
        let _ = tx.send((i, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper(ms: u64, tag: &'static str) -> Replica<&'static str> {
        replica(move |_t: &CancelToken| {
            thread::sleep(Duration::from_millis(ms));
            tag
        })
    }

    #[test]
    fn fastest_replica_wins() {
        let out = race(vec![
            sleeper(50, "slow"),
            sleeper(1, "fast"),
            sleeper(80, "slower"),
        ])
        .unwrap();
        assert_eq!(out.value, "fast");
        assert_eq!(out.winner, 1);
        assert!(out.latency < Duration::from_millis(45));
        assert_eq!(out.launched, 3);
    }

    #[test]
    fn empty_race_is_none() {
        assert!(race::<()>(vec![]).is_none());
        assert!(hedged::<()>(vec![], Duration::from_millis(1)).is_none());
    }

    #[test]
    fn losers_observe_cancellation() {
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        let out = race(vec![
            replica(move |t: &CancelToken| {
                // Poll until cancelled, then report how we exited.
                for _ in 0..2_000 {
                    if t.is_cancelled() {
                        let _ = done_tx.send("cancelled");
                        return 0u32;
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                let _ = done_tx.send("ran to completion");
                0u32
            }),
            replica(|_t: &CancelToken| {
                thread::sleep(Duration::from_millis(5));
                42u32
            }),
        ])
        .unwrap();
        assert_eq!(out.value, 42);
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            "cancelled"
        );
    }

    #[test]
    fn only_the_copy_that_cancels_reports() {
        // The winner has cancelled the token but not yet sent: a loser that
        // sees the cancel and returns a sentinel must not report it.
        let (tx, rx) = mpsc::channel();
        let token = CancelToken::new();
        assert!(token.cancel());
        let loser = |t: &CancelToken| if t.is_cancelled() { 0u32 } else { 7 };
        run_replica(1, replica(loser), &token, &tx);
        assert_eq!(rx.try_recv(), Err(mpsc::TryRecvError::Empty));
        // A copy that finishes on a clear token cancels it and reports.
        let token = CancelToken::new();
        run_replica(0, replica(|_t: &CancelToken| 42u32), &token, &tx);
        assert!(token.is_cancelled());
        assert_eq!(rx.try_recv(), Ok((0, 42)));
    }

    #[test]
    fn hedge_skips_second_copy_when_primary_is_fast() {
        let out = hedged(
            vec![sleeper(1, "primary"), sleeper(1, "hedge")],
            Duration::from_millis(200),
        )
        .unwrap();
        assert_eq!(out.value, "primary");
        assert_eq!(out.launched, 1, "hedge must not fire for a fast primary");
    }

    #[test]
    fn hedge_fires_and_wins_when_primary_stalls() {
        let out = hedged(
            vec![sleeper(500, "primary"), sleeper(1, "hedge")],
            Duration::from_millis(10),
        )
        .unwrap();
        assert_eq!(out.value, "hedge");
        assert_eq!(out.winner, 1);
        assert_eq!(out.launched, 2);
        assert!(out.latency < Duration::from_millis(400));
    }

    #[test]
    fn hedge_waits_out_the_primary_when_no_hedges_remain() {
        let out = hedged(vec![sleeper(50, "only")], Duration::from_millis(5)).unwrap();
        assert_eq!(out.value, "only");
        assert_eq!(out.launched, 1);
    }

    #[test]
    fn hedge_with_every_replica_panicking_is_none() {
        // A watchdog thread, so a hang fails the test instead of the suite.
        let (done_tx, done_rx) = mpsc::channel();
        thread::spawn(move || {
            let panics = |_t: &CancelToken| -> u32 { panic!("replica failed") };
            let out = hedged(
                vec![replica(panics), replica(panics)],
                Duration::from_millis(1),
            );
            let _ = done_tx.send(out.is_none());
        });
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(5)), Ok(true));
    }

    #[test]
    fn race_latency_close_to_minimum() {
        let out = race(vec![sleeper(40, "a"), sleeper(40, "b")]).unwrap();
        // Either may win, but the race cost ~ one replica, not two.
        assert!(out.latency < Duration::from_millis(200));
    }
}
