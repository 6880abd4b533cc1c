//! Async race-to-first-response, named for the tokio-style API it provides.
//!
//! The API mirrors what a `tokio::select!`/`JoinSet` implementation would
//! expose — race k futures, first completion wins, stragglers are
//! cancelled — but the implementation is **executor-agnostic and
//! dependency-free** so the workspace builds offline: [`race_async`] and
//! [`hedged_async`] are ordinary `Future`s that run unchanged on any
//! executor (tokio included). Cancellation is the async-native kind: the
//! losing futures are *dropped* at their next suspension point, no token
//! plumbing required.
//!
//! Because some callers (tests, examples, synchronous binaries) have no
//! runtime at hand, the module ships a micro executor: [`block_on`] drives
//! a future on the current thread with a park/unpark waker, and [`sleep`]
//! is a timer future backed by a helper thread. Replace both freely with a
//! real runtime's equivalents in production code.

#![expect(
    clippy::disallowed_types,
    reason = "the async racer executes in real time by definition"
)]

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread;
use std::time::{Duration, Instant};

type BoxFut<T> = Pin<Box<dyn Future<Output = T> + Send>>;

struct ThreadWaker(thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives `fut` to completion on the current thread — the minimal
/// executor used by this crate's tests and examples.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = Box::pin(fut);
    let waker = Waker::from(Arc::new(ThreadWaker(thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => thread::park(),
        }
    }
}

struct TimerState {
    done: bool,
    waker: Option<Waker>,
}

/// A timer future: completes `duration` after creation. Works under any
/// executor (a helper thread wakes the task at the deadline).
pub struct Sleep {
    deadline: Instant,
    shared: Option<Arc<Mutex<TimerState>>>,
}

/// Sleeps for `duration` (see [`Sleep`]).
pub fn sleep(duration: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now() + duration,
        shared: None,
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if Instant::now() >= this.deadline {
            return Poll::Ready(());
        }
        match &this.shared {
            Some(shared) => {
                let mut st = shared.lock().unwrap();
                if st.done {
                    return Poll::Ready(());
                }
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
            None => {
                let shared = Arc::new(Mutex::new(TimerState {
                    done: false,
                    waker: Some(cx.waker().clone()),
                }));
                let deadline = this.deadline;
                let for_timer = Arc::clone(&shared);
                thread::spawn(move || {
                    loop {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        thread::sleep(deadline - now);
                    }
                    let mut st = for_timer.lock().unwrap();
                    st.done = true;
                    if let Some(w) = st.waker.take() {
                        w.wake();
                    }
                });
                this.shared = Some(shared);
                Poll::Pending
            }
        }
    }
}

/// Polls a set of indexed futures plus an optional timeout; resolves to
/// `Some((value, index))` on the first completion or `None` on timeout.
struct RaceStep<'a, T> {
    entries: &'a mut Vec<(usize, BoxFut<T>)>,
    timeout: Option<Sleep>,
}

impl<T> Future for RaceStep<'_, T> {
    type Output = Option<(T, usize)>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        for (idx, fut) in this.entries.iter_mut() {
            if let Poll::Ready(v) = fut.as_mut().poll(cx) {
                return Poll::Ready(Some((v, *idx)));
            }
        }
        if let Some(t) = &mut this.timeout {
            if Pin::new(t).poll(cx).is_ready() {
                return Poll::Ready(None);
            }
        }
        Poll::Pending
    }
}

/// Races futures; resolves to `(value, winner_index)` of the first to
/// complete. Remaining copies are dropped (async cancellation) before the
/// result is returned. Returns `None` on empty input.
pub async fn race_async<T, F>(futs: Vec<F>) -> Option<(T, usize)>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
{
    if futs.is_empty() {
        return None;
    }
    let mut entries: Vec<(usize, BoxFut<T>)> = futs
        .into_iter()
        .enumerate()
        .map(|(i, f)| (i, Box::pin(f) as BoxFut<T>))
        .collect();
    RaceStep {
        entries: &mut entries,
        timeout: None,
    }
    .await
}

/// Hedged async execution: polls `make(0)` immediately and releases
/// `make(i)` after `i × delay` of continued silence; first completion wins
/// and stragglers are dropped.
///
/// `copies` must be ≥ 1. Returns `(value, winner_index, launched)`.
pub async fn hedged_async<T, F, M>(
    make: M,
    copies: usize,
    delay: Duration,
) -> Option<(T, usize, usize)>
where
    T: Send + 'static,
    F: Future<Output = T> + Send + 'static,
    M: Fn(usize) -> F,
{
    if copies == 0 {
        return None;
    }
    let mut entries: Vec<(usize, BoxFut<T>)> = vec![(0, Box::pin(make(0)) as BoxFut<T>)];
    let mut launched = 1usize;
    while launched < copies {
        let step = RaceStep {
            entries: &mut entries,
            timeout: Some(sleep(delay)),
        }
        .await;
        match step {
            Some((value, winner)) => return Some((value, winner, launched)),
            None => {
                entries.push((launched, Box::pin(make(launched)) as BoxFut<T>));
                launched += 1;
            }
        }
    }
    RaceStep {
        entries: &mut entries,
        timeout: None,
    }
    .await
    .map(|(value, winner)| (value, winner, launched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fastest_future_wins() {
        let (v, winner) = block_on(race_async(vec![
            Box::pin(async {
                sleep(Duration::from_millis(50)).await;
                "slow"
            }) as BoxFut<&'static str>,
            Box::pin(async {
                sleep(Duration::from_millis(1)).await;
                "fast"
            }),
        ]))
        .unwrap();
        assert_eq!(v, "fast");
        assert_eq!(winner, 1);
    }

    #[test]
    fn empty_race_is_none() {
        let out: Option<(u8, usize)> = block_on(race_async(Vec::<BoxFut<u8>>::new()));
        assert!(out.is_none());
    }

    #[test]
    fn hedge_skips_when_primary_fast() {
        let fired = Arc::new(AtomicUsize::new(0));
        let f2 = fired.clone();
        let out = block_on(hedged_async(
            move |i| {
                let fired = f2.clone();
                async move {
                    fired.fetch_max(i + 1, Ordering::SeqCst);
                    sleep(Duration::from_millis(1)).await;
                    i
                }
            },
            3,
            // Generous hedge delay: the primary finishes in ~1 ms, so only
            // a multi-second scheduler stall could flake this.
            Duration::from_secs(5),
        ))
        .unwrap();
        assert_eq!(out.0, 0, "primary should win");
        assert_eq!(out.2, 1, "no hedges launched");
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn hedge_fires_for_slow_primary() {
        let out = block_on(hedged_async(
            |i| async move {
                // Copy 0 is pathologically slow; copy 1 is fast.
                let ms = if i == 0 { 2_000 } else { 1 };
                sleep(Duration::from_millis(ms)).await;
                i
            },
            2,
            Duration::from_millis(5),
        ))
        .unwrap();
        assert_eq!(out.0, 1, "hedge should win");
        assert_eq!(out.2, 2);
    }

    #[test]
    fn losers_are_cancelled() {
        let completions = Arc::new(AtomicUsize::new(0));
        let c = completions.clone();
        let futs: Vec<BoxFut<usize>> = (0..4usize)
            .map(|i| {
                let c = c.clone();
                Box::pin(async move {
                    sleep(Duration::from_millis(if i == 0 { 1 } else { 100 })).await;
                    c.fetch_add(1, Ordering::SeqCst);
                    i
                }) as BoxFut<usize>
            })
            .collect();
        let (v, _) = block_on(race_async(futs)).unwrap();
        assert_eq!(v, 0);
        // Losers were dropped at the race's end; give their timers time to
        // fire anyway — the future bodies must never resume.
        thread::sleep(Duration::from_millis(200));
        assert_eq!(
            completions.load(Ordering::SeqCst),
            1,
            "losers should have been cancelled"
        );
    }

    #[test]
    fn sleep_is_roughly_accurate() {
        let t0 = Instant::now();
        block_on(sleep(Duration::from_millis(20)));
        let dt = t0.elapsed();
        assert!(dt >= Duration::from_millis(18), "{dt:?}");
        assert!(dt < Duration::from_secs(2), "{dt:?}");
    }
}
