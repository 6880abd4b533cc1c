//! # redundancy — race-to-first-response as a reusable library
//!
//! The deployable artifact of *Low Latency via Redundancy* (Vulimiri et
//! al., CoNEXT 2013): issue an operation against several diverse replicas,
//! use whichever answer arrives first, and know *when that trade is
//! worth it*.
//!
//! Four layers:
//!
//! * **Executors** — [`sync_exec`] races closures on threads (one per
//!   copy, losers cancelled cooperatively via [`cancel::CancelToken`]);
//!   with the `tokio-exec` feature, `tokio_exec` races futures
//!   (`select!`-style: first completion wins, siblings are dropped). The
//!   async executors are runtime-agnostic plain futures — they run on any
//!   executor, tokio included, and ship a built-in `block_on` for callers
//!   without one. Both layers also provide *hedged* variants — the Dean &
//!   Barroso refinement where the second copy is sent only after a delay,
//!   paying the duplication cost only in the slow tail.
//! * **Policies** — [`policy::Policy`] captures the paper's design space:
//!   `Always(k)` replication vs `Hedged { copies, after }`.
//! * **Planner** — [`planner`] answers the paper's central question
//!   ("will replication *help* here?") from three numbers you can measure:
//!   per-server utilization, the service-time coefficient of variation,
//!   and the client-side cost of an extra copy. The thresholds come from
//!   the same analytics validated against the paper's §2.1 model in the
//!   `queuesim` crate: never replicate above 50 % utilization, always
//!   below ~26 % (absent client cost), with the exact crossover computed
//!   from the two-moment response model.
//! * **Estimators** — [`estimator::RateEstimator`] turns a live arrival
//!   stream into the utilization estimate the planner consumes, and
//!   [`estimator::MomentEstimator`] turns observed per-copy service
//!   durations into the live mean and SCV the threshold depends on (both
//!   windowed Welford accumulators), while
//!   [`estimator::EstimatorBank`] keeps one rate estimator *per server*
//!   so a decision can bind on the hottest candidate instead of the
//!   cluster average. [`planner::LivePlanner`] owns them and makes the
//!   per-request decision with rate, mean, and variability all measured
//!   — the one loop both `storesim::sharded` (simulated traffic) and
//!   `storesim::rt` (real threads) run.
//!
//! ## Quick start (threads)
//!
//! ```
//! use redundancy::prelude::*;
//! use std::time::Duration;
//!
//! // Race two "replicas" with very different latencies.
//! let winner = race(vec![
//!     replica(|token: &CancelToken| {
//!         // a slow replica that politely checks for cancellation
//!         for _ in 0..100 {
//!             if token.is_cancelled() { return None; }
//!             std::thread::sleep(Duration::from_millis(2));
//!         }
//!         Some("slow")
//!     }),
//!     replica(|_: &CancelToken| {
//!         std::thread::sleep(Duration::from_millis(1));
//!         Some("fast")
//!     }),
//! ])
//! .expect("at least one replica answers");
//! assert_eq!(winner.value, Some("fast"));
//! assert_eq!(winner.winner, 1);
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod estimator;
pub mod planner;
pub mod policy;
pub mod sync_exec;
#[cfg(feature = "tokio-exec")]
pub mod tokio_exec;

/// One-stop imports.
pub mod prelude {
    pub use crate::cancel::CancelToken;
    pub use crate::estimator::{EstimatorBank, MomentEstimator, RateEstimator};
    pub use crate::planner::{
        Advice, LivePlanner, PairDecision, Planner, ThresholdCache, WorkloadProfile,
    };
    pub use crate::policy::Policy;
    pub use crate::sync_exec::{hedged, race, replica, RaceOutcome};
    #[cfg(feature = "tokio-exec")]
    pub use crate::tokio_exec::{hedged_async, race_async};
}
