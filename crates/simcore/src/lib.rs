//! # simcore — discrete-event simulation kernel
//!
//! This crate is the foundation for every simulator in the
//! *Low Latency via Redundancy* reproduction (Vulimiri et al., CoNEXT 2013).
//! It provides the four ingredients shared by the queueing model (§2.1), the
//! disk-backed storage cluster (§2.2), the memcached model (§2.3), the
//! packet-level fat-tree simulator (§2.4), and the WAN models (§3):
//!
//! * [`time::SimTime`] — a total-ordered simulated clock (seconds, `f64`
//!   resolution) usable both as an instant and as a duration;
//! * [`shard::ShardQueue`] — the monotonic future-event list, with stable
//!   FIFO ordering for simultaneous events; one queue on its own runs a
//!   sequential simulation;
//! * [`rng::Rng`] — a from-scratch, bit-reproducible xoshiro256++ generator
//!   with the transforms the paper's workloads need (exponential, normal,
//!   gamma, Pareto, Weibull, Dirichlet, …);
//! * [`dist`] — unit-mean service-time distribution families used throughout
//!   the paper's §2.1 analysis, plus empirical/discrete distributions for the
//!   §2.4 flow-size workload;
//! * [`stats`] — streaming moments, exact quantiles, log-binned histograms
//!   and CCDF extraction matching the paper's "fraction later than
//!   threshold" plots;
//! * [`runner::Runner`] — a dependency-free scoped-thread executor for the
//!   embarrassingly-parallel run-many-simulations shape every figure has,
//!   with deterministic (task-order) results so output is bit-identical at
//!   any thread count;
//! * [`shard::ShardEngine`] — a sharded, conservatively-synchronized
//!   parallel event engine for parallelism *within* one long simulation:
//!   one `ShardQueue` per shard, with a deterministic
//!   `(time, shard, sequence)` merge rule preserving the
//!   bit-identical-at-any-thread-count invariant.
//!
//! Everything here is deterministic given a seed: two runs of any experiment
//! in this workspace produce byte-identical output, which is what makes the
//! threshold-load bisection in `queuesim` (a variance-reduced paired
//! comparison) statistically stable.
//!
//! ## Example
//!
//! ```
//! use simcore::prelude::*;
//!
//! // An M/M/1 queue in a few lines: exponential interarrivals + service.
//! let mut rng = Rng::seed_from(7);
//! let arrivals = Exponential::with_rate(0.5);
//! let service = Exponential::with_rate(1.0);
//!
//! let mut q = ShardQueue::new(0);
//! q.push(SimTime::ZERO, ());
//! let mut clock = SimTime::ZERO;
//! let mut busy_until = SimTime::ZERO;
//! let mut stats = Welford::new();
//! for _ in 0..10_000 {
//!     let (now, ()) = q.pop().unwrap();
//!     clock = now;
//!     let start = clock.max(busy_until);
//!     let done = start + SimTime::from_secs(service.sample(&mut rng));
//!     busy_until = done;
//!     stats.push((done - clock).as_secs());
//!     q.push(clock + SimTime::from_secs(arrivals.sample(&mut rng)), ());
//! }
//! // M/M/1 with rho = 0.5: mean response time = 1/(mu - lambda) = 2.0.
//! assert!((stats.mean() - 2.0).abs() < 0.2);
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod heap;
pub mod rng;
pub mod runner;
pub mod shard;
pub mod simplex;
pub mod special;
pub mod stats;
pub mod time;

/// Convenient glob-import of the types used by every simulator in the
/// workspace.
pub mod prelude {
    pub use crate::dist::{
        BoundedPareto, Deterministic, DiscreteEmpirical, Distribution, Erlang, Exponential,
        HyperExponential, LogNormal, Mixture, Pareto, Shifted, TwoPoint, Uniform, Weibull,
    };
    pub use crate::rng::Rng;
    pub use crate::runner::Runner;
    pub use crate::shard::{EngineStats, ShardCtx, ShardEngine, ShardLogic, ShardQueue};
    pub use crate::stats::{Ccdf, SampleSet, Summary, Welford};
    pub use crate::time::SimTime;
}
