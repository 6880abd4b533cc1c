//! # queuesim — the paper's §2.1 queueing model of replication
//!
//! *Low Latency via Redundancy* (Vulimiri et al., CoNEXT 2013) frames
//! redundancy as a race between two effects: taking the **minimum** of k
//! response-time samples (helps) versus multiplying server utilization by k
//! (hurts). This crate contains everything §2.1 uses to characterize that
//! trade-off:
//!
//! * [`model`] — an exact, allocation-light simulator of the paper's model:
//!   N identical FIFO servers, Poisson arrivals, k copies enqueued at k
//!   distinct uniformly-chosen servers, response = min over copies. Copies
//!   are *not* cancelled when a sibling finishes — exactly as in the paper,
//!   which is what makes utilization scale with k.
//! * [`threshold`] — the paper's metric of interest: the **threshold load**,
//!   the largest utilization below which replication improves mean response
//!   time. Found by a variance-reduced paired bisection (common random
//!   numbers between the k=1 and k=2 runs).
//! * [`analytic`] — closed forms and approximations: the M/M/1 result of
//!   Theorem 1 (threshold exactly 1/3), Pollaczek–Khinchine, a two-moment
//!   Gamma response approximation standing in for Myers–Vernon \[23\], and a
//!   regularly-varying tail approximation standing in for
//!   Olvera-Cravioto et al. \[24\].
//! * [`sweeps`] — the parameter sweeps behind Figures 1–4 (distribution
//!   families, random distributions, client-side overhead).
//!
//! ## The model in one picture
//!
//! ```text
//!            ┌────────┐
//!   Poisson  │ server │◄── copy 1 ──┐         response =
//!   arrivals │  FIFO  │             ├─ min(T₁, T₂)  (+ client overhead)
//!     λ = Nρ │ server │◄── copy 2 ──┘
//!            │  ...   │
//!            └────────┘
//! ```
//!
//! ## Example: Theorem 1 empirically
//!
//! ```
//! use queuesim::model::{run, Config};
//! use simcore::dist::Exponential;
//!
//! let base = Config::new(Exponential::unit(), 0.2).with_requests(60_000, 5_000);
//! let single = run(&base.clone().with_copies(1), 1);
//! let double = run(&base.with_copies(2), 1);
//! // Load 0.2 < 1/3: replication must win on the mean.
//! assert!(double.response.mean() < single.response.mean());
//! ```

#![warn(missing_docs)]

pub mod analytic;
pub mod model;
pub mod sweeps;
pub mod threshold;

pub use model::{run, Config, RunResult};
pub use threshold::{threshold_load, ThresholdOptions};
