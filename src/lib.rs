//! # low-latency-redundancy
//!
//! A full reproduction of **"Low Latency via Redundancy"** (Vulimiri,
//! Godfrey, Mittal, Sherry, Ratnasamy, Shenker — CoNEXT 2013) as a Rust
//! workspace: the reusable race-to-first-response library the paper argues
//! for, plus every simulator and analysis its evaluation rests on.
//!
//! This crate is a facade: it re-exports the member crates so downstream
//! users can depend on one name. See each crate for its own deep-dive docs:
//!
//! | crate | contents | paper section |
//! |-------|----------|---------------|
//! | [`redundancy`] | policies, thread/tokio race executors, planner | the technique itself |
//! | [`simcore`] | event kernel, RNG, distributions, statistics | substrate |
//! | [`queuesim`] | replicated-queue model, threshold load, analytics | §2.1, Figs 1–4 |
//! | [`storesim`] | disk-backed store + memcached simulators | §2.2–2.3, Figs 5–13 |
//! | [`netsim`] | fat-tree packet simulator, in-network replication | §2.4, Fig 14 |
//! | [`wansim`] | TCP-handshake and DNS replication models | §3, Figs 15–17 |
//!
//! The `repro` binary (crate `repro-bench`) regenerates every figure:
//!
//! ```text
//! cargo run --release -p repro-bench --bin repro -- all --out results
//! ```
//!
//! ## The one-paragraph result
//!
//! Replicating an operation to two diverse replicas and keeping the first
//! answer cuts both mean and tail latency *provided* the extra load lands
//! below a threshold utilization — between ≈ 26 % (deterministic service)
//! and 50 % (heavy-tailed service) when the client-side cost of the second
//! copy is negligible, collapsing toward zero as that cost approaches the
//! mean service time. The crates here verify that claim analytically
//! (Theorem 1's exact 1/3 for exponential service), in an abstract queueing
//! model, in a disk-backed storage cluster, in an in-memory cache (where
//! replication *loses* — the exception that validates the model), in a
//! 54-host packet-level fabric, and across wide-area DNS and TCP handshake
//! models.

pub use netsim;
pub use queuesim;
pub use redundancy;
pub use simcore;
pub use storesim;
pub use wansim;
