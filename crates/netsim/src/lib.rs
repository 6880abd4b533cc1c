//! # netsim — packet-level fat-tree simulation of in-network replication
//!
//! §2.4 of *Low Latency via Redundancy* proposes that switches replicate
//! the **first few packets of every flow along an alternate ECMP path at
//! strictly lower priority**: short flows dodge elephant collisions, and
//! because replicas are served only when no original traffic is waiting,
//! the scheme "can never delay the original, unreplicated traffic". The
//! paper evaluates this in ns-3 on a 54-host, 45-switch, 3-tier fat-tree
//! (k = 6) with 225 KB port buffers, a skewed datacenter flow mix
//! (1 KB–3 MB, >80 % of flows under 10 KB), and TCP with a 10 ms minRTO.
//!
//! This crate rebuilds that stack from scratch:
//!
//! * [`topology`] — k-ary fat-tree construction and two-level routing with
//!   per-hop ECMP candidate sets;
//! * [`port`] — output ports with 2-level strict priority, drop-tail
//!   buffers, and store-and-forward transmission;
//! * [`tcp`] — a NewReno-style transport: slow start, AIMD, 3-dupack fast
//!   retransmit, RFC 6298 RTO estimation clamped at the paper's 10 ms
//!   minimum, exponential backoff;
//! * [`workload`] — Poisson flow arrivals with the empirical datacenter
//!   size mix the paper takes from Benson et al.;
//! * [`sim`] — the event loop tying hosts, switches and flows together,
//!   including per-switch replication of the first J packets onto an
//!   alternate uplink at low priority and receiver-side dedup;
//! * [`experiments`] — the Figure 14 sweeps.
//!
//! ## Quick example
//!
//! ```
//! use netsim::experiments::run_pair;
//! use netsim::sim::SimConfig;
//!
//! // The paper's fabric, replicating the first 8 packets of every flow.
//! let cfg = SimConfig { flows: 2_000, load: 0.4, seed: 1, ..SimConfig::default() };
//! let mut out = run_pair(&cfg);
//! // Short flows should complete faster with replication at moderate load.
//! assert!(out.replicated.small_median() <= out.baseline.small_median() * 1.05);
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod packet;
pub mod port;
pub mod sim;
pub mod tcp;
pub mod topology;
pub mod workload;

pub use experiments::run_pair;
pub use sim::{FctStats, SimConfig};
