//! # storesim — the paper's disk-backed database and memcached experiments
//!
//! §2.2 of *Low Latency via Redundancy* deploys Apache file servers backed
//! by the Linux page cache over 10k-RPM disks, partitions files across
//! servers with consistent hashing (primary on server *n*, replica on
//! *n + 1*), drives them with open-loop Poisson clients, and measures GET
//! response times with and without 2-way replication. §2.3 repeats the
//! experiment against memcached, where the *client-side* cost of the second
//! copy (≈ 9 % of the 0.18 ms mean service time) flips the verdict.
//!
//! This crate rebuilds that testbed as a discrete-event simulation:
//!
//! * [`hashring`] — consistent hashing with virtual nodes (the placement
//!   substrate; the paper's n/n+1 replica rule sits on top);
//! * [`lru`] — a byte-capacity LRU standing in for the kernel page cache;
//! * [`disk`] — a mechanical-disk service model (seek + rotation +
//!   transfer) and the RAM path that replaces it for cache hits;
//! * [`cluster`] — servers (disk FIFO + cache + NIC), clients (Poisson
//!   open loop, replicated GETs, downlink serialization + fixed per-copy
//!   CPU cost), and the event loop connecting them;
//! * [`memcached`] — the §2.3 in-memory variant, including the *stub* mode
//!   the paper uses to isolate client-side overhead (Fig 13);
//! * [`service`] — the **online** variant's model: a sharded service
//!   whose front-end consults the `redundancy` planner *per request*,
//!   adapting the replication factor live as a windowed load estimate
//!   crosses the §2.1 threshold, with loser cancellation over FIFO or PS
//!   servers;
//! * [`sharded`] — the one runner of that service, on `simcore`'s sharded
//!   parallel engine (one shard per frontend lane and per server group),
//!   from the 8-server replicated ramps to hundred-server,
//!   million-request ramps, with bit-identical output at any thread
//!   count;
//! * [`rt`] — the **wall-clock** twin of [`service`]: real worker threads
//!   serving scripted requests over channels, live per-request planner
//!   decisions, and first-response cancellation racing actual execution —
//!   the decision trace stays deterministic, only latencies are real;
//! * [`experiments`] — one named configuration per figure (5 through 13),
//!   plus the service-layer load-ramp experiment.
//!
//! What carries over from the paper's hardware: the *ratios* that drive
//! behaviour (cache:disk ratio, file size vs transfer rates, fixed client
//! cost vs mean service time). What doesn't: absolute 2013 disk constants,
//! which are fixed approximations in [`disk`]. The testbed is one fixed
//! deployment (4 servers and 10 clients; memcached's 0.18 ms mean service
//! time and per-copy client costs), so its constants live beside the code
//! that reads them, and each config holds only what a figure varies.

#![warn(missing_docs)]

pub mod cluster;
pub mod disk;
pub mod experiments;
pub mod hashring;
pub mod lru;
pub mod memcached;
pub mod rt;
pub mod service;
pub mod sharded;

pub use cluster::{ClusterConfig, ClusterResult};
pub use experiments::{run_load_sweep, ExperimentSpec, LoadSweepRow};
pub use service::{ServiceConfig, ServiceResult};
pub use sharded::{run_sharded, ShardedOutcome};
