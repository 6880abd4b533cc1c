//! # wansim — wide-area replication models (§3 of the paper)
//!
//! §3 moves from fixed resources to the *individual view*: a client decides
//! whether replicating an operation is worth the extra traffic it pays for.
//! Two applications are studied, judged against the 16 ms/KB cost-
//! effectiveness benchmark of Vulimiri et al.:
//!
//! * [`handshake`] — duplicating the three TCP handshake packets on one
//!   path. Loss constants come straight from the paper's citation of Chan
//!   et al.: single-packet loss 0.0048, back-to-back pair loss 0.0007
//!   (correlated — 7× better, not the p² of independence). Linux timeout
//!   ladder: 3 s initial RTO for SYN/SYN-ACK with exponential backoff,
//!   3·RTT for the final ACK.
//! * [`dns`] — replicating a DNS query to the k best of 10 resolvers and
//!   taking the first answer, reproducing the paper's two-stage PlanetLab
//!   methodology (rank by mean, then race the top k) including the
//!   2-second loss-equals-cap convention (Figs 15–17).
//! * [`costbench`] — the 16 ms/KB break-even line and ms-per-KB accounting
//!   used by both applications (Fig 17's y-axis).
//!
//! Two of the paper's forward-looking remarks are implemented as
//! extensions: [`handshake::HandshakeModel::expected_completion_spaced`]
//! (footnote 3's spaced packet pairs) and [`dns_caching`] (the
//! "caching side-benefit" of racing several resolvers).

#![warn(missing_docs)]

pub mod costbench;
pub mod dns;
pub mod dns_caching;
pub mod handshake;

pub use costbench::{savings_ms_per_kb, BREAK_EVEN_MS_PER_KB};
pub use dns::{DnsExperiment, DnsPopulation};
pub use handshake::{HandshakeModel, HandshakeOutcome};
