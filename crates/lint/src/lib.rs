//! Determinism lint: static analysis enforcing the workspace's
//! reproducibility invariants.
//!
//! The repo's signature guarantee — bit-identical simulation output at
//! any worker count — survives only as long as no code path consults a
//! source of nondeterminism: HashMap iteration order, wall clocks, IEEE
//! partial comparisons, or data races. CI byte-diffs catch a breach
//! *after* it lands in an experiment; this crate catches the code
//! pattern itself, at the source level, before anything runs.
//!
//! Structure:
//!
//! * [`lexer`] — a hand-rolled, comment/string/raw-string/char-literal
//!   aware Rust lexer (no dependencies, by workspace policy);
//! * [`rules`] — the checked-in rule table ([`rules::RULES`]) with
//!   per-path scopes and allowlists, and the token-pattern matchers.
//!
//! Run it with `cargo run -p lint` (exit 0 = clean, 1 = violations,
//! 2 = usage/IO error). The dynamic counterpart is
//! `simcore::shard::check` (shardcheck), which *executes* small sharded
//! workloads under every worker assignment and wake order and asserts
//! trace identity; together they turn "observed deterministic" into
//! "enforced deterministic".

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{check_file, check_workspace, Rule, Violation, CRATE_ROOTS, RULES};
