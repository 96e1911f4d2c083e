//! # pubopt-obs — JSON and clock helpers for the Public Option workspace
//!
//! Two dependency-free modules that the daemon, `repro`, `loadgen` and
//! the benchmark share:
//!
//! * [`json`] — a minimal JSON value tree, writer and strict parser, used
//!   for the daemon's request and response bodies, `/v1/stats` and
//!   `repro`'s `report.jsonl`;
//! * [`clock`] — the UTC date stamped on run reports, honouring
//!   `SOURCE_DATE_EPOCH`.
//!
//! The crate records no metrics. Solver effort travels with each answer
//! (`SolveStats`, `SweepEffort`, `ScaledReport`), and the daemon books its
//! counters in its own `Stat` table behind `/v1/stats`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod json;
