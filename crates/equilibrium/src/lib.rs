//! # pubopt-eq — the rate equilibrium (§II-C of the paper)
//!
//! Demand functions map throughput to demand; rate allocation mechanisms
//! map fixed demand to throughput. The **rate equilibrium** (Theorem 1) is
//! the unique profile `{θ_i}` consistent with both. This crate solves it:
//!
//! * [`solver::solve_maxmin`] — the specialised solver for the max-min
//!   fair mechanism. Under max-min, the equilibrium is fully described by
//!   a scalar *water level*, and the aggregate-throughput function of the
//!   water level is continuous and non-decreasing (Assumption 1), so the
//!   equilibrium is a single monotone root find — fast and exact.
//! * [`solver::solve_generic`] — a damped fixed-point iteration that works
//!   for *any* [`RateAllocator`](pubopt_alloc::RateAllocator) satisfying Axioms 1–4 (used for the
//!   weighted α-fair mechanisms, and as the cross-check oracle for the
//!   specialised solver; DESIGN.md ablation A1).
//!
//! On top of the equilibrium the crate computes the paper's welfare
//! quantities: per-capita consumer surplus `Φ = Σ φ_i α_i d_i(θ_i) θ_i`
//! (Eq. 2, Theorem 2) and per-capita CP throughput `ρ_i = d_i(θ_i) θ_i`
//! (Eq. 5), both of which drive every strategic result in §III–§IV.
//!
//! Everything is expressed in per-capita units `ν = µ/M`, which is
//! justified by Lemma 1 (Axiom 4 collapses `(M, µ)` to `ν`). The
//! [`system`] module provides the absolute-units view and the conversion,
//! so Theorem 3 (scale invariance) can be tested rather than assumed.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod solver;
pub mod source;
pub mod surplus;
pub mod sweep;
pub mod system;

pub use solver::{
    generic_default_policy, solve_generic, solve_generic_warm, solve_generic_with_policy,
    solve_maxmin, solve_maxmin_traced, try_solve_maxmin, EquilibriumError, RateEquilibrium,
    SolveStats,
};
pub use source::{
    aggregate_block_partials, lambda_block_partials, profile_block_slices,
    solve_maxmin_with_source, AggregateSource, LocalSource, PartitionedSource, SourceProfile,
    SourceSolveError,
};
pub use surplus::{
    consumer_surplus, consumer_surplus_columnar, per_cp_surplus, per_cp_surplus_columnar_into,
    rho_profile,
};
pub use sweep::{
    solve_sweep, solve_sweep_traced, try_solve_maxmin_warm, SweepCache, SweepEffort, WarmStart,
};
pub use system::System;
