//! # public-option — a reproduction of "The Public Option: a
//! Non-regulatory Alternative to Network Neutrality"
//!
//! This facade crate re-exports the whole workspace behind one
//! dependency, mirroring the paper's structure (Ma & Misra, CoNEXT 2011):
//!
//! * [`demand`] — content providers and demand functions (§II-A);
//! * [`alloc`] — rate allocation mechanisms and Axioms 1–4 (§II-B);
//! * [`eq`] — the rate equilibrium and consumer surplus (§II-C);
//! * [`core`] — the two-stage ISP/CP game, the Public Option duopoly and
//!   the oligopoly market (§III–§IV);
//! * [`netsim`] — the fluid AIMD (TCP) simulator validating the max-min
//!   assumption (§II-D.2);
//! * [`workload`] — the paper's synthetic CP ensembles;
//! * [`experiments`] — figure-by-figure reproduction harness;
//! * [`serve`] — equilibrium-as-a-service: the HTTP/JSON query daemon
//!   with its sharded scenario cache;
//! * [`sched`] — the persistent work-stealing executor behind every
//!   parallel sweep and the serve daemon's worker pool;
//! * [`num`] — the numeric substrate underneath all of it.
//!
//! ## Quickstart
//!
//! ```
//! use public_option::prelude::*;
//!
//! // Three CPs from the paper's §II-D example.
//! let pop: Population = figure3_trio().into();
//!
//! // Rate equilibrium at per-capita capacity ν = 2 (Theorem 1).
//! let eq = solve_maxmin(&pop, 2.0, Tolerance::default());
//! assert!(eq.aggregate <= 2.0 + 1e-9);
//!
//! // A monopolist carves 50% premium capacity at charge 0.2 (§III).
//! let sol = competitive_equilibrium(&pop, 2.0, IspStrategy::new(0.5, 0.2), Tolerance::default());
//! let phi = sol.outcome.consumer_surplus(&pop);
//! assert!(phi > 0.0);
//!
//! // Add a Public Option ISP with half the capacity (§IV-A).
//! let duo = duopoly_with_public_option(&pop, 2.0, IspStrategy::premium_only(0.3), 0.5, Tolerance::default());
//! assert!(duo.share_i <= 1.0 && duo.phi > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use pubopt_alloc as alloc;
pub use pubopt_core as core;
pub use pubopt_demand as demand;
pub use pubopt_eq as eq;
pub use pubopt_experiments as experiments;
pub use pubopt_netsim as netsim;
pub use pubopt_num as num;
pub use pubopt_sched as sched;
pub use pubopt_serve as serve;
pub use pubopt_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use pubopt_alloc::{MaxMinFair, RateAllocator, WeightedAlphaFair};
    pub use pubopt_core::{
        compare_regimes, competitive_equilibrium, duopoly_with_public_option,
        market_share_equilibrium, nash_equilibrium, optimal_strategy, GameOutcome, Isp,
        IspStrategy, MarketGame, Partition, ServiceClass,
    };
    pub use pubopt_demand::archetypes::{figure3_trio, google, netflix, skype};
    pub use pubopt_demand::{ContentProvider, Demand, DemandKind, Population};
    pub use pubopt_eq::{consumer_surplus, solve_maxmin, RateEquilibrium, System};
    pub use pubopt_netsim::{ChurnConfig, ChurnSim, FlowGroup, ScaledSim, SimConfig};
    pub use pubopt_num::Tolerance;
    pub use pubopt_workload::{paper_ensemble, EnsembleConfig, Scenario, ScenarioKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let pop: Population = figure3_trio().into();
        let eq = solve_maxmin(&pop, 1.0, Tolerance::default());
        assert_eq!(eq.thetas.len(), 3);
    }
}
