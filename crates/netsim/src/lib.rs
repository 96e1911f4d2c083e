//! # pubopt-netsim — a fluid AIMD (TCP) simulator for the bottleneck link
//!
//! The paper's entire strategic analysis stands on one networking claim
//! (§II-D.2): *"to a first approximation, TCP provides a max-min fair
//! allocation of available bandwidth amongst flows"* (citing Chiu & Jain's
//! AIMD analysis and Mo & Walrand's α-fairness). The paper asserts this;
//! this crate **measures** it, which is our substitution for the real TCP
//! substrate the model abstracts away (DESIGN.md, substitution 2).
//!
//! ## Model
//!
//! The topology is exactly the paper's Figure 1: `N` groups of flows (one
//! group per content provider) contend at a single last-mile bottleneck.
//! Flows follow the classical *fluid* AIMD dynamics:
//!
//! ```text
//! dW_i/dt = 1/RTT_i               (additive increase: 1 MSS per RTT)
//!         − p(t) · (W_i/RTT_i) · W_i/2     (multiplicative decrease)
//! ```
//!
//! with a drop-tail queue at the link: losses occur only while the queue
//! is full, with loss probability equal to the overflow fraction. Queueing
//! delay feeds back into `RTT_i = base_i + q/C`. A flow whose window
//! reaches its application limit (`θ̂_i · RTT_i`) stops growing — this is
//! how the paper's "unconstrained throughput" enters the transport layer.
//!
//! In steady state the dynamics give the familiar `rate ∝ 1/(RTT·√p)`
//! law, so with homogeneous RTTs the allocation converges to max-min
//! (equal shares, capped at `θ̂_i`), and with heterogeneous RTTs it tilts
//! exactly the way [`pubopt_alloc::WeightedAlphaFair::with_rtt_bias`]
//! models. The [`validate`] module quantifies both.
//!
//! ## Demand-driven churn
//!
//! [`churn`] closes the loop of §II-C inside the simulator: every update
//! period, each CP's active flow count is re-drawn from its demand
//! function evaluated at the *measured* per-flow throughput. The
//! simulated system settles at flow counts and rates matching the
//! analytical rate equilibrium of Theorem 1 — an end-to-end validation
//! that the paper's equilibrium concept describes the emergent behaviour
//! of an AIMD network.
//!
//! Everything is deterministic: the fluid model needs no randomness, and
//! the optional RTT jitter is seeded (ChaCha20).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calendar;
pub mod churn;
#[cfg(test)]
mod event;
pub mod flow;
#[cfg(test)]
mod oracle;
pub mod queue;
pub mod scaled;
pub mod scenario;
pub mod sim;
pub mod trace;
pub mod validate;

pub use calendar::{CalendarQueue, EventId};
pub use churn::{ChurnConfig, ChurnReport, ChurnSim};
pub use flow::{FlowGroup, FlowState};
pub use queue::{DropTailQueue, RedConfig, RedQueue};
pub use scaled::{ScaledReport, ScaledSim};
pub use scenario::{groups_from_population, RttModel};
pub use sim::{SimConfig, SimReport};
pub use trace::{Trace, TraceSample};
pub use validate::{compare_report_to_maxmin, compare_to_maxmin, jain_index, MaxMinComparison};
