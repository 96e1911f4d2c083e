//! Simulation parameters, the run report, and the bottleneck link that
//! [`crate::ScaledSim`] integrates.
//!
//! The tests here are the engine properties every run must satisfy:
//! link filling, equal sharing, caps, RTT bias, loss-free light load.

use crate::flow::FlowGroup;
use crate::queue::{DropTailQueue, RedConfig, RedQueue};

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Bottleneck capacity `C` (units/s).
    pub capacity: f64,
    /// Buffer size as a multiple of the bandwidth-delay product
    /// (`buffer = factor · C · min RTT`); 1.0 is the classic rule.
    pub buffer_bdp_factor: f64,
    /// Maximum segment size in rate units (sets the window granularity).
    /// `0.0` (the default) auto-selects `capacity · min RTT / 256` — a
    /// 256-packet bandwidth-delay product — so window dynamics stay well
    /// resolved at any rate scale.
    pub mss: f64,
    /// Warm-up duration (seconds) discarded before measuring.
    pub warmup: f64,
    /// Measurement duration (seconds).
    pub measure: f64,
    /// Integration step as a fraction of the smallest base RTT.
    pub dt_rtt_fraction: f64,
    /// Active queue management. `Some` (the default) uses a RED queue,
    /// under which the fluid AIMD fixed point is exactly max-min fair;
    /// `None` uses plain drop-tail, whose synchronized loss bursts are the
    /// realistic-but-messier alternative.
    pub red: Option<RedConfig>,
    /// When `true`, a group whose flow count is zero still contributes
    /// **one** probe flow to the arrival process, so its measured rate is
    /// what an actual (re-)joining user would get — including the user's
    /// own congestion displacement. The demand-churn driver needs this;
    /// plain throughput experiments leave it off so empty groups are
    /// truly absent.
    pub probe_empty_groups: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            capacity: 100.0,
            buffer_bdp_factor: 1.0,
            mss: 0.0,
            warmup: 60.0,
            measure: 60.0,
            dt_rtt_fraction: 0.05,
            red: Some(RedConfig::default()),
            probe_empty_groups: false,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Time-averaged per-flow throughput of each group (units/s).
    pub per_flow_rate: Vec<f64>,
    /// Time-averaged aggregate throughput at the link (units/s), capped at
    /// the capacity. It counts every flow that crosses the link, so with
    /// [`SimConfig::probe_empty_groups`] set it includes the probe flow of
    /// each empty group.
    pub aggregate: f64,
    /// Mean loss probability observed over the measurement window.
    pub mean_loss: f64,
    /// Mean queueing delay over the measurement window (seconds).
    pub mean_queue_delay: f64,
    /// Total simulated duration (seconds).
    pub duration: f64,
}

/// The bottleneck queue variants.
#[derive(Debug, Clone)]
pub(crate) enum Bottleneck {
    DropTail(DropTailQueue),
    Red(RedQueue),
}

impl Bottleneck {
    pub(crate) fn delay(&self) -> f64 {
        match self {
            Bottleneck::DropTail(q) => q.delay(),
            Bottleneck::Red(q) => q.delay(),
        }
    }

    pub(crate) fn backlog(&self) -> f64 {
        match self {
            Bottleneck::DropTail(q) => q.backlog(),
            Bottleneck::Red(q) => q.backlog(),
        }
    }

    pub(crate) fn step(&mut self, dt: f64, arrival: f64) -> f64 {
        match self {
            Bottleneck::DropTail(q) => q.step(dt, arrival),
            Bottleneck::Red(q) => q.step(dt, arrival),
        }
    }
}

/// Resolve the auto MSS and build the bottleneck queue for `config` —
/// shared by [`crate::ScaledSim`] and the fixed-step test oracle, so both
/// model the identical link.
pub(crate) fn build_bottleneck(config: &mut SimConfig, min_rtt: f64) -> Bottleneck {
    if config.mss == 0.0 {
        config.mss = config.capacity * min_rtt / 256.0;
    }
    let buffer = (config.buffer_bdp_factor * config.capacity * min_rtt).max(config.mss);
    match config.red {
        Some(red) => Bottleneck::Red(RedQueue::new(config.capacity, buffer, red)),
        None => Bottleneck::DropTail(DropTailQueue::new(config.capacity, buffer)),
    }
}

/// Arrival weight of `group`: its flow count, or one probe flow for an
/// empty group when `probe_empty_groups` is set.
pub(crate) fn arrival_weight(group: &FlowGroup, probe_empty_groups: bool) -> f64 {
    if group.flows == 0 && probe_empty_groups {
        1.0
    } else {
        group.flows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScaledSim;

    fn quick_config(capacity: f64) -> SimConfig {
        SimConfig {
            capacity,
            warmup: 30.0,
            measure: 30.0,
            ..SimConfig::default()
        }
    }

    fn run(groups: Vec<FlowGroup>) -> SimReport {
        ScaledSim::new(groups, quick_config(100.0), 1).run().report
    }

    #[test]
    fn single_uncapped_flow_fills_the_link() {
        let groups = vec![FlowGroup::new("a", 1, 1e9, 0.1)];
        let report = run(groups);
        assert!(
            report.per_flow_rate[0] > 85.0,
            "one flow should nearly fill C=100, got {}",
            report.per_flow_rate[0]
        );
        assert!(report.aggregate <= 100.0 + 1e-9);
    }

    #[test]
    fn two_equal_flows_share_equally() {
        let groups = vec![
            FlowGroup::new("a", 1, 1e9, 0.1),
            FlowGroup::new("b", 1, 1e9, 0.1),
        ];
        let report = run(groups);
        let (a, b) = (report.per_flow_rate[0], report.per_flow_rate[1]);
        assert!((a - b).abs() < 0.05 * (a + b), "a={a} b={b}");
        assert!(a + b > 85.0, "link should be well utilised: {}", a + b);
    }

    #[test]
    fn capped_flow_leaves_capacity_to_others() {
        let groups = vec![
            FlowGroup::new("capped", 1, 10.0, 0.1),
            FlowGroup::new("greedy", 1, 1e9, 0.1),
        ];
        let report = run(groups);
        assert!(
            (report.per_flow_rate[0] - 10.0).abs() < 0.8,
            "capped flow ~10, got {}",
            report.per_flow_rate[0]
        );
        assert!(
            report.per_flow_rate[1] > 75.0,
            "greedy flow should take the rest, got {}",
            report.per_flow_rate[1]
        );
    }

    #[test]
    fn shorter_rtt_wins_more() {
        let groups = vec![
            FlowGroup::new("near", 1, 1e9, 0.02),
            FlowGroup::new("far", 1, 1e9, 0.2),
        ];
        let report = run(groups);
        assert!(
            report.per_flow_rate[0] > 1.5 * report.per_flow_rate[1],
            "near {} vs far {}",
            report.per_flow_rate[0],
            report.per_flow_rate[1]
        );
    }

    #[test]
    fn light_load_sees_no_loss() {
        let groups = vec![FlowGroup::new("tiny", 1, 5.0, 0.1)];
        let report = run(groups);
        assert_eq!(report.mean_loss, 0.0);
        assert!((report.per_flow_rate[0] - 5.0).abs() < 0.5);
    }

    #[test]
    fn zero_flow_group_contributes_nothing() {
        let groups = vec![
            FlowGroup::new("ghost", 0, 1e9, 0.1),
            FlowGroup::new("real", 1, 1e9, 0.1),
        ];
        let report = run(groups);
        assert!(report.per_flow_rate[1] > 85.0);
    }

    #[test]
    fn many_flows_split_the_link() {
        let groups = vec![FlowGroup::new("swarm", 10, 1e9, 0.05)];
        let report = run(groups);
        assert!(
            (report.per_flow_rate[0] - 10.0).abs() < 2.0,
            "each of 10 flows ~10, got {}",
            report.per_flow_rate[0]
        );
    }
}
