//! Quantifying "TCP ≈ max-min" (§II-D.2).
//!
//! [`compare_to_maxmin`] runs the fluid AIMD simulation ([`ScaledSim`] on
//! one worker) for a set of flow groups and compares the measured
//! per-flow throughputs with the water-filling prediction of
//! [`pubopt_alloc::MaxMinFair`] on the equivalent per-capita system. The
//! headline metrics are the mean/max relative error and the Jain fairness
//! index of the uncapped flows.

use crate::flow::FlowGroup;
use crate::scaled::ScaledSim;
use crate::sim::{SimConfig, SimReport};
use pubopt_alloc::{MaxMinFair, RateAllocator};
use pubopt_demand::{ContentProvider, DemandKind, Population};

/// Comparison of simulated AIMD rates against the max-min prediction.
#[derive(Debug, Clone)]
pub struct MaxMinComparison {
    /// Measured per-flow rate per group.
    pub simulated: Vec<f64>,
    /// Max-min fair prediction per group.
    pub predicted: Vec<f64>,
    /// Per-group relative error `|sim − pred| / pred` (groups with zero
    /// prediction are skipped).
    pub rel_error: Vec<f64>,
    /// Mean relative error.
    pub mean_rel_error: f64,
    /// Maximum relative error.
    pub max_rel_error: f64,
    /// Jain fairness index over the flows the prediction says should be
    /// *uncapped* (sharing the water level equally).
    pub jain_uncapped: f64,
    /// Mean queueing delay observed at the bottleneck (seconds) — add it
    /// to each group's base RTT to get the *effective* RTT that governs
    /// the AIMD operating point.
    pub mean_queue_delay: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`; 1.0 is perfectly fair.
/// Returns 1.0 for an empty slice (vacuously fair).
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().sum();
    let s2: f64 = xs.iter().map(|x| x * x).sum();
    if s2 == 0.0 {
        return 1.0;
    }
    s * s / (xs.len() as f64 * s2)
}

/// Run the simulation for `groups` on a link of `capacity` and compare
/// with the max-min prediction.
///
/// The equivalent analytical system treats each group as a CP with
/// `α_i = flows_i / Σ flows`, `θ̂_i = rate_cap_i`, constant demand and a
/// per-capita capacity `ν = capacity / Σ flows`.
pub fn compare_to_maxmin(groups: &[FlowGroup], config: SimConfig) -> MaxMinComparison {
    assert!(!groups.is_empty(), "need at least one group");
    let capacity = config.capacity;
    let report = ScaledSim::new(groups.to_vec(), config, 1).run().report;
    compare_report_to_maxmin(&report, groups, capacity)
}

/// Compare an already-computed simulation [`SimReport`] against the
/// max-min prediction for `groups` on a link of `capacity`.
///
/// This is [`compare_to_maxmin`] with the simulation factored out, so the
/// same divergence metric applies to any run producing a `SimReport` —
/// multi-worker [`ScaledSim`] runs and the `/v1/whatif` serving path
/// among them.
pub fn compare_report_to_maxmin(
    report: &SimReport,
    groups: &[FlowGroup],
    capacity: f64,
) -> MaxMinComparison {
    assert!(!groups.is_empty(), "need at least one group");
    let total_flows: usize = groups.iter().map(|g| g.flows).sum();
    assert!(total_flows > 0, "need at least one active flow");

    // Analytical prediction: per-flow max-min share.
    let m = total_flows as f64;
    let pop: Population = groups
        .iter()
        .map(|g| {
            ContentProvider::new(
                (g.flows as f64 / m).max(1e-12),
                g.rate_cap,
                DemandKind::Constant,
                0.0,
                0.0,
            )
        })
        .collect();
    let demands = vec![1.0; groups.len()];
    let nu = capacity / m;
    let predicted = MaxMinFair.allocate(&pop, &demands, nu);
    let water = MaxMinFair::water_level(&pop, &demands, nu);

    let mut rel_error = Vec::new();
    let mut uncapped_rates = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        if group.flows == 0 || predicted[g] <= 0.0 {
            continue;
        }
        rel_error.push((report.per_flow_rate[g] - predicted[g]).abs() / predicted[g]);
        if group.rate_cap > water {
            uncapped_rates.push(report.per_flow_rate[g]);
        }
    }
    let mean = if rel_error.is_empty() {
        0.0
    } else {
        rel_error.iter().sum::<f64>() / rel_error.len() as f64
    };
    let max = rel_error.iter().cloned().fold(0.0, f64::max);
    MaxMinComparison {
        simulated: report.per_flow_rate.clone(),
        predicted,
        rel_error,
        mean_rel_error: mean,
        max_rel_error: max,
        jain_uncapped: jain_index(&uncapped_rates),
        mean_queue_delay: report.mean_queue_delay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(capacity: f64) -> SimConfig {
        SimConfig {
            capacity,
            warmup: 40.0,
            measure: 40.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn jain_of_equal_rates_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_detects_unfairness() {
        let j = jain_index(&[10.0, 0.0]);
        assert!((j - 0.5).abs() < 1e-12);
    }

    #[test]
    fn jain_empty_is_vacuously_fair() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn homogeneous_flows_match_maxmin_closely() {
        // The paper's first-approximation claim in its cleanest setting:
        // equal RTTs, no caps binding below the water level.
        let groups = vec![
            FlowGroup::new("a", 3, 1e9, 0.1),
            FlowGroup::new("b", 2, 1e9, 0.1),
        ];
        let cmp = compare_to_maxmin(&groups, config(100.0));
        assert!(
            cmp.mean_rel_error < 0.10,
            "mean error {} too large: sim {:?} pred {:?}",
            cmp.mean_rel_error,
            cmp.simulated,
            cmp.predicted
        );
        assert!(cmp.jain_uncapped > 0.99, "jain {}", cmp.jain_uncapped);
    }

    #[test]
    fn capped_groups_match_their_caps() {
        let groups = vec![
            FlowGroup::new("google", 5, 1.0, 0.1), // tiny cap, far below water
            FlowGroup::new("netflix", 2, 1e9, 0.1),
        ];
        let cmp = compare_to_maxmin(&groups, config(100.0));
        // The capped group must sit at its cap in both worlds.
        assert!((cmp.predicted[0] - 1.0).abs() < 1e-9);
        assert!(
            (cmp.simulated[0] - 1.0).abs() < 0.15,
            "sim {}",
            cmp.simulated[0]
        );
        assert!(
            cmp.mean_rel_error < 0.12,
            "mean error {}",
            cmp.mean_rel_error
        );
    }

    #[test]
    fn rtt_heterogeneity_degrades_the_approximation() {
        // With a 10× RTT spread, TCP deviates from max-min — the paper's
        // "to a first approximation" caveat, made quantitative.
        let equal = vec![
            FlowGroup::new("a", 1, 1e9, 0.1),
            FlowGroup::new("b", 1, 1e9, 0.1),
        ];
        let spread = vec![
            FlowGroup::new("a", 1, 1e9, 0.02),
            FlowGroup::new("b", 1, 1e9, 0.2),
        ];
        let cmp_equal = compare_to_maxmin(&equal, config(100.0));
        let cmp_spread = compare_to_maxmin(&spread, config(100.0));
        assert!(
            cmp_spread.max_rel_error > 2.0 * cmp_equal.max_rel_error,
            "spread {} should be much worse than equal {}",
            cmp_spread.max_rel_error,
            cmp_equal.max_rel_error
        );
    }
}
