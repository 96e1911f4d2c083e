//! Conservation and stability properties of the fluid simulator.

use proptest::prelude::*;
use pubopt_netsim::{FlowGroup, ScaledSim, SimConfig, SimReport};

fn quick(capacity: f64, red: bool) -> SimConfig {
    SimConfig {
        capacity,
        warmup: 20.0,
        measure: 20.0,
        red: if red { Some(Default::default()) } else { None },
        ..SimConfig::default()
    }
}

fn run(groups: Vec<FlowGroup>, config: SimConfig) -> SimReport {
    ScaledSim::new(groups, config, 1).run().report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Goodput conservation: total measured throughput never exceeds the
    /// link capacity (within 2% measurement slack), for random group
    /// mixes under both queue disciplines.
    #[test]
    fn goodput_conserved(
        specs in prop::collection::vec((1usize..20, 0.5f64..50.0), 1..5),
        capacity in 20.0f64..200.0,
        red in prop::bool::ANY,
    ) {
        let groups: Vec<FlowGroup> = specs
            .iter()
            .enumerate()
            .map(|(i, &(n, cap))| FlowGroup::new(format!("g{i}"), n, cap, 0.08))
            .collect();
        let report = run(groups.clone(), quick(capacity, red));
        let total: f64 = report
            .per_flow_rate
            .iter()
            .zip(groups.iter())
            .map(|(r, g)| r * g.flows as f64)
            .sum();
        prop_assert!(total <= capacity * 1.02 + 1e-9,
            "total goodput {} exceeds capacity {}", total, capacity);
        prop_assert!(report.aggregate <= capacity * 1.001 + 1e-9);
    }

    /// With ample capacity every flow reaches its application cap.
    #[test]
    fn uncongested_flows_reach_caps(
        specs in prop::collection::vec((1usize..8, 0.5f64..10.0), 1..4),
    ) {
        let offered: f64 = specs.iter().map(|&(n, cap)| n as f64 * cap).sum();
        let groups: Vec<FlowGroup> = specs
            .iter()
            .enumerate()
            .map(|(i, &(n, cap))| FlowGroup::new(format!("g{i}"), n, cap, 0.08))
            .collect();
        let report = run(groups.clone(), quick(offered * 1.5 + 5.0, true));
        for (g, group) in groups.iter().enumerate() {
            prop_assert!(report.per_flow_rate[g] > 0.85 * group.rate_cap,
                "group {} rate {} well below its cap {}", g, report.per_flow_rate[g], group.rate_cap);
        }
        prop_assert_eq!(report.mean_loss, 0.0);
    }

    /// Determinism: the fluid model has no hidden randomness.
    #[test]
    fn simulation_is_deterministic(n1 in 1usize..10, n2 in 1usize..10, capacity in 20.0f64..100.0) {
        let groups = vec![
            FlowGroup::new("a", n1, 1e9, 0.05),
            FlowGroup::new("b", n2, 5.0, 0.1),
        ];
        let r1 = run(groups.clone(), quick(capacity, true));
        let r2 = run(groups, quick(capacity, true));
        prop_assert_eq!(r1.per_flow_rate, r2.per_flow_rate);
        prop_assert_eq!(r1.aggregate, r2.aggregate);
    }
}

#[test]
fn equal_flows_get_equal_rates_regardless_of_queue() {
    for red in [true, false] {
        let groups = vec![
            FlowGroup::new("x", 4, 1e9, 0.08),
            FlowGroup::new("y", 4, 1e9, 0.08),
        ];
        let report = run(groups, quick(80.0, red));
        let (a, b) = (report.per_flow_rate[0], report.per_flow_rate[1]);
        assert!(
            (a - b).abs() < 0.05 * (a + b),
            "red={red}: asymmetric rates {a} vs {b}"
        );
    }
}
