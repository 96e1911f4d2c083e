//! The fixed-step reference integrator [`crate::ScaledSim`] is tested
//! against.
//!
//! [`FluidSim`] advances every group at one global tick of
//! `dt_rtt_fraction × min RTT` with explicit Euler steps: the window
//! dynamics, the bottleneck queue and the RTT feedback all move together,
//! with no class aggregation, no lazy queue integration and no calendar.
//! That makes it slow (O(groups) per tick at the smallest RTT's cadence)
//! and easy to trust, which is what an oracle needs. Compiled only for
//! tests, together with [`scale_population`], the population the scale
//! tests run both engines on.

use crate::event::EventQueue;
use crate::flow::{FlowGroup, FlowState};
use crate::sim::{arrival_weight, build_bottleneck, Bottleneck, SimConfig, SimReport};

/// Phase boundaries of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    StartMeasure,
    Stop,
}

/// The fixed-dt fluid simulator.
pub(crate) struct FluidSim {
    groups: Vec<FlowGroup>,
    config: SimConfig,
    states: Vec<FlowState>,
    queue: Bottleneck,
}

impl FluidSim {
    /// Build the oracle for `groups`.
    pub(crate) fn new(groups: Vec<FlowGroup>, mut config: SimConfig) -> Self {
        assert!(!groups.is_empty(), "need at least one flow group");
        assert!(config.dt_rtt_fraction > 0.0 && config.dt_rtt_fraction <= 0.5);
        let min_rtt = groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let states = (0..groups.len()).map(FlowState::new).collect();
        let queue = build_bottleneck(&mut config, min_rtt);
        Self {
            groups,
            config,
            states,
            queue,
        }
    }

    /// Advance every group by `dt`; returns the interval's loss
    /// probability.
    fn step(&mut self, dt: f64) -> f64 {
        let qdelay = self.queue.delay();
        let probe = self.config.probe_empty_groups;
        let mut aggregate = 0.0;
        for (g, group) in self.groups.iter().enumerate() {
            let rtt = group.rtt_base + qdelay;
            let r = self.states[g].rate(self.config.mss, rtt, group.rate_cap);
            aggregate += r * arrival_weight(group, probe);
        }
        let p = self.queue.step(dt, aggregate);
        for (g, group) in self.groups.iter().enumerate() {
            // A group with zero active flows still evolves its window as
            // a probe under the queue's loss process, so its rate tracks
            // what a joining flow would achieve.
            let rtt = group.rtt_base + qdelay;
            self.states[g].step(dt, rtt, p, self.config.mss, group.rate_cap);
        }
        p
    }

    /// Run warm-up then measurement: `StartMeasure` and `Stop` events
    /// bound the phases, and between events the dynamics advance in
    /// fixed steps.
    pub(crate) fn run(&mut self) -> SimReport {
        let min_rtt = self
            .groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let dt = self.config.dt_rtt_fraction * min_rtt;
        let probe = self.config.probe_empty_groups;

        let mut events = EventQueue::new();
        events.schedule(self.config.warmup, Phase::StartMeasure);
        events.schedule(self.config.warmup + self.config.measure, Phase::Stop);

        let mut t = 0.0;
        let mut measuring = false;
        let mut acc_rates = vec![0.0f64; self.groups.len()];
        let mut acc_aggregate = 0.0;
        let mut acc_loss = 0.0;
        let mut acc_delay = 0.0;
        let mut samples = 0usize;

        while let Some((event_time, phase)) = events.pop() {
            while t < event_time {
                let step_dt = dt.min(event_time - t);
                let p = self.step(step_dt);
                t += step_dt;
                if measuring {
                    let qdelay = self.queue.delay();
                    let mut agg = 0.0;
                    for (g, group) in self.groups.iter().enumerate() {
                        let rtt = group.rtt_base + qdelay;
                        let send = self.states[g].rate(self.config.mss, rtt, group.rate_cap);
                        // Goodput: the share of the send rate that
                        // survives the queue this interval.
                        let goodput = send * (1.0 - p);
                        acc_rates[g] += goodput;
                        agg += goodput * arrival_weight(group, probe);
                    }
                    acc_aggregate += agg.min(self.config.capacity);
                    acc_loss += p;
                    acc_delay += qdelay;
                    samples += 1;
                }
            }
            match phase {
                Phase::StartMeasure => measuring = true,
                Phase::Stop => break,
            }
        }

        let n = samples.max(1) as f64;
        SimReport {
            per_flow_rate: acc_rates.iter().map(|r| r / n).collect(),
            aggregate: acc_aggregate / n,
            mean_loss: acc_loss / n,
            mean_queue_delay: acc_delay / n,
            duration: t,
        }
    }
}

/// The scale population: `flows` flows spread evenly over `groups`
/// groups, with per-flow caps rotating through four classes around a
/// 1.2 units/flow fair share (two bind, one sits just above the water
/// level, one is uncapped) and base RTTs on a lattice of `rtt_classes`
/// multiples of 20 ms (a matched 80 ms when 1). The event engine
/// aggregates identical `(RTT, cap)` pairs, so however many groups there
/// are it steps at most `4 × rtt_classes` classes. The MSS is pinned to
/// an eighth of the shortest RTT's per-flow bandwidth-delay product, so
/// the AIMD dynamics stay resolved at every population size.
pub(crate) fn scale_population(
    flows: usize,
    groups: usize,
    rtt_classes: usize,
    sim_seconds: f64,
) -> (Vec<FlowGroup>, SimConfig) {
    const CAPS: [f64; 4] = [0.6, 1.2, 2.0, 1e6];
    let rtt = |i: usize| {
        if rtt_classes == 1 {
            0.08
        } else {
            0.02 * ((i % rtt_classes) + 1) as f64
        }
    };
    let population = (0..groups)
        .map(|i| {
            let n = flows / groups + usize::from(i < flows % groups);
            let cap = CAPS[(i / rtt_classes) % CAPS.len()];
            FlowGroup::new(format!("g{i}"), n, cap, rtt(i))
        })
        .collect();
    let config = SimConfig {
        capacity: 1.2 * flows as f64,
        mss: 1.2 * rtt(0) / 8.0,
        warmup: sim_seconds / 2.0,
        measure: sim_seconds / 2.0,
        ..SimConfig::default()
    };
    (population, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::compare_report_to_maxmin;
    use crate::ScaledSim;
    use std::time::Instant;

    /// The matched base RTT of the scale population (seconds).
    const RTT: f64 = 0.08;

    /// Median wall times of `a` and `b` over `samples` interleaved runs.
    /// Interleaving exposes both engines to the same background load; a
    /// single timed run per engine is too noisy to gate a ratio on.
    fn median_ns(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (u128, u128) {
        fn time(f: &mut impl FnMut()) -> u128 {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        }
        let (mut ta, mut tb): (Vec<u128>, Vec<u128>) =
            (0..samples).map(|_| (time(&mut a), time(&mut b))).unzip();
        ta.sort_unstable();
        tb.sort_unstable();
        (ta[samples / 2], tb[samples / 2])
    }

    struct HeadToHead {
        fixed_ns: u128,
        event_ns: u128,
        fixed_updates: u64,
        event_updates: u64,
        fixed_divergence: f64,
        event_divergence: f64,
    }

    /// Measure each engine's divergence from the max-min prediction on
    /// the matched-RTT scale population, then time both; the divergence
    /// runs double as each engine's warm-up run.
    fn head_to_head(flows: usize, groups: usize, sim_seconds: f64, samples: usize) -> HeadToHead {
        let (population, config) = scale_population(flows, groups, 1, sim_seconds);
        let fixed = FluidSim::new(population.clone(), config.clone()).run();
        let event = ScaledSim::new(population.clone(), config.clone(), 1).run();
        let (fixed_ns, event_ns) = median_ns(
            samples,
            || {
                std::hint::black_box(FluidSim::new(population.clone(), config.clone()).run());
            },
            || {
                std::hint::black_box(ScaledSim::new(population.clone(), config.clone(), 1).run());
            },
        );
        let divergence = |report: &SimReport| {
            compare_report_to_maxmin(report, &population, config.capacity).mean_rel_error
        };
        // The fixed-dt work term: every group at every tick.
        let ticks = (sim_seconds / (config.dt_rtt_fraction * RTT)).round() as u64;
        HeadToHead {
            fixed_ns,
            event_ns,
            fixed_updates: ticks * groups as u64,
            event_updates: event.updates,
            fixed_divergence: divergence(&fixed),
            event_divergence: divergence(&event.report),
        }
    }

    /// At quick size the event engine already wins, even in debug
    /// builds: it steps 4 classes where the oracle steps 256 groups.
    #[test]
    fn event_engine_beats_fixed_dt_at_quick_size() {
        let h = head_to_head(2_000, 256, 4.0, 3);
        assert!(
            h.event_ns < h.fixed_ns,
            "event engine must be faster: fixed {} ns, event {} ns",
            h.fixed_ns,
            h.event_ns
        );
        assert!(
            h.event_updates * 10 <= h.fixed_updates,
            "work term must shrink 10x: fixed {} vs event {}",
            h.fixed_updates,
            h.event_updates
        );
    }

    /// The full-scale head-to-head: 100 000 flows over 2 048 groups on 4
    /// caps at 80 ms, 60 simulated seconds. Release only (the CI
    /// netsim-scale job runs it with `--ignored`).
    #[test]
    #[ignore = "full-scale release head-to-head; run with --release --ignored"]
    fn event_engine_is_20x_faster_at_matched_divergence() {
        let h = head_to_head(100_000, 2_048, 60.0, 5);
        let speedup = h.fixed_ns as f64 / h.event_ns.max(1) as f64;
        assert!(
            speedup >= 20.0,
            "event engine must be >= 20x faster, got {speedup:.1}x (fixed {} ns, event {} ns)",
            h.fixed_ns,
            h.event_ns
        );
        assert!(
            h.fixed_divergence <= 0.12 && h.event_divergence <= 0.12,
            "matched convergence: fixed {:.4}, event {:.4}",
            h.fixed_divergence,
            h.event_divergence
        );
    }
}
