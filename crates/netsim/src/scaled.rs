//! The fluid simulator: calendar-queue event scheduling, class-level
//! aggregation and per-class parallel stepping.
//!
//! A fixed-step integrator advances *every* group at a global tick
//! derived from the **smallest** RTT in the system — a 25× RTT spread
//! means the slowest groups are integrated 25× more often than their
//! dynamics need, and the cost per tick is O(groups). [`ScaledSim`]
//! removes both factors (the tests keep such an integrator as the
//! reference it must agree with):
//!
//! * **RTT-clocked updates.** Each flow class schedules its own AIMD
//!   update every `round(RTT/min RTT)` base ticks on a
//!   [`crate::CalendarQueue`]; between its events a class costs nothing.
//!   The bottleneck queue is integrated lazily up to each event time
//!   (arrival rates are piecewise-constant between class updates), with
//!   a cancellable **drain timer** pinning an integration point at the
//!   instant the backlog empties.
//! * **Class aggregation.** Groups with identical `(RTT, rate cap)`
//!   share one aggregate window state with an exact per-group expansion
//!   — the same one-state-per-identical-population argument
//!   [`crate::FlowState`] already makes for flows within a group.
//! * **Parallel stepping.** All classes due at one event time form a
//!   batch; large batches are mapped over the `pubopt-sched` pool. The
//!   map writes slot *i* from item *i* regardless of thread interleaving
//!   and results are committed in slot order, so traces are bit-identical
//!   across worker counts (the sweep runners' determinism discipline).
//!
//! ## Determinism contract
//!
//! Events at one time are processed as: class updates (in schedule
//! order), then phase/sample/drain events. Every arithmetic operation is
//! ordered by class index or schedule sequence — never by thread timing
//! — so a run is a pure function of `(groups, config, workers ≥ 1 ×
//! sample period)`, and byte-identical across `workers`.

use crate::calendar::{CalendarQueue, EventId};
use crate::flow::{FlowGroup, FlowState};
use crate::sim::{arrival_weight, build_bottleneck, Bottleneck, SimConfig, SimReport};
use crate::trace::{Trace, TraceSample};

/// Batch size below which a parallel dispatch costs more than it saves;
/// smaller batches run inline (same arithmetic, same commit order, so
/// the choice never changes results).
const PARALLEL_THRESHOLD: usize = 48;

/// Aggregate state of one flow class: every group with the same
/// `(rtt_base, rate_cap)` pair, stepped as one representative window.
#[derive(Debug, Clone)]
struct ClassState {
    /// Base RTT shared by all member groups (seconds).
    rtt_base: f64,
    /// Application rate cap shared by all member groups.
    cap: f64,
    /// Total arrival-weight of the class: active flows across member
    /// groups, with empty groups counting one probe flow when
    /// [`SimConfig::probe_empty_groups`] is set.
    flows: f64,
    /// Update period in base ticks (`round(rtt / min_rtt)`, ≥ 1).
    period_ticks: u64,
    /// Representative congestion window (MSS).
    cwnd: f64,
    /// Per-flow send rate as of the last update (units/s).
    rate: f64,
    /// Time of the last update (seconds).
    last_t: f64,
    /// Value of the global loss integral at the last update.
    last_loss_int: f64,
    /// Accumulated per-flow goodput·time over the measurement window.
    goodput: f64,
    /// Next scheduled update, in base ticks.
    next_tick: u64,
}

/// Events driving the scaled simulation.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// AIMD update of one class (index into the class table).
    Update(u32),
    /// Measurement window opens.
    StartMeasure,
    /// Simulation ends.
    Stop,
    /// Trace sample point.
    Sample,
    /// The bottleneck backlog is predicted to hit zero: forces an
    /// integration point exactly at the kink. Cancelled and rescheduled
    /// whenever the aggregate arrival rate changes.
    Drain,
}

/// Report of a scaled run: the standard [`SimReport`] (expanded back to
/// per-group values) plus scheduler effort counters.
#[derive(Debug, Clone)]
pub struct ScaledReport {
    /// Per-group report.
    pub report: SimReport,
    /// Number of aggregated flow classes the groups collapsed into.
    pub classes: usize,
    /// Calendar events processed.
    pub events: u64,
    /// Class AIMD updates executed (the O(·) work term; a fixed-step
    /// integrator's equivalent is `groups × steps`).
    pub updates: u64,
}

/// The event-driven, class-aggregated fluid simulator.
#[derive(Debug, Clone)]
pub struct ScaledSim {
    /// Flow groups under simulation (one per CP).
    pub groups: Vec<FlowGroup>,
    /// Simulation parameters (MSS resolved at construction).
    pub config: SimConfig,
    /// Maximum workers for per-class parallel stepping (1 = inline).
    pub workers: usize,
    classes: Vec<ClassState>,
    group_class: Vec<usize>,
    queue: Bottleneck,
    base_dt: f64,
}

impl ScaledSim {
    /// Build a scaled simulator over `groups`, aggregating identical
    /// `(RTT, cap)` classes, with up to `workers` threads per batch.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or the configuration is degenerate.
    pub fn new(groups: Vec<FlowGroup>, mut config: SimConfig, workers: usize) -> Self {
        assert!(!groups.is_empty(), "need at least one flow group");
        assert!(config.capacity > 0.0, "capacity must be positive");
        assert!(config.mss >= 0.0, "mss must be non-negative (0 = auto)");
        assert!(config.dt_rtt_fraction > 0.0 && config.dt_rtt_fraction <= 0.5);
        let min_rtt = groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let queue = build_bottleneck(&mut config, min_rtt);
        let base_dt = config.dt_rtt_fraction * min_rtt;
        let probe = config.probe_empty_groups;

        // Aggregate by exact (rtt, cap) bit pattern, classes ordered by
        // first occurrence so the layout is independent of hash state, and
        // arrival weights summed in group order.
        let mut index: std::collections::HashMap<(u64, u64), usize> =
            std::collections::HashMap::new();
        let mut classes: Vec<ClassState> = Vec::new();
        let mut group_class = Vec::with_capacity(groups.len());
        for g in &groups {
            let key = (g.rtt_base.to_bits(), g.rate_cap.to_bits());
            let c = *index.entry(key).or_insert_with(|| {
                classes.push(ClassState {
                    rtt_base: g.rtt_base,
                    cap: g.rate_cap,
                    flows: 0.0,
                    period_ticks: ((g.rtt_base / min_rtt).round() as u64).max(1),
                    cwnd: 1.0,
                    rate: 0.0,
                    last_t: 0.0,
                    last_loss_int: 0.0,
                    goodput: 0.0,
                    next_tick: 0,
                });
                classes.len() - 1
            });
            classes[c].flows += arrival_weight(g, probe);
            group_class.push(c);
        }
        Self {
            groups,
            config,
            workers: workers.max(1),
            classes,
            group_class,
            queue,
            base_dt,
        }
    }

    /// Number of aggregated flow classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Run warm-up then measurement; the report's per-group values are
    /// the exact expansion of the class aggregates.
    ///
    /// # Panics
    ///
    /// Panics if `config.measure` is not positive.
    pub fn run(&mut self) -> ScaledReport {
        self.run_inner(None).0
    }

    /// [`ScaledSim::run`], additionally sampling a [`Trace`] every
    /// `period` seconds from the start of the measurement window. The
    /// trace is bit-identical across worker counts.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `config.measure` is not positive.
    pub fn run_traced(&mut self, period: f64) -> (ScaledReport, Trace) {
        assert!(period > 0.0, "sample period must be positive");
        let (report, trace) = self.run_inner(Some(period));
        (report, trace.expect("tracing was requested"))
    }

    /// Pure per-class update: advance the class window across
    /// `[class.last_t, t]` under the mean loss of that interval, and
    /// account the interval's goodput overlap with the measure window.
    fn update_one(
        class: &ClassState,
        t: f64,
        qdelay: f64,
        loss_int: f64,
        mss: f64,
        measure_lo: f64,
        measure_hi: f64,
    ) -> (f64, f64, f64) {
        let dt = t - class.last_t;
        let p = if dt > 0.0 {
            ((loss_int - class.last_loss_int) / dt).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rtt = class.rtt_base + qdelay;
        // Goodput of the elapsed interval at the held send rate, clipped
        // to the measurement window.
        let overlap = (t.min(measure_hi) - class.last_t.max(measure_lo)).max(0.0);
        let goodput_add = class.rate * (1.0 - p) * overlap;
        let mut state = FlowState {
            cwnd: class.cwnd,
            group: 0,
        };
        state.step(dt, rtt, p, mss, class.cap);
        let rate = state.rate(mss, rtt, class.cap);
        (state.cwnd, rate, goodput_add)
    }

    fn run_inner(&mut self, sample_period: Option<f64>) -> (ScaledReport, Option<Trace>) {
        assert!(
            self.config.measure > 0.0,
            "measure duration must be positive"
        );
        pubopt_obs::incr("netsim.scaled_runs");
        let sw = pubopt_obs::Stopwatch::start("netsim.scaled_run_ns");
        let warmup = self.config.warmup;
        let stop_t = warmup + self.config.measure;
        let measure = self.config.measure;
        let mss = self.config.mss;
        let capacity = self.config.capacity;
        let base_dt = self.base_dt;

        // Reset per-run bookkeeping; window and queue state carry across
        // runs, so a second `run` continues from where the first ended.
        let init_delay = self.queue.delay();
        let mut agg_rate = 0.0;
        for class in &mut self.classes {
            let rtt = class.rtt_base + init_delay;
            class.rate = FlowState {
                cwnd: class.cwnd,
                group: 0,
            }
            .rate(mss, rtt, class.cap);
            class.last_t = 0.0;
            class.last_loss_int = 0.0;
            class.goodput = 0.0;
            class.next_tick = class.period_ticks;
            agg_rate += class.flows * class.rate;
        }

        let mut cal: CalendarQueue<Ev> = CalendarQueue::new();
        for (c, class) in self.classes.iter().enumerate() {
            let first = class.next_tick as f64 * base_dt;
            if first <= stop_t {
                cal.schedule(first, Ev::Update(c as u32));
            }
        }
        cal.schedule(warmup, Ev::StartMeasure);
        cal.schedule(stop_t, Ev::Stop);
        let mut next_sample = sample_period.map(|_| warmup);
        if sample_period.is_some() {
            cal.schedule(warmup, Ev::Sample);
        }
        let mut trace = sample_period.map(|_| Trace::default());

        let mut drain: Option<EventId> = None;
        let mut queue_t = 0.0;
        let mut loss_int = 0.0;
        let mut delay_int = 0.0;
        let mut loss_at_measure = 0.0;
        let mut delay_at_measure = 0.0;
        let mut events = 0u64;
        let mut updates = 0u64;
        let mut batch: Vec<u32> = Vec::new();

        while let Some((t, first)) = cal.pop() {
            events += 1;
            batch.clear();
            let mut start_measure = false;
            let mut sample = false;
            let mut stop = false;
            let mut classify = |ev: Ev| match ev {
                Ev::Update(c) => batch.push(c),
                Ev::StartMeasure => start_measure = true,
                Ev::Sample => sample = true,
                Ev::Stop => stop = true,
                Ev::Drain => {}
            };
            classify(first);
            while cal.peek_time() == Some(t) {
                let (_, ev) = cal.pop().expect("peeked event present");
                events += 1;
                classify(ev);
            }

            // Integrate the queue up to this batch under the held
            // aggregate arrival rate.
            if t > queue_t {
                let dt = t - queue_t;
                let p = self.queue.step(dt, agg_rate);
                loss_int += p * dt;
                delay_int += self.queue.delay() * dt;
                queue_t = t;
            }
            let qdelay = self.queue.delay();

            // Class updates: compute in parallel (slot i ← item i, so
            // worker count never reorders arithmetic), commit serially
            // in slot order.
            if !batch.is_empty() {
                updates += batch.len() as u64;
                let classes = &self.classes;
                let work = |&c: &u32| {
                    Self::update_one(
                        &classes[c as usize],
                        t,
                        qdelay,
                        loss_int,
                        mss,
                        warmup,
                        stop_t,
                    )
                };
                let results: Vec<(f64, f64, f64)> =
                    if batch.len() >= PARALLEL_THRESHOLD && self.workers > 1 {
                        pubopt_sched::Pool::global().map(&batch, self.workers, work)
                    } else {
                        batch.iter().map(work).collect()
                    };
                for (&c, &(cwnd, rate, goodput_add)) in batch.iter().zip(&results) {
                    let class = &mut self.classes[c as usize];
                    agg_rate += class.flows * (rate - class.rate);
                    class.cwnd = cwnd;
                    class.rate = rate;
                    class.goodput += goodput_add;
                    class.last_t = t;
                    class.last_loss_int = loss_int;
                    class.next_tick += class.period_ticks;
                    let next = class.next_tick as f64 * base_dt;
                    if next <= stop_t {
                        cal.schedule(next, Ev::Update(c));
                    }
                }
            }

            if start_measure {
                loss_at_measure = loss_int;
                delay_at_measure = delay_int;
            }
            if sample {
                if let (Some(trace), Some(period)) = (trace.as_mut(), sample_period) {
                    let rates = (0..self.groups.len())
                        .map(|g| {
                            let class = &self.classes[self.group_class[g]];
                            FlowState {
                                cwnd: class.cwnd,
                                group: 0,
                            }
                            .rate(
                                mss,
                                class.rtt_base + qdelay,
                                class.cap,
                            )
                        })
                        .collect();
                    trace.push(TraceSample {
                        time: t,
                        rates,
                        queue_delay: qdelay,
                    });
                    let at = next_sample.expect("sampling active") + period;
                    next_sample = Some(at);
                    if at <= stop_t {
                        cal.schedule(at, Ev::Sample);
                    }
                }
            }
            if stop {
                // Flush each class's final partial interval.
                for class in &mut self.classes {
                    let dt = stop_t - class.last_t;
                    if dt > 0.0 {
                        let p = ((loss_int - class.last_loss_int) / dt).clamp(0.0, 1.0);
                        let overlap = (stop_t - class.last_t.max(warmup)).max(0.0);
                        class.goodput += class.rate * (1.0 - p) * overlap;
                        class.last_t = stop_t;
                    }
                }
                break;
            }

            // Re-arm the drain timer against the new aggregate rate.
            if let Some(id) = drain.take() {
                cal.cancel(id);
            }
            let backlog = self.queue.backlog();
            if backlog > 0.0 && agg_rate < capacity {
                let t_empty = queue_t + backlog / (capacity - agg_rate);
                if t_empty < stop_t {
                    drain = Some(cal.schedule(t_empty, Ev::Drain));
                }
            }
            cal.maybe_shrink();
        }

        pubopt_obs::add("netsim.scaled_updates", updates);
        pubopt_obs::add("netsim.scaled_events", events);
        sw.stop();

        let class_rate: Vec<f64> = self.classes.iter().map(|c| c.goodput / measure).collect();
        let per_flow_rate = self
            .group_class
            .iter()
            .map(|&c| class_rate[c])
            .collect::<Vec<_>>();
        let mut aggregate = 0.0;
        for (class, rate) in self.classes.iter().zip(&class_rate) {
            aggregate += class.flows * rate;
        }
        let report = SimReport {
            per_flow_rate,
            aggregate: aggregate.min(capacity),
            mean_loss: (loss_int - loss_at_measure) / measure,
            mean_queue_delay: (delay_int - delay_at_measure) / measure,
            duration: stop_t,
        };
        (
            ScaledReport {
                report,
                classes: self.classes.len(),
                events,
                updates,
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{scale_population, FluidSim};
    use crate::validate::compare_report_to_maxmin;
    use pubopt_num::Rng;

    fn quick_config(capacity: f64) -> SimConfig {
        SimConfig {
            capacity,
            warmup: 30.0,
            measure: 30.0,
            ..SimConfig::default()
        }
    }

    /// Differential test against the fixed-dt oracle: per-group rates and
    /// `aggregate` within 1% on every population, under RED and drop-tail.
    #[test]
    fn matches_fixed_dt_oracle() {
        let g = FlowGroup::new;
        let populations: [(&str, bool, Vec<FlowGroup>); 7] = [
            (
                "homogeneous",
                false,
                vec![g("a", 3, 1e9, 0.1), g("b", 2, 1e9, 0.1)],
            ),
            (
                "capped plus greedy",
                false,
                vec![g("capped", 1, 10.0, 0.1), g("greedy", 1, 1e9, 0.1)],
            ),
            (
                "rtt-split pair",
                false,
                vec![g("near", 2, 1e9, 0.02), g("far", 2, 1e9, 0.2)],
            ),
            (
                "3-rtt mix",
                false,
                vec![
                    g("a", 2, 1e9, 0.02),
                    g("b", 3, 1e9, 0.06),
                    g("c", 2, 1e9, 0.1),
                ],
            ),
            ("one flow", false, vec![g("solo", 1, 1e9, 0.1)]),
            (
                "probe",
                true,
                vec![g("ghost", 0, 1e9, 0.1), g("real", 2, 1e9, 0.1)],
            ),
            (
                "capped probe",
                true,
                vec![g("ghost", 0, 5.0, 0.1), g("real", 2, 1e9, 0.1)],
            ),
        ];
        let close = |a: f64, b: f64| (a - b).abs() <= 0.01 * a.abs().max(b.abs());
        for (name, probe, groups) in populations {
            for red in [Some(Default::default()), None] {
                let config = SimConfig {
                    red,
                    probe_empty_groups: probe,
                    ..quick_config(100.0)
                };
                let fixed = FluidSim::new(groups.clone(), config.clone()).run();
                let scaled = ScaledSim::new(groups.clone(), config, 1).run().report;
                let case = format!("{name}, red={}", red.is_some());
                for (f, s) in fixed.per_flow_rate.iter().zip(&scaled.per_flow_rate) {
                    assert!(close(*f, *s), "{case}: fixed {f} vs scaled {s}");
                }
                assert!(
                    close(fixed.aggregate, scaled.aggregate),
                    "{case}: aggregate fixed {} vs scaled {}",
                    fixed.aggregate,
                    scaled.aggregate
                );
            }
        }
    }

    #[test]
    fn identical_groups_aggregate_into_one_class() {
        let groups: Vec<FlowGroup> = (0..32)
            .map(|i| FlowGroup::new(format!("g{i}"), 4, 1e9, 0.08))
            .collect();
        let mut sim = ScaledSim::new(groups, quick_config(100.0), 1);
        assert_eq!(sim.class_count(), 1, "32 identical groups share a class");
        let out = sim.run();
        // 128 flows over C=100: each ≈ 0.78; all groups expand identically.
        let first = out.report.per_flow_rate[0];
        assert!(out.report.per_flow_rate.iter().all(|r| *r == first));
        assert!(out.report.aggregate > 85.0, "{}", out.report.aggregate);
        // 2 000 flows over 256 groups at a matched RTT on four cap
        // classes: many groups, four classes.
        let (groups, config) = scale_population(2_000, 256, 1, 4.0);
        assert_eq!(ScaledSim::new(groups, config, 1).class_count(), 4);
    }

    #[test]
    fn capped_class_sits_at_its_cap() {
        let groups = vec![
            FlowGroup::new("capped", 2, 5.0, 0.1),
            FlowGroup::new("greedy", 1, 1e9, 0.1),
        ];
        let out = ScaledSim::new(groups, quick_config(100.0), 1).run();
        assert!(
            (out.report.per_flow_rate[0] - 5.0).abs() < 0.5,
            "capped ≈ 5, got {}",
            out.report.per_flow_rate[0]
        );
        assert!(
            out.report.per_flow_rate[1] > 75.0,
            "greedy takes the rest, got {}",
            out.report.per_flow_rate[1]
        );
    }

    #[test]
    fn divergence_vs_maxmin_stays_within_validate_tolerance() {
        // A heterogeneous-cap population at matched RTTs: the scaled path
        // must reproduce the water-filling prediction as closely as the
        // fixed-dt path does (the §II-D.2 tolerance).
        let mut rng = Rng::seed_from_u64(11);
        let groups: Vec<FlowGroup> = (0..24)
            .map(|i| {
                let cap = if i % 3 == 0 {
                    rng.uniform(0.5, 2.0)
                } else {
                    1e9
                };
                FlowGroup::new(format!("g{i}"), 3, cap, 0.08)
            })
            .collect();
        let mut sim = ScaledSim::new(groups.clone(), quick_config(80.0), 1);
        let out = sim.run();
        let cmp = compare_report_to_maxmin(&out.report, &groups, 80.0);
        assert!(
            cmp.mean_rel_error < 0.10,
            "mean divergence {} too large: sim {:?} pred {:?}",
            cmp.mean_rel_error,
            cmp.simulated,
            cmp.predicted
        );
    }

    /// Run `groups` traced at 1, 2, 4 and 8 workers, require every run to
    /// match the 1-worker run bit for bit, and return that run.
    fn run_at_every_worker_count(
        groups: Vec<FlowGroup>,
        config: SimConfig,
        period: f64,
    ) -> (ScaledReport, Trace) {
        let run = |workers: usize| {
            ScaledSim::new(groups.clone(), config.clone(), workers).run_traced(period)
        };
        let bits = |r: &ScaledReport| -> Vec<u64> {
            r.report.per_flow_rate.iter().map(|x| x.to_bits()).collect()
        };
        let (base, base_trace) = run(1);
        for workers in [2, 4, 8] {
            let (out, trace) = run(workers);
            assert!(trace == base_trace, "trace diverges at {workers} workers");
            assert_eq!(
                bits(&out),
                bits(&base),
                "report diverges at {workers} workers"
            );
            assert_eq!(out.updates, base.updates, "updates at {workers} workers");
        }
        (base, base_trace)
    }

    #[test]
    fn traces_are_bit_identical_across_worker_counts() {
        let mut rng = Rng::seed_from_u64(5);
        let groups: Vec<FlowGroup> = (0..96)
            .map(|i| {
                let rtt = rng.uniform(0.02f64.ln(), 0.2f64.ln()).exp();
                FlowGroup::new(format!("g{i}"), 2 + (i % 5), 1e9, rtt)
            })
            .collect();
        let (_, trace) = run_at_every_worker_count(groups, quick_config(200.0), 0.5);
        assert!(!trace.is_empty());

        // The 16-RTT-class lattice: 128 groups on 16 periods × 4 caps, so
        // due batches mix periods.
        let (groups, config) = scale_population(2_000, 128, 16, 4.0);
        let (out, _) = run_at_every_worker_count(groups, config, 1.0);
        assert!(
            out.classes <= 64 && out.updates > 0,
            "{} classes",
            out.classes
        );
    }

    /// The full-scale drill, release only (the CI netsim-scale job runs
    /// `cargo test --release -p pubopt-netsim -- --ignored`): a 50 000-flow
    /// 16-RTT-class lattice stays bit-identical across 1/2/4/8 workers over
    /// 60 simulated seconds, and a 1 000 000-flow lattice runs to the end
    /// on at most 64 classes. (The 100 000-flow divergence gate is the
    /// oracle head-to-head's.)
    #[test]
    #[ignore = "full-scale release drill; run with --release --ignored"]
    fn full_scale_lattice_is_worker_identical_and_reaches_1m_flows() {
        let (groups, config) = scale_population(50_000, 256, 16, 60.0);
        run_at_every_worker_count(groups, config, 1.0);

        let (groups, config) = scale_population(1_000_000, 2_048, 16, 60.0);
        let out = ScaledSim::new(groups, config, 1).run();
        assert!(out.classes <= 64, "{} classes", out.classes);
        assert!(out.updates > 0);
        assert_eq!(out.report.per_flow_rate.len(), 2_048);
    }

    #[test]
    fn rtt_spread_cuts_update_work() {
        // Self-clocking: a 10× RTT spread must do far fewer updates than
        // groups-times-ticks.
        let mut rng = Rng::seed_from_u64(3);
        let groups: Vec<FlowGroup> = (0..64)
            .map(|i| {
                let rtt = rng.uniform(0.05f64.ln(), 0.5f64.ln()).exp();
                FlowGroup::new(format!("g{i}"), 2, 1e9, rtt)
            })
            .collect();
        let mut sim = ScaledSim::new(groups, quick_config(200.0), 1);
        let out = sim.run();
        let min_rtt = sim
            .groups
            .iter()
            .map(|g| g.rtt_base)
            .fold(f64::INFINITY, f64::min);
        let ticks = (60.0 / (0.05 * min_rtt)) as u64;
        let fixed_dt_updates = ticks * sim.groups.len() as u64;
        assert!(
            out.updates * 2 < fixed_dt_updates,
            "event path {} vs fixed-dt equivalent {}",
            out.updates,
            fixed_dt_updates
        );
    }

    #[test]
    #[should_panic(expected = "need at least one flow group")]
    fn rejects_empty_groups() {
        ScaledSim::new(vec![], SimConfig::default(), 1);
    }
}
