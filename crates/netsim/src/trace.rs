//! Time-series traces of a simulation run.
//!
//! The aggregate report of [`crate::ScaledSim::run`] hides the transient
//! dynamics (sawtooths, loss episodes, queue oscillation).
//! [`crate::ScaledSim::run_traced`] samples the state at a fixed period
//! into a [`Trace`] — used by tests that assert dynamical properties (e.g.
//! that the RED queue settles while the drop-tail queue keeps
//! oscillating) and by the worker bit-identity checks.
//!
//! Storage is **column-major**: one contiguous `Vec<f64>` per group plus
//! shared time and queue-delay axes. [`Trace::rate_series`] is therefore
//! a borrow, not a per-call allocation, and [`Trace::rate_cv`] iterates
//! the column in place without cloning.

/// One sampled instant of the simulation state (the row form used when
/// feeding samples into a [`Trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSample {
    /// Simulation time (seconds).
    pub time: f64,
    /// Per-group instantaneous per-flow rate.
    pub rates: Vec<f64>,
    /// Queueing delay (seconds).
    pub queue_delay: f64,
}

/// A recorded trace, stored column-major: `columns[g][k]` is group `g`'s
/// per-flow rate at sample `k`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    times: Vec<f64>,
    queue_delay: Vec<f64>,
    columns: Vec<Vec<f64>>,
}

impl Trace {
    /// Append one sample. The first sample fixes the group count; later
    /// samples must carry the same number of rates.
    ///
    /// # Panics
    ///
    /// Panics if `sample.rates` disagrees with the established width.
    pub fn push(&mut self, sample: TraceSample) {
        if self.columns.is_empty() {
            self.columns = vec![Vec::new(); sample.rates.len()];
        }
        assert_eq!(
            sample.rates.len(),
            self.columns.len(),
            "sample width must match the trace"
        );
        self.times.push(sample.time);
        self.queue_delay.push(sample.queue_delay);
        for (col, r) in self.columns.iter_mut().zip(&sample.rates) {
            col.push(*r);
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether any samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// One group's rate series, borrowed from the column store.
    pub fn rate_series(&self, group: usize) -> &[f64] {
        &self.columns[group]
    }

    /// The time axis, borrowed.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The queue-delay series, borrowed.
    pub fn queue_delays(&self) -> &[f64] {
        &self.queue_delay
    }

    /// Coefficient of variation (σ/µ) of a group's rate over the trace —
    /// a scalar "how oscillatory is this" metric. Computed over the
    /// borrowed column; no clone.
    pub fn rate_cv(&self, group: usize) -> f64 {
        let xs = match self.columns.get(group) {
            Some(col) => col.as_slice(),
            None => return 0.0,
        };
        if xs.is_empty() {
            return 0.0;
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        if mean.abs() < 1e-12 {
            return 0.0;
        }
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowGroup, ScaledSim, SimConfig};

    /// Trace the RTT-split pair (2 flows at 20 ms, 2 at 200 ms, C = 100)
    /// over a `measure`-second window after a 20 s warm-up.
    fn trace_rtt_split(red: bool, measure: f64, period: f64) -> Trace {
        let groups = vec![
            FlowGroup::new("near", 2, 1e9, 0.02),
            FlowGroup::new("far", 2, 1e9, 0.2),
        ];
        let config = SimConfig {
            capacity: 100.0,
            warmup: 20.0,
            measure,
            red: if red { Some(Default::default()) } else { None },
            ..SimConfig::default()
        };
        ScaledSim::new(groups, config, 1).run_traced(period).1
    }

    #[test]
    fn trace_samples_at_requested_period() {
        let trace = trace_rtt_split(true, 10.0, 0.5);
        assert!(trace.len() >= 18 && trace.len() <= 22, "{}", trace.len());
        for w in trace.times().windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(trace.rate_series(0).len(), trace.len());
        assert_eq!(trace.queue_delays().len(), trace.len());
    }

    #[test]
    fn red_is_smoother_than_droptail() {
        // RED's continuous marking holds the pair near its fixed point;
        // under drop-tail the RTT-split pair keeps cycling. The floor on
        // cv_red keeps rounding noise from passing the comparison.
        let cv_red = trace_rtt_split(true, 30.0, 0.1).rate_cv(0);
        let cv_dt = trace_rtt_split(false, 30.0, 0.1).rate_cv(0);
        assert!(
            cv_red > 1e-6 && cv_dt > 1.5 * cv_red,
            "RED should be smoother: cv_red {cv_red} vs cv_droptail {cv_dt}"
        );
    }

    #[test]
    fn cv_of_constant_series_is_zero() {
        let mut t = Trace::default();
        for i in 0..10 {
            t.push(TraceSample {
                time: i as f64,
                rates: vec![5.0],
                queue_delay: 0.0,
            });
        }
        assert_eq!(t.rate_cv(0), 0.0);
        assert!(Trace::default().rate_cv(0) == 0.0);
        assert!(Trace::default().is_empty());
    }

    #[test]
    fn rate_series_borrows_the_column_store() {
        let mut t = Trace::default();
        t.push(TraceSample {
            time: 0.0,
            rates: vec![1.0, 2.0],
            queue_delay: 0.1,
        });
        t.push(TraceSample {
            time: 1.0,
            rates: vec![3.0, 4.0],
            queue_delay: 0.2,
        });
        let a: &[f64] = t.rate_series(0);
        assert_eq!(a, &[1.0, 3.0]);
        assert_eq!(t.rate_series(1), &[2.0, 4.0]);
        assert_eq!(t.times(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sample width must match the trace")]
    fn push_rejects_width_mismatch() {
        let mut t = Trace::default();
        t.push(TraceSample {
            time: 0.0,
            rates: vec![1.0],
            queue_delay: 0.0,
        });
        t.push(TraceSample {
            time: 1.0,
            rates: vec![1.0, 2.0],
            queue_delay: 0.0,
        });
    }
}
