//! # pubopt-obs — observability for the Public Option workspace
//!
//! Lightweight counters, monotonic timers and latency histograms with a
//! process-global registry, built on `std` atomics only (no external
//! dependencies). Solver hot paths across the workspace call the
//! free functions in this crate ([`incr`], [`add`], [`observe`],
//! [`time`], …); what those calls do depends on the `enabled` cargo
//! feature:
//!
//! * **feature off (default)** — every recording function is an inlined
//!   empty body. The instrumented build is indistinguishable from an
//!   uninstrumented one (the retired `bench` harness measured < 2%
//!   kernel delta).
//! * **feature on** (`--features pubopt-obs/enabled`, or the facade
//!   crate's `obs` feature) — calls hit the global [`Registry`]:
//!   counters are relaxed atomic adds, timers feed log₂-bucketed
//!   histograms.
//!
//! The registry itself is always compiled (it is tiny), so tests and
//! tools can use [`Registry`] instances directly regardless of the
//! feature, and [`snapshot`]/[`reset`] are always safe to call.
//!
//! Metric naming convention: `crate.scope.quantity`, e.g.
//! `eq.solve_maxmin.calls`, `num.bisect.iters`, `sweep.task_ns`.
//!
//! The [`json`] module provides the minimal JSON writer/parser used for
//! snapshots and `repro` run reports — again dependency-free.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod clock;
pub mod json;
mod metrics;
mod registry;

pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use registry::{Registry, Snapshot};

use std::time::Instant;

/// Whether instrumentation is compiled in (the `enabled` cargo feature).
#[inline(always)]
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// The process-global registry.
///
/// Always available; with the `enabled` feature off it simply never
/// receives data from the instrumentation free functions (direct use
/// still works).
pub fn global() -> &'static Registry {
    registry::global()
}

/// Increment counter `name` by 1.
#[inline(always)]
pub fn incr(name: &'static str) {
    add(name, 1);
}

/// Increment counter `name` by `by`.
#[inline(always)]
pub fn add(name: &'static str, by: u64) {
    #[cfg(feature = "enabled")]
    registry::global().counter(name).add(by);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, by);
}

/// Record a value (typically nanoseconds) into histogram `name`.
#[inline(always)]
pub fn observe(name: &'static str, value: u64) {
    #[cfg(feature = "enabled")]
    registry::global().histogram(name).record(value);
    #[cfg(not(feature = "enabled"))]
    let _ = (name, value);
}

/// Time `f`, recording the wall-clock nanoseconds into histogram `name`.
///
/// With the feature off this is exactly `f()` — no clock reads.
#[inline(always)]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    #[cfg(feature = "enabled")]
    {
        let start = Instant::now();
        let r = f();
        observe(
            name,
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        r
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        f()
    }
}

/// A manual stopwatch for timings that do not fit a closure.
///
/// With the feature off, construction and [`Stopwatch::stop`] are no-ops
/// (no clock is read).
#[derive(Debug)]
pub struct Stopwatch {
    name: &'static str,
    start: Option<Instant>,
}

impl Stopwatch {
    /// Start timing for histogram `name`.
    #[inline(always)]
    #[must_use]
    pub fn start(name: &'static str) -> Self {
        Self {
            name,
            start: enabled().then(Instant::now),
        }
    }

    /// Stop and record the elapsed nanoseconds.
    #[inline(always)]
    pub fn stop(self) {
        if let Some(start) = self.start {
            observe(
                self.name,
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
}

/// Snapshot the global registry.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Reset every counter and histogram in the global registry to zero.
///
/// Metric cells stay registered (callsite caches remain valid).
pub fn reset() {
    registry::global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The free functions write to the global registry only with the
    // feature on; these tests exercise an isolated Registry instance so
    // they pass under any feature set, plus the feature-dependent
    // global-path behaviour.

    #[test]
    fn counter_accumulates() {
        let reg = Registry::new();
        reg.counter("t.calls").add(2);
        reg.counter("t.calls").add(3);
        assert_eq!(reg.counter("t.calls").get(), 5);
    }

    #[test]
    fn histogram_quantiles_and_stats() {
        let reg = Registry::new();
        let h = reg.histogram("t.ns");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
        // Log-bucketed quantiles are approximate: within a factor of 2.
        let median = snap.quantile(0.5);
        assert!(
            (250..=1000).contains(&median),
            "median {median} out of coarse range"
        );
        assert!(snap.quantile(0.0) <= snap.quantile(0.5));
        assert!(snap.quantile(0.5) <= snap.quantile(1.0));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let reg = Registry::new();
        let snap = reg.histogram("t.empty").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn reset_zeroes_but_keeps_cells() {
        let reg = Registry::new();
        let c = reg.counter("t.reset");
        c.add(7);
        reg.histogram("t.reset_ns").record(42);
        reg.reset();
        assert_eq!(c.get(), 0, "cached cell must read zero after reset");
        assert_eq!(reg.histogram("t.reset_ns").snapshot().count, 0);
    }

    #[test]
    fn snapshot_lists_metrics_sorted() {
        let reg = Registry::new();
        reg.counter("b.second").add(1);
        reg.counter("a.first").add(1);
        reg.histogram("c.hist").record(5);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "b.second"]);
        assert_eq!(snap.histograms.len(), 1);
    }

    #[test]
    fn snapshot_json_parses_back() {
        let reg = Registry::new();
        reg.counter("j.calls").add(3);
        reg.histogram("j.ns").record(100);
        let text = reg.snapshot().to_json();
        let v = json::parse(&text).expect("snapshot JSON must parse");
        assert_eq!(v["counters"]["j.calls"].as_u64(), Some(3));
        assert_eq!(v["histograms"]["j.ns"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn global_path_matches_feature() {
        reset();
        incr("obs.test.global");
        let snap = snapshot();
        let found = snap
            .counters
            .iter()
            .find(|(n, _)| n == "obs.test.global")
            .map(|(_, v)| *v);
        if enabled() {
            assert_eq!(found, Some(1));
        } else {
            assert_eq!(found, None, "disabled build must record nothing");
        }
    }

    #[test]
    fn stopwatch_and_time_are_safe_either_way() {
        let r = time("obs.test.time_ns", || 41 + 1);
        assert_eq!(r, 42);
        let sw = Stopwatch::start("obs.test.sw_ns");
        sw.stop();
    }
}
