//! Benchmark-side tracing: an in-memory span recorder, self-time
//! arithmetic, and a timing wrapper for [`AggregateSource`].
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer's public functions. A span's *layer* is its name up to the
//! first `.`; its *self time* is its duration minus the part of its
//! interval that its children cover (children may overlap one another,
//! so the covered part is the union of their intervals).

use pubopt_eq::{AggregateSource, SourceProfile};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based, in start order per thread).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Request (or grid point) this span belongs to.
    pub req: u64,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer prefix of the span name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Thread-safe in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// A tracer with room for `spans` spans, so that the recording
    /// buffer does not grow while a run is being timed.
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            spans: Mutex::new(Vec::with_capacity(spans)),
            ..Tracer::default()
        }
    }

    /// ns since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; `f` receives the span's id so that calls it
    /// makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// All spans recorded so far, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span buffer poisoned").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(s.start_ns, s.end_ns, kids));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let a = a.max(cursor);
        let b = b.min(hi);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Self time summed per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Durations in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Write spans as CSV (`id,parent,req,name,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        writeln!(
            out,
            "{},{parent},{},{},{},{}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// An [`AggregateSource`] that records a span per probe, per profile
/// fetch and per metadata query of the source it wraps, and keeps each
/// probe's water level and duration for the shard-compute replay.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    parent: Option<u64>,
    req: u64,
    /// `(w, duration ns)` of every Λ probe, in order.
    pub probes: Vec<(f64, u64)>,
}

impl<'t, S> TimedSource<'t, S> {
    /// Wrap `inner`; spans are children of `parent` and carry `req`.
    pub fn new(inner: S, tracer: &'t Tracer, parent: Option<u64>, req: u64) -> Self {
        TimedSource {
            inner,
            tracer,
            parent,
            req,
            probes: Vec::new(),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> R) -> (R, u64) {
        let inner = &mut self.inner;
        let t = self.tracer;
        let start = t.now_ns();
        let out = t.span(name, self.parent, self.req, |_| f(inner));
        (out, t.now_ns() - start)
    }
}

impl<S: AggregateSource> AggregateSource for TimedSource<'_, S> {
    type Error = S::Error;

    fn len(&mut self) -> Result<usize, S::Error> {
        self.timed("dist.meta", S::len).0
    }

    fn max_theta_hat(&mut self) -> Result<f64, S::Error> {
        self.timed("dist.meta", S::max_theta_hat).0
    }

    fn total_unconstrained_partials(&mut self) -> Result<Vec<f64>, S::Error> {
        self.timed("dist.meta", S::total_unconstrained_partials).0
    }

    fn lambda_partials(&mut self, w: f64) -> Result<Vec<f64>, S::Error> {
        let (out, ns) = self.timed("dist.probe", |s| s.lambda_partials(w));
        self.probes.push((w, ns));
        out
    }

    fn profile(&mut self, w: f64) -> Result<SourceProfile, S::Error> {
        self.timed("dist.profile", |s| s.profile(w)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "x.y",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100] ⊃ a [10,40] ⊃ b [20,30]; c [50,60].
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
            span(4, Some(1), 50, 60),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 10);
        // Self times of a tree partition the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Parallel children [10,50] and [30,70] cover [10,70]; a third
        // child sticks out past the parent's end and is clipped.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 30, 70),
            span(4, Some(1), 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 60 - 10);
        // Identical children cover their interval once.
        let twins = [
            span(1, None, 0, 10),
            span(2, Some(1), 2, 6),
            span(3, Some(1), 2, 6),
        ];
        assert_eq!(self_times(&twins)[&1], 6);
        // A child entirely outside its parent covers nothing.
        let stray = [span(1, None, 0, 10), span(2, Some(1), 20, 30)];
        assert_eq!(self_times(&stray)[&1], 10);
    }

    #[test]
    fn layer_totals_and_recorder() {
        let t = Tracer::default();
        let v = t.span("serve.request", None, 7, |root| {
            t.span("eq.solve", Some(root), 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                41
            }) + 1
        });
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "serve.request", "ordered by start");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.req == 7));
        let layers = layer_self_ns(&spans);
        assert!(layers["eq"] >= 2_000_000);
        assert_eq!(layers["eq"] + layers["serve"], spans[0].dur_ns());
        assert_eq!(durations_ms(&spans, "eq.solve").len(), 1);
    }

    #[test]
    fn timed_source_records_probes() {
        let pop: pubopt_demand::Population = pubopt_workload::Scenario::load_scaled(
            pubopt_workload::ScenarioKind::PaperEnsemble,
            256,
        )
        .pop;
        let t = Tracer::default();
        let mut src = TimedSource::new(pubopt_eq::LocalSource::new(&pop), &t, None, 1);
        let nu = 0.15 * 256.0;
        let (eq, stats) =
            pubopt_eq::solve_maxmin_with_source(&mut src, nu, pubopt_num::Tolerance::default())
                .unwrap();
        let (reference, ref_stats) =
            pubopt_eq::solve_maxmin_traced(&pop, nu, pubopt_num::Tolerance::default());
        assert_eq!(eq.water_level, reference.water_level, "wrapping is exact");
        assert_eq!(stats, ref_stats);
        assert_eq!(src.probes.len() as u64, stats.lambda_evals);
        let spans = t.spans();
        assert_eq!(
            durations_ms(&spans, "dist.probe").len() as u64,
            stats.lambda_evals
        );
        assert_eq!(durations_ms(&spans, "dist.profile").len(), 1);
    }
}
