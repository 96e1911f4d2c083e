//! Fault-tolerant sweeps: panic isolation plus a deterministic repair
//! pass.
//!
//! A figure sweep is a grid of independent solves; one pathological grid
//! point (a solver panic, an injected fault, a non-finite blow-up) should
//! cost at most that point, never the figure. [`resilient_sweep`] runs the
//! grid through [`parallel_try_map`](crate::runner::parallel_try_map)
//! (every task under `catch_unwind`), then serially retries the failed
//! indices — the serial order makes the repair pass deterministic even
//! though the first pass is threaded. Points that exhaust their retries
//! come back as `None`, and the [`SweepStats`] say exactly how many points
//! recovered or were lost, which the figure surfaces as its
//! [`FigureStatus`].

use crate::report::FigureStatus;
use crate::runner::{panic_message, parallel_chunk_map, parallel_try_map, TaskOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default chunk length for [`resilient_sweep_chunked`]: long enough to
/// amortise a warm start across neighbours, short enough that a figure
/// grid still fans out over all workers.
pub const SWEEP_CHUNK: usize = 8;

/// Fault accounting for one resilient sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points swept.
    pub total: usize,
    /// Points that failed or panicked on the first attempt but produced a
    /// value during the repair pass.
    pub recovered: usize,
    /// Points that never produced a value (reported as `None`).
    pub failed: usize,
    /// `(index, last error message)` for every lost point.
    pub failures: Vec<(usize, String)>,
}

impl SweepStats {
    /// Fold another sweep's accounting into this one (figures often run
    /// one sweep per curve). Failure indices are kept as reported by each
    /// sweep.
    pub fn merge(&mut self, other: &SweepStats) {
        self.total += other.total;
        self.recovered += other.recovered;
        self.failed += other.failed;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Status this sweep implies for its figure: `Ok` for a fault-free
    /// run, `Degraded` as soon as any point needed recovery or was lost.
    /// (`Failed` is the figure's call — it knows how many points a usable
    /// curve needs.)
    pub fn status(&self) -> FigureStatus {
        if self.recovered == 0 && self.failed == 0 {
            FigureStatus::Ok
        } else {
            FigureStatus::Degraded
        }
    }

    /// One-line human summary for figure reports.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep health: {}/{} ok first try, {} recovered, {} lost",
            self.total - self.recovered - self.failed,
            self.total,
            self.recovered,
            self.failed
        )
    }
}

/// Sweep `f` over `items` with panic isolation and a deterministic repair
/// pass.
///
/// `f(item, index, attempt)` is called with `attempt = 0` from the
/// parallel first pass and `attempt = 1..=max_retries` from the serial
/// repair pass — fault injectors use `(index, attempt)` to key their
/// decisions, so a retried point sees fresh faults deterministically.
/// Output order matches input order; lost points are `None`.
pub fn resilient_sweep<T, R, F>(
    items: &[T],
    threads: usize,
    max_retries: u32,
    f: F,
) -> (Vec<Option<R>>, SweepStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T, usize, u32) -> Result<R, String> + Sync,
{
    let indices: Vec<usize> = (0..items.len()).collect();
    let first = parallel_try_map(&indices, threads, |&i| f(&items[i], i, 0));

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    let mut stats = SweepStats {
        total: items.len(),
        ..SweepStats::default()
    };
    let mut pending: Vec<(usize, String)> = Vec::new();
    for (i, outcome) in first.into_iter().enumerate() {
        match outcome {
            TaskOutcome::Ok(r) => out.push(Some(r)),
            TaskOutcome::Failed(m) | TaskOutcome::Panicked(m) => {
                out.push(None);
                pending.push((i, m));
            }
        }
    }

    for (i, first_msg) in pending {
        let mut last = first_msg;
        let mut repaired = false;
        for attempt in 1..=max_retries {
            match catch_unwind(AssertUnwindSafe(|| f(&items[i], i, attempt))) {
                Ok(Ok(r)) => {
                    out[i] = Some(r);
                    stats.recovered += 1;
                    repaired = true;
                    break;
                }
                Ok(Err(m)) => last = m,
                Err(payload) => last = panic_message(payload.as_ref()),
            }
        }
        if !repaired {
            stats.failed += 1;
            stats.failures.push((i, last));
        }
    }
    (out, stats)
}

/// [`resilient_sweep`] with per-chunk solver state: `items` is split into
/// fixed chunks of `chunk_len`, each chunk is processed serially by one
/// worker through a state built by `init` (a warm-start cache, a scratch
/// arena), and the chunks fan out in parallel.
///
/// `f(state, item, index, attempt)` sees `attempt = 0` on the first pass.
/// Fault isolation is still per *point*: a failed or panicking point only
/// loses itself, and — since a panic can leave the state mid-update — the
/// state is rebuilt fresh with `init` before the chunk continues. The
/// repair pass retries lost points serially with a cold state per point
/// (`attempt = 1..=max_retries`).
///
/// Determinism: chunk boundaries depend only on `chunk_len` and the state
/// trajectory within a chunk is serial, so outputs and [`SweepStats`] are
/// independent of the thread count (given a deterministic `f`). Warm
/// starts that are *exact* (same result as a cold solve, like
/// [`pubopt_core::GameWarmStart`]) additionally make the outputs
/// independent of `chunk_len`.
pub fn resilient_sweep_chunked<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    max_retries: u32,
    chunk_len: usize,
    init: I,
    f: F,
) -> (Vec<Option<R>>, SweepStats)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T, usize, u32) -> Result<R, String> + Sync,
{
    let first: Vec<(Option<R>, Option<String>)> =
        parallel_chunk_map(items, threads, chunk_len, |chunk, start| {
            let mut state = init();
            let mut out = Vec::with_capacity(chunk.len());
            for (j, item) in chunk.iter().enumerate() {
                let i = start + j;
                match catch_unwind(AssertUnwindSafe(|| f(&mut state, item, i, 0))) {
                    Ok(Ok(r)) => out.push((Some(r), None)),
                    Ok(Err(m)) => {
                        out.push((None, Some(m)));
                        state = init();
                    }
                    Err(payload) => {
                        out.push((None, Some(panic_message(payload.as_ref()))));
                        state = init();
                    }
                }
            }
            out
        });

    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    let mut stats = SweepStats {
        total: items.len(),
        ..SweepStats::default()
    };
    let mut pending: Vec<(usize, String)> = Vec::new();
    for (i, (r, err)) in first.into_iter().enumerate() {
        match r {
            Some(r) => out.push(Some(r)),
            None => {
                out.push(None);
                pending.push((i, err.unwrap_or_default()));
            }
        }
    }

    for (i, first_msg) in pending {
        let mut last = first_msg;
        let mut repaired = false;
        for attempt in 1..=max_retries {
            let mut state = init();
            match catch_unwind(AssertUnwindSafe(|| f(&mut state, &items[i], i, attempt))) {
                Ok(Ok(r)) => {
                    out[i] = Some(r);
                    stats.recovered += 1;
                    repaired = true;
                    break;
                }
                Ok(Err(m)) => last = m,
                Err(payload) => last = panic_message(payload.as_ref()),
            }
        }
        if !repaired {
            stats.failed += 1;
            stats.failures.push((i, last));
        }
    }
    (out, stats)
}

/// Fill `None` gaps in a sampled curve by linear interpolation over `xs`.
/// Returns `None` when fewer than two points survived — no usable curve
/// to interpolate on.
///
/// Contract: `xs` may be in **any order** (ascending, descending, or
/// shuffled — resilient sweeps hand points back in completion order).
/// Each gap is bracketed by the two surviving samples nearest in
/// *x-value*, not in slice position; a gap outside the surviving x-range
/// takes the value of the nearest surviving sample. Surviving entries are
/// returned exactly as given, never re-fitted. Non-finite `xs` are not
/// supported (`NaN` has no place on a sweep grid).
pub fn interpolate_gaps(xs: &[f64], ys: &[Option<f64>]) -> Option<Vec<f64>> {
    assert_eq!(xs.len(), ys.len(), "xs/ys length mismatch");
    let mut known: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys.iter())
        .filter_map(|(&x, y)| y.map(|v| (x, v)))
        .collect();
    if known.len() < 2 {
        return None;
    }
    // The bracket search below requires `known` ascending in x. The
    // original grid order is irrelevant here: interpolation is a function
    // of x-values, and sorting survivors is what makes that true for
    // descending or shuffled grids (the former silently produced
    // nearest-edge fills for every gap).
    known.sort_by(|a, b| a.0.total_cmp(&b.0));
    Some(
        xs.iter()
            .zip(ys.iter())
            .map(|(&x, y)| match y {
                Some(v) => *v,
                None => {
                    // First survivor with kx >= x, by binary search.
                    match known.partition_point(|&(kx, _)| kx < x) {
                        0 => known[0].1,
                        k if k == known.len() => known[known.len() - 1].1,
                        k => {
                            let (x0, y0) = known[k - 1];
                            let (x1, y1) = known[k];
                            if (x1 - x0).abs() < f64::EPSILON {
                                y0
                            } else {
                                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
                            }
                        }
                    }
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ok_sweep_is_clean() {
        let items: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let (out, stats) = resilient_sweep(&items, 4, 2, |&x, _, _| Ok::<_, String>(x * 2.0));
        assert_eq!(stats.total, 20);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.status(), FigureStatus::Ok);
        assert!(out.iter().all(|o| o.is_some()));
    }

    #[test]
    fn transient_faults_recover_in_repair_pass() {
        // Fail (and panic) on attempt 0 for some indices; succeed on retry.
        let items: Vec<usize> = (0..30).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (out, stats) = resilient_sweep(&items, 4, 2, |&x, i, attempt| {
            if attempt == 0 && i % 5 == 0 {
                if i % 10 == 0 {
                    panic!("transient panic at {x}");
                }
                return Err(format!("transient failure at {x}"));
            }
            Ok(x as f64)
        });
        std::panic::set_hook(hook);
        assert_eq!(stats.recovered, 6); // indices 0,5,10,15,20,25
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.status(), FigureStatus::Degraded);
        assert!(out.iter().all(|o| o.is_some()));
    }

    #[test]
    fn persistent_faults_are_reported_lost() {
        let items: Vec<usize> = (0..10).collect();
        let (out, stats) = resilient_sweep(&items, 2, 3, |&x, _, _| {
            if x == 7 {
                Err("always broken".to_string())
            } else {
                Ok(x)
            }
        });
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.failures.len(), 1);
        assert_eq!(stats.failures[0].0, 7);
        assert!(stats.failures[0].1.contains("always broken"));
        assert!(out[7].is_none());
        assert_eq!(out.iter().filter(|o| o.is_some()).count(), 9);
    }

    #[test]
    fn repair_pass_is_deterministic() {
        // Same inputs → identical outcome lists, regardless of first-pass
        // thread interleaving.
        let items: Vec<usize> = (0..40).collect();
        let run = || {
            resilient_sweep(&items, 8, 2, |&x, i, attempt| {
                if (i * 7 + attempt as usize).is_multiple_of(9) {
                    Err(format!("fault {x}@{attempt}"))
                } else {
                    Ok(x * 3)
                }
            })
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = SweepStats {
            total: 10,
            recovered: 1,
            failed: 1,
            failures: vec![(3, "x".into())],
        };
        let b = SweepStats {
            total: 5,
            recovered: 0,
            failed: 2,
            failures: vec![(0, "y".into()), (4, "z".into())],
        };
        a.merge(&b);
        assert_eq!(a.total, 15);
        assert_eq!(a.failed, 3);
        assert_eq!(a.failures.len(), 3);
        assert_eq!(a.status(), FigureStatus::Degraded);
    }

    #[test]
    fn chunked_sweep_carries_state_within_a_chunk() {
        // One chunk covering everything: the result encodes the running
        // state, so the expected values pin the serial trajectory.
        let items: Vec<u64> = vec![1, 2, 3, 4];
        let (out, stats) = resilient_sweep_chunked(
            &items,
            4,
            1,
            64,
            || 0u64,
            |acc, &x, _, _| {
                *acc += x;
                Ok::<_, String>(*acc)
            },
        );
        assert_eq!(
            out.into_iter().flatten().collect::<Vec<_>>(),
            vec![1, 3, 6, 10]
        );
        assert_eq!(stats.status(), FigureStatus::Ok);
    }

    #[test]
    fn chunked_sweep_resets_state_after_a_faulted_point() {
        // A panic mid-chunk may leave the state half-updated, so the
        // survivor after the fault must see a freshly built state; the
        // repaired point itself runs on a cold state too.
        let items: Vec<u64> = vec![10, 20, 30, 40];
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (out, stats) = resilient_sweep_chunked(
            &items,
            1,
            2,
            64,
            || 0u64,
            |acc, &x, i, attempt| {
                if i == 1 && attempt == 0 {
                    panic!("poisoned point");
                }
                *acc += x;
                Ok::<_, String>(*acc)
            },
        );
        std::panic::set_hook(hook);
        // 10 | fault (state reset) | 30 | 70; repair of index 1 is cold.
        assert_eq!(
            out.into_iter().flatten().collect::<Vec<_>>(),
            vec![10, 20, 30, 70]
        );
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.failed, 0);
    }

    /// The ISSUE 3 satellite in full: a chaos-seeded 10k-point chunked
    /// sweep — stateful chunks, injected failures *and* panics, a repair
    /// pass — is bit-for-bit deterministic, including across thread
    /// counts.
    #[test]
    fn chunked_chaos_sweep_at_10k_points_is_deterministic() {
        let items: Vec<u64> = (0..10_000).map(|i| i * 31 % 257).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |threads| {
            resilient_sweep_chunked(
                &items,
                threads,
                2,
                SWEEP_CHUNK,
                || 0u64,
                |acc, &x, i, attempt| {
                    // Deterministic fault injector keyed on (i, attempt):
                    // ~1% persistent losses, ~2% transient faults split
                    // between Err and panic.
                    let key = i * 3 + attempt as usize;
                    if i % 101 == 5 {
                        return Err(format!("persistent fault at {i}"));
                    }
                    if attempt == 0 && i % 53 == 11 {
                        if i % 2 == 0 {
                            panic!("chaos panic at {i}");
                        }
                        return Err(format!("chaos failure at {i}"));
                    }
                    *acc = acc.wrapping_add(x * key as u64);
                    Ok::<_, String>(*acc)
                },
            )
        };
        let (out_a, stats_a) = run(3);
        let (out_b, stats_b) = run(16);
        std::panic::set_hook(hook);
        assert_eq!(out_a, out_b, "outputs must not depend on thread count");
        assert_eq!(stats_a, stats_b, "stats must not depend on thread count");
        assert_eq!(stats_a.total, 10_000);
        assert!(stats_a.recovered > 0, "transient faults must recover");
        assert!(stats_a.failed > 0, "persistent faults must be reported");
        assert_eq!(stats_a.failed, (0..10_000).filter(|i| i % 101 == 5).count());
        assert_eq!(stats_a.status(), FigureStatus::Degraded);
    }

    #[test]
    fn interpolation_fills_interior_and_edge_gaps() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [None, Some(10.0), None, Some(30.0), None];
        let filled = interpolate_gaps(&xs, &ys).unwrap();
        assert_eq!(filled, vec![10.0, 10.0, 20.0, 30.0, 30.0]);
    }

    #[test]
    fn interpolation_needs_two_points() {
        let xs = [0.0, 1.0, 2.0];
        assert!(interpolate_gaps(&xs, &[None, Some(1.0), None]).is_none());
        assert!(interpolate_gaps(&xs, &[None, None, None]).is_none());
    }
}
