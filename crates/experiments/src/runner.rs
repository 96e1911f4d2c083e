//! Parallel sweep execution.
//!
//! Figure sweeps are embarrassingly parallel over their parameter grids.
//! An async runtime buys nothing for CPU-bound work, so sweeps fan out on
//! the persistent work-stealing pool in `pubopt-sched` (DESIGN.md §13):
//! one long-lived set of workers shared by every sweep in the process,
//! per-worker range deques with steal-half-from-the-back balancing, and
//! adaptive chunk claiming so cheap closures claim runs of indices while
//! expensive ones claim singly. Results land in lock-free disjoint slots
//! (exactly one writer per index), so output order always matches input
//! order and is independent of the worker count. The `threads` parameter
//! caps how many pool workers join a given sweep (the submitting thread
//! participates and counts as one); `threads == 1` runs inline with no
//! pool traffic at all.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one sweep task under panic isolation
/// ([`parallel_try_map`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutcome<R> {
    /// The task returned a value.
    Ok(R),
    /// The task returned an application-level error message.
    Failed(String),
    /// The task panicked; the payload message was captured.
    Panicked(String),
}

impl<R> TaskOutcome<R> {
    /// The value, when the task succeeded.
    pub fn ok(self) -> Option<R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Borrowed value, when the task succeeded.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            TaskOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// `true` for [`TaskOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, TaskOutcome::Ok(_))
    }

    /// The failure or panic message, when the task did not succeed.
    pub fn message(&self) -> Option<&str> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed(m) | TaskOutcome::Panicked(m) => Some(m),
        }
    }
}

/// Extract a readable message from a panic payload (the `&str` / `String`
/// payloads produced by `panic!` and friends; anything else is opaque).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Apply `f` to every item of `items` across `threads` workers, preserving
/// input order in the output.
///
/// `f` must be `Sync` (it is shared by reference across workers) and the
/// items are only read. A panic in a worker propagates: [`Pool::map`]
/// re-raises the first payload here and the pool survives, so a failed
/// sweep fails loudly without poisoning later sweeps.
///
/// [`Pool::map`]: pubopt_sched::Pool::map
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pubopt_sched::Pool::global().map(items, threads, f)
}

/// Apply `f` to fixed-length chunks of `items` across `threads` workers,
/// flattening the per-chunk outputs back into input order.
///
/// `f(chunk, start)` receives a chunk and the index of its first item in
/// `items`, and must return exactly `chunk.len()` results. Chunk
/// boundaries depend only on `chunk_len`, never on the thread count, so a
/// deterministic `f` yields thread-count-independent output — the
/// property stateful sweeps need (a warm-started solver carries state
/// *within* a chunk; whichever worker runs the chunk, the state
/// trajectory is the same).
///
/// # Panics
///
/// Panics if `chunk_len == 0` or a chunk closure returns the wrong number
/// of results; worker panics propagate as in [`parallel_map`].
pub fn parallel_chunk_map<T, R, F>(items: &[T], threads: usize, chunk_len: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T], usize) -> Vec<R> + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<(usize, &[T])> = items
        .chunks(chunk_len)
        .enumerate()
        .map(|(c, chunk)| (c * chunk_len, chunk))
        .collect();
    let nested = parallel_map(&chunks, threads, |&(start, chunk)| f(chunk, start));
    let mut out = Vec::with_capacity(items.len());
    for ((_, chunk), part) in chunks.iter().zip(nested) {
        assert_eq!(
            part.len(),
            chunk.len(),
            "chunk closure must return one result per item"
        );
        out.extend(part);
    }
    out
}

/// [`parallel_map`] with per-task panic isolation: each task runs under
/// `catch_unwind`, so one poisoned grid point cannot take down the whole
/// sweep. `f` returns `Result<R, String>`; an `Err` becomes
/// [`TaskOutcome::Failed`] and a panic becomes [`TaskOutcome::Panicked`]
/// with the captured payload message. Output order matches input order.
///
/// Workers keep draining the index queue after a panic in a task — only
/// that task's slot is marked — so a sweep always produces one outcome
/// per item.
pub fn parallel_try_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<TaskOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, String> + Sync,
{
    // `catch_unwind` *inside* the mapped closure: a faulted task records
    // its outcome in its own slot and the batch itself never poisons, so
    // the executor's workers keep draining healthy indices.
    pubopt_sched::Pool::global().map(items, threads, |item| {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(Ok(r)) => TaskOutcome::Ok(r),
            Ok(Err(msg)) => TaskOutcome::Failed(msg),
            Err(payload) => TaskOutcome::Panicked(panic_message(payload.as_ref())),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        let out = parallel_map(&[1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(&[] as &[i32], 4, |&x| x);
        assert!(out.is_empty());
        let out = parallel_try_map(&[] as &[i32], 4, |&x| Ok::<_, String>(x));
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(&[5], 64, |&x| x);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn heavy_closure_runs_concurrently() {
        // Smoke test that results are correct under real contention.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |&x| {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i * x);
            }
            acc
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], 0);
    }

    #[test]
    fn try_map_isolates_panics_and_failures() {
        let items: Vec<u32> = (0..32).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let out = parallel_try_map(&items, 4, |&x| {
            if x % 10 == 3 {
                panic!("boom at {x}");
            }
            if x % 10 == 7 {
                return Err(format!("failed at {x}"));
            }
            Ok(x * 2)
        });
        std::panic::set_hook(hook);
        assert_eq!(out.len(), 32);
        for (i, o) in out.iter().enumerate() {
            let x = i as u32;
            match x % 10 {
                3 => assert_eq!(o.message(), Some(format!("boom at {x}").as_str())),
                7 => assert_eq!(o.message(), Some(format!("failed at {x}").as_str())),
                _ => assert_eq!(o.as_ok(), Some(&(x * 2))),
            }
        }
        assert!(matches!(out[3], TaskOutcome::Panicked(_)));
        assert!(matches!(out[7], TaskOutcome::Failed(_)));
    }

    #[test]
    fn try_map_all_ok_round_trips() {
        let items: Vec<i64> = (0..50).collect();
        let out = parallel_try_map(&items, 8, |&x| Ok::<_, String>(x + 1));
        let values: Vec<i64> = out.into_iter().map(|o| o.ok().unwrap()).collect();
        assert_eq!(values, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_map_flattens_in_order_with_correct_starts() {
        let items: Vec<usize> = (0..103).collect(); // deliberately ragged tail
        let out = parallel_chunk_map(&items, 4, 10, |chunk, start| {
            chunk
                .iter()
                .enumerate()
                .map(|(j, &x)| (start + j, x * 2))
                .collect()
        });
        assert_eq!(out.len(), 103);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i, "start offsets must reconstruct global indices");
            assert_eq!(doubled, i * 2);
        }
    }

    #[test]
    fn chunk_map_output_is_thread_count_independent_for_stateful_chunks() {
        // The whole point of chunking: per-chunk state (here a running
        // sum) must produce identical output at any worker count, because
        // chunk boundaries are fixed by chunk_len alone.
        let items: Vec<u64> = (0..1000).map(|i| i * 7 % 113).collect();
        let run = |threads| {
            parallel_chunk_map(&items, threads, 64, |chunk, _| {
                let mut acc = 0u64; // chunk-local state
                chunk
                    .iter()
                    .map(|&x| {
                        acc = acc.wrapping_add(x);
                        acc
                    })
                    .collect()
            })
        };
        let one = run(1);
        assert_eq!(run(3), one);
        assert_eq!(run(16), one);
    }

    #[test]
    #[should_panic(expected = "one result per item")]
    fn chunk_map_rejects_wrong_arity() {
        let items: Vec<u32> = (0..10).collect();
        let _ = parallel_chunk_map(&items, 2, 4, |_, _| vec![0u32]);
    }

    #[test]
    fn try_map_contention_stress_preserves_order_under_mixed_faults() {
        // Satellite stress shape: far more items than threads × chunk
        // (10_000 ≫ 16 × 64), tiny tasks, a deterministic mix of Ok /
        // Err / panic outcomes. Slot-disjoint writes must keep every
        // outcome at its own index at any interleaving.
        let items: Vec<u32> = (0..10_000).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = parallel_try_map(&items, 16, |&x| {
            if x % 97 == 13 {
                panic!("stress panic {x}");
            }
            if x % 89 == 7 {
                return Err(format!("stress failure {x}"));
            }
            Ok(x ^ 0x5A5A)
        });
        std::panic::set_hook(hook);
        assert_eq!(out.len(), 10_000);
        for (i, o) in out.iter().enumerate() {
            let x = i as u32;
            if x % 97 == 13 {
                assert!(matches!(o, TaskOutcome::Panicked(m) if m == &format!("stress panic {x}")));
            } else if x % 89 == 7 {
                assert!(matches!(o, TaskOutcome::Failed(m) if m == &format!("stress failure {x}")));
            } else {
                assert_eq!(o.as_ok(), Some(&(x ^ 0x5A5A)));
            }
        }
    }

    #[test]
    fn map_output_is_thread_count_independent() {
        // Property shape: enough items to force multi-chunk claims and
        // stealing, outputs compared bit-for-bit across worker counts.
        let items: Vec<f64> = (0..4096).map(|i| 0.1 + i as f64 * 0.37).collect();
        let f = |&x: &f64| (x.sin() * x.sqrt() + 1.0 / x).to_bits();
        let one = parallel_map(&items, 1, f);
        for threads in [2, 4, 8] {
            assert_eq!(parallel_map(&items, threads, f), one, "threads={threads}");
        }
    }

    #[test]
    fn try_map_output_is_thread_count_independent() {
        let items: Vec<u32> = (0..4096).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = |threads| {
            parallel_try_map(&items, threads, |&x| {
                if x % 127 == 5 {
                    panic!("det panic {x}");
                }
                if x % 113 == 9 {
                    return Err(format!("det failure {x}"));
                }
                Ok((f64::from(x) * 0.611).to_bits())
            })
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn chunk_map_output_is_thread_count_independent_on_the_executor() {
        // Same contract as the stateful-chunk test above but on the 1/2/
        // 4/8 grid the executor acceptance pins, with float state whose
        // bits would expose any re-association.
        let items: Vec<f64> = (0..2000).map(|i| (i as f64).mul_add(0.73, 0.2)).collect();
        let run = |threads| {
            parallel_chunk_map(&items, threads, 32, |chunk, _| {
                let mut acc = 1.0f64;
                chunk
                    .iter()
                    .map(|&x| {
                        acc = (acc * 0.9 + x).sqrt();
                        acc.to_bits()
                    })
                    .collect()
            })
        };
        let one = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), one, "threads={threads}");
        }
    }

    #[test]
    fn try_map_panics_never_poison_the_shared_pool() {
        // Chaos shape: repeated faulted sweeps on the shared executor,
        // each followed by a healthy sweep that must behave as if the
        // faults never happened — a panicking task may not take a pool
        // worker (or any executor state) down with it.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..512).collect();
        for round in 0..8u32 {
            let faulted = parallel_try_map(&items, 8, |&x| {
                if (x + round) % 7 == 0 {
                    panic!("chaos {round}:{x}");
                }
                Ok(x)
            });
            assert_eq!(faulted.len(), 512);
            let panics = faulted.iter().filter(|o| !o.is_ok()).count();
            assert!(panics > 0, "round {round} must inject faults");
            let healthy = parallel_map(&items, 8, |&x| u64::from(x) * 2);
            assert!(healthy.iter().enumerate().all(|(i, &r)| r == i as u64 * 2));
        }
        std::panic::set_hook(hook);
    }

    #[test]
    fn cheap_closure_at_high_thread_count() {
        // The shape the disjoint-slot design exists for: tiny tasks, many
        // workers. Correctness must hold with essentially zero work per item.
        let items: Vec<u32> = (0..10_000).collect();
        let out = parallel_map(&items, 8, |&x| x ^ 0xA5A5);
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &r)| r == (i as u32) ^ 0xA5A5));
    }
}
