//! Closed- and open-loop load generators. Load comes from this one process, with
//! at most `nproc` threads: the calling thread is always one of them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One finished operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Index into the request stream.
    pub idx: usize,
    /// Succeeded and passed its inline check.
    pub ok: bool,
    /// Latency in ms (from the scheduled send on open loop).
    pub latency_ms: f64,
    /// How late the generator sent it, ms (open loop only).
    pub lag_ms: f64,
}

/// What an operation reports back to the loop running it.
pub struct Done {
    /// Succeeded and passed its inline check.
    pub ok: bool,
    /// Latency measured by the operation itself (a traced operation
    /// times only its HTTP round trip); `None` lets the loop time the
    /// whole operation.
    pub latency: Option<Duration>,
}

impl Done {
    /// Outcome whose latency the loop measures.
    pub fn timed(ok: bool) -> Self {
        Done { ok, latency: None }
    }
}

/// Everything a timed window produced.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Finished operations, in completion order per thread.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last completion, s.
    pub elapsed_s: f64,
}

impl Window {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Operations that failed or were refused.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Successful operations per second.
    pub fn goodput(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.elapsed_s.max(1e-9)
    }

    /// Latencies in ms, with a failed operation counted as taking the
    /// whole window so that it misses every latency limit.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let miss = self.elapsed_s * 1e3;
        self.samples
            .iter()
            .map(|s| if s.ok { s.latency_ms } else { miss })
            .collect()
    }

    /// Round trips in ms, ordered by request index (send order): from
    /// each request's actual send to its response, with a failed
    /// operation counted as taking the whole window. On a closed loop a
    /// round trip is the latency; on the open loop it leaves out the lag,
    /// the wait before a late send.
    pub fn round_trips_in_send_order_ms(&self) -> Vec<f64> {
        let miss = self.elapsed_s * 1e3;
        let mut by_idx: Vec<(usize, f64)> = self
            .samples
            .iter()
            .map(|s| (s.idx, if s.ok { s.latency_ms - s.lag_ms } else { miss }))
            .collect();
        by_idx.sort_by_key(|&(i, _)| i);
        by_idx.into_iter().map(|(_, l)| l).collect()
    }
}

fn run_threads<T: Send>(threads: usize, body: impl Fn(usize) -> Vec<T> + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let body = &body;
        let others: Vec<_> = (1..threads).map(|t| s.spawn(move || body(t))).collect();
        let mut all = body(0);
        for h in others {
            all.extend(h.join().expect("load thread panicked"));
        }
        all
    })
}

/// Closed loop: `callers` threads each send the next request of the
/// stream as soon as their previous one completes, until `seconds` have
/// passed or the `len` requests run out. Requests in flight at the
/// deadline finish and count.
pub fn closed_loop<S>(
    callers: usize,
    seconds: f64,
    len: usize,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, usize) -> Done + Sync,
) -> Window {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let samples = run_threads(callers, |t| {
        let mut state = init(t);
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= len {
                break;
            }
            let t0 = Instant::now();
            let done = op(&mut state, idx);
            let latency = done.latency.unwrap_or_else(|| t0.elapsed());
            out.push(Sample {
                idx,
                ok: done.ok,
                latency_ms: latency.as_secs_f64() * 1e3,
                lag_ms: 0.0,
            });
        }
        out
    });
    Window {
        samples,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// How long before a send [`wait_until`] stops sleeping and spins.
const SPIN_AHEAD: Duration = Duration::from_micros(300);

/// Sleep until [`SPIN_AHEAD`] before `due`, then spin until `due`. A
/// sleeping thread's timer wake on a shared VM host is late by 0.07 ms
/// at the median and, in the host's busy spells, by 0.2–6 ms at p90,
/// which the lag and the from-schedule tail would report as the
/// daemon's. Spinning only the last 0.3 ms keeps sends on time without
/// taking a whole core from the daemon.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_AHEAD {
        std::thread::sleep(due - now - SPIN_AHEAD);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: request `i` of `len` is due at `i / rate` seconds; thread
/// `t` of `threads` owns the requests with `i % threads == t`. Latency
/// runs from the due time, so a stall also counts against the requests
/// it delays; lag is how late each request was actually sent.
pub fn open_loop<S>(
    threads: usize,
    rate: f64,
    len: usize,
    init: impl Fn(usize) -> S + Sync,
    op: impl Fn(&mut S, usize) -> Done + Sync,
) -> Window {
    let start = Instant::now() + Duration::from_millis(5);
    let samples = run_threads(threads, |t| {
        let mut state = init(t);
        let mut out = Vec::with_capacity(len / threads + 1);
        for idx in (t..len).step_by(threads) {
            let due = start + Duration::from_secs_f64(idx as f64 / rate);
            wait_until(due);
            let lag = Instant::now() - due;
            let done = op(&mut state, idx);
            out.push(Sample {
                idx,
                ok: done.ok,
                latency_ms: (Instant::now() - due).as_secs_f64() * 1e3,
                lag_ms: lag.as_secs_f64() * 1e3,
            });
        }
        out
    });
    Window {
        samples,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_stops_at_the_stream_end() {
        let w = closed_loop(2, 30.0, 50, |_| (), |_, i| Done::timed(i % 10 != 0));
        assert_eq!(w.attempted(), 50);
        assert_eq!(w.failed(), 5);
        let mut idx: Vec<usize> = w.samples.iter().map(|s| s.idx).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..50).collect::<Vec<_>>(), "each request sent once");
        // Failures count as missing the whole window.
        let worst = w.latencies_ms().into_iter().fold(0.0, f64::max);
        assert_eq!(worst, w.elapsed_s * 1e3);
    }

    #[test]
    fn round_trips_leave_out_the_lag() {
        let sample = |idx, ok, latency_ms, lag_ms| Sample {
            idx,
            ok,
            latency_ms,
            lag_ms,
        };
        let w = Window {
            samples: vec![
                sample(2, true, 9.0, 0.0),
                sample(0, true, 5.0, 3.0),
                sample(1, false, 4.0, 1.0),
            ],
            elapsed_s: 0.5,
        };
        assert_eq!(w.round_trips_in_send_order_ms(), vec![2.0, 500.0, 9.0]);
        assert_eq!(w.latencies_ms(), vec![9.0, 5.0, 500.0]);
    }

    #[test]
    fn open_loop_keeps_its_schedule() {
        let w = open_loop(2, 2000.0, 200, |_| (), |_, _| Done::timed(true));
        assert_eq!(w.attempted(), 200);
        // 200 requests at 2000/s take about 0.1 s.
        assert!(w.elapsed_s >= 0.099 && w.elapsed_s < 1.0, "{}", w.elapsed_s);
        assert!(w.samples.iter().all(|s| s.latency_ms >= s.lag_ms));
    }
}
