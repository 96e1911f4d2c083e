//! # pubopt-sched — the persistent work-stealing sweep executor
//!
//! Every figure sweep in this workspace is an embarrassingly parallel
//! batch of independent solves. The original runner spawned a fresh
//! `std::thread::scope` per call and handed out indices from one shared
//! atomic counter — correct, but it pays a thread spawn/join per sweep
//! and a compare-and-swap per *item*, which dominates when the closure is
//! cheap. This crate replaces that with one long-lived pool per process:
//!
//! * **Lazy, persistent workers.** [`Pool::global`] spawns its threads on
//!   first use and keeps them parked on a condvar between batches, so a
//!   process running thousands of small sweeps pays the spawn cost once.
//! * **Per-worker range deques.** A batch's index space is pre-split into
//!   one cache-line-padded range block per prospective worker. Each
//!   worker claims chunks from the *front* of its home block and, when
//!   that runs dry, steals half the remainder from the *back* of a
//!   victim's block. Front/back separation keeps the owner and its
//!   thieves off the same end of the deque.
//! * **Adaptive chunk claiming.** The first claim takes a single index as
//!   a probe; after that a worker sizes claims so one chunk costs about
//!   [`TARGET_CHUNK_NS`] of work (per-item cost tracked by a running
//!   average). Cheap closures therefore claim long runs (few CASes),
//!   expensive closures claim single indices (good balance).
//! * **Lock-free result slots.** Each output index is written by exactly
//!   one claimed range, so slots are plain `UnsafeCell`s — no per-slot
//!   `Mutex`. The completion latch (`completed == n`) is the only
//!   synchronisation between the last write and the caller's read.
//! * **Panic isolation.** A panicking closure poisons its batch: the
//!   payload is kept, remaining ranges are drained (so the latch fires),
//!   and the *caller* re-raises. Worker threads survive, so one failed
//!   sweep never poisons the pool for subsequent sweeps.
//! * **Dynamic jobs.** Besides batches, a pool accepts fire-and-forget
//!   jobs ([`Pool::spawn_job`]) with a visible backlog
//!   ([`Pool::queued_jobs`]) — the `pubopt-serve` daemon runs its
//!   connection handling on a dedicated pool through this interface and
//!   keeps its bounded-queue `429` shedding exact.
//!
//! Determinism: output slot `i` always holds `f(&items[i])`, whatever the
//! claim interleaving, so [`Pool::map`] is thread-count-independent for a
//! pure `f`. Stateful *chunked* sweeps get their determinism one layer up
//! (`parallel_chunk_map` in `pubopt-experiments` fixes chunk boundaries
//! by chunk length alone and runs each chunk as one item here).
//!
//! ## Safety
//!
//! Worker threads are `'static` but batch closures borrow the caller's
//! stack (`items`, `f`, the result slots). The borrow is erased through
//! raw pointers and re-asserted by a completion protocol: a worker only
//! dereferences the batch context between claiming a range and counting
//! it complete, and the caller does not return before `completed == n`.
//! See `run_range` and `Batch` for the detailed invariants.

#![deny(missing_docs)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Target wall-clock cost of one claimed chunk. Chunks this size make
/// claim traffic negligible for cheap closures while still rebalancing
/// well: at 50 µs a 10⁵-item trivial sweep needs ~100 claims total,
/// and any closure slower than 50 µs/item is claimed singly.
pub const TARGET_CHUNK_NS: u64 = 50_000;

/// Upper bound on one claim, whatever the estimate says — keeps at least
/// some stealable work visible on very cheap closures.
const MAX_CHUNK: u32 = 256;

/// Pack a half-open index range into one atomic word.
fn pack(start: u32, end: u32) -> u64 {
    (u64::from(start) << 32) | u64::from(end)
}

/// Inverse of [`pack`].
fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// One work-stealing deque: a half-open index range `(start, end)` packed
/// into a single atomic, padded to its own cache line so owner claims and
/// thief claims on different blocks never false-share.
#[repr(align(128))]
struct Block(AtomicU64);

impl Block {
    fn new(start: u32, end: u32) -> Self {
        Block(AtomicU64::new(pack(start, end)))
    }

    fn remaining(&self) -> u32 {
        let (s, e) = unpack(self.0.load(Ordering::Relaxed));
        e.saturating_sub(s)
    }

    /// Owner side: claim up to `want` indices from the front.
    fn claim_front(&self, want: u32) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let take = want.min(e - s);
            match self.0.compare_exchange_weak(
                cur,
                pack(s + take, e),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((s, s + take)),
                Err(now) => cur = now,
            }
        }
    }

    /// Thief side: steal up to `want` indices — at most half the
    /// remainder, rounded up — from the back.
    fn steal_back(&self, want: u32) -> Option<(u32, u32)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            let len = e - s;
            let take = want.min(len - len / 2);
            match self.0.compare_exchange_weak(
                cur,
                pack(s, e - take),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((e - take, e)),
                Err(now) => cur = now,
            }
        }
    }

    /// Empty the block (poison path), returning how many indices were
    /// still unclaimed.
    fn drain(&self) -> u32 {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return 0;
            }
            match self
                .0
                .compare_exchange_weak(cur, pack(e, e), Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return e - s,
                Err(now) => cur = now,
            }
        }
    }
}

/// One result slot, written lock-free.
///
/// SAFETY: a slot index belongs to exactly one claimed range and every
/// range is claimed exactly once (the CAS protocol on [`Block`]), so at
/// most one thread ever writes a given slot, and the caller only reads
/// after the completion latch — no concurrent access exists.
struct Slot<R>(UnsafeCell<Option<R>>);

unsafe impl<R: Send> Sync for Slot<R> {}

/// Type-erased view of one [`Pool::map`] call's borrowed state.
struct MapCtx<T, R, F> {
    items: *const T,
    f: *const F,
    slots: *const Slot<R>,
}

/// The per-(T, R, F) trampoline a worker calls for a claimed range.
///
/// SAFETY (caller): `ctx` must point to a live `MapCtx<T, R, F>` whose
/// `items`/`slots` arrays cover `start..end`. [`Pool::map`] guarantees
/// liveness by not returning until every claimed range has been counted
/// complete, and exclusive slot access follows from the claim protocol.
unsafe fn run_range<T, R, F>(ctx: *const (), start: usize, end: usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let ctx = &*(ctx as *const MapCtx<T, R, F>);
    for i in start..end {
        let r = (*ctx.f)(&*ctx.items.add(i));
        *(*ctx.slots.add(i)).0.get() = Some(r);
    }
}

/// One submitted batch: the index deques plus the completion latch.
struct Batch {
    blocks: Box<[Block]>,
    n: usize,
    /// Cap on concurrently attached workers, caller included — the
    /// `threads` knob of the public sweep API.
    max_workers: usize,
    run: unsafe fn(*const (), usize, usize),
    ctx: *const (),
    attached: AtomicUsize,
    completed: AtomicUsize,
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is a raw pointer into the submitting caller's stack. It
// is only dereferenced via `run` between claiming a range and counting it
// complete, and the caller blocks until `completed == n` — so the pointee
// outlives every dereference. All other fields are Sync.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    fn new(
        n: usize,
        max_workers: usize,
        nblocks: usize,
        run: unsafe fn(*const (), usize, usize),
        ctx: *const (),
    ) -> Self {
        let blocks: Box<[Block]> = (0..nblocks)
            .map(|b| Block::new((b * n / nblocks) as u32, ((b + 1) * n / nblocks) as u32))
            .collect();
        Batch {
            blocks,
            n,
            max_workers,
            run,
            ctx,
            // The submitting caller participates and is pre-attached.
            attached: AtomicUsize::new(1),
            completed: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    fn has_work(&self) -> bool {
        !self.poisoned.load(Ordering::Relaxed) && self.blocks.iter().any(|b| b.remaining() > 0)
    }

    /// Attach a pool worker, respecting the `max_workers` cap.
    fn try_attach(&self) -> bool {
        let mut cur = self.attached.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_workers || !self.has_work() {
                return false;
            }
            match self.attached.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Claim the next run of indices: home block front first, then steal
    /// from the other blocks' backs.
    fn claim(&self, home: usize, want: u32) -> Option<(u32, u32)> {
        if self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        let k = self.blocks.len();
        if let Some(r) = self.blocks[home % k].claim_front(want) {
            return Some(r);
        }
        for off in 1..k {
            if let Some(r) = self.blocks[(home + off) % k].steal_back(want) {
                return Some(r);
            }
        }
        None
    }

    /// Count `k` indices finished; the last one releases the caller.
    fn complete(&self, k: usize) {
        let prev = self.completed.fetch_add(k, Ordering::AcqRel);
        if prev + k == self.n {
            let mut done = self.done.lock().expect("sched: done lock poisoned");
            *done = true;
            self.done_cv.notify_all();
        }
    }

    /// Record a closure panic (first payload wins), then drain every
    /// unclaimed index so the completion latch still fires.
    fn poison(&self, payload: Box<dyn Any + Send>) {
        {
            let mut slot = self.panic.lock().expect("sched: panic lock poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        self.poisoned.store(true, Ordering::Release);
        let drained: u32 = self.blocks.iter().map(Block::drain).sum();
        if drained > 0 {
            self.complete(drained as usize);
        }
    }

    /// One worker's (or the caller's) work session on this batch: claim
    /// adaptively-sized ranges until the batch runs dry.
    fn work(&self, home: usize) {
        let mut est_ns: u64 = 0;
        loop {
            // First claim is a single-index probe; after that, size claims
            // to ~TARGET_CHUNK_NS of estimated work.
            let want = TARGET_CHUNK_NS
                .checked_div(est_ns)
                .map_or(1, |n| n.clamp(1, u64::from(MAX_CHUNK)) as u32);
            let Some((s, e)) = self.claim(home, want) else {
                break;
            };
            let t0 = Instant::now();
            // SAFETY: (s, e) was claimed exactly once above, and the batch
            // context outlives this call (see `Batch` safety comment).
            let ran = catch_unwind(AssertUnwindSafe(|| unsafe {
                (self.run)(self.ctx, s as usize, e as usize)
            }));
            match ran {
                Ok(()) => {
                    let per = (t0.elapsed().as_nanos() as u64 / u64::from(e - s)).max(1);
                    est_ns = if est_ns == 0 { per } else { (est_ns + per) / 2 };
                    self.complete((e - s) as usize);
                }
                Err(payload) => {
                    self.complete((e - s) as usize);
                    self.poison(payload);
                }
            }
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Work queue shared by all pool threads: fire-and-forget jobs plus the
/// currently-running batches workers may attach to.
struct Injector {
    jobs: VecDeque<Job>,
    batches: Vec<Arc<Batch>>,
    /// Set by [`Pool::shutdown`]. It lives under the same lock a worker
    /// holds from checking it to parking on `work_cv`, so the shutdown
    /// notify cannot land in between and be lost.
    shutdown: bool,
}

struct Shared {
    injector: Mutex<Injector>,
    work_cv: Condvar,
    workers: usize,
    started: Mutex<bool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

fn worker_loop(shared: &Shared, wid: usize) {
    loop {
        enum Work {
            Job(Job),
            Batch(Arc<Batch>),
        }
        let work = {
            let mut inj = shared.injector.lock().expect("sched: injector poisoned");
            loop {
                if let Some(job) = inj.jobs.pop_front() {
                    break Some(Work::Job(job));
                }
                if let Some(b) = inj.batches.iter().find(|b| b.try_attach()) {
                    break Some(Work::Batch(Arc::clone(b)));
                }
                if inj.shutdown {
                    break None;
                }
                inj = shared.work_cv.wait(inj).expect("sched: injector poisoned");
            }
        };
        match work {
            None => return,
            Some(Work::Job(job)) => {
                // A panicking job must not take the worker thread down:
                // the pool outlives any one submitter's failure.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Some(Work::Batch(batch)) => {
                // Home block `wid + 1`: block 0 is the submitting
                // caller's, so workers start on distinct ends of the
                // index space and steal only when imbalanced.
                batch.work(wid + 1);
                batch.attached.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// A persistent worker pool. See the crate docs for the design.
///
/// Most code wants [`Pool::global`]; dedicated pools ([`Pool::new`])
/// exist for subsystems whose tasks may *block* (the serve daemon's
/// connection handlers, the load generator's clients) and must therefore
/// not occupy the compute pool's workers.
pub struct Pool {
    shared: Arc<Shared>,
}

impl Pool {
    /// Create a pool of `workers` threads. Threads are spawned lazily on
    /// first use, so an idle pool costs nothing.
    pub fn new(workers: usize) -> Self {
        Pool {
            shared: Arc::new(Shared {
                injector: Mutex::new(Injector {
                    jobs: VecDeque::new(),
                    batches: Vec::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                workers: workers.max(1),
                started: Mutex::new(false),
                threads: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The process-wide compute pool, created on first use.
    ///
    /// Sized `max(8, available_parallelism)` so sweep callers can meaning-
    /// fully request up to 8 workers even on small CI machines (an
    /// 8-worker batch stays a real 8-way claim race).
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let hw = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            Pool::new(hw.max(8))
        })
    }

    /// Number of pool threads (excluding participating callers).
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    fn ensure_started(&self) {
        let mut started = self.shared.started.lock().expect("sched: start poisoned");
        if *started {
            return;
        }
        *started = true;
        let mut threads = self.shared.threads.lock().expect("sched: threads poisoned");
        for wid in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sched-{wid}"))
                    .spawn(move || worker_loop(&shared, wid))
                    .expect("sched: spawn worker"),
            );
        }
    }

    /// Apply `f` to every item across at most `max_workers` concurrent
    /// workers (the submitting caller participates and counts as one),
    /// preserving input order in the output.
    ///
    /// Output slot `i` always holds `f(&items[i])`: results are
    /// thread-count-independent for a pure `f`. With `max_workers <= 1`
    /// (or a single item) the call runs inline with no pool traffic.
    ///
    /// # Panics
    ///
    /// A panicking `f` poisons only this batch: the first payload is
    /// re-raised here, the pool survives for subsequent calls.
    pub fn map<T, R, F>(&self, items: &[T], max_workers: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let max_workers = max_workers.max(1).min(n);
        if max_workers == 1 || n == 1 {
            return items.iter().map(f).collect();
        }
        assert!(
            u32::try_from(n).is_ok(),
            "batch of {n} items exceeds u32 index packing"
        );
        self.ensure_started();

        let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let ctx = MapCtx::<T, R, F> {
            items: items.as_ptr(),
            f: &f,
            slots: slots.as_ptr(),
        };
        let nblocks = max_workers.min(32);
        let batch = Arc::new(Batch::new(
            n,
            max_workers,
            nblocks,
            run_range::<T, R, F>,
            (&ctx as *const MapCtx<T, R, F>).cast(),
        ));
        {
            let mut inj = self
                .shared
                .injector
                .lock()
                .expect("sched: injector poisoned");
            inj.batches.push(Arc::clone(&batch));
        }
        self.shared.work_cv.notify_all();

        // Participate from the caller's thread (home block 0), then wait
        // for the completion latch.
        batch.work(0);
        {
            let mut done = batch.done.lock().expect("sched: done lock poisoned");
            while !*done {
                done = batch.done_cv.wait(done).expect("sched: done lock poisoned");
            }
        }
        {
            let mut inj = self
                .shared
                .injector
                .lock()
                .expect("sched: injector poisoned");
            inj.batches.retain(|b| !Arc::ptr_eq(b, &batch));
        }

        if batch.poisoned.load(Ordering::Acquire) {
            let payload = batch
                .panic
                .lock()
                .expect("sched: panic lock poisoned")
                .take();
            // `slots` drops normally: unwritten slots are `None`.
            drop(slots);
            resume_unwind(payload.unwrap_or_else(|| Box::new("sched: batch poisoned")));
        }
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("sched: every index was completed"))
            .collect()
    }

    /// Enqueue a fire-and-forget job. Jobs run on pool threads in FIFO
    /// order relative to other jobs; a panicking job is caught, never
    /// killing the worker.
    pub fn spawn_job(&self, job: impl FnOnce() + Send + 'static) {
        self.ensure_started();
        {
            let mut inj = self
                .shared
                .injector
                .lock()
                .expect("sched: injector poisoned");
            inj.jobs.push_back(Box::new(job));
        }
        self.shared.work_cv.notify_one();
    }

    /// Jobs enqueued but not yet picked up by a worker — the backlog a
    /// bounded-queue admission policy sheds against.
    pub fn queued_jobs(&self) -> usize {
        self.shared
            .injector
            .lock()
            .expect("sched: injector poisoned")
            .jobs
            .len()
    }

    /// Ask the workers to exit once the job backlog is drained and no
    /// batch needs them. Idempotent; in-flight work finishes.
    pub fn shutdown(&self) {
        self.shared
            .injector
            .lock()
            .expect("sched: injector poisoned")
            .shutdown = true;
        self.shared.work_cv.notify_all();
    }

    /// [`Pool::shutdown`], then join every pool thread. Call from outside
    /// the pool (joining from a pool thread would deadlock).
    ///
    /// # Panics
    ///
    /// Panics if a pool thread itself panicked — job and batch panics are
    /// caught per-task, so this indicates an executor bug.
    pub fn join(&self) {
        self.shutdown();
        let threads: Vec<JoinHandle<()>> = {
            let mut guard = self.shared.threads.lock().expect("sched: threads poisoned");
            guard.drain(..).collect()
        };
        for t in threads {
            t.join().expect("sched: worker thread panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = Pool::global().map(&items, 8, |&x| x * 3 + 1);
        assert!(out.iter().enumerate().all(|(i, &r)| r == i as u64 * 3 + 1));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<u32> = Pool::global().map(&[], 4, |x: &u32| *x);
        assert!(out.is_empty());
        assert_eq!(Pool::global().map(&[9], 4, |&x: &u32| x + 1), vec![10]);
    }

    #[test]
    fn single_worker_runs_inline() {
        // max_workers == 1 must not touch the pool at all (no deadlock
        // risk even when called from a pool worker).
        let out = Pool::global().map(&[1u32, 2, 3], 1, |&x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn results_are_worker_count_independent() {
        let items: Vec<u64> = (0..5000).map(|i| i * 17 % 257).collect();
        let baseline = Pool::global().map(&items, 1, |&x| x.wrapping_mul(x) ^ 0xABCD);
        for workers in [2, 3, 4, 8, 16] {
            let out = Pool::global().map(&items, workers, |&x| x.wrapping_mul(x) ^ 0xABCD);
            assert_eq!(out, baseline, "workers={workers}");
        }
    }

    #[test]
    fn expensive_items_balance_across_workers() {
        // Wildly unequal item costs: adaptive claiming must still finish
        // and produce exact results.
        let items: Vec<u64> = (0..200).collect();
        let out = Pool::global().map(&items, 8, |&x| {
            let spins = if x % 50 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        });
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn panic_poisons_batch_but_not_pool() {
        let items: Vec<u32> = (0..500).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::global().map(&items, 4, |&x| {
                if x == 250 {
                    panic!("sched test panic at {x}");
                }
                x
            })
        }));
        std::panic::set_hook(hook);
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("sched test panic"), "payload: {msg}");
        // The pool must keep serving batches afterwards.
        for _ in 0..20 {
            let out = Pool::global().map(&items, 8, |&x| x + 1);
            assert_eq!(out[499], 500);
        }
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        let outer: Vec<u32> = (0..16).collect();
        let out = Pool::global().map(&outer, 4, |&i| {
            let inner: Vec<u32> = (0..64).map(|j| i * 64 + j).collect();
            Pool::global()
                .map(&inner, 4, |&x| x as u64)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(out.len(), 16);
        let total: u64 = out.iter().sum();
        assert_eq!(total, (0..16u64 * 64).sum::<u64>());
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let handles: Vec<_> = (0..6)
            .map(|t| {
                std::thread::spawn(move || {
                    let items: Vec<u64> = (0..2000).map(|i| i + t * 1_000_000).collect();
                    let out = Pool::global().map(&items, 4, |&x| x ^ 0x5555);
                    assert!(out.iter().zip(&items).all(|(&r, &x)| r == x ^ 0x5555));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn dedicated_pool_jobs_run_and_drain_on_shutdown() {
        let pool = Pool::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.spawn_job(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        // Shutdown must drain the backlog, not abandon it.
        pool.join();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(pool.queued_jobs(), 0);
    }

    #[test]
    fn job_panic_does_not_kill_the_worker() {
        let pool = Pool::new(1);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        pool.spawn_job(|| panic!("job goes boom"));
        let done = Arc::new(AtomicBool::new(false));
        let d = Arc::clone(&done);
        pool.spawn_job(move || d.store(true, Ordering::SeqCst));
        pool.join(); // would panic on a dead worker thread
        std::panic::set_hook(hook);
        assert!(done.load(Ordering::SeqCst), "worker survived the panic");
    }

    #[test]
    fn join_returns_after_every_map_across_2000_pools() {
        // Workers park right after a batch, so a join issued as `map`
        // returns races them into `work_cv.wait`. A shutdown notify lost
        // in that race parks a worker for good; each join runs on a
        // watched helper thread so that fails in seconds, not never.
        let items: Vec<u32> = (0..64).collect();
        for round in 0..2000 {
            let pool = Pool::new(4);
            assert_eq!(pool.map(&items, 4, |&x| x + 1)[63], 64);
            let (tx, rx) = std::sync::mpsc::channel();
            let joiner = std::thread::spawn(move || {
                pool.join();
                tx.send(()).expect("the test thread is waiting");
            });
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("round {round}: Pool::join hung"));
            joiner.join().expect("joiner thread");
        }
    }

    #[test]
    fn lazy_pool_spawns_no_threads_until_used() {
        let pool = Pool::new(4);
        assert!(pool.shared.threads.lock().unwrap().is_empty());
        let _ = pool.map(&[1u8, 2, 3, 4], 2, |&x| x);
        assert_eq!(pool.shared.threads.lock().unwrap().len(), 4);
        pool.join();
    }

    /// The executor's scaling gate: on a register-only LCG spin (a
    /// loop-carried multiply and no memory traffic, so only cores and
    /// executor overhead bound the speedup), 4 workers must run the batch
    /// at least 1.3× faster than 1. Asserted only where 4 cores exist;
    /// with fewer the curve is flat by physics. Release only:
    /// `cargo test --release -p pubopt-sched -- --ignored --nocapture`.
    #[test]
    #[ignore = "release timing gate; run with --release --ignored"]
    fn four_workers_beat_one_by_1_3x_on_four_cores() {
        fn lcg_spin(x: u64) -> u64 {
            let mut s = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            for _ in 0..2_000 {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
            }
            s
        }
        let items: Vec<u64> = (0..4096).collect();
        // Median of 9 timed batches after one warm-up batch.
        let median_ns = |workers: usize| {
            let mut ns: Vec<u128> = (0..10)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(Pool::global().map(&items, workers, |&x| lcg_spin(x)));
                    t.elapsed().as_nanos()
                })
                .skip(1)
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2]
        };
        let (one, four) = (median_ns(1), median_ns(4));
        let speedup = one as f64 / four.max(1) as f64;
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        println!("1 worker {one} ns, 4 workers {four} ns: {speedup:.2}x on {cores} core(s)");
        if cores >= 4 {
            assert!(
                speedup >= 1.3,
                "4-worker speedup {speedup:.2} < 1.3 on {cores} cores"
            );
        } else {
            println!("only {cores} core(s): skipping the 1.3x assert");
        }
    }

    #[test]
    fn block_claim_and_steal_protocol() {
        let b = Block::new(0, 100);
        assert_eq!(b.claim_front(10), Some((0, 10)));
        // Steal takes half the remainder (90 → 45), capped by `want`.
        assert_eq!(b.steal_back(64), Some((55, 100)));
        assert_eq!(b.steal_back(1), Some((54, 55)));
        assert_eq!(b.remaining(), 44);
        assert_eq!(b.drain(), 44);
        assert_eq!(b.claim_front(1), None);
        assert_eq!(b.steal_back(1), None);
    }
}
