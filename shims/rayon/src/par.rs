//! Real data parallelism: a persistent pool of parked worker threads plus
//! an atomic work counter per region. These helpers are what the hot
//! paths (FMM passes, direct N-body) call; they provide dynamic load
//! balancing without any dependency on a thread-pool crate.
//!
//! Workers are spawned once (lazily, on the first parallel region) and
//! parked on a condvar between regions, so a region costs a couple of
//! wakeups, not thread spawns — the FMM's batched M2L opens hundreds of
//! small regions per evaluate. Work items should still be coarse-grained
//! (a block of targets, not an element): every item dispatch is one
//! atomic RMW on a shared counter.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Runs `f` with the worker count forced to `n` (0 = no override).
/// Process-wide, not reentrant — used by `SimConfig::threads` and the
/// farm's job-parallel width.
pub fn with_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let prev = OVERRIDE.swap(n, Ordering::SeqCst);
    let out = f();
    OVERRIDE.store(prev, Ordering::SeqCst);
    out
}

/// Worker-thread count: the active [`with_override`] if any, else
/// `RAYON_NUM_THREADS` if set, else `available_parallelism`.
pub fn num_threads() -> usize {
    let o = OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Covariant raw-pointer wrapper that is `Send + Sync`; used to hand each
/// worker disjoint output slots. Soundness argument: every helper below
/// guarantees each index/chunk is dispatched to exactly one worker.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Taking `self` makes closures capture the whole `SendPtr` (which is
    /// `Sync`) instead of the raw-pointer field (which is not) under
    /// edition-2021 disjoint capture.
    #[inline]
    fn get(self) -> *mut T {
        self.0
    }
}

/// The work-counter loop both workers and the submitting thread run.
fn drain(counter: &AtomicUsize, n: usize, f: &(dyn Fn(usize) + Sync), panicked: &AtomicBool) {
    loop {
        if panicked.load(Ordering::Relaxed) {
            break;
        }
        let i = counter.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            panicked.store(true, Ordering::Relaxed);
            break;
        }
    }
}

/// A submitted parallel region. `f` is a lifetime-erased borrow of the
/// caller's closure; the submitting thread does not return until
/// `slots == 0 && active == 0`, which is what keeps the erasure sound.
struct ActiveJob {
    f: SendPtr<()>, // type-erased `*const (dyn Fn(usize) + Sync)` payload
    call: unsafe fn(*const (), usize, &AtomicUsize, &AtomicBool),
    n: usize,
    counter: Arc<AtomicUsize>,
    panicked: Arc<AtomicBool>,
    /// Worker participation slots not yet claimed.
    slots: usize,
}

struct PoolState {
    job: Option<ActiveJob>,
    /// Claimed-but-unfinished worker participations of the current job.
    active: usize,
    /// Spawned (parked or working) worker threads.
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work: Condvar,
    done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            job: None,
            active: 0,
            workers: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

thread_local! {
    /// Set inside pool workers: nested parallel regions run serially
    /// instead of deadlocking on the (single-job) pool.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn worker_loop(shared: &'static Pool) {
    IN_WORKER.with(|w| w.set(true));
    let mut guard = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    loop {
        if let Some(job) = guard.job.as_mut().filter(|j| j.slots > 0) {
            job.slots -= 1;
            let (fp, call, n) = (job.f, job.call, job.n);
            let counter = job.counter.clone();
            let panicked = job.panicked.clone();
            drop(guard);
            // SAFETY: the submitting thread blocks until active == 0, so
            // the erased closure borrow outlives this use.
            unsafe { call(fp.get() as *const (), n, &counter, &panicked) };
            guard = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            guard.active -= 1;
            if guard.active == 0 {
                shared.done.notify_all();
            }
        } else {
            guard = shared.work.wait(guard).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Monomorphic trampoline: recovers the concrete closure type inside
/// workers. Generic over `F` so the pool itself stays object-free.
unsafe fn call_impl<F: Fn(usize) + Sync>(
    raw: *const (),
    n: usize,
    counter: &AtomicUsize,
    panicked: &AtomicBool,
) {
    let f = &*(raw as *const F);
    drain(counter, n, f, panicked);
}

/// Runs `f(i)` for every `i in 0..n` across the persistent worker pool,
/// pulling indices from a shared atomic counter (dynamic load balance).
/// The submitting thread participates in the work. Panics in any item are
/// resurfaced on the submitting thread after the region completes.
pub fn for_each_index<F: Fn(usize) + Sync>(n: usize, f: F) {
    let nt = num_threads().min(n);
    if nt <= 1 || n <= 1 || IN_WORKER.with(|w| w.get()) {
        // serial path (single thread, tiny n, or nested region inside a
        // pool worker): run inline, preserving panic payloads
        for i in 0..n {
            f(i);
        }
        return;
    }
    let shared = pool();
    let counter = Arc::new(AtomicUsize::new(0));
    let panicked = Arc::new(AtomicBool::new(false));
    {
        let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
        // single-job pool: a second top-level submitter waits its turn
        while st.job.is_some() || st.active > 0 {
            st = shared.done.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        while st.workers < nt - 1 {
            std::thread::Builder::new()
                .name("par-worker".into())
                .spawn(move || worker_loop(pool()))
                .expect("spawn pool worker");
            st.workers += 1;
        }
        st.job = Some(ActiveJob {
            // SAFETY: lifetime erasure of &f; run() blocks below until no
            // worker can still hold this pointer.
            f: SendPtr(&f as *const F as *mut ()),
            call: call_impl::<F>,
            n,
            counter: counter.clone(),
            panicked: panicked.clone(),
            slots: nt - 1,
        });
        st.active = nt - 1;
        shared.work.notify_all();
    }
    // The submitting thread works too. It is flagged as a worker for the
    // duration so a nested region inside `f` runs serially instead of
    // trying to submit a second job (single-job pool ⇒ deadlock).
    IN_WORKER.with(|w| w.set(true));
    drain(&counter, n, &f, &panicked);
    IN_WORKER.with(|w| w.set(false));
    // wait until every participation slot is claimed and finished — only
    // then may the borrow of `f` end
    let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
    while st.active > 0 || st.job.as_ref().is_some_and(|j| j.slots > 0) {
        st = shared.done.wait(st).unwrap_or_else(|p| p.into_inner());
    }
    st.job = None;
    shared.done.notify_all();
    drop(st);
    if panicked.load(Ordering::Relaxed) {
        panic!("parallel work item panicked");
    }
}

/// Parallel map over `0..n` collecting results in index order.
pub fn map_indexed<R: Send, F: Fn(usize) -> R + Sync>(n: usize, f: F) -> Vec<R> {
    let mut out: Vec<R> = Vec::with_capacity(n);
    let base = SendPtr(out.as_mut_ptr());
    for_each_index(n, |i| {
        // SAFETY: each index written exactly once, within capacity.
        unsafe { base.get().add(i).write(f(i)) };
    });
    // SAFETY: all n slots initialized above.
    unsafe { out.set_len(n) };
    out
}

/// Splits `data` into chunks of `chunk_size` and runs `f(chunk_index,
/// chunk)` across the worker threads. Chunks are disjoint, so each worker
/// gets exclusive mutable access.
pub fn chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], chunk_size: usize, f: F) {
    assert!(chunk_size > 0, "chunks_mut: zero chunk size");
    let len = data.len();
    let n = len.div_ceil(chunk_size);
    let base = SendPtr(data.as_mut_ptr());
    for_each_index(n, |i| {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(len);
        // SAFETY: [start, end) ranges are disjoint across chunk indices and
        // in bounds; each index dispatched to exactly one worker.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(i, chunk);
    });
}

/// Sequential-access view of a block's rows inside a flat buffer. Produced
/// by [`for_each_row_block`]; `row(&mut self, ..)` ties each returned slice
/// to the view borrow so no two rows can be held at once.
pub struct RowBlock<'a, T> {
    base: SendPtr<T>,
    data_len: usize,
    row_len: usize,
    rows: &'a [u32],
}

impl<T> RowBlock<'_, T> {
    /// Number of rows in this block.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Mutable view of the `i`-th row of the block.
    pub fn row(&mut self, i: usize) -> &mut [T] {
        let r = self.rows[i] as usize;
        let start = r * self.row_len;
        assert!(
            start + self.row_len <= self.data_len,
            "row index out of bounds"
        );
        // SAFETY: in bounds (checked); rows are globally unique (checked by
        // the caller in debug builds) and blocks partition them, so no two
        // live references alias; &mut self prevents holding two rows from
        // the same block at once.
        unsafe { std::slice::from_raw_parts_mut(self.base.get().add(start), self.row_len) }
    }
}

/// Parallel scatter into disjoint rows of a flat row-major buffer: splits
/// `rows` into blocks of `block_size` consecutive entries and calls
/// `f(block_start, row_view)` for each block across the worker threads.
///
/// # Panics
/// `rows` must be pairwise distinct (checked in debug builds) — this is
/// what makes handing each worker mutable row access sound.
pub fn for_each_row_block<T: Send, F>(
    data: &mut [T],
    row_len: usize,
    rows: &[u32],
    block_size: usize,
    f: F,
) where
    F: Fn(usize, &mut RowBlock<'_, T>) + Sync,
{
    assert!(row_len > 0 && block_size > 0);
    #[cfg(debug_assertions)]
    {
        let mut sorted = rows.to_vec();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(w[0] != w[1], "for_each_row_block: duplicate row {}", w[0]);
        }
    }
    let data_len = data.len();
    let base = SendPtr(data.as_mut_ptr());
    let nblocks = rows.len().div_ceil(block_size);
    for_each_index(nblocks, |bi| {
        let start = bi * block_size;
        let end = (start + block_size).min(rows.len());
        let mut view = RowBlock {
            base,
            data_len,
            row_len,
            rows: &rows[start..end],
        };
        f(start, &mut view);
    });
}

/// Parallel iteration over disjoint `[start, end)` ranges of a flat
/// buffer: calls `f(i, &mut data[ranges[i].0..ranges[i].1])` across the
/// worker threads.
///
/// # Panics
/// Ranges must be in bounds and pairwise disjoint (disjointness checked in
/// debug builds).
pub fn for_each_disjoint_range<T: Send, F>(data: &mut [T], ranges: &[(usize, usize)], f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    for &(s, e) in ranges {
        assert!(
            s <= e && e <= data.len(),
            "for_each_disjoint_range: out of bounds"
        );
    }
    #[cfg(debug_assertions)]
    {
        let mut sorted: Vec<(usize, usize)> =
            ranges.iter().copied().filter(|(s, e)| s != e).collect();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "for_each_disjoint_range: overlapping ranges"
            );
        }
    }
    let base = SendPtr(data.as_mut_ptr());
    for_each_index(ranges.len(), |i| {
        let (s, e) = ranges[i];
        // SAFETY: in bounds (checked above); ranges pairwise disjoint
        // (checked in debug builds); each index dispatched once.
        let slice = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, slice);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        for_each_index(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_indexed_preserves_order() {
        let v = map_indexed(257, |i| i * i);
        assert_eq!(v.len(), 257);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }

    #[test]
    fn chunks_mut_is_exhaustive_and_disjoint() {
        let mut data = vec![0u32; 1003];
        chunks_mut(&mut data, 64, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + ci as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 64) as u32);
        }
    }

    #[test]
    fn row_block_scatter_hits_every_row_once() {
        let rows: Vec<u32> = vec![7, 3, 11, 0, 5, 9, 2];
        let mut data = vec![0.0f64; 12 * 4];
        for_each_row_block(&mut data, 4, &rows, 3, |start, view| {
            for i in 0..view.len() {
                let r = rows[start + i] as f64;
                for v in view.row(i).iter_mut() {
                    *v += r + 1.0;
                }
            }
        });
        for r in 0..12u32 {
            let expect = if rows.contains(&r) {
                r as f64 + 1.0
            } else {
                0.0
            };
            for c in 0..4 {
                assert_eq!(data[r as usize * 4 + c], expect, "row {r}");
            }
        }
    }

    #[test]
    fn disjoint_ranges_cover_exactly() {
        let mut data = vec![0u32; 20];
        let ranges = vec![(4usize, 9usize), (0, 2), (12, 20), (9, 12)];
        for_each_disjoint_range(&mut data, &ranges, |i, s| {
            for v in s.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        assert_eq!(&data[0..2], &[2, 2]);
        assert_eq!(data[2], 0);
        assert_eq!(data[3], 0);
        assert!(data[4..9].iter().all(|&v| v == 1));
        assert!(data[9..12].iter().all(|&v| v == 4));
        assert!(data[12..20].iter().all(|&v| v == 3));
    }

    /// Forces the pool path regardless of core count. Serialized because
    /// `with_override` is process-global.
    fn pooled<T>(f: impl FnOnce() -> T) -> T {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD.lock().unwrap_or_else(|p| p.into_inner());
        with_override(4, f)
    }

    #[test]
    fn pool_covers_all_indices() {
        pooled(|| {
            let hits: Vec<AtomicUsize> = (0..5000).map(|_| AtomicUsize::new(0)).collect();
            for_each_index(5000, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn pool_regions_reuse_workers_back_to_back() {
        pooled(|| {
            // hundreds of small regions — the batched-M2L shape
            for round in 0..300 {
                let sum = AtomicUsize::new(0);
                for_each_index(8, |i| {
                    sum.fetch_add(i + round, Ordering::Relaxed);
                });
                assert_eq!(sum.load(Ordering::Relaxed), 28 + 8 * round);
            }
        });
    }

    #[test]
    fn pool_resurfaces_worker_panics() {
        pooled(|| {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                for_each_index(64, |i| {
                    if i == 17 {
                        panic!("boom");
                    }
                });
            }));
            assert!(result.is_err(), "panic must propagate to the submitter");
            // the pool must still be usable afterwards
            let sum = AtomicUsize::new(0);
            for_each_index(32, |i| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 496);
        });
    }

    #[test]
    fn pool_handles_nested_regions_serially() {
        pooled(|| {
            let hits: Vec<AtomicUsize> = (0..256).map(|_| AtomicUsize::new(0)).collect();
            for_each_index(16, |outer| {
                for_each_index(16, |inner| {
                    hits[outer * 16 + inner].fetch_add(1, Ordering::Relaxed);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn empty_input_is_fine() {
        for_each_index(0, |_| panic!("must not run"));
        let v: Vec<u8> = map_indexed(0, |_| 0u8);
        assert!(v.is_empty());
        chunks_mut::<u8, _>(&mut [], 8, |_, _| panic!("must not run"));
    }
}
