//! Minimal structured-parallelism helpers built on `std::thread::scope`.
//!
//! The kernels in this crate parallelize over disjoint row chunks of an
//! output buffer. [`parallel_chunks`] splits a mutable slice into per-thread
//! chunks aligned to a row width and runs a closure on each chunk inside a
//! scoped thread — unless the region's work is at or below [`PARALLEL_MACS`],
//! the crate's one grain rule, in which case the closure runs once on the
//! caller. [`parallel_map`] runs indexed tasks and returns their
//! results in task order, which is the primitive behind the deterministic
//! fixed-order reductions of `Matrix::gemm`'s `aᵀ · b` and `CsrMatrix::from_coo`
//! (the general triplet constructor; the circuit adjacency is laid out by its
//! own builder and only checked here, `CsrMatrix::from_csr`).
//!
//! A caller whose work is already independent per item — the tape-free
//! forward and the training step over node blocks — opens **one** parallel
//! region instead of one per kernel: [`parallel_blocks`] runs contiguous
//! runs of items on the kernel workers, and every kernel called inside a
//! worker runs on that thread alone. How many workers a region opens is
//! [`available_threads`], or `n` inside a [`with_threads`] scope: the scope
//! is thread-local, so it never leaks to another thread and
//! [`available_threads`] keeps reporting the configured count.
//!
//! # Determinism contract
//!
//! Every helper here guarantees that the *values* it produces are a pure
//! function of its inputs, never of the thread count or the scheduler:
//!
//! * [`parallel_chunks`] hands each closure a disjoint region and a start
//!   row; closures compute each row independently, so chunk boundaries only
//!   affect which thread writes a row, not what is written.
//! * [`parallel_map`] returns results **in task-index order** regardless of
//!   which worker ran which task, so callers that reduce the results in
//!   order get bitwise-identical floats for every thread count.
//! * [`parallel_blocks`] runs every block exactly once; the thread count
//!   decides only which worker runs it, so a block that carries its own
//!   disjoint output is computed identically at any parallelism.
//!
//! # Composition with the kernel backends
//!
//! Thread-level partitioning composes orthogonally with the lane-level
//! backends in `crate::backend`: these helpers decide *which rows* a
//! thread computes, while the backend the CPU resolved to decides *how*
//! each row's arithmetic is vectorized. Training-path kernels stay
//! bitwise identical across every (thread count × backend) combination
//! because SIMD lanes replay the identical per-element multiply/add
//! sequence; only the inference-only `*_fast` kernels reassociate
//! reductions, and they do so in a fixed lane tree that is still
//! thread-count invariant.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The thread count of this thread's innermost [`with_threads`] scope;
    /// 0 outside any.
    static SCOPED: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads kernels will use.
///
/// Defaults to `std::thread::available_parallelism()` capped at 16; can be
/// overridden via [`set_threads`]. Process-wide: a caller that wants its
/// own count scopes it with [`with_threads`] instead.
///
/// # Examples
///
/// ```
/// assert!(hoga_tensor::available_threads() >= 1);
/// ```
pub fn available_threads() -> usize {
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get().min(16)).unwrap_or(1))
}

/// Overrides the kernel thread count; `0` restores auto-detection.
///
/// Because every kernel's output is thread-count invariant (see the module
/// docs), changing this affects wall-clock time only, never results.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Threads the next kernel called on this thread may use: `n` inside a
/// [`with_threads`] scope (1 inside a kernel worker), [`available_threads`]
/// anywhere else. Every kernel picks its thread count here.
pub(crate) fn kernel_threads() -> usize {
    match SCOPED.get() {
        0 => available_threads(),
        n => n,
    }
}

/// Runs `f` with every kernel and parallel region it calls on this thread
/// using `n` threads (at least one), whatever [`available_threads`] says;
/// kernel workers run at `n = 1`. Thread-local, nests, and the previous
/// count comes back on every way out, an unwind included.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.set(self.0);
        }
    }
    let _restore = Restore(SCOPED.replace(n.max(1)));
    f()
}

/// Runs `f` on every block, splitting `blocks` into one contiguous run per
/// kernel worker; each worker is a one-thread [`with_threads`] scope, so the
/// whole call is one parallel region however many kernels `f` goes through.
/// A single block, or a caller that is already a worker, runs inline with
/// no spawn. A worker's panic resurfaces on the caller with its payload.
///
/// Which thread runs a block depends on the thread count; what `f` computes
/// for it must not (blocks carry their own disjoint outputs).
pub fn parallel_blocks<T: Send>(blocks: Vec<T>, f: impl Fn(T) + Sync) {
    let (count, workers) = (blocks.len(), kernel_threads().min(blocks.len()));
    if workers <= 1 {
        return with_threads(1, || blocks.into_iter().for_each(f));
    }
    let mut blocks = blocks.into_iter();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let take = count * (w + 1) / workers - count * w / workers;
            let run: Vec<T> = blocks.by_ref().take(take).collect();
            let f = &f;
            handles.push(s.spawn(move || with_threads(1, || run.into_iter().for_each(f))));
        }
        join_all(handles);
    });
}

/// Work, in multiply-adds, at or below which a kernel region costs less than
/// the spawn that would split it: the one grain rule of the crate, applied by
/// [`parallel_chunks`]. It only ever decides which thread writes a row, so
/// retuning it cannot move a result (the `aᵀ · b` reduction tree
/// has a constant of its own).
pub(crate) const PARALLEL_MACS: usize = 1 << 18;

/// Splits `out` into contiguous chunks aligned to `row_width` and invokes
/// `f(start_row, chunk)` on each chunk, in parallel — or, for a region of
/// `macs` multiply-adds at or below [`PARALLEL_MACS`], once on the caller as
/// `f(0, out)`. The split is a function of the shape and the thread count
/// alone; it decides which thread writes a row, never what is written.
///
/// The closure receives the starting *row* index of its chunk (not the
/// element index) so it can read corresponding rows of the inputs.
///
/// # Panics
///
/// Panics if `row_width` is zero or does not divide `out.len()`.
pub(crate) fn parallel_chunks<F>(out: &mut [f32], row_width: usize, macs: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(out.len() % row_width, 0, "buffer not aligned to row width");
    let total_rows = out.len() / row_width;
    let threads = if macs > PARALLEL_MACS { kernel_threads().min(total_rows) } else { 1 };
    if threads <= 1 {
        return f(0, out);
    }
    // At most `threads` chunks, so each gets a worker of its own.
    let rows_per = total_rows.div_ceil(threads);
    let chunks = out.chunks_mut(rows_per * row_width).enumerate();
    let chunks = chunks.map(|(i, chunk)| (i * rows_per, chunk)).collect();
    parallel_blocks(chunks, |(start_row, chunk)| f(start_row, chunk));
}

/// Joins every worker, re-raising the first panic payload so the failure
/// surfaces on the caller's thread with its original message.
fn join_all(handles: Vec<ScopedJoinHandle<'_, ()>>) {
    for handle in handles {
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Runs `count` independent tasks and returns their results **in task-index
/// order**, regardless of which worker thread executed which task.
///
/// Each task is a block of [`parallel_blocks`] that fills its own slot, so
/// it runs exactly once and the result order is a pure function of `count`.
/// Callers that reduce the returned values in index order therefore get
/// bitwise-identical results for every thread count; this is the primitive
/// behind the deterministic k-chunked reduction of `Matrix::gemm`'s `aᵀ · b` and
/// the sharded `CsrMatrix::from_coo` triplet merge.
pub(crate) fn parallel_map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    parallel_blocks(slots.iter_mut().enumerate().collect(), |(i, slot)| *slot = Some(f(i)));
    // analyze: allow(panic-reachability) — parallel_blocks runs every block, so every slot is filled and the expect is unreachable
    slots.into_iter().map(|s| s.expect("every task fills its slot")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Mutex, PoisonError};

    /// Serializes the tests that override the process-wide thread count.
    static THREADS: Mutex<()> = Mutex::new(());

    #[test]
    fn blocks_run_once_each_with_kernels_inline_and_the_caller_untouched() {
        let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        for threads in [1, 2, 3, 8] {
            set_threads(threads);
            let mut out = vec![0usize; 11];
            parallel_blocks(out.iter_mut().enumerate().collect(), |(i, slot)| {
                assert_eq!(kernel_threads(), 1, "a kernel inside a worker runs on that worker");
                // So does a nested region: no spawn from inside a worker.
                parallel_blocks(vec![(); 3], |()| assert_eq!(kernel_threads(), 1));
                assert_eq!(available_threads(), threads, "the configured count is still reported");
                *slot += i + 1;
            });
            assert_eq!(out, (1..=11).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(kernel_threads(), threads, "the caller's thread count was touched");
        }
        set_threads(0);
    }

    #[test]
    fn worker_panic_resurfaces_with_its_payload_and_the_caller_stays_untouched() {
        let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(4);
        // Eight blocks run on spawned workers, one block inline on the caller.
        for blocks in [8usize, 1] {
            let failing = blocks - 1;
            let payload = catch_unwind(AssertUnwindSafe(|| {
                parallel_blocks((0..blocks).collect(), |i| {
                    assert!(i != failing, "block {i} failed");
                })
            }))
            .expect_err("the failing block must unwind into the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("block {failing} failed").as_str()));
            assert_eq!(kernel_threads(), 4, "{blocks} blocks: the unwind left the caller inline");
        }
        set_threads(0);
    }

    #[test]
    fn inline_scope_nests_and_restores() {
        let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(2);
        with_threads(1, || {
            with_threads(1, || assert_eq!(kernel_threads(), 1));
            assert_eq!(kernel_threads(), 1, "leaving the inner scope ended the outer one");
        });
        assert_eq!(SCOPED.get(), 0);
        // An n-valued scope sizes regions on this thread only, and an
        // unwind out of a nested one restores each level on the way out.
        with_threads(3, || {
            assert_eq!((kernel_threads(), available_threads()), (3, 2));
            let bystander = std::thread::spawn(kernel_threads).join();
            assert_eq!(bystander.ok(), Some(2), "the scope leaked to another thread");
            let unwound = catch_unwind(|| with_threads(5, || panic!("inside a 5-thread scope")));
            assert!(unwound.is_err());
            assert_eq!(kernel_threads(), 3, "the unwind left the inner scope's count behind");
        });
        assert_eq!((SCOPED.get(), kernel_threads()), (0, 2));
        set_threads(0);
    }

    /// Every `(start_row, rows, ran on the caller)` call `parallel_chunks`
    /// makes over a `rows × 3` buffer declared as `macs` multiply-adds, in
    /// row order; each call stamps its rows, so a row written twice or never
    /// fails here.
    fn chunk_calls(rows: usize, macs: usize) -> Vec<(usize, usize, bool)> {
        let caller = std::thread::current().id();
        let calls = Mutex::new(Vec::new());
        let mut buf = vec![0.0f32; rows * 3];
        parallel_chunks(&mut buf, 3, macs, |start_row, chunk| {
            for (i, row) in chunk.chunks_mut(3).enumerate() {
                row.iter_mut().for_each(|v| *v += (start_row + i) as f32 + 1.0);
            }
            let here = (start_row, chunk.len() / 3, std::thread::current().id() == caller);
            calls.lock().unwrap_or_else(PoisonError::into_inner).push(here);
        });
        for (r, row) in buf.chunks(3).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32 + 1.0), "row {r} wrong: {row:?}");
        }
        let mut calls = calls.into_inner().unwrap_or_else(PoisonError::into_inner);
        calls.sort_unstable();
        calls
    }

    #[test]
    fn grain_rule_keeps_small_regions_on_the_caller_and_splits_large_ones_per_worker() {
        let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
        for threads in [1, 2, 3, 8] {
            set_threads(threads);
            // At or below the bound: one call, the whole buffer, this thread.
            for macs in [0, 1, PARALLEL_MACS] {
                assert_eq!(chunk_calls(97, macs), [(0, 97, true)], "{threads} threads, {macs}");
            }
            // Above it: one chunk per worker, disjoint, in order, covering.
            let calls = chunk_calls(97, PARALLEL_MACS + 1);
            assert_eq!(calls.len(), threads, "{threads} threads: {calls:?}");
            let mut next = 0;
            for &(start, rows, on_caller) in &calls {
                assert_eq!(start, next, "{threads} threads: {calls:?}");
                assert_eq!(on_caller, threads == 1, "{threads} threads: {calls:?}");
                next += rows;
            }
            assert_eq!(next, 97, "{threads} threads: {calls:?}");
            // Inside a one-thread scope the work figure is moot: one call.
            let inline = with_threads(1, || chunk_calls(97, PARALLEL_MACS + 1));
            assert_eq!(inline, [(0, 97, true)], "{threads} threads, one-thread scope");
        }
        set_threads(0);
    }

    #[test]
    fn chunks_cover_all_rows_exactly_once() {
        // At the machine's own thread count; `chunk_calls` checks the stamps.
        let rows: usize = chunk_calls(97, usize::MAX).iter().map(|call| call.1).sum();
        assert_eq!(rows, 97);
    }

    #[test]
    fn empty_buffer_is_one_inline_call_however_large_the_work() {
        assert_eq!(chunk_calls(0, usize::MAX), [(0, 0, true)]);
    }

    #[test]
    fn single_row_buffer_works() {
        assert_eq!(chunk_calls(1, usize::MAX), [(0, 1, true)]);
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_buffer_panics() {
        let mut buf = vec![0.0f32; 7];
        parallel_chunks(&mut buf, 3, 0, |_, _| {});
    }

    #[test]
    fn parallel_map_returns_results_in_task_order() {
        let out = parallel_map(37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_zero_and_one_task() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 10), vec![10]);
    }
}
