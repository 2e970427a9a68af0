//! Minimal structured-parallelism helpers built on `std::thread::scope`.
//!
//! The kernels in this crate parallelize over disjoint row chunks of an
//! output buffer. [`parallel_chunks`] splits a mutable slice into per-thread
//! chunks aligned to a row width and runs a closure on each chunk inside a
//! scoped thread. [`parallel_map`] runs indexed tasks and returns their
//! results in task order, which is the primitive behind the deterministic
//! fixed-order reductions of `Matrix::matmul_tn` and `CsrMatrix::from_coo`.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Number of worker threads kernels will use.
///
/// Defaults to `std::thread::available_parallelism()` capped at 16; can be
/// overridden (e.g. by the data-parallel trainer, which wants its *own*
/// thread-level parallelism) via [`set_threads`].
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

/// Splits `out` into contiguous chunks aligned to `row_width` and invokes
/// `f(start_row, chunk)` on each chunk, in parallel.
///
/// The closure receives the starting *row* index of its chunk (not the
/// element index) so it can read corresponding rows of the inputs.
///
/// # Panics
///
/// Panics if `row_width` is zero or does not divide `out.len()`.
pub(crate) fn parallel_chunks<F>(out: &mut [f32], row_width: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(row_width > 0, "row_width must be positive");
    assert_eq!(out.len() % row_width, 0, "buffer not aligned to row width");
    let total_rows = out.len() / row_width;
    let threads = available_threads().min(total_rows.max(1));
    if threads <= 1 || total_rows == 0 {
        f(0, out);
        return;
    }
    let rows_per = total_rows.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut row = 0;
        let mut handles = Vec::new();
        while !rest.is_empty() {
            let take = (rows_per * row_width).min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let start_row = row;
            let fref = &f;
            let handle = s.spawn(move || fref(start_row, chunk));
            handles.push(handle);
            row += take / row_width;
            rest = tail;
        }
        join_all(handles);
    });
}

/// Joins every chunk worker, re-raising the first panic payload so the
/// failure surfaces on the caller's thread with its original message.
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
/// Tasks are assigned to workers round-robin (worker `w` runs tasks
/// `w, w + W, w + 2W, ...`), so each task runs exactly once and the result
/// order is a pure function of `count`. Callers that reduce the returned
/// values in index order therefore get bitwise-identical results for every
/// thread count; this is the primitive behind the deterministic k-chunked
/// reduction of `Matrix::matmul_tn` and the sharded `CsrMatrix::from_coo`
/// build.
pub(crate) fn parallel_map<T, F>(count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = available_threads().min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let mut per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let fref = &f;
            let handle = s.spawn(move || {
                (w..count).step_by(workers).map(|i| (i, fref(i))).collect::<Vec<_>>()
            });
            handles.push(handle);
        }
        let mut results = Vec::with_capacity(workers);
        for handle in handles {
            match handle.join() {
                Ok(v) => results.push(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    // Reassemble in task-index order; the round-robin assignment covers
    // every index exactly once.
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for bucket in &mut per_worker {
        for (i, v) in bucket.drain(..) {
            slots[i] = Some(v);
        }
    }
    // analyze: allow(panic-reachability) — round-robin fills every slot, so the expect is unreachable
    slots.into_iter().map(|s| s.expect("round-robin covers every task index")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_rows_exactly_once() {
        let mut buf = vec![0.0f32; 97 * 3];
        parallel_chunks(&mut buf, 3, |start_row, chunk| {
            for (i, row) in chunk.chunks_mut(3).enumerate() {
                for v in row.iter_mut() {
                    *v += (start_row + i) as f32;
                }
            }
        });
        for (r, row) in buf.chunks(3).enumerate() {
            assert!(row.iter().all(|&v| v == r as f32), "row {r} wrong: {row:?}");
        }
    }

    #[test]
    fn single_row_buffer_works() {
        let mut buf = vec![0.0f32; 4];
        parallel_chunks(&mut buf, 4, |start, chunk| {
            assert_eq!(start, 0);
            chunk.fill(1.0);
        });
        assert!(buf.iter().all(|&v| v == 1.0));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_buffer_panics() {
        let mut buf = vec![0.0f32; 7];
        parallel_chunks(&mut buf, 3, |_, _| {});
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
