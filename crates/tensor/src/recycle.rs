//! Recycled [`Matrix`] storage: a thread-local free list of `Vec<f32>`
//! buffers that the allocating constructors draw from and that an owner of
//! many same-shaped, short-lived matrices — the autograd tape — gives back
//! to.
//!
//! A training step allocates some twenty megabyte-sized matrices, drops
//! them all, and the next step asks for the same sizes again. Left to the
//! allocator, every one of those buffers is returned to the kernel and
//! faulted back in, page by page, a step later (`docs/PERFORMANCE.md`, "The
//! training step keeps its memory"). Here the buffers wait on a list
//! instead: [`give_back`] puts one on it, `Matrix::zeros` and the other
//! constructors take the best fit by capacity — re-filled or emptied first,
//! so nothing a previous owner wrote is ever readable — and fall back to a
//! plain allocation when nothing fits. There is no `Drop` on `Matrix`: a
//! matrix nobody gives back is freed as before, which keeps set-up garbage
//! and one-off shapes off the list.
//!
//! Retention has no byte cap and needs none. [`retire`] marks the end of
//! an owner's lifetime, and a buffer that no owner asked for through two
//! whole lifetimes in a row is freed, so a thread holds at most what its
//! two most recent owners touched. The list is per
//! thread, so it needs no lock; a thread's list dies with the thread.

use crate::Matrix;
use std::cell::RefCell;

/// Smallest buffer the list keeps or looks for, in floats: 128 KiB, the
/// size from which glibc serves a request with `mmap` and hands it back
/// with `munmap`. Anything smaller comes out of the allocator's own bins
/// without a system call, so a step's biases, weights and scalars skip the
/// list entirely — as does every allocation of the tape-free inference
/// blocks.
const MIN_FLOATS: usize = 32 * 1024;

/// Whole lifetimes a buffer may sit on the list unused before [`retire`]
/// frees it. Two, not one: an epoch's partial last minibatch is one small
/// tape between full-sized ones, and freeing what it did not touch made the
/// next full step fault those buffers in again and fragmented the heap
/// (`train_reasoning` peak RSS 43 MiB and climbing; 33 MiB flat with the
/// one lifetime of grace).
const IDLE_LIFETIMES: u8 = 2;

struct Slot {
    buf: Vec<f32>,
    /// [`retire`]s since this buffer was given back; the first is its own
    /// owner's.
    idle: u8,
}

thread_local! {
    static FREE: RefCell<Vec<Slot>> = const { RefCell::new(Vec::new()) };
}

/// Removes the listed buffer with the least capacity that holds `len`
/// floats and returns it emptied — of several that size the one given back
/// last, so a surplus ages out instead of taking turns and a repeated
/// sequence of requests lands in the storage it had the time before.
fn take(len: usize) -> Option<Vec<f32>> {
    if len < MIN_FLOATS {
        return None;
    }
    // `try_with`: during thread teardown the list may already be gone.
    let found = FREE.try_with(|free| {
        let mut free = free.borrow_mut();
        // The list is in give-back order, so the first minimum from its end.
        let fits = free.iter().enumerate().rev().filter(|(_, slot)| slot.buf.capacity() >= len);
        let (best, _) = fits.min_by_key(|(_, slot)| slot.buf.capacity())?;
        let mut buf = free.remove(best).buf;
        buf.clear();
        Some(buf)
    });
    found.ok().flatten()
}

/// `len` copies of `value`, in recycled storage when a buffer fits.
pub(crate) fn filled(len: usize, value: f32) -> Vec<f32> {
    match take(len) {
        Some(mut buf) => {
            buf.resize(len, value);
            buf
        }
        None => vec![value; len],
    }
}

/// An empty vector that holds `capacity` floats without reallocating, in
/// recycled storage when a buffer fits.
pub(crate) fn empty(capacity: usize) -> Vec<f32> {
    take(capacity).unwrap_or_else(|| Vec::with_capacity(capacity))
}

/// Hands `matrix`'s storage to the calling thread's free list, where the
/// next [`Matrix`] constructor asking for that much or less finds it. The
/// contents are never read again. Storage below the list's floor, or given
/// back while the thread is shutting down, is simply freed; the thread that
/// gives a buffer back need not be the one that allocated it.
pub fn give_back(matrix: Matrix) {
    let buf = matrix.into_vec();
    if buf.capacity() >= MIN_FLOATS {
        // A failed `try_with` drops the closure, and the buffer with it.
        let _ = FREE.try_with(|free| free.borrow_mut().push(Slot { buf, idle: 0 }));
    }
}

/// Ends a lifetime on the calling thread: an owner gives back what it
/// holds, then retires. Every listed buffer that has now sat out
/// `IDLE_LIFETIMES` lifetimes in a row — nothing in them asked for it — is
/// freed.
pub fn retire() {
    let _ = FREE.try_with(|free| {
        free.borrow_mut().retain_mut(|slot| {
            slot.idle += 1;
            slot.idle <= IDLE_LIFETIMES
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacities on this thread's list, ascending.
    fn listed() -> Vec<usize> {
        let mut caps: Vec<usize> =
            FREE.with(|free| free.borrow().iter().map(|slot| slot.buf.capacity()).collect());
        caps.sort_unstable();
        caps
    }

    /// Runs `f` on a thread of its own, i.e. against an empty list.
    fn isolated(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread panicked");
    }

    const N: usize = MIN_FLOATS;

    #[test]
    fn best_fit_by_capacity_and_plain_allocation_when_nothing_fits() {
        isolated(|| {
            let owned = [3 * N, N, 2 * N].map(|len| Matrix::zeros(1, len));
            owned.into_iter().for_each(give_back);
            assert_eq!(listed(), [N, 2 * N, 3 * N]);
            // The smallest buffer that holds the request, not the first.
            let m = Matrix::zeros(1, N + 1);
            assert_eq!((m.len(), listed()), (N + 1, vec![N, 3 * N]));
            assert_eq!(m.into_vec().capacity(), 2 * N);
            // Nothing holds 4 N: a plain allocation, the list untouched.
            assert_eq!(Matrix::zeros(4, N).len(), 4 * N);
            assert_eq!(listed(), [N, 3 * N]);
        });
    }

    #[test]
    fn small_storage_never_touches_the_list() {
        isolated(|| {
            give_back(Matrix::zeros(1, N - 1));
            assert_eq!(listed(), [0usize; 0]);
            give_back(Matrix::zeros(1, 2 * N));
            let small = Matrix::zeros(1, N - 1);
            assert_eq!((small.into_vec().capacity(), listed()), (N - 1, vec![2 * N]));
        });
    }

    #[test]
    fn stale_contents_are_unreadable_through_every_constructor() {
        isolated(|| {
            let src = Matrix::from_fn(2, N / 2, |r, c| (r * 7 + c % 13) as f32);
            let rows: Vec<usize> = (0..4).map(|i| i % 2).collect();
            type Build<'a> = Box<dyn Fn() -> Matrix + 'a>;
            let constructors: [(&str, Build); 8] = [
                ("zeros", Box::new(|| Matrix::zeros(2, N / 2))),
                ("full", Box::new(|| Matrix::full(2, N / 2, 1.5))),
                ("clone", Box::new(|| src.clone())),
                ("map", Box::new(|| src.map(|x| x + 1.0))),
                ("zip_map", Box::new(|| src.zip_map(&src, |a, b| a * b))),
                ("concat_cols", Box::new(|| src.concat_cols(&src))),
                ("select_rows", Box::new(|| src.select_rows(&rows))),
                ("transpose", Box::new(|| src.transpose())),
            ];
            for (name, build) in &constructors {
                let fresh = build();
                give_back(Matrix::full(2, N, f32::NAN));
                let recycled = build();
                assert_eq!(listed(), [0usize; 0], "{name} did not draw from the list");
                assert!(recycled.is_finite(), "{name} leaked a previous owner's contents");
                assert_eq!(fresh, recycled, "{name}");
            }
        });
    }

    #[test]
    fn the_list_holds_what_the_last_two_owners_touched() {
        isolated(|| {
            // A big owner: three buffers, given back, retired.
            let big: Vec<Matrix> = (0..3).map(|_| Matrix::zeros(8, N)).collect();
            big.into_iter().for_each(give_back);
            retire();
            assert_eq!(listed(), [8 * N; 3]);
            // A small owner borrows one of them (capacity stays, length
            // shrinks) and adds a buffer of its own.
            let small_owner = || {
                let (borrowed, own) = (Matrix::zeros(5, N), Matrix::zeros(16, N));
                assert_eq!(borrowed.as_slice().len(), 5 * N);
                give_back(borrowed);
                give_back(own);
                retire();
            };
            // One odd owner between big ones costs the big ones nothing …
            small_owner();
            assert_eq!(listed(), [8 * N, 8 * N, 8 * N, 16 * N]);
            // … a second in a row is a new regime: only what it touched stays.
            small_owner();
            assert_eq!(listed(), [8 * N, 16 * N]);
            // Owners that touch nothing free the rest.
            retire();
            retire();
            assert_eq!(listed(), [0usize; 0]);
        });
    }

    #[test]
    fn a_buffer_given_back_mid_lifetime_counts_as_touched_in_it() {
        isolated(|| {
            give_back(Matrix::zeros(1, N));
            retire();
            retire();
            assert_eq!(listed(), [N], "sat out one lifetime");
            give_back(Matrix::zeros(1, N));
            retire();
            assert_eq!(listed(), [N], "the older buffer sat out its second and is gone");
        });
    }

    #[test]
    fn storage_crosses_threads() {
        let m = std::thread::spawn(|| Matrix::full(1, N, 3.0)).join().expect("allocating thread");
        isolated(move || {
            give_back(m);
            assert_eq!(listed(), [N]);
            assert_eq!(Matrix::zeros(1, N).as_slice().iter().sum::<f32>(), 0.0);
        });
    }

    #[test]
    fn give_back_during_thread_teardown_does_not_panic() {
        struct GivesBackOnDrop(Option<Matrix>);
        impl Drop for GivesBackOnDrop {
            fn drop(&mut self) {
                give_back(self.0.take().expect("dropped once"));
                retire();
                let _ = Matrix::zeros(1, N);
            }
        }
        thread_local! {
            static LATE: RefCell<Option<GivesBackOnDrop>> = const { RefCell::new(None) };
        }
        isolated(|| {
            // Thread-local destructors run in an unspecified order, so
            // register the late giver after the list here and before it
            // below.
            give_back(Matrix::zeros(1, N));
            LATE.with(|late| *late.borrow_mut() = Some(GivesBackOnDrop(Some(Matrix::zeros(1, N)))));
        });
        isolated(|| {
            LATE.with(|late| *late.borrow_mut() = Some(GivesBackOnDrop(Some(Matrix::zeros(1, N)))));
            give_back(Matrix::zeros(1, N));
        });
    }
}
