//! Recycled [`Matrix`] storage. Inside [`Pool::run`] the calling thread
//! holds one of the pool's free lists: the allocating constructors take the
//! listed buffer that fits best by capacity — emptied or re-filled first,
//! so nothing a previous owner wrote is readable — and [`give_back`] puts a
//! buffer on it. Outside a run there is no list: [`give_back`] frees,
//! [`retire`] does nothing, and the constructors allocate.
//!
//! Only owners of many same-shaped, short-lived matrices give back — the
//! autograd tape, a block of the tape-free forward — so a training step is
//! built in the buffers the step before it used instead of faulting them in
//! again (`docs/PERFORMANCE.md`, "The training step keeps its memory");
//! there is no `Drop` on `Matrix`. [`retire`] ends an owner's lifetime, and
//! a buffer no owner asked for through two lifetimes in a row is freed, so
//! a list needs no byte cap.

use crate::Matrix;
use std::cell::RefCell;
use std::sync::{Mutex, PoisonError};

/// Smallest buffer a list keeps, in floats: one page, which is also the
/// least storage it hands out. A block's small results end on another
/// thread, and a chunk of 1 KiB or less freed there waits in that thread's
/// cache instead of going back to its arena, which keeps the arena from
/// trimming (5–10 MiB left resident after a `train_reasoning` call, against
/// about 1 with nothing that small).
const FLOOR: usize = 1024;

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

/// One of a [`Pool`]'s free lists, its buffers in give-back order. It
/// serves requests below its floor too, with storage of exactly its floor,
/// which only such requests reuse (so a bias never borrows a block's
/// buffer).
struct List {
    slots: Vec<Slot>,
}

impl List {
    /// Room for a block's buffers, and so never a chunk small enough for
    /// the allocator's per-thread cache (see [`FLOOR`]).
    fn new() -> Self {
        List { slots: Vec::with_capacity(64) }
    }

    /// Removes the listed buffer with the least capacity that holds `len`
    /// floats and returns it emptied — of several that size the one given
    /// back last, so a surplus ages out instead of taking turns and a
    /// repeated sequence of requests lands in the storage it had the time
    /// before. `None` leaves the request to the allocator.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let small = len < FLOOR;
        let exact = len.max(FLOOR);
        // The list is in give-back order, so the first minimum from its end;
        // nothing beats a buffer of exactly the size asked for.
        let mut best: Option<(usize, usize)> = None;
        for (i, slot) in self.slots.iter().enumerate().rev() {
            let capacity = slot.buf.capacity();
            let fits = if small { capacity == exact } else { capacity >= len };
            if fits && best.is_none_or(|(_, least)| capacity < least) {
                best = Some((i, capacity));
                if capacity == exact {
                    break;
                }
            }
        }
        match best {
            Some((i, _)) => {
                let mut buf = self.slots.remove(i).buf;
                buf.clear();
                Some(buf)
            }
            None => small.then(|| Vec::with_capacity(exact)),
        }
    }
}

thread_local! {
    /// The list [`Pool::run`] lent the calling thread, if it is in a run.
    static LENT: RefCell<Option<List>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's lent list; `None` outside a run and
/// while the thread is shutting down.
fn with_lent<R>(f: impl FnOnce(&mut List) -> R) -> Option<R> {
    LENT.try_with(|lent| lent.borrow_mut().as_mut().map(f)).ok().flatten()
}

/// `len` copies of `value`, in recycled storage when a buffer fits.
pub(crate) fn filled(len: usize, value: f32) -> Vec<f32> {
    match with_lent(|list| list.take(len)).flatten() {
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
    with_lent(|list| list.take(capacity)).flatten().unwrap_or_else(|| Vec::with_capacity(capacity))
}

/// Hands `matrix`'s storage to the calling thread's lent list, where the
/// next [`Matrix`] constructor asking for that much or less finds it. The
/// contents are never read again. Outside a [`Pool::run`], or below the
/// list's floor, the storage is simply freed; the thread that gives a
/// buffer back need not be the one that allocated it.
pub fn give_back(matrix: Matrix) {
    let buf = matrix.into_vec();
    if buf.capacity() >= FLOOR {
        // Without a list the closure is dropped, and the buffer with it.
        with_lent(|list| list.slots.push(Slot { buf, idle: 0 }));
    }
}

/// Ends a lifetime on the calling thread's lent list: an owner gives back
/// what it holds, then retires. Every listed buffer that has now sat out
/// `IDLE_LIFETIMES` lifetimes in a row — nothing in them asked for it — is
/// freed. Outside a [`Pool::run`] it does nothing.
pub fn retire() {
    with_lent(|list| {
        list.slots.retain_mut(|slot| {
            slot.idle += 1;
            slot.idle <= IDLE_LIFETIMES
        });
    });
}

/// Free lists that outlive the calls they are lent to: `fit`'s pool lives as
/// long as the training run, the tape-free forward's as long as its model,
/// so a step or a block on a worker spawned for one call is built in what
/// an earlier one gave back. A list is lent to one thread at a time, so a
/// pool holds as many lists as calls ever overlapped, freed with the pool.
pub struct Pool {
    idle: Mutex<Vec<List>>,
}

impl Default for Pool {
    /// An empty pool, its bookkeeping allocated on the thread that will
    /// free it (see `FLOOR` on small chunks freed elsewhere).
    fn default() -> Self {
        Pool { idle: Mutex::new(Vec::with_capacity(64)) }
    }
}

impl Pool {
    /// Runs `f` with one of the pool's lists lent to the calling thread (a
    /// new one when every list is lent out). Whatever the thread held before
    /// — nothing, or another run's list — comes back on every way out, an
    /// unwind included.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        let lent = self.idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let _lend = Lend { pool: self, before: swap(Some(lent.unwrap_or_else(List::new))) };
        f()
    }
}

/// Puts `list` in place of the calling thread's lent list and returns that
/// one; `None` (and `list` freed) while the thread is shutting down.
fn swap(list: Option<List>) -> Option<Option<List>> {
    LENT.try_with(|lent| std::mem::replace(&mut *lent.borrow_mut(), list)).ok()
}

/// A list lent by [`Pool::run`]: dropping it gives the thread what it held
/// before and the lent list back to the pool.
struct Lend<'a> {
    pool: &'a Pool,
    before: Option<Option<List>>,
}

impl Drop for Lend<'_> {
    fn drop(&mut self) {
        if let Some(Some(lent)) = self.before.take().and_then(swap) {
            self.pool.idle.lock().unwrap_or_else(PoisonError::into_inner).push(lent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacities on this thread's lent list, ascending; empty outside a
    /// run.
    fn listed() -> Vec<usize> {
        let mut caps: Vec<usize> =
            with_lent(|list| list.slots.iter().map(|slot| slot.buf.capacity()).collect())
                .unwrap_or_default();
        caps.sort_unstable();
        caps
    }

    /// Runs `f` on a thread of its own, in a fresh pool's run, i.e. against
    /// an empty list.
    fn isolated(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(|| Pool::default().run(f)).join().expect("test thread panicked");
    }

    const N: usize = 32 * FLOOR;

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
    fn outside_a_run_nothing_is_listed_and_storage_is_plain() {
        std::thread::spawn(|| {
            give_back(Matrix::zeros(1, 2 * N));
            retire();
            assert_eq!(listed(), [0usize; 0]);
            // Fresh storage of exactly the size asked for, big or small.
            assert_eq!(Matrix::zeros(1, N).into_vec().capacity(), N);
            assert_eq!(Matrix::zeros(1, 3).into_vec().capacity(), 3);
            // What was given back went to the allocator, not to a list.
            Pool::default().run(|| assert_eq!(listed(), [0usize; 0]));
        })
        .join()
        .expect("test thread panicked");
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
    fn a_pool_list_keeps_block_storage_across_threads() {
        let pool = Pool::default();
        let block = FLOOR * 18;
        // A block's storage, given back on one short-lived thread …
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                pool.run(|| {
                    give_back(Matrix::zeros(1, block));
                    // A small matrix gets a page of its own, not the block's
                    // buffer, and its page stays for the next small one.
                    let bias = Matrix::zeros(1, 3);
                    assert_eq!((bias.len(), listed()), (3, vec![block]));
                    give_back(bias);
                    assert_eq!(listed(), [FLOOR, block]);
                    retire();
                });
                assert_eq!(listed(), [0usize; 0], "the list went back with the run");
            });
            worker.join().expect("worker thread panicked");
        });
        // … is what the next block, on another thread, is built in.
        std::thread::spawn(move || {
            pool.run(|| {
                let m = Matrix::zeros(1, block - 1);
                assert_eq!(m.into_vec().capacity(), block);
                assert_eq!(Matrix::full(2, 5, 1.0).into_vec().capacity(), FLOOR);
                assert_eq!(listed(), [0usize; 0]);
            });
        })
        .join()
        .expect("test thread panicked");
    }

    #[test]
    fn lent_lists_come_back_on_an_unwind_and_overlapping_calls_get_lists_of_their_own() {
        let pool = Pool::default();
        std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|| {
                    give_back(Matrix::zeros(1, FLOOR));
                    pool.run(|| assert_eq!(listed(), [0usize; 0], "a second list, not the first"));
                    panic!("block failed");
                })
            }));
            assert!(unwound.is_err());
            assert!(with_lent(|_| ()).is_none(), "the unwind took the lent list back");
            let lists = pool.idle.lock().unwrap_or_else(PoisonError::into_inner).len();
            assert_eq!(lists, 2, "both lent lists went back to the pool");
            pool.run(|| assert_eq!(listed(), [FLOOR], "the last list back is lent first"));
        })
        .join()
        .expect("test thread panicked");
    }

    /// Capacities on each list `pool` holds, each ascending.
    fn pooled(pool: &Pool) -> Vec<Vec<usize>> {
        let lists = pool.idle.lock().unwrap_or_else(PoisonError::into_inner);
        let caps = lists.iter().map(|list| {
            let mut caps: Vec<usize> = list.slots.iter().map(|slot| slot.buf.capacity()).collect();
            caps.sort_unstable();
            caps
        });
        caps.collect()
    }

    #[test]
    fn a_pool_lent_to_many_inference_calls_holds_what_one_call_touched() {
        // One tape-free forward at the serving shape (600 nodes, K = 5,
        // d = 64, seven features): twelve 48-node blocks and a ragged
        // 24-node one. A block's holder keeps every value the forward makes
        // — its hop rows, the input projection and its bias, U, V, Q, K,
        // the attention logits and scores, S·V, the gate, LayerNorm (whose
        // cache goes back at once), ReLU, then the readout — and gives them
        // all back when the block ends.
        let block = |nodes: usize| {
            let rows = nodes * 6;
            let layer = [(rows, 7), (rows, 64), (rows, 64), (rows, 64), (rows, 64), (rows, 64)]
                .into_iter()
                .chain([(rows, 64), (rows, 6), (rows, 6), (rows, 64), (rows, 64), (rows, 64)]);
            let mut live: Vec<Matrix> = layer.map(|(r, c)| Matrix::zeros(r, c)).collect();
            give_back(Matrix::zeros(rows, 64));
            live.push(Matrix::zeros(rows, 64));
            let readout = [(nodes, 64), (nodes * 5, 64), (nodes * 5, 64), (nodes * 5, 128)]
                .into_iter()
                .chain([(nodes * 5, 1), (nodes, 5), (nodes, 5), (nodes, 64), (nodes, 64)]);
            live.extend(readout.map(|(r, c)| Matrix::zeros(r, c)));
            live.into_iter().for_each(give_back);
            retire();
        };
        let pool = Pool::default();
        let call = || [48; 12].into_iter().chain([24]).for_each(|nodes| pool.run(|| block(nodes)));
        call();
        call();
        let after_two = pooled(&pool);
        assert_eq!(after_two.len(), 1, "one list: no call overlapped another");
        assert!(after_two[0].len() >= 12, "{after_two:?}");
        for _ in 2..50 {
            call();
        }
        assert_eq!(pooled(&pool), after_two, "the pool grew between call 2 and call 50");
    }

    #[test]
    fn give_back_during_thread_teardown_does_not_panic() {
        struct GivesBackOnDrop(Option<Matrix>);
        impl Drop for GivesBackOnDrop {
            fn drop(&mut self) {
                let m = self.0.take().expect("dropped once");
                Pool::default().run(|| {
                    give_back(m);
                    retire();
                    let _ = Matrix::zeros(1, N);
                });
                give_back(Matrix::zeros(1, N));
            }
        }
        thread_local! {
            static LATE: RefCell<Option<GivesBackOnDrop>> = const { RefCell::new(None) };
        }
        let late = || Some(GivesBackOnDrop(Some(Matrix::zeros(1, N))));
        // Thread-local destructors run in an unspecified order, so register
        // the late giver after the lent list here and before it below.
        isolated(move || LATE.with(|slot| *slot.borrow_mut() = late()));
        std::thread::spawn(move || {
            LATE.with(|slot| *slot.borrow_mut() = late());
            Pool::default().run(|| give_back(Matrix::zeros(1, N)));
        })
        .join()
        .expect("test thread panicked");
    }
}
