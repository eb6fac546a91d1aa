//! Scoped-thread parallel map.
//!
//! The sanctioned dependency set has no rayon, so this module provides the
//! one parallel primitive the search stacks need: map a function over a
//! slice on several threads, preserving order. Built on
//! [`std::thread::scope`], so borrowed inputs work without `'static`
//! bounds. The output vector is sized before any worker starts, and each
//! result is written once, straight into its item's slot: no worker keeps
//! a list of its own, and nothing reorders results afterwards.
//!
//! The `threads` argument is the seam the serving stack's admission
//! control plugs into: a scheduled batch runs its shard scoring with
//! the worker budget the scheduler granted (what the
//! `hdoms_workers_busy` gauge and per-batch `workers` stats report —
//! see `docs/SCHEDULER.md` and `docs/OBSERVABILITY.md`).

use std::sync::Mutex;

/// Map `f` over `items` using up to `threads` OS threads, preserving input
/// order in the output. `f` receives each item with its index in `items`,
/// so a caller that needs positions reads them from there.
///
/// The schedule is dynamic: every worker — the calling thread is one of
/// them — takes the next unmapped item from one shared cursor until none
/// is left, so a few costly items (a row block dozens of queries share
/// beside one at the edge of a window that one query reaches) never
/// leave the other workers idle behind a static chunk. The cursor is one
/// locked iterator over `(index, item, slot)` triples of the output
/// vector: each triple leaves it once, so each item is mapped exactly
/// once and its result written once, into its own slot, whichever worker
/// maps it. The lock is held only to take the next triple, never while
/// `f` runs.
///
/// With `threads <= 1` (or a single item) the map runs inline on the
/// calling thread — callers can pass `1` to disable parallelism without a
/// separate code path.
///
/// # Panics
///
/// Propagates a panic from `f`, with its payload, whichever worker
/// mapped the item.
///
/// ```
/// let squares = hdoms_hdc::parallel::par_map(&[1, 2, 3, 4], 2, |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return (0..items.len()).map(|i| f(i, &items[i])).collect();
    }
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let cursor = Mutex::new(items.iter().zip(&mut slots).enumerate());
    let next = || cursor.lock().expect("`f` runs outside the lock").next();
    let work = || {
        while let Some((i, (item, slot))) = next() {
            *slot = Some(f(i, item));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        work();
        for helper in helpers {
            if let Err(panic) = helper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    // Every slot is filled, so this pass only drops the `Option` tags;
    // `Option<U>` is at least as large as `U`, so std collects it into
    // the slot vector's own allocation rather than a second one.
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands out every slot"))
        .collect()
}

/// A sensible default thread count: the machine's available parallelism,
/// capped at 16 (the search stacks are memory-bound well before that).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, 8, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_inline() {
        let caller = std::thread::current().id();
        let out = par_map(&[1, 2, 3], 1, |_, &x| {
            assert_eq!(std::thread::current().id(), caller, "mapped off the caller");
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn uneven_items_keep_their_order() {
        // A few slow items early in the slice: static chunks would hand
        // them all to one worker; the cursor spreads them, and the output
        // still comes back in input order.
        let items: Vec<u64> = (0..200).collect();
        let out = par_map(&items, 4, |_, &x| {
            if x % 23 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn every_item_is_mapped_exactly_once() {
        let items: Vec<usize> = (0..997).collect();
        let calls: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
        let total = AtomicUsize::new(0);
        for threads in [2, 3, 8] {
            let out = par_map(&items, threads, |_, &i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                total.fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, items);
        }
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 3));
        assert_eq!(total.load(Ordering::Relaxed), 3 * items.len());
    }

    #[test]
    #[should_panic(expected = "item 13")]
    fn a_panicking_item_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(&items, 4, |_, &i| {
            assert_ne!(i, 13, "item 13");
            i
        });
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(&[5], 64, |_, &x| x);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn borrows_environment() {
        let offset = 10;
        let out = par_map(&[1, 2], 2, |_, &x| x + offset);
        assert_eq!(out, vec![11, 12]);
    }

    #[test]
    fn each_item_comes_with_its_index() {
        let items: Vec<usize> = (100..613).collect();
        for threads in [1, 3] {
            let out = par_map(&items, threads, |i, &x| (i, x));
            assert!(out
                .iter()
                .enumerate()
                .all(|(at, &(i, x))| i == at && x == 100 + at));
        }
    }

    #[test]
    fn workers_map_at_once() {
        // Each item waits for the other: a cursor that stayed locked
        // while `f` ran would never let the second one start.
        let both = std::sync::Barrier::new(2);
        let out = par_map(&[0, 1], 2, |_, &x| {
            both.wait();
            x
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
