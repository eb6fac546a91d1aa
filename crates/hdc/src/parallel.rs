//! Scoped-thread parallel map.
//!
//! The sanctioned dependency set has no rayon, so this module provides the
//! one parallel primitive the search stacks need: map a function over a
//! slice on several threads, preserving order. Built on
//! [`std::thread::scope`], so borrowed inputs work without `'static`
//! bounds.
//!
//! The `threads` argument is the seam the serving stack's admission
//! control plugs into: a scheduled batch runs its shard scoring with
//! the worker budget the scheduler granted (what the
//! `hdoms_workers_busy` gauge and per-batch `workers` stats report —
//! see `docs/SCHEDULER.md` and `docs/OBSERVABILITY.md`).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` using up to `threads` OS threads, preserving input
/// order in the output.
///
/// The schedule is dynamic: every worker — the calling thread is one of
/// them — takes the next unmapped item from one shared cursor until none
/// is left, so a few costly items (a row block dozens of queries share
/// beside one at the edge of a window that one query reaches) never
/// leave the other workers idle behind a static chunk. Each item is mapped exactly once; which worker maps it
/// does not show in the output.
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
/// let squares = hdoms_hdc::parallel::par_map(&[1, 2, 3, 4], 2, |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // The cursor publishes nothing but its own count: each item's result
    // travels back through its worker's join, which orders it.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut mapped = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return mapped;
            };
            mapped.push((i, f(item)));
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        let mut place = |mapped: Vec<(usize, U)>| {
            for (i, out) in mapped {
                slots[i] = Some(out);
            }
        };
        place(work());
        for helper in helpers {
            place(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        slots
            .into_iter()
            .map(|out| out.expect("the cursor hands out every item"))
            .collect()
    })
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

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_inline() {
        let caller = std::thread::current().id();
        let out = par_map(&[1, 2, 3], 1, |&x| {
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
        let out = par_map(&items, 4, |&x| {
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
            let out = par_map(&items, threads, |&i| {
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
        let _ = par_map(&items, 4, |&i| {
            assert_ne!(i, 13, "item 13");
            i
        });
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(&[5], 64, |&x| x);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn borrows_environment() {
        let offset = 10;
        let out = par_map(&[1, 2], 2, |&x| x + offset);
        assert_eq!(out, vec![11, 12]);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
