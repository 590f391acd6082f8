//! Deterministic parallel fan-out for the per-pair experiment sweeps.
//!
//! Every experiment driver is a loop of independent, read-only per-pair
//! (or per-scenario) computations over a shared [`nexit_topology::Universe`]
//! — exactly the shape a worker pool handles well. [`par_map`] runs the
//! items on scoped threads pulling indices from a shared atomic counter
//! and collects results **by item index**, so the output is
//! byte-identical to the serial loop regardless of thread count or
//! scheduling: parallelism changes wall-clock time, never results.

use std::sync::atomic::{AtomicUsize, Ordering};

// Re-exported next to the pair-level `par_map` so experiment code has
// one import site.
pub use nexit_core::parallel::resolve_threads;

/// Map `f` over `0..num_items` with `threads` workers, returning results
/// in item order. `threads <= 1` runs the plain serial loop; any other
/// count produces the identical output (each slot is computed by exactly
/// one worker and placed by index).
pub fn par_map<R, F>(threads: usize, num_items: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_with(threads, num_items, || (), |(), i| f(i))
}

/// [`par_map`] with **worker-local state**: every worker calls `init`
/// once and hands the state to each of its items. The state is the
/// mechanism by which the experiment sweeps thread one
/// [`nexit_core::TableArena`] (and similar recycled scratch) through all
/// the items a worker processes — buffer reuse that affects allocation
/// only, never values, so the by-index collection keeps the output
/// byte-identical to the serial loop for any thread count.
pub fn par_map_with<S, R, I, F>(threads: usize, num_items: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let threads = resolve_threads(threads).min(num_items);
    if threads <= 1 {
        let mut state = init();
        return (0..num_items).map(|i| f(&mut state, i)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (next, init, f) = (&next, &init, &f);
                s.spawn(move || {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= num_items {
                            break;
                        }
                        tx.send((i, f(&mut state, i)))
                            .expect("result collector dropped");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut out: Vec<Option<R>> = (0..num_items).map(|_| None).collect();
        while let Ok((i, r)) = rx.recv() {
            debug_assert!(out[i].is_none(), "item {i} computed twice");
            out[i] = Some(r);
        }
        // Surface a worker's own panic rather than the empty slot it
        // left behind.
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("worker skipped an item"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order() {
        let serial = par_map(1, 100, |i| i * i);
        let parallel = par_map(4, 100, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(par_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Each worker's state counts the items it processed; the counts
        // must partition the item set, and results stay in item order.
        let results = par_map_with(
            3,
            30,
            || 0usize,
            |seen, i| {
                *seen += 1;
                (i, *seen)
            },
        );
        let items: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
        assert_eq!(items, (0..30).collect::<Vec<_>>());
        // Every item was someone's k-th (k >= 1), and at least one
        // worker processed more than one item.
        assert!(results.iter().all(|&(_, k)| k >= 1));
        assert!(results.iter().any(|&(_, k)| k > 1));
    }

    #[test]
    #[should_panic(expected = "item 7 exploded")]
    fn worker_panics_surface_with_their_payload() {
        par_map(4, 16, |i| {
            assert!(i != 7, "item {i} exploded");
            i
        });
    }
}
