//! Deterministic sharded execution: shard-local work, ordered merge.
//!
//! Both the small experiment families and the fleet-scale sweep engine
//! run the same way: the index space is cut into contiguous shards, a
//! pool of scoped worker threads claims shards off an atomic cursor, each
//! worker computes a *shard-local* result with its own reusable scratch
//! state, and the results are combined **in shard-index order** on the
//! calling thread. Because every shard's result is a pure function of its
//! index (workers share nothing but the cursor) and the merge order is
//! pinned, the combined result is bit-identical regardless of thread
//! count or scheduling — the determinism contract of DESIGN.md §12
//! extended over parallel execution.
//!
//! Two entry points:
//!
//! * [`run_sharded`] collects every shard result and returns them in
//!   index order (used by the experiment runner, which needs all raw
//!   outcomes);
//! * [`run_sharded_streaming`] delivers results to a merge callback in
//!   strict index order *as they complete*, holding only out-of-order
//!   results (bounded by the number of in-flight workers) — the
//!   bounded-memory path of the fleet engine. The callback may stop the
//!   run early, as the fleet engine does when a merge is refused.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// The worker-thread count actually used for `shards` work items:
/// `requested` when given, otherwise the host parallelism, clamped to
/// `[1, shards]`.
pub fn resolve_threads(requested: Option<usize>, shards: usize) -> usize {
    let threads = requested.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    threads.clamp(1, shards.max(1))
}

/// Runs `run_shard` for every shard index in `0..shards` across a scoped
/// worker pool and returns the results in shard-index order.
///
/// Each worker owns one `W` (scratch state built by `make_worker`) for
/// its whole lifetime, so per-shard setup cost is amortized. With
/// `threads` = `Some(1)` (or one available core, or fewer than two
/// shards) everything runs inline on the calling thread — the reference
/// serial order the parallel path must reproduce bit-for-bit.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_sharded<W, R, MW, RS>(
    shards: usize,
    threads: Option<usize>,
    make_worker: MW,
    run_shard: RS,
) -> Vec<R>
where
    W: Send,
    R: Send,
    MW: Fn() -> W + Sync,
    RS: Fn(&mut W, usize) -> R + Sync,
{
    let threads = resolve_threads(threads, shards);
    if threads <= 1 {
        let mut worker = make_worker();
        return (0..shards).map(|s| run_shard(&mut worker, s)).collect();
    }
    let next = AtomicUsize::new(0);
    let next = &next;
    let make_worker = &make_worker;
    let run_shard = &run_shard;
    let mut slots: Vec<Option<R>> = Vec::with_capacity(shards);
    slots.resize_with(shards, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut worker = make_worker();
                    let mut produced: Vec<(usize, R)> = Vec::new();
                    loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= shards {
                            break;
                        }
                        produced.push((s, run_shard(&mut worker, s)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            for (s, result) in handle.join().expect("shard worker panicked") {
                slots[s] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every shard index was claimed exactly once"))
        .collect()
}

/// Runs `run_shard` for every shard index in `0..shards` across a scoped
/// worker pool, delivering each result to `merge` in **strict ascending
/// index order**, and returns how many shards were merged.
///
/// Unlike [`run_sharded`] no result vector is materialized: completed
/// shards stream to the calling thread over a channel, results that
/// arrive ahead of their turn wait in a small reorder buffer (at most
/// roughly one entry per worker), and `merge(index, result)` is invoked
/// as each prefix extends. Returning [`ControlFlow::Break`] from `merge`
/// stops the run: workers quit after their in-flight shard and every
/// result past the break point is discarded. The merged prefix is always
/// `0..merged`, the breaking shard included.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn run_sharded_streaming<W, R, MW, RS, M>(
    shards: usize,
    threads: Option<usize>,
    make_worker: MW,
    run_shard: RS,
    mut merge: M,
) -> usize
where
    W: Send,
    R: Send,
    MW: Fn() -> W + Sync,
    RS: Fn(&mut W, usize) -> R + Sync,
    M: FnMut(usize, R) -> ControlFlow<()>,
{
    if shards == 0 {
        return 0;
    }
    let threads = resolve_threads(threads, shards);
    let mut merged = 0usize;
    if threads <= 1 {
        let mut worker = make_worker();
        for s in 0..shards {
            let result = run_shard(&mut worker, s);
            merged += 1;
            if merge(s, result).is_break() {
                break;
            }
        }
        return merged;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (next, stop) = (&next, &stop);
    let make_worker = &make_worker;
    let run_shard = &run_shard;
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut worker = make_worker();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= shards {
                        break;
                    }
                    let result = run_shard(&mut worker, s);
                    if tx.send((s, result)).is_err() {
                        break;
                    }
                }
            });
        }
        // Drop the original sender so the receive loop ends once every
        // worker has finished and released its clone.
        drop(tx);
        let mut pending: BTreeMap<usize, R> = BTreeMap::new();
        'recv: for (s, result) in rx {
            pending.insert(s, result);
            while let Some(result) = pending.remove(&merged) {
                let index = merged;
                merged += 1;
                if merge(index, result).is_break() {
                    // Stop the cursor; in-flight sends land in the (soon
                    // dropped) channel and are discarded.
                    stop.store(true, Ordering::Relaxed);
                    break 'recv;
                }
            }
        }
    });
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_resolution_clamps() {
        assert_eq!(resolve_threads(Some(8), 3), 3);
        assert_eq!(resolve_threads(Some(0), 3), 1);
        assert_eq!(resolve_threads(Some(2), 100), 2);
        assert_eq!(resolve_threads(Some(4), 0), 1);
        assert!(resolve_threads(None, 100) >= 1);
    }

    #[test]
    fn collected_results_are_in_index_order() {
        for threads in [Some(1), Some(4), None] {
            let out = run_sharded(
                23,
                threads,
                || 0u64,
                |w, s| {
                    *w += 1;
                    (s, *w)
                },
            );
            assert_eq!(out.len(), 23);
            for (i, (s, count)) in out.iter().enumerate() {
                assert_eq!(*s, i);
                assert!(*count >= 1, "worker scratch was threaded through");
            }
        }
    }

    #[test]
    fn zero_shards_is_fine() {
        let out: Vec<u32> = run_sharded(0, Some(4), || (), |_, s| s as u32);
        assert!(out.is_empty());
        let merged = run_sharded_streaming(
            0,
            Some(4),
            || (),
            |_, s| s,
            |_, _| ControlFlow::Continue(()),
        );
        assert_eq!(merged, 0);
    }

    #[test]
    fn streaming_merges_in_prefix_order() {
        for threads in [Some(1), Some(3), Some(7)] {
            let mut seen = Vec::new();
            let merged = run_sharded_streaming(
                40,
                threads,
                || (),
                |_, s| s * 2,
                |s, r| {
                    seen.push((s, r));
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(merged, 40);
            let expected: Vec<(usize, usize)> = (0..40).map(|s| (s, s * 2)).collect();
            assert_eq!(seen, expected, "threads = {threads:?}");
        }
    }

    #[test]
    fn streaming_early_stop_merges_exact_prefix() {
        for threads in [Some(1), Some(4)] {
            let mut seen = Vec::new();
            let merged = run_sharded_streaming(
                100,
                threads,
                || (),
                |_, s| s,
                |s, _| {
                    seen.push(s);
                    if s == 6 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(merged, 7);
            assert_eq!(seen, (0..=6).collect::<Vec<_>>(), "threads = {threads:?}");
        }
    }
}
