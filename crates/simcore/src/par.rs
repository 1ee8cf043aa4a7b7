//! Deterministic data parallelism over `std::thread::scope`.
//!
//! The simulator's reproducibility contract (DESIGN.md §6: one seed ⇒
//! a bitwise-identical dataset) must survive multi-core execution, so
//! this module offers exactly one parallel shape: **ordered map** —
//! results come back in input order no matter which worker finished
//! first or in what interleaving. Combined with per-item independent
//! RNG streams (`SeedTree::rng_idx`) this makes `workers = N` produce
//! the same bytes as `workers = 1`.
//!
//! No work-stealing library, no channels: workers claim indices from a
//! shared atomic counter and stash `(index, result)` pairs locally;
//! the caller scatters them back into input order after the scope
//! joins. Spawning threads per call costs ~10 µs each, which is noise
//! against the multi-millisecond stages (the analytics folds and
//! group-bys) this is used for.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of workers to use when the caller asks for "all cores".
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolve a `--threads`-style knob: `0` means "all cores".
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        available_workers()
    } else {
        requested
    }
}

/// Map `f` over `items` on `workers` threads, returning results in
/// input order. `f` receives the item's index and a reference to it.
///
/// Ordering contract: `ordered_par_map(w, items, f)` equals
/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` for every
/// `w`, provided `f` is a pure function of `(index, item)`. Worker
/// scheduling only changes *when* each `f` runs, never what it returns
/// or where the result lands.
pub fn ordered_par_map<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = resolve_workers(workers).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("ordered_par_map worker panicked")).collect()
    });
    // scatter back into input order
    let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for part in parts {
        for (i, v) in part {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(v);
        }
    }
    slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
}

/// Split `items` into `workers` contiguous chunks, map each chunk on
/// its own thread, and return the per-chunk results **in chunk order**.
///
/// This is the partial-map half of a map-reduce: fold each chunk into
/// a partial accumulator in parallel, then reduce the returned vector
/// left-to-right. Because chunks are contiguous and ordered, a reduce
/// that concatenates (or merges commutatively) reproduces the serial
/// fold exactly.
pub fn ordered_par_chunks<I, T, F>(workers: usize, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> T + Sync,
{
    let workers = resolve_workers(workers).min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return vec![f(items)];
    }
    let chunk = items.len().div_ceil(workers);
    let chunks: Vec<&[I]> = items.chunks(chunk).collect();
    ordered_par_map(workers, &chunks, |_, c| f(c))
}

/// Map-reduce: parallel partial folds over contiguous chunks, then a
/// left-to-right reduce in chunk order. Deterministic whenever
/// `reduce` is associative over adjacent chunks (it need not be
/// commutative — chunk order is preserved).
pub fn ordered_par_fold<I, A, F, R>(workers: usize, items: &[I], map: F, mut reduce: R) -> A
where
    I: Sync,
    A: Send + Default,
    F: Fn(&[I]) -> A + Sync,
    R: FnMut(A, A) -> A,
{
    let mut parts = ordered_par_chunks(workers, items, map).into_iter();
    let first = parts.next().unwrap_or_default();
    parts.fold(first, &mut reduce)
}

/// [`ordered_par_fold`] over index ranges instead of a slice: partial
/// folds over contiguous `0..len` sub-ranges, reduced in range order.
/// For columnar data (struct-of-arrays) there is no single item slice
/// to chunk, so the caller receives a `Range<usize>` and indexes its
/// own columns. Deterministic under the same associativity condition
/// as [`ordered_par_fold`].
pub fn ordered_par_ranges<A, F, R>(workers: usize, len: usize, map: F, mut reduce: R) -> A
where
    A: Send + Default,
    F: Fn(std::ops::Range<usize>) -> A + Sync,
    R: FnMut(A, A) -> A,
{
    let workers = resolve_workers(workers).min(len.max(1));
    if workers <= 1 || len <= 1 {
        return map(0..len);
    }
    let chunk = len.div_ceil(workers);
    let ranges: Vec<std::ops::Range<usize>> =
        (0..len).step_by(chunk).map(|start| start..(start + chunk).min(len)).collect();
    let mut parts = ordered_par_map(workers, &ranges, |_, r| map(r.clone())).into_iter();
    let first = parts.next().unwrap_or_default();
    parts.fold(first, &mut reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_and_fold_like_serial() {
        let vals: Vec<u64> = (0..997).map(|i| i * 3 + 1).collect();
        let serial: u64 = vals.iter().sum();
        for workers in [1, 2, 3, 8, 64] {
            let par = ordered_par_ranges(workers, vals.len(), |r| r.map(|i| vals[i]).sum::<u64>(), |a, b| a + b);
            assert_eq!(par, serial, "workers={workers}");
            // concatenation in range order preserves the serial order
            let cat = ordered_par_ranges(
                workers,
                vals.len(),
                |r| r.map(|i| vals[i]).collect::<Vec<u64>>(),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(cat, vals, "workers={workers}");
        }
        assert_eq!(ordered_par_ranges(4, 0, |r| r.len(), |a, b| a + b), 0);
    }

    #[test]
    fn matches_serial_map_for_any_worker_count() {
        let items: Vec<u64> = (0..103).collect();
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| i as u64 * 1000 + x * x).collect();
        for workers in [1, 2, 3, 4, 8, 64, 200] {
            let par = ordered_par_map(workers, &items, |i, x| i as u64 * 1000 + x * x);
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(ordered_par_map(4, &empty, |_, x| *x).is_empty());
        assert_eq!(ordered_par_map(4, &[7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn chunks_cover_input_in_order() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 3, 7, 100] {
            let parts = ordered_par_chunks(workers, &items, |c| c.to_vec());
            let flat: Vec<u32> = parts.into_iter().flatten().collect();
            assert_eq!(flat, items, "workers={workers}");
        }
    }

    #[test]
    fn fold_sums_like_serial() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: u64 = items.iter().sum();
        for workers in [1, 2, 4, 16] {
            let par = ordered_par_fold(workers, &items, |c| c.iter().sum::<u64>(), |a, b| a + b);
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn fold_preserves_chunk_order_for_noncommutative_reduce() {
        let items: Vec<u32> = (0..57).collect();
        let serial: Vec<u32> = items.clone();
        for workers in [2, 5, 13] {
            let par = ordered_par_fold(
                workers,
                &items,
                |c| c.to_vec(),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            );
            assert_eq!(par, serial, "concatenation must follow chunk order");
        }
    }

    #[test]
    fn zero_means_all_cores() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
        // and it still computes correctly
        let items: Vec<u32> = (0..50).collect();
        let out = ordered_par_map(0, &items, |_, x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }
}
