//! Deterministic fan-out over `std::thread::scope` for the per-model
//! stages of the static analysis. No work-stealing, no extra
//! dependencies: the items are split into contiguous chunks, one scoped
//! worker per chunk, and every result lands in the slot of its input index
//! — so the merged output order is identical to the sequential one
//! regardless of thread count or scheduling.

/// Worker count for the parallel static-analysis stages: the `DFT_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism. `DFT_THREADS=1` forces the sequential
/// path (useful for timing baselines and for byte-stability checks).
pub fn thread_count() -> usize {
    match std::env::var("DFT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning the
/// results in input order.
pub(crate) fn par_map<'a, T, R, F>(items: &'a [T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let f = &f;
        for (chunk_items, chunk_slots) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (item, slot) in chunk_items.iter().zip(chunk_slots) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every chunk worker fills its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map(&items, threads, |&i| i * i), expected);
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }
}
