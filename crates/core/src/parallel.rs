//! Deterministic parallel experiment harness.
//!
//! The paper-figure sweeps (`fig9`…`fig14`, `ablation`) are
//! embarrassingly parallel: a grid of independent *cells* — typically a
//! (device, workload) or (environment, workload) pair plus a seed — each
//! of which trains and evaluates schedulers on its own
//! [`Simulator`](autoscale_sim::Simulator). This module executes such a
//! grid across OS threads while keeping the results **bit-identical for
//! any thread count**:
//!
//! * every cell derives its own RNG seed from `(base_seed, cell_index)`
//!   via [`cell_seed`] — no RNG stream is ever shared between cells;
//! * workers pull cell indices from a shared atomic counter and hand
//!   back `(index, result)` pairs, which are merged in index order —
//!   scheduling order can never reorder or interleave outputs;
//! * the cell function only gets shared (`&`) access to its spec, so it
//!   cannot leak state between cells.
//!
//! `threads == 1` short-circuits to a plain in-order loop (no thread is
//! spawned), which is also the reference order for the determinism
//! property test in `tests/properties.rs`.
//!
//! The per-inference serving loop — decide, execute, learn — stays
//! single-threaded by design: AutoScale's Q-learning updates are
//! sequential by nature (each decision conditions on the table the
//! previous inference updated), and the paper's premise is that a
//! serving decision is micro-seconds of table lookups. Parallelism lives
//! one level up, across experiment cells.

use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of experiment work: a spec (what to run) plus the identity
/// the harness assigned to it — a stable index into the grid and a
/// derived RNG seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell<'a, T> {
    /// Position of this cell in the grid (also its slot in the results).
    pub index: usize,
    /// Seed for this cell's private RNG, mixed from the harness base
    /// seed and `index` — see [`cell_seed`].
    pub seed: u64,
    /// The caller's description of the work.
    pub spec: &'a T,
}

/// Derives the RNG seed of cell `index` from the sweep's `base_seed`.
///
/// SplitMix64-style finalization over the pair: uncorrelated streams for
/// neighbouring indices, stable across platforms and thread counts.
pub fn cell_seed(base_seed: u64, index: usize) -> u64 {
    let mut z = base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The number of worker threads `--threads` defaults to: all hardware
/// threads the OS reports, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a `--threads` request: `None` or `Some(0)` mean "all cores".
///
/// Requests above `available_parallelism` are clamped to it:
/// oversubscribing a small box only adds context-switch overhead (the
/// harness once measured a 0.945x "speedup" from 8 workers on 1 core),
/// and results are thread-count-invariant anyway.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        None | Some(0) => default_threads(),
        Some(n) => n.min(default_threads()),
    }
}

/// Runs one experiment grid: `run(cell)` for every spec, over at most
/// `threads` worker threads, returning results in grid order.
///
/// The output is **bit-identical for any `threads` value**: cell `i`'s
/// result lands in slot `i` and is computed only from `specs[i]` and
/// [`cell_seed`]`(base_seed, i)`. With `threads <= 1` the cells run
/// in-order on the calling thread.
///
/// A worker's panic is re-raised on the caller once every worker has
/// been joined.
pub fn run_cells<T, R, F>(threads: usize, base_seed: u64, specs: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&Cell<'_, T>) -> R + Sync,
{
    let cell = |index: usize| Cell {
        index,
        seed: cell_seed(base_seed, index),
        spec: &specs[index],
    };
    // Clamp to the hardware and the grid, then short-circuit: one
    // effective worker means the plain in-order loop on the calling
    // thread — no spawn, no queue. This is both the determinism
    // reference order and the 1-core fast path.
    let workers = threads.min(default_threads()).min(specs.len());
    if workers <= 1 {
        return (0..specs.len()).map(|i| run(&cell(i))).collect();
    }

    // The claim counter is the work queue: each index is handed to
    // exactly one worker. Results never flow through shared state; each
    // worker returns its own `(index, result)` pairs when it is joined.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= specs.len() {
                            return mine;
                        }
                        mine.push((index, run(&cell(index))));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(specs.len());
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_keep_grid_order() {
        let specs: Vec<usize> = (0..97).collect();
        let out = run_cells(8, 1, &specs, |cell| *cell.spec * 10);
        assert_eq!(out, (0..97).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_for_any_thread_count() {
        let specs: Vec<u32> = (0..40).collect();
        let run = |cell: &Cell<'_, u32>| {
            let mut rng = crate::seeded_rng(cell.seed);
            (0..50).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() + *cell.spec as f64
        };
        let serial = run_cells(1, 7, &specs, run);
        for threads in [2, 3, 8] {
            let parallel = run_cells(threads, 7, &specs, run);
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn cell_seeds_differ_across_indices_and_bases() {
        let seeds: Vec<u64> = (0..100).map(|i| cell_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0));
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u64> = run_cells(4, 0, &Vec::<u8>::new(), |c| c.seed);
        assert!(out.is_empty());
    }

    #[test]
    fn requested_threads_clamp_to_available_parallelism() {
        assert_eq!(resolve_threads(Some(usize::MAX)), default_threads());
        assert_eq!(resolve_threads(Some(1)), 1);
    }

    #[test]
    fn single_effective_worker_runs_on_the_calling_thread() {
        // The short-circuit path must not spawn: every cell sees the
        // caller's thread id. A grid of one cell forces one worker even
        // when many threads are requested.
        let caller = std::thread::current().id();
        let specs = [(); 1];
        let ids = run_cells(8, 0, &specs, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        let specs: Vec<u8> = (0..12).collect();
        let ids = run_cells(1, 0, &specs, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn worker_panics_propagate() {
        let specs: Vec<u32> = (0..8).collect();
        let result = std::panic::catch_unwind(|| {
            run_cells(4, 0, &specs, |cell| {
                assert!(*cell.spec != 5, "boom");
                *cell.spec
            })
        });
        assert!(result.is_err());
    }
}
