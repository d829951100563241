//! Parallel execution modes (paper §III-E).
//!
//! FASCIA supports two orthogonal multithreading schemes and picks between
//! them by graph size:
//!
//! * **Inner loop** — parallelize the per-vertex count loop (Alg. 2,
//!   line 2) of every subtemplate. Best for large graphs: one DP table,
//!   memory does not grow with threads.
//! * **Outer loop** — run whole color-coding iterations concurrently, one
//!   private DP table per worker (Alg. 1, line 3). Best for small graphs
//!   and many iterations, where per-vertex parallelism is all overhead.
//!
//! `Auto` applies the paper's rule of thumb. Thread counts are controlled
//! by the ambient rayon pool; [`with_threads`] builds a scoped pool for the
//! scaling experiments (Figs. 8–9).

/// Largest vertex count at which [`ParallelMode::Auto`] still picks
/// outer-loop parallelism (exclusive bound).
///
/// Below this size a per-worker private DP table is cheap (tables scale
/// with `n · C(k, h)`) and per-vertex parallelism amortizes badly, so
/// whole iterations are the better unit of work. At or above it the
/// memory cost of one table per worker dominates and the engine switches
/// to a single shared table with inner-loop (per-vertex) parallelism —
/// the paper's §III-E rule of thumb. See DESIGN.md §Parallel modes.
pub const AUTO_OUTER_MAX_VERTICES: usize = 50_000;

/// Fewest iterations for which [`ParallelMode::Auto`] considers outer-loop
/// parallelism (inclusive bound). With a single iteration there is nothing
/// to parallelize over iterations, so inner-loop is always used.
pub const AUTO_OUTER_MIN_ITERATIONS: usize = 2;

/// How to spread work across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelMode {
    /// Single-threaded reference mode.
    Serial,
    /// Parallelize over graph vertices within each iteration.
    InnerLoop,
    /// Parallelize over iterations; each iteration runs serially.
    OuterLoop,
    /// Parallelize over iterations *and* vertices simultaneously — the
    /// combination the paper names as future work ("we intend to combine
    /// the two OpenMP parallelization strategies"). Rayon's work stealing
    /// balances the two levels automatically.
    Hybrid,
    /// Choose by graph size (the paper's guidance).
    Auto,
}

impl ParallelMode {
    /// Resolves `Auto` for a concrete workload: outer-loop parallelism for
    /// graphs under [`AUTO_OUTER_MAX_VERTICES`] vertices with at least
    /// [`AUTO_OUTER_MIN_ITERATIONS`] iterations, inner-loop otherwise.
    /// Under an adaptive stop rule `iterations` is the rule's budget
    /// (`max_iters`), not the a-posteriori count. Explicit modes resolve
    /// to themselves.
    pub fn resolve(self, num_vertices: usize, iterations: usize) -> ParallelMode {
        match self {
            ParallelMode::Auto => {
                // Small graphs amortize badly over vertices; if there are
                // several iterations to run, prefer outer parallelism.
                if num_vertices < AUTO_OUTER_MAX_VERTICES && iterations >= AUTO_OUTER_MIN_ITERATIONS
                {
                    ParallelMode::OuterLoop
                } else {
                    ParallelMode::InnerLoop
                }
            }
            other => other,
        }
    }

    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            ParallelMode::Serial => "serial",
            ParallelMode::InnerLoop => "inner",
            ParallelMode::OuterLoop => "outer",
            ParallelMode::Hybrid => "hybrid",
            ParallelMode::Auto => "auto",
        }
    }
}

/// Runs `f` inside a rayon pool of exactly `threads` workers.
///
/// # Panics
/// Panics if the pool cannot be built (never happens for sane counts).
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_follows_paper_rule() {
        assert_eq!(
            ParallelMode::Auto.resolve(1_000, 10),
            ParallelMode::OuterLoop
        );
        assert_eq!(
            ParallelMode::Auto.resolve(1_000_000, 10),
            ParallelMode::InnerLoop
        );
        assert_eq!(
            ParallelMode::Auto.resolve(1_000, 1),
            ParallelMode::InnerLoop
        );
    }

    /// Pins the full Auto resolution table at the exact threshold
    /// boundaries, so a threshold change is a deliberate, visible edit.
    #[test]
    fn auto_resolution_table_is_pinned() {
        let cases = [
            // (vertices, iterations) -> resolved mode
            (0, 0, ParallelMode::InnerLoop),
            (0, AUTO_OUTER_MIN_ITERATIONS, ParallelMode::OuterLoop),
            (
                AUTO_OUTER_MAX_VERTICES - 1,
                AUTO_OUTER_MIN_ITERATIONS - 1,
                ParallelMode::InnerLoop,
            ),
            (
                AUTO_OUTER_MAX_VERTICES - 1,
                AUTO_OUTER_MIN_ITERATIONS,
                ParallelMode::OuterLoop,
            ),
            (
                AUTO_OUTER_MAX_VERTICES - 1,
                usize::MAX,
                ParallelMode::OuterLoop,
            ),
            (
                AUTO_OUTER_MAX_VERTICES,
                AUTO_OUTER_MIN_ITERATIONS,
                ParallelMode::InnerLoop,
            ),
            (usize::MAX, usize::MAX, ParallelMode::InnerLoop),
        ];
        for (n, iters, want) in cases {
            assert_eq!(
                ParallelMode::Auto.resolve(n, iters),
                want,
                "Auto.resolve({n}, {iters})"
            );
        }
        // The constants themselves are part of the public contract.
        assert_eq!(AUTO_OUTER_MAX_VERTICES, 50_000);
        assert_eq!(AUTO_OUTER_MIN_ITERATIONS, 2);
    }

    #[test]
    fn explicit_modes_resolve_to_themselves() {
        for m in [
            ParallelMode::Serial,
            ParallelMode::InnerLoop,
            ParallelMode::OuterLoop,
            ParallelMode::Hybrid,
        ] {
            assert_eq!(m.resolve(123, 456), m);
        }
    }

    #[test]
    fn scoped_pool_uses_requested_threads() {
        let inside = with_threads(3, rayon::current_num_threads);
        assert_eq!(inside, 3);
    }

    /// Parallel calls nested inside a worker (Hybrid mode's inner loops)
    /// run at the scoped pool's size, not the machine's.
    #[test]
    fn scoped_pool_size_reaches_worker_threads() {
        use rayon::prelude::*;
        // Items 0..3 wait until three distinct workers hold one each.
        let barrier = std::sync::Barrier::new(3);
        let seen: Vec<usize> = with_threads(3, || {
            (0..12usize)
                .into_par_iter()
                .map(|i| {
                    if i < 3 {
                        barrier.wait();
                    }
                    rayon::current_num_threads()
                })
                .collect()
        });
        assert_eq!(seen, vec![3; 12]);
    }
}
