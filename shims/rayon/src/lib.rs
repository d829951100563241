//! Minimal, dependency-free stand-in for the parts of `rayon` that the
//! FASCIA workspace uses.
//!
//! The build environment resolves third-party crates from a mirror that may
//! be unavailable, so the workspace vendors the surface it needs. Parallel
//! iterators over integer ranges are executed by up to
//! [`current_num_threads`] workers (the calling thread plus
//! `std::thread::scope` workers) that claim fixed-size grains of the index
//! range from one shared atomic cursor until it runs dry, so a worker that
//! draws cheap items simply claims more of them. Results are stitched back
//! in index order, so `collect()` is deterministic and order-preserving
//! exactly like rayon's indexed collect. Each spawned worker inherits the
//! caller's thread count, so nested parallel calls see the installed pool
//! size.
//!
//! Differences from real rayon, none of which matter to this workspace:
//! there is no work stealing below the grain (a claimed grain runs to
//! completion on its worker), pools are sizes rather than actual resident
//! worker threads, and only `Range<usize>` / `Range<u32>` / `Range<u64>`
//! are parallelizable sources.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`];
    /// 0 means "use the machine default".
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of threads parallel operations will use in this context.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(|t| t.get());
    if installed > 0 {
        installed
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Error building a thread pool (the shim cannot actually fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a scoped thread pool.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Fresh builder with default (machine) parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = machine default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A "pool": in this shim, a thread-count context. Workers are spawned
/// per-operation as scoped threads, so a pool holds no resident threads.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing all parallel
    /// iterators (and [`current_num_threads`]) on the calling thread and
    /// in every worker those iterators spawn.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let prev = POOL_THREADS.with(|t| t.replace(self.num_threads));
        let out = f();
        POOL_THREADS.with(|t| t.set(prev));
        out
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

/// The rayon prelude: parallel-iterator traits.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, ParallelIterator};
}

pub mod iter {
    //! Parallel iterators over integer ranges.

    use super::{current_num_threads, POOL_THREADS};
    use std::ops::Range;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Conversion into a parallel iterator.
    pub trait IntoParallelIterator {
        /// Item type produced.
        type Item: Send;
        /// Concrete parallel iterator.
        type Iter: ParallelIterator<Item = Self::Item>;
        /// Converts `self` into a parallel iterator.
        fn into_par_iter(self) -> Self::Iter;
    }

    /// A parallel iterator (indexed, order-preserving).
    pub trait ParallelIterator: Sized {
        /// Item type produced.
        type Item: Send;

        /// Evaluates all items in parallel, in index order.
        fn drive(self) -> Vec<Self::Item>;

        /// Maps each item through `f` in parallel.
        fn map<T, F>(self, f: F) -> Map<Self, F>
        where
            T: Send,
            F: Fn(Self::Item) -> T + Sync,
        {
            Map { base: self, f }
        }

        /// Maps with a per-worker scratch value built by `init` (rayon's
        /// `map_init`): `init` runs at most once per worker, however many
        /// grains that worker claims, never once per item.
        fn map_init<I, T, INIT, F>(self, init: INIT, f: F) -> MapInit<Self, INIT, F>
        where
            INIT: Fn() -> I + Sync,
            F: Fn(&mut I, Self::Item) -> T + Sync,
            T: Send,
        {
            MapInit {
                base: self,
                init,
                f,
            }
        }

        /// Collects into a container (only `Vec<Item>` is supported).
        fn collect<C>(self) -> C
        where
            C: FromParallelIterator<Self::Item>,
        {
            C::from_par_vec(self.drive())
        }

        /// Sums all items.
        fn sum<S>(self) -> S
        where
            S: std::iter::Sum<Self::Item>,
        {
            self.drive().into_iter().sum()
        }
    }

    /// Containers buildable from a parallel iterator.
    pub trait FromParallelIterator<T> {
        /// Builds the container from items in index order.
        fn from_par_vec(items: Vec<T>) -> Self;
    }

    impl<T> FromParallelIterator<T> for Vec<T> {
        fn from_par_vec(items: Vec<T>) -> Self {
            items
        }
    }

    /// Parallel iterator over a `Range`.
    #[derive(Debug, Clone)]
    pub struct IterRange<T> {
        pub(crate) range: Range<T>,
    }

    macro_rules! range_impl {
        ($ty:ty) => {
            impl IntoParallelIterator for Range<$ty> {
                type Item = $ty;
                type Iter = IterRange<$ty>;
                fn into_par_iter(self) -> IterRange<$ty> {
                    IterRange { range: self }
                }
            }

            impl ParallelIterator for IterRange<$ty> {
                type Item = $ty;

                fn drive(self) -> Vec<$ty> {
                    self.range.collect()
                }
            }
        };
    }

    range_impl!(usize);
    range_impl!(u32);
    range_impl!(u64);

    /// Map adapter.
    #[derive(Debug, Clone)]
    pub struct Map<B, F> {
        base: B,
        f: F,
    }

    /// Map-with-scratch adapter.
    #[derive(Debug, Clone)]
    pub struct MapInit<B, INIT, F> {
        base: B,
        init: INIT,
        f: F,
    }

    /// Grains each worker's share of the range is cut into: enough that a
    /// worker finishing early finds more to claim, few enough that the
    /// cursor and per-grain result vectors cost nothing next to the work.
    const GRAINS_PER_THREAD: usize = 16;

    /// Evaluates `f(&mut scratch, i)` for every `i` in `0..len` on up to
    /// `current_num_threads()` workers and returns the results in index
    /// order. Workers claim grains from one atomic cursor until it passes
    /// `len`; each builds its scratch with `init` once, when it starts, so
    /// `init` runs at most once per worker. A worker panic is resumed on
    /// the caller with its original payload.
    fn run_claimed<S, T, INIT, F>(len: usize, init: INIT, f: F) -> Vec<T>
    where
        T: Send,
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let pool = current_num_threads().max(1);
        let threads = pool.min(len);
        if threads <= 1 {
            let mut scratch = init();
            return (0..len).map(|i| f(&mut scratch, i)).collect();
        }
        let grain = len.div_ceil(threads * GRAINS_PER_THREAD);
        let cursor = AtomicUsize::new(0);
        // One worker's claimed grains, each tagged with its first index.
        let worker = || {
            let mut scratch = init();
            let mut grains: Vec<(usize, Vec<T>)> = Vec::new();
            loop {
                // Relaxed: the cursor only hands out disjoint index ranges;
                // results travel back through the scope's joins.
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= len {
                    return grains;
                }
                let end = (start + grain).min(len);
                grains.push((start, (start..end).map(|i| f(&mut scratch, i)).collect()));
            }
        };
        let mut grains = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads)
                .map(|_| {
                    scope.spawn(|| {
                        POOL_THREADS.with(|t| t.set(pool));
                        worker()
                    })
                })
                .collect();
            let mut all = worker();
            for h in handles {
                match h.join() {
                    Ok(part) => all.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            all
        });
        grains.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(len);
        for (_, part) in grains {
            out.extend(part);
        }
        out
    }

    macro_rules! map_impls {
        ($ty:ty) => {
            impl<T, F> ParallelIterator for Map<IterRange<$ty>, F>
            where
                T: Send,
                F: Fn($ty) -> T + Sync,
            {
                type Item = T;

                fn drive(self) -> Vec<T> {
                    let start = self.base.range.start;
                    let len = (self.base.range.end - start) as usize;
                    let f = &self.f;
                    run_claimed(len, || (), |_, i| f(start + i as $ty))
                }
            }

            impl<I, T, INIT, F> ParallelIterator for MapInit<IterRange<$ty>, INIT, F>
            where
                T: Send,
                INIT: Fn() -> I + Sync,
                F: Fn(&mut I, $ty) -> T + Sync,
            {
                type Item = T;

                fn drive(self) -> Vec<T> {
                    let start = self.base.range.start;
                    let len = (self.base.range.end - start) as usize;
                    let f = &self.f;
                    run_claimed(len, &self.init, |scratch, i| f(scratch, start + i as $ty))
                }
            }
        };
    }

    map_impls!(usize);
    map_impls!(u32);
    map_impls!(u64);
}

pub use iter::{IntoParallelIterator, ParallelIterator};

/// Joins two closures, potentially in parallel (sequential in this shim —
/// no caller in the workspace is join-bound).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    (a(), b())
}

#[allow(unused_imports)]
fn _assert_range_usable(_r: Range<usize>) {}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 10_000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn map_sum_matches_serial() {
        let par: u128 = (0..5_000usize).into_par_iter().map(|i| i as u128).sum();
        let ser: u128 = (0..5_000u128).sum();
        assert_eq!(par, ser);
    }

    #[test]
    fn map_init_reuses_scratch_within_worker() {
        let v: Vec<usize> = (0..1000usize)
            .into_par_iter()
            .map_init(Vec::<usize>::new, |scratch, i| {
                scratch.push(i);
                i
            })
            .collect();
        assert_eq!(v, (0..1000).collect::<Vec<_>>());
    }

    fn pool(threads: usize) -> ThreadPool {
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    #[test]
    fn map_init_runs_init_at_most_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 3, 7] {
            let inits = AtomicUsize::new(0);
            let v: Vec<usize> = pool(threads).install(|| {
                (0..5_000usize)
                    .into_par_iter()
                    .map_init(
                        || {
                            inits.fetch_add(1, Ordering::Relaxed);
                        },
                        |_, i| i,
                    )
                    .collect()
            });
            assert_eq!(v, (0..5_000).collect::<Vec<_>>());
            let inits = inits.into_inner();
            assert!(
                (1..=threads).contains(&inits),
                "{inits} init calls on {threads} threads"
            );
        }
    }

    #[test]
    fn order_is_preserved_under_uneven_item_cost() {
        // Early items are far more expensive than late ones, so workers
        // finish their grains out of index order.
        let cost = |i: usize| if i < 40 { 20_000 } else { 10 };
        let v: Vec<u64> = pool(3).install(|| {
            (0..400usize)
                .into_par_iter()
                .map(|i| {
                    let mut x = i as u64;
                    for _ in 0..cost(i) {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(1),
                        );
                    }
                    std::hint::black_box(x);
                    i as u64
                })
                .collect()
        });
        assert_eq!(v, (0..400u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        pool(3).install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    if i == 63 {
                        panic!("worker boom");
                    }
                    i
                })
                .collect::<Vec<_>>()
        });
    }

    #[test]
    fn nested_calls_see_the_installed_thread_count() {
        // Three parties: items 0..3 block until three distinct workers
        // hold one each, so spawned workers are certain to report.
        let barrier = std::sync::Barrier::new(3);
        let seen: Vec<usize> = pool(3).install(|| {
            (0..24usize)
                .into_par_iter()
                .map(|i| {
                    if i < 3 {
                        barrier.wait();
                    }
                    current_num_threads()
                })
                .collect()
        });
        assert!(seen.iter().all(|&t| t == 3), "{seen:?}");
    }

    #[test]
    fn install_scopes_thread_count() {
        let outside = current_num_threads();
        let inside = ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap()
            .install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn empty_and_single_ranges() {
        let v: Vec<usize> = (0..0usize).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let v: Vec<usize> = (0..1usize).into_par_iter().map(|i| i + 7).collect();
        assert_eq!(v, vec![7]);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x");
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }
}
