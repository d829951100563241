//! Directed subgraph counting — the extension the paper explicitly
//! defers ("although the algorithm theoretically allows for directed
//! templates and networks, we currently only analyze undirected").
//!
//! The dynamic program is the undirected one with a single change: when a
//! cut separates subtemplate root `r` from passive root `u'`, the neighbor
//! sum at graph vertex `v` walks `v`'s **out**-neighbors if the template
//! arc points `r -> u'` and its **in**-neighbors otherwise. Colorfulness,
//! scaling (`1 / (P · α)` with the *directed* automorphism count), and
//! table handling are unchanged, so a directed run goes through the
//! engine's one DP driver, which picks each cut's neighbor lists once
//! (`Dp::cut_neighbors`).
//!
//! Canonical table sharing is disabled ([`PartitionTree::into_unshared`]):
//! two subtrees that are automorphic undirected may carry different arc
//! orientations, so their tables differ.
//!
//! [`PartitionTree::into_unshared`]: fascia_template::PartitionTree::into_unshared

use crate::engine::{count_impl, CountConfig, CountError, CountResult, Target};
use fascia_graph::digraph::DiGraph;
use fascia_template::directed::DiTemplate;

/// Approximate count of non-induced occurrences of a directed tree
/// template in a directed graph.
///
/// The run goes through the same driver as
/// [`count_template`](crate::engine::count_template), so every
/// [`CountConfig`] field applies: parallel mode, kernel, table layout,
/// memory budget, cancellation, checkpoint and resume, fault and chaos
/// hooks, progress and the observer planes. Vertex counts, the checkpoint
/// fingerprint's edge count and degree-derived weights come from the
/// underlying undirected graph. [`CountResult::peak_table_bytes`] counts
/// the index tables and the coloring beside the DP tables, as it does for
/// every other run.
pub fn count_directed(
    g: &DiGraph,
    t: &DiTemplate,
    cfg: &CountConfig,
) -> Result<CountResult, CountError> {
    let und = g.underlying();
    count_impl(&und, None, t.underlying(), Target::Directed(g, t), cfg).map(|(r, _)| r)
}

/// Exact count of directed non-induced occurrences by backtracking.
pub fn count_exact_directed(g: &DiGraph, t: &DiTemplate) -> u128 {
    let k = t.size();
    // BFS matching order over the underlying tree.
    let und = t.underlying();
    let mut order = Vec::with_capacity(k);
    let mut seen = vec![false; k];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0u8);
    seen[0] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in und.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    let pos = {
        let mut p = vec![0usize; k];
        for (i, &v) in order.iter().enumerate() {
            p[v as usize] = i;
        }
        p
    };
    // Per depth: (anchor position, template arc points anchor -> new).
    let anchors: Vec<(usize, bool)> = order
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &tv)| {
            let parent = und
                .neighbors(tv)
                .iter()
                .copied()
                .find(|&u| pos[u as usize] < i)
                .expect("BFS order has a mapped neighbor");
            (pos[parent as usize], t.points_from(parent, tv))
        })
        .collect();

    let n = g.num_vertices();
    let mut total = 0u128;
    let mut image = vec![u32::MAX; k];
    let mut used = vec![false; n];
    for v0 in 0..n {
        image[0] = v0 as u32;
        used[v0] = true;
        total += extend_dir(g, &anchors, &mut image, &mut used, 1);
        used[v0] = false;
    }
    let alpha = t.automorphisms() as u128;
    debug_assert_eq!(total % alpha, 0);
    total / alpha
}

fn extend_dir(
    g: &DiGraph,
    anchors: &[(usize, bool)],
    image: &mut [u32],
    used: &mut [bool],
    depth: usize,
) -> u128 {
    if depth > anchors.len() {
        return 1;
    }
    let (apos, outward) = anchors[depth - 1];
    let anchor_img = image[apos] as usize;
    let candidates = if outward {
        g.out_neighbors(anchor_img)
    } else {
        g.in_neighbors(anchor_img)
    };
    let mut total = 0u128;
    for &cand in candidates {
        let c = cand as usize;
        if used[c] {
            continue;
        }
        image[depth] = cand;
        used[c] = true;
        total += extend_dir(g, anchors, image, used, depth + 1);
        used[c] = false;
    }
    image[depth] = u32::MAX;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelKind;
    use crate::parallel::with_threads;
    use crate::parallel::ParallelMode;
    use crate::resilience::CancelToken;
    use crate::resilience::StopCause;
    use crate::stats::StopRule;
    use fascia_graph::gen::gnm;
    use fascia_obs::Metrics;
    use fascia_table::TableKind;
    use fascia_template::Template;
    use std::sync::Arc;

    fn cfg(iters: usize) -> CountConfig {
        CountConfig {
            iterations: iters,
            parallel: ParallelMode::Serial,
            seed: 88,
            ..CountConfig::default()
        }
    }

    #[test]
    fn single_arc_template_counts_arcs() {
        let und = gnm(40, 111, 2);
        let g = DiGraph::orient_randomly(&und, 7);
        let t = DiTemplate::directed_path(2);
        assert_eq!(count_exact_directed(&g, &t), 111);
        let r = count_directed(&g, &t, &cfg(1500)).unwrap();
        let rel = (r.estimate - 111.0).abs() / 111.0;
        assert!(rel < 0.08, "estimate {}", r.estimate);
    }

    #[test]
    fn directed_estimates_converge_to_exact() {
        let und = gnm(50, 170, 11);
        let g = DiGraph::orient_randomly(&und, 3);
        for t in [
            DiTemplate::directed_path(3),
            DiTemplate::directed_path(4),
            DiTemplate::out_star(4),
            DiTemplate::in_star(4),
            DiTemplate::from_arcs(4, &[(0, 1), (0, 2), (3, 0)]).unwrap(),
        ] {
            let exact = count_exact_directed(&g, &t) as f64;
            if exact == 0.0 {
                continue;
            }
            let r = count_directed(&g, &t, &cfg(1000)).unwrap();
            let rel = (r.estimate - exact).abs() / exact;
            assert!(
                rel < 0.12,
                "{t:?}: estimate {} vs exact {exact}",
                r.estimate
            );
        }
    }

    #[test]
    fn orientation_classes_partition_undirected_count() {
        // Every undirected P3 occurrence realizes exactly one of the three
        // directed 3-vertex patterns (path, out-star, in-star), so the
        // directed exact counts sum to the undirected exact count.
        let und = gnm(45, 140, 5);
        let g = DiGraph::orient_randomly(&und, 9);
        let undirected = crate::exact::count_exact(&und, &fascia_template::Template::path(3));
        let path = count_exact_directed(&g, &DiTemplate::directed_path(3));
        let out = count_exact_directed(&g, &DiTemplate::out_star(3));
        let inw = count_exact_directed(&g, &DiTemplate::in_star(3));
        assert_eq!(path + out + inw, undirected);
    }

    #[test]
    fn out_and_in_star_differ_on_skewed_orientation() {
        // Orient all edges low -> high id: vertex n-1 is a pure sink.
        let und = gnm(30, 90, 13);
        let arcs: Vec<(u32, u32)> = und.edges();
        let g = DiGraph::from_arcs(30, &arcs); // edges() gives u < v
        let out = count_exact_directed(&g, &DiTemplate::out_star(3));
        let inw = count_exact_directed(&g, &DiTemplate::in_star(3));
        // A DAG oriented by id generally has different in/out wedge counts;
        // at minimum the estimator must agree with each exactly.
        let r_out = count_directed(&g, &DiTemplate::out_star(3), &cfg(1200)).unwrap();
        let r_in = count_directed(&g, &DiTemplate::in_star(3), &cfg(1200)).unwrap();
        let rel_out = (r_out.estimate - out as f64).abs() / (out as f64).max(1.0);
        let rel_in = (r_in.estimate - inw as f64).abs() / (inw as f64).max(1.0);
        assert!(rel_out < 0.12, "out: {} vs {out}", r_out.estimate);
        assert!(rel_in < 0.12, "in: {} vs {inw}", r_in.estimate);
    }

    #[test]
    fn directed_symmetry_breaking_vs_undirected() {
        // Summing a directed template over both path orientations equals…
        // nothing trivial — but the directed count of P3 must be bounded by
        // the undirected count.
        let und = gnm(40, 120, 17);
        let g = DiGraph::orient_randomly(&und, 21);
        let directed = count_exact_directed(&g, &DiTemplate::directed_path(4));
        let undirected = crate::exact::count_exact(&und, &fascia_template::Template::path(4));
        assert!(directed <= undirected);
    }

    /// Exact per-iteration bits, iteration counts and stop causes of
    /// directed runs: a fixed serial run per template and one adaptive
    /// run that stops past its iteration floor.
    #[test]
    fn estimates_are_pinned() {
        const FIXED: [[u64; 3]; 4] = [
            [0x40a86aaaaaaaaaab, 0x40b0a00000000000, 0x40b0b55555555555],
            [0x4081aaaaaaaaaaab, 0x4085000000000000, 0x4081aaaaaaaaaaab],
            [0x407b555555555555, 0x4084555555555555, 0x4088555555555555],
            [0x40c828e555555555, 0x40cf06b555555555, 0x40c7f4cfffffffff],
        ];
        const ADAPTIVE: [u64; 23] = [
            0x40c828e555555555,
            0x40cf06b555555555,
            0x40c7f4cfffffffff,
            0x40ca17afffffffff,
            0x40cab3efffffffff,
            0x40c7e7caaaaaaaaa,
            0x40ce5d6fffffffff,
            0x40c8ab1aaaaaaaaa,
            0x40ca31baaaaaaaaa,
            0x40c6fd6aaaaaaaaa,
            0x40c1f45aaaaaaaaa,
            0x40cc3a8fffffffff,
            0x40c8770555555555,
            0x40ca31baaaaaaaaa,
            0x40c93a5555555555,
            0x40cf6edfffffffff,
            0x40ccd6cfffffffff,
            0x40cb0f1555555555,
            0x40c93a5555555555,
            0x40c55cbfffffffff,
            0x40cdb42aaaaaaaaa,
            0x40c84ff555555555,
            0x40ca58caaaaaaaaa,
        ];
        let g = DiGraph::orient_randomly(&gnm(120, 400, 9), 3);
        let mixed = DiTemplate::from_arcs(5, &[(1, 0), (0, 2), (3, 0), (3, 4)]).unwrap();
        let bits =
            |r: &CountResult| -> Vec<u64> { r.per_iteration.iter().map(|x| x.to_bits()).collect() };
        let templates = [
            DiTemplate::directed_path(4),
            DiTemplate::out_star(4),
            DiTemplate::in_star(4),
            mixed.clone(),
        ];
        let fixed = CountConfig {
            iterations: 3,
            parallel: ParallelMode::Serial,
            seed: 77,
            ..CountConfig::default()
        };
        for (t, want) in templates.iter().zip(FIXED) {
            let r = count_directed(&g, t, &fixed).unwrap();
            assert_eq!(bits(&r), want, "{t:?}");
            assert_eq!(r.iterations_run, 3, "{t:?}");
            assert_eq!(r.stop_cause, StopCause::Completed, "{t:?}");
        }
        let adaptive = CountConfig {
            stop: Some(StopRule::relative_error(0.05, 0.05)),
            ..fixed
        };
        let r = count_directed(&g, &mixed, &adaptive).unwrap();
        assert_eq!(bits(&r), ADAPTIVE);
        assert_eq!(r.iterations_run, ADAPTIVE.len());
        assert_eq!(r.stop_cause, StopCause::Converged);
    }

    /// Directed per-iteration bits do not depend on the kernel, the table
    /// layout, the parallel mode, or a memory budget that walks the layout
    /// ladder. On a digraph holding every edge in both directions, a
    /// directed path's value is exactly twice the undirected path's: the
    /// DP totals agree and only `α` differs (1 against 2).
    #[test]
    fn bits_agree_across_configurations() {
        let g = DiGraph::orient_randomly(&gnm(120, 400, 9), 3);
        let t = DiTemplate::from_arcs(5, &[(1, 0), (0, 2), (3, 0), (3, 4)]).unwrap();
        let base = CountConfig {
            iterations: 3,
            parallel: ParallelMode::Serial,
            seed: 77,
            ..CountConfig::default()
        };
        let want = count_directed(&g, &t, &base).unwrap().per_iteration;
        with_threads(2, || {
            for kernel in KernelKind::all() {
                for table in TableKind::all() {
                    for parallel in [
                        ParallelMode::Serial,
                        ParallelMode::InnerLoop,
                        ParallelMode::OuterLoop,
                        ParallelMode::Hybrid,
                    ] {
                        let c = CountConfig {
                            kernel,
                            table,
                            parallel,
                            ..base.clone()
                        };
                        let got = count_directed(&g, &t, &c).unwrap().per_iteration;
                        assert_eq!(got, want, "{kernel:?} {table:?} {parallel:?}");
                    }
                }
            }
        });

        // Walk a budget down from the unbudgeted peak until even hashed
        // tables no longer fit. Nine colors on five template vertices
        // leave rows sparse enough that hashing beats the lazy layout,
        // so the ladder steps dense -> lazy first and then on to hash.
        let dense = CountConfig {
            table: TableKind::Dense,
            colors: Some(9),
            ..base.clone()
        };
        let want = count_directed(&g, &t, &dense).unwrap();
        let (mut saw_lazy, mut saw_hash) = (false, false);
        let mut budget = want.peak_table_bytes;
        loop {
            let registry = Arc::new(Metrics::new());
            let c = CountConfig {
                memory_budget_bytes: Some(budget),
                metrics: Some(Arc::clone(&registry)),
                ..dense.clone()
            };
            match count_directed(&g, &t, &c) {
                Ok(r) => assert_eq!(r.per_iteration, want.per_iteration, "budget {budget}"),
                Err(CountError::BudgetExceeded { .. }) => break,
                Err(e) => panic!("budget {budget}: {e}"),
            }
            let fallbacks = registry.counter("engine.degrade.layout_fallbacks").get();
            let hashed = registry.counter("table.probe.inserts").get() > 0;
            saw_lazy |= fallbacks > 0 && !hashed;
            saw_hash |= hashed;
            budget = budget * 49 / 50;
        }
        assert!(saw_lazy && saw_hash, "lazy {saw_lazy}, hash {saw_hash}");

        let und = gnm(300, 1200, 9);
        let both: Vec<(u32, u32)> = und
            .edges()
            .into_iter()
            .flat_map(|(u, v)| [(u, v), (v, u)])
            .collect();
        let sym = DiGraph::from_arcs(300, &both);
        for k in 3..=7 {
            let d = count_directed(&sym, &DiTemplate::directed_path(k), &base).unwrap();
            let u = crate::engine::count_template(&und, &Template::path(k), &base).unwrap();
            let twice: Vec<f64> = u.per_iteration.iter().map(|x| 2.0 * x).collect();
            let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&d.per_iteration), bits(&twice), "P{k}");
        }
    }

    /// A directed run honors the run-level planes of its config: a
    /// pre-cancelled token stops it before any iteration, and an attached
    /// registry sees every iteration.
    #[test]
    fn config_reaches_the_driver() {
        let g = DiGraph::orient_randomly(&gnm(60, 180, 4), 8);
        let t = DiTemplate::out_star(4);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = CountConfig {
            cancel: Some(token),
            ..cfg(4)
        };
        assert_eq!(
            count_directed(&g, &t, &cancelled).unwrap_err(),
            CountError::Cancelled
        );
        let registry = Arc::new(Metrics::new());
        let observed = CountConfig {
            metrics: Some(Arc::clone(&registry)),
            ..cfg(4)
        };
        let r = count_directed(&g, &t, &observed).unwrap();
        assert_eq!(
            r.per_iteration,
            count_directed(&g, &t, &cfg(4)).unwrap().per_iteration
        );
        assert_eq!(registry.counter("engine.iterations.total").get(), 4);
    }

    #[test]
    fn error_paths() {
        let und = gnm(10, 20, 1);
        let g = DiGraph::orient_randomly(&und, 1);
        let t = DiTemplate::directed_path(3);
        let mut c = cfg(1);
        c.iterations = 0;
        assert!(matches!(
            count_directed(&g, &t, &c),
            Err(CountError::NoIterations)
        ));
        let mut c = cfg(1);
        c.colors = Some(2);
        assert!(matches!(
            count_directed(&g, &t, &c),
            Err(CountError::NotEnoughColors { .. })
        ));
    }
}
