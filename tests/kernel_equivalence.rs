//! Differential suite for the cut-node DP kernels: the vectorized
//! colorset-major kernel must produce **bitwise-identical** per-iteration
//! counts to the scalar reference kernel for every configuration axis —
//! parallel mode × table layout (including the budget-gated [`AnyTable`]
//! ladder) × partition strategy, labeled and unlabeled, plus a property
//! test over random small templates and graphs. This is the enforcement
//! arm of the bitwise-equality contract in DESIGN.md §15.

use fascia::prelude::*;
use proptest::prelude::*;

fn run(
    g: &Graph,
    t: &Template,
    kernel: KernelKind,
    table: TableKind,
    parallel: ParallelMode,
    budget: Option<usize>,
) -> Vec<f64> {
    let cfg = CountConfig {
        iterations: 4,
        kernel,
        table,
        parallel,
        seed: 97,
        memory_budget_bytes: budget,
        ..CountConfig::default()
    };
    count_template(g, t, &cfg).unwrap().per_iteration
}

fn templates() -> Vec<Template> {
    vec![
        Template::path(4),
        Template::path(7),
        Template::star(5),
        NamedTemplate::U5_2.template(),
        NamedTemplate::U7_2.template(),
    ]
}

/// The full configuration sweep: every parallel mode × concrete table
/// layout must agree bitwise across kernels.
#[test]
fn kernels_agree_across_modes_and_layouts() {
    let g = fascia::graph::gen::gnm(220, 800, 33);
    for t in templates() {
        for parallel in [
            ParallelMode::Serial,
            ParallelMode::InnerLoop,
            ParallelMode::OuterLoop,
        ] {
            for table in TableKind::all() {
                let scalar = run(&g, &t, KernelKind::Scalar, table, parallel, None);
                let vector = run(&g, &t, KernelKind::Vectorized, table, parallel, None);
                assert_eq!(
                    scalar, vector,
                    "kernel mismatch: {t:?} {parallel:?} {table:?}"
                );
            }
        }
    }
}

/// The budget-gated path goes through the layout-erased `AnyTable` (the
/// fourth layout) and exercises `from_batch_kind` dispatch plus the
/// count-based `BudgetGate::choose`; both the roomy budget (stays dense)
/// and the tight budget (degrades down the ladder) must agree.
#[test]
fn kernels_agree_under_memory_budgets() {
    let g = fascia::graph::gen::gnm(180, 650, 7);
    let t = NamedTemplate::U5_2.template();
    for budget in [usize::MAX / 2, 400_000, 120_000] {
        let scalar = run(
            &g,
            &t,
            KernelKind::Scalar,
            TableKind::Dense,
            ParallelMode::Serial,
            Some(budget),
        );
        let vector = run(
            &g,
            &t,
            KernelKind::Vectorized,
            TableKind::Dense,
            ParallelMode::Serial,
            Some(budget),
        );
        assert_eq!(scalar, vector, "budget {budget}");
    }
}

/// Labeled counting prunes via the `Stored::Single` label checks on both
/// the active and passive sides — a code path the unlabeled sweep never
/// touches.
#[test]
fn kernels_agree_on_labeled_templates() {
    let g = fascia::graph::gen::gnm(160, 560, 11);
    let labels = random_labels(g.num_vertices(), 3, 77);
    let t = Template::path(5).with_labels(vec![0, 1, 2, 0, 1]).unwrap();
    for table in TableKind::all() {
        let mk = |kernel| {
            let cfg = CountConfig {
                iterations: 4,
                kernel,
                table,
                parallel: ParallelMode::Serial,
                seed: 41,
                ..CountConfig::default()
            };
            count_template_labeled(&g, &labels, &t, &cfg)
                .unwrap()
                .per_iteration
        };
        assert_eq!(
            mk(KernelKind::Scalar),
            mk(KernelKind::Vectorized),
            "labeled mismatch on {table:?}"
        );
    }
}

/// Both partition strategies (different cut-node shapes, so different
/// split/removal tables) must agree across kernels.
#[test]
fn kernels_agree_across_partition_strategies() {
    let g = fascia::graph::gen::gnm(150, 520, 19);
    let t = Template::spider(&[2, 2, 1]);
    for strategy in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
        let mk = |kernel| {
            let cfg = CountConfig {
                iterations: 3,
                kernel,
                strategy,
                parallel: ParallelMode::Serial,
                seed: 13,
                ..CountConfig::default()
            };
            count_template(&g, &t, &cfg).unwrap().per_iteration
        };
        assert_eq!(
            mk(KernelKind::Scalar),
            mk(KernelKind::Vectorized),
            "strategy {strategy:?}"
        );
    }
}

/// The cut-kernel work counters of one run, in a fixed order.
const CUT_COUNTERS: [&str; 4] = [
    "cut.roots.visited",
    "cut.roots.skipped",
    "cut.neighbors.visited",
    "cut.neighbors.skipped",
];

/// Per-iteration series and cut-counter totals of one metered run.
fn run_metered(
    g: &Graph,
    t: &Template,
    kernel: KernelKind,
    table: TableKind,
    parallel: ParallelMode,
) -> (Vec<f64>, [u64; 4]) {
    let registry = std::sync::Arc::new(Metrics::new());
    let cfg = CountConfig {
        iterations: 3,
        kernel,
        table,
        parallel,
        seed: 29,
        metrics: Some(std::sync::Arc::clone(&registry)),
        ..CountConfig::default()
    };
    let series = count_template(g, t, &cfg).unwrap().per_iteration;
    (series, CUT_COUNTERS.map(|c| registry.counter(c).get()))
}

/// One vertex joined to every other, a short path among the first ids and
/// degree-1 leaves after them: the hub sits mid-range, so degree-weighted
/// band boundaries fall on both sides of it.
fn hub_star(n: u32) -> Graph {
    let hub = n / 2;
    let mut edges: Vec<(u32, u32)> = (0..n).filter(|&v| v != hub).map(|v| (hub, v)).collect();
    edges.extend((1..n / 5).map(|v| (v - 1, v)));
    Graph::from_edges(n as usize, &edges)
}

/// Inner-loop and hybrid runs band the vertex loop by degree weight and
/// hand bands out dynamically; on degree-skewed graphs (a Barabási–Albert
/// graph and a hub star) every thread count, kernel and layout must
/// reproduce the scalar serial series bit for bit and the serial run's
/// cut-counter totals exactly.
#[test]
fn kernels_agree_on_skewed_graphs_across_thread_counts() {
    let graphs = [
        (
            "barabasi_albert",
            fascia::graph::gen::barabasi_albert(700, 3, 0, 41),
        ),
        ("hub_star", hub_star(480)),
    ];
    let templates = [
        Template::path(5),
        Template::star(5),
        NamedTemplate::U5_2.template(),
    ];
    for (name, g) in &graphs {
        for t in &templates {
            for table in TableKind::all() {
                let (reference, counters) =
                    run_metered(g, t, KernelKind::Scalar, table, ParallelMode::Serial);
                for threads in [1, 2, 3, 7] {
                    for parallel in [ParallelMode::InnerLoop, ParallelMode::Hybrid] {
                        for kernel in KernelKind::all() {
                            let (series, seen) = with_threads(threads, || {
                                run_metered(g, t, kernel, table, parallel)
                            });
                            let at = format!(
                                "{name} {t:?} {table:?} {parallel:?} {kernel:?} x{threads}"
                            );
                            let bits =
                                |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&series), bits(&reference), "series: {at}");
                            assert_eq!(seen, counters, "cut counters: {at}");
                        }
                    }
                }
            }
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (12usize..48, 1u64..2000).prop_map(|(n, seed)| {
        let m = (n * 3).min(n * (n - 1) / 2);
        fascia::graph::gen::gnm(n, m, seed)
    })
}

fn arb_tree(max_n: usize) -> impl Strategy<Value = Template> {
    (
        2usize..max_n,
        proptest::collection::vec(0u32..u32::MAX, max_n),
    )
        .prop_map(|(n, rs)| {
            let parents: Vec<u8> = (0..n - 1)
                .map(|i| (rs[i] as usize % (i + 1)) as u8)
                .collect();
            Template::from_parents(&parents).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small tree templates on random graphs: any seed, any
    /// layout — the kernels must agree bitwise.
    #[test]
    fn kernels_agree_on_random_inputs(
        g in arb_graph(),
        t in arb_tree(7),
        seed in any::<u64>(),
        kind_ix in 0usize..3,
    ) {
        let table = TableKind::all()[kind_ix];
        let mk = |kernel| {
            let cfg = CountConfig {
                iterations: 2,
                kernel,
                table,
                parallel: ParallelMode::Serial,
                seed,
                ..CountConfig::default()
            };
            count_template(&g, &t, &cfg).unwrap().per_iteration
        };
        prop_assert_eq!(mk(KernelKind::Scalar), mk(KernelKind::Vectorized));
    }
}
