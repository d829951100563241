//! The two counting workloads: `enron-u10-inner` and
//! `portland-u7-hash-observed`.

use crate::catalog::{Scale, Workload};
use crate::inputs::{self, derive};
use crate::planes::{PlaneSet, Planes};
use crate::report::Report;
use crate::spans::{self, Spans};
use crate::timing::{self, OpTimes};
use fascia_combin::{BinomialTable, PositionSplitTable, SplitTable};
use fascia_core::coloring::{iteration_seed, random_coloring};
use fascia_core::engine::{count_template, CountConfig, CountError};
use fascia_core::{KernelKind, ParallelMode};
use fascia_graph::Graph;
use fascia_table::TableKind;
use fascia_template::partition::NodeKind;
use fascia_template::{PartitionStrategy, PartitionTree, Template};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Parameters of a counting workload.
#[derive(Debug, Clone, Copy)]
pub struct CountSpec {
    /// Figure 2 template name.
    pub template: &'static str,
    /// Table layout.
    pub table: TableKind,
    /// Parallel mode.
    pub parallel: ParallelMode,
    /// Color-coding iterations per call.
    pub iterations: usize,
    /// Planes attached to every call.
    pub planes: PlaneSet,
    /// The graph generator.
    pub graph: fn(Scale, u64) -> Graph,
}

/// The spec of a counting workload.
pub fn spec(w: Workload) -> CountSpec {
    match w {
        Workload::EnronU10Inner => CountSpec {
            template: "U10-2",
            table: TableKind::Lazy,
            parallel: ParallelMode::InnerLoop,
            iterations: 2,
            planes: PlaneSet::NONE,
            graph: inputs::enron,
        },
        Workload::PortlandU7HashObserved => CountSpec {
            template: "U7-2",
            table: TableKind::Hash,
            parallel: ParallelMode::Serial,
            iterations: 1,
            planes: PlaneSet::ALL,
            graph: inputs::portland,
        },
        other => panic!("{} is not a counting workload", other.name()),
    }
}

/// The engine configuration of one call with coloring seed `seed`.
pub fn config(spec: &CountSpec, seed: u64) -> CountConfig {
    CountConfig {
        iterations: spec.iterations,
        table: spec.table,
        kernel: KernelKind::Vectorized,
        parallel: spec.parallel,
        seed,
        ..CountConfig::default()
    }
}

/// What one counting call returned.
#[derive(Debug, Clone, Copy)]
pub struct CallOut {
    /// The estimate.
    pub estimate: f64,
    /// `CountResult::peak_table_bytes`.
    pub peak_table_bytes: usize,
}

/// Builds the split tables of every cut in `pt` (the combinatorial plan
/// the engine derives before its first iteration).
pub fn build_splits(pt: &PartitionTree, k: usize) -> usize {
    let binom = BinomialTable::new(k);
    let mut shapes = BTreeSet::new();
    for node in pt.nodes() {
        if let NodeKind::Cut { active, .. } = node.kind {
            shapes.insert((
                node.size as usize,
                pt.nodes()[active as usize].size as usize,
            ));
        }
    }
    let mut bytes = 0;
    for (h, a) in shapes {
        let split = SplitTable::new(k, h, a, &binom);
        bytes += black_box(PositionSplitTable::new(&split)).bytes() + split.bytes();
    }
    bytes
}

/// One timed operation: a `count_template` call with the workload's
/// planes, and the rendering of their documents. Under tracing the
/// harness also re-derives the plan and colorings in spans of their own,
/// so each layer shows in the operation's trace.
pub fn call(
    g: &Graph,
    t: &Template,
    spec: &CountSpec,
    seed: u64,
    tr: Option<&Spans>,
    op: u64,
) -> Result<CallOut, CountError> {
    let _op = spans::open(tr, "op", op);
    if tr.is_some() {
        let pt = {
            let _s = spans::open(tr, "template", op);
            PartitionTree::build(t, PartitionStrategy::OneAtATime)?
        };
        {
            let _s = spans::open(tr, "combin", op);
            black_box(build_splits(&pt, t.size()));
        }
        let _s = spans::open(tr, "coloring", op);
        for i in 0..spec.iterations as u64 {
            black_box(random_coloring(
                g.num_vertices(),
                t.size(),
                iteration_seed(seed, i),
            ));
        }
    }
    let mut cfg = config(spec, seed);
    let planes = {
        let _s = spans::open(tr, "obs", op);
        Planes::attach(spec.planes, &mut cfg)
    };
    let r = {
        let _s = spans::open(tr, "engine", op);
        count_template(g, t, &cfg)
    };
    {
        let _s = spans::open(tr, "obs", op);
        planes.finish(&cfg);
    }
    let r = r?;
    Ok(CallOut {
        estimate: r.estimate,
        peak_table_bytes: r.peak_table_bytes,
    })
}

/// The reference recount: scalar kernel, serial, no planes. Kernels,
/// modes, layouts and planes are contractually bitwise-equal, so it must
/// reproduce the timed call's estimate exactly.
pub fn reference(g: &Graph, t: &Template, spec: &CountSpec, seed: u64) -> Result<f64, CountError> {
    let cfg = CountConfig {
        kernel: KernelKind::Scalar,
        parallel: ParallelMode::Serial,
        ..config(spec, seed)
    };
    count_template(g, t, &cfg).map(|r| r.estimate)
}

/// Sets up the workload: graph generation (largest component) and
/// template parse, `reps` times; returns the inputs and the median time.
pub fn setup(spec: &CountSpec, scale: Scale, seed: u64, reps: usize) -> (Graph, Template, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let g = (spec.graph)(scale, derive(seed, 1));
        let t = inputs::template(spec.template);
        times.push(t0.elapsed().as_secs_f64());
        last = Some((g, t));
    }
    let (g, t) = last.expect("at least one set-up");
    (g, t, fascia_bench::perf::median(&times))
}

/// The untraced run: set-up, one warm-up, timed calls for `seconds`, and
/// the bitwise check of the first timed call.
pub fn run(w: Workload, scale: Scale, seed: u64, seconds: f64, rep: &mut Report) {
    let spec = spec(w);
    let (g, t, setup_s) = setup(&spec, scale, seed, timing::setup_reps(scale));
    rep.set("setup_s", setup_s, "s");
    let _ = call(&g, &t, &spec, derive(seed, 2), None, 0);
    let mut peak = 0usize;
    let mut first = None;
    let times: OpTimes = timing::timed_ops(seconds, |i| {
        let s = derive(seed, 100 + i);
        let out = call(&g, &t, &spec, s, None, i);
        if let Ok(o) = &out {
            peak = peak.max(o.peak_table_bytes);
            first.get_or_insert((s, o.estimate));
        }
        out.is_ok()
    });
    times.report(rep);
    rep.set("peak_table_mb", peak as f64 / 1e6, "MB");
    match first {
        Some((s, estimate)) => match reference(&g, &t, &spec, s) {
            Ok(want) => rep.check(want.to_bits() == estimate.to_bits(), || {
                format!(
                    "{}: estimate {estimate:e} != scalar serial {want:e}",
                    w.name()
                )
            }),
            Err(e) => rep.check(false, || {
                format!("{}: reference count failed: {e}", w.name())
            }),
        },
        None => rep.check(false, || format!("{}: no call succeeded", w.name())),
    }
}

/// The traced run's workload part: calls alternate untraced and traced,
/// giving `trace.overhead_ratio` and the spans of every traced call.
pub fn run_traced(
    w: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    tr: &Spans,
    rep: &mut Report,
) {
    let spec = spec(w);
    let (g, t, _) = setup(&spec, scale, seed, 1);
    let _ = call(&g, &t, &spec, derive(seed, 2), None, 0);
    timing::traced_pairs(seconds, tr, rep, |i, traced| {
        let s = derive(seed, 100 + i);
        call(&g, &t, &spec, s, traced, i).is_ok()
    });
}
