//! The `enron-u7-sample` workload: uniform embedding sampling.

use crate::catalog::Scale;
use crate::count::{self, CountSpec};
use crate::inputs::{self, derive};
use crate::planes::PlaneSet;
use crate::report::Report;
use crate::spans::{self, Spans};
use crate::timing::{self, OpTimes};
use fascia_core::coloring::{iteration_seed, random_coloring};
use fascia_core::engine::{CountConfig, CountError};
use fascia_core::sample::{sample_embeddings, Embedding};
use fascia_core::ParallelMode;
use fascia_graph::Graph;
use fascia_table::TableKind;
use fascia_template::{PartitionStrategy, PartitionTree, Template};
use std::hint::black_box;

/// Colorings per call.
pub const COLORINGS: usize = 2;

/// Embeddings drawn per call.
pub const EMBEDDINGS: usize = 20;

/// The workload's inputs and engine settings, in counting terms (the
/// ledger compares sampling against counting with the same colorings).
pub fn spec() -> CountSpec {
    CountSpec {
        template: "U7-2",
        table: TableKind::Lazy,
        parallel: ParallelMode::Serial,
        iterations: COLORINGS,
        planes: PlaneSet::NONE,
        graph: inputs::enron,
    }
}

/// One timed operation: a `sample_embeddings` call drawing `samples`.
pub fn call(
    g: &Graph,
    t: &Template,
    seed: u64,
    samples: usize,
    tr: Option<&Spans>,
    op: u64,
) -> Result<Vec<Embedding>, CountError> {
    let _op = spans::open(tr, "op", op);
    if tr.is_some() {
        {
            let _s = spans::open(tr, "template", op);
            black_box(PartitionTree::build(t, PartitionStrategy::OneAtATime)?);
        }
        let _s = spans::open(tr, "coloring", op);
        for i in 0..COLORINGS as u64 {
            black_box(random_coloring(
                g.num_vertices(),
                t.size(),
                iteration_seed(seed, i),
            ));
        }
    }
    let cfg: CountConfig = count::config(&spec(), seed);
    let _s = spans::open(tr, "sample", op);
    sample_embeddings(g, t, &cfg, samples)
}

/// Whether `emb` is an occurrence of `t` in `g`: injective, and every
/// template edge lands on a graph edge.
pub fn is_embedding(g: &Graph, t: &Template, emb: &Embedding) -> bool {
    let mut seen = emb.clone();
    seen.sort_unstable();
    seen.dedup();
    emb.len() == t.size()
        && seen.len() == emb.len()
        && emb.iter().all(|&v| (v as usize) < g.num_vertices())
        && t.edges()
            .iter()
            .all(|&(a, b)| g.has_edge(emb[a as usize] as usize, emb[b as usize] as usize))
}

/// The untraced run: set-up, one warm-up, timed calls, then the checks
/// (every embedding valid; the same seed gives the same embeddings) and
/// the call's heap high-water mark as its table footprint.
pub fn run(scale: Scale, seed: u64, seconds: f64, rep: &mut Report) {
    let spec = spec();
    let (g, t, setup_s) = count::setup(&spec, scale, seed, timing::setup_reps(scale));
    rep.set("setup_s", setup_s, "s");
    let _ = call(&g, &t, derive(seed, 2), EMBEDDINGS, None, 0);
    let mut drawn: Vec<(u64, Vec<Embedding>)> = Vec::new();
    let times: OpTimes = timing::timed_ops(seconds, |i| {
        let s = derive(seed, 100 + i);
        match call(&g, &t, s, EMBEDDINGS, None, i) {
            Ok(embs) => {
                let full = embs.len() == EMBEDDINGS;
                drawn.push((s, embs));
                full
            }
            Err(_) => false,
        }
    });
    times.report(rep);
    let invalid = drawn
        .iter()
        .flat_map(|(_, embs)| embs)
        .filter(|e| !is_embedding(&g, &t, e))
        .count();
    rep.check(invalid == 0, || {
        format!("enron-u7-sample: {invalid} invalid embeddings")
    });
    let Some((s, first)) = drawn.first() else {
        rep.check(false, || "enron-u7-sample: no call succeeded".into());
        return;
    };
    fascia_obs::alloc::reset();
    fascia_obs::alloc::set_enabled(true);
    let again = call(&g, &t, *s, EMBEDDINGS, None, 0);
    let peak = fascia_obs::alloc::snapshot().live_peak_bytes;
    fascia_obs::alloc::set_enabled(false);
    rep.check(again.as_ref().is_ok_and(|a| a == first), || {
        "enron-u7-sample: the same seed gave different embeddings".into()
    });
    rep.set("peak_table_mb", peak as f64 / 1e6, "MB");
}

/// The traced run's workload part: untraced/traced call pairs.
pub fn run_traced(scale: Scale, seed: u64, seconds: f64, tr: &Spans, rep: &mut Report) {
    let (g, t, _) = count::setup(&spec(), scale, seed, 1);
    let _ = call(&g, &t, derive(seed, 2), EMBEDDINGS, None, 0);
    timing::traced_pairs(seconds, tr, rep, |i, traced| {
        call(&g, &t, derive(seed, 100 + i), EMBEDDINGS, traced, i).is_ok()
    });
}
