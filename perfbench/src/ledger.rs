//! The traced run's layer ledger: one probe per layer, each a span
//! around the benchmark's own call into that layer, plus the engine's
//! existing `Metrics` registry read after the call.
//!
//! The probes run on every traced run, whatever the workload, so each
//! traced run reports every per-layer metric; their inputs derive from
//! the workload seed. `perfbench/README.md` lists which end-to-end metric
//! each one should move, and on which workload.

use crate::catalog::{Scale, ENGINE_NODES};
use crate::count::{self, CountSpec};
use crate::inputs::{self, derive};
use crate::planes::{PlaneSet, Planes};
use crate::report::Report;
use crate::sample;
use crate::spans::{self, Spans};
use crate::svc;
use fascia_core::coloring::{iteration_seed, random_coloring};
use fascia_core::engine::{count_template, CountConfig};
use fascia_core::resilience::Json;
use fascia_core::ParallelMode;
use fascia_graph::Graph;
use fascia_obs::Metrics;
use fascia_template::{PartitionStrategy, PartitionTree, Template};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Operation ids of ledger spans start here (workload operations use
/// the ids below).
const LEDGER_OP: u64 = 1 << 20;

/// Colorings timed for `coloring.s_per_iter`.
const COLORINGS: u64 = 10;

/// Rounds of each timed comparison.
const ROUNDS: usize = 2;

/// Runs every variant once per round, interleaved so that machine drift
/// hits all of them alike, and returns each variant's fastest time.
fn fastest<V: Copy>(variants: &[V], mut run: impl FnMut(V) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; variants.len()];
    for _ in 0..ROUNDS {
        for (b, &v) in best.iter_mut().zip(variants) {
            *b = b.min(run(v));
        }
    }
    best
}

/// Runs `f` inside a span named `layer` and returns its result and wall
/// seconds.
pub fn timed<R>(tr: &Spans, layer: &str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let _s = spans::open(Some(tr), layer, op);
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Runs every probe; `dir` holds the service probe's spool.
pub fn run(scale: Scale, seed: u64, dir: &Path, tr: &Spans, rep: &mut Report) {
    let enron = engine_probes(scale, seed, tr, rep);
    obs_probe(scale, seed, tr, rep);
    sample_probe(&enron, seed, tr, rep);
    svc::probe(scale, seed, dir, tr, rep);
}

/// Graph, template, combin, coloring, engine, table and parallel probes
/// on `enron-u10-inner`'s inputs. Returns the graph for the sample probe.
fn engine_probes(scale: Scale, seed: u64, tr: &Spans, rep: &mut Report) -> Graph {
    let spec = count::spec(crate::catalog::Workload::EnronU10Inner);
    let op = LEDGER_OP;
    let (g, gen_s) = timed(tr, "graph", op, || (spec.graph)(scale, derive(seed, 1)));
    rep.set("graph.generate_s", gen_s, "s");
    rep.set("graph.bytes", g.bytes() as f64, "B");
    let t: Template = inputs::template(spec.template);
    let k = t.size();
    let (pt, part_s) = timed(tr, "template", op, || {
        PartitionTree::build(&t, PartitionStrategy::OneAtATime).expect("U10-2 partitions")
    });
    rep.set("template.partition_s", part_s, "s");
    let ops = pt.estimated_ops(k) as f64;
    rep.set("template.estimated_ops", ops, "count");
    let (_, split_s) = timed(tr, "combin", op, || black_box(count::build_splits(&pt, k)));
    rep.set("combin.split_build_s", split_s, "s");
    let (_, color_s) = timed(tr, "coloring", op, || {
        for i in 0..COLORINGS {
            black_box(random_coloring(
                g.num_vertices(),
                k,
                iteration_seed(seed, i),
            ));
        }
    });
    let per_coloring = color_s / COLORINGS as f64;
    rep.set("coloring.s_per_iter", per_coloring, "s");

    let m = Arc::new(Metrics::new());
    let cfg = CountConfig {
        metrics: Some(Arc::clone(&m)),
        ..count::config(&spec, derive(seed, 3))
    };
    let mut ok = true;
    let count_s = fastest(&[()], |()| {
        let (r, secs) = timed(tr, "engine", op, || count_template(&g, &t, &cfg));
        ok &= r.is_ok();
        secs
    })[0];
    rep.check(ok, || "ledger: engine probe failed".into());
    let iters = spec.iterations as f64;
    let dp_s = (count_s - part_s - split_s - per_coloring * iters) / iters;
    rep.set("engine.dp_s_per_iter", dp_s, "s");
    // `estimated_ops` counts table cells per (vertex, neighbor) pair.
    let cells = ops * 2.0 * g.num_edges() as f64;
    rep.set("engine.ops_per_s", cells / dp_s, "1/s");
    // The registry accumulates over every round.
    let registry_iters = iters * ROUNDS as f64;
    rep.set(
        "engine.bytes_built_per_iter",
        m.counter("table.bytes.built").get() as f64 / registry_iters,
        "B",
    );
    let rows = m.counter("table.rows.materialized").get() as f64;
    rep.set(
        "table.occupancy",
        m.counter("table.rows.nonzero").get() as f64 / rows,
        "ratio",
    );
    node_times(&m, registry_iters, rep);

    let modes = [
        ParallelMode::Serial,
        ParallelMode::InnerLoop,
        ParallelMode::OuterLoop,
    ];
    let secs = fastest(&modes, |mode| {
        let cfg = CountConfig {
            parallel: mode,
            ..count::config(&spec, derive(seed, 3))
        };
        timed(tr, "parallel", op, || count_template(&g, &t, &cfg).is_ok()).1
    });
    rep.set("parallel.inner_speedup", secs[0] / secs[1], "ratio");
    rep.set("parallel.outer_speedup", secs[0] / secs[2], "ratio");
    g
}

/// `engine.node.<node>_s`: per-node DP seconds per iteration, from the
/// registry's `engine.dp_ns.<node>` histograms. The node set must match
/// the catalog's.
fn node_times(m: &Metrics, iters: f64, rep: &mut Report) {
    let doc = Json::parse(&m.to_json()).ok();
    let hists = doc
        .as_ref()
        .and_then(|d| d.as_obj())
        .and_then(|o| Json::get(o, "histograms"))
        .and_then(Json::as_obj)
        .unwrap_or_default();
    let mut seen = Vec::new();
    for (name, h) in hists {
        let Some(node) = name.strip_prefix("engine.dp_ns.") else {
            continue;
        };
        let sum_ns = h
            .as_obj()
            .and_then(|o| Json::get(o, "sum"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        rep.set(&format!("engine.node.{node}_s"), sum_ns / 1e9 / iters, "s");
        seen.push(node.to_string());
    }
    seen.sort();
    let mut want: Vec<String> = ENGINE_NODES.iter().map(|s| s.to_string()).collect();
    want.sort();
    rep.check(seen == want, || {
        format!("ledger: U10-2 DP nodes are {seen:?}")
    });
}

/// Observation-plane costs on `portland-u7-hash-observed`'s inputs: all
/// planes, each plane alone, and none, on the same call.
fn obs_probe(scale: Scale, seed: u64, tr: &Spans, rep: &mut Report) {
    let spec: CountSpec = count::spec(crate::catalog::Workload::PortlandU7HashObserved);
    let op = LEDGER_OP + 1;
    let g = (spec.graph)(scale, derive(seed, 1));
    let t = inputs::template(spec.template);
    let s = derive(seed, 3);
    let mut sets = vec![PlaneSet::NONE, PlaneSet::ALL];
    sets.extend(PlaneSet::SINGLE.iter().map(|&(_, set)| set));
    let (mut failed, mut export_s, mut dropped, mut mean_probe) = (0, f64::INFINITY, 0, None);
    let secs = fastest(&sets, |planes| {
        let mut cfg = count::config(&spec, s);
        let attached = Planes::attach(planes, &mut cfg);
        let (r, secs) = timed(tr, "engine", op, || count_template(&g, &t, &cfg));
        let (lost, render_s) = timed(tr, "obs", op, || attached.finish(&cfg));
        failed += usize::from(r.is_err());
        if planes == PlaneSet::ALL {
            export_s = export_s.min(render_s);
            dropped = dropped.max(lost);
        }
        if let Some(m) = &cfg.metrics {
            let inserts = m.counter("table.probe.inserts").get() as f64;
            mean_probe = Some(m.counter("table.probe.steps").get() as f64 / inserts);
        }
        secs + render_s
    });
    rep.check(failed == 0, || {
        format!("ledger: {failed} obs probe calls failed")
    });
    rep.set("obs.export_s", export_s, "s");
    rep.set("obs.trace.dropped", dropped as f64, "count");
    rep.set(
        "table.hash.mean_probe",
        mean_probe.unwrap_or(f64::NAN),
        "steps",
    );
    rep.set("obs.overhead_ratio", secs[1] / secs[0], "ratio");
    for ((name, _), s) in PlaneSet::SINGLE.iter().zip(&secs[2..]) {
        rep.set(&format!("obs.{name}.overhead_ratio"), s / secs[0], "ratio");
    }
}

/// Sampling against counting on `enron-u7-sample`'s inputs.
fn sample_probe(g: &Graph, seed: u64, tr: &Spans, rep: &mut Report) {
    let t = inputs::template(sample::spec().template);
    let op = LEDGER_OP + 2;
    let s = derive(seed, 4);
    let cfg = count::config(&sample::spec(), s);
    // Draw one embedding per coloring, draw them all, or only count.
    let secs = fastest(
        &[Some(sample::COLORINGS), Some(sample::EMBEDDINGS), None],
        |draws| match draws {
            Some(n) => {
                timed(tr, "sample", op, || {
                    sample::call(g, &t, s, n, None, op).is_ok()
                })
                .1
            }
            None => timed(tr, "engine", op, || count_template(g, &t, &cfg).is_ok()).1,
        },
    );
    let (build_s, full_s, count_s) = (secs[0], secs[1], secs[2]);
    rep.set("sample.build_s", build_s, "s");
    let extra = (sample::EMBEDDINGS - sample::COLORINGS) as f64;
    rep.set("sample.draw_ms", (full_s - build_s) / extra * 1e3, "ms");
    rep.set("sample.build_vs_count", build_s / count_s, "ratio");
}
