//! Names, units and parameters of everything the benchmark reports.
//!
//! `BENCHMARK.json` at the repository root declares the same metric names
//! and units; the self-test in `main.rs` keeps the two in step.

/// End-to-end metrics (untraced runs), in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("peak_table_mb", "MB"),
    ("rss_peak_mb", "MB"),
];

/// Per-node DP times of the engine probe (U10-2 under the default
/// one-at-a-time partition): one `engine.node.<node>_s` metric each.
pub const ENGINE_NODES: &[&str] = &[
    "n00.cut10",
    "n05.cut2",
    "n06.cut3",
    "n15.cut5",
    "n16.cut8",
    "n17.cut9",
    "n18.vertex1",
];

/// Per-layer metrics (traced runs) other than the per-node ones, in
/// output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.bytes", "B"),
    ("template.partition_s", "s"),
    ("template.estimated_ops", "count"),
    ("combin.split_build_s", "s"),
    ("coloring.s_per_iter", "s"),
    ("engine.dp_s_per_iter", "s"),
    ("engine.ops_per_s", "1/s"),
    ("engine.bytes_built_per_iter", "B"),
    ("parallel.inner_speedup", "ratio"),
    ("parallel.outer_speedup", "ratio"),
    ("table.occupancy", "ratio"),
    ("table.hash.mean_probe", "steps"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.metrics.overhead_ratio", "ratio"),
    ("obs.trace.overhead_ratio", "ratio"),
    ("obs.profile.overhead_ratio", "ratio"),
    ("obs.mem.overhead_ratio", "ratio"),
    ("obs.est.overhead_ratio", "ratio"),
    ("obs.export_s", "s"),
    ("obs.trace.dropped", "count"),
    ("sample.build_s", "s"),
    ("sample.draw_ms", "ms"),
    ("sample.build_vs_count", "ratio"),
    ("svc.setup_s", "s"),
    ("svc.job_ms_p50", "ms"),
    ("svc.job_ms_p95", "ms"),
    ("svc.drain_jobs_per_s", "jobs/s"),
    ("svc.spool.submit_ms_p50", "ms"),
    ("svc.queue_wait_ms_p50", "ms"),
    ("svc.queue_wait_ms_p95", "ms"),
    ("svc.attempt_ms_p50", "ms"),
    ("svc.attempt_ms_p95", "ms"),
    ("svc.engine_ms_p50", "ms"),
    ("svc.overhead_share", "ratio"),
    ("svc.scan_reads_per_job", "count"),
    ("svc.pool.load_ms", "ms"),
    ("svc.pool.hit_ratio", "ratio"),
    ("svc.attempts_per_job", "count"),
    ("svc.checkpoints_per_job", "count"),
    ("svc.heartbeats_per_job", "count"),
    ("svc.durable_write_ms", "ms"),
    ("svc.backlog_max", "count"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Every per-layer metric name with its unit, per-node ones included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        ENGINE_NODES
            .iter()
            .map(|node| (format!("engine.node.{node}_s"), "s")),
    );
    out
}

/// The metrics a run must print, for the chosen mode.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Input sizes: the benchmark proper, or toy inputs for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that exercise every code path in seconds.
    Toy,
}

/// The workloads. The service is measured by the traced run's ledger
/// only (see `svc.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// U10-2 on the Enron stand-in, inner loop, two iterations per call.
    EnronU10Inner,
    /// U7-2 on the Portland stand-in, hash layout, every plane attached.
    PortlandU7HashObserved,
    /// `sample_embeddings` of U7-2 on the Enron stand-in.
    EnronU7Sample,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::EnronU10Inner,
        Workload::PortlandU7HashObserved,
        Workload::EnronU7Sample,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EnronU10Inner => "enron-u10-inner",
            Workload::PortlandU7HashObserved => "portland-u7-hash-observed",
            Workload::EnronU7Sample => "enron-u7-sample",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
