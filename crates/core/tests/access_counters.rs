//! Engine-produced table access counters, pinned.
//!
//! `--mem-stats` reports how the DP reads its tables: point gets, row
//! reads, inactive skips, sequential/scattered strides, per-row touch
//! counts and hashed probe chains (`fascia-mem/1` `access`). These tests
//! hold those counters fixed across refactors of the read paths:
//!
//! * `access_counters_are_pinned` records the exact `AccessSnapshot` of
//!   every DP node for a fixed serial run across templates, layouts and
//!   kernels, and compares it to the block below.
//! * `serial_and_parallel_access_totals_agree` checks that the
//!   order-insensitive totals do not depend on the parallel mode or the
//!   thread count.
//!
//! The access-tracking flag is process-global and read when a table is
//! built. Every test in this binary turns it on and none turns it off,
//! so no test can observe a table built with the flag in another state.

use std::collections::BTreeMap;
use std::sync::Arc;

use fascia_core::parallel::with_threads;
use fascia_core::{count_template, CountConfig, KernelKind, MemCollector, ParallelMode};
use fascia_graph::gen::gnm;
use fascia_graph::Graph;
use fascia_table::{set_access_tracking, AccessSnapshot, TableKind};
use fascia_template::{NamedTemplate, Template};

/// Per-node access snapshots of one counting run (`dp.n<idx>.<kind><size>`).
fn node_access(
    g: &Graph,
    t: &Template,
    table: TableKind,
    kernel: KernelKind,
    parallel: ParallelMode,
) -> BTreeMap<String, AccessSnapshot> {
    set_access_tracking(true);
    let collector = Arc::new(MemCollector::new());
    let cfg = CountConfig {
        iterations: 2,
        table,
        kernel,
        parallel,
        seed: 9,
        mem: Some(Arc::clone(&collector)),
        ..CountConfig::default()
    };
    count_template(g, t, &cfg).unwrap();
    collector
        .nodes()
        .into_iter()
        .map(|(name, stats)| {
            let access = stats.access.expect("tracking is on for every table");
            (name, access)
        })
        .collect()
}

fn templates() -> [(&'static str, Template); 2] {
    [
        ("path5", Template::path(5)),
        ("U5-2", NamedTemplate::U5_2.template()),
    ]
}

/// A histogram without its trailing zero buckets.
fn trimmed(hist: &[u64]) -> String {
    let len = hist.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    let parts: Vec<String> = hist[..len].iter().map(u64::to_string).collect();
    parts.join(",")
}

fn render(s: &AccessSnapshot) -> String {
    format!(
        "gets={} inactive={} rows={} seq={} scat={} touched={} touch=[{}] probe=[{}]",
        s.gets,
        s.inactive_skips,
        s.row_reads,
        s.sequential,
        s.scattered,
        s.touched_rows,
        trimmed(&s.touch_hist),
        trimmed(&s.probe_hist),
    )
}

/// One line per (template, layout, kernel, node) of `gnm(120, 400, 9)`,
/// serial, 2 iterations, seed 9.
const PINNED: &str = "
path5 naive scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 naive scalar dp.n05.cut2 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive scalar dp.n06.cut3 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive scalar dp.n07.cut4 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive scalar dp.n08.vertex1 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 naive vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 naive vectorized dp.n05.cut2 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive vectorized dp.n06.cut3 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive vectorized dp.n07.cut4 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 naive vectorized dp.n08.vertex1 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 improved scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 improved scalar dp.n05.cut2 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 improved scalar dp.n06.cut3 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 improved scalar dp.n07.cut4 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 improved vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 improved vectorized dp.n05.cut2 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 improved vectorized dp.n06.cut3 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 improved vectorized dp.n07.cut4 gets=0 inactive=0 rows=1600 seq=120 scat=1480 touched=240 touch=[2,22,126,90] probe=[]
path5 hash scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 hash scalar dp.n05.cut2 gets=16000 inactive=0 rows=0 seq=14520 scat=1480 touched=240 touch=[0,0,0,2,22,90,124,2] probe=[11516,2096,737,584,348,212,144,94,89,69,32,45,23,0,4,7]
path5 hash scalar dp.n06.cut3 gets=16000 inactive=0 rows=0 seq=14520 scat=1480 touched=240 touch=[0,0,0,2,22,90,124,2] probe=[16000]
path5 hash scalar dp.n07.cut4 gets=8000 inactive=0 rows=0 seq=6520 scat=1480 touched=240 touch=[0,0,2,22,90,124,2] probe=[8000]
path5 hash vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
path5 hash vectorized dp.n05.cut2 gets=16000 inactive=0 rows=0 seq=14520 scat=1480 touched=240 touch=[0,0,0,2,22,90,124,2] probe=[11516,2096,737,584,348,212,144,94,89,69,32,45,23,0,4,7]
path5 hash vectorized dp.n06.cut3 gets=16000 inactive=0 rows=0 seq=14520 scat=1480 touched=240 touch=[0,0,0,2,22,90,124,2] probe=[16000]
path5 hash vectorized dp.n07.cut4 gets=8000 inactive=0 rows=0 seq=6520 scat=1480 touched=240 touch=[0,0,2,22,90,124,2] probe=[8000]
U5-2 naive scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 naive scalar dp.n03.cut2 gets=0 inactive=0 rows=1840 seq=124 scat=1716 touched=240 touch=[0,8,106,126] probe=[]
U5-2 naive scalar dp.n07.cut4 gets=0 inactive=31 rows=1569 seq=117 scat=1452 touched=230 touch=[0,17,124,89] probe=[]
U5-2 naive scalar dp.n08.vertex1 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 naive vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 naive vectorized dp.n03.cut2 gets=0 inactive=0 rows=1840 seq=124 scat=1716 touched=240 touch=[0,8,106,126] probe=[]
U5-2 naive vectorized dp.n07.cut4 gets=0 inactive=31 rows=1569 seq=117 scat=1452 touched=230 touch=[0,17,124,89] probe=[]
U5-2 naive vectorized dp.n08.vertex1 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 improved scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 improved scalar dp.n03.cut2 gets=0 inactive=0 rows=1840 seq=124 scat=1716 touched=240 touch=[0,8,106,126] probe=[]
U5-2 improved scalar dp.n07.cut4 gets=0 inactive=31 rows=1569 seq=117 scat=1452 touched=230 touch=[0,17,124,89] probe=[]
U5-2 improved vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 improved vectorized dp.n03.cut2 gets=0 inactive=0 rows=1840 seq=124 scat=1716 touched=240 touch=[0,8,106,126] probe=[]
U5-2 improved vectorized dp.n07.cut4 gets=0 inactive=31 rows=1569 seq=117 scat=1452 touched=230 touch=[0,17,124,89] probe=[]
U5-2 hash scalar dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 hash scalar dp.n03.cut2 gets=23200 inactive=0 rows=0 seq=21486 scat=1714 touched=240 touch=[0,0,0,0,0,24,178,38] probe=[16634,3083,1091,842,510,317,204,136,125,96,47,66,32,0,7,10]
U5-2 hash scalar dp.n07.cut4 gets=7845 inactive=31 rows=0 seq=6393 scat=1452 touched=230 touch=[0,0,0,17,88,123,2] probe=[7845]
U5-2 hash vectorized dp.n00.cut5 gets=0 inactive=0 rows=0 seq=0 scat=0 touched=0 touch=[] probe=[]
U5-2 hash vectorized dp.n03.cut2 gets=18400 inactive=0 rows=0 seq=16684 scat=1716 touched=240 touch=[0,0,0,0,8,76,148,8] probe=[13222,2425,855,670,402,247,164,108,101,78,37,52,26,0,5,8]
U5-2 hash vectorized dp.n07.cut4 gets=7845 inactive=31 rows=0 seq=6393 scat=1452 touched=230 touch=[0,0,0,17,88,123,2] probe=[7845]
";

#[test]
fn access_counters_are_pinned() {
    let g = gnm(120, 400, 9);
    let mut lines = Vec::new();
    for (tname, t) in templates() {
        for table in TableKind::all() {
            for kernel in KernelKind::all() {
                let nodes = node_access(&g, &t, table, kernel, ParallelMode::Serial);
                assert!(!nodes.is_empty(), "{tname} {table:?} {kernel:?}");
                for (node, s) in &nodes {
                    lines.push(format!(
                        "{tname} {} {} {node} {}",
                        table.name(),
                        kernel.name(),
                        render(s)
                    ));
                }
            }
        }
    }
    let got = lines.join("\n");
    assert!(
        got == PINNED.trim(),
        "access counters drifted; the run now records:\n{got}"
    );
}

/// The counters that do not depend on the order rows are read in.
/// Strides do: a parallel run interleaves its workers' reads, so only the
/// number of stride-classified reads is compared.
fn order_insensitive(s: &AccessSnapshot) -> String {
    format!(
        "gets={} rows={} inactive={} touched={} touch=[{}] probe=[{}] strided={}",
        s.gets,
        s.row_reads,
        s.inactive_skips,
        s.touched_rows,
        trimmed(&s.touch_hist),
        trimmed(&s.probe_hist),
        s.sequential + s.scattered,
    )
}

#[test]
fn serial_and_parallel_access_totals_agree() {
    let g = gnm(120, 400, 9);
    let totals = |nodes: BTreeMap<String, AccessSnapshot>| -> Vec<String> {
        nodes
            .iter()
            .map(|(node, s)| format!("{node} {}", order_insensitive(s)))
            .collect()
    };
    for (tname, t) in templates() {
        for table in TableKind::all() {
            for kernel in KernelKind::all() {
                let serial = totals(node_access(&g, &t, table, kernel, ParallelMode::Serial));
                for threads in [2, 3] {
                    for parallel in [ParallelMode::InnerLoop, ParallelMode::Hybrid] {
                        let par = with_threads(threads, || {
                            totals(node_access(&g, &t, table, kernel, parallel))
                        });
                        assert_eq!(
                            serial, par,
                            "{tname} {table:?} {kernel:?} {parallel:?} at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}
