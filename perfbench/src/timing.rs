//! Timed-operation loops shared by the workloads.

use crate::catalog::Scale;
use crate::report::{quantile, Report};
use crate::spans::{self, Spans};
use fascia_bench::perf::median;
use std::time::Instant;

/// Fewest timed operations per run, however long each takes.
const MIN_OPS: usize = 3;

/// Fewest untraced/traced pairs in a traced run.
const MIN_PAIRS: usize = 2;

/// Largest share of a traced operation's wall time that its layer spans
/// may leave uncovered.
const MAX_UNCOVERED: f64 = 0.05;

/// How many times a run repeats its set-up (`setup_s` is the median).
pub fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 9,
        Scale::Toy => 2,
    }
}

/// Wall times of a run's timed operations.
#[derive(Debug, Default)]
pub struct OpTimes {
    secs: Vec<f64>,
    failed: u64,
}

/// Runs `op(i)` for i = 0, 1, … until `seconds` have passed and at least
/// [`MIN_OPS`] ran; `op` returns whether it succeeded.
pub fn timed_ops(seconds: f64, mut op: impl FnMut(u64) -> bool) -> OpTimes {
    let start = Instant::now();
    let mut out = OpTimes::default();
    while out.secs.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let ok = op(out.secs.len() as u64);
        out.secs.push(t0.elapsed().as_secs_f64());
        out.failed += u64::from(!ok);
    }
    out
}

impl OpTimes {
    /// Reports the median operation time and the operation counts.
    pub fn report(&self, rep: &mut Report) {
        rep.set("op_s_p50", median(&self.secs), "s");
        rep.attempted += self.secs.len() as u64;
        rep.failed += self.failed;
        rep.detail_f64("ops", self.secs.len() as f64);
        rep.detail_f64("op_s_q1", quantile(&self.secs, 0.25));
        rep.detail_f64("op_s_q3", quantile(&self.secs, 0.75));
    }
}

/// Runs operations in untraced/traced pairs, alternating which runs
/// first, for `seconds` (at least [`MIN_PAIRS`] pairs). Reports
/// `trace.overhead_ratio` (traced median ÷ untraced median) and checks
/// that each traced operation's span self times add up to its wall time.
pub fn traced_pairs(
    seconds: f64,
    tr: &Spans,
    rep: &mut Report,
    mut op: impl FnMut(u64, Option<&Spans>) -> bool,
) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut next = 0u64;
    while plain.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let order = if plain.len() % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_trace in order {
            let id = next;
            next += 1;
            let t0 = Instant::now();
            let ok = op(id, with_trace.then_some(tr));
            let secs = t0.elapsed().as_secs_f64();
            rep.attempted += 1;
            rep.failed += u64::from(!ok);
            if with_trace {
                traced.push((id, secs));
            } else {
                plain.push(secs);
            }
        }
    }
    let traced_secs: Vec<f64> = traced.iter().map(|&(_, s)| s).collect();
    rep.set(
        "trace.overhead_ratio",
        median(&traced_secs) / median(&plain),
        "ratio",
    );
    check_coverage(tr, &traced, rep);
}

/// Checks that the spans of each operation cover it: the self times
/// under the operation add up to its wall time, and its own uncovered
/// self time stays under [`MAX_UNCOVERED`].
fn check_coverage(tr: &Spans, ops: &[(u64, f64)], rep: &mut Report) {
    let recs = tr.records();
    let mut worst = 0.0f64;
    for &(id, wall) in ops {
        let (layers, total) = spans::op_self_times(&recs, id);
        let uncovered = layers.get("op").copied().unwrap_or(wall) / wall;
        worst = worst.max(uncovered);
        rep.check((total - wall).abs() <= 0.02 * wall + 1e-3, || {
            format!("op {id}: span self times sum to {total:.6} s, wall {wall:.6} s")
        });
        rep.check(uncovered <= MAX_UNCOVERED, || {
            format!(
                "op {id}: {:.1}% of its wall time is outside layer spans",
                100.0 * uncovered
            )
        });
    }
    rep.detail_f64("uncovered_share_max", worst);
}
