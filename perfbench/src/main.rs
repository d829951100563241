//! `fascia-perfbench` — one benchmark from the DP kernel to the service.
//!
//! ```text
//! fascia-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `BENCHMARK.json` and `perfbench/README.md`) on
//! inputs generated from `--seed`, checks its outputs, and prints as the
//! last stdout line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The line before it is a detail object with
//! host provenance and numbers outside the contract. Scratch files (the
//! service spool, the span dump) go under `.bench_work/` in the current
//! directory.

// The CLI installs the counting allocator; the benchmark does the same so
// the mem plane measures what `fascia count --mem-stats` measures.
#[global_allocator]
static GLOBAL_ALLOC: fascia_obs::alloc::CountingAlloc = fascia_obs::alloc::CountingAlloc;

mod catalog;
mod count;
mod inputs;
mod ledger;
mod planes;
mod report;
mod sample;
mod spans;
mod svc;
mod timing;

use catalog::{Scale, Workload};
use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed: drives graphs, colorings and job seeds.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Where scratch files go (`.bench_work` in the current directory).
    pub work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: PathBuf::from(".bench_work"),
    })
}

/// Runs one workload and returns its report.
pub fn run(args: &Args, scale: Scale) -> Report {
    let mut rep = Report::default();
    let dir = args.work_dir.join(format!(
        "{}-{}.spool",
        args.workload.name(),
        std::process::id()
    ));
    let (w, seed, secs) = (args.workload, args.seed, args.seconds);
    if args.trace {
        let tr = Spans::new();
        match w {
            Workload::EnronU10Inner | Workload::PortlandU7HashObserved => {
                count::run_traced(w, scale, seed, secs, &tr, &mut rep)
            }
            Workload::EnronU7Sample => sample::run_traced(scale, seed, secs, &tr, &mut rep),
        }
        ledger::run(scale, seed, &dir, &tr, &mut rep);
        rep.check(tr.dropped() == 0, || {
            format!("{} spans dropped", tr.dropped())
        });
        write_spans(&args.work_dir, args, &tr, &mut rep);
    } else {
        match w {
            Workload::EnronU10Inner | Workload::PortlandU7HashObserved => {
                count::run(w, scale, seed, secs, &mut rep)
            }
            Workload::EnronU7Sample => sample::run(scale, seed, secs, &mut rep),
        }
        rep.set("rss_peak_mb", report::rss_peak_mb(), "MB");
    }
    let _ = std::fs::remove_dir_all(&dir);
    rep.check_catalog(args.trace);
    rep
}

/// Writes the traced run's spans once, at the end.
fn write_spans(work_dir: &Path, args: &Args, tr: &Spans, rep: &mut Report) {
    let path = work_dir.join(format!(
        "{}-seed{}.spans.json",
        args.workload.name(),
        args.seed
    ));
    let recs = tr.records();
    let written = std::fs::create_dir_all(work_dir)
        .and_then(|()| std::fs::write(&path, spans::to_json(&recs)));
    rep.check(written.is_ok(), || {
        format!("cannot write {}", path.display())
    });
    rep.detail_str("spans_file", path.to_str());
}

/// Host provenance from the existing `fascia_obs::registry` probes.
fn provenance(rep: &mut Report) {
    rep.detail_str("cpu_model", fascia_obs::detect_cpu_model().as_deref());
    rep.detail_str("kernel", fascia_obs::detect_kernel().as_deref());
    // `detect_git_sha` walks up to the nearest `.git`; only ask it when the
    // current directory is itself a repository, so no file outside the
    // checkout is read.
    let sha = Path::new(".git")
        .is_dir()
        .then(fascia_obs::detect_git_sha)
        .flatten();
    rep.detail_str("git_sha", sha.as_deref());
    rep.detail_f64("threads", rayon::current_num_threads() as f64);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fascia-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = run(&args, Scale::Full);
    provenance(&mut rep);
    for f in &rep.failures {
        eprintln!("fascia-perfbench: check failed: {f}");
    }
    println!("{}", rep.detail_line());
    println!("{}", rep.result_line(args.trace));
    if !rep.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_core::resilience::Json;
    use std::time::Duration;

    /// `(name, unit)` of every metric of `section` in `BENCHMARK.json`.
    fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
        let obj = doc.as_obj().expect("BENCHMARK.json is an object");
        Json::get(obj, section)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric object");
                let field = |k| Json::get(m, k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `(name, unit)` of every metric on a result line.
    fn printed(line: &str) -> Vec<(String, String)> {
        let doc = Json::parse(line).expect("result line parses");
        let obj = doc.as_obj().expect("result is an object");
        Json::get(obj, "metrics")
            .and_then(Json::as_obj)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                let unit = m
                    .as_obj()
                    .and_then(|o| Json::get(o, "unit"))
                    .and_then(Json::as_str)
                    .expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect()
    }

    /// Every workload of `BENCHMARK.json`, at toy sizes, in both modes:
    /// each declared metric is printed with its unit, and every output
    /// check passes, span coverage of traced operations included. One
    /// test, because the mem plane's switches are process-global.
    #[test]
    fn every_declared_metric_is_printed_with_its_unit() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads = Json::get(doc.as_obj().unwrap(), "workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        let work_dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        for w in workloads {
            let name = Json::get(w.as_obj().unwrap(), "name")
                .and_then(Json::as_str)
                .expect("workload name");
            let workload = Workload::parse(name).expect("declared workload exists");
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload,
                    seed: 7,
                    seconds: 0.05,
                    trace,
                    work_dir: work_dir.clone(),
                };
                let rep = run(&args, Scale::Toy);
                assert!(rep.correct(), "{name} trace={trace}: {:?}", rep.failures);
                assert_eq!(rep.failed, 0, "{name} trace={trace}");
                let mut want = declared(&doc, section);
                let mut got = printed(&rep.result_line(trace));
                want.sort();
                got.sort();
                assert_eq!(got, want, "{name} trace={trace}");
            }
        }
        let _ = std::fs::remove_dir_all(&work_dir);
    }

    /// Self times under an operation add up to its wall time, and parents
    /// follow nesting.
    #[test]
    fn span_self_times_add_up_to_the_operation() {
        let tr = Spans::new();
        let wall = {
            let t0 = std::time::Instant::now();
            let _op = spans::open(Some(&tr), "op", 3);
            for layer in ["engine", "obs"] {
                let _s = spans::open(Some(&tr), layer, 3);
                std::thread::sleep(Duration::from_millis(5));
                let _inner = spans::open(Some(&tr), "table", 3);
                std::thread::sleep(Duration::from_millis(2));
            }
            t0.elapsed().as_secs_f64()
        };
        let recs = tr.records();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].parent, None);
        assert_eq!(recs[1].parent, Some(0));
        assert_eq!(recs[2].parent, Some(1));
        assert_eq!(recs[3].parent, Some(0));
        let (layers, total) = spans::op_self_times(&recs, 3);
        assert!((total - wall).abs() < 1e-3, "{total} vs {wall}");
        assert!(layers["table"] >= 0.004 && layers["engine"] >= 0.005);
        assert!(layers["op"] < 0.002, "op self time {}", layers["op"]);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload enron-u7-sample --seed 3 --seconds 10 --trace 1",
        ));
        assert!(ok.is_ok_and(|a| a.trace && a.seed == 3));
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload enron-u7-sample --seed 3 --seconds 0 --trace 0",
            "--workload enron-u7-sample --seed 3 --seconds 10 --trace 2",
            "--workload enron-u7-sample --seconds 10 --trace 0",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
