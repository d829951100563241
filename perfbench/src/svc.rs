//! The service probe of the traced run's ledger: the resident counting
//! service with the `fascia serve` defaults, fed on a fixed schedule,
//! then drained in bursts.
//!
//! A session runs in four steps:
//! 1. pre-seed the spool with finished job+result pairs (harness only,
//!    not timed), because a resident daemon keeps every finished job file
//!    and re-reads them on each scan;
//! 2. `Service::open`, repeated (`svc.setup_s` is the median);
//! 3. the open loop: `Service::run` as a daemon, and a feeder that starts
//!    after the first scan (so `run`'s start-up `.tmp` sweep cannot delete
//!    a staging file) and calls `Spool::submit` when each job is due;
//! 4. bursts: jobs preloaded, then drained by `Service::run` with `once`.
//!
//! Every job's result is then checked against a direct `count_template`.
//!
//! The service is not an end-to-end workload: it is bound by `fsync`
//! latency, which drifted by up to 2x between runs on the 2-core dev VM
//! (see `NOTES.md`), so its end-to-end numbers are reported here, per
//! layer, without a bound.

use crate::catalog::Scale;
use crate::inputs::derive;
use crate::ledger::timed;
use crate::report::{quantile, Report};
use crate::spans::{self, Spans};
use fascia_bench::perf::median;
use fascia_core::engine::{count_template, CountConfig};
use fascia_core::resilience::atomic_write_durable;
use fascia_core::stats::StopRule;
use fascia_obs::JobEventKind;
use fascia_svc::supervisor::parse_template;
use fascia_svc::{
    GraphPool, JobReport, JobSpec, JobStatus, MonotonicClock, Service, ServiceConfig,
    SupervisorConfig,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Graphs of the job mix (Table I names the service pool generates).
const GRAPHS: [&str; 3] = ["circuit", "hpylori", "ecoli"];

/// Templates of the job mix.
const TEMPLATES: [&str; 4] = ["path4", "U5-2", "star5", "path6"];

/// Fixed iterations per job.
const JOB_ITERATIONS: usize = 8;

/// Every fifth job stops adaptively: (epsilon, delta, max iterations).
const ADAPTIVE: (f64, f64, usize) = (0.2, 0.05, 64);

/// How long a session waits for its first scan, or for results, before
/// giving up.
const WAIT_LIMIT: Duration = Duration::from_secs(90);

/// Operation id of the service probe's spans.
const OP: u64 = 3 << 20;

/// Session sizes.
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Finished job+result pairs in the spool before the service opens.
    preseed: usize,
    /// Jobs the open-loop feeder submits.
    open_jobs: usize,
    /// Feeder rate, jobs per second.
    rate: f64,
    /// Burst drains after the open loop.
    bursts: usize,
    /// Jobs per burst.
    burst_jobs: usize,
    /// `Service::open` repetitions for `svc.setup_s`.
    setup_reps: usize,
}

impl Params {
    /// 1,000 finished jobs; an open loop of 200 jobs at 20 jobs/s (about
    /// a third of measured drain capacity), so at least 10 lie beyond the
    /// 95th percentile; then 4 bursts of 40.
    fn new(scale: Scale) -> Params {
        match scale {
            Scale::Full => Params {
                preseed: 1_000,
                open_jobs: 200,
                rate: 20.0,
                bursts: 4,
                burst_jobs: 40,
                setup_reps: 31,
            },
            Scale::Toy => Params {
                preseed: 20,
                open_jobs: 12,
                rate: 20.0,
                bursts: 2,
                burst_jobs: 5,
                setup_reps: 3,
            },
        }
    }
}

/// The `fascia serve` defaults: poll 20 ms, scan 500 ms, default backoff,
/// no chaos.
fn serve_config(once: bool) -> ServiceConfig {
    ServiceConfig {
        supervisor: SupervisorConfig::default(),
        once,
        scan_interval: Duration::from_millis(500),
        chaos: None,
    }
}

/// Job `i` of stream `stream`. Graph and template follow a fixed
/// rotation, so every run has the same mix; the job seed (its colorings)
/// derives from the workload seed.
fn job(seed: u64, stream: u64, i: usize, id: String) -> JobSpec {
    let combo = i % (GRAPHS.len() * TEMPLATES.len());
    let mut spec = JobSpec::new(
        &id,
        GRAPHS[combo / TEMPLATES.len()],
        TEMPLATES[combo % TEMPLATES.len()],
    );
    spec.iterations = JOB_ITERATIONS;
    spec.seed = derive(seed, (stream << 32) | i as u64);
    if i % 5 == 4 {
        spec.adaptive = Some(ADAPTIVE);
    }
    spec
}

/// A terminal `completed` result document for job `id`.
fn completed(id: &str) -> JobReport {
    JobReport {
        id: id.to_string(),
        status: JobStatus::Completed,
        stop_cause: Some("completed".into()),
        estimate: Some(1.0),
        ci95: None,
        iterations: JOB_ITERATIONS,
        attempts: 1,
        error: None,
        elapsed_ms: 1,
    }
}

/// Writes finished job+result pairs straight into the spool (plain
/// writes: this is harness seeding, not service work).
fn preseed(dir: &Path, seed: u64, n: usize) -> std::io::Result<()> {
    std::fs::create_dir_all(dir.join("jobs"))?;
    std::fs::create_dir_all(dir.join("results"))?;
    for i in 0..n {
        let spec = job(seed, 1, i, format!("done-{i:05}"));
        let file = format!("{}.json", spec.id);
        std::fs::write(dir.join("jobs").join(&file), spec.to_json())?;
        std::fs::write(
            dir.join("results").join(&file),
            completed(&spec.id).to_json(),
        )?;
    }
    Ok(())
}

/// Now, in Unix milliseconds (the event log's clock).
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// What a session measured.
#[derive(Debug, Default)]
struct Session {
    /// Median `Service::open` seconds.
    setup_s: f64,
    /// Open loop: due → result visible, seconds, per job.
    job_s: Vec<f64>,
    /// Open loop: `Spool::submit` seconds per job.
    submit_s: Vec<f64>,
    /// Open loop: how late the feeder submitted, seconds, worst case.
    late_max_s: f64,
    /// Open loop: largest `svc.queue.depth` the feeder saw.
    backlog_max: u64,
    /// Bursts: `Service::run` wall seconds each.
    burst_s: Vec<f64>,
    /// Bursts: job files the scans read (`ServiceSummary::jobs_seen`).
    burst_reads: usize,
    /// Bursts: pool hits (`ServiceSummary::pool_hits`, cumulative).
    pool_hits: u64,
    /// Every submitted job, in submission order.
    jobs: Vec<JobSpec>,
    /// Wall-clock submit time of each job, Unix milliseconds (the event
    /// log stamps `submitted` at first sighting, not at submission).
    submitted_ms: BTreeMap<String, u64>,
}

/// Runs one session in `dir`; spans cover its service calls.
fn session(
    p: Params,
    seed: u64,
    dir: &Path,
    tr: &Spans,
    rep: &mut Report,
) -> std::io::Result<Session> {
    let _ = std::fs::remove_dir_all(dir);
    preseed(dir, seed, p.preseed)?;
    let mut out = Session::default();
    let mut opens = Vec::new();
    for _ in 0..p.setup_reps.max(1) {
        let (svc, secs) = timed(tr, "svc", OP, || Service::open(dir, serve_config(false)));
        drop(svc?);
        opens.push(secs);
    }
    out.setup_s = median(&opens);
    timed(tr, "svc", OP, || open_loop(p, seed, dir, &mut out)).0?;
    let svc = Service::open(dir, serve_config(true))?;
    for b in 0..p.bursts {
        let batch: Vec<JobSpec> = (0..p.burst_jobs)
            .map(|i| job(seed, 3 + b as u64, i, format!("burst{b}-{i:04}")))
            .collect();
        for spec in &batch {
            svc.spool().submit(&spec.id, &spec.to_json())?;
            out.submitted_ms.insert(spec.id.clone(), unix_ms());
        }
        let (summary, secs) = timed(tr, "svc", OP, || svc.run(&MonotonicClock, None));
        out.burst_s.push(secs);
        out.burst_reads += summary.jobs_seen;
        out.pool_hits = summary.pool_hits;
        out.jobs.extend(batch);
        rep.check(summary.result_write_failures == 0, || {
            format!(
                "burst {b}: {} result writes lost",
                summary.result_write_failures
            )
        });
    }
    Ok(out)
}

/// The open loop: a daemon `Service::run`, and the feeder on this thread.
fn open_loop(p: Params, seed: u64, dir: &Path, out: &mut Session) -> std::io::Result<()> {
    let svc = Service::open(dir, serve_config(false))?;
    let stop = AtomicBool::new(false);
    let jobs: Vec<JobSpec> = (0..p.open_jobs)
        .map(|i| job(seed, 2, i, format!("open-{i:05}")))
        .collect();
    std::thread::scope(|s| {
        let daemon = s.spawn(|| svc.run(&MonotonicClock, Some(&stop)));
        let fed = feed(&svc, &jobs, p, out);
        stop.store(true, Ordering::SeqCst);
        daemon.join().expect("service thread panicked");
        fed
    })?;
    out.jobs.extend(jobs);
    Ok(())
}

/// Submits each job when due and records when its result appears.
fn feed(svc: &Service, jobs: &[JobSpec], p: Params, out: &mut Session) -> std::io::Result<()> {
    // The first scan has passed `run`'s start-up sweep once it has
    // skipped every pre-seeded job.
    let skipped = svc.metrics().counter("svc.jobs.skipped");
    let wait_start = Instant::now();
    while (skipped.get() as usize) < p.preseed {
        if wait_start.elapsed() > WAIT_LIMIT {
            return Err(std::io::Error::other("first scan never finished"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let depth = svc.metrics().gauge("svc.queue.depth");
    let interval = Duration::from_secs_f64(1.0 / p.rate);
    let t0 = Instant::now();
    let mut pending: Vec<(usize, Instant)> = Vec::new();
    let poll = |pending: &mut Vec<(usize, Instant)>, out: &mut Session| {
        let now = Instant::now();
        pending.retain(|&(i, due)| {
            let done = svc.spool().has_result(&jobs[i].id);
            if done {
                out.job_s.push((now - due).as_secs_f64());
            }
            !done
        });
        out.backlog_max = out.backlog_max.max(depth.get());
    };
    for (i, spec) in jobs.iter().enumerate() {
        // Each job is timed from when it was due, not from when it was
        // sent, so a stalled feeder cannot hide queueing.
        let due = t0 + interval * i as u32;
        while Instant::now() < due {
            poll(&mut pending, out);
            std::thread::sleep(Duration::from_millis(1));
        }
        out.late_max_s = out.late_max_s.max((Instant::now() - due).as_secs_f64());
        let s0 = Instant::now();
        svc.spool().submit(&spec.id, &spec.to_json())?;
        out.submit_s.push(s0.elapsed().as_secs_f64());
        out.submitted_ms.insert(spec.id.clone(), unix_ms());
        pending.push((i, due));
    }
    let deadline = Instant::now() + WAIT_LIMIT;
    while !pending.is_empty() && Instant::now() < deadline {
        poll(&mut pending, out);
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Checks every job: exactly one terminal event, a `completed` result,
/// and an estimate bitwise equal to a direct `count_template` of its
/// spec. Returns each job's direct engine time in seconds.
fn check_results(dir: &Path, sess: &Session, rep: &mut Report) -> Vec<f64> {
    let events = fascia_svc::events::read_events(&dir.join("events").join("events.jsonl"));
    let mut terminal: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &events {
        if matches!(
            e.kind,
            JobEventKind::Completed | JobEventKind::Degraded | JobEventKind::Failed
        ) {
            *terminal.entry(e.job.as_str()).or_default() += 1;
        }
    }
    let pool = GraphPool::new(None);
    let mut engine_s = Vec::new();
    rep.attempted += sess.jobs.len() as u64;
    for spec in &sess.jobs {
        let n = terminal.get(spec.id.as_str()).copied().unwrap_or(0);
        rep.check(n == 1, || format!("job {}: {n} terminal events", spec.id));
        let result = std::fs::read_to_string(dir.join("results").join(format!("{}.json", spec.id)))
            .map_err(|e| e.to_string())
            .and_then(|text| JobReport::from_json(&text));
        let report = match result {
            Ok(r) if r.status == JobStatus::Completed => r,
            Ok(r) => {
                rep.failed += 1;
                rep.check(false, || {
                    format!("job {}: ended {}", spec.id, r.status.name())
                });
                continue;
            }
            Err(e) => {
                rep.failed += 1;
                rep.check(false, || format!("job {}: no result ({e})", spec.id));
                continue;
            }
        };
        let t0 = Instant::now();
        let direct = direct_count(&pool, spec);
        engine_s.push(t0.elapsed().as_secs_f64());
        rep.check(
            direct.is_some_and(|d| Some(d.to_bits()) == report.estimate.map(f64::to_bits)),
            || {
                format!(
                    "job {}: estimate {:?} != direct {direct:?}",
                    spec.id, report.estimate
                )
            },
        );
    }
    engine_s
}

/// The job's estimate from a direct `count_template` with the engine
/// settings the supervisor uses.
fn direct_count(pool: &GraphPool, spec: &JobSpec) -> Option<f64> {
    let g = pool.get(&spec.graph).ok()?;
    let t = parse_template(&spec.template).ok()?;
    let rule = spec.stop_rule();
    let cfg = CountConfig {
        iterations: spec.iterations,
        seed: spec.seed,
        table: spec.table,
        parallel: spec.parallel,
        memory_budget_bytes: spec.memory_budget,
        stop: matches!(rule, StopRule::RelativeError { .. }).then_some(rule),
        ..CountConfig::default()
    };
    count_template(&g, &t, &cfg).ok().map(|r| r.estimate)
}

/// Runs a session and reports the service's metrics: the open loop and
/// bursts, the feeder, the event log, the result checks (whose direct
/// counts time the engine), a fresh graph pool and a durable write.
pub fn probe(scale: Scale, seed: u64, dir: &Path, tr: &Spans, rep: &mut Report) {
    let p = Params::new(scale);
    let sess = match session(p, seed, dir, tr, rep) {
        Ok(s) => s,
        Err(e) => {
            rep.check(false, || format!("service session failed: {e}"));
            return;
        }
    };
    rep.check(sess.job_s.len() == p.open_jobs, || {
        format!(
            "{} of {} open-loop results arrived",
            sess.job_s.len(),
            p.open_jobs
        )
    });
    let engine_s = {
        let _s = spans::open(Some(tr), "engine", OP);
        check_results(dir, &sess, rep)
    };
    rep.set("svc.setup_s", sess.setup_s, "s");
    rep.set("svc.job_ms_p50", median(&sess.job_s) * 1e3, "ms");
    rep.set("svc.job_ms_p95", quantile(&sess.job_s, 0.95) * 1e3, "ms");
    let burst_jobs = (p.bursts * p.burst_jobs) as f64;
    let burst_total: f64 = sess.burst_s.iter().sum();
    rep.set("svc.drain_jobs_per_s", burst_jobs / burst_total, "jobs/s");
    rep.set(
        "svc.spool.submit_ms_p50",
        median(&sess.submit_s) * 1e3,
        "ms",
    );
    rep.set("svc.backlog_max", sess.backlog_max as f64, "count");
    rep.set("gen.late_ms_max", sess.late_max_s * 1e3, "ms");
    event_metrics(dir, &sess, &engine_s, rep);
    rep.set(
        "svc.scan_reads_per_job",
        sess.burst_reads as f64 / burst_jobs,
        "count",
    );
    rep.set(
        "svc.pool.hit_ratio",
        sess.pool_hits as f64 / burst_jobs,
        "ratio",
    );
    let pool = GraphPool::new(None);
    let (loaded, load_s) = timed(tr, "svc", OP, || GRAPHS.iter().all(|g| pool.get(g).is_ok()));
    rep.check(loaded, || {
        "a fresh graph pool cannot load the job graphs".into()
    });
    rep.set("svc.pool.load_ms", load_s * 1e3, "ms");
    let (write_ms, _) = timed(tr, "svc", OP, || durable_write_ms(dir, 20));
    rep.set("svc.durable_write_ms", write_ms, "ms");
}

/// Queue wait (harness submit → `dequeued`), attempt time (`dequeued` →
/// terminal) and per-job event counts, from the `fascia-events/1` log.
fn event_metrics(dir: &Path, sess: &Session, engine_s: &[f64], rep: &mut Report) {
    let events = fascia_svc::events::read_events(&dir.join("events").join("events.jsonl"));
    let mut per_job: BTreeMap<&str, [Option<u64>; 3]> = sess
        .submitted_ms
        .iter()
        .map(|(id, &ms)| (id.as_str(), [Some(ms), None, None]))
        .collect();
    let (mut attempts, mut checkpoints, mut heartbeats) = (0u64, 0u64, 0u64);
    for e in &events {
        let Some(slot) = per_job.get_mut(e.job.as_str()) else {
            continue;
        };
        match e.kind {
            JobEventKind::Dequeued => slot[1] = Some(e.ts_unix_ms),
            JobEventKind::Completed | JobEventKind::Degraded | JobEventKind::Failed => {
                slot[2] = Some(e.ts_unix_ms)
            }
            JobEventKind::AttemptStarted => attempts += 1,
            JobEventKind::Checkpointed => checkpoints += 1,
            JobEventKind::HeartbeatObserved => heartbeats += 1,
            _ => {}
        }
    }
    let between = |a: usize, b: usize| -> Vec<f64> {
        per_job
            .values()
            .filter_map(|t| Some(t[b]?.saturating_sub(t[a]?) as f64))
            .collect()
    };
    let (wait, attempt) = (between(0, 1), between(1, 2));
    rep.set("svc.queue_wait_ms_p50", median(&wait), "ms");
    rep.set("svc.queue_wait_ms_p95", quantile(&wait, 0.95), "ms");
    rep.set("svc.attempt_ms_p50", median(&attempt), "ms");
    rep.set("svc.attempt_ms_p95", quantile(&attempt, 0.95), "ms");
    rep.set("svc.engine_ms_p50", median(engine_s) * 1e3, "ms");
    rep.set(
        "svc.overhead_share",
        1.0 - engine_s.iter().sum::<f64>() * 1e3 / attempt.iter().sum::<f64>(),
        "ratio",
    );
    let jobs = sess.jobs.len() as f64;
    rep.set("svc.attempts_per_job", attempts as f64 / jobs, "count");
    rep.set(
        "svc.checkpoints_per_job",
        checkpoints as f64 / jobs,
        "count",
    );
    rep.set("svc.heartbeats_per_job", heartbeats as f64 / jobs, "count");
}

/// Median latency of `atomic_write_durable` of a result-sized document
/// in the spool, in milliseconds.
fn durable_write_ms(dir: &Path, reps: usize) -> f64 {
    let doc = completed("durable-write-probe").to_json();
    let path = dir.join("results").join("durable-write-probe.json");
    let mut times = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let _ = atomic_write_durable(&path, &doc);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_file(&path);
    median(&times)
}
