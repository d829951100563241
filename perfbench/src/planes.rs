//! Observation planes attached the way `fascia count` attaches them, and
//! the documents the CLI would write from them.

use fascia_core::engine::CountConfig;
use fascia_core::{EstCollector, MemCollector};
use fascia_obs::{Metrics, Profiler, RunInfo, Tracer};
use std::hint::black_box;
use std::sync::Arc;

/// Which planes to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneSet {
    /// `Metrics` registry.
    pub metrics: bool,
    /// Flight-recorder `Tracer`.
    pub trace: bool,
    /// Sampling `Profiler`.
    pub profile: bool,
    /// Counting allocator, table access tracking and `MemCollector`.
    pub mem: bool,
    /// Estimator ledger `EstCollector`.
    pub est: bool,
}

impl PlaneSet {
    /// No planes.
    pub const NONE: PlaneSet = PlaneSet {
        metrics: false,
        trace: false,
        profile: false,
        mem: false,
        est: false,
    };

    /// Every plane the CLI can attach.
    pub const ALL: PlaneSet = PlaneSet {
        metrics: true,
        trace: true,
        profile: true,
        mem: true,
        est: true,
    };

    /// The single planes, by name, for per-plane overheads.
    pub const SINGLE: [(&'static str, PlaneSet); 5] = [
        (
            "metrics",
            PlaneSet {
                metrics: true,
                ..PlaneSet::NONE
            },
        ),
        (
            "trace",
            PlaneSet {
                trace: true,
                ..PlaneSet::NONE
            },
        ),
        (
            "profile",
            PlaneSet {
                profile: true,
                ..PlaneSet::NONE
            },
        ),
        (
            "mem",
            PlaneSet {
                mem: true,
                ..PlaneSet::NONE
            },
        ),
        (
            "est",
            PlaneSet {
                est: true,
                ..PlaneSet::NONE
            },
        ),
    ];
}

/// Planes attached to one counting call.
pub struct Planes {
    mem_on: bool,
    profiler: Option<Arc<Profiler>>,
}

impl Planes {
    /// Attaches `set` to `cfg`. The mem plane switches the process-global
    /// allocator counting and table access tracking on; [`Planes::finish`]
    /// (or dropping the value) switches them off again, and stops the
    /// profiler's watcher thread.
    pub fn attach(set: PlaneSet, cfg: &mut CountConfig) -> Planes {
        if set.metrics {
            cfg.metrics = Some(Arc::new(Metrics::new()));
        }
        if set.trace {
            cfg.tracer = Some(Arc::new(Tracer::new()));
        }
        let profiler = set.profile.then(|| {
            let p = Arc::new(Profiler::new());
            p.start();
            cfg.profiler = Some(Arc::clone(&p));
            p
        });
        if set.mem {
            fascia_obs::alloc::reset();
            fascia_obs::alloc::set_enabled(true);
            fascia_table::set_access_tracking(true);
            cfg.mem = Some(Arc::new(MemCollector::new()));
        }
        if set.est {
            cfg.est = Some(Arc::new(EstCollector::new()));
        }
        Planes {
            mem_on: set.mem,
            profiler,
        }
    }

    /// Stops the planes and renders every document the CLI would write
    /// for them: Chrome trace, collapsed profile, `fascia-mem/1`,
    /// `fascia-est/1` and the `fascia-obs/1` report with run metadata.
    /// Returns the trace events the engine's tracer dropped.
    pub fn finish(mut self, cfg: &CountConfig) -> u64 {
        let mut trace_dropped = 0;
        if let Some(tracer) = &cfg.tracer {
            black_box(tracer.to_chrome_json());
            trace_dropped = tracer.dropped();
        }
        if let Some(p) = self.profiler.take() {
            p.stop();
            black_box(p.collapsed());
        }
        if self.mem_on {
            let snap = fascia_obs::alloc::snapshot();
            self.switch_off();
            if let Some(mem) = &cfg.mem {
                black_box(mem.to_json(Some(&snap)));
            }
        }
        if let Some(est) = &cfg.est {
            black_box(est.to_json());
        }
        if let Some(m) = &cfg.metrics {
            let mut run = RunInfo {
                threads: rayon::current_num_threads() as u64,
                parallel: cfg.parallel.name().to_string(),
                ..RunInfo::default()
            };
            run.probe_host();
            let summary = cfg.tracer.as_ref().map(|t| t.summary_json());
            black_box(m.to_json_full(Some(&run), summary.as_deref()));
        }
        trace_dropped
    }

    fn switch_off(&mut self) {
        if let Some(p) = self.profiler.take() {
            p.stop();
        }
        if self.mem_on {
            fascia_obs::alloc::set_enabled(false);
            fascia_table::set_access_tracking(false);
            self.mem_on = false;
        }
    }
}

impl Drop for Planes {
    fn drop(&mut self) {
        self.switch_off();
    }
}
