//! The observer bundle: every instrumentation plane of one counting run,
//! resolved once before the first iteration.
//!
//! The engine marks each boundary with one call — [`Observers::phase`]
//! for a run phase, [`Observers::node`] for a DP node — and the returned
//! [`ObsGuard`] fans the enter and the exit out to every attached plane:
//! metrics histograms (`metrics`), flight-recorder spans (`trace`),
//! profiler phases (`profile`) and allocator attribution (`mem`). Table
//! builds and releases fan out the same way. An absent plane costs one
//! pointer check per site, and no plane changes a counting result.

use crate::engine::CountConfig;
use crate::est::RunEst;
use crate::mem::RunMem;
use crate::metrics::RunMetrics;
use crate::profile::RunProf;
use crate::trace::RunTrace;
use fascia_graph::Graph;
use fascia_obs::alloc::{self, MemPhaseGuard};
use fascia_obs::{NameId, PhaseGuard, SpanTimer, TraceSpan};
use fascia_table::{CountTable, TableKind};
use fascia_template::partition::NodeKind;
use fascia_template::PartitionTree;

/// A run phase the engine marks. Each plane observes the phases its
/// taxonomy names and ignores the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Iteration,
    Coloring,
    Wave,
    CheckpointFlush,
    KernelScalar,
    KernelVectorized,
    TableBuild,
}

/// The shared per-node name `dp.n<idx>.<kind><size>` every plane files a
/// DP node under.
pub(crate) fn node_name(pt: &PartitionTree, idx: u32) -> String {
    let n = &pt.nodes()[idx as usize];
    let kind = match n.kind {
        NodeKind::Vertex => "vertex",
        NodeKind::Triangle { .. } => "triangle",
        NodeKind::Cut { .. } => "cut",
    };
    format!("dp.n{idx:02}.{kind}{}", n.size)
}

/// Every plane one run observes with; `None` marks an absent plane.
#[derive(Default)]
pub(crate) struct Observers {
    pub(crate) metrics: Option<RunMetrics>,
    pub(crate) trace: Option<RunTrace>,
    pub(crate) prof: Option<RunProf>,
    pub(crate) mem: Option<RunMem>,
    pub(crate) est: Option<RunEst>,
}

/// One observed boundary. Dropping it exits every plane in the reverse
/// of the order it entered them (fields drop in declaration order).
#[must_use = "the boundary ends when the guard drops"]
pub(crate) struct ObsGuard<'a> {
    _mem: Option<MemPhaseGuard>,
    _prof: Option<PhaseGuard<'a>>,
    _trace: Option<TraceSpan<'a>>,
    _timer: Option<SpanTimer<'a>>,
}

impl Observers {
    /// Resolves the planes `cfg` attaches against the run's partition
    /// tree (and, for the estimator, the graph's degree classes).
    pub(crate) fn resolve(cfg: &CountConfig, pt: &PartitionTree, g: &Graph) -> Self {
        Self {
            metrics: RunMetrics::resolve(cfg.metrics.as_deref(), pt),
            trace: RunTrace::resolve(cfg.tracer.as_ref(), pt),
            prof: RunProf::resolve(cfg.profiler.as_ref(), pt),
            mem: RunMem::resolve(cfg.mem.as_ref(), pt),
            est: RunEst::resolve(cfg.est.as_ref(), g),
        }
    }

    /// Enters `phase` on every plane that observes it; `arg` is the trace
    /// span's payload (iteration index, wave size, ...).
    pub(crate) fn phase(&self, phase: Phase, arg: u64) -> ObsGuard<'_> {
        use Phase::*;
        let timer = SpanTimer::start_opt(self.metrics.as_ref().and_then(|m| match phase {
            Iteration => Some(&*m.iteration_ns),
            Coloring => Some(&*m.coloring_ns),
            _ => None,
        }));
        let trace = self.trace.as_ref().and_then(|t| {
            let id = match phase {
                Iteration => t.iteration,
                Coloring => t.coloring,
                Wave => t.wave,
                CheckpointFlush => t.checkpoint_flush,
                _ => return None,
            };
            Some(t.tracer.span_arg(id, arg))
        });
        let prof = self.prof.as_ref().map(|p| {
            p.profiler.enter(match phase {
                Iteration => p.iteration,
                Coloring => p.coloring,
                Wave => p.wave,
                CheckpointFlush => p.checkpoint_flush,
                KernelScalar => p.kernel_scalar,
                KernelVectorized => p.kernel_vectorized,
                TableBuild => p.table_build,
            })
        });
        let mem = self.mem.as_ref().and_then(|m| match phase {
            Iteration => Some(alloc::enter_phase(m.iteration)),
            Coloring => Some(alloc::enter_phase(m.coloring)),
            _ => None,
        });
        ObsGuard {
            _mem: mem,
            _prof: prof,
            _trace: trace,
            _timer: timer,
        }
    }

    /// Enters the DP pass of partition node `idx` on every plane.
    pub(crate) fn node(&self, idx: usize) -> ObsGuard<'_> {
        let timer = SpanTimer::start_opt(
            self.metrics
                .as_ref()
                .and_then(|m| m.node_ns[idx].as_deref()),
        );
        let trace = self
            .trace
            .as_ref()
            .and_then(|t| Some(t.tracer.span(t.node[idx]?)));
        let prof = self
            .prof
            .as_ref()
            .and_then(|p| Some(p.profiler.enter(p.node[idx]?)));
        let mem = self
            .mem
            .as_ref()
            .and_then(|m| Some(alloc::enter_phase(m.node[idx].as_ref()?.0)));
        ObsGuard {
            _mem: mem,
            _prof: prof,
            _trace: trace,
            _timer: timer,
        }
    }

    /// Records a trace instant, if tracing is on.
    pub(crate) fn instant(&self, pick: impl FnOnce(&RunTrace) -> NameId, arg: u64) {
        if let Some(t) = &self.trace {
            t.tracer.instant(pick(t), arg);
        }
    }

    /// A DP table was built: a `table.build` instant with its bytes, a
    /// `table.fallback` instant with the ladder steps whenever a budget
    /// gate chose a layout below `preferred`, and its measured statistics
    /// into the registry.
    pub(crate) fn table_built<T: CountTable>(&self, table: &T, gated: bool, preferred: TableKind) {
        if let Some(t) = &self.trace {
            t.tracer.instant(t.table_build, table.bytes() as u64);
            if gated && table.kind() != preferred {
                let steps = preferred
                    .ladder()
                    .iter()
                    .position(|&k| k == table.kind())
                    .unwrap_or(0) as u64;
                t.tracer.instant(t.table_fallback, steps);
            }
        }
        if let Some(m) = &self.metrics {
            m.table.record(table);
        }
    }

    /// The table partition node `idx` built has had its last read: its
    /// lifetime storage and access statistics go to the mem collector.
    pub(crate) fn table_released<T: CountTable>(&self, idx: usize, table: &T) {
        if let Some(m) = &self.mem {
            if let Some((_, name)) = &m.node[idx] {
                m.collector.record(name, table);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_template::{PartitionStrategy, Template};

    #[test]
    fn node_names_describe_the_subtemplate() {
        let t = Template::path(4);
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        for &idx in pt.unique_order() {
            let name = node_name(&pt, idx);
            assert!(name.starts_with(&format!("dp.n{idx:02}.")), "{name}");
        }
    }

    #[test]
    fn absent_planes_are_no_ops() {
        let obs = Observers::default();
        let guard = obs.phase(Phase::Iteration, 0);
        assert!(guard._timer.is_none() && guard._trace.is_none());
        assert!(guard._prof.is_none() && guard._mem.is_none());
        let guard = obs.node(0);
        assert!(guard._timer.is_none() && guard._trace.is_none());
        obs.instant(|t| t.cancelled, 0);
    }
}
