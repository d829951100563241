//! Engine-side trace-name resolution — the flight-recorder counterpart of
//! the `metrics` module.
//!
//! Interning a trace name takes a short mutex, so the engine does it
//! exactly once per counting run, before any iteration starts, into the
//! run's observer bundle (`observers`): with tracing absent the bundle
//! holds `None` and each site costs a single pointer check; with tracing
//! present each event is a lock-free push into the recording thread's
//! ring.
//!
//! # Event taxonomy
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `iteration` | span | one full color-coding iteration (arg = iteration index) |
//! | `coloring` | span | the random-coloring phase of an iteration |
//! | `wave` | span | one wave of iterations between barriers (arg = wave size) |
//! | `dp.n<idx>.<kind><size>` | span | one subtemplate's DP pass (one name per partition node) |
//! | `table.build` | instant | a DP table was materialized (arg = table bytes) |
//! | `table.fallback` | instant | the memory-budget gate degraded the layout (arg = ladder steps) |
//! | `checkpoint.flush` | span | a checkpoint file write |
//! | `checkpoint.resume` | instant | the run resumed from a checkpoint (arg = iterations replayed) |
//! | `cancelled` | instant | cooperative cancellation was observed at a barrier |
//! | `panic.retry` | instant | a poisoned iteration was retried (arg = iteration index) |
//! | `adaptive.ci_permille` | counter | running relative CI half-width, in ‰ of the estimate |
//!
//! Span `tid`s are [`fascia_obs::thread_slot`] values, so a trace's
//! per-thread tracks line up with the per-shard breakdowns of the sharded
//! counters in the same run's metrics report.

use crate::observers::node_name;
use fascia_obs::{NameId, Tracer};
use fascia_template::PartitionTree;
use std::sync::Arc;

/// All trace-name handles one counting run needs, interned up front.
pub(crate) struct RunTrace {
    pub tracer: Arc<Tracer>,
    pub iteration: NameId,
    pub coloring: NameId,
    pub wave: NameId,
    /// Per-subtemplate span name, indexed by partition-node id (`None`
    /// for nodes outside the unique evaluation order).
    pub node: Vec<Option<NameId>>,
    pub table_build: NameId,
    pub table_fallback: NameId,
    pub checkpoint_flush: NameId,
    pub checkpoint_resume: NameId,
    pub cancelled: NameId,
    pub panic_retry: NameId,
    pub adaptive_ci: NameId,
}

impl RunTrace {
    /// Interns every name against `tracer` for the given partition tree.
    /// Returns `None` when tracing is absent, which is what the hot loops
    /// branch on.
    pub(crate) fn resolve(tracer: Option<&Arc<Tracer>>, pt: &PartitionTree) -> Option<Self> {
        let tracer = Arc::clone(tracer?);
        let mut node: Vec<Option<NameId>> = vec![None; pt.nodes().len()];
        for &idx in pt.unique_order() {
            node[idx as usize] = Some(tracer.intern(&node_name(pt, idx)));
        }
        Some(Self {
            iteration: tracer.intern("iteration"),
            coloring: tracer.intern("coloring"),
            wave: tracer.intern("wave"),
            node,
            table_build: tracer.intern("table.build"),
            table_fallback: tracer.intern("table.fallback"),
            checkpoint_flush: tracer.intern("checkpoint.flush"),
            checkpoint_resume: tracer.intern("checkpoint.resume"),
            cancelled: tracer.intern("cancelled"),
            panic_retry: tracer.intern("panic.retry"),
            adaptive_ci: tracer.intern("adaptive.ci_permille"),
            tracer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_template::{PartitionStrategy, Template};

    #[test]
    fn resolve_requires_a_tracer() {
        let t = Template::path(5);
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert!(RunTrace::resolve(None, &pt).is_none());
        let tracer = Arc::new(Tracer::new());
        let tr = RunTrace::resolve(Some(&tracer), &pt).unwrap();
        for &idx in pt.unique_order() {
            assert!(tr.node[idx as usize].is_some());
        }
        // Node names describe the subtemplate.
        let id = tr.node[pt.unique_order()[0] as usize].unwrap();
        assert!(tracer.name_of(id).starts_with("dp.n"));
    }
}
