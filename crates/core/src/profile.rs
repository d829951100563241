//! Engine-side profiler-phase resolution — the sampling-profiler
//! counterpart of the `trace` module.
//!
//! Interning a phase name takes a short mutex, so the engine does it
//! exactly once per counting run, before any iteration starts, into the
//! run's observer bundle (`observers`): with profiling absent the bundle
//! holds `None` and each site costs a single pointer check; with
//! profiling present entering a phase is one relaxed store plus one
//! release `fetch_add` into the current thread's phase slot.
//!
//! The phase names deliberately match the trace-span taxonomy
//! (`iteration`, `coloring`, `wave`, `dp.n<idx>.<kind><size>`,
//! `checkpoint.flush`) so a flamegraph and a Chrome trace of the same run
//! speak the same vocabulary. The cut-node phases additionally split into
//! `kernel.scalar` / `kernel.vectorized` (row computation) and
//! `table.build` (consuming kernel output into the chosen layout), which
//! is what the kernel A/B recipe in EXPERIMENTS.md compares.

use crate::observers::node_name;
use fascia_obs::{PhaseId, Profiler};
use fascia_template::PartitionTree;
use std::sync::Arc;

/// All profiler-phase handles one counting run needs, interned up front.
pub(crate) struct RunProf {
    pub profiler: Arc<Profiler>,
    pub iteration: PhaseId,
    pub coloring: PhaseId,
    pub wave: PhaseId,
    /// Per-subtemplate phase, indexed by partition-node id (`None` for
    /// nodes outside the unique evaluation order).
    pub node: Vec<Option<PhaseId>>,
    pub checkpoint_flush: PhaseId,
    /// Scalar cut-kernel phase (nested inside the node phase), so a
    /// flamegraph separates row computation from table construction.
    pub kernel_scalar: PhaseId,
    /// Vectorized cut-kernel phase (see `kernel` module).
    pub kernel_vectorized: PhaseId,
    /// Table-construction phase: consuming kernel output into the chosen
    /// layout.
    pub table_build: PhaseId,
}

impl RunProf {
    /// Interns every phase against `profiler` for the given partition
    /// tree. Returns `None` when profiling is absent, which is what the
    /// hot loops branch on.
    pub(crate) fn resolve(profiler: Option<&Arc<Profiler>>, pt: &PartitionTree) -> Option<Self> {
        let profiler = Arc::clone(profiler?);
        let mut node: Vec<Option<PhaseId>> = vec![None; pt.nodes().len()];
        for &idx in pt.unique_order() {
            node[idx as usize] = Some(profiler.intern(&node_name(pt, idx)));
        }
        Some(Self {
            iteration: profiler.intern("iteration"),
            coloring: profiler.intern("coloring"),
            wave: profiler.intern("wave"),
            node,
            checkpoint_flush: profiler.intern("checkpoint.flush"),
            kernel_scalar: profiler.intern("kernel.scalar"),
            kernel_vectorized: profiler.intern("kernel.vectorized"),
            table_build: profiler.intern("table.build"),
            profiler,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_template::{PartitionStrategy, Template};

    #[test]
    fn resolve_requires_a_profiler() {
        let t = Template::path(5);
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert!(RunProf::resolve(None, &pt).is_none());
        let prof = Arc::new(Profiler::new());
        let pr = RunProf::resolve(Some(&prof), &pt).unwrap();
        for &idx in pt.unique_order() {
            assert!(pr.node[idx as usize].is_some());
        }
        // Re-resolving against the same profiler reuses the intern table.
        let again = RunProf::resolve(Some(&prof), &pt).unwrap();
        assert_eq!(pr.iteration, again.iteration);
    }
}
