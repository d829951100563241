//! The cut-node DP kernels: scalar (reference) and vectorized
//! (colorset-major batched). See DESIGN.md §15 for the full design.
//!
//! Both kernels evaluate the same factored recurrence
//!
//! ```text
//! row[C] = Σ_{Ca ⊎ Cp = C} act(v, Ca) · (Σ_{u ∈ N(v)} pas(u, Cp))
//! ```
//!
//! Both run only inside `engine::run_iteration`, the single DP driver.
//! The scalar kernel, `engine::cut_rows_for` (the reference the
//! equivalence suites check against, and the kernel `sample` and
//! `distsim` run), walks it vertex-major: for each vertex it probes
//! child-table rows one color set at a time and allocates one boxed row
//! per active vertex. The vectorized kernel here restructures the same
//! arithmetic around contiguous memory:
//!
//! 1. **Gather** — the passive child's neighbor rows are collected as
//!    contiguous slices (arena rows of the reworked layouts) and
//!    accumulated block-by-block in colorset-major order,
//! 2. **MAC** — the combine runs position-major over
//!    [`fascia_combin::PositionSplitTable`] lanes: a flat
//!    multiply-accumulate `row[i] += act[ai[i]] * pas[pi[i]]` over whole
//!    colorset ranges that the compiler autovectorizes,
//! 3. **Stage** — rows are staged into one [`RowBatch`] arena
//!    (zero per-row allocations) that table construction consumes
//!    directly.
//!
//! # Bitwise-equality contract
//!
//! For every `(vertex, colorset)` slot the vectorized kernel performs the
//! *same multiplications and additions in the same order* as the scalar
//! kernel; it only removes the `a_val != 0.0` skip (adding `+0.0` is a
//! bitwise no-op on the non-negative counts the DP produces) and hoists
//! loop structure. Counts are therefore bitwise identical, which
//! `tests/kernel_equivalence.rs` enforces across every table layout and
//! parallel mode.

use crate::engine::{Dp, Stored};
use crate::metrics::CutMetrics;
use crate::resilience::POLL_INTERVAL;
use fascia_graph::Graph;
use fascia_table::{BandDone, BandRows, BandedBatch, CountTable, RowBatch, StageRows};
use fascia_template::partition::SubNode;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::Mutex;

/// Which cut-node DP kernel the engine runs.
///
/// Both kernels produce bitwise-identical counts for a fixed seed; the
/// knob exists for A/B measurement (`--kernel` on the CLI, the kernel
/// axis of the perf suite) and as an escape hatch should a platform
/// mis-compile the batched loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// Vertex-major reference kernel: per-vertex probes, boxed rows.
    Scalar,
    /// Colorset-major batched kernel: contiguous row gathers, blocked
    /// accumulation, flat multiply-accumulate into a row arena.
    #[default]
    Vectorized,
}

impl KernelKind {
    /// Both kernels, scalar first.
    pub fn all() -> [KernelKind; 2] {
        [KernelKind::Scalar, KernelKind::Vectorized]
    }

    /// Display name used in CLI flags and perf-suite ids.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Vectorized => "vectorized",
        }
    }
}

impl std::str::FromStr for KernelKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(KernelKind::Scalar),
            "vectorized" | "vec" => Ok(KernelKind::Vectorized),
            other => Err(format!("unknown kernel '{other}' (scalar|vectorized)")),
        }
    }
}

/// Colorset-chunk width (f64 slots) of the blocked neighbor accumulation:
/// 4 KiB per chunk keeps the accumulator resident in L1 while neighbor
/// rows stream through.
const COL_BLOCK: usize = 512;

/// Per-worker scratch of the vectorized kernel, reused across vertices so
/// the hot loop never allocates.
struct Scratch<'t> {
    /// Passive-row accumulator (`nc_p` slots).
    pas_acc: Vec<f64>,
    /// Materialized active row when the child table has no contiguous
    /// rows (hash layout).
    act_buf: Vec<f64>,
    /// Gathered neighbor-row slices, in neighbor order.
    nbr_rows: Vec<&'t [f64]>,
    /// Integer color-occurrence counts for single-vertex passive children.
    cnt_buf: Vec<u32>,
    /// Local cut-counter tallies (flushed once per band).
    tally: Tally,
}

impl<'t> Scratch<'t> {
    fn new() -> Self {
        Self {
            pas_acc: Vec::new(),
            act_buf: Vec::new(),
            nbr_rows: Vec::new(),
            cnt_buf: Vec::new(),
            tally: Tally::default(),
        }
    }
}

/// Per-worker tallies of the cut counters, flushed to the shared atomic
/// [`CutMetrics`] once per band instead of once per vertex — the relaxed
/// `fetch_add`s are measurable at ~100ns/vertex loop cost. Totals (and
/// their per-thread attribution) are identical to per-vertex counting.
#[derive(Default)]
struct Tally {
    roots_visited: u64,
    roots_skipped: u64,
    neighbors_visited: u64,
    neighbors_skipped: u64,
}

impl Tally {
    fn flush(&self, cm: Option<&CutMetrics>) {
        let Some(c) = cm else { return };
        if self.roots_visited != 0 {
            c.roots_visited.add(self.roots_visited);
        }
        if self.roots_skipped != 0 {
            c.roots_skipped.add(self.roots_skipped);
        }
        if self.neighbors_visited != 0 {
            c.neighbors_visited.add(self.neighbors_visited);
        }
        if self.neighbors_skipped != 0 {
            c.neighbors_skipped.add(self.neighbors_skipped);
        }
    }
}

/// Computes the cut-node rows with the vectorized kernel, returning the
/// staged row arena. Logically identical (bitwise, see the module docs)
/// to the scalar `engine::cut_rows_for`.
pub(crate) fn cut_batch<'t, T: CountTable>(
    dp: &Dp,
    node: &SubNode,
    act: &'t Stored<T>,
    pas: &'t Stored<T>,
    coloring: &[u8],
    inner_parallel: bool,
) -> RowBatch {
    let (g, labels, ctx) = (dp.g, dp.labels, &dp.ctx);
    let nbrs = dp.cut_neighbors(node);
    let cancel = dp.cancel.as_ref();
    let cm = dp.obs.metrics.as_ref().map(|m| &m.cut);
    let (a_node, p_node) = dp.cut_children(node);
    let h = node.size as usize;
    let a = a_node.size as usize;
    let p = p_node.size as usize;
    let nc_h = ctx.nc[h];
    let nc_p = ctx.nc[p];
    let nc_a = ctx.nc[a];
    let k = ctx.k;
    let rem = if a == 1 {
        Some(&ctx.removals[&node.size][..])
    } else {
        None
    };
    let pos = if a > 1 {
        Some(&ctx.pos_splits[&(node.size, a_node.size)])
    } else {
        None
    };

    // One vertex: gather → accumulate → combine → stage. `v` is the
    // global vertex id, `slot` its id within `batch` (differs only for
    // the banded parallel path).
    let compute = |scratch: &mut Scratch<'t>, batch: &mut dyn StageRows, v: usize, slot: usize| {
        // Cooperative cancellation poll (see `triangle_rows_for`); a
        // bailed-out kernel leaves a truncated batch the caller discards.
        if v & (POLL_INTERVAL - 1) == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        // Split the scratch into disjoint field borrows so the active
        // slice (possibly `act_buf`) can coexist with the accumulator.
        let Scratch {
            pas_acc,
            act_buf,
            nbr_rows,
            cnt_buf,
            tally,
        } = scratch;
        // Active availability at v — the paper's "initialized" check.
        // Mirrors the scalar kernel exactly, including the metric counts.
        let act_slice: Option<&[f64]> = match act {
            Stored::Single { label } => {
                if let (Some(l), Some(gl)) = (label, labels) {
                    if gl[v] != *l {
                        tally.roots_skipped += 1;
                        return;
                    }
                }
                None
            }
            Stored::Table(tb) => {
                if !tb.vertex_active(v) {
                    tally.roots_skipped += 1;
                    return;
                }
                Some(match tb.row_slice(v) {
                    Some(s) => s,
                    None => {
                        // Hash layout: materialize the active row once with a
                        // batched probe (nc_a slots, one hash) instead of
                        // probing inside the MAC (nc_h · C(h,a) probes in
                        // the scalar kernel).
                        act_buf.clear();
                        act_buf.resize(nc_a, 0.0);
                        tb.add_rows_into(&[v as u32], act_buf);
                        &act_buf[..]
                    }
                })
            }
        };
        tally.roots_visited += 1;

        // Accumulate passive rows over the neighborhood. Slice-backed
        // rows are gathered first and added in colorset-major blocks;
        // a child table either has slices for every active vertex
        // (dense/lazy arenas) or for none (hash), so per-slot addition
        // order stays exactly the scalar kernel's neighbor order.
        pas_acc.clear();
        pas_acc.resize(nc_p, 0.0);
        let mut nbr_visited = 0u64;
        let mut nbr_skipped = 0u64;
        match pas {
            Stored::Single { label } => {
                // Singleton color sets rank as their color value, and every
                // neighbor contributes exactly +1.0 — so count occurrences
                // in integers (1-cycle adds, no FP dependency chains) and
                // convert once. Counts are small exact integers, so the
                // converted value is bitwise identical to summed 1.0s.
                cnt_buf.clear();
                cnt_buf.resize(nc_p, 0);
                for &u in nbrs.neighbors(v) {
                    let u = u as usize;
                    if let (Some(l), Some(gl)) = (label, labels) {
                        if gl[u] != *l {
                            nbr_skipped += 1;
                            continue;
                        }
                    }
                    cnt_buf[coloring[u] as usize] += 1;
                    nbr_visited += 1;
                }
                for (a, &c) in pas_acc.iter_mut().zip(cnt_buf.iter()) {
                    *a = c as f64;
                }
            }
            Stored::Table(tb) if tb.has_row_slices() => {
                // Slice-backed layouts (dense/lazy): one call gathers the
                // neighborhood's rows (the activity check and the row read
                // in one) and prefetches each, so their misses overlap.
                // Addition order (below) is exactly the scalar kernel's
                // neighbor order.
                nbr_rows.clear();
                nbr_skipped = tb.gather_rows(nbrs.neighbors(v), nbr_rows) as u64;
                nbr_visited = nbr_rows.len() as u64;
                if nc_p <= COL_BLOCK {
                    // Common case: the whole row is one block — skip the
                    // chunk bookkeeping. Per-slot addition order is the
                    // gathered neighbor order either way.
                    for r in nbr_rows.iter() {
                        for (d, s) in pas_acc.iter_mut().zip(*r) {
                            *d += *s;
                        }
                    }
                } else {
                    let mut c0 = 0;
                    while c0 < nc_p {
                        let c1 = (c0 + COL_BLOCK).min(nc_p);
                        for r in nbr_rows.iter() {
                            for (d, s) in pas_acc[c0..c1].iter_mut().zip(&r[c0..c1]) {
                                *d += *s;
                            }
                        }
                        c0 = c1;
                    }
                }
            }
            Stored::Table(tb) => {
                // Hash layout: no contiguous rows to gather. One call
                // hints every active neighbor's probe window, then
                // batch-probes them in neighbor order.
                let neigh = nbrs.neighbors(v);
                nbr_skipped = tb.add_rows_into(neigh, pas_acc) as u64;
                nbr_visited = (neigh.len() - nbr_skipped as usize) as u64;
            }
        }
        tally.neighbors_visited += nbr_visited;
        tally.neighbors_skipped += nbr_skipped;
        if nbr_visited == 0 {
            return;
        }

        // Combine into a staged arena row (zeroed by `stage`).
        let row = batch.stage();
        let nonzero;
        match (act_slice, rem, pos) {
            (None, Some(rem), _) => {
                // Active is the bare root vertex: the only live color set
                // for it is {color(v)} — look up C \ {color(v)} directly.
                let cv = coloring[v] as usize;
                let mut nz = false;
                for (i, slot) in row.iter_mut().enumerate() {
                    let r = rem[i * k + cv];
                    if r >= 0 {
                        let val = pas_acc[r as usize];
                        if val != 0.0 {
                            *slot = val;
                            nz = true;
                        }
                    }
                }
                nonzero = nz;
            }
            (Some(act_row), _, Some(pos)) => {
                // Position-major flat MAC: lane j of set i is the j-th
                // entry of the scalar kernel's split walk, so every slot
                // accumulates its products in the identical order.
                for j in 0..pos.splits_per_set() {
                    let (ai, pi) = pos.lane(j);
                    for ((slot, &a_idx), &p_idx) in row.iter_mut().zip(ai).zip(pi) {
                        *slot += act_row[a_idx as usize] * pas_acc[p_idx as usize];
                    }
                }
                nonzero = row.iter().any(|&x| x != 0.0);
            }
            _ => unreachable!("active-single uses removals; larger actives use splits"),
        }
        if nonzero {
            batch.commit(slot);
        }
    };

    let n = g.num_vertices();
    if inner_parallel {
        // Band the vertex range by degree weight. Workers claim bands from
        // the shim's cursor and stage rows in place, each in its band's
        // region of one shared arena; packing the bands in order
        // reproduces the serial arena exactly (rows are independent, so
        // band boundaries cannot change them).
        let bands = plan_bands(g, rayon::current_num_threads());
        let mut arena = BandedBatch::new(n, nc_h);
        let stagers: Vec<Mutex<Option<BandRows>>> = arena
            .bands(&bands)
            .into_iter()
            .map(|b| Mutex::new(Some(b)))
            .collect();
        let parts: Vec<BandDone> = (0..bands.len())
            .into_par_iter()
            .map(|b| {
                let mut rows = stagers[b]
                    .lock()
                    .expect("band stager lock is never held across a panic")
                    .take()
                    .expect("each band is claimed once");
                let mut scratch = Scratch::new();
                for v in bands[b].clone() {
                    compute(&mut scratch, &mut rows, v, v - bands[b].start);
                }
                scratch.tally.flush(cm);
                rows.finish()
            })
            .collect();
        drop(stagers); // ends the (emptied) stagers' borrow of the arena
        arena.pack(parts)
    } else {
        let mut batch = RowBatch::new(n, nc_h);
        let mut scratch = Scratch::new();
        for v in 0..n {
            compute(&mut scratch, &mut batch, v, v);
        }
        scratch.tally.flush(cm);
        batch
    }
}

/// Bands planned per worker thread. The shim's workers claim bands from a
/// shared cursor, so spare bands let a worker that drew light ones keep
/// claiming while another finishes a heavy one.
const BANDS_PER_THREAD: usize = 16;

/// Fewest vertices per band on average: below this a band's fixed costs
/// (scratch, arena, claim) stop being negligible next to its rows.
const MIN_BAND_VERTICES: usize = 64;

/// Cuts `0..n` into contiguous, non-empty vertex bands of about equal work
/// for the inner-parallel kernel. A vertex's work is `degree(v) + 1` (its
/// neighbor gather plus its own combine), so the bands follow prefix sums
/// of that weight over the CSR instead of vertex counts — on degree-skewed
/// graphs the low ids hold most of the edges.
///
/// About `BANDS_PER_THREAD × threads` bands are aimed for, but never more
/// than one per `MIN_BAND_VERTICES` vertices. A band closes once it reaches
/// the ideal share of the total weight, or early when the next vertex would
/// take it past 1.5× that share; so every band stays within 1.5× the share
/// unless it is a single vertex heavier than that on its own.
pub(crate) fn plan_bands(g: &Graph, threads: usize) -> Vec<Range<usize>> {
    let n = g.num_vertices();
    let target = (threads * BANDS_PER_THREAD)
        .min(n / MIN_BAND_VERTICES)
        .max(1);
    let share = (2 * g.num_edges() + n).div_ceil(target);
    let cap = share + share / 2;
    let mut bands = Vec::with_capacity(target + 1);
    let (mut start, mut weight) = (0, 0);
    for v in 0..n {
        let w = g.degree(v) + 1;
        if weight > 0 && weight + w > cap {
            bands.push(start..v);
            (start, weight) = (v, 0);
        }
        weight += w;
        if weight >= share {
            bands.push(start..v + 1);
            (start, weight) = (v + 1, 0);
        }
    }
    if start < n {
        bands.push(start..n);
    }
    bands
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_graph::datasets::Dataset;

    fn weight(g: &Graph, band: &Range<usize>) -> usize {
        band.clone().map(|v| g.degree(v) + 1).sum()
    }

    /// On a toy Enron-style (Barabási–Albert, degree-skewed) graph the
    /// bands tile `0..n` in order, none is empty, and none carries more
    /// than 1.5× the ideal share of the degree weight unless it is a lone
    /// vertex heavier than that.
    #[test]
    fn bands_balance_degree_weight_on_skewed_graph() {
        let g = Dataset::Enron.generate(16, 3);
        let n = g.num_vertices();
        let total = 2 * g.num_edges() + n;
        for threads in [1, 2, 3, 7] {
            let bands = plan_bands(&g, threads);
            let target = (threads * BANDS_PER_THREAD).min(n / MIN_BAND_VERTICES);
            let share = total.div_ceil(target);
            assert_eq!(bands.first().map(|b| b.start), Some(0));
            assert_eq!(bands.last().map(|b| b.end), Some(n));
            for pair in bands.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "bands must be contiguous");
            }
            for band in &bands {
                assert!(!band.is_empty(), "empty band {band:?}");
                let w = weight(&g, band);
                assert!(
                    2 * w <= 3 * share || band.len() == 1,
                    "{threads} threads: band {band:?} weighs {w}, share {share}"
                );
            }
        }
    }

    /// A hub holding most of the edges gets a band of its own; tiny
    /// graphs get one band; an empty graph gets none.
    #[test]
    fn bands_isolate_hubs_and_respect_the_floor() {
        let n = 400u32;
        let hub: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = Graph::from_edges(n as usize, &hub);
        let bands = plan_bands(&g, 2);
        assert_eq!(bands[0], 0..1);
        assert_eq!(bands.last().map(|b| b.end), Some(n as usize));
        assert!(bands.iter().all(|b| !b.is_empty()));

        let tiny = fascia_graph::gen::gnm(40, 80, 1);
        assert_eq!(plan_bands(&tiny, 8), vec![0..40]);
        assert!(plan_bands(&Graph::from_edges(0, &[]), 2).is_empty());
    }
}
