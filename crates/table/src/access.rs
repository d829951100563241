//! Opt-in access-pattern analytics for the table layouts.
//!
//! The layout decision (DESIGN.md §14) should be made from measured
//! telemetry: how often rows are touched, how long hash probe chains run
//! at lookup time, and whether the DP walks a table sequentially (cache
//! friendly) or scatters across it. Each layout owns an optional
//! [`AccessRecorder`]; when the process-wide tracking flag is off (the
//! default) the recorder is never allocated and every read path pays one
//! `Option` branch. Recording uses relaxed atomics only — it observes,
//! never participates, so counts stay bitwise identical with tracking on
//! or off.
//!
//! Recorder storage is deliberately *excluded* from [`bytes`] accounting:
//! `projected_bytes` must keep matching the built table exactly, and the
//! Figs. 6–7 memory comparisons measure the layout, not the telemetry.
//!
//! [`bytes`]: crate::CountTable::bytes

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets in the touch/probe histograms.
pub const ACCESS_BUCKETS: usize = 16;

/// Process-wide switch: when set, every table built afterwards carries an
/// [`AccessRecorder`].
static ACCESS_TRACKING: AtomicBool = AtomicBool::new(false);

/// Enables or disables access tracking for tables built *after* this call.
/// Existing tables keep (or keep lacking) their recorders.
pub fn set_access_tracking(on: bool) {
    ACCESS_TRACKING.store(on, Ordering::Relaxed);
}

/// Whether tables built right now would carry a recorder.
pub fn access_tracking_enabled() -> bool {
    ACCESS_TRACKING.load(Ordering::Relaxed)
}

/// Returns a recorder for a table of `n` vertices when tracking is on.
pub(crate) fn recorder_for(n: usize) -> Option<Arc<AccessRecorder>> {
    if access_tracking_enabled() {
        Some(Arc::new(AccessRecorder::new(n)))
    } else {
        None
    }
}

/// Relaxed-atomic access counters owned by one table instance.
///
/// All methods are safe to call concurrently from the parallel DP; the
/// counters are monotone and order-insensitive.
#[derive(Debug)]
pub struct AccessRecorder {
    gets: AtomicU64,
    inactive_skips: AtomicU64,
    row_reads: AtomicU64,
    sequential: AtomicU64,
    scattered: AtomicU64,
    last_vertex: AtomicU64,
    probe_hist: [AtomicU64; ACCESS_BUCKETS],
    touch: Box<[AtomicU32]>,
}

const NO_VERTEX: u64 = u64::MAX;

impl AccessRecorder {
    fn new(n: usize) -> Self {
        let mut touch = Vec::with_capacity(n);
        touch.resize_with(n, || AtomicU32::new(0));
        Self {
            gets: AtomicU64::new(0),
            inactive_skips: AtomicU64::new(0),
            row_reads: AtomicU64::new(0),
            sequential: AtomicU64::new(0),
            scattered: AtomicU64::new(0),
            last_vertex: AtomicU64::new(NO_VERTEX),
            probe_hist: [const { AtomicU64::new(0) }; ACCESS_BUCKETS],
            touch: touch.into_boxed_slice(),
        }
    }

    #[inline]
    fn note_stride(&self, v: usize) {
        let prev = self.last_vertex.swap(v as u64, Ordering::Relaxed);
        let seq = v as u64 == prev || (prev != NO_VERTEX && v as u64 == prev + 1);
        if seq {
            self.sequential.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scattered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One point lookup of vertex `v`.
    #[inline]
    pub(crate) fn note_get(&self, v: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.note_touch(v, 1);
        self.note_stride(v);
    }

    /// An activity check (or hashed lookup) that found the vertex inactive.
    #[inline]
    pub(crate) fn note_inactive(&self) {
        self.inactive_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// One whole-row read of vertex `v`.
    #[inline]
    pub(crate) fn note_row_read(&self, v: usize) {
        self.row_reads.fetch_add(1, Ordering::Relaxed);
        self.note_touch(v, 1);
        self.note_stride(v);
    }

    /// A hashed lookup that walked a probe chain of `chain` slots.
    #[inline]
    pub(crate) fn note_probe(&self, chain: u64) {
        self.probe_hist[probe_bucket(chain)].fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    fn note_touch(&self, v: usize, times: u32) {
        if let Some(slot) = self.touch.get(v) {
            slot.fetch_add(times, Ordering::Relaxed);
        }
    }

    /// Starts a bulk read (a whole neighborhood, or one hashed row) whose
    /// counters are kept in plain locals until [`AccessTally::flush`].
    #[inline]
    pub(crate) fn tally(&self) -> AccessTally<'_> {
        let last = self.last_vertex.load(Ordering::Relaxed);
        AccessTally {
            rec: self,
            gets: 0,
            inactive_skips: 0,
            row_reads: 0,
            sequential: 0,
            scattered: 0,
            last,
            probe_hist: [0; ACCESS_BUCKETS],
        }
    }

    /// Point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> AccessSnapshot {
        let mut touch_hist = [0u64; ACCESS_BUCKETS];
        let mut touched_rows = 0u64;
        for slot in self.touch.iter() {
            let c = slot.load(Ordering::Relaxed);
            if c > 0 {
                touched_rows += 1;
                // log2 buckets: 1, 2-3, 4-7, ... accesses per row.
                let bucket = (u32::BITS - 1 - c.leading_zeros()) as usize;
                touch_hist[bucket.min(ACCESS_BUCKETS - 1)] += 1;
            }
        }
        let mut probe_hist = [0u64; ACCESS_BUCKETS];
        for (dst, src) in probe_hist.iter_mut().zip(self.probe_hist.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        AccessSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            inactive_skips: self.inactive_skips.load(Ordering::Relaxed),
            row_reads: self.row_reads.load(Ordering::Relaxed),
            sequential: self.sequential.load(Ordering::Relaxed),
            scattered: self.scattered.load(Ordering::Relaxed),
            touched_rows,
            touch_hist,
            probe_hist,
        }
    }
}

#[inline]
fn probe_bucket(chain: u64) -> usize {
    (chain.saturating_sub(1) as usize).min(ACCESS_BUCKETS - 1)
}

/// The counters of one bulk read, tallied in plain locals and added to
/// the recorder by one [`flush`](AccessTally::flush).
///
/// Each locked read-modify-write on the shared recorder is a full
/// barrier, so recording per slot or per row serializes the prefetched
/// gather it observes. A tally pays a handful of them per call instead:
/// one per non-zero counter and probe bucket, plus one per row read for
/// its `touch` count (which stays exact). Strides are classified against
/// the recorder's last vertex as the call found it, and the call's last
/// vertex is stored back on flush; in a serial run this gives the same
/// snapshot as recording every access on its own. Concurrent calls may
/// interleave their strides differently, but never lose or double one.
pub(crate) struct AccessTally<'r> {
    rec: &'r AccessRecorder,
    gets: u64,
    inactive_skips: u64,
    row_reads: u64,
    sequential: u64,
    scattered: u64,
    last: u64,
    probe_hist: [u64; ACCESS_BUCKETS],
}

impl AccessTally<'_> {
    /// Classifies `times` consecutive accesses of vertex `v`.
    #[inline]
    fn stride(&mut self, v: usize, times: u64) {
        if times == 0 {
            return;
        }
        let v = v as u64;
        let prev = self.last;
        if v == prev || (prev != NO_VERTEX && v == prev + 1) {
            self.sequential += 1;
        } else {
            self.scattered += 1;
        }
        // Every repeat follows the same vertex.
        self.sequential += times - 1;
        self.last = v;
    }

    /// `count` activity checks that found their vertex inactive.
    #[inline]
    pub(crate) fn inactive(&mut self, count: usize) {
        self.inactive_skips += count as u64;
    }

    /// One whole-row read of vertex `v` (as [`AccessRecorder::note_row_read`]).
    #[inline]
    pub(crate) fn row_read(&mut self, v: usize) {
        self.row_reads += 1;
        self.rec.note_touch(v, 1);
        self.stride(v, 1);
    }

    /// A hashed row read of vertex `v`: one point lookup per colorset
    /// slot, `slots` in all (as that many [`AccessRecorder::note_get`]s).
    #[inline]
    pub(crate) fn row_gets(&mut self, v: usize, slots: usize) {
        self.gets += slots as u64;
        self.rec.note_touch(v, slots as u32);
        self.stride(v, slots as u64);
    }

    /// A hashed lookup that walked a probe chain of `chain` slots.
    #[inline]
    pub(crate) fn probe(&mut self, chain: u64) {
        self.probe_hist[probe_bucket(chain)] += 1;
    }

    /// Adds the tallied counters to the recorder.
    pub(crate) fn flush(self) {
        let rec = self.rec;
        let add = |counter: &AtomicU64, n: u64| {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        };
        add(&rec.gets, self.gets);
        add(&rec.inactive_skips, self.inactive_skips);
        add(&rec.row_reads, self.row_reads);
        add(&rec.sequential, self.sequential);
        add(&rec.scattered, self.scattered);
        for (counter, &n) in rec.probe_hist.iter().zip(&self.probe_hist) {
            add(counter, n);
        }
        if self.sequential + self.scattered != 0 {
            rec.last_vertex.store(self.last, Ordering::Relaxed);
        }
    }
}

/// Frozen view of a recorder, carried in [`TableStats::access`].
///
/// [`TableStats::access`]: crate::TableStats::access
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessSnapshot {
    /// Point lookups served: every [`CountTable::get`] for dense, a `get`
    /// on an active vertex for lazy and hashed (on an inactive one they
    /// count an `inactive_skip`). A hashed row read counts one lookup per
    /// colorset slot.
    ///
    /// [`CountTable::get`]: crate::CountTable::get
    pub gets: u64,
    /// Activity checks (and hashed lookups) that found the vertex inactive
    /// — the paper's O(1) skip saving, measured.
    pub inactive_skips: u64,
    /// Whole-row reads served through `row_slice`.
    pub row_reads: u64,
    /// Accesses whose vertex equaled or directly followed the previous one.
    pub sequential: u64,
    /// Accesses that jumped elsewhere in the table.
    pub scattered: u64,
    /// Rows touched at least once.
    pub touched_rows: u64,
    /// Histogram of per-row touch counts, log2 buckets (`[i]` counts rows
    /// touched `2^i ..= 2^(i+1)-1` times; the last bucket absorbs the tail).
    pub touch_hist: [u64; ACCESS_BUCKETS],
    /// Histogram of lookup-time probe-chain lengths (hashed layout only;
    /// `[i]` counts lookups that inspected `i + 1` slots, last bucket
    /// absorbs the tail).
    pub probe_hist: [u64; ACCESS_BUCKETS],
}

impl AccessSnapshot {
    /// Fraction of stride-classified accesses that were sequential
    /// (`None` when nothing was recorded).
    pub fn sequential_ratio(&self) -> Option<f64> {
        let total = self.sequential + self.scattered;
        if total == 0 {
            None
        } else {
            Some(self.sequential as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_rows;
    use crate::{AnyTable, CountTable, TableKind};

    /// One test owns the global flag end to end so parallel test threads
    /// in this binary never observe a half-configured state they assert on.
    #[test]
    fn recorders_observe_all_layouts() {
        set_access_tracking(true);
        let (n, nc) = (30, 6);
        for kind in TableKind::all() {
            let t = AnyTable::from_rows_kind(kind, n, nc, sample_rows(n, nc));
            // Sequential sweep, then a scattered revisit.
            for v in 0..n {
                let _ = t.vertex_active(v);
                let _ = t.get(v, 0);
                let _ = t.row_slice(v);
            }
            let _ = t.get(0, 1);
            let _ = t.get(n - 1, 1);
            let s = t.stats().access.expect("tracking is on");
            assert!(s.gets > 0, "{kind:?}: gets {}", s.gets);
            assert!(
                s.gets + s.inactive_skips >= n as u64,
                "{kind:?}: every vertex was visited"
            );
            assert!(s.touched_rows > 0, "{kind:?}");
            assert!(s.sequential > 0, "{kind:?}");
            assert!(s.scattered > 0, "{kind:?}");
            assert!(s.inactive_skips > 0, "{kind:?}: sample_rows has gaps");
            let hist_rows: u64 = s.touch_hist.iter().sum();
            assert_eq!(hist_rows, s.touched_rows, "{kind:?}");
            if kind == TableKind::Hash {
                assert!(s.probe_hist.iter().sum::<u64>() > 0);
            } else {
                assert_eq!(s.probe_hist.iter().sum::<u64>(), 0, "{kind:?}");
            }
        }
        // The per-neighborhood calls record what the per-row sequence they
        // replace records, call by call: an empty neighborhood, duplicate
        // and inactive neighbors (`sample_rows` leaves every third vertex
        // inactive), and strides that carry over from one call to the next
        // (6 → 7, then 9 → 9).
        let calls: [&[u32]; 7] = [
            &[],
            &[4, 4, 5, 4],
            &[2, 3, 5, 8, 11],
            &[6],
            &[7, 9],
            &[9],
            &[],
        ];
        for kind in TableKind::all() {
            let bulk = AnyTable::from_rows_kind(kind, n, nc, sample_rows(n, nc));
            let per_row = AnyTable::from_rows_kind(kind, n, nc, sample_rows(n, nc));
            for vs in calls {
                let inactive = vs.iter().filter(|&&v| v % 3 == 2).count();
                if bulk.has_row_slices() {
                    let mut rows = Vec::new();
                    assert_eq!(bulk.gather_rows(vs, &mut rows), inactive, "{kind:?} {vs:?}");
                    let expect: Vec<&[f64]> = vs
                        .iter()
                        .filter_map(|&v| per_row.row_slice(v as usize))
                        .collect();
                    assert_eq!(rows, expect, "{kind:?} {vs:?}");
                } else {
                    let mut acc = vec![0.0; nc];
                    assert_eq!(
                        bulk.add_rows_into(vs, &mut acc),
                        inactive,
                        "{kind:?} {vs:?}"
                    );
                    let mut expect = vec![0.0; nc];
                    for &v in vs {
                        if per_row.vertex_active(v as usize) {
                            for (cs, e) in expect.iter_mut().enumerate() {
                                *e += per_row.get(v as usize, cs);
                            }
                        }
                    }
                    assert_eq!(acc, expect, "{kind:?} {vs:?}");
                }
                assert_eq!(
                    bulk.stats().access,
                    per_row.stats().access,
                    "{kind:?} after {vs:?}"
                );
            }
            let s = bulk.stats().access.expect("tracking is on");
            assert!(s.sequential > 0 && s.scattered > 0 && s.inactive_skips > 0);
        }

        set_access_tracking(false);
        let t = AnyTable::from_rows_kind(TableKind::Lazy, n, nc, sample_rows(n, nc));
        assert!(t.stats().access.is_none(), "built after disabling");
    }

    #[test]
    fn snapshot_ratio_handles_empty() {
        assert_eq!(AccessSnapshot::default().sequential_ratio(), None);
        let s = AccessSnapshot {
            sequential: 3,
            scattered: 1,
            ..AccessSnapshot::default()
        };
        assert_eq!(s.sequential_ratio(), Some(0.75));
    }
}
