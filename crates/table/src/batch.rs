//! Arena-staged row batches for the vectorized DP kernel.
//!
//! The scalar DP emits one `Option<Box<[f64]>>` per vertex ([`Rows`]),
//! paying one heap allocation per active vertex. The vectorized kernel
//! (DESIGN.md §15) instead stages rows into a single contiguous arena:
//! `stage()` hands out a zeroed scratch row at the arena tail, and
//! `commit(v)` keeps it as vertex `v`'s row — an uncommitted row is simply
//! overwritten by the next `stage()`. Construction of the final table then
//! consumes the arena directly (see [`crate::CountTable::from_batch_kind`]),
//! so the hot loop performs **zero** per-row allocations.
//!
//! Committed rows live in the arena in commit order; the engine commits in
//! ascending vertex order, which makes the arena identical to the
//! colorset-major layout [`crate::LazyTable`] stores — its
//! `from_batch` is a move, not a copy.
//!
//! The inner-parallel kernel fills a [`BandedBatch`] instead: each worker
//! stages its vertex band's rows in place in that band's region of one
//! shared arena, and a serial pack slides the bands together into the same
//! `RowBatch` a serial fill would produce.

use crate::Rows;
use std::ops::Range;

/// Per-vertex slot value marking "no committed row".
pub(crate) const NO_ROW: u32 = u32::MAX;

/// A growable arena of fixed-width `f64` rows with per-vertex slots.
///
/// ```
/// use fascia_table::{CountTable, LazyTable, RowBatch, TableKind};
///
/// let mut batch = RowBatch::new(4, 3);
/// let row = batch.stage();       // zeroed scratch row at the arena tail
/// row[1] = 2.0;
/// batch.commit(0);               // keep it as vertex 0's row
/// let _ = batch.stage();         // staged but never committed: discarded
/// let row = batch.stage();
/// row[2] = 5.0;
/// batch.commit(3);
/// assert_eq!(batch.active_rows(), 2);
/// assert_eq!(batch.live_entries(), 2);
///
/// let table = LazyTable::from_batch_kind(TableKind::Lazy, batch);
/// assert_eq!(table.get(0, 1), 2.0);
/// assert_eq!(table.get(3, 2), 5.0);
/// assert!(!table.vertex_active(1));
/// ```
#[derive(Debug, Clone)]
pub struct RowBatch {
    n: usize,
    nc: usize,
    /// Committed rows (`committed * nc` doubles), plus at most one staged
    /// row at the tail.
    pub(crate) data: Vec<f64>,
    /// Per-vertex arena row index, [`NO_ROW`] when the vertex has none.
    pub(crate) slots: Vec<u32>,
    pub(crate) committed: usize,
}

impl RowBatch {
    /// An empty batch for `n` vertices with `nc`-slot rows.
    pub fn new(n: usize, nc: usize) -> Self {
        Self {
            n,
            nc,
            data: Vec::new(),
            slots: vec![NO_ROW; n],
            committed: 0,
        }
    }

    /// Number of vertices this batch covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Row width (color-set slots per vertex).
    #[inline]
    pub fn num_colorsets(&self) -> usize {
        self.nc
    }

    /// A zeroed scratch row at the arena tail. The row becomes permanent
    /// only on [`RowBatch::commit`]; calling `stage` again first reuses
    /// (and re-zeroes) the same storage.
    #[inline]
    pub fn stage(&mut self) -> &mut [f64] {
        let start = self.committed * self.nc;
        if self.data.len() < start + self.nc {
            // Freshly grown storage is already zero; only a reused
            // (staged-but-discarded) row needs explicit re-zeroing.
            self.data.resize(start + self.nc, 0.0);
            &mut self.data[start..start + self.nc]
        } else {
            let row = &mut self.data[start..start + self.nc];
            row.fill(0.0);
            row
        }
    }

    /// Commits the currently staged row as vertex `v`'s row.
    ///
    /// # Panics
    /// Panics if `v` is out of range, already has a row, or nothing was
    /// staged since the last commit.
    #[inline]
    pub fn commit(&mut self, v: usize) {
        assert!(
            self.data.len() >= (self.committed + 1) * self.nc,
            "commit without a staged row"
        );
        assert_eq!(self.slots[v], NO_ROW, "vertex {v} committed twice");
        self.slots[v] = self.committed as u32;
        self.committed += 1;
    }

    /// Number of committed rows.
    #[inline]
    pub fn active_rows(&self) -> usize {
        self.committed
    }

    /// Non-zero entries across committed rows (memory-budget projection
    /// input; scans the arena).
    pub fn live_entries(&self) -> usize {
        self.data[..self.committed * self.nc]
            .iter()
            .filter(|&&x| x != 0.0)
            .count()
    }

    /// The committed row of vertex `v`, if any.
    #[inline]
    pub fn row(&self, v: usize) -> Option<&[f64]> {
        match self.slots[v] {
            NO_ROW => None,
            slot => {
                let start = slot as usize * self.nc;
                Some(&self.data[start..start + self.nc])
            }
        }
    }

    /// Converts to the boxed per-vertex representation (the compatibility
    /// path behind [`crate::CountTable::from_batch_kind`]'s default).
    pub fn into_rows(self) -> Rows {
        let Self {
            n, nc, data, slots, ..
        } = self;
        (0..n)
            .map(|v| match slots[v] {
                NO_ROW => None,
                slot => {
                    let start = slot as usize * nc;
                    Some(data[start..start + nc].to_vec().into_boxed_slice())
                }
            })
            .collect()
    }
}

/// Where the DP kernel stages its rows: a whole [`RowBatch`], or one band
/// of a [`BandedBatch`] filled by a parallel worker. The methods mean what
/// [`RowBatch::stage`] and [`RowBatch::commit`] mean; a band's vertex ids
/// count from its first vertex.
pub trait StageRows {
    /// A zeroed scratch row at the tail, kept only on `commit`.
    fn stage(&mut self) -> &mut [f64];

    /// Commits the staged row as vertex `v`'s row.
    fn commit(&mut self, v: usize);
}

impl StageRows for RowBatch {
    #[inline]
    fn stage(&mut self) -> &mut [f64] {
        RowBatch::stage(self)
    }

    #[inline]
    fn commit(&mut self, v: usize) {
        RowBatch::commit(self, v)
    }
}

/// A [`RowBatch`] filled band by band, in parallel, inside one arena.
///
/// The arena is zeroed `n × nc` slots up front, so every band's region is
/// its worst case (a row per band vertex) and no band ever regrows or
/// copies. Zeroed pages that no row is staged into are never touched, so
/// they cost address space, not memory. [`BandedBatch::bands`] hands out
/// one [`BandRows`] stager per band; [`BandedBatch::pack`] then slides
/// each band's committed rows down behind the previous band's, in band
/// order, which makes the result identical to a serial fill of `0..n`.
///
/// ```
/// use fascia_table::{BandedBatch, StageRows};
///
/// let mut arena = BandedBatch::new(4, 2);
/// let mut stagers = arena.bands(&[0..1, 1..4]);
/// stagers[0].stage()[0] = 1.0;
/// stagers[0].commit(0);
/// stagers[1].stage()[1] = 3.0;
/// stagers[1].commit(2); // global vertex 3
/// let parts = stagers.into_iter().map(|b| b.finish()).collect();
/// let batch = arena.pack(parts);
/// assert_eq!(batch.active_rows(), 2);
/// assert_eq!(batch.row(3), Some(&[0.0, 3.0][..]));
/// assert_eq!(batch.row(1), None);
/// ```
#[derive(Debug)]
pub struct BandedBatch {
    n: usize,
    nc: usize,
    data: Vec<f64>,
}

impl BandedBatch {
    /// A zeroed arena for `n` vertices with `nc`-slot rows.
    pub fn new(n: usize, nc: usize) -> Self {
        Self {
            n,
            nc,
            data: vec![0.0; n * nc],
        }
    }

    /// One stager per band, each over its own region of the arena.
    ///
    /// # Panics
    /// Panics unless `bands` tile `0..n` contiguously, in order.
    pub fn bands(&mut self, bands: &[Range<usize>]) -> Vec<BandRows<'_>> {
        let nc = self.nc;
        let mut rest = &mut self.data[..];
        let mut next = 0;
        let mut out = Vec::with_capacity(bands.len());
        for band in bands {
            assert_eq!(band.start, next, "bands must tile 0..n in order");
            let (region, tail) = std::mem::take(&mut rest).split_at_mut(band.len() * nc);
            rest = tail;
            next = band.end;
            out.push(BandRows {
                nc,
                start: band.start,
                data: region,
                slots: vec![NO_ROW; band.len()],
                committed: 0,
                staged: false,
            });
        }
        assert_eq!(next, self.n, "bands must cover every vertex");
        out
    }

    /// Packs the bands' committed rows, given in band order, into one
    /// batch over `0..n`.
    ///
    /// # Panics
    /// Panics unless `parts` tile `0..n` contiguously, in order.
    pub fn pack(self, parts: Vec<BandDone>) -> RowBatch {
        let Self { n, nc, mut data } = self;
        let mut slots = Vec::with_capacity(n);
        let mut committed = 0;
        for part in parts {
            assert_eq!(part.start, slots.len(), "bands must tile 0..n in order");
            // Rows only ever move down: the rows committed so far never
            // outnumber the vertices before this band.
            let src = part.start * nc;
            if src != committed * nc {
                data.copy_within(src..src + part.committed * nc, committed * nc);
            }
            slots.extend(part.slots.iter().map(|&s| match s {
                NO_ROW => NO_ROW,
                s => s + committed as u32,
            }));
            committed += part.committed;
        }
        assert_eq!(slots.len(), n, "bands must cover every vertex");
        data.truncate(committed * nc);
        RowBatch {
            n,
            nc,
            data,
            slots,
            committed,
        }
    }
}

/// One band's stager inside a [`BandedBatch`]: rows are staged in place in
/// the band's zeroed region, in commit order.
#[derive(Debug)]
pub struct BandRows<'a> {
    nc: usize,
    /// First global vertex of the band.
    start: usize,
    data: &'a mut [f64],
    /// Per band-vertex row index within `data`, [`NO_ROW`] when none.
    slots: Vec<u32>,
    committed: usize,
    /// Whether the row at `committed` holds a staged row.
    staged: bool,
}

impl BandRows<'_> {
    /// Ends staging; the returned record is what [`BandedBatch::pack`]
    /// needs from this band.
    pub fn finish(self) -> BandDone {
        BandDone {
            start: self.start,
            slots: self.slots,
            committed: self.committed,
        }
    }
}

impl StageRows for BandRows<'_> {
    #[inline]
    fn stage(&mut self) -> &mut [f64] {
        let start = self.committed * self.nc;
        let row = &mut self.data[start..start + self.nc];
        // Always written, even though the region starts zeroed: the kernel
        // accumulates (reads, then writes) into the row, and a read that
        // first touches a fresh page maps the shared zero page, costing a
        // second fault at the write. Writing first takes one fault, and
        // re-zeroes a discarded staged row.
        row.fill(0.0);
        self.staged = true;
        row
    }

    #[inline]
    fn commit(&mut self, v: usize) {
        assert!(self.staged, "commit without a staged row");
        assert_eq!(self.slots[v], NO_ROW, "vertex {v} committed twice");
        self.slots[v] = self.committed as u32;
        self.committed += 1;
        self.staged = false;
    }
}

/// A finished band of a [`BandedBatch`]: its first vertex, its per-vertex
/// row slots and its committed row count.
#[derive(Debug)]
pub struct BandDone {
    start: usize,
    slots: Vec<u32>,
    committed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_commit_roundtrip() {
        let mut b = RowBatch::new(5, 2);
        b.stage()[0] = 1.0;
        b.commit(1);
        b.stage()[1] = 9.0; // never committed
        let r = b.stage();
        assert_eq!(r, &[0.0, 0.0], "stage re-zeroes discarded rows");
        r[1] = 3.0;
        b.commit(4);
        assert_eq!(b.active_rows(), 2);
        assert_eq!(b.live_entries(), 2);
        assert_eq!(b.row(1), Some(&[1.0, 0.0][..]));
        assert_eq!(b.row(4), Some(&[0.0, 3.0][..]));
        assert_eq!(b.row(0), None);
        let rows = b.into_rows();
        assert!(rows[0].is_none());
        assert_eq!(rows[1].as_deref(), Some(&[1.0, 0.0][..]));
    }

    #[test]
    #[should_panic]
    fn commit_without_stage_panics() {
        let mut b = RowBatch::new(3, 2);
        b.commit(0);
    }

    #[test]
    #[should_panic]
    fn double_commit_panics() {
        let mut b = RowBatch::new(3, 2);
        b.stage();
        b.commit(0);
        b.stage();
        b.commit(0);
    }

    /// Bands staged in place and packed build the same table as one
    /// serial fill: same rows, same `bytes()`, same arena.
    #[test]
    fn banded_fill_matches_serial_fill() {
        use crate::{CountTable, LazyTable, TableKind};
        let keep = |v: usize| v % 3 != 1;
        let mut serial = RowBatch::new(9, 2);
        let mut arena = BandedBatch::new(9, 2);
        let bands = [0..2, 2..3, 3..7, 7..9];
        let mut stagers = arena.bands(&bands);
        for (band, stager) in bands.iter().zip(stagers.iter_mut()) {
            for v in band.clone() {
                // Every vertex stages; only some commit, so discarded
                // rows must be re-zeroed on both paths.
                serial.stage()[v % 2] = v as f64 + 1.0;
                stager.stage()[v % 2] = v as f64 + 1.0;
                if keep(v) {
                    serial.commit(v);
                    stager.commit(v - band.start);
                }
            }
        }
        let parts = stagers.into_iter().map(BandRows::finish).collect();
        let packed = arena.pack(parts);
        assert_eq!(packed.active_rows(), serial.active_rows());
        for v in 0..9 {
            assert_eq!(packed.row(v), serial.row(v), "vertex {v}");
        }
        assert_eq!(packed.data, serial.data[..serial.committed * 2]);
        let a = LazyTable::from_batch_kind(TableKind::Lazy, packed);
        let b = LazyTable::from_batch_kind(TableKind::Lazy, serial);
        assert_eq!(a.bytes(), b.bytes());
        for v in 0..9 {
            for c in 0..2 {
                assert_eq!(a.get(v, c).to_bits(), b.get(v, c).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "bands must cover every vertex")]
    fn bands_must_cover_the_arena() {
        let mut arena = BandedBatch::new(5, 2);
        arena.bands(&[0..2, 2..4]);
    }
}
