//! The improved lazily-materialized table, stored as a row arena.
//!
//! "We only initialize storage for a given vertex v if that vertex has a
//! value stored in it for any color set" (§III-C). Inactive vertices cost
//! one 4-byte slot; the activity check is a sentinel test. On the Portland
//! network with unlabeled templates the paper reports ~20% peak-memory
//! savings, and >90% with labels, purely from this row laziness.
//!
//! # Layout
//!
//! Earlier versions stored `Vec<Option<Box<[f64]>>>` — one heap
//! allocation per active row, scattered wherever the allocator put them.
//! The vectorized DP kernel (DESIGN.md §15) reads child rows in bulk, so
//! the layout is now a single arena:
//!
//! ```text
//! data:  [ row of v3 | row of v7 | row of v9 | ... ]   (nc doubles each,
//! slots: [ ⊥ ⊥ ⊥ 0 ⊥ ⊥ ⊥ 1 ⊥ 2 ... ]                  ascending vertex order)
//! ```
//!
//! `slots[v]` is the arena row index of vertex `v` (or a sentinel when
//! inactive), so `row_slice` is one bounds-checked slice view and
//! consecutive active rows are physically adjacent — the property the
//! colorset-major kernel's sequential sweeps rely on. A [`RowBatch`]
//! produced by that kernel already *is* this layout, so
//! [`LazyTable::from_batch_kind`] moves the arena instead of copying rows.

use crate::access::{recorder_for, AccessRecorder};
use crate::batch::{RowBatch, NO_ROW};
use crate::{gather_slices, CountTable, Rows, TableKind, TableStats};
use std::sync::Arc;

/// `from_batch_kind` keeps a staged arena's unused capacity when it is at
/// most `1 / KEEP_SLACK_DIV` of the block, and shrinks it otherwise.
const KEEP_SLACK_DIV: usize = 8;

/// Arena-backed per-vertex optional rows.
#[derive(Debug, Clone)]
pub struct LazyTable {
    nc: usize,
    /// Active rows, `nc` doubles each, in ascending vertex order.
    data: Vec<f64>,
    /// Per-vertex arena row index; `u32::MAX` marks an inactive vertex.
    slots: Vec<u32>,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl LazyTable {
    /// Arena row of an active vertex, without access telemetry.
    #[inline]
    fn row(&self, v: usize) -> Option<&[f64]> {
        match self.slots[v] {
            NO_ROW => None,
            slot => {
                let start = slot as usize * self.nc;
                Some(&self.data[start..start + self.nc])
            }
        }
    }
}

impl CountTable for LazyTable {
    fn from_rows(n: usize, nc: usize, rows: Rows) -> Self {
        assert_eq!(rows.len(), n, "row count must equal vertex count");
        let active = rows
            .iter()
            .flatten()
            .filter(|r| {
                assert_eq!(r.len(), nc, "row width must equal colorset count");
                r.iter().any(|&x| x != 0.0)
            })
            .count();
        let mut data = Vec::with_capacity(active * nc);
        let mut slots = Vec::with_capacity(n);
        let mut next = 0u32;
        for row in &rows {
            match row {
                Some(r) if r.iter().any(|&x| x != 0.0) => {
                    slots.push(next);
                    next += 1;
                    data.extend_from_slice(r);
                }
                // All-zero rows are normalized to "inactive" so every
                // layout sees the same logical content.
                _ => slots.push(NO_ROW),
            }
        }
        Self {
            nc,
            data,
            slots,
            access: recorder_for(n),
        }
    }

    fn from_batch_kind(_kind: TableKind, mut batch: RowBatch) -> Self {
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        batch.data.truncate(batch.committed * nc);
        // Return growth slack from staging only when it is worth a block of
        // its own. Shrinking splits the block in place: small allocations
        // take the split-off tail, the table's block no longer coalesces
        // back to full size when it is freed, and the next arena of that
        // full size does not fit the hole. The banded kernel's `n × nc`
        // arenas mostly miss a handful of rows; shrinking each one would
        // grow the heap by about one arena per call. A kept tail is at most
        // an eighth of the block.
        let slack = batch.data.capacity() - batch.data.len();
        if slack > batch.data.capacity() / KEEP_SLACK_DIV {
            batch.data.shrink_to_fit();
        }
        Self {
            nc,
            data: batch.data,
            slots: batch.slots,
            access: recorder_for(n),
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn num_colorsets(&self) -> usize {
        self.nc
    }

    #[inline]
    fn get(&self, v: usize, cs: usize) -> f64 {
        match self.slots[v] {
            NO_ROW => {
                if let Some(rec) = &self.access {
                    rec.note_inactive();
                }
                0.0
            }
            slot => {
                if let Some(rec) = &self.access {
                    rec.note_get(v);
                }
                self.data[slot as usize * self.nc + cs]
            }
        }
    }

    #[inline]
    fn vertex_active(&self, v: usize) -> bool {
        let a = self.slots[v] != NO_ROW;
        if !a {
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
        }
        a
    }

    #[inline]
    fn row_slice(&self, v: usize) -> Option<&[f64]> {
        let row = self.row(v);
        if let Some(rec) = &self.access {
            match row {
                Some(_) => rec.note_row_read(v),
                // A slice miss doubles as the activity check (see
                // `CountTable::has_row_slices`), so account it as one.
                None => rec.note_inactive(),
            }
        }
        row
    }

    fn gather_rows<'a>(&'a self, vs: &[u32], rows: &mut Vec<&'a [f64]>) -> usize {
        gather_slices(self.access.as_deref(), vs, rows, |v| self.row(v))
    }

    fn bytes(&self) -> usize {
        // Length-based on purpose: the arena may keep a small unused tail
        // (see `from_batch_kind`), and `projected_bytes` mirrors this
        // formula.
        self.data.len() * std::mem::size_of::<f64>() + self.slots.len() * std::mem::size_of::<u32>()
    }

    fn stats(&self) -> TableStats {
        let materialized = self.slots.iter().filter(|&&s| s != NO_ROW).count();
        TableStats {
            allocated_bytes: self.bytes(),
            // Lazy materializes exactly the active rows — that is the
            // paper's "improved" memory scheme.
            rows_materialized: materialized,
            nonzero_rows: materialized,
            live_entries: self.data.iter().filter(|&&x| x != 0.0).count(),
            probe: None,
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Lazy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTable;
    use crate::test_support::{check_contract, sample_rows};

    #[test]
    fn satisfies_table_contract() {
        check_contract::<LazyTable>();
    }

    #[test]
    fn saves_memory_vs_dense_on_sparse_rows() {
        let n = 1000;
        let nc = 64;
        // Only 10% of vertices active.
        let rows: Rows = (0..n)
            .map(|v| {
                if v % 10 == 0 {
                    Some(vec![1.0; nc].into_boxed_slice())
                } else {
                    None
                }
            })
            .collect();
        let lazy = LazyTable::from_rows(n, nc, rows.clone());
        let dense = DenseTable::from_rows(n, nc, rows);
        assert!(
            lazy.bytes() * 2 < dense.bytes(),
            "lazy {} vs dense {}",
            lazy.bytes(),
            dense.bytes()
        );
        assert_eq!(lazy.total(), dense.total());
    }

    #[test]
    fn normalizes_zero_rows_itself() {
        let rows: Rows = vec![Some(vec![0.0, 0.0].into_boxed_slice())];
        let t = LazyTable::from_rows(1, 2, rows);
        assert!(!t.vertex_active(0));
        assert!(t.row_slice(0).is_none());
    }

    #[test]
    fn matches_dense_semantics() {
        let rows = sample_rows(40, 9);
        let lazy = LazyTable::from_rows(40, 9, rows.clone());
        let dense = DenseTable::from_rows(40, 9, rows);
        for v in 0..40 {
            for cs in 0..9 {
                assert_eq!(lazy.get(v, cs), dense.get(v, cs));
            }
        }
    }

    #[test]
    fn arena_rows_are_adjacent_in_vertex_order() {
        let mut rows = sample_rows(17, 4);
        crate::prune_zero_rows(&mut rows);
        let t = LazyTable::from_rows(17, 4, rows.clone());
        let mut expect_start = 0;
        for (v, row) in rows.iter().enumerate() {
            if let Some(r) = row {
                let slice = t.row_slice(v).unwrap();
                assert_eq!(slice, &r[..]);
                // Each active row starts right where the previous ended.
                assert_eq!(
                    slice.as_ptr() as usize - t.data.as_ptr() as usize,
                    expect_start * 8
                );
                expect_start += 4;
            }
        }
    }

    #[test]
    fn from_batch_matches_from_rows() {
        let mut rows = sample_rows(23, 5);
        crate::prune_zero_rows(&mut rows);
        let mut batch = RowBatch::new(23, 5);
        for (v, row) in rows.iter().enumerate() {
            if let Some(r) = row {
                batch.stage().copy_from_slice(r);
                batch.commit(v);
            }
        }
        let a = LazyTable::from_batch_kind(TableKind::Lazy, batch);
        let b = LazyTable::from_rows(23, 5, rows);
        assert_eq!(a.bytes(), b.bytes());
        assert_eq!(a.total().to_bits(), b.total().to_bits());
        for v in 0..23 {
            assert_eq!(a.row_slice(v), b.row_slice(v), "vertex {v}");
        }
    }

    /// A banded arena that misses a few rows keeps its full block (so it
    /// is freed at the size it was allocated); one that misses many is
    /// shrunk to its rows. `bytes()` counts only the rows either way.
    #[test]
    fn from_batch_keeps_a_near_full_arena_and_shrinks_a_sparse_one() {
        use crate::{BandRows, BandedBatch, StageRows};
        let packed = |keep: fn(usize) -> bool| {
            let mut arena = BandedBatch::new(16, 3);
            let mut stagers = arena.bands(&[0..8, 8..16]);
            for v in (0..16).filter(|&v| keep(v)) {
                stagers[v / 8].stage()[0] = v as f64 + 1.0;
                stagers[v / 8].commit(v % 8);
            }
            let parts = stagers.into_iter().map(BandRows::finish).collect();
            LazyTable::from_batch_kind(TableKind::Lazy, arena.pack(parts))
        };
        let near_full = packed(|v| v != 5);
        assert_eq!(near_full.data.len(), 15 * 3);
        assert_eq!(near_full.data.capacity(), 16 * 3);
        assert_eq!(near_full.bytes(), (15 * 3) * 8 + 16 * 4);
        assert_eq!(near_full.row_slice(6), Some(&[7.0, 0.0, 0.0][..]));
        assert_eq!(near_full.row_slice(5), None);

        let sparse = packed(|v| v % 2 == 0);
        assert_eq!(sparse.data.len(), 8 * 3);
        assert_eq!(sparse.data.capacity(), 8 * 3);
        assert_eq!(sparse.bytes(), (8 * 3) * 8 + 16 * 4);
    }
}
