//! The naive dense table: `n x Nc` fully allocated.
//!
//! This is the paper's baseline memory scheme ("initializing all storage
//! regardless of need"). It has the fastest accesses (single multiply-add
//! indexing) but the worst footprint; Figures 6–7 compare it against the
//! lazy and hashed layouts.

use crate::access::{recorder_for, AccessRecorder};
use crate::{gather_slices, CountTable, RowBatch, Rows, TableKind, TableStats};
use std::sync::Arc;

/// Flat row-major `n x Nc` array of counts.
#[derive(Debug, Clone)]
pub struct DenseTable {
    n: usize,
    nc: usize,
    data: Vec<f64>,
    /// Cached per-vertex activity (any non-zero in the row), kept so the
    /// inner-loop skip check stays O(1) instead of O(Nc).
    active: Vec<bool>,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl DenseTable {
    /// Row of an active vertex, without access telemetry.
    #[inline]
    fn row(&self, v: usize) -> Option<&[f64]> {
        self.active[v].then(|| &self.data[v * self.nc..(v + 1) * self.nc])
    }
}

impl CountTable for DenseTable {
    fn from_rows(n: usize, nc: usize, rows: Rows) -> Self {
        assert_eq!(rows.len(), n, "row count must equal vertex count");
        let mut data = vec![0.0f64; n * nc];
        let mut active = vec![false; n];
        for (v, row) in rows.into_iter().enumerate() {
            if let Some(row) = row {
                assert_eq!(row.len(), nc, "row width must equal colorset count");
                let is_active = row.iter().any(|&x| x != 0.0);
                data[v * nc..(v + 1) * nc].copy_from_slice(&row);
                active[v] = is_active;
            }
        }
        Self {
            n,
            nc,
            data,
            active,
            access: recorder_for(n),
        }
    }

    fn from_batch_kind(_kind: TableKind, batch: RowBatch) -> Self {
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        let mut data = vec![0.0f64; n * nc];
        let mut active = vec![false; n];
        for v in 0..n {
            if let Some(row) = batch.row(v) {
                data[v * nc..(v + 1) * nc].copy_from_slice(row);
                // Committed rows are active by the staging contract (the
                // kernel commits only non-zero rows), matching the lazy
                // arena's slot semantics without rescanning every row.
                active[v] = true;
            }
        }
        Self {
            n,
            nc,
            data,
            active,
            access: recorder_for(n),
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_colorsets(&self) -> usize {
        self.nc
    }

    #[inline]
    fn get(&self, v: usize, cs: usize) -> f64 {
        if let Some(rec) = &self.access {
            rec.note_get(v);
        }
        self.data[v * self.nc + cs]
    }

    #[inline]
    fn vertex_active(&self, v: usize) -> bool {
        let a = self.active[v];
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
        self.data.capacity() * std::mem::size_of::<f64>() + self.active.capacity()
    }

    fn stats(&self) -> TableStats {
        TableStats {
            allocated_bytes: self.bytes(),
            // Dense pays for every row whether or not it is used.
            rows_materialized: self.n,
            nonzero_rows: self.active.iter().filter(|&&a| a).count(),
            live_entries: self.data.iter().filter(|&&x| x != 0.0).count(),
            probe: None,
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_contract;

    #[test]
    fn satisfies_table_contract() {
        check_contract::<DenseTable>();
    }

    #[test]
    fn bytes_are_full_allocation() {
        let rows: Rows = vec![None; 10];
        let t = DenseTable::from_rows(10, 5, rows);
        // Dense always pays the full n * nc doubles.
        assert!(t.bytes() >= 10 * 5 * 8);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn empty_rows_read_as_zero() {
        let t = DenseTable::from_rows(3, 2, vec![None, None, None]);
        for v in 0..3 {
            assert!(!t.vertex_active(v));
            assert_eq!(t.get(v, 0), 0.0);
            assert!(t.row_slice(v).is_none());
        }
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_row_count() {
        DenseTable::from_rows(3, 2, vec![None, None]);
    }

    #[test]
    #[should_panic]
    fn rejects_wrong_row_width() {
        DenseTable::from_rows(1, 2, vec![Some(vec![1.0].into_boxed_slice())]);
    }
}
