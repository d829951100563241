//! The hashed sparse table for high-selectivity templates.
//!
//! §III-C: "key = vid * Nc + I ... we can utilize a very simple hash
//! function of (key mod size)". We size the open-addressing array as a
//! small factor of the number of live entries (the paper's "factor of
//! n * Nc" with the factor chosen by occupancy), probe linearly, and keep a
//! per-vertex activity bitmap so the inner-loop skip check stays O(1).
//!
//! This wins when few (vertex, colorset) pairs are non-zero — e.g. long
//! paths on the PA road network, where Fig. 7 reports up to 90% memory
//! reduction versus the dense layout.

use crate::access::{recorder_for, AccessRecorder};
use crate::{CountTable, ProbeStats, RowBatch, Rows, TableKind, TableStats};
use std::sync::Arc;

const EMPTY: u64 = u64::MAX;

/// Open-addressing hash table keyed by `v * nc + cs`.
#[derive(Debug, Clone)]
pub struct HashCountTable {
    n: usize,
    nc: usize,
    capacity: usize,
    keys: Vec<u64>,
    vals: Vec<f64>,
    active: Vec<bool>,
    live: usize,
    probe: ProbeStats,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl HashCountTable {
    #[inline]
    fn slot_of(&self, key: u64) -> Option<usize> {
        let mut i = (key % self.capacity as u64) as usize;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
    }

    /// `slot_of` with the probe-chain length counted, for the telemetry
    /// path only — the untracked hot path keeps the leaner loop above.
    #[inline]
    fn slot_of_counted(&self, key: u64) -> (Option<usize>, u64) {
        let mut i = (key % self.capacity as u64) as usize;
        let mut chain = 1u64;
        loop {
            let k = self.keys[i];
            if k == key {
                return (Some(i), chain);
            }
            if k == EMPTY {
                return (None, chain);
            }
            chain += 1;
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
    }

    /// Adds active vertex `v`'s row into `acc`, reporting each slot's probe
    /// chain length to `chain`. The keys of one row are consecutive
    /// (`v*nc .. v*nc+nc`), and `key mod size` maps consecutive keys to
    /// consecutive home slots — so the division happens once per row and
    /// each subsequent home slot is a wrapping increment. Probe chains and
    /// results are identical to `acc.len()` separate
    /// [`CountTable::get`] calls.
    #[inline]
    fn probe_row(&self, v: usize, acc: &mut [f64], mut chain: impl FnMut(u64)) {
        let base = (v * self.nc) as u64;
        let mut home = (base % self.capacity as u64) as usize;
        for (cs, a) in acc.iter_mut().enumerate() {
            let key = base + cs as u64;
            let mut i = home;
            let mut len = 1u64;
            loop {
                let k = self.keys[i];
                if k == key {
                    *a += self.vals[i];
                    break;
                }
                if k == EMPTY {
                    break;
                }
                len += 1;
                i += 1;
                if i == self.capacity {
                    i = 0;
                }
            }
            chain(len);
            home += 1;
            if home == self.capacity {
                home = 0;
            }
        }
    }

    /// Prefetches the probe window a row's consecutive home slots land in.
    /// No-op off x86-64.
    #[inline]
    fn prefetch_window(&self, v: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let home = ((v * self.nc) as u64 % self.capacity as u64) as usize;
            // The row's nc home slots start here; one line of keys and one
            // of values covers the short chains of a half-loaded table.
            // Safety: prefetch is a hint and the indices are in bounds.
            unsafe {
                _mm_prefetch(self.keys.as_ptr().add(home).cast::<i8>(), _MM_HINT_T0);
                _mm_prefetch(self.vals.as_ptr().add(home).cast::<i8>(), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Number of live (non-zero) entries.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Load factor of the probe array.
    pub fn load_factor(&self) -> f64 {
        self.live as f64 / self.capacity as f64
    }

    /// Construction-time probe statistics (collision behavior of the
    /// paper's `key mod size` hash at this occupancy).
    pub fn probe_stats(&self) -> ProbeStats {
        self.probe
    }

    /// Inserts `val` under `key`, counting the probe chain.
    #[inline]
    fn insert(&mut self, key: u64, val: f64) {
        let mut i = (key % self.capacity as u64) as usize;
        let mut chain = 1u64;
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], key, "duplicate key");
            chain += 1;
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.probe.inserts += 1;
        self.probe.probes += chain;
        self.probe.max_probe = self.probe.max_probe.max(chain);
    }
}

impl CountTable for HashCountTable {
    fn from_rows(n: usize, nc: usize, rows: Rows) -> Self {
        assert_eq!(rows.len(), n, "row count must equal vertex count");
        let live: usize = rows
            .iter()
            .flatten()
            .map(|row| {
                assert_eq!(row.len(), nc, "row width must equal colorset count");
                row.iter().filter(|&&x| x != 0.0).count()
            })
            .sum();
        // Factor-of-two occupancy, as the paper sizes its table by a factor
        // of the live range; keep a floor to avoid degenerate mod values.
        let capacity = (2 * live).max(16) + 1;
        let mut table = Self {
            n,
            nc,
            capacity,
            keys: vec![EMPTY; capacity],
            vals: vec![0.0; capacity],
            active: vec![false; n],
            live,
            probe: ProbeStats::default(),
            access: recorder_for(n),
        };
        for (v, row) in rows.into_iter().enumerate() {
            let Some(row) = row else { continue };
            for (cs, &val) in row.iter().enumerate() {
                if val == 0.0 {
                    continue;
                }
                table.active[v] = true;
                table.insert((v * nc + cs) as u64, val);
            }
        }
        table
    }

    fn from_batch_kind(_kind: TableKind, batch: RowBatch) -> Self {
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        let live = batch.live_entries();
        let capacity = (2 * live).max(16) + 1;
        let mut table = Self {
            n,
            nc,
            capacity,
            keys: vec![EMPTY; capacity],
            vals: vec![0.0; capacity],
            active: vec![false; n],
            live,
            probe: ProbeStats::default(),
            access: recorder_for(n),
        };
        for v in 0..n {
            let Some(row) = batch.row(v) else { continue };
            for (cs, &val) in row.iter().enumerate() {
                if val == 0.0 {
                    continue;
                }
                table.active[v] = true;
                table.insert((v * nc + cs) as u64, val);
            }
        }
        table
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
        if !self.active[v] {
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
            return 0.0;
        }
        let key = (v * self.nc + cs) as u64;
        if let Some(rec) = &self.access {
            rec.note_get(v);
            let (slot, chain) = self.slot_of_counted(key);
            rec.note_probe(chain);
            return match slot {
                Some(i) => self.vals[i],
                None => 0.0,
            };
        }
        match self.slot_of(key) {
            Some(i) => self.vals[i],
            None => 0.0,
        }
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
    fn row_slice(&self, _v: usize) -> Option<&[f64]> {
        None // no contiguous rows in the hashed layout
    }

    #[inline]
    fn has_row_slices(&self) -> bool {
        false
    }

    /// Batched row accumulation over a neighborhood. The first pass counts
    /// the inactive vertices and hints every active row's probe window, so
    /// the windows load while the probes run; the second probes the active
    /// rows in the order of `vs`, one hash computation per row. With
    /// a recorder, the lookups, strides and probe chains are tallied in
    /// locals and flushed once per call.
    fn add_rows_into(&self, vs: &[u32], acc: &mut [f64]) -> usize {
        let mut skipped = 0;
        for &v in vs {
            let v = v as usize;
            if self.active[v] {
                self.prefetch_window(v);
            } else {
                skipped += 1;
            }
        }
        match &self.access {
            None => {
                for &v in vs {
                    if self.active[v as usize] {
                        self.probe_row(v as usize, acc, |_| {});
                    }
                }
            }
            Some(rec) => {
                let mut tally = rec.tally();
                tally.inactive(skipped);
                for &v in vs {
                    let v = v as usize;
                    if self.active[v] {
                        self.probe_row(v, acc, |chain| tally.probe(chain));
                        tally.row_gets(v, acc.len());
                    }
                }
                tally.flush();
            }
        }
        skipped
    }

    fn bytes(&self) -> usize {
        self.keys.capacity() * 8 + self.vals.capacity() * 8 + self.active.capacity()
    }

    fn stats(&self) -> TableStats {
        TableStats {
            allocated_bytes: self.bytes(),
            // The hash layout materializes no rows at all; what it pays for
            // is the probe array, reflected in `allocated_bytes`.
            rows_materialized: self.active.iter().filter(|&&a| a).count(),
            nonzero_rows: self.active.iter().filter(|&&a| a).count(),
            live_entries: self.live,
            probe: Some(self.probe),
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.vals.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTable;
    use crate::test_support::{check_contract, sample_rows};

    #[test]
    fn satisfies_table_contract() {
        check_contract::<HashCountTable>();
    }

    #[test]
    fn matches_dense_semantics() {
        let rows = sample_rows(57, 11);
        let hash = HashCountTable::from_rows(57, 11, rows.clone());
        let dense = DenseTable::from_rows(57, 11, rows);
        for v in 0..57 {
            for cs in 0..11 {
                assert_eq!(hash.get(v, cs), dense.get(v, cs), "v={v} cs={cs}");
            }
            assert_eq!(hash.vertex_active(v), dense.vertex_active(v));
        }
        assert!((hash.total() - dense.total()).abs() < 1e-9);
    }

    #[test]
    fn wins_big_on_high_selectivity() {
        // 1% of vertices active, one colorset each: the Fig. 7 regime.
        let n = 2000;
        let nc = 128;
        let rows: Rows = (0..n)
            .map(|v| {
                if v % 100 == 0 {
                    let mut r = vec![0.0; nc].into_boxed_slice();
                    r[v % nc] = 1.0;
                    Some(r)
                } else {
                    None
                }
            })
            .collect();
        let hash = HashCountTable::from_rows(n, nc, rows.clone());
        let dense = DenseTable::from_rows(n, nc, rows);
        assert!(
            hash.bytes() * 10 < dense.bytes(),
            "hash {} vs dense {}",
            hash.bytes(),
            dense.bytes()
        );
        assert_eq!(hash.live_entries(), 20);
        assert!(hash.load_factor() <= 0.5 + 1e-9);
    }

    #[test]
    fn empty_table() {
        let t = HashCountTable::from_rows(5, 4, vec![None; 5]);
        assert_eq!(t.live_entries(), 0);
        assert_eq!(t.total(), 0.0);
        for v in 0..5 {
            assert!(!t.vertex_active(v));
            assert_eq!(t.get(v, 3), 0.0);
        }
    }

    #[test]
    fn probes_resolve_collisions() {
        // Capacity is ~2x live; adjacent keys force probe chains. Verify
        // every key still resolves.
        let n = 64;
        let nc = 4;
        let rows: Rows = (0..n)
            .map(|v| {
                let mut r = vec![0.0; nc].into_boxed_slice();
                for cs in 0..nc {
                    r[cs] = (v * nc + cs) as f64 + 0.5;
                }
                Some(r)
            })
            .collect();
        let t = HashCountTable::from_rows(n, nc, rows);
        for v in 0..n {
            for cs in 0..nc {
                assert_eq!(t.get(v, cs), (v * nc + cs) as f64 + 0.5);
            }
        }
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;

    /// Keys that all collide modulo a small capacity still resolve.
    #[test]
    fn dense_cluster_of_keys_probes_through() {
        // One vertex, many colorsets: keys 0..nc are consecutive — the
        // worst case for linear probing at 50% load.
        let nc = 512;
        let row: Box<[f64]> = (0..nc).map(|i| (i + 1) as f64).collect();
        let t = HashCountTable::from_rows(1, nc, vec![Some(row)]);
        for cs in 0..nc {
            assert_eq!(t.get(0, cs), (cs + 1) as f64);
        }
        assert_eq!(t.live_entries(), nc);
    }

    /// Sparse huge-key space: vertex ids near u32 range keep keys in u64.
    #[test]
    fn large_vertex_ids_do_not_overflow() {
        let n = 3_000_000;
        let nc = 924; // C(12, 6)
        let mut rows: Rows = Vec::new();
        rows.resize_with(n, || None);
        let mut row = vec![0.0; nc].into_boxed_slice();
        row[nc - 1] = 42.0;
        rows[n - 1] = Some(row);
        let t = HashCountTable::from_rows(n, nc, rows);
        assert_eq!(t.get(n - 1, nc - 1), 42.0);
        assert_eq!(t.get(n - 2, nc - 1), 0.0);
        assert_eq!(t.live_entries(), 1);
    }

    #[test]
    fn totals_are_stable_under_probe_order() {
        let rows = crate::test_support::sample_rows(101, 13);
        let t1 = HashCountTable::from_rows(101, 13, rows.clone());
        let t2 = HashCountTable::from_rows(101, 13, rows);
        assert_eq!(t1.total(), t2.total());
        assert_eq!(t1.live_entries(), t2.live_entries());
    }
}
