//! Flat, arena-backed columnar tables for the negotiation data path.
//!
//! The hot loop of a session touches the same three rectangular tables
//! over and over: raw metric gains (`f64`), quantized true classes and
//! disclosed classes (`i32`). Storing them as nested `Vec`s costs one
//! allocation per flow and scatters rows across the heap; every
//! reassignment then rebuilds the whole nest (mapper gains → quantize →
//! disclose). This module stores each table as **one** flat buffer with
//! explicit `(num_flows, num_alts)` shape — rows are contiguous
//! `num_alts`-sized slices — and provides a [`TableArena`] that recycles
//! the backing buffers across reassignments, sessions and group sweeps,
//! so the steady state of the round loop allocates nothing.

/// A flat `flows × alternatives` table of raw metric gains.
///
/// `gains[flow][alt]` lives at `storage[flow * num_alts + alt]`; one
/// allocation backs the whole table and rows are contiguous slices.
/// Mappers fill a caller-provided table (see
/// [`crate::mapping::PreferenceMapper::gains`]) instead of allocating a
/// fresh nest of rows per (re)assignment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GainTable {
    storage: Vec<f64>,
    num_flows: usize,
    num_alts: usize,
}

impl GainTable {
    /// A zeroed table of the given shape.
    pub fn new(num_flows: usize, num_alts: usize) -> Self {
        Self {
            storage: vec![0.0; num_flows * num_alts],
            num_flows,
            num_alts,
        }
    }

    /// Build from rows (tests and fixed-table mappers). Every row must
    /// have the same length.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        let num_alts = rows.first().map_or(0, |r| r.as_ref().len());
        let mut storage = Vec::with_capacity(rows.len() * num_alts);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), num_alts, "ragged gain table");
            storage.extend_from_slice(row);
        }
        Self {
            storage,
            num_flows: rows.len(),
            num_alts,
        }
    }

    /// Reshape to `(num_flows, num_alts)` and zero every cell, keeping
    /// the backing allocation.
    pub fn reset(&mut self, num_flows: usize, num_alts: usize) {
        self.storage.clear();
        self.storage.resize(num_flows * num_alts, 0.0);
        self.num_flows = num_flows;
        self.num_alts = num_alts;
    }

    /// Make this table a copy of `other`, reusing the backing buffer.
    pub fn copy_from(&mut self, other: &GainTable) {
        self.storage.clear();
        self.storage.extend_from_slice(&other.storage);
        self.num_flows = other.num_flows;
        self.num_alts = other.num_alts;
    }

    /// Number of flows covered.
    #[inline]
    pub fn num_flows(&self) -> usize {
        self.num_flows
    }

    /// Number of alternatives per flow.
    #[inline]
    pub fn num_alternatives(&self) -> usize {
        self.num_alts
    }

    /// One cell.
    #[inline]
    pub fn get(&self, flow: usize, alt: usize) -> f64 {
        self.storage[flow * self.num_alts + alt]
    }

    /// Set one cell.
    #[inline]
    pub fn set(&mut self, flow: usize, alt: usize, value: f64) {
        self.storage[flow * self.num_alts + alt] = value;
    }

    /// One flow's row.
    #[inline]
    pub fn row(&self, flow: usize) -> &[f64] {
        &self.storage[flow * self.num_alts..(flow + 1) * self.num_alts]
    }

    /// One flow's row, mutably.
    #[inline]
    pub fn row_mut(&mut self, flow: usize) -> &mut [f64] {
        &mut self.storage[flow * self.num_alts..(flow + 1) * self.num_alts]
    }

    /// The flat cell buffer, row-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.storage
    }

    pub(crate) fn into_storage(self) -> Vec<f64> {
        self.storage
    }

    pub(crate) fn from_storage(mut storage: Vec<f64>, num_flows: usize, num_alts: usize) -> Self {
        storage.clear();
        storage.resize(num_flows * num_alts, 0.0);
        Self {
            storage,
            num_flows,
            num_alts,
        }
    }
}

/// A pool of retired table and index buffers.
///
/// Everything the machine allocates per session — the three preference
/// tables, the gain scratch and the candidate index's heaps and trees —
/// can be drawn from an arena at construction and returned with
/// [`crate::NegotiationMachine::recycle`]. A driver that runs many
/// sessions back to back (grouped negotiation, failure-scenario sweeps)
/// threads one arena through all of them and allocates each backing
/// buffer exactly once.
#[derive(Default)]
pub struct TableArena {
    /// Retired tables, kept whole so the pool itself stays flat (the
    /// whole point of this module is that `crates/core` holds no nested
    /// vectors); only their backing buffers matter.
    pref_bufs: Vec<crate::prefs::PrefTable>,
    gain_bufs: Vec<GainTable>,
    index_bufs: Vec<crate::index::IndexBuffers>,
}

impl TableArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed preference table of the given shape, reusing a retired
    /// buffer when one is available.
    pub fn pref_table(&mut self, num_flows: usize, num_alts: usize) -> crate::prefs::PrefTable {
        let buf = self
            .pref_bufs
            .pop()
            .map_or_else(Vec::new, crate::prefs::PrefTable::into_storage);
        crate::prefs::PrefTable::from_storage(buf, num_flows, num_alts)
    }

    /// A zeroed gain table of the given shape, reusing a retired buffer
    /// when one is available.
    pub fn gain_table(&mut self, num_flows: usize, num_alts: usize) -> GainTable {
        let buf = self
            .gain_bufs
            .pop()
            .map_or_else(Vec::new, GainTable::into_storage);
        GainTable::from_storage(buf, num_flows, num_alts)
    }

    /// Return a preference table's backing buffer to the pool. A table
    /// that never took one (the machine's re-disclosure scratch, in a
    /// session that did not reassign) has nothing to lend and is dropped.
    pub fn recycle_pref(&mut self, table: crate::prefs::PrefTable) {
        if table.has_buffer() {
            self.pref_bufs.push(table);
        }
    }

    /// Return a gain table's backing buffer to the pool.
    pub fn recycle_gain(&mut self, table: GainTable) {
        self.gain_bufs.push(table);
    }

    /// Retired candidate-index buffers, or a fresh set.
    pub(crate) fn index_buffers(&mut self) -> crate::index::IndexBuffers {
        self.index_bufs.pop().unwrap_or_default()
    }

    /// Return candidate-index buffers to the pool.
    pub(crate) fn recycle_index(&mut self, bufs: crate::index::IndexBuffers) {
        self.index_bufs.push(bufs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_table_rows_are_contiguous() {
        let mut t = GainTable::new(2, 3);
        t.set(0, 2, 1.5);
        t.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(t.get(0, 2), 1.5);
        assert_eq!(t.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(t.values(), &[0.0, 0.0, 1.5, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_matches_manual_fill() {
        let t = GainTable::from_rows(&[vec![0.0, 1.0], vec![2.0, 3.0]]);
        assert_eq!(t.num_flows(), 2);
        assert_eq!(t.num_alternatives(), 2);
        assert_eq!(t.get(1, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        GainTable::from_rows(&[vec![0.0, 1.0], vec![2.0]]);
    }

    #[test]
    fn reset_keeps_capacity_and_zeroes() {
        let mut t = GainTable::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let cap = t.values().len();
        t.reset(1, 3);
        assert_eq!(t.values(), &[0.0; 3]);
        assert!(t.values().len() >= cap.min(3));
        t.reset(2, 2);
        assert_eq!(t.num_flows(), 2);
        assert_eq!(t.num_alternatives(), 2);
        assert_eq!(t.values(), &[0.0; 4]);
    }

    #[test]
    fn arena_recycles_buffers() {
        let mut arena = TableArena::new();
        let mut g = arena.gain_table(4, 4);
        g.set(0, 0, 9.0);
        let ptr = g.values().as_ptr();
        arena.recycle_gain(g);
        // The next table of any shape reuses the same allocation, zeroed.
        let g2 = arena.gain_table(2, 2);
        assert_eq!(g2.values(), &[0.0; 4]);
        assert_eq!(g2.values().as_ptr(), ptr);

        let p = arena.pref_table(3, 2);
        assert_eq!(p.num_flows(), 3);
        assert!(p.within_range(0));
        arena.recycle_pref(p);
    }
}
