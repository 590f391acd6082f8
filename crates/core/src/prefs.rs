//! Opaque preference classes and quantization.
//!
//! Preferences are integers in `[-P, P]` (the paper uses `P = 10` and
//! notes larger ranges add nothing). Class 0 is the flow's *default*
//! alternative; positive classes are better-than-default, negative worse.
//!
//! The mapping from an ISP's internal metric must **compose over
//! addition** (paper §4, step 1): an ISP should accept two class `-1`
//! alternatives to win one class `+3` alternative. A per-flow
//! normalization would break that (a `-1` on one flow could hide a much
//! larger real loss than a `+3` gain on another), so [`quantize`] applies
//! one *global* linear scale per ISP per mapping round: the largest
//! absolute metric delta maps to ±P and everything else scales
//! proportionally.
//!
//! Tables are stored flat ([`crate::arena`]): one `Vec<i32>` with an
//! explicit `(num_flows, num_alts)` shape, so rows are contiguous
//! slices, the rectangular invariant is structural (a row's length
//! cannot be changed through [`PrefTable::row_mut`]), and the backing
//! buffer can be recycled through a [`crate::arena::TableArena`].

use crate::arena::GainTable;
use nexit_topology::IcxId;
use std::hash::{Hash, Hasher};

/// A preference table for one ISP over one negotiated flow set:
/// `prefs[local_flow][alternative]` is the preference class, stored
/// row-major in one flat buffer.
///
/// "Local flow" indices are positions within the *negotiated subset* (see
/// [`crate::SessionInput`]), not global [`nexit_routing::FlowId`]s.
#[derive(Debug, Clone, Eq)]
pub struct PrefTable {
    storage: Vec<i32>,
    num_flows: usize,
    num_alts: usize,
}

impl PartialEq for PrefTable {
    fn eq(&self, other: &Self) -> bool {
        // Empty tables compare equal regardless of their nominal
        // alternative count (matching the historical rows-based
        // comparison, where an empty table had no rows to disagree on).
        self.num_flows == other.num_flows
            && (self.num_flows == 0
                || (self.num_alts == other.num_alts && self.storage == other.storage))
    }
}

impl Hash for PrefTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // What `eq` compares, and nothing more: an empty table hashes its
        // row count alone.
        self.num_flows.hash(state);
        if self.num_flows > 0 {
            self.num_alts.hash(state);
            self.storage.hash(state);
        }
    }
}

impl PrefTable {
    /// Build from raw rows. Every row must have the same number of
    /// alternatives.
    pub fn from_rows<R: AsRef<[i32]>>(rows: &[R]) -> Self {
        let num_alts = rows.first().map_or(0, |r| r.as_ref().len());
        let mut storage = Vec::with_capacity(rows.len() * num_alts);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), num_alts, "ragged preference table");
            storage.extend_from_slice(row);
        }
        Self {
            storage,
            num_flows: rows.len(),
            num_alts,
        }
    }

    /// An all-zero (indifferent) table.
    pub fn zero(num_flows: usize, num_alternatives: usize) -> Self {
        Self {
            storage: vec![0; num_flows * num_alternatives],
            num_flows,
            num_alts: num_alternatives,
        }
    }

    /// Reshape to `(num_flows, num_alts)` and zero every class, keeping
    /// the backing allocation.
    pub fn reset(&mut self, num_flows: usize, num_alts: usize) {
        self.storage.clear();
        self.storage.resize(num_flows * num_alts, 0);
        self.num_flows = num_flows;
        self.num_alts = num_alts;
    }

    /// Reshape to `(num_flows, num_alts)` and fill the cells row by row
    /// from `classes`, keeping the backing allocation; cells `classes`
    /// does not reach are zero.
    pub fn refill(
        &mut self,
        num_flows: usize,
        num_alts: usize,
        classes: impl Iterator<Item = i32>,
    ) {
        let cells = num_flows * num_alts;
        self.storage.clear();
        self.storage.extend(classes.take(cells));
        self.storage.resize(cells, 0);
        self.num_flows = num_flows;
        self.num_alts = num_alts;
    }

    /// Make this table a copy of `other`, reusing the backing buffer.
    pub fn copy_from(&mut self, other: &PrefTable) {
        self.storage.clear();
        self.storage.extend_from_slice(&other.storage);
        self.num_flows = other.num_flows;
        self.num_alts = other.num_alts;
    }

    /// Overwrite each row `live` marks with the same row of `other`, a
    /// table of this shape; unmarked rows stay as they are.
    pub(crate) fn copy_live_rows(&mut self, other: &PrefTable, live: &[bool]) {
        debug_assert_eq!(
            (self.num_flows, self.storage.len(), live.len()),
            (other.num_flows, other.storage.len(), other.num_flows)
        );
        let width = self.num_alts.max(1); // a zero-width table has no cells
        let rows = self.storage.chunks_exact_mut(width);
        let theirs = other.storage.chunks_exact(width);
        for ((row, their), _) in rows.zip(theirs).zip(live).filter(|(_, &live)| live) {
            row.copy_from_slice(their);
        }
    }

    /// Overwrite the rows `live` marks, in flow order, with the rows of
    /// `packed` — one row per marked flow; unmarked rows stay as they
    /// are.
    pub(crate) fn scatter_live_rows(&mut self, packed: &PrefTable, live: &[bool]) {
        debug_assert_eq!(
            (self.num_flows, self.num_alts),
            (live.len(), packed.num_alts)
        );
        debug_assert_eq!(packed.num_flows, live.iter().filter(|&&live| live).count());
        let width = self.num_alts.max(1); // a zero-width table has no cells
        let rows = self.storage.chunks_exact_mut(width);
        let mut packed = packed.storage.chunks_exact(width);
        for (row, _) in rows.zip(live).filter(|(_, &live)| live) {
            row.copy_from_slice(packed.next().expect("one packed row per live flow"));
        }
    }

    /// Whether the table owns a heap buffer (of any size).
    pub(crate) fn has_buffer(&self) -> bool {
        self.storage.capacity() > 0
    }

    pub(crate) fn into_storage(self) -> Vec<i32> {
        self.storage
    }

    pub(crate) fn from_storage(mut storage: Vec<i32>, num_flows: usize, num_alts: usize) -> Self {
        storage.clear();
        storage.resize(num_flows * num_alts, 0);
        Self {
            storage,
            num_flows,
            num_alts,
        }
    }

    /// Preference for a local flow index and alternative.
    #[inline]
    pub fn get(&self, local_flow: usize, alt: IcxId) -> i32 {
        self.storage[local_flow * self.num_alts + alt.index()]
    }

    /// Mutable access to one flow's row. The slice length is fixed, so
    /// callers cannot break the rectangular-table invariant.
    #[inline]
    pub fn row_mut(&mut self, local_flow: usize) -> &mut [i32] {
        &mut self.storage[local_flow * self.num_alts..(local_flow + 1) * self.num_alts]
    }

    /// Every class, row by row.
    #[inline]
    pub fn values(&self) -> &[i32] {
        &self.storage
    }

    /// One flow's preference row.
    #[inline]
    pub fn row(&self, local_flow: usize) -> &[i32] {
        &self.storage[local_flow * self.num_alts..(local_flow + 1) * self.num_alts]
    }

    /// Number of flows covered.
    #[inline]
    pub fn num_flows(&self) -> usize {
        self.num_flows
    }

    /// Number of alternatives per flow (0 for an empty table).
    #[inline]
    pub fn num_alternatives(&self) -> usize {
        if self.num_flows == 0 {
            0
        } else {
            self.num_alts
        }
    }

    /// Largest preference in the table (0 for an empty table).
    pub fn max_class(&self) -> i32 {
        self.storage.iter().copied().max().unwrap_or(0)
    }

    /// Verify every class is within `[-p, p]`.
    pub fn within_range(&self, p: i32) -> bool {
        self.storage.iter().all(|&c| (-p..=p).contains(&c))
    }
}

/// Quantize raw metric *gains* into preference classes with one global
/// linear scale. Convenience wrapper over [`quantize_into`] allocating a
/// fresh table.
pub fn quantize(gains: &GainTable, p: i32) -> PrefTable {
    let mut out = PrefTable::zero(gains.num_flows(), gains.num_alternatives());
    quantize_into(gains, p, &mut out, &mut Vec::new());
    out
}

/// Quantize raw metric *gains* into preference classes with one global
/// linear scale, writing into `out` (reshaped in place) and using
/// `magnitudes` as selection scratch — the hot-path form that allocates
/// nothing once the buffers are warm.
///
/// `gains[flow][alt]` is the ISP-internal improvement of the alternative
/// over the flow's default (positive = better, in whatever unit the ISP
/// uses). The scale maps the largest `|gain|` to `±p`; a table of all-zero
/// gains maps to all-zero classes. The default alternative of every flow
/// has gain 0 by construction and therefore class 0, as the paper
/// requires.
pub fn quantize_into(gains: &GainTable, p: i32, out: &mut PrefTable, magnitudes: &mut Vec<f64>) {
    assert!(p > 0, "preference range must be positive");
    out.reset(gains.num_flows(), gains.num_alternatives());
    // Robust scale: the 95th percentile of the nonzero |gains| maps to
    // ±p and larger outliers clamp. A plain maximum would let one
    // extreme flow (e.g. a transcontinental detour among regional flows)
    // crush every other delta into class 0, destroying the resolution
    // the negotiation needs; P "large enough to differentiate
    // alternatives with substantially different quality" (paper §4) is a
    // statement about the typical spread, not the single worst case.
    magnitudes.clear();
    magnitudes.reserve(gains.values().len());
    magnitudes.extend(gains.values().iter().map(|g| g.abs()).filter(|&g| g > 0.0));
    if magnitudes.is_empty() {
        return; // all-zero gains map to the all-zero table
    }
    // Only the element at sorted position `idx` is read, so select it
    // in O(n) instead of sorting (NaNs never pass the `g > 0.0` filter).
    let idx = ((magnitudes.len() as f64 * 0.95).ceil() as usize)
        .saturating_sub(1)
        .min(magnitudes.len() - 1);
    let scale_base = *magnitudes.select_nth_unstable_by(idx, f64::total_cmp).1;
    let scale = p as f64 / scale_base;
    // Floor, not round: gains round *down* and losses round *away from
    // zero*, so a class never overstates a gain or understates a loss.
    // This yields a real-metric guarantee on top of the engine's
    // preference-unit one: if an ISP's cumulative class gain is >= 0,
    // its true metric change is >= 0 too (each +1 class is backed by at
    // least one quantum of true gain, each -1 class by at most one
    // quantum of true loss). Tested as a property in the engine suite.
    for (cell, &g) in out.storage.iter_mut().zip(gains.values()) {
        *cell = floor_class(g * scale, p);
    }
}

/// `(x.floor() as i32).clamp(-p, p)` for every `f64`, without the call
/// into libm that `floor` is on baseline x86-64: clamp first, then floor
/// by truncating and stepping down where that rounded up. `f64::clamp`
/// keeps a NaN a NaN (`max` / `min` would not), which casts to class 0.
#[inline]
fn floor_class(x: f64, p: i32) -> i32 {
    let x = x.clamp(-f64::from(p), f64::from(p));
    let truncated = x as i32;
    truncated - i32::from(f64::from(truncated) > x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gains<R: AsRef<[f64]>>(rows: &[R]) -> GainTable {
        GainTable::from_rows(rows)
    }

    #[test]
    fn zero_table() {
        let t = PrefTable::zero(3, 2);
        assert_eq!(t.num_flows(), 3);
        assert_eq!(t.num_alternatives(), 2);
        assert_eq!(t.get(0, IcxId(1)), 0);
        assert!(t.within_range(1));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged() {
        PrefTable::from_rows(&[vec![0, 1], vec![0]]);
    }

    #[test]
    fn row_mut_cannot_resize() {
        // The flat layout makes the rectangular invariant structural: a
        // row is a fixed-length slice, not a growable vector.
        let mut t = PrefTable::from_rows(&[vec![0, 1], vec![2, 3]]);
        let row: &mut [i32] = t.row_mut(1);
        row[0] = 7;
        assert_eq!(t.row(1), &[7, 3]);
        assert_eq!(t.num_alternatives(), 2);
    }

    #[test]
    fn live_row_copies_leave_settled_rows_alone() {
        let live = [true, false, true, true];
        let other = PrefTable::from_rows(&[[1, 2], [3, 4], [5, 6], [7, 8]]);
        let mut t = PrefTable::from_rows(&[[9, 9]; 4]);
        t.copy_live_rows(&other, &live);
        assert_eq!(t.values(), &[1, 2, 9, 9, 5, 6, 7, 8]);
        // One packed row per live flow, in flow order.
        let packed = PrefTable::from_rows(&[[-1, -2], [-3, -4], [-5, -6]]);
        t.scatter_live_rows(&packed, &live);
        assert_eq!(t.values(), &[-1, -2, 9, 9, -3, -4, -5, -6]);
        // A table without flows has no rows to copy, whatever its width.
        PrefTable::zero(0, 3).copy_live_rows(&PrefTable::zero(0, 0), &[]);
    }

    #[test]
    fn empty_tables_compare_equal() {
        assert_eq!(PrefTable::zero(0, 2), PrefTable::zero(0, 5));
        assert_ne!(PrefTable::zero(1, 2), PrefTable::zero(1, 3));
    }

    #[test]
    fn quantize_scales_to_range() {
        // Largest |gain| is 50 -> maps to 10; 25 -> 5; -50 -> -10.
        let t = quantize(&gains(&[vec![0.0, 50.0], vec![25.0, -50.0]]), 10);
        assert_eq!(t.get(0, IcxId(0)), 0);
        assert_eq!(t.get(0, IcxId(1)), 10);
        assert_eq!(t.get(1, IcxId(0)), 5);
        assert_eq!(t.get(1, IcxId(1)), -10);
    }

    #[test]
    fn quantize_floor_is_conservative() {
        // Gains round down, losses round away from zero.
        let t = quantize(&gains(&[vec![0.0, 9.0, -1.0, -9.0, 10.0]]), 10);
        // scale_base = p95 of {9,1,9,10} = 10 -> scale = 1.0
        assert_eq!(t.row(0), &[0, 9, -1, -9, 10]);
        let t = quantize(&gains(&[vec![0.0, 14.0, -14.0, 100.0]]), 10);
        // p95 of {14,14,100} = 100 -> scale = 0.1: 1.4 -> 1, -1.4 -> -2
        assert_eq!(t.get(0, IcxId(1)), 1);
        assert_eq!(t.get(0, IcxId(2)), -2);
    }

    #[test]
    fn quantize_all_zero() {
        let t = quantize(&gains(&[vec![0.0, 0.0]]), 10);
        assert_eq!(t.row(0), &[0, 0]);
    }

    #[test]
    fn quantize_into_reuses_buffers() {
        let g = gains(&[vec![0.0, 50.0], vec![25.0, -50.0]]);
        let mut out = PrefTable::zero(0, 0);
        let mut scratch = Vec::new();
        quantize_into(&g, 10, &mut out, &mut scratch);
        assert_eq!(quantize(&g, 10), out);
        // A second round with a different shape reuses both buffers.
        let g2 = gains(&[vec![0.0, -3.0]]);
        quantize_into(&g2, 10, &mut out, &mut scratch);
        assert_eq!(quantize(&g2, 10), out);
    }

    #[test]
    fn quantize_is_global_not_per_flow() {
        // Flow 0 has a tiny gain, flow 1 a huge one; per-flow normalization
        // would give both class 10. Global scaling must keep flow 0 small.
        let t = quantize(&gains(&[vec![0.0, 1.0], vec![0.0, 100.0]]), 10);
        assert_eq!(t.get(1, IcxId(1)), 10);
        assert!(t.get(0, IcxId(1)) <= 1, "tiny gain must stay tiny");
    }

    #[test]
    fn max_class_and_range() {
        let t = quantize(&gains(&[vec![0.0, 3.0, -7.0]]), 5);
        assert!(t.within_range(5));
        assert_eq!(t.max_class(), 2); // 3/7*5 = 2.14 -> 2
        assert!(!t.within_range(1));
    }

    /// `quantize` with the percentile read off a full sort, as it was
    /// before the O(n) selection.
    fn sorted_reference(gains: &GainTable, p: i32) -> Vec<i32> {
        let mut magnitudes: Vec<f64> = gains
            .values()
            .iter()
            .map(|g| g.abs())
            .filter(|&g| g > 0.0)
            .collect();
        if magnitudes.is_empty() {
            return vec![0; gains.values().len()];
        }
        magnitudes.sort_by(|a, b| a.partial_cmp(b).expect("NaN is filtered out"));
        let idx = ((magnitudes.len() as f64 * 0.95).ceil() as usize)
            .saturating_sub(1)
            .min(magnitudes.len() - 1);
        let scale = p as f64 / magnitudes[idx];
        gains
            .values()
            .iter()
            .map(|g| ((g * scale).floor() as i32).clamp(-p, p))
            .collect()
    }

    fn classes(t: &PrefTable) -> Vec<i32> {
        (0..t.num_flows()).flat_map(|f| t.row(f).to_vec()).collect()
    }

    #[test]
    fn quantize_matches_sorted_reference_on_edge_tables() {
        let inf = f64::INFINITY;
        let tables = [
            // Ties straddling the 95th-percentile index (20 magnitudes,
            // index 18): the selected element equals its neighbours.
            gains(&[[7.0; 10], [-7.0; 10]]),
            gains(&[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 9.0]; 2]),
            // A single non-zero cell.
            gains(&[[0.0, 0.0], [0.0, -3.5]]),
            // All-equal magnitudes, mixed signs.
            gains(&[[2.5, -2.5, 2.5], [-2.5, 2.5, -2.5]]),
            // Infinite gains: as the scale base (everything finite
            // collapses to class 0 or -1) and as a clamped outlier.
            gains(&[[inf, -inf], [1.0, -1.0]]),
            gains(&[vec![1.0; 39], {
                let mut row = vec![-1.0; 39];
                row[0] = inf;
                row[1] = -inf;
                row
            }]),
        ];
        for (i, table) in tables.iter().enumerate() {
            for p in [1, 10, 1000] {
                assert_eq!(
                    classes(&quantize(table, p)),
                    sorted_reference(table, p),
                    "table {i}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn quantize_tolerates_nan_cells() {
        // NaN never passes the `> 0.0` magnitude filter, so it cannot
        // reach the selection; its own class is 0 (`NaN as i32`).
        let nan = f64::NAN;
        let t = quantize(&gains(&[[0.0, nan, 4.0], [-2.0, nan, 1.0]]), 10);
        assert_eq!(t.row(0), &[0, 0, 10]);
        assert_eq!(t.row(1), &[-5, 0, 2]);
        let all_nan = quantize(&gains(&[[nan, nan]]), 10);
        assert_eq!(all_nan.row(0), &[0, 0]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantize_matches_sorted_reference(
                // A small value pool makes ties at the percentile index
                // the common case, not the rare one.
                (rows, pool, p) in (1usize..6, 1usize..40).prop_flat_map(|(k, n)| (
                    proptest::collection::vec(proptest::collection::vec(0usize..8, k), n..n + 1),
                    proptest::collection::vec(-1e3f64..1e3, 8..9),
                    1i32..50,
                )),
            ) {
                let mut pool = pool;
                pool[0] = 0.0;
                pool[1] = -pool[2];
                let table: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|row| row.iter().map(|&i| pool[i]).collect())
                    .collect();
                let table = gains(&table);
                prop_assert_eq!(classes(&quantize(&table, p)), sorted_reference(&table, p));
            }

            // The cell formula against the form it replaced, on the
            // values where a floor and a clamp can disagree about order.
            #[test]
            fn floor_class_is_floor_then_clamp(
                (p, picks) in (1i32..300).prop_flat_map(|p| (
                    Just(p),
                    collection::vec((0u8..14, any::<u64>(), -2.0f64..2.0), 1..64),
                )),
            ) {
                let pf = f64::from(p);
                for (kind, bits, frac) in picks {
                    let subnormal = f64::from_bits(bits >> 12);
                    let x = match kind {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => 0.0,
                        4 => -0.0,
                        5 => subnormal,
                        6 => -subnormal,
                        // Exact integers from -p - 2 to p + 2.
                        7 => (bits % (2 * p as u64 + 5)) as f64 - pf - 2.0,
                        // Either side of +p and -p, down to one ulp.
                        8 => pf + frac,
                        9 => -pf + frac,
                        10 => f64::from_bits(pf.to_bits() + (bits % 3) - 1),
                        11 => -f64::from_bits(pf.to_bits() + (bits % 3) - 1),
                        12 => frac * pf / 2.0,
                        // Any bit pattern: huge, tiny, NaN payloads.
                        _ => f64::from_bits(bits),
                    };
                    prop_assert_eq!(
                        floor_class(x, p),
                        (x.floor() as i32).clamp(-p, p),
                        "x = {x:e} ({:#018x}), p = {p}",
                        x.to_bits()
                    );
                }
            }

            #[test]
            fn quantize_always_within_range(
                (rows, p) in (1usize..6).prop_flat_map(|k| (
                    proptest::collection::vec(
                        proptest::collection::vec(-1e6f64..1e6, k), 1..20),
                    1i32..50,
                )),
            ) {
                let t = quantize(&gains(&rows), p);
                prop_assert!(t.within_range(p));
            }

            #[test]
            fn quantize_preserves_sign_and_order_per_flow(
                rows in (2usize..6).prop_flat_map(|k| proptest::collection::vec(
                    proptest::collection::vec(-1e3f64..1e3, k), 1..10)),
            ) {
                let p = 1000; // large range: ordering must survive rounding
                let t = quantize(&gains(&rows), p);
                for (fi, row) in rows.iter().enumerate() {
                    for (ai, &g) in row.iter().enumerate() {
                        let c = t.get(fi, IcxId::new(ai));
                        if g > 0.0 { prop_assert!(c >= 0); }
                        if g < 0.0 { prop_assert!(c <= 0); }
                        for (aj, &h) in row.iter().enumerate() {
                            if g > h {
                                prop_assert!(
                                    c >= t.get(fi, IcxId::new(aj)),
                                    "order violated: gain {g} > {h} but class {c} < {}",
                                    t.get(fi, IcxId::new(aj))
                                );
                            }
                        }
                    }
                }
            }

            // `Hash` agrees with the custom `PartialEq`, under which empty
            // tables are equal whatever their alternative count (one of
            // them reshaped from a larger buffer).
            #[test]
            fn equal_tables_hash_alike(
                (n, k, k2) in (0usize..3, 0usize..3, 0usize..3),
                cells in proptest::collection::vec(0i32..2, 0..10),
            ) {
                use std::hash::{BuildHasher, RandomState};
                let (mut a, mut b) = (PrefTable::zero(4, 4), PrefTable::zero(0, 0));
                a.refill(n, k, cells.iter().copied());
                b.refill(n, k2, cells.iter().copied());
                prop_assert_eq!(a == b, n == 0 || k == k2);
                let hasher = RandomState::new();
                if a == b {
                    prop_assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
                }
            }
        }
    }
}
