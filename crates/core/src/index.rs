//! Incrementally maintained candidate index for the round loop.
//!
//! The reference selection functions ([`crate::selection`]) rescan the
//! whole `flows × alternatives` table — and re-sort every remaining flow
//! for the stop projection — on every round, making a session
//! O(rounds × flows × alts) when only one cell changes per round. This
//! module turns both queries into priority-structure lookups whose
//! amortized per-event cost is logarithmic:
//!
//! * **Proposal selection** keeps, per flow, its best alternative under
//!   the active [`ProposalRule`] as one packed `u64` cell, in lazy
//!   max-heaps of those cells. From the high bit down a cell holds: a
//!   valid bit, the primary key `+ 2P` (11 bits), the secondary `+ P`
//!   (10), the default bias (1), `u32::MAX - flow` (32) and `511 - alt`
//!   (9), so a larger integer is exactly the reference scan's earlier
//!   pick (higher key, then lower flow, then lower alternative) and `0`
//!   is "no candidate". Because the self-guard ("never propose an
//!   alternative that would push my own true cumulative gain negative")
//!   admits exactly the alternatives whose true class is at least
//!   `-floor`, and classes are integers in `[-P, P]`, there are only
//!   `2P + 2` distinct guard thresholds — the index maintains one
//!   per-flow-best row and heap *per threshold*, so a guard-floor
//!   crossing simply selects a different heap instead of invalidating
//!   anything. A threshold's row is **allocated on its first use**:
//!   rows are appended to one flat buffer in the order they materialize
//!   and found through a per-threshold base offset, so a session pays
//!   cells only for the thresholds it selects under. That is few. On
//!   the six `perfbench` workloads every (re)disclosure epoch
//!   materializes exactly one row (the win-win configurations keep the
//!   credit floor far below `-P`, which is threshold 0) or, on the side
//!   that never proposes in it, none — out of 22 at `P = 10`. Only a
//!   binding `VetoNegativeCumulative` floor walks through several.
//! * **Stop projection** keeps every remaining flow's combined-best
//!   entry in a segment tree ordered like the reference sort
//!   (combined sum descending, flow index ascending) whose nodes
//!   aggregate `(sum, best nonempty prefix sum)`, so
//!   [`CandidateIndex::projected_gain`] is an O(1) root read.
//!
//! Only three events can change a decision, and each maps to a cheap
//! index update: an **accept** removes the flow (lazy heap invalidation
//! plus one tree clear), a **veto** bans one `(flow, alt)` cell
//! (recompute that flow's rows in O(alts + P)), and a **reassignment**
//! replaces the disclosed tables (full rebuild, amortized over the
//! traffic-volume interval between reassignments).
//!
//! The index is property-tested to take bit-identical decisions to the
//! reference scans (test-only, in [`crate::selection`]) over randomized
//! accept/veto/rebuild interleavings, and it is the only selector: a
//! session shape outside its envelope (`check_envelope`: `P ≤ 256`, at
//! most 512 alternatives, fewer than 2³² flows and, under early stop,
//! `(4P + 2) × flows ≤ 2²⁰` projection leaves) is refused at session
//! construction with [`crate::SessionError::IndexLimit`]. On the record
//! the largest `P` is 50, the most alternatives 24 and flows 4 140; the
//! largest projection tree (`P = 10`, 3 956 flows) has 166 152 leaves.

use crate::arena::TableArena;
use crate::policies::ProposalRule;
use crate::prefs::PrefTable;
use crate::selection::{self, TableState};
use nexit_topology::IcxId;
use std::collections::BinaryHeap;

/// Largest preference range the index holds: `2P + 2` guard-threshold
/// rows, and packed key fields well inside their 11 and 10 bits.
const MAX_INDEXED_PREF_RANGE: i32 = 256;

/// Cap on the stop-projection tree's leaf count (`(4P + 2) × num_flows`,
/// padded to a power of two): 2²⁰ leaves ≈ 34 MB of node arrays. Far
/// above any paper-scale session (module docs), but a hard ceiling for
/// pathological `P × flows` combinations under early stop.
const MAX_PROJECTION_LEAVES: usize = 1 << 20;

/// Width of a packed cell's alternative field: a session holds at most
/// `MAX_INDEXED_ALTS` alternatives.
const ALT_BITS: u32 = 9;
const MAX_INDEXED_ALTS: usize = 1 << ALT_BITS;

/// Whether the index holds a session shape; `Err` names the first limit
/// it exceeds. [`crate::SessionInput::check`] refuses such a session
/// before any table is built, and [`CandidateIndex::new`] asserts it.
/// `projection` is whether the stop-projection tree is kept (early
/// stop); `pref_range` must be positive.
pub(crate) fn check_envelope(
    pref_range: i32,
    num_alternatives: usize,
    num_flows: usize,
    projection: bool,
) -> Result<(), &'static str> {
    let leaves = (4 * pref_range.max(0) as usize + 2).saturating_mul(num_flows);
    if pref_range > MAX_INDEXED_PREF_RANGE {
        Err("preference range above 256")
    } else if num_alternatives > MAX_INDEXED_ALTS {
        Err("more than 512 alternatives")
    } else if u32::try_from(num_flows).is_err() {
        Err("2^32 flows or more")
    } else if projection && leaves > MAX_PROJECTION_LEAVES {
        Err("early-stop projection above 2^20 leaves")
    } else {
        Ok(())
    }
}

/// One `(flow, alt)` candidate packed so that integer order is the
/// reference scan's pick order (module docs). `key` is
/// `(primary, secondary, prefer-default-on-tie)` as in the reference
/// `selection::select_proposal`, with `|primary| <= 2p` and
/// `|secondary| <= p`.
#[inline]
fn pack(key: (i64, i64, i64), p: i64, flow: usize, alt: usize) -> u64 {
    let (primary, secondary, bias) = key;
    debug_assert!(primary.abs() <= 2 * p && secondary.abs() <= p);
    1 << 63
        | ((primary + 2 * p) as u64) << 52
        | ((secondary + p) as u64) << 42
        | (bias as u64) << 41
        | u64::from(u32::MAX - flow as u32) << ALT_BITS
        | (MAX_INDEXED_ALTS - 1 - alt) as u64
}

fn unpack_flow(cell: u64) -> usize {
    (u32::MAX - (cell >> ALT_BITS) as u32) as usize
}

fn unpack_alt(cell: u64) -> usize {
    MAX_INDEXED_ALTS - 1 - (cell as usize & (MAX_INDEXED_ALTS - 1))
}

/// Fixed-shape segment tree whose leaves hold the remaining flows'
/// combined-best own-true values, in the reference projection order, and
/// whose nodes aggregate `(segment sum, best nonempty prefix sum)`.
#[derive(Debug, Clone, Default)]
struct PrefixTree {
    /// Leaf count, padded to a power of two (possibly 1 for an empty
    /// session).
    leaves: usize,
    sum: Vec<i64>,
    /// `i64::MIN` marks an empty segment.
    best: Vec<i64>,
}

impl PrefixTree {
    /// Resize to hold `min_leaves` leaves and clear, keeping whatever
    /// backing capacity the node arrays already have.
    fn reshape(&mut self, min_leaves: usize) {
        let leaves = min_leaves.next_power_of_two().max(1);
        self.leaves = leaves;
        self.sum.clear();
        self.sum.resize(2 * leaves, 0);
        self.best.clear();
        self.best.resize(2 * leaves, i64::MIN);
    }

    fn clear(&mut self) {
        self.sum.fill(0);
        self.best.fill(i64::MIN);
    }

    /// Set or clear one leaf and recompute its ancestors.
    fn set(&mut self, pos: usize, value: Option<i64>) {
        let mut i = self.leaves + pos;
        match value {
            Some(v) => {
                self.sum[i] = v;
                self.best[i] = v;
            }
            None => {
                self.sum[i] = 0;
                self.best[i] = i64::MIN;
            }
        }
        i /= 2;
        while i >= 1 {
            let (l, r) = (2 * i, 2 * i + 1);
            self.sum[i] = self.sum[l] + self.sum[r];
            // A prefix either ends inside the left child or spans it.
            // The saturating add keeps the empty sentinel absorbing.
            self.best[i] = self.best[l].max(self.sum[l].saturating_add(self.best[r]));
            i /= 2;
        }
    }

    /// Best nonempty prefix sum over all leaves (`i64::MIN` when empty).
    fn root_best(&self) -> i64 {
        self.best[1]
    }
}

/// `row_base` of a guard threshold whose row has not materialized.
const UNBUILT: usize = usize::MAX;

/// The materialized index. Every buffer survives retirement: a session
/// sweep recycles one `Indexed` through a [`TableArena`] instead of
/// reallocating heaps and trees per session (see
/// [`CandidateIndex::new_in`]).
#[derive(Debug, Default)]
struct Indexed {
    /// Guard-threshold rows, stored flat (like every other table in the
    /// crate) in the order they materialized:
    /// `best_at[row_base[ti] + flow]` is the packed cell of the flow's
    /// best alternative among those threshold `ti` admits
    /// (`own_true >= ti - P`), `0` when it admits none. A row is appended
    /// by the first [`CandidateIndex::select`] whose guard floor maps to
    /// it and maintained incrementally afterwards; a threshold nobody
    /// selects under costs no cells. Row 0 admits every alternative (no
    /// guard / non-binding guard) and is the only row most configurations
    /// ever touch.
    best_at: Vec<u64>,
    /// Flows per threshold row of `best_at` (the session size).
    row_len: usize,
    /// Per guard threshold, where its row starts in `best_at`;
    /// [`UNBUILT`] until it materializes.
    row_base: Vec<usize>,
    /// One lazy max-heap per guard threshold (empty while unbuilt).
    heaps: Vec<BinaryHeap<u64>>,
    /// Whether the stop projection is maintained (only under
    /// [`crate::StopPolicy::Early`]); the tree and slots below are kept
    /// at minimal size otherwise, retaining their capacity.
    projection: bool,
    tree: PrefixTree,
    /// Per flow: `(bucket, own-true value)` of its tree leaf, `None`
    /// when the flow is settled (or the index is empty).
    slot: Vec<Option<(usize, i64)>>,
}

impl Indexed {
    /// Resize every structure for a session of `num_flows` flows and
    /// `num_thresholds` guard rows, clearing contents but keeping
    /// backing capacity.
    fn reshape(&mut self, num_thresholds: usize, num_flows: usize, projection: bool) {
        self.row_len = num_flows;
        self.row_base.resize(num_thresholds, UNBUILT);
        self.heaps.resize_with(num_thresholds, BinaryHeap::new);
        self.drop_rows();
        self.projection = projection;
        let min_leaves = if projection {
            (2 * num_thresholds).saturating_sub(2).max(1) * num_flows
        } else {
            1
        };
        self.tree.reshape(min_leaves);
        self.slot.clear();
        self.slot.resize(num_flows, None);
    }

    /// Forget every materialized row and heap, keeping their capacity.
    fn drop_rows(&mut self) {
        self.best_at.clear();
        self.row_base.fill(UNBUILT);
        for heap in &mut self.heaps {
            heap.clear();
        }
    }
}

/// The recyclable allocations of a retired [`CandidateIndex`]: pass them
/// back through [`TableArena`] so the next session's index (of any
/// shape) reuses them. Opaque; obtained from
/// [`CandidateIndex::recycle`].
#[derive(Default)]
pub struct IndexBuffers {
    inner: Box<Indexed>,
    defaults: Vec<IcxId>,
}

/// The round loop's proposal selection and stop projection, maintained
/// by the three events that can change their answers: accept, veto,
/// reassignment. See the module docs for the structure; see
/// [`crate::machine::NegotiationMachine`] for the single production
/// consumer.
///
/// All preference tables handed to the index must be within the
/// configured range (`within_range(pref_range)`), which the machine
/// guarantees for both quantized true tables and validated disclosed
/// tables.
pub struct CandidateIndex {
    shape: Shape,
    ix: Box<Indexed>,
}

/// The session constants every cell is computed under.
struct Shape {
    rule: ProposalRule,
    p: i64,
    num_alternatives: usize,
    defaults: Vec<IcxId>,
}

impl CandidateIndex {
    /// An empty index for a session shape. `with_projection` materializes
    /// the stop-projection tree (needed only under
    /// [`crate::StopPolicy::Early`]). The index holds no table data until
    /// the first [`CandidateIndex::rebuild`].
    ///
    /// Panics on a shape outside the envelope (module docs), which a
    /// validated session never has.
    pub fn new(
        rule: ProposalRule,
        pref_range: i32,
        defaults: &[IcxId],
        num_alternatives: usize,
        with_projection: bool,
    ) -> Self {
        Self::build(
            IndexBuffers::default(),
            rule,
            pref_range,
            defaults,
            num_alternatives,
            with_projection,
        )
    }

    /// [`CandidateIndex::new`] drawing its buffers from (and eventually
    /// returning them to) an arena, so back-to-back sessions allocate
    /// index structures once.
    pub fn new_in(
        arena: &mut TableArena,
        rule: ProposalRule,
        pref_range: i32,
        defaults: &[IcxId],
        num_alternatives: usize,
        with_projection: bool,
    ) -> Self {
        Self::build(
            arena.index_buffers(),
            rule,
            pref_range,
            defaults,
            num_alternatives,
            with_projection,
        )
    }

    /// Retire the index, returning its buffers to `arena` for the next
    /// [`CandidateIndex::new_in`].
    pub fn recycle(self, arena: &mut TableArena) {
        let (inner, defaults) = (self.ix, self.shape.defaults);
        arena.recycle_index(IndexBuffers { inner, defaults });
    }

    /// The one constructor: `bufs` — a fresh set, or a retired index's —
    /// supplies every internal allocation, including the copy of
    /// `defaults`.
    fn build(
        bufs: IndexBuffers,
        rule: ProposalRule,
        pref_range: i32,
        defaults: &[IcxId],
        num_alternatives: usize,
        with_projection: bool,
    ) -> Self {
        let IndexBuffers {
            mut inner,
            defaults: mut own_defaults,
        } = bufs;
        own_defaults.clear();
        own_defaults.extend_from_slice(defaults);
        let num_flows = defaults.len();
        let envelope = check_envelope(pref_range, num_alternatives, num_flows, with_projection);
        assert!(
            pref_range > 0 && envelope.is_ok(),
            "session shape outside the index envelope: P = {pref_range}, {envelope:?}"
        );
        // Buckets 0..=4P of the projection tree hold combined sums 2P
        // down to -2P; the extra bucket 4P+1 holds flows with every
        // alternative banned (combined sum `i64::MIN` in the reference).
        // `reshape` sizes the tree accordingly from the threshold count.
        inner.reshape(2 * pref_range as usize + 2, num_flows, with_projection);
        let shape = Shape {
            rule,
            p: i64::from(pref_range),
            num_alternatives,
            defaults: own_defaults,
        };
        Self { shape, ix: inner }
    }

    /// Rebuild from scratch — used at every (re)disclosure, when the
    /// tables themselves change. `state` carries over accepts and bans
    /// from earlier rounds.
    pub fn rebuild(
        &mut self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        own_true: &PrefTable,
        state: &TableState,
    ) {
        let (shape, ix, num_flows) = (&self.shape, &mut self.ix, self.shape.defaults.len());
        // Drop every threshold row; each rematerializes on the first
        // select() that needs it, against the new tables.
        ix.drop_rows();
        if ix.projection {
            ix.tree.clear();
            for flow in 0..num_flows {
                ix.slot[flow] = None;
                if state.is_remaining(flow) {
                    let (bucket, value) =
                        shape.projection_entry(d_own, d_other, own_true, state, flow);
                    ix.slot[flow] = Some((bucket, value));
                    ix.tree.set(bucket * num_flows + flow, Some(value));
                }
            }
        }
    }

    /// Apply an accepted proposal: the flow left the table. Call *after*
    /// [`TableState::accept`].
    pub fn on_accept(&mut self, flow: usize) {
        let (ix, num_flows) = (&mut self.ix, self.shape.defaults.len());
        // Heap entries for the flow die lazily via the remaining check.
        if ix.projection {
            if let Some((bucket, _)) = ix.slot[flow].take() {
                ix.tree.set(bucket * num_flows + flow, None);
            }
        }
    }

    /// Apply a vetoed proposal: one `(flow, alt)` cell was withdrawn.
    /// Call *after* [`TableState::ban`].
    pub fn on_ban(
        &mut self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        own_true: &PrefTable,
        state: &TableState,
        flow: usize,
    ) {
        let (shape, ix, num_flows) = (&self.shape, &mut self.ix, self.shape.defaults.len());
        // Recompute the flow's entry in every materialized row.
        for (ti, &base) in ix.row_base.iter().enumerate() {
            if base == UNBUILT {
                continue;
            }
            let cell = shape.cell(d_own, d_other, own_true, state, flow, ti as i64 - shape.p);
            if ix.best_at[base + flow] != cell {
                ix.best_at[base + flow] = cell;
                if cell != 0 && state.is_remaining(flow) {
                    ix.heaps[ti].push(cell);
                }
            }
        }
        if ix.projection && state.is_remaining(flow) {
            let entry = shape.projection_entry(d_own, d_other, own_true, state, flow);
            if ix.slot[flow] != Some(entry) {
                if let Some((old_bucket, _)) = ix.slot[flow] {
                    ix.tree.set(old_bucket * num_flows + flow, None);
                }
                ix.slot[flow] = Some(entry);
                ix.tree.set(entry.0 * num_flows + flow, Some(entry.1));
            }
        }
    }

    /// The proposer's choice, bit-identical to the reference
    /// `selection::select_proposal`. `&mut` only to discard stale lazy
    /// heap entries; the logical content never changes.
    pub fn select(
        &mut self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        state: &TableState,
        self_guard: Option<(&PrefTable, i64)>,
    ) -> Option<(usize, IcxId)> {
        let (shape, ix, p) = (&self.shape, &mut self.ix, self.shape.p);
        let ti = shape.threshold_row(self_guard);
        if ix.row_base[ti] == UNBUILT {
            // First use of this guard threshold since the last rebuild:
            // append its row, then heapify its cells (through the heap's
            // own buffer).
            let threshold = ti as i64 - p;
            let own_true = self_guard.map_or(d_own, |(own_true, _)| own_true);
            let base = ix.best_at.len();
            ix.row_base[ti] = base;
            // A settled flow never enters the heap, and the row is read
            // only through heap entries: its cell stays empty.
            ix.best_at
                .extend((0..ix.row_len).map(|flow| match state.is_remaining(flow) {
                    true => shape.cell(d_own, d_other, own_true, state, flow, threshold),
                    false => 0,
                }));
            let mut feed = std::mem::take(&mut ix.heaps[ti]).into_vec();
            debug_assert!(feed.is_empty(), "an unbuilt row's heap holds nothing");
            feed.extend(ix.best_at[base..].iter().filter(|&&cell| cell != 0));
            ix.heaps[ti] = BinaryHeap::from(feed);
        }
        let row = &ix.best_at[ix.row_base[ti]..][..ix.row_len];
        let heap = &mut ix.heaps[ti];
        while let Some(&top) = heap.peek() {
            let flow = unpack_flow(top);
            if state.is_remaining(flow) && row[flow] == top {
                return Some((flow, IcxId::new(unpack_alt(top))));
            }
            heap.pop();
        }
        None
    }

    /// The early-termination projection over the tables the index was
    /// maintained under, bit-identical to the reference
    /// `selection::projected_gain`: an O(1) root read.
    ///
    /// Panics if the index was built without projection support (the
    /// machine only asks under [`crate::StopPolicy::Early`], which sets
    /// `with_projection`).
    pub fn projected_gain(&self) -> i64 {
        assert!(
            self.ix.projection,
            "projection queried on an index built without it"
        );
        match self.ix.tree.root_best() {
            i64::MIN => 0,
            best => best,
        }
    }

    /// Audit the materialized rows against the tables and state they
    /// were maintained under: they tile `best_at`, each remaining flow's
    /// cell is a fresh [`Shape::cell`], and each such non-empty cell
    /// is in its row's heap. Returns the number of rows.
    #[cfg(test)]
    pub(crate) fn check_invariants(
        &self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        own_true: &PrefTable,
        state: &TableState,
    ) -> usize {
        let (shape, ix) = (&self.shape, &self.ix);
        let built = || (ix.row_base.iter().enumerate()).filter(|&(_, &base)| base != UNBUILT);
        let mut bases: Vec<usize> = built().map(|(_, &base)| base).collect();
        bases.sort_unstable();
        let tiled: Vec<usize> = (0..bases.len()).map(|row| row * ix.row_len).collect();
        assert_eq!(bases, tiled, "rows must tile best_at");
        assert_eq!(ix.best_at.len(), bases.len() * ix.row_len);
        for (ti, &base) in built() {
            let threshold = ti as i64 - shape.p;
            for flow in (0..ix.row_len).filter(|&flow| state.is_remaining(flow)) {
                let cell = ix.best_at[base + flow];
                let fresh = shape.cell(d_own, d_other, own_true, state, flow, threshold);
                assert_eq!(cell, fresh, "stale cell (row {ti}, flow {flow})");
                assert!(cell == 0 || ix.heaps[ti].iter().any(|&c| c == cell));
            }
        }
        bases.len()
    }

    /// [`CandidateIndex::select`]'s answer without its side effects: the
    /// best live cell of the guard's row, read where the row is built and
    /// scanned where it is not. Where [`CandidateIndex::check_invariants`]
    /// holds (every live cell is in its row's heap), `select`'s first
    /// valid heap entry is exactly this cell.
    #[cfg(test)]
    pub(crate) fn peek(
        &self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        state: &TableState,
        self_guard: Option<(&PrefTable, i64)>,
    ) -> Option<(usize, IcxId)> {
        let (shape, ix) = (&self.shape, &self.ix);
        let ti = shape.threshold_row(self_guard);
        let own_true = self_guard.map_or(d_own, |(own_true, _)| own_true);
        let cell = |flow| match ix.row_base[ti] {
            UNBUILT => shape.cell(d_own, d_other, own_true, state, flow, ti as i64 - shape.p),
            base => ix.best_at[base + flow],
        };
        let live = (0..ix.row_len).filter(|&flow| state.is_remaining(flow));
        let best = live.map(cell).max().filter(|&cell| cell != 0);
        best.map(|cell| (unpack_flow(cell), IcxId::new(unpack_alt(cell))))
    }
}

impl Shape {
    /// The guard-threshold row a selection reads: the guard admits
    /// alternatives with `own_true >= -floor`, and the (possibly
    /// unbounded) floor maps onto the `2P + 2` materializable thresholds.
    fn threshold_row(&self, self_guard: Option<(&PrefTable, i64)>) -> usize {
        let p = self.p;
        match self_guard {
            None => 0,
            Some((_, floor)) => (floor.saturating_neg().clamp(-p, p + 1) + p) as usize,
        }
    }

    /// The packed cell of one flow's best non-banned alternative among
    /// those whose own true class is at least `threshold` (`0` when none
    /// is): the cell order is the reference scan's pick order within a
    /// flow. A threshold of `-P` admits every alternative (classes are
    /// clamped into `[-P, P]`), so callers without a binding guard may
    /// pass any table as `own_true`.
    fn cell(
        &self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        own_true: &PrefTable,
        state: &TableState,
        flow: usize,
        threshold: i64,
    ) -> u64 {
        let (p, default) = (self.p, self.defaults[flow].index());
        let combined = self.rule == ProposalRule::MaxCombined;
        let cells = d_own.row(flow).iter().zip(d_other.row(flow));
        cells
            .zip(own_true.row(flow))
            .enumerate()
            .map(|(alt, ((&o, &t), &truth))| {
                let (o, t, bias) = (i64::from(o), i64::from(t), i64::from(alt == default));
                let (primary, secondary) = if combined { (o + t, o) } else { (o, t) };
                // Branch-free: an inadmissible cell is masked to `0`.
                let admitted =
                    i64::from(truth).clamp(-p, p) >= threshold && !state.is_banned(flow, alt);
                pack((primary, secondary, bias), p, flow, alt) * u64::from(admitted)
            })
            .max()
            .unwrap_or(0)
    }

    /// One flow's stop-projection entry `(bucket, own-true value)`: the
    /// combined-best pick of the reference implementation, mapped onto
    /// the tree's bucket order (combined sum descending; the final bucket
    /// holds fully-banned flows, whose reference sentinel is `i64::MIN`
    /// with the alternative defaulting to index 0).
    fn projection_entry(
        &self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        own_true: &PrefTable,
        state: &TableState,
        flow: usize,
    ) -> (usize, i64) {
        let (k, default) = (self.num_alternatives, self.defaults[flow]);
        let (alt, combined) = selection::combined_best(d_own, d_other, state, flow, k, default);
        let bucket = if combined == i64::MIN {
            (4 * self.p + 1) as usize
        } else {
            (2 * self.p - combined) as usize
        };
        (bucket, i64::from(own_true.get(flow, alt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference twin of an index over shared state: every operation is
    /// applied to both, every query must agree.
    struct Harness {
        d_own: PrefTable,
        d_other: PrefTable,
        own_true: PrefTable,
        defaults: Vec<IcxId>,
        state: TableState,
        index: CandidateIndex,
        rule: ProposalRule,
        k: usize,
        /// Guard-threshold rows selected under since the last rebuild.
        thresholds: std::collections::BTreeSet<usize>,
    }

    impl Harness {
        fn new(
            rule: ProposalRule,
            p: i32,
            tables: (PrefTable, PrefTable, PrefTable),
            defaults: Vec<IcxId>,
            k: usize,
        ) -> Self {
            let (d_own, d_other, own_true) = tables;
            let n = defaults.len();
            let state = TableState::new(n, k);
            let mut index = CandidateIndex::new(rule, p, &defaults, k, true);
            index.rebuild(&d_own, &d_other, &own_true, &state);
            index.check_invariants(&d_own, &d_other, &own_true, &state);
            Self {
                d_own,
                d_other,
                own_true,
                defaults,
                state,
                index,
                rule,
                k,
                thresholds: Default::default(),
            }
        }

        fn select_unguarded(&mut self) -> Option<(usize, IcxId)> {
            self.thresholds.insert(0);
            self.index
                .select(&self.d_own, &self.d_other, &self.state, None)
        }

        fn check(&mut self, floor: i64) {
            // Unguarded and guarded selection.
            for guard in [None, Some((&self.own_true, floor))] {
                let reference = selection::select_proposal(
                    &self.d_own,
                    &self.d_other,
                    &self.state,
                    self.k,
                    self.rule,
                    guard,
                    &self.defaults,
                );
                let indexed = self
                    .index
                    .select(&self.d_own, &self.d_other, &self.state, guard);
                assert_eq!(indexed, reference, "select diverged (guard={guard:?})");
            }
            let reference = selection::projected_gain(
                &self.own_true,
                &self.d_own,
                &self.d_other,
                &self.state,
                self.k,
                &self.defaults,
            );
            let indexed = self.index.projected_gain();
            assert_eq!(indexed, reference, "projected_gain diverged");
            let guards = [None, Some((&self.own_true, floor))];
            let rows = guards.map(|guard| self.index.shape.threshold_row(guard));
            self.thresholds.extend(rows);
            self.audit();
        }

        fn ban(&mut self, flow: usize, alt: usize) {
            if self.state.is_banned(flow, alt) {
                return;
            }
            self.state.ban(flow, alt);
            self.index.on_ban(
                &self.d_own,
                &self.d_other,
                &self.own_true,
                &self.state,
                flow,
            );
            self.audit();
        }

        fn accept(&mut self, flow: usize) {
            if !self.state.is_remaining(flow) {
                return;
            }
            self.state.accept(flow);
            self.index.on_accept(flow);
            self.audit();
        }

        /// Check the index's invariants against the harness's tables, and
        /// that it holds one row per threshold selected under since the
        /// last rebuild: each built on first use, none before.
        fn audit(&self) {
            let (d_own, d_other, own_true) = (&self.d_own, &self.d_other, &self.own_true);
            let rows = (self.index).check_invariants(d_own, d_other, own_true, &self.state);
            assert_eq!(rows, self.thresholds.len(), "rows built");
        }

        fn reassign(&mut self, tables: (PrefTable, PrefTable, PrefTable)) {
            (self.d_own, self.d_other, self.own_true) = tables;
            self.index
                .rebuild(&self.d_own, &self.d_other, &self.own_true, &self.state);
            self.thresholds.clear(); // a rebuild drops every row
            self.audit();
        }
    }

    fn table<R: AsRef<[i32]>>(rows: &[R]) -> PrefTable {
        PrefTable::from_rows(rows)
    }

    #[test]
    fn matches_reference_on_simple_session() {
        let d_own = table(&[vec![0, 5, 3], vec![0, -2, 7], vec![0, 1, 1]]);
        let d_other = table(&[vec![0, 5, 4], vec![0, 9, -7], vec![0, 1, 1]]);
        let own_true = d_own.clone();
        let defaults = vec![IcxId(0); 3];
        let mut h = Harness::new(
            ProposalRule::MaxCombined,
            10,
            (d_own, d_other, own_true),
            defaults,
            3,
        );
        h.check(0);
        // Accept the top pick, veto the next, re-check after each event.
        let (first_flow, _) = h.select_unguarded().unwrap();
        h.accept(first_flow);
        h.check(0);
        let (next_flow, next_alt) = h.select_unguarded().unwrap();
        assert_ne!(next_flow, first_flow, "accepted flow must leave the table");
        h.ban(next_flow, next_alt.index());
        h.check(0);
    }

    #[test]
    fn fully_banned_flow_matches_reference_projection() {
        // Flow 0 loses every alternative to vetoes but stays remaining;
        // the reference keeps it in the projection with the MIN
        // sentinel. Defaults deliberately non-zero to exercise the
        // sentinel's alternative-0 pick.
        let d_own = table(&[vec![3, 5], vec![0, 2]]);
        let d_other = table(&[vec![1, 5], vec![0, 2]]);
        let own_true = table(&[vec![-4, 5], vec![0, 2]]);
        let mut h = Harness::new(
            ProposalRule::MaxCombined,
            10,
            (d_own, d_other, own_true),
            vec![IcxId(1), IcxId(0)],
            2,
        );
        h.ban(0, 0);
        h.check(0);
        h.ban(0, 1);
        h.check(0);
        h.check(-3);
    }

    #[test]
    fn the_envelope_refuses_2_pow_32_flows() {
        // The one limit no test session can reach; the builder's refusal
        // rows cover the others.
        assert_eq!(check_envelope(1, 2, u32::MAX as usize, false), Ok(()));
        let refused = check_envelope(1, 2, 1 << 32, false);
        assert_eq!(refused, Err("2^32 flows or more"));
    }

    /// Packed cells over every combination of the given field values
    /// (flows 0, 1, 2 and `u32::MAX - 1`) must sort as the reference scan
    /// picks (higher key, then lower flow, then lower alternative) and
    /// round-trip flow and alternative.
    fn assert_pack_order(p: i64, primary: &[i64], secondary: &[i64], alts: &[usize]) {
        let keys = primary
            .iter()
            .flat_map(|&a| secondary.iter().map(move |&b| (a, b)));
        let mut cells = Vec::new();
        for ((a, b), bias) in keys.flat_map(|key| [(key, 0), (key, 1)]) {
            for flow in [0, 1, 2, u32::MAX as usize - 1] {
                cells.extend(alts.iter().map(|&alt| ((a, b, bias), flow, alt)));
            }
        }
        cells.sort_by_key(|&(key, flow, alt)| (key, std::cmp::Reverse((flow, alt))));
        let packed: Vec<u64> = cells
            .iter()
            .map(|&(key, f, alt)| pack(key, p, f, alt))
            .collect();
        assert!(packed[0] > 0 && packed.windows(2).all(|pair| pair[0] < pair[1]));
        for (&(_, flow, alt), &cell) in cells.iter().zip(&packed) {
            assert_eq!((unpack_flow(cell), unpack_alt(cell)), (flow, alt));
        }
    }

    #[test]
    fn packed_order_is_the_reference_pick_order() {
        for p in [1, 2] {
            let (primary, secondary): (Vec<_>, Vec<_>) =
                ((-2 * p..=2 * p).collect(), (-p..=p).collect());
            assert_pack_order(p, &primary, &secondary, &[0, 1, 2]);
        }
        let p = i64::from(MAX_INDEXED_PREF_RANGE);
        let (primary, secondary) = ([-2 * p, 1 - 2 * p, 2 * p], [-p, p - 1, p]);
        assert_pack_order(p, &primary, &secondary, &[0, 1, 510, 511]);
    }

    fn tables_from_seed(
        n: usize,
        k: usize,
        p: i32,
        seed: u64,
    ) -> (PrefTable, PrefTable, PrefTable) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mk = || {
            let mut t = PrefTable::zero(n, k);
            for flow in 0..n {
                for cell in t.row_mut(flow) {
                    *cell = rng.gen_range(-p..=p);
                }
            }
            t
        };
        (mk(), mk(), mk())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Randomized sessions: accepts, vetoes and reassignments
        // interleaved, with every query cross-checked against the
        // reference scans after every event. Ops are encoded as raw
        // tuples `(kind, flow, alt, seed)`.
        #[test]
        fn index_is_decision_identical_to_reference(
            (shape, seed, defaults, ops) in
                (1usize..7, 1usize..4, 1i32..12, 0u8..2).prop_flat_map(|(n, k, p, rule)| (
                    Just((n, k, p, rule)),
                    any::<u64>(),
                    collection::vec(0..k, n),
                    collection::vec((0u8..5, 0..n, 0..k, any::<u64>()), 0..32),
                )),
        ) {
            let (n, k, p, rule) = shape;
            let rule = if rule == 0 {
                ProposalRule::MaxCombined
            } else {
                ProposalRule::BestLocalMinHarm
            };
            let defaults: Vec<IcxId> = defaults.into_iter().map(IcxId::new).collect();
            let tables = tables_from_seed(n, k, p, seed);
            let mut h = Harness::new(rule, p, tables, defaults, k);
            h.check(0);
            for (kind, flow, alt, op_seed) in ops {
                match kind {
                    0 => h.ban(flow, alt),
                    1 => h.accept(flow),
                    2 => h.reassign(tables_from_seed(n, k, p, op_seed)),
                    3 => h.check((op_seed % 81) as i64 - 40),
                    // Rebuild after an accept: the epoch's first select
                    // leaves the settled flow's row cell empty, and a
                    // ban on that flow must not bring it back.
                    _ => {
                        h.accept(flow);
                        h.reassign(tables_from_seed(n, k, p, op_seed));
                        h.check(0);
                        h.ban(flow, alt);
                    }
                }
                // Guard floors: neutral, far above and far below any
                // reachable cumulative gain (binding never / always).
                h.check(0);
                h.check(1 << 40);
                h.check(-(1 << 40));
            }
        }
    }
}
