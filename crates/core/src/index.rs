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
//!   the active [`ProposalRule`] in lazy max-heaps keyed by
//!   `(key, flow, alt)`. Because the self-guard ("never propose an
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
//! reference scans over randomized accept/veto/rebuild interleavings;
//! for pathologically large preference ranges (where materializing
//! `2P + 2` threshold rows would not pay for itself) it transparently
//! delegates to the reference implementation.

use crate::arena::TableArena;
use crate::policies::ProposalRule;
use crate::prefs::PrefTable;
use crate::selection::{self, TableState};
use nexit_topology::IcxId;
use std::collections::BinaryHeap;

/// Above this preference range the per-threshold rows are not worth
/// materializing and the index delegates to the reference scans.
const MAX_INDEXED_PREF_RANGE: i32 = 256;

/// Cap on the stop-projection tree's leaf count
/// (`(4P + 2) × num_flows`, padded to a power of two). Beyond this the
/// tree's memory and per-rebuild clear cost would dwarf the rescans it
/// replaces, so the index delegates instead. 2²⁰ leaves ≈ 34 MB of
/// node arrays — far above any paper-scale session (P = 10, 4000 flows
/// is ~170 k leaves) but a hard ceiling for pathological `P × flows`
/// combinations.
const MAX_PROJECTION_LEAVES: usize = 1 << 20;

/// Selection key of one `(flow, alt)` cell under a [`ProposalRule`]:
/// `(primary, secondary, prefer-default-on-tie)`, compared
/// lexicographically. Mirrors the reference implementation in
/// [`selection::select_proposal`].
type Key = (i64, i64, i64);

/// One flow's current best alternative (within one guard-threshold row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    key: Key,
    alt: u32,
}

/// A lazy heap entry. Ordered so the heap maximum is the cell the
/// reference scan would pick: highest key, then lowest flow, then lowest
/// alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    key: Key,
    flow: usize,
    alt: u32,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| other.flow.cmp(&self.flow))
            .then_with(|| other.alt.cmp(&self.alt))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
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
    /// `best_at[row_base[ti] + flow]` is the flow's best alternative
    /// among those threshold `ti` admits (`own_true >= ti - P`), `None`
    /// when it admits none. A row is appended by the first
    /// [`CandidateIndex::select`] whose guard floor maps to it and
    /// maintained incrementally afterwards; a threshold nobody selects
    /// under costs no cells. Row 0 admits every alternative (no guard /
    /// non-binding guard) and is the only row most configurations ever
    /// touch.
    best_at: Vec<Option<Candidate>>,
    /// Flows per threshold row of `best_at` (the session size).
    row_len: usize,
    /// Per guard threshold, where its row starts in `best_at`;
    /// [`UNBUILT`] until it materializes.
    row_base: Vec<usize>,
    /// One lazy max-heap per guard threshold (empty while unbuilt).
    heaps: Vec<BinaryHeap<HeapEntry>>,
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

enum Mode {
    Indexed(Box<Indexed>),
    /// Delegate to the reference scans (preference range too large to
    /// index profitably). The retired buffers ride along so recycling
    /// still returns them to the arena.
    Fallback {
        spare: Box<Indexed>,
    },
}

/// Incremental replacement for [`selection::select_proposal`] and
/// [`selection::projected_gain`], maintained by the three events that
/// can change their answers: accept, veto, reassignment. See the module
/// docs for the structure; see [`crate::machine::NegotiationMachine`]
/// for the single production consumer.
///
/// All preference tables handed to the index must be within the
/// configured range (`within_range(pref_range)`), which the machine
/// guarantees for both quantized true tables and validated disclosed
/// tables.
pub struct CandidateIndex {
    rule: ProposalRule,
    p: i64,
    num_alternatives: usize,
    defaults: Vec<IcxId>,
    mode: Mode,
}

impl CandidateIndex {
    /// An empty index for a session shape. `with_projection` materializes
    /// the stop-projection tree (needed only under
    /// [`crate::StopPolicy::Early`]). The index holds no table data until
    /// the first [`CandidateIndex::rebuild`].
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
        let inner = match self.mode {
            Mode::Indexed(ix) => ix,
            Mode::Fallback { spare } => spare,
        };
        arena.recycle_index(IndexBuffers {
            inner,
            defaults: self.defaults,
        });
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
        let projection_leaves = (4 * pref_range.max(0) as usize + 2).saturating_mul(num_flows);
        let mode = if pref_range > MAX_INDEXED_PREF_RANGE
            || (with_projection && projection_leaves > MAX_PROJECTION_LEAVES)
        {
            Mode::Fallback { spare: inner }
        } else {
            let p = pref_range as usize;
            // Buckets 0..=4P of the projection tree hold combined sums 2P
            // down to -2P; the extra bucket 4P+1 holds flows with every
            // alternative banned (combined sum `i64::MIN` in the
            // reference). `reshape` sizes the tree accordingly from the
            // threshold count.
            inner.reshape(2 * p + 2, num_flows, with_projection);
            Mode::Indexed(inner)
        };
        Self {
            rule,
            p: i64::from(pref_range),
            num_alternatives,
            defaults: own_defaults,
            mode,
        }
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
        let p = self.p;
        let num_flows = self.defaults.len();
        let Mode::Indexed(ix) = &mut self.mode else {
            return;
        };
        // Drop every threshold row; each rematerializes on the first
        // select() that needs it, against the new tables.
        ix.drop_rows();
        if ix.projection {
            ix.tree.clear();
            for flow in 0..num_flows {
                ix.slot[flow] = None;
                if state.is_remaining(flow) {
                    let (bucket, value) = projection_entry(
                        p,
                        &self.defaults,
                        self.num_alternatives,
                        d_own,
                        d_other,
                        own_true,
                        state,
                        flow,
                    );
                    ix.slot[flow] = Some((bucket, value));
                    ix.tree.set(bucket * num_flows + flow, Some(value));
                }
            }
        }
    }

    /// Apply an accepted proposal: the flow left the table. Call *after*
    /// [`TableState::accept`].
    pub fn on_accept(&mut self, flow: usize) {
        let num_flows = self.defaults.len();
        let Mode::Indexed(ix) = &mut self.mode else {
            return;
        };
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
        let p = self.p;
        let num_flows = self.defaults.len();
        let Mode::Indexed(ix) = &mut self.mode else {
            return;
        };
        // Recompute the flow's entry in every materialized row.
        for ti in 0..ix.row_base.len() {
            let base = ix.row_base[ti];
            if base == UNBUILT {
                continue;
            }
            let row = row_candidate(
                self.rule,
                p,
                &self.defaults,
                self.num_alternatives,
                d_own,
                d_other,
                own_true,
                state,
                flow,
                ti as i64 - p,
            );
            if ix.best_at[base + flow] != row {
                ix.best_at[base + flow] = row;
                if state.is_remaining(flow) {
                    if let Some(c) = row {
                        ix.heaps[ti].push(HeapEntry {
                            key: c.key,
                            flow,
                            alt: c.alt,
                        });
                    }
                }
            }
        }
        if ix.projection && state.is_remaining(flow) {
            let entry = projection_entry(
                p,
                &self.defaults,
                self.num_alternatives,
                d_own,
                d_other,
                own_true,
                state,
                flow,
            );
            if ix.slot[flow] != Some(entry) {
                if let Some((old_bucket, _)) = ix.slot[flow] {
                    ix.tree.set(old_bucket * num_flows + flow, None);
                }
                ix.slot[flow] = Some(entry);
                ix.tree.set(entry.0 * num_flows + flow, Some(entry.1));
            }
        }
    }

    /// The proposer's choice, bit-identical to
    /// [`selection::select_proposal`]. `&mut` only to discard stale lazy
    /// heap entries; the logical content never changes.
    pub fn select(
        &mut self,
        d_own: &PrefTable,
        d_other: &PrefTable,
        state: &TableState,
        self_guard: Option<(&PrefTable, i64)>,
    ) -> Option<(usize, IcxId)> {
        let p = self.p;
        let ix = match &mut self.mode {
            Mode::Fallback { .. } => {
                return selection::select_proposal(
                    d_own,
                    d_other,
                    state,
                    self.num_alternatives,
                    self.rule,
                    self_guard,
                    &self.defaults,
                );
            }
            Mode::Indexed(ix) => ix,
        };
        // The guard admits alternatives with own_true >= -floor; map the
        // (possibly unbounded) floor onto the materialized thresholds.
        let ti = match self_guard {
            None => 0,
            Some((_, floor)) => (floor.saturating_neg().clamp(-p, p + 1) + p) as usize,
        };
        if ix.row_base[ti] == UNBUILT {
            // First use of this guard threshold since the last rebuild:
            // append its row and fill its heap (through the heap's own
            // buffer) in one pass.
            let threshold = ti as i64 - p;
            ix.row_base[ti] = ix.best_at.len();
            ix.best_at.reserve(ix.row_len);
            let mut feed = std::mem::take(&mut ix.heaps[ti]).into_vec();
            debug_assert!(feed.is_empty(), "an unbuilt row's heap holds nothing");
            feed.reserve(ix.row_len);
            for flow in 0..ix.row_len {
                // A settled flow never enters the heap, and the row is
                // read only through heap entries: its cell stays empty.
                let c = if state.is_remaining(flow) {
                    row_candidate(
                        self.rule,
                        p,
                        &self.defaults,
                        self.num_alternatives,
                        d_own,
                        d_other,
                        self_guard.map_or(d_own, |(own_true, _)| own_true),
                        state,
                        flow,
                        threshold,
                    )
                } else {
                    None
                };
                ix.best_at.push(c);
                if let Some(c) = c {
                    feed.push(HeapEntry {
                        key: c.key,
                        flow,
                        alt: c.alt,
                    });
                }
            }
            ix.heaps[ti] = BinaryHeap::from(feed);
        }
        let row = &ix.best_at[ix.row_base[ti]..][..ix.row_len];
        let heap = &mut ix.heaps[ti];
        while let Some(top) = heap.peek() {
            let current = row[top.flow];
            if state.is_remaining(top.flow)
                && current
                    == Some(Candidate {
                        key: top.key,
                        alt: top.alt,
                    })
            {
                return Some((top.flow, IcxId::new(top.alt as usize)));
            }
            heap.pop();
        }
        None
    }

    /// The early-termination projection, bit-identical to
    /// [`selection::projected_gain`]. O(1) in indexed mode.
    ///
    /// Panics if the index was built without projection support (the
    /// machine only asks under [`crate::StopPolicy::Early`], which sets
    /// `with_projection`).
    pub fn projected_gain(
        &self,
        own_true: &PrefTable,
        d_own: &PrefTable,
        d_other: &PrefTable,
        state: &TableState,
    ) -> i64 {
        match &self.mode {
            Mode::Fallback { .. } => selection::projected_gain(
                own_true,
                d_own,
                d_other,
                state,
                self.num_alternatives,
                &self.defaults,
            ),
            Mode::Indexed(ix) => {
                assert!(
                    ix.projection,
                    "projection queried on an index built without it"
                );
                match ix.tree.root_best() {
                    i64::MIN => 0,
                    best => best,
                }
            }
        }
    }
}

/// One flow's best non-banned alternative among those whose own true
/// class is at least `threshold`, by `(key, lowest alt)` — exactly the
/// reference scan's pick order within a flow. A threshold of `-P`
/// admits every alternative (classes are clamped into `[-P, P]`), so
/// callers without a binding guard may pass any table as `own_true`.
#[allow(clippy::too_many_arguments)] // parallel tables, mirrors selection::
fn row_candidate(
    rule: ProposalRule,
    p: i64,
    defaults: &[IcxId],
    num_alternatives: usize,
    d_own: &PrefTable,
    d_other: &PrefTable,
    own_true: &PrefTable,
    state: &TableState,
    flow: usize,
    threshold: i64,
) -> Option<Candidate> {
    let mut best: Option<Candidate> = None;
    for alt in 0..num_alternatives {
        if state.is_banned(flow, alt) {
            continue;
        }
        let id = IcxId::new(alt);
        if i64::from(own_true.get(flow, id)).clamp(-p, p) < threshold {
            continue;
        }
        let o = i64::from(d_own.get(flow, id));
        let t = i64::from(d_other.get(flow, id));
        let bias = i64::from(id == defaults[flow]);
        let key = match rule {
            ProposalRule::MaxCombined => (o + t, o, bias),
            ProposalRule::BestLocalMinHarm => (o, t, bias),
        };
        let alt = alt as u32;
        if best.is_none_or(|b| key > b.key || (key == b.key && alt < b.alt)) {
            best = Some(Candidate { key, alt });
        }
    }
    best
}

/// One flow's stop-projection entry `(bucket, own-true value)`: the
/// combined-best pick of the reference implementation, mapped onto the
/// tree's bucket order (combined sum descending; the final bucket holds
/// fully-banned flows, whose reference sentinel is `i64::MIN` with the
/// alternative defaulting to index 0).
#[allow(clippy::too_many_arguments)] // parallel tables, mirrors selection::
fn projection_entry(
    p: i64,
    defaults: &[IcxId],
    num_alternatives: usize,
    d_own: &PrefTable,
    d_other: &PrefTable,
    own_true: &PrefTable,
    state: &TableState,
    flow: usize,
) -> (usize, i64) {
    let (alt, combined) = selection::combined_best(
        d_own,
        d_other,
        state,
        flow,
        num_alternatives,
        defaults[flow],
    );
    let bucket = if combined == i64::MIN {
        (4 * p + 1) as usize
    } else {
        (2 * p - combined) as usize
    };
    (bucket, i64::from(own_true.get(flow, alt)))
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
            Self {
                d_own,
                d_other,
                own_true,
                defaults,
                state,
                index,
                rule,
                k,
            }
        }

        fn select_unguarded(&mut self) -> Option<(usize, IcxId)> {
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
            let indexed =
                self.index
                    .projected_gain(&self.own_true, &self.d_own, &self.d_other, &self.state);
            assert_eq!(indexed, reference, "projected_gain diverged");
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
        }

        fn accept(&mut self, flow: usize) {
            if !self.state.is_remaining(flow) {
                return;
            }
            self.state.accept(flow);
            self.index.on_accept(flow);
        }

        /// Guard-threshold rows materialized right now, after checking
        /// that they tile `best_at` without gap or overlap.
        fn rows_built(&self) -> usize {
            let Mode::Indexed(ix) = &self.index.mode else {
                panic!("the harness shapes are all indexable");
            };
            let mut bases: Vec<usize> = ix
                .row_base
                .iter()
                .copied()
                .filter(|&base| base != UNBUILT)
                .collect();
            bases.sort_unstable();
            let tiled: Vec<usize> = (0..bases.len()).map(|row| row * ix.row_len).collect();
            assert_eq!(bases, tiled, "rows must tile best_at");
            assert_eq!(ix.best_at.len(), bases.len() * ix.row_len);
            bases.len()
        }

        fn reassign(&mut self, tables: (PrefTable, PrefTable, PrefTable)) {
            (self.d_own, self.d_other, self.own_true) = tables;
            self.index
                .rebuild(&self.d_own, &self.d_other, &self.own_true, &self.state);
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
    fn oversized_projection_falls_back() {
        // P and flow count are each acceptable, but their product would
        // need a hundreds-of-MB projection tree: delegate instead.
        let n = 10_000;
        let index =
            CandidateIndex::new(ProposalRule::MaxCombined, 200, &vec![IcxId(0); n], 2, true);
        assert!(matches!(index.mode, Mode::Fallback { .. }));
        // Without a projection tree the same shape stays indexed.
        let index =
            CandidateIndex::new(ProposalRule::MaxCombined, 200, &vec![IcxId(0); n], 2, false);
        assert!(matches!(index.mode, Mode::Indexed(_)));
    }

    #[test]
    fn huge_pref_range_falls_back() {
        let d = table(&[vec![0, 1000]]);
        let defaults = vec![IcxId(0)];
        let state = TableState::new(1, 2);
        let mut index = CandidateIndex::new(ProposalRule::MaxCombined, 100_000, &defaults, 2, true);
        index.rebuild(&d, &d, &d, &state);
        assert_eq!(
            index.select(&d, &d, &state, None),
            selection::select_proposal(
                &d,
                &d,
                &state,
                2,
                ProposalRule::MaxCombined,
                None,
                &defaults
            )
        );
        assert_eq!(
            index.projected_gain(&d, &d, &d, &state),
            selection::projected_gain(&d, &d, &d, &state, 2, &defaults)
        );
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

        // A cumulative gain wandering around zero, as the
        // `VetoNegativeCumulative` floor does: every floor within the
        // range binds at a threshold of its own, and the rows
        // materialize in the order the floors come up, not in threshold
        // order — each must land on cells of its own and stay in step
        // with the reference under the bans and accepts that follow.
        #[test]
        fn binding_floors_materialize_rows_beyond_the_first(
            (shape, seed, ops) in (3usize..7, 2usize..4, 3i32..12).prop_flat_map(|(n, k, p)| (
                Just((n, k, p)),
                any::<u64>(),
                collection::vec((0u8..3, 0..n, 0..k, -3i64..=3), 1..24),
            )),
        ) {
            let (n, k, p) = shape;
            let tables = tables_from_seed(n, k, p, seed);
            let mut h = Harness::new(ProposalRule::MaxCombined, p, tables, vec![IcxId(0); n], k);
            for floor in [2, -3, 0] {
                h.check(floor);
            }
            // Three binding floors and the unguarded row 0.
            prop_assert_eq!(h.rows_built(), 4);
            for (kind, flow, alt, floor) in ops {
                match kind {
                    0 => h.ban(flow, alt),
                    1 => h.accept(flow),
                    _ => {}
                }
                h.check(floor);
                prop_assert!(h.rows_built() >= 4);
            }
            // A reassignment drops every row; they come back on demand.
            h.reassign(tables_from_seed(n, k, p, !seed));
            prop_assert_eq!(h.rows_built(), 0);
            for floor in [-1, 1, 2] {
                h.check(floor);
            }
            prop_assert_eq!(h.rows_built(), 4);
        }
    }
}
