//! Delta hooks for incremental re-negotiation under churn.
//!
//! A batch sweep computes every preference row from scratch for every
//! session; a streaming driver processing one churn event at a time
//! cannot afford that — a single flow arrival invalidates exactly one
//! row of the pair's gain table, and recomputing the other thousands is
//! pure waste. [`GainCache`] is the memo layer that makes the delta
//! path work: it holds one full-pair gain table per (topology variant,
//! side), tracks per-row validity, and serves session fills by copying
//! cached rows bit-identically — so a negotiation run against the cache
//! is byte-for-byte the negotiation a cold session would produce, while
//! touching only the rows an event actually invalidated.
//!
//! [`CachedDistanceMapper`] is the [`PreferenceMapper`] that plugs the
//! cache into the machine: the §5.1 distance objective's gains depend
//! only on the flow, its default, and the interconnection geometry —
//! never on other flows' routing — so a row, once computed for a
//! topology variant, stays valid across arbitrary flow add/remove and
//! load churn. Drivers invalidate rows explicitly (or wholesale via
//! [`GainCache::invalidate_all`] on a cold fallback); the cache never
//! guesses.
//!
//! The backing table participates in [`TableArena`] recycling
//! ([`GainCache::new_in`] / [`GainCache::recycle`]), so a driver that
//! rebuilds caches on topology flaps allocates each buffer once.

use crate::arena::{GainTable, TableArena};
use crate::engine::SessionInput;
use crate::mapping::{quantized_bandwidth_row, side_links, LinkMarks, PreferenceMapper};
use crate::outcome::Side;
use nexit_routing::{Assignment, PairFlows};
use nexit_topology::LinkId;
use nexit_workload::PathTable;

/// A set of [`LinkId`]s as a flat bitset — the currency of footprint
/// invalidation: fills record the links a row read into one, load
/// events collect the links whose utilization class moved into another,
/// and [`GainCache::bump_load_epoch`] intersects the two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// An empty set over `num_links` links.
    pub fn new(num_links: usize) -> Self {
        Self {
            words: vec![0; num_links.div_ceil(64)],
        }
    }

    /// Insert one link.
    #[inline]
    pub fn insert(&mut self, link: LinkId) {
        let i = link.index();
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, link: LinkId) -> bool {
        let i = link.index();
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Remove every link in place.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// True when no link is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing little-endian bit words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Write handle a tracked fill records its load footprint through: every
/// link whose load (utilization class) the row's value depends on must
/// be recorded, or a later load move on that link would wrongly leave
/// the row cached.
pub struct RowFootprint<'a> {
    words: &'a mut [u64],
}

impl RowFootprint<'_> {
    /// Record one link the fill read.
    #[inline]
    pub fn record(&mut self, link: LinkId) {
        if self.words.is_empty() {
            return; // footprints not enabled on this cache
        }
        let i = link.index();
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// Per-row memo of one side's full-pair gain table, with explicit
/// invalidation. Rows are keyed by **pair** flow index (not session
/// index), so any session over a subset of the pair's flows can be
/// served from the same cache.
#[derive(Debug)]
pub struct GainCache {
    /// Cached rows, `num_flows x num_alternatives` (flat, arena-backed).
    table: GainTable,
    /// Whether each row holds a current value.
    valid: Vec<bool>,
    /// The default alternative each cached row was computed against
    /// (a row's gains are relative to its default, so a default change
    /// must invalidate it).
    row_default: Vec<usize>,
    /// Per-row load footprints, `words_per_row` bit words each (flat;
    /// empty unless [`GainCache::with_footprints`] enabled them).
    footprint: Vec<u64>,
    /// Bit words per footprint row (0 = footprints disabled).
    words_per_row: usize,
    /// Monotonic load-snapshot counter; every valid row is stamped with
    /// the epoch its value was computed (or re-validated) under.
    load_epoch: u64,
    /// Per-row load-epoch stamps (invariant: `valid[f]` implies
    /// `row_load_epoch[f] == load_epoch`).
    row_load_epoch: Vec<u64>,
    /// Rows recomputed since construction (the delta path's work meter).
    refreshed: u64,
    /// Rows served straight from the cache.
    served: u64,
    /// Rows dropped by footprint intersection with moved links.
    load_invalidated: u64,
}

impl GainCache {
    /// An empty cache for `num_flows` pair flows with `num_alts`
    /// alternatives each; every row starts invalid.
    pub fn new(num_flows: usize, num_alts: usize) -> Self {
        Self::new_in(&mut TableArena::new(), num_flows, num_alts)
    }

    /// [`GainCache::new`] drawing the backing table from `arena`.
    pub fn new_in(arena: &mut TableArena, num_flows: usize, num_alts: usize) -> Self {
        Self {
            table: arena.gain_table(num_flows, num_alts),
            valid: vec![false; num_flows],
            row_default: vec![usize::MAX; num_flows],
            footprint: Vec::new(),
            words_per_row: 0,
            load_epoch: 0,
            row_load_epoch: vec![0; num_flows],
            refreshed: 0,
            served: 0,
            load_invalidated: 0,
        }
    }

    /// Enable per-row load footprints over `num_links` links (required
    /// for load-dependent objectives served through
    /// [`CachedBandwidthMapper`]; pointless for distance caches, whose
    /// rows read no loads).
    pub fn with_footprints(mut self, num_links: usize) -> Self {
        self.words_per_row = num_links.div_ceil(64);
        self.footprint = vec![0; self.words_per_row * self.valid.len()];
        self
    }

    /// Whether footprints are enabled.
    pub fn has_footprints(&self) -> bool {
        self.words_per_row > 0
    }

    /// Retire the cache, returning its backing table to `arena`.
    pub fn recycle(self, arena: &mut TableArena) {
        arena.recycle_gain(self.table);
    }

    /// Rows the cache covers.
    pub fn num_flows(&self) -> usize {
        self.valid.len()
    }

    /// Alternatives per row.
    pub fn num_alternatives(&self) -> usize {
        self.table.num_alternatives()
    }

    /// Rows recomputed since construction.
    pub fn refreshed(&self) -> u64 {
        self.refreshed
    }

    /// Rows served from the cache since construction.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Rows dropped by footprint intersection since construction.
    pub fn load_invalidated(&self) -> u64 {
        self.load_invalidated
    }

    /// Advance the load epoch after a load snapshot change: `moved` is
    /// the set of links whose utilization class differs from the
    /// previous snapshot. Every valid row whose footprint intersects it
    /// is invalidated (reported through `on_invalidated`, once per row);
    /// the survivors are re-stamped — their values provably equal a
    /// recompute against the new snapshot, because a row is a pure
    /// function of the classes on its footprint links.
    pub fn bump_load_epoch(&mut self, moved: &LinkSet, mut on_invalidated: impl FnMut(usize)) {
        self.load_epoch += 1;
        let moved = moved.words();
        for flow in 0..self.valid.len() {
            if !self.valid[flow] {
                continue;
            }
            let words = &self.footprint[flow * self.words_per_row..(flow + 1) * self.words_per_row];
            if words.iter().zip(moved).any(|(a, b)| a & b != 0) {
                self.valid[flow] = false;
                self.load_invalidated += 1;
                on_invalidated(flow);
            } else {
                self.row_load_epoch[flow] = self.load_epoch;
            }
        }
    }

    /// Drop one row's cached value (e.g. the flow an event touched).
    pub fn invalidate(&mut self, flow: usize) {
        self.valid[flow] = false;
    }

    /// Drop every cached row — the cold-fallback reset. Counters are
    /// preserved (they meter cumulative work, not cache contents).
    pub fn invalidate_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
    }

    /// Number of currently valid rows.
    pub fn valid_rows(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Serve one row: if the cached value is current for `default`,
    /// return it; otherwise run `fill` into the row, record the refresh,
    /// and return the fresh value. The returned slice is bit-identical
    /// to what `fill` would write — caching never perturbs a value.
    pub fn row_or_fill(
        &mut self,
        flow: usize,
        default: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> &[f64] {
        self.row_or_fill_tracked(flow, default, |row, _| fill(row))
    }

    /// [`GainCache::row_or_fill`] for load-dependent fills: the fill
    /// also records, via the [`RowFootprint`], every link whose load the
    /// row's value read, arming the row for
    /// [`GainCache::bump_load_epoch`] intersection tests.
    pub fn row_or_fill_tracked(
        &mut self,
        flow: usize,
        default: usize,
        fill: impl FnOnce(&mut [f64], &mut RowFootprint<'_>),
    ) -> &[f64] {
        if !self.valid[flow] || self.row_default[flow] != default {
            let words =
                &mut self.footprint[flow * self.words_per_row..(flow + 1) * self.words_per_row];
            words.iter_mut().for_each(|w| *w = 0);
            fill(self.table.row_mut(flow), &mut RowFootprint { words });
            self.valid[flow] = true;
            self.row_default[flow] = default;
            self.row_load_epoch[flow] = self.load_epoch;
            self.refreshed += 1;
        } else {
            debug_assert_eq!(
                self.row_load_epoch[flow], self.load_epoch,
                "valid row served from a stale load epoch"
            );
            self.served += 1;
        }
        self.table.row(flow)
    }
}

/// The §5.1 distance objective served through a [`GainCache`]: rows for
/// flows the cache already holds are copied bit-identically; only
/// invalidated (or never-computed) rows touch the metric. One cache
/// must be keyed to one (side, topology variant) — distance gains are
/// static within a variant, so validity survives any amount of flow and
/// load churn until the driver invalidates.
pub struct CachedDistanceMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
    cache: &'a mut GainCache,
}

impl<'a> CachedDistanceMapper<'a> {
    /// Mapper for one side of the pair, memoized through `cache` (whose
    /// shape must match the pair: one row per pair flow, one column per
    /// interconnection of this topology variant).
    pub fn new(side: Side, flows: &'a PairFlows, cache: &'a mut GainCache) -> Self {
        debug_assert_eq!(cache.num_flows(), flows.len(), "cache shaped for the pair");
        Self { side, flows, cache }
    }
}

impl PreferenceMapper for CachedDistanceMapper<'_> {
    fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
        for (i, (&fid, &default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            let m = &self.flows.metrics[fid.index()];
            let side = self.side;
            let row = self.cache.row_or_fill(fid.index(), default.index(), |row| {
                let km = |alt: usize| match side {
                    Side::A => m.up_km[alt],
                    Side::B => m.down_km[alt],
                };
                let base = km(default.index());
                for (alt, cell) in row.iter_mut().enumerate() {
                    *cell = base - km(alt);
                }
            });
            out.row_mut(i).copy_from_slice(row);
        }
    }
}

/// The quantized bandwidth objective served through a [`GainCache`]
/// with footprints: rows are computed by the same
/// `quantized_bandwidth_row` function [`crate::BandwidthMapper::with_classes`]
/// uses — bit-identical by construction — and each fill records the
/// links the row read (the union of the flow's per-alternative paths on
/// this side) as its load footprint. A driver that maintains `classes`
/// snapshots per load epoch then invalidates, per load move, exactly
/// the rows whose footprint intersects the moved links
/// ([`GainCache::bump_load_epoch`]) instead of going cold.
///
/// The memo key is (flow, default): like the churn driver's sessions,
/// callers must negotiate from the default state (`current` equal to
/// the session defaults), otherwise a cached row could have been filled
/// against a different `current` than it is served for.
pub struct CachedBandwidthMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
    paths: &'a PathTable,
    capacities: &'a [f64],
    /// Per-link utilization classes of the current load epoch.
    classes: &'a [u32],
    cache: &'a mut GainCache,
    /// Current-path marks for the row kernel.
    marks: LinkMarks,
}

impl<'a> CachedBandwidthMapper<'a> {
    /// Mapper for one side, memoized through `cache` (shaped for the
    /// pair, with footprints enabled over this side's links).
    pub fn new(
        side: Side,
        flows: &'a PairFlows,
        paths: &'a PathTable,
        capacities: &'a [f64],
        classes: &'a [u32],
        cache: &'a mut GainCache,
    ) -> Self {
        debug_assert_eq!(cache.num_flows(), flows.len(), "cache shaped for the pair");
        debug_assert!(cache.has_footprints(), "bandwidth caches need footprints");
        debug_assert_eq!(classes.len(), capacities.len());
        Self {
            side,
            flows,
            paths,
            capacities,
            classes,
            cache,
            marks: LinkMarks::new(capacities.len()),
        }
    }
}

impl PreferenceMapper for CachedBandwidthMapper<'_> {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        let (side, paths, capacities, classes, flows) = (
            self.side,
            self.paths,
            self.capacities,
            self.classes,
            self.flows,
        );
        let marks = &mut self.marks;
        let k = input.num_alternatives;
        for (i, (&fid, &default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            debug_assert_eq!(
                current.choice(fid),
                default,
                "cached bandwidth sessions negotiate from the default state"
            );
            let volume = flows.flows[fid.index()].volume;
            let row = self
                .cache
                .row_or_fill_tracked(fid.index(), default.index(), |row, fp| {
                    quantized_bandwidth_row(
                        side, paths, capacities, classes, fid, default, default, volume, marks, row,
                    );
                    for alt in 0..k {
                        for &l in side_links(side, paths, fid, nexit_topology::IcxId::new(alt)) {
                            fp.record(l);
                        }
                    }
                });
            out.row_mut(i).copy_from_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::DistanceMapper;
    use nexit_routing::{Assignment, FlowId, PairFlows, ShortestPaths};
    use nexit_topology::{
        GeoPoint, IcxId, Interconnection, IspId, IspPair, IspTopology, Link, PairView, Pop, PopId,
    };

    fn pop(city: &str, lon: f64) -> Pop {
        Pop {
            city: city.into(),
            geo: GeoPoint::new(0.0, lon),
            weight: 1.0,
        }
    }

    fn line(id: u32, n: usize) -> IspTopology {
        let pops = (0..n).map(|i| pop(&format!("c{i}"), i as f64)).collect();
        let links = (0..n - 1)
            .map(|i| Link {
                a: PopId::new(i),
                b: PopId::new(i + 1),
                weight: 100.0,
                length_km: 100.0,
            })
            .collect();
        IspTopology::new(IspId(id), format!("L{id}"), pops, links, false).unwrap()
    }

    fn fixture() -> (IspTopology, IspTopology, IspPair) {
        let a = line(0, 3);
        let b = line(1, 3);
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 0.0,
                },
                Interconnection {
                    pop_a: PopId(2),
                    pop_b: PopId(2),
                    length_km: 0.0,
                },
            ],
        )
        .unwrap();
        (a, b, pair)
    }

    fn session(flows: &PairFlows, ids: &[usize], k: usize) -> SessionInput {
        SessionInput {
            flow_ids: ids.iter().map(|&i| FlowId::new(i)).collect(),
            defaults: vec![IcxId(0); ids.len()],
            volumes: ids.iter().map(|&i| flows.flows[i].volume).collect(),
            num_alternatives: k,
        }
    }

    #[test]
    fn cached_rows_are_bit_identical_to_fresh() {
        let (a, b, pair) = fixture();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let k = view.num_interconnections();
        let ids: Vec<usize> = (0..flows.len()).collect();
        let input = session(&flows, &ids, k);
        let current = Assignment::uniform(flows.len(), IcxId(0));

        let mut fresh = GainTable::new(ids.len(), k);
        DistanceMapper::new(Side::A, &flows).gains(&input, &current, &mut fresh);

        let mut cache = GainCache::new(flows.len(), k);
        let mut cached = GainTable::new(ids.len(), k);
        // First pass fills, second serves; both must equal the fresh fill.
        for _ in 0..2 {
            cached.reset(ids.len(), k);
            CachedDistanceMapper::new(Side::A, &flows, &mut cache).gains(
                &input,
                &current,
                &mut cached,
            );
            assert_eq!(fresh.values(), cached.values());
        }
        assert_eq!(cache.refreshed(), ids.len() as u64);
        assert_eq!(cache.served(), ids.len() as u64);
    }

    #[test]
    fn invalidation_is_per_row() {
        let (a, b, pair) = fixture();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let k = view.num_interconnections();
        let ids: Vec<usize> = (0..flows.len()).collect();
        let input = session(&flows, &ids, k);
        let current = Assignment::uniform(flows.len(), IcxId(0));

        let mut cache = GainCache::new(flows.len(), k);
        let mut out = GainTable::new(ids.len(), k);
        CachedDistanceMapper::new(Side::B, &flows, &mut cache).gains(&input, &current, &mut out);
        assert_eq!(cache.valid_rows(), flows.len());

        cache.invalidate(3);
        assert_eq!(cache.valid_rows(), flows.len() - 1);
        let before = cache.refreshed();
        out.reset(ids.len(), k);
        CachedDistanceMapper::new(Side::B, &flows, &mut cache).gains(&input, &current, &mut out);
        assert_eq!(cache.refreshed(), before + 1, "only row 3 recomputes");

        cache.invalidate_all();
        assert_eq!(cache.valid_rows(), 0);
    }

    #[test]
    fn subset_sessions_share_the_cache() {
        let (a, b, pair) = fixture();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let k = view.num_interconnections();
        let current = Assignment::uniform(flows.len(), IcxId(0));

        let mut cache = GainCache::new(flows.len(), k);
        let first = session(&flows, &[0, 2, 4], k);
        let mut out = GainTable::new(3, k);
        CachedDistanceMapper::new(Side::A, &flows, &mut cache).gains(&first, &current, &mut out);
        assert_eq!(cache.refreshed(), 3);

        // An overlapping session refreshes only the unseen rows.
        let second = session(&flows, &[0, 2, 3, 4], k);
        let mut out = GainTable::new(4, k);
        CachedDistanceMapper::new(Side::A, &flows, &mut cache).gains(&second, &current, &mut out);
        assert_eq!(cache.refreshed(), 4);
        assert_eq!(cache.served(), 3);
    }

    #[test]
    fn recycling_reuses_the_backing_table() {
        let mut arena = TableArena::new();
        let cache = GainCache::new_in(&mut arena, 8, 3);
        cache.recycle(&mut arena);
        let again = GainCache::new_in(&mut arena, 8, 3);
        assert_eq!(again.num_flows(), 8);
        assert_eq!(again.valid_rows(), 0);
    }

    #[test]
    fn link_sets_cover_multiple_words() {
        let mut set = LinkSet::new(130);
        assert!(set.is_empty());
        for i in [0usize, 63, 64, 129] {
            set.insert(LinkId::new(i));
        }
        for i in 0..130 {
            assert_eq!(set.contains(LinkId::new(i)), [0, 63, 64, 129].contains(&i));
        }
        set.clear();
        assert!(set.is_empty());
    }

    #[test]
    fn footprint_invalidation_spares_disjoint_rows() {
        use nexit_workload::PathTable;

        let (a, b, pair) = fixture();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let k = view.num_interconnections();
        let capacities = vec![10.0; a.num_links()];
        let classes = vec![0u32; a.num_links()];
        let ids: Vec<usize> = (0..flows.len()).collect();
        let input = session(&flows, &ids, k);
        let current = Assignment::uniform(flows.len(), IcxId(0));

        let mut cache = GainCache::new(flows.len(), k).with_footprints(a.num_links());
        let mut out = GainTable::new(ids.len(), k);
        CachedBandwidthMapper::new(Side::A, &flows, &paths, &capacities, &classes, &mut cache)
            .gains(&input, &current, &mut out);
        assert_eq!(cache.valid_rows(), flows.len());

        // An empty move set invalidates nothing; a real move drops only
        // rows whose recorded footprint contains the moved link.
        cache.bump_load_epoch(&LinkSet::new(a.num_links()), |_| {});
        assert_eq!(cache.valid_rows(), flows.len());
        let mut moved = LinkSet::new(a.num_links());
        moved.insert(LinkId::new(0));
        let mut hit = Vec::new();
        cache.bump_load_epoch(&moved, |f| hit.push(f));
        assert!(!hit.is_empty(), "some path crosses link 0");
        assert_eq!(cache.valid_rows(), flows.len() - hit.len());
        for (i, _) in flows.iter().enumerate() {
            let on_link0 = (0..k).any(|alt| {
                paths
                    .up_links(FlowId::new(i), IcxId::new(alt))
                    .contains(&LinkId::new(0))
            });
            assert_eq!(hit.contains(&i), on_link0, "flow {i}");
        }
    }

    mod proptests {
        use super::*;
        use crate::mapping::{BandwidthMapper, PreferenceMapper};
        use nexit_workload::PathTable;
        use proptest::prelude::*;

        /// One step of a randomized churn history against the cache.
        #[derive(Debug, Clone)]
        enum Op {
            /// Set one link's utilization class and bump the load epoch.
            ClassMove { link: usize, class: u32 },
            /// Structurally invalidate one row.
            InvalidateRow(usize),
            /// Go cold.
            InvalidateAll,
        }

        fn op() -> impl Strategy<Value = Op> {
            (0u8..7, 0usize..32, 0u32..12).prop_map(|(kind, idx, class)| match kind {
                0..=3 => Op::ClassMove { link: idx, class },
                4 | 5 => Op::InvalidateRow(idx),
                _ => Op::InvalidateAll,
            })
        }

        proptest! {
            /// Across any interleaving of class moves and invalidations,
            /// the memoized bandwidth mapper must stay bit-identical to
            /// a fresh fill against the live class snapshot — the
            /// soundness claim footprint invalidation rests on.
            #[test]
            fn cached_bandwidth_rows_match_fresh_under_churn(
                ops in proptest::collection::vec(op(), 1..25),
            ) {
                let (a, b, pair) = fixture();
                let view = PairView::new(&a, &b, &pair);
                let sp_a = ShortestPaths::compute(&a);
                let sp_b = ShortestPaths::compute(&b);
                let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
                    1.0 + (s.index() + 2 * d.index()) as f64
                });
                let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
                let k = view.num_interconnections();
                let n = a.num_links();
                let capacities = vec![10.0; n];
                let mut classes = vec![0u32; n];
                let ids: Vec<usize> = (0..flows.len()).collect();
                let input = session(&flows, &ids, k);
                let current = Assignment::uniform(flows.len(), IcxId(0));

                let mut cache = GainCache::new(flows.len(), k).with_footprints(n);
                let mut cached = GainTable::new(ids.len(), k);
                let mut fresh = GainTable::new(ids.len(), k);
                let mut moved = LinkSet::new(n);
                for step in ops {
                    match step {
                        Op::ClassMove { link, class } => {
                            let l = link % n;
                            if classes[l] != class {
                                classes[l] = class;
                                moved.clear();
                                moved.insert(LinkId::new(l));
                                cache.bump_load_epoch(&moved, |_| {});
                            }
                        }
                        Op::InvalidateRow(i) => cache.invalidate(i % flows.len()),
                        Op::InvalidateAll => cache.invalidate_all(),
                    }
                    cached.reset(ids.len(), k);
                    CachedBandwidthMapper::new(
                        Side::A, &flows, &paths, &capacities, &classes, &mut cache,
                    )
                    .gains(&input, &current, &mut cached);
                    fresh.reset(ids.len(), k);
                    BandwidthMapper::new(Side::A, &flows, &paths, &capacities)
                        .with_classes(&classes)
                        .gains(&input, &current, &mut fresh);
                    prop_assert_eq!(cached.values(), fresh.values());
                }
            }
        }
    }
}
