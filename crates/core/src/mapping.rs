//! ISP-internal metric → preference mapping.
//!
//! Each ISP evaluates its routing alternatives with its own private
//! objective and maps them to opaque classes. The paper's three concrete
//! objectives are implemented:
//!
//! * [`DistanceMapper`] — minimize the distance flows travel inside the
//!   ISP's own network (§5.1): the gain of an alternative is the
//!   kilometres saved relative to the default.
//! * [`BandwidthMapper`] — avoid overload (§5.2): the gain is the
//!   reduction in the *maximum load-to-capacity ratio along the flow's
//!   path*, evaluated against the expected network state (all accepted
//!   decisions applied, remaining flows at their defaults). This is the
//!   mapper whose preferences change as flows are negotiated, which is
//!   why the engine supports reassignment.
//! * [`FortzMapper`] — the LP-based alternate objective (§5.2): the gain
//!   is the reduction in total Fortz–Thorup cost of the ISP's own links.
//!
//! Mappers fill a caller-provided flat [`GainTable`] with **raw metric
//! gains**; the engine quantizes them into classes with one global scale
//! per ISP (see [`crate::prefs::quantize_into`]), preserving the
//! additive-composition requirement. Writing into the caller's table —
//! instead of returning a fresh nest of per-flow vectors — lets the
//! machine reuse one backing buffer across every reassignment of a
//! session.
//!
//! The bandwidth and Fortz mappers are re-run after every reassignment
//! (about fifteen times a session at the paper's 5 % interval), each
//! time over the flows still on the table only, so they keep their
//! per-fill state across fills and do each piece of work once. Per
//! fill: the own-side loads the mapper keeps are updated from the flows
//! that moved since its last fill (in exact units, so they equal a cold
//! sum bit for bit), and `loads / capacity` is computed once per
//! link. Per row: the flow's current path is marked in the
//! mapper's `LinkMarks` array, so "does the flow already ride this
//! link" is one lookup instead of a scan of the path; each alternative's
//! cost is evaluated once, straight into the row, and the default's cost
//! is read back from there; and `(load + volume) / capacity` is computed
//! only for links the flow would move onto. Both bandwidth flavours (exact
//! loads and quantized classes) run the one `path_max_row` kernel.

use crate::arena::GainTable;
use crate::engine::SessionInput;
use crate::outcome::Side;
use nexit_metrics::fortz_link_cost;
use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::{IcxId, LinkId};
use nexit_workload::{exact_volume, PathRow, PathTable, EXACT_LOAD_LIMIT};

/// Width of one utilization class for the quantized bandwidth objective:
/// load-to-capacity ratios are bucketed into steps of 1/16. A power of
/// two keeps `class / 16` exact in f64, so a gain row is a *pure
/// function* of the per-link class vector — the invariant the churn
/// driver's outcome cache rests on: a load move that leaves every class
/// unchanged provably leaves every gain row bit-identical.
pub const UTIL_CLASS_WIDTH: f64 = 1.0 / 16.0;

/// Quantize per-link utilization (`load / capacity`) into classes of
/// [`UTIL_CLASS_WIDTH`], written into `out` (cleared first).
pub fn utilization_classes(loads: &[f64], capacities: &[f64], out: &mut Vec<u32>) {
    debug_assert_eq!(loads.len(), capacities.len());
    out.clear();
    out.extend(
        loads
            .iter()
            .zip(capacities)
            .map(|(&load, &cap)| (load / cap / UTIL_CLASS_WIDTH) as u32),
    );
}

/// This side's link sequences for every alternative of one flow.
#[inline]
fn side_paths(side: Side, paths: &PathTable, flow: FlowId) -> PathRow<'_> {
    match side {
        Side::A => paths.up_paths(flow),
        Side::B => paths.down_paths(flow),
    }
}

/// Which of a side's links lie on the flow's current path
/// ([`LinkMarks::CUR`]) or on the candidate path ([`LinkMarks::ALT`]):
/// the row kernels' O(1) replacement for scanning a path per link. A
/// kernel clears every mark it set before returning, so one array
/// serves all the rows (and fills) of a mapper.
#[derive(Debug, Clone)]
struct LinkMarks {
    bits: Vec<u8>,
}

impl LinkMarks {
    const CUR: u8 = 1;
    const ALT: u8 = 2;

    /// All-clear marks over `num_links` links.
    fn new(num_links: usize) -> Self {
        Self {
            bits: vec![0; num_links],
        }
    }

    #[inline]
    fn set(&mut self, links: &[LinkId], bit: u8) {
        for &l in links {
            self.bits[l.index()] |= bit;
        }
    }

    #[inline]
    fn clear(&mut self, links: &[LinkId], bit: u8) {
        for &l in links {
            self.bits[l.index()] &= !bit;
        }
    }

    #[inline]
    fn has(&self, link: usize, bit: u8) -> bool {
        self.bits[link] & bit != 0
    }
}

/// One flow's gain row under a path-max objective: an alternative of
/// `flow_paths` costs the maximum over its links of `stay(link)` where
/// the flow already rides the link (its current path) and
/// `arrive(link)` where moving would add the flow; the gain is the
/// default's cost minus the alternative's. Costs are written into `row`
/// once and turned into gains in place.
#[inline]
fn path_max_row(
    flow_paths: PathRow<'_>,
    cur: IcxId,
    default: IcxId,
    marks: &mut LinkMarks,
    row: &mut [f64],
    stay: impl Fn(usize) -> f64,
    arrive: impl Fn(usize) -> f64,
) {
    let cur_links = flow_paths.get(cur);
    marks.set(cur_links, LinkMarks::CUR);
    for (alt, cell) in row.iter_mut().enumerate() {
        *cell = flow_paths
            .get(IcxId::new(alt))
            .iter()
            .map(|&l| {
                if marks.has(l.index(), LinkMarks::CUR) {
                    stay(l.index())
                } else {
                    arrive(l.index())
                }
            })
            .fold(0.0_f64, f64::max);
    }
    marks.clear(cur_links, LinkMarks::CUR);
    let base = row[default.index()];
    for cell in row {
        *cell = base - *cell;
    }
}

/// One side's per-link loads under the assignment a mapper last filled
/// against, kept across fills. A session moves few flows between fills,
/// so each fill adds only the flows whose choice changed; volumes are
/// [`exact_volume`]s, so the loads equal a cold sum over every flow bit
/// for bit whatever the order of the moves.
#[derive(Debug, Clone)]
struct KeptLoads {
    /// Per-link loads under `choices`.
    loads: Vec<f64>,
    /// The choice of every flow that `loads` were summed under; empty
    /// before the first fill.
    choices: Vec<IcxId>,
}

impl KeptLoads {
    fn new(num_links: usize) -> Self {
        Self {
            loads: vec![0.0; num_links],
            choices: Vec::new(),
        }
    }

    /// Bring the loads to `current` and return them.
    fn update(
        &mut self,
        side: Side,
        flows: &PairFlows,
        paths: &PathTable,
        current: &Assignment,
    ) -> &[f64] {
        debug_assert_eq!(current.len(), flows.len());
        let volume = |i: usize| exact_volume(flows.flows[i].volume);
        if self.choices.is_empty() {
            let moves = current.iter().map(|(f, icx)| (f, icx, volume(f.index())));
            paths.add_loads(side == Side::A, moves, &mut self.loads);
            self.choices.extend_from_slice(current.choices());
        } else {
            let moved = self
                .choices
                .iter_mut()
                .zip(current.choices())
                .enumerate()
                .filter(|(_, (was, now))| **was != **now)
                .flat_map(|(i, (was, &now))| {
                    let (f, v) = (FlowId::new(i), volume(i));
                    [(f, std::mem::replace(was, now), -v), (f, now, v)]
                });
            paths.add_loads(side == Side::A, moved, &mut self.loads);
        }
        debug_assert!(self.loads.iter().all(|l| l.abs() < EXACT_LOAD_LIMIT));
        &self.loads
    }
}

/// An ISP-internal objective that scores the session's alternatives.
pub trait PreferenceMapper {
    /// Write raw gains (positive = better than the flow's default) for
    /// every flow of `input` × alternative into `out`, given the current
    /// expected assignment of *all* pair flows.
    ///
    /// `input` may be any subset of the session, in session order: the
    /// first disclosure asks for every flow, a re-disclosure only for
    /// the flows still on the table. `out` arrives zeroed with shape
    /// `(input.len(), input.num_alternatives)` and must keep it (the
    /// machine asserts so); row `i` corresponds to `input.flow_ids[i]`
    /// — a mapper that replays a stored table looks its rows up by flow
    /// id — and column `d` where `d` is the flow's default must stay 0.
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable);
}

impl<T: PreferenceMapper + ?Sized> PreferenceMapper for &mut T {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        (**self).gains(input, current, out);
    }
}

impl<T: PreferenceMapper + ?Sized> PreferenceMapper for Box<T> {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        (**self).gains(input, current, out);
    }
}

/// Distance objective: kilometres the flow travels inside this ISP.
#[derive(Debug, Clone, Copy)]
pub struct DistanceMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
}

impl<'a> DistanceMapper<'a> {
    /// Mapper for one side of the pair.
    pub fn new(side: Side, flows: &'a PairFlows) -> Self {
        Self { side, flows }
    }
}

impl PreferenceMapper for DistanceMapper<'_> {
    fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
        for (i, (&fid, &default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            let m = self.flows.metrics(fid);
            let km = |alt: usize| match self.side {
                Side::A => m.up_km[alt],
                Side::B => m.down_km[alt],
            };
            let base = km(default.index());
            for (alt, cell) in out.row_mut(i).iter_mut().enumerate() {
                *cell = base - km(alt);
            }
        }
    }
}

/// Bandwidth objective: maximum load-to-capacity ratio along the flow's
/// own-side path, evaluated on the expected network state.
#[derive(Debug, Clone)]
pub struct BandwidthMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
    paths: &'a PathTable,
    /// Capacity of every link on this ISP's side.
    capacities: &'a [f64],
    /// Quantized utilization classes; when set, rows read these instead
    /// of the loads under `current` (the churn objective).
    classes: Option<&'a [u32]>,
    /// Own-side loads, brought to `current` per fill.
    loads: KeptLoads,
    /// `loads / capacities`, computed once per fill.
    util: Vec<f64>,
    /// The row kernel's current-path marks.
    marks: LinkMarks,
}

impl<'a> BandwidthMapper<'a> {
    /// Mapper for one side. `capacities` must cover every link of that
    /// side's topology.
    pub fn new(
        side: Side,
        flows: &'a PairFlows,
        paths: &'a PathTable,
        capacities: &'a [f64],
    ) -> Self {
        Self {
            side,
            flows,
            paths,
            capacities,
            classes: None,
            loads: KeptLoads::new(capacities.len()),
            util: Vec::new(),
            marks: LinkMarks::new(capacities.len()),
        }
    }

    /// Score alternatives against quantized utilization classes (see
    /// [`utilization_classes`]) instead of exact loads — the churn
    /// driver's bandwidth objective, whose rows are a pure function of
    /// the class vector.
    pub fn with_classes(mut self, classes: &'a [u32]) -> Self {
        self.classes = Some(classes);
        self
    }
}

impl PreferenceMapper for BandwidthMapper<'_> {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        let (side, flows, paths, capacities) = (self.side, self.flows, self.paths, self.capacities);
        let marks = &mut self.marks;
        if let Some(classes) = self.classes {
            // Path-max utilization read through the class buckets, plus
            // the (unquantized) `volume / capacity` the flow itself would
            // add on links it moves onto.
            let class_util = |l: usize| classes[l] as f64 * UTIL_CLASS_WIDTH;
            for (i, &fid) in input.flow_ids.iter().enumerate() {
                let volume = flows.flows[fid.index()].volume;
                path_max_row(
                    side_paths(side, paths, fid),
                    current.choice(fid),
                    input.defaults[i],
                    marks,
                    out.row_mut(i),
                    class_util,
                    |l| class_util(l) + volume / capacities[l],
                );
            }
            return;
        }
        let loads = self.loads.update(side, flows, paths, current);
        self.util.clear();
        self.util
            .extend(loads.iter().zip(capacities).map(|(&load, &cap)| load / cap));
        let util = &self.util;
        // Path-max load ratio after moving the flow from its current
        // path to the alternative's: links the flow already rides keep
        // their load, links it would arrive on carry its volume too.
        for (i, &fid) in input.flow_ids.iter().enumerate() {
            let volume = flows.flows[fid.index()].volume;
            path_max_row(
                side_paths(side, paths, fid),
                current.choice(fid),
                input.defaults[i],
                marks,
                out.row_mut(i),
                |l| util[l],
                |l| (loads[l] + volume) / capacities[l],
            );
        }
    }
}

/// Fortz–Thorup objective: total piecewise-linear cost of the ISP's own
/// links (the paper's LP-formulation alternate metric).
#[derive(Debug, Clone)]
pub struct FortzMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
    paths: &'a PathTable,
    capacities: &'a [f64],
    /// Own-side loads, brought to `current` per fill.
    loads: KeptLoads,
    /// The row kernel's current/candidate-path marks.
    marks: LinkMarks,
}

impl<'a> FortzMapper<'a> {
    /// Mapper for one side.
    pub fn new(
        side: Side,
        flows: &'a PairFlows,
        paths: &'a PathTable,
        capacities: &'a [f64],
    ) -> Self {
        Self {
            side,
            flows,
            paths,
            capacities,
            loads: KeptLoads::new(capacities.len()),
            marks: LinkMarks::new(capacities.len()),
        }
    }
}

impl PreferenceMapper for FortzMapper<'_> {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        let (side, flows, paths, capacities) = (self.side, self.flows, self.paths, self.capacities);
        let marks = &mut self.marks;
        let loads = self.loads.update(side, flows, paths, current);
        for (i, &fid) in input.flow_ids.iter().enumerate() {
            let row = out.row_mut(i);
            let volume = flows.flows[fid.index()].volume;
            let cur = current.choice(fid);
            let flow_paths = side_paths(side, paths, fid);
            let cur_links = flow_paths.get(cur);
            marks.set(cur_links, LinkMarks::CUR);
            // Total-cost delta of moving the flow from `cur` to each
            // alternative, computed over affected links only: the links
            // it arrives on, then the links it leaves.
            for (alt, cell) in row.iter_mut().enumerate() {
                if alt == cur.index() {
                    *cell = 0.0;
                    continue;
                }
                let alt_links = flow_paths.get(IcxId::new(alt));
                marks.set(alt_links, LinkMarks::ALT);
                let mut delta = 0.0;
                for &l in alt_links {
                    if !marks.has(l.index(), LinkMarks::CUR) {
                        let (load, cap) = (loads[l.index()], capacities[l.index()]);
                        delta += fortz_link_cost(load + volume, cap) - fortz_link_cost(load, cap);
                    }
                }
                for &l in cur_links {
                    if !marks.has(l.index(), LinkMarks::ALT) {
                        let (load, cap) = (loads[l.index()], capacities[l.index()]);
                        delta += fortz_link_cost((load - volume).max(0.0), cap)
                            - fortz_link_cost(load, cap);
                    }
                }
                marks.clear(alt_links, LinkMarks::ALT);
                *cell = delta;
            }
            marks.clear(cur_links, LinkMarks::CUR);
            let base = row[input.defaults[i].index()];
            for cell in row {
                *cell = base - *cell;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_routing::{FlowId, ShortestPaths};
    use nexit_topology::{
        GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, PairView, Pop, PopId,
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

    /// This side's link sequence for one (flow, alternative).
    fn side_links(side: Side, paths: &PathTable, flow: FlowId, alt: IcxId) -> &[LinkId] {
        match side {
            Side::A => paths.up_links(flow, alt),
            Side::B => paths.down_links(flow, alt),
        }
    }

    struct Fixture {
        a: IspTopology,
        b: IspTopology,
        pair: IspPair,
    }

    impl Fixture {
        fn new() -> Self {
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
            Self { a, b, pair }
        }
    }

    fn session_all(flows: &PairFlows, default: IcxId) -> SessionInput {
        SessionInput {
            flow_ids: (0..flows.len()).map(FlowId::new).collect(),
            defaults: vec![default; flows.len()],
            volumes: flows.flows.iter().map(|f| f.volume).collect(),
            num_alternatives: flows.metrics(FlowId(0)).num_alternatives(),
        }
    }

    /// Run a mapper through the caller-provided-table contract.
    fn collect_gains<M: PreferenceMapper>(
        mapper: &mut M,
        input: &SessionInput,
        current: &Assignment,
    ) -> GainTable {
        let mut out = GainTable::new(input.len(), input.num_alternatives);
        mapper.gains(input, current, &mut out);
        out
    }

    #[test]
    fn distance_gains_are_km_saved() {
        let fx = Fixture::new();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let input = session_all(&flows, IcxId(0));
        let current = Assignment::uniform(flows.len(), IcxId(0));

        let mut up = DistanceMapper::new(Side::A, &flows);
        let gains = collect_gains(&mut up, &input, &current);
        // Flow a2->b0 (id 6): upstream km via icx0 = 200, via icx1 = 0;
        // gain of icx1 = +200.
        assert_eq!(gains.get(6, 0), 0.0, "default always 0");
        assert_eq!(gains.get(6, 1), 200.0);
        // Flow a0->b2 (id 2): upstream km via icx0 = 0, via icx1 = 200;
        // gain of icx1 = -200.
        assert_eq!(gains.get(2, 1), -200.0);

        let mut down = DistanceMapper::new(Side::B, &flows);
        let dgains = collect_gains(&mut down, &input, &current);
        // Flow a0->b2: downstream km via icx0 = 200, via icx1 = 0.
        assert_eq!(dgains.get(2, 1), 200.0);
    }

    #[test]
    fn bandwidth_gains_reflect_load_relief() {
        let fx = Fixture::new();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let input = session_all(&flows, IcxId(0));
        // Everything crammed through icx 0 loads upstream link 0 heavily.
        let current = Assignment::uniform(flows.len(), IcxId(0));
        let caps_a = vec![1.0; fx.a.num_links()];
        let mut up = BandwidthMapper::new(Side::A, &flows, &paths, &caps_a);
        let gains = collect_gains(&mut up, &input, &current);
        // Flow a2->b0 (id 6): default path a2->a1->a0 rides both loaded
        // links; moving to icx1 empties its upstream path entirely
        // (src == exit PoP), a strictly positive gain.
        assert!(gains.get(6, 1) > 0.0);
        assert_eq!(gains.get(6, 0), 0.0);
    }

    #[test]
    fn bandwidth_empty_path_costs_zero() {
        let fx = Fixture::new();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let input = session_all(&flows, IcxId(0));
        let current = Assignment::uniform(flows.len(), IcxId(0));
        let caps = vec![1.0; fx.a.num_links()];
        let mut up = BandwidthMapper::new(Side::A, &flows, &paths, &caps);
        let gains = collect_gains(&mut up, &input, &current);
        // Flow a0->b0 (id 0): default path inside upstream is empty (src
        // is the exit PoP), so cost(default) = 0 and the gain of the far
        // alternative is -(max ratio on a0..a2 path) < 0.
        assert!(gains.get(0, 1) < 0.0);
    }

    #[test]
    fn fortz_gains_penalize_overload_steeply() {
        let fx = Fixture::new();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let input = session_all(&flows, IcxId(0));
        let current = Assignment::uniform(flows.len(), IcxId(0));
        // Upstream link 0 carries 6 units; capacity 6 means at-capacity.
        let caps = vec![6.0, 6.0];
        let mut up = FortzMapper::new(Side::A, &flows, &paths, &caps);
        let gains = collect_gains(&mut up, &input, &current);
        // Moving a2->b0 off the congested path is a positive gain.
        assert!(gains.get(6, 1) > 0.0);
        // Defaults are zero.
        for f in 0..gains.num_flows() {
            assert_eq!(gains.get(f, 0), 0.0);
        }
    }

    #[test]
    fn mappers_default_column_always_zero() {
        let fx = Fixture::new();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() * d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![10.0; fx.a.num_links()];
        let caps_b = vec![10.0; fx.b.num_links()];
        let current = Assignment::uniform(flows.len(), IcxId(1));
        let input = session_all(&flows, IcxId(1));
        let checks: Vec<Box<dyn PreferenceMapper>> = vec![
            Box::new(DistanceMapper::new(Side::A, &flows)),
            Box::new(DistanceMapper::new(Side::B, &flows)),
            Box::new(BandwidthMapper::new(Side::A, &flows, &paths, &caps_a)),
            Box::new(BandwidthMapper::new(Side::B, &flows, &paths, &caps_b)),
            Box::new(FortzMapper::new(Side::A, &flows, &paths, &caps_a)),
        ];
        for mut mapper in checks {
            let gains = collect_gains(&mut mapper, &input, &current);
            for i in 0..gains.num_flows() {
                assert_eq!(
                    gains.get(i, input.defaults[i].index()),
                    0.0,
                    "default gain must be zero"
                );
            }
        }
    }

    /// The row kernels against the closures they replaced, bit for bit.
    mod kernel_equivalence {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A cold per-link sum of every flow's exact volume under
        /// `current`.
        fn reference_loads(
            side: Side,
            flows: &PairFlows,
            paths: &PathTable,
            num_links: usize,
            current: &Assignment,
        ) -> Vec<f64> {
            let mut loads = vec![0.0; num_links];
            for (fid, flow, _) in flows.iter() {
                for &l in side_links(side, paths, fid, current.choice(fid)) {
                    loads[l.index()] += exact_volume(flow.volume);
                }
            }
            loads
        }

        /// `BandwidthMapper::gains` as it was: a cost closure per
        /// alternative scanning the current path per link, the default
        /// evaluated a second time, a division per link per cell.
        fn reference_bandwidth_fill(c: &Case, side: Side, loads: &[f64], out: &mut GainTable) {
            let (flows, paths, capacities) = (&c.flows, &c.paths, c.caps(side));
            for i in 0..c.input.len() {
                let fid = c.input.flow_ids[i];
                let default = c.input.defaults[i];
                let volume = flows.flows[fid.index()].volume;
                let cur = c.current.choice(fid);
                let cost = |alt: IcxId| -> f64 {
                    let cur_links = side_links(side, paths, fid, cur);
                    side_links(side, paths, fid, alt)
                        .iter()
                        .map(|&l| {
                            let mut load = loads[l.index()];
                            if alt != cur && !cur_links.contains(&l) {
                                load += volume;
                            }
                            load / capacities[l.index()]
                        })
                        .fold(0.0_f64, f64::max)
                };
                let base = cost(default);
                for (alt, cell) in out.row_mut(i).iter_mut().enumerate() {
                    *cell = base - cost(IcxId::new(alt));
                }
            }
        }

        /// One row of the quantized (`with_classes`) fill as it was.
        #[allow(clippy::too_many_arguments)]
        fn reference_quantized_row(
            side: Side,
            paths: &PathTable,
            capacities: &[f64],
            classes: &[u32],
            fid: FlowId,
            cur: IcxId,
            default: IcxId,
            volume: f64,
            row: &mut [f64],
        ) {
            let cur_links = side_links(side, paths, fid, cur);
            let cost = |alt: IcxId| -> f64 {
                side_links(side, paths, fid, alt)
                    .iter()
                    .map(|&l| {
                        let mut util = classes[l.index()] as f64 * UTIL_CLASS_WIDTH;
                        if alt != cur && !cur_links.contains(&l) {
                            util += volume / capacities[l.index()];
                        }
                        util
                    })
                    .fold(0.0_f64, f64::max)
            };
            let base = cost(default);
            for (alt, cell) in row.iter_mut().enumerate() {
                *cell = base - cost(IcxId::new(alt));
            }
        }

        /// `FortzMapper::gains` as it was.
        fn reference_fortz_fill(c: &Case, side: Side, out: &mut GainTable) {
            let (flows, paths, capacities) = (&c.flows, &c.paths, c.caps(side));
            let loads = reference_loads(side, flows, paths, capacities.len(), &c.current);
            for i in 0..c.input.len() {
                let fid = c.input.flow_ids[i];
                let default = c.input.defaults[i];
                let volume = flows.flows[fid.index()].volume;
                let cur = c.current.choice(fid);
                let cost_delta = |alt: IcxId| -> f64 {
                    if alt == cur {
                        return 0.0;
                    }
                    let mut delta = 0.0;
                    let cur_links = side_links(side, paths, fid, cur);
                    let alt_links = side_links(side, paths, fid, alt);
                    for &l in alt_links {
                        if !cur_links.contains(&l) {
                            let cap = capacities[l.index()];
                            let load = loads[l.index()];
                            delta +=
                                fortz_link_cost(load + volume, cap) - fortz_link_cost(load, cap);
                        }
                    }
                    for &l in cur_links {
                        if !alt_links.contains(&l) {
                            let cap = capacities[l.index()];
                            let load = loads[l.index()];
                            delta += fortz_link_cost((load - volume).max(0.0), cap)
                                - fortz_link_cost(load, cap);
                        }
                    }
                    delta
                };
                let base = cost_delta(default);
                for (alt, cell) in out.row_mut(i).iter_mut().enumerate() {
                    *cell = base - cost_delta(IcxId::new(alt));
                }
            }
        }

        /// A ring of `n` PoPs with random weights and two random chords:
        /// paths overlap, split and (from an interconnection's own PoP)
        /// are empty.
        fn ring(id: u32, n: usize, rng: &mut StdRng) -> IspTopology {
            let pops = (0..n).map(|i| pop(&format!("c{i}"), i as f64)).collect();
            let mut ends: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            for _ in 0..2 {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(2..n - 1)) % n;
                ends.push((a, b));
            }
            let links = ends
                .into_iter()
                .map(|(a, b)| Link {
                    a: PopId::new(a),
                    b: PopId::new(b),
                    weight: rng.gen_range(1..6) as f64,
                    length_km: 100.0,
                })
                .collect();
            IspTopology::new(IspId(id), format!("R{id}"), pops, links, false).unwrap()
        }

        struct Case {
            flows: PairFlows,
            paths: PathTable,
            caps: [Vec<f64>; 2],
            /// A partial session: a random subset of the flows, each
            /// with a random default.
            input: SessionInput,
            current: Assignment,
        }

        impl Case {
            fn caps(&self, side: Side) -> &[f64] {
                match side {
                    Side::A => &self.caps[0],
                    Side::B => &self.caps[1],
                }
            }
        }

        /// `settle` is the share of session flows whose current choice
        /// and default coincide (the `alt == cur == default` cell).
        fn case(seed: u64, settle: f64) -> Case {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = ring(0, rng.gen_range(4usize..9), &mut rng);
            let b = ring(1, rng.gen_range(4usize..9), &mut rng);
            let k = rng.gen_range(2usize..6);
            let icxs = (0..k)
                .map(|_| Interconnection {
                    pop_a: PopId::new(rng.gen_range(0..a.num_pops())),
                    pop_b: PopId::new(rng.gen_range(0..b.num_pops())),
                    length_km: 0.0,
                })
                .collect();
            let pair = IspPair::new(&a, &b, icxs).unwrap();
            let view = PairView::new(&a, &b, &pair);
            let (sp_a, sp_b) = (ShortestPaths::compute(&a), ShortestPaths::compute(&b));
            let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| rng.gen_range(0.1..4.0));
            let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
            let caps = [&a, &b].map(|isp| {
                (0..isp.num_links())
                    .map(|_| rng.gen_range(0.5..20.0))
                    .collect()
            });
            let mut current = Assignment::from_choices(
                (0..flows.len())
                    .map(|_| IcxId::new(rng.gen_range(0..k)))
                    .collect(),
            );
            let flow_ids: Vec<FlowId> = (0..flows.len())
                .filter(|_| rng.gen_bool(0.6))
                .map(FlowId::new)
                .collect();
            let defaults: Vec<IcxId> = flow_ids
                .iter()
                .map(|_| IcxId::new(rng.gen_range(0..k)))
                .collect();
            for (&fid, &default) in flow_ids.iter().zip(&defaults) {
                if rng.gen_bool(settle) {
                    current.set(fid, default);
                }
            }
            let input = SessionInput {
                volumes: flow_ids
                    .iter()
                    .map(|f| flows.flows[f.index()].volume)
                    .collect(),
                flow_ids,
                defaults,
                num_alternatives: k,
            };
            Case {
                flows,
                paths,
                caps,
                input,
                current,
            }
        }

        fn bits(table: &GainTable) -> Vec<u64> {
            table.values().iter().map(|g| g.to_bits()).collect()
        }

        proptest! {
            #[test]
            fn bandwidth_kernel_matches_the_closure(seed in any::<u64>(), settle in 0.0f64..1.0) {
                let c = case(seed, settle);
                for side in [Side::A, Side::B] {
                    let caps = c.caps(side);
                    let loads = reference_loads(side, &c.flows, &c.paths, caps.len(), &c.current);
                    let mut expect = GainTable::new(c.input.len(), c.input.num_alternatives);
                    reference_bandwidth_fill(&c, side, &loads, &mut expect);
                    let mut mapper = BandwidthMapper::new(side, &c.flows, &c.paths, caps);
                    let got = collect_gains(&mut mapper, &c.input, &c.current);
                    prop_assert_eq!(bits(&got), bits(&expect));
                    // A second fill reuses the mapper's buffers.
                    let again = collect_gains(&mut mapper, &c.input, &c.current);
                    prop_assert_eq!(bits(&again), bits(&expect), "refill");
                }
            }

            #[test]
            fn quantized_kernel_matches_the_closure(seed in any::<u64>(), settle in 0.0f64..1.0) {
                let c = case(seed, settle);
                for side in [Side::A, Side::B] {
                    let caps = c.caps(side);
                    let loads = reference_loads(side, &c.flows, &c.paths, caps.len(), &c.current);
                    let mut classes = Vec::new();
                    utilization_classes(&loads, caps, &mut classes);
                    let mut expect = GainTable::new(c.input.len(), c.input.num_alternatives);
                    for i in 0..c.input.len() {
                        let fid = c.input.flow_ids[i];
                        reference_quantized_row(
                            side,
                            &c.paths,
                            caps,
                            &classes,
                            fid,
                            c.current.choice(fid),
                            c.input.defaults[i],
                            c.flows.flows[fid.index()].volume,
                            expect.row_mut(i),
                        );
                    }
                    let mut mapper = BandwidthMapper::new(side, &c.flows, &c.paths, caps)
                        .with_classes(&classes);
                    let got = collect_gains(&mut mapper, &c.input, &c.current);
                    prop_assert_eq!(bits(&got), bits(&expect));
                }
            }

            #[test]
            fn fortz_kernel_matches_the_closure(seed in any::<u64>(), settle in 0.0f64..1.0) {
                let c = case(seed, settle);
                for side in [Side::A, Side::B] {
                    let mut expect = GainTable::new(c.input.len(), c.input.num_alternatives);
                    reference_fortz_fill(&c, side, &mut expect);
                    let mut mapper = FortzMapper::new(side, &c.flows, &c.paths, c.caps(side));
                    let got = collect_gains(&mut mapper, &c.input, &c.current);
                    prop_assert_eq!(bits(&got), bits(&expect));
                    let again = collect_gains(&mut mapper, &c.input, &c.current);
                    prop_assert_eq!(bits(&again), bits(&expect), "refill");
                }
            }

            /// Mappers kept across fills against fresh ones, bit for bit,
            /// along a random walk of assignments: each step moves a few
            /// flows (a reassignment, possibly none) or redraws every
            /// flow's choice (a jump).
            #[test]
            fn kept_loads_match_a_fresh_mapper(seed in any::<u64>(), steps in 1usize..12) {
                let c = case(seed, 0.5);
                let mut rng = StdRng::seed_from_u64(!seed);
                let (n, k) = (c.flows.len(), c.input.num_alternatives);
                for side in [Side::A, Side::B] {
                    let caps = c.caps(side);
                    let mut bandwidth = BandwidthMapper::new(side, &c.flows, &c.paths, caps);
                    let mut fortz = FortzMapper::new(side, &c.flows, &c.paths, caps);
                    let mut current = c.current.clone();
                    for step in 0..steps {
                        let flows: Vec<usize> = if rng.gen_bool(0.25) {
                            (0..n).collect()
                        } else {
                            (0..rng.gen_range(0..=3)).map(|_| rng.gen_range(0..n)).collect()
                        };
                        for f in flows {
                            current.set(FlowId::new(f), IcxId::new(rng.gen_range(0..k)));
                        }
                        let mut fresh = BandwidthMapper::new(side, &c.flows, &c.paths, caps);
                        prop_assert_eq!(
                            bits(&collect_gains(&mut bandwidth, &c.input, &current)),
                            bits(&collect_gains(&mut fresh, &c.input, &current)),
                            "bandwidth, step {}", step
                        );
                        let mut fresh = FortzMapper::new(side, &c.flows, &c.paths, caps);
                        prop_assert_eq!(
                            bits(&collect_gains(&mut fortz, &c.input, &current)),
                            bits(&collect_gains(&mut fresh, &c.input, &current)),
                            "fortz, step {}", step
                        );
                    }
                }
            }

            /// `PathTable::add_loads` against a naive per-link loop over
            /// the same moves (the session's flows, random alternatives,
            /// some volumes negative), on the built table and on a
            /// `select_alternatives` variant.
            #[test]
            fn add_loads_matches_a_naive_per_link_loop(seed in any::<u64>()) {
                let c = case(seed, 0.0);
                let mut rng = StdRng::seed_from_u64(!seed);
                let k = c.input.num_alternatives;
                let mut keep: Vec<IcxId> = (0..k).map(IcxId::new).collect();
                keep.swap(0, k - 1);
                keep.truncate(rng.gen_range(1..=k));
                let selected = c.paths.select_alternatives(&keep);
                for (paths, alts) in [(&c.paths, k), (&selected, keep.len())] {
                    let mut moves: Vec<(FlowId, IcxId, f64)> = Vec::new();
                    for &f in &c.input.flow_ids {
                        let alt = IcxId::new(rng.gen_range(0..alts));
                        moves.push((f, alt, rng.gen_range(-4.0..4.0)));
                    }
                    for side in [Side::A, Side::B] {
                        let mut got = vec![0.0; c.caps(side).len()];
                        paths.add_loads(side == Side::A, moves.iter().copied(), &mut got);
                        for (l, got) in got.iter().enumerate() {
                            let mut expect = 0.0_f64;
                            for &(f, alt, volume) in &moves {
                                if side_links(side, paths, f, alt).contains(&LinkId::new(l)) {
                                    expect += volume;
                                }
                            }
                            prop_assert_eq!(got.to_bits(), expect.to_bits());
                        }
                    }
                }
            }
        }

        /// The cases above must actually contain what they claim to
        /// cover: empty paths and settled (`cur == default`) rows.
        #[test]
        fn cases_cover_empty_paths_and_settled_rows() {
            let (mut empty, mut settled, mut moved) = (0, 0, 0);
            for seed in 0..20 {
                let c = case(seed, 0.5);
                for (i, &fid) in c.input.flow_ids.iter().enumerate() {
                    if c.current.choice(fid) == c.input.defaults[i] {
                        settled += 1;
                    } else {
                        moved += 1;
                    }
                    for alt in 0..c.input.num_alternatives {
                        if c.paths.up_links(fid, IcxId::new(alt)).is_empty() {
                            empty += 1;
                        }
                    }
                }
            }
            assert!(
                empty > 0 && settled > 0 && moved > 0,
                "{empty} {settled} {moved}"
            );
        }
    }
}
