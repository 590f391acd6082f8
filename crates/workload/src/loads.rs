//! Per-link load computation.
//!
//! Loads drive everything in the bandwidth experiments: capacities are
//! assigned from pre-failure loads, MEL is a ratio of post- to pre-failure
//! load, and the Nexit bandwidth preference mapping inspects the load a
//! flow alternative would add to each link on its path.
//!
//! [`PathTable`] precomputes the link sequences inside both ISPs once per
//! (PoP, alternative) — a flow's upstream paths are its source PoP's,
//! its downstream paths its destination PoP's — and indexes each flow to
//! its two PoP rows. [`PathTable::add_loads`] is the one per-link load
//! sum: the mappers' loads, [`link_loads`], the churn driver's layers
//! and the baselines' residual, default and greedy loads all add
//! volumes onto paths through it, in the order their callers give.
//! Callers that update loads incrementally (the mappers, churn) add
//! [`exact_volume`]s, whose sums do not depend on that order.

use nexit_routing::{Assignment, FlowId, PairFlows, ShortestPaths};
use nexit_topology::{IcxId, LinkId, PairView, PopId};

/// Rows of `k` link sequences (one per alternative) stored CSR-style:
/// one flat link buffer plus `rows × k + 1` offsets, so a table is two
/// allocations instead of a `Vec` per (row, alternative) and lookups
/// stay cache-dense.
#[derive(Debug, Clone)]
struct PathRows {
    /// Rows held (kept, not derived, so that `k == 0` is no division).
    rows: usize,
    /// Alternatives per row.
    k: usize,
    /// Concatenated link sequences, segment `row * k + icx`.
    links: Vec<LinkId>,
    /// `bounds[i]..bounds[i + 1]` bounds segment `i` of `links`.
    bounds: Vec<u32>,
}

impl PathRows {
    fn with_capacity(k: usize, rows: usize, links: usize) -> Self {
        let mut bounds = Vec::with_capacity(rows * k + 1);
        bounds.push(0);
        Self {
            rows,
            k,
            links: Vec::with_capacity(links),
            bounds,
        }
    }

    /// One row per PoP of an ISP: `path_into(pop, icx, out)` appends
    /// the links of the PoP's path for alternative `icx`.
    fn walk(pops: usize, k: usize, path_into: impl Fn(PopId, IcxId, &mut Vec<LinkId>)) -> Self {
        let mut rows = Self::with_capacity(k, pops, 0);
        for pop in 0..pops {
            for icx in 0..k {
                path_into(PopId::new(pop), IcxId::new(icx), &mut rows.links);
                rows.end_segment();
            }
        }
        rows
    }

    /// Close the segment made of the links appended since the last one.
    fn end_segment(&mut self) {
        self.bounds
            .push(u32::try_from(self.links.len()).expect("path table under 4G links"));
    }

    #[inline]
    fn get(&self, row: usize, icx: IcxId) -> &[LinkId] {
        let i = row * self.k + icx.index();
        &self.links[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    #[inline]
    fn row(&self, row: usize) -> PathRow<'_> {
        let first = row * self.k;
        PathRow {
            links: &self.links,
            bounds: &self.bounds[first..=first + self.k],
        }
    }

    /// A new table over the same rows holding their sequences for the
    /// alternatives `keep`, in `keep` order.
    fn select(&self, keep: &[IcxId]) -> Self {
        let rows = || (0..self.rows).map(|row| self.row(row));
        let links = rows()
            .map(|row| keep.iter().map(|&icx| row.get(icx).len()).sum::<usize>())
            .sum();
        let mut out = Self::with_capacity(keep.len(), self.rows, links);
        for row in rows() {
            for &icx in keep {
                out.links.extend_from_slice(row.get(icx));
                out.end_segment();
            }
        }
        out
    }
}

/// One flow's link sequences on one side, every alternative: the handle
/// a kernel that reads a whole row looks up once per flow.
#[derive(Debug, Clone, Copy)]
pub struct PathRow<'a> {
    links: &'a [LinkId],
    /// The row's `k + 1` segment bounds into `links`.
    bounds: &'a [u32],
}

impl<'a> PathRow<'a> {
    /// The links of alternative `icx`.
    #[inline]
    pub fn get(self, icx: IcxId) -> &'a [LinkId] {
        let i = icx.index();
        &self.links[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// Precomputed link paths for every (PoP, alternative) on both sides of
/// a pair, and each flow's two PoP rows.
///
/// A flow's upstream paths depend only on its source PoP and its
/// downstream paths only on its destination PoP. The table therefore
/// holds one row of `k` sequences per upstream PoP and one per
/// downstream PoP — the `(|A| + |B|) × k` distinct paths, each walked
/// out of a predecessor matrix once — and gives each flow only the
/// index of its two rows. A failure variant
/// ([`PathTable::select_alternatives`]) copies the PoP rows minus the
/// failed column, and the two index vectors.
#[derive(Debug, Clone)]
pub struct PathTable {
    /// Upstream link sequences, one row per upstream PoP.
    up: PathRows,
    /// Downstream link sequences, one row per downstream PoP.
    down: PathRows,
    /// Each flow's row of `up` (its source PoP), in flow order.
    up_row: Vec<u32>,
    /// Each flow's row of `down` (its destination PoP), in flow order.
    down_row: Vec<u32>,
}

impl PathTable {
    /// Precompute all paths for a flow set.
    pub fn build(
        view: &PairView<'_>,
        sp_up: &ShortestPaths,
        sp_down: &ShortestPaths,
        flows: &PairFlows,
    ) -> Self {
        let k = view.num_interconnections();
        Self {
            up: PathRows::walk(view.a.num_pops(), k, |src, icx, out| {
                sp_up.path_links_into(view.a, src, view.pair.interconnection(icx).pop_a, out)
            }),
            down: PathRows::walk(view.b.num_pops(), k, |dst, icx, out| {
                sp_down.path_links_into(view.b, view.pair.interconnection(icx).pop_b, dst, out)
            }),
            up_row: flows.flows.iter().map(|f| f.src.0).collect(),
            down_row: flows.flows.iter().map(|f| f.dst.0).collect(),
        }
    }

    /// The table over the same flows restricted to the alternatives
    /// `keep` (ids in this table), renumbered in `keep` order: what
    /// [`PathTable::build`] returns for the pair with only those
    /// interconnections, derived by copying instead of re-walking.
    pub fn select_alternatives(&self, keep: &[IcxId]) -> Self {
        Self {
            up: self.up.select(keep),
            down: self.down.select(keep),
            up_row: self.up_row.clone(),
            down_row: self.down_row.clone(),
        }
    }

    /// Upstream links of every alternative of one flow.
    #[inline]
    pub fn up_paths(&self, flow: FlowId) -> PathRow<'_> {
        self.up.row(self.up_row[flow.index()] as usize)
    }

    /// Downstream links of every alternative of one flow.
    #[inline]
    pub fn down_paths(&self, flow: FlowId) -> PathRow<'_> {
        self.down.row(self.down_row[flow.index()] as usize)
    }

    /// Upstream links for one (flow, alternative).
    #[inline]
    pub fn up_links(&self, flow: FlowId, icx: IcxId) -> &[LinkId] {
        self.up.get(self.up_row[flow.index()] as usize, icx)
    }

    /// Downstream links for one (flow, alternative).
    #[inline]
    pub fn down_links(&self, flow: FlowId, icx: IcxId) -> &[LinkId] {
        self.down.get(self.down_row[flow.index()] as usize, icx)
    }

    /// Add each `(flow, alternative, volume)` of `moves`, in the order
    /// given, onto every link of that flow's path for that alternative
    /// on one side (upstream when `upstream`, else downstream); a
    /// negative volume takes the load off. `loads` is indexed by that
    /// side's [`LinkId`]. Every per-link load in the workspace is summed
    /// here, so each link's sum is over its moves in `moves` order.
    pub fn add_loads(
        &self,
        upstream: bool,
        moves: impl IntoIterator<Item = (FlowId, IcxId, f64)>,
        loads: &mut [f64],
    ) {
        let (rows, flow_row) = if upstream {
            (&self.up, &self.up_row)
        } else {
            (&self.down, &self.down_row)
        };
        for (flow, icx, volume) in moves {
            for &l in rows.get(flow_row[flow.index()] as usize, icx) {
                loads[l.index()] += volume;
            }
        }
    }

    /// Number of flows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.up_row.len()
    }

    /// True when no flows are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.up_row.is_empty()
    }
}

/// Units per unit of volume in [`exact_volume`]: 2³².
const EXACT_UNITS: f64 = 4_294_967_296.0;

/// Bound on |load| below which every sum of [`exact_volume`]s is exact:
/// 2²¹ volumes of 2⁻³² units fill f64's 53-bit mantissa.
pub const EXACT_LOAD_LIMIT: f64 = 2_097_152.0;

/// `volume` truncated toward zero to a whole multiple of 2⁻³².
///
/// Loads summed from such volumes are exact while every partial sum
/// stays under [`EXACT_LOAD_LIMIT`] in magnitude, so they do not depend
/// on summation order: adding and removing single flows reproduces a
/// cold sum bit for bit. Truncation makes `exact_volume(-v)` exactly
/// `-exact_volume(v)`.
#[inline]
pub fn exact_volume(volume: f64) -> f64 {
    debug_assert!(volume.abs() < EXACT_LOAD_LIMIT, "volume {volume}");
    ((volume * EXACT_UNITS) as i64) as f64 / EXACT_UNITS
}

/// Per-link loads on both sides of a pair, indexed by [`LinkId`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkLoads {
    /// Load on each upstream link.
    pub up: Vec<f64>,
    /// Load on each downstream link.
    pub down: Vec<f64>,
}

impl LinkLoads {
    /// All-zero loads sized for a pair.
    pub fn zero(view: &PairView<'_>) -> Self {
        Self {
            up: vec![0.0; view.a.num_links()],
            down: vec![0.0; view.b.num_links()],
        }
    }
}

/// Compute the loads produced by a complete assignment.
pub fn link_loads(
    view: &PairView<'_>,
    paths: &PathTable,
    flows: &PairFlows,
    assignment: &Assignment,
) -> LinkLoads {
    let mut loads = LinkLoads::zero(view);
    let moves = || {
        flows
            .iter()
            .map(|(id, flow, _)| (id, assignment.choice(id), flow.volume))
    };
    paths.add_loads(true, moves(), &mut loads.up);
    paths.add_loads(false, moves(), &mut loads.down);
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_topology::{GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, Pop};

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

    fn setup() -> (IspTopology, IspTopology, IspPair) {
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

    #[test]
    fn loads_accumulate_along_paths() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        // Route everything via icx 0 (at pop 0/0).
        let asg = Assignment::uniform(flows.len(), IcxId(0));
        let loads = link_loads(&view, &paths, &flows, &asg);
        // Upstream link 0 (a0-a1) carries flows sourced at a1 (3 flows,
        // traveling a1->a0) and a2 (3 flows, a2->a1->a0) = 6.
        assert_eq!(loads.up[0], 6.0);
        // Upstream link 1 (a1-a2) carries the 3 flows sourced at a2.
        assert_eq!(loads.up[1], 3.0);
        // Downstream link 0 (b0-b1) carries flows destined to b1 and b2
        // from each of 3 sources = 6.
        assert_eq!(loads.down[0], 6.0);
        assert_eq!(loads.down[1], 3.0);
    }

    #[test]
    fn selected_alternatives_equal_a_build_on_those_interconnections() {
        let (a, b, pair) = setup();
        let mut wide = pair.clone();
        wide.interconnections.push(Interconnection {
            pop_a: PopId(1),
            pop_b: PopId(2),
            length_km: 0.0,
        });
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let view = PairView::new(&a, &b, &wide);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let table = PathTable::build(&view, &sp_a, &sp_b, &flows);
        // Any selection, in any order, renumbered in that order.
        let keep = [IcxId(2), IcxId(0)];
        let mut narrow = pair.clone();
        narrow.interconnections = keep.iter().map(|&icx| *wide.interconnection(icx)).collect();
        let view = PairView::new(&a, &b, &narrow);
        let rebuilt = PathTable::build(&view, &sp_a, &sp_b, &flows.select_alternatives(&keep));
        let selected = table.select_alternatives(&keep);
        assert_eq!(selected.len(), rebuilt.len());
        for (id, _, _) in flows.iter() {
            for new in 0..keep.len() {
                let new = IcxId::new(new);
                assert_eq!(selected.up_links(id, new), rebuilt.up_links(id, new));
                assert_eq!(selected.down_links(id, new), rebuilt.down_links(id, new));
            }
        }
    }

    #[test]
    fn incremental_add_remove_is_consistent() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() + d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let asg0 = Assignment::uniform(flows.len(), IcxId(0));
        let mut asg1 = asg0.clone();
        asg1.set(FlowId(4), IcxId(1));

        // Full recompute of asg1 vs incremental move from asg0.
        let full = link_loads(&view, &paths, &flows, &asg1);
        let mut incr = link_loads(&view, &paths, &flows, &asg0);
        let vol = flows.flows[4].volume;
        let moved = [(FlowId(4), IcxId(0), -vol), (FlowId(4), IcxId(1), vol)];
        paths.add_loads(true, moved, &mut incr.up);
        paths.add_loads(false, moved, &mut incr.down);
        for (x, y) in incr.up.iter().zip(&full.up) {
            assert!((x - y).abs() < 1e-9);
        }
        for (x, y) in incr.down.iter().zip(&full.down) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn exact_volumes_sum_alike_in_any_order() {
        let raw = [0.1, 0.2, 0.3];
        assert_ne!((raw[0] + raw[1]) + raw[2], raw[0] + (raw[1] + raw[2]));
        let [x, y, z] = raw.map(exact_volume);
        assert_eq!(((x + y) + z).to_bits(), (x + (y + z)).to_bits());
        assert_eq!((((x + y) + z) - y).to_bits(), (x + z).to_bits());
        for v in raw {
            assert_eq!(exact_volume(-v).to_bits(), (-exact_volume(v)).to_bits());
            assert!(exact_volume(v) <= v && v - exact_volume(v) < 1.0 / EXACT_UNITS);
        }
    }

    #[test]
    fn conservation_total_volume_distance() {
        // Sum over links of load == sum over flows of volume * hops.
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 2.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let asg = Assignment::uniform(flows.len(), IcxId(1));
        let loads = link_loads(&view, &paths, &flows, &asg);
        let total_load: f64 = loads.up.iter().chain(&loads.down).sum();
        let total_hops: f64 = flows
            .iter()
            .map(|(id, f, _)| {
                f.volume
                    * (paths.up_links(id, IcxId(1)).len() + paths.down_links(id, IcxId(1)).len())
                        as f64
            })
            .sum();
        assert!((total_load - total_hops).abs() < 1e-9);
    }
}
