//! Flows and their per-interconnection path metrics.
//!
//! A *flow* is the unit of negotiation: a stream of packets from a source
//! PoP in the upstream ISP to a destination PoP in the downstream ISP
//! (paper §4). Every flow has one *alternative* per interconnection, and
//! each alternative fully determines the flow's path: shortest path to the
//! exit PoP inside the upstream, the interconnection itself, and shortest
//! path from the entry PoP inside the downstream.

use crate::dijkstra::ShortestPaths;
use nexit_topology::{IcxId, Interconnection, IspTopology, LinkId, PairView, PopId};

/// Index of a flow within one [`PairFlows`] set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// Construct from a `usize` index.
    #[inline]
    pub fn new(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        Self(i as u32)
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// One directed traffic flow from the upstream (A side) to the downstream
/// (B side) of a pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source PoP in the upstream ISP.
    pub src: PopId,
    /// Destination PoP in the downstream ISP.
    pub dst: PopId,
    /// Traffic volume in arbitrary units (gravity-model weight product for
    /// the bandwidth experiments; 1.0 for pure distance experiments).
    pub volume: f64,
}

/// Distance decomposition of one flow over every alternative: a view
/// into its [`PairFlows`]' per-PoP tables.
///
/// All slices are indexed by [`IcxId`]: `up_km[i]` is the geographic
/// length the flow travels inside the upstream ISP when using
/// interconnection `i`, and so on. `up_km` depends only on the flow's
/// source PoP, `down_km` only on its destination PoP and `icx_km` on
/// neither, so every flow from one source shares its `up_km` slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics<'a> {
    /// Kilometres inside the upstream ISP, per alternative.
    pub up_km: &'a [f64],
    /// Kilometres inside the downstream ISP, per alternative.
    pub down_km: &'a [f64],
    /// Kilometres of the interconnection itself, per alternative.
    pub icx_km: &'a [f64],
}

impl FlowMetrics<'_> {
    /// Total end-to-end kilometres for alternative `icx`.
    #[inline]
    pub fn total_km(&self, icx: IcxId) -> f64 {
        self.up_km[icx.index()] + self.down_km[icx.index()] + self.icx_km[icx.index()]
    }

    /// Number of alternatives.
    #[inline]
    pub fn num_alternatives(&self) -> usize {
        self.up_km.len()
    }
}

/// The full flow set of one directed pair experiment: one flow per
/// (upstream PoP, downstream PoP) combination, in row-major order
/// (`src.index() * |B| + dst.index()`), plus their distance metrics.
///
/// The metrics are stored once per PoP, not per flow: kilometres inside
/// the upstream per (source PoP, alternative), inside the downstream per
/// (destination PoP, alternative), and of the interconnection per
/// alternative. [`PairFlows::metrics`] assembles a flow's view.
#[derive(Debug, Clone)]
pub struct PairFlows {
    /// All flows.
    pub flows: Vec<Flow>,
    /// `up_km[src * k + icx]`: upstream kilometres from PoP `src`.
    up_km: Vec<f64>,
    /// `down_km[dst * k + icx]`: downstream kilometres to PoP `dst`.
    down_km: Vec<f64>,
    /// Length of each interconnection; its length is `k`.
    icx_km: Vec<f64>,
}

impl PairFlows {
    /// Build the complete flow set for a directed pair (A upstream).
    ///
    /// `volume_of(src, dst)` supplies flow sizes; pass `|_, _| 1.0` for
    /// unweighted distance experiments.
    pub fn build(
        view: &PairView<'_>,
        sp_up: &ShortestPaths,
        sp_down: &ShortestPaths,
        mut volume_of: impl FnMut(PopId, PopId) -> f64,
    ) -> Self {
        let mut flows = Vec::with_capacity(view.a.num_pops() * view.b.num_pops());
        for (src, _) in view.a.pops() {
            for (dst, _) in view.b.pops() {
                flows.push(Flow {
                    src,
                    dst,
                    volume: volume_of(src, dst),
                });
            }
        }
        let icxs = &view.pair.interconnections;
        // `km(pop, icx)` for every PoP of `isp` × interconnection.
        let per_pop = |isp: &IspTopology, km: &dyn Fn(PopId, &Interconnection) -> f64| {
            let mut out = Vec::with_capacity(isp.num_pops() * icxs.len());
            for (pop, _) in isp.pops() {
                out.extend(icxs.iter().map(|x| km(pop, x)));
            }
            out
        };
        Self {
            flows,
            up_km: per_pop(view.a, &|src, x| sp_up.path_length_km(src, x.pop_a)),
            down_km: per_pop(view.b, &|dst, x| sp_down.path_length_km(x.pop_b, dst)),
            icx_km: icxs.iter().map(|x| x.length_km).collect(),
        }
    }

    /// The same flows restricted to the alternatives `keep` (ids in this
    /// set), renumbered in `keep` order: what [`PairFlows::build`]
    /// returns for the pair with only those interconnections.
    pub fn select_alternatives(&self, keep: &[IcxId]) -> Self {
        let k = self.icx_km.len();
        // Each per-PoP row minus the columns not kept.
        let pick = |km: &[f64]| {
            if keep.is_empty() {
                return Vec::new();
            }
            let mut out = Vec::with_capacity(km.len() / k * keep.len());
            for row in km.chunks_exact(k) {
                out.extend(keep.iter().map(|icx| row[icx.index()]));
            }
            out
        };
        Self {
            flows: self.flows.clone(),
            up_km: pick(&self.up_km),
            down_km: pick(&self.down_km),
            icx_km: pick(&self.icx_km),
        }
    }

    /// Number of flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when there are no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The distance metrics of one flow.
    #[inline]
    pub fn metrics(&self, flow: FlowId) -> FlowMetrics<'_> {
        self.metrics_of(&self.flows[flow.index()])
    }

    #[inline]
    fn metrics_of(&self, flow: &Flow) -> FlowMetrics<'_> {
        let k = self.icx_km.len();
        let (up, down) = (flow.src.index() * k, flow.dst.index() * k);
        FlowMetrics {
            up_km: &self.up_km[up..up + k],
            down_km: &self.down_km[down..down + k],
            icx_km: &self.icx_km,
        }
    }

    /// Iterator over `(FlowId, &Flow, FlowMetrics)`.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &Flow, FlowMetrics<'_>)> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, f)| (FlowId::new(i), f, self.metrics_of(f)))
    }

    /// Total traffic volume across all flows.
    pub fn total_volume(&self) -> f64 {
        self.flows.iter().map(|f| f.volume).sum()
    }
}

/// The sequence of intra-ISP links a flow traverses for a given
/// alternative, split into (upstream links, downstream links).
pub fn flow_links(
    view: &PairView<'_>,
    sp_up: &ShortestPaths,
    sp_down: &ShortestPaths,
    flow: &Flow,
    icx: IcxId,
) -> (Vec<LinkId>, Vec<LinkId>) {
    let (mut up, mut down) = (Vec::new(), Vec::new());
    flow_links_into(view, sp_up, sp_down, flow, icx, &mut up, &mut down);
    (up, down)
}

/// [`flow_links`] into caller-provided buffers: **appends** the upstream
/// and downstream link sequences, so per-(flow, alternative) loops can
/// build flat path tables without a `Vec` allocation per query.
pub fn flow_links_into(
    view: &PairView<'_>,
    sp_up: &ShortestPaths,
    sp_down: &ShortestPaths,
    flow: &Flow,
    icx: IcxId,
    up: &mut Vec<LinkId>,
    down: &mut Vec<LinkId>,
) {
    let x = view.pair.interconnection(icx);
    sp_up.path_links_into(view.a, flow.src, x.pop_a, up);
    sp_down.path_links_into(view.b, x.pop_b, flow.dst, down);
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

    fn link(a: u32, b: u32, km: f64) -> Link {
        Link {
            a: PopId(a),
            b: PopId(b),
            weight: km,
            length_km: km,
        }
    }

    /// Two parallel 3-PoP line ISPs joined at both ends.
    ///
    /// A: a0 -100- a1 -100- a2
    ///    |                 |
    /// B: b0 -100- b1 -100- b2
    fn ladder() -> (IspTopology, IspTopology, IspPair) {
        let a = IspTopology::new(
            IspId(0),
            "A",
            vec![pop("x", 0.0), pop("y", 1.0), pop("z", 2.0)],
            vec![link(0, 1, 100.0), link(1, 2, 100.0)],
            false,
        )
        .unwrap();
        let b = IspTopology::new(
            IspId(1),
            "B",
            vec![pop("x", 0.0), pop("y", 1.0), pop("z", 2.0)],
            vec![link(0, 1, 100.0), link(1, 2, 100.0)],
            false,
        )
        .unwrap();
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 5.0,
                },
                Interconnection {
                    pop_a: PopId(2),
                    pop_b: PopId(2),
                    length_km: 5.0,
                },
            ],
        )
        .unwrap();
        (a, b, pair)
    }

    #[test]
    fn metrics_decompose_correctly() {
        let (a, b, pair) = ladder();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        // Flow a0 -> b2.
        let m = flows.metrics(FlowId(2));
        // Via icx 0 (at x): 0 km upstream, 200 downstream.
        assert_eq!(m.up_km[0], 0.0);
        assert_eq!(m.down_km[0], 200.0);
        assert_eq!(m.total_km(IcxId(0)), 205.0);
        // Via icx 1 (at z): 200 upstream, 0 downstream.
        assert_eq!(m.up_km[1], 200.0);
        assert_eq!(m.down_km[1], 0.0);
        assert_eq!(m.total_km(IcxId(1)), 205.0);
    }

    #[test]
    fn build_full_flow_set() {
        let (a, b, pair) = ladder();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            (s.index() + 1) as f64 * (d.index() + 1) as f64
        });
        assert_eq!(flows.len(), 9);
        assert!(!flows.is_empty());
        // Row-major ordering.
        assert_eq!(flows.flows[0].src, PopId(0));
        assert_eq!(flows.flows[0].dst, PopId(0));
        assert_eq!(flows.flows[5].src, PopId(1));
        assert_eq!(flows.flows[5].dst, PopId(2));
        // Gravity-ish volumes.
        assert_eq!(flows.flows[8].volume, 9.0);
        assert_eq!(flows.total_volume(), 36.0);
    }

    #[test]
    fn flow_links_reconstruct_paths() {
        let (a, b, pair) = ladder();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flow = Flow {
            src: PopId(0),
            dst: PopId(2),
            volume: 1.0,
        };
        let (up, down) = flow_links(&view, &sp_a, &sp_b, &flow, IcxId(0));
        assert!(up.is_empty(), "src is at the exit PoP");
        assert_eq!(down.len(), 2, "two links b0->b1->b2");
        let (up, down) = flow_links(&view, &sp_a, &sp_b, &flow, IcxId(1));
        assert_eq!(up.len(), 2);
        assert!(down.is_empty());
    }

    #[test]
    fn iter_yields_all_flows_in_order() {
        let (a, b, pair) = ladder();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let ids: Vec<u32> = flows.iter().map(|(id, _, _)| id.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>());
        for (_, _, m) in flows.iter() {
            assert_eq!(m.num_alternatives(), 2);
        }
    }
}
