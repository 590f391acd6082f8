//! Per-pair precomputation shared by every experiment.

use nexit_routing::{Assignment, PairFlows, ShortestPaths};
use nexit_topology::{IspPair, IspTopology, PairView};
use nexit_workload::{volume_fn, PathTable, WorkloadModel};
use std::sync::Arc;

/// Global experiment knobs.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Cap on eligible pairs per experiment (`None` = all). Used to keep
    /// smoke runs fast; the full runs use `None`.
    pub max_pairs: Option<usize>,
    /// Cap on simulated interconnection failures per pair.
    pub max_failures_per_pair: usize,
    /// Skip bandwidth-optimum LPs larger than this many variables
    /// (impacted flows × alternatives); skipped scenarios are counted and
    /// reported.
    pub max_lp_variables: usize,
    /// Seed for what the figures randomize: the flow filters (Fig. 5)
    /// and the uniform PoP weights of the alternate-model grid.
    pub seed: u64,
    /// Workload model for bandwidth experiments.
    pub workload: WorkloadModel,
    /// Worker threads for the per-pair sweeps: 0 = one per available
    /// core, 1 = serial, N = exactly N. Results are byte-identical for
    /// every setting (see [`crate::parallel`]).
    pub threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            max_pairs: None,
            max_failures_per_pair: 5,
            max_lp_variables: 6_000,
            seed: 1,
            workload: WorkloadModel::Gravity,
            threads: 1,
        }
    }
}

impl ExpConfig {
    /// A fast configuration for tests and smoke runs. Sweeps run on all
    /// available cores (output is thread-count independent).
    pub fn smoke() -> Self {
        Self {
            max_pairs: Some(12),
            max_failures_per_pair: 2,
            max_lp_variables: 2_000,
            threads: 0,
            ..Self::default()
        }
    }
}

/// Everything one directed experiment needs about a pair: the (owned)
/// pair record, shortest paths, flows, path tables and the early-exit
/// default. Topologies are borrowed from the universe; the pair record is
/// owned so that mirrored and failure-reduced pairs work identically.
///
/// Shortest-path matrices depend only on an ISP's internal topology —
/// not on the pair's interconnections or direction — so they are held
/// behind [`Arc`] and shared: the mirrored reverse-direction run and
/// every failure-reduced variant of a pair reuse the forward matrices
/// instead of recomputing all-pairs Dijkstra.
pub struct PairData<'u> {
    /// The upstream (A-side) topology.
    pub a: &'u IspTopology,
    /// The downstream (B-side) topology.
    pub b: &'u IspTopology,
    /// The pair record (owned; may be a mirrored or reduced variant).
    pub pair: IspPair,
    /// Shortest paths in the upstream ISP (shared; see the type docs).
    pub sp_up: Arc<ShortestPaths>,
    /// Shortest paths in the downstream ISP (shared; see the type docs).
    pub sp_down: Arc<ShortestPaths>,
    /// The directed flow set.
    pub flows: PairFlows,
    /// Per-(flow, alternative) link paths.
    pub paths: PathTable,
    /// Early-exit default assignment.
    pub default: Assignment,
}

impl<'u> PairData<'u> {
    /// Build for a directed pair with the given workload model,
    /// computing both shortest-path matrices from scratch.
    pub fn build(
        a: &'u IspTopology,
        b: &'u IspTopology,
        pair: IspPair,
        workload: WorkloadModel,
    ) -> Self {
        let sp_up = Arc::new(ShortestPaths::compute(a));
        let sp_down = Arc::new(ShortestPaths::compute(b));
        Self::build_with_paths(a, b, pair, workload, sp_up, sp_down)
    }

    /// Build reusing precomputed shortest-path matrices (which must be
    /// `ShortestPaths::compute(a)` / `compute(b)` — they depend only on
    /// the topologies, so any pair variant between the same ISPs
    /// qualifies).
    pub fn build_with_paths(
        a: &'u IspTopology,
        b: &'u IspTopology,
        pair: IspPair,
        workload: WorkloadModel,
        sp_up: Arc<ShortestPaths>,
        sp_down: Arc<ShortestPaths>,
    ) -> Self {
        let (flows, paths, default) = {
            let view = PairView::new(a, b, &pair);
            let vol = volume_fn(workload, a, b);
            let flows = PairFlows::build(&view, &sp_up, &sp_down, vol);
            let paths = PathTable::build(&view, &sp_up, &sp_down, &flows);
            let default = Assignment::early_exit(&view, &sp_up, &flows);
            (flows, paths, default)
        };
        Self {
            a,
            b,
            pair,
            sp_up,
            sp_down,
            flows,
            paths,
            default,
        }
    }

    /// Build the reverse-direction dataset (B upstream) on the mirrored
    /// pair, reusing this dataset's shortest-path matrices with the
    /// roles swapped.
    pub fn build_mirrored(&self, workload: WorkloadModel) -> PairData<'u> {
        PairData::build_with_paths(
            self.b,
            self.a,
            self.mirrored_pair(),
            workload,
            self.sp_down.clone(),
            self.sp_up.clone(),
        )
    }

    /// Build the dataset for a reduced (post-failure) variant of this
    /// data's pair by projection: `reduced` must hold an order-preserving
    /// subset of this pair's interconnections (what
    /// [`IspPair::without_interconnection`] returns) and `workload` must
    /// be the model this dataset was built with. A failure removes an
    /// interconnection, not internal links, so the reduced flows and
    /// paths are this dataset's minus the failed columns — copied, not
    /// re-walked — and only the early-exit default is recomputed.
    /// Equal to [`PairData::build_with_paths`] on `reduced`.
    ///
    /// # Panics
    /// If `reduced` is not such a subset.
    pub fn build_reduced(&self, reduced: IspPair, workload: WorkloadModel) -> PairData<'u> {
        assert_eq!(
            reduced.isp_a, self.pair.isp_a,
            "reduced pair is between other ISPs"
        );
        assert_eq!(
            reduced.isp_b, self.pair.isp_b,
            "reduced pair is between other ISPs"
        );
        let mut keep = Vec::with_capacity(reduced.num_interconnections());
        let mut rest = self.pair.interconnections();
        for (_, icx) in reduced.interconnections() {
            let (id, _) = rest.find(|(_, x)| *x == icx).expect(
                "reduced pair must hold an order-preserving subset of the interconnections",
            );
            keep.push(id);
        }
        debug_assert!(
            {
                let vol = volume_fn(workload, self.a, self.b);
                self.flows
                    .flows
                    .iter()
                    .all(|f| f.volume == vol(f.src, f.dst))
            },
            "reduced variant requested under another workload model"
        );
        let flows = self.flows.select_alternatives(&keep);
        let paths = self.paths.select_alternatives(&keep);
        let default = Assignment::early_exit(
            &PairView::new(self.a, self.b, &reduced),
            &self.sp_up,
            &flows,
        );
        PairData {
            a: self.a,
            b: self.b,
            pair: reduced,
            sp_up: self.sp_up.clone(),
            sp_down: self.sp_down.clone(),
            flows,
            paths,
            default,
        }
    }

    /// The directed view over this data's pair.
    pub fn view(&self) -> PairView<'_> {
        PairView::new(self.a, self.b, &self.pair)
    }

    /// The mirrored pair record (B upstream), for building the reverse
    /// direction's [`PairData`].
    pub fn mirrored_pair(&self) -> IspPair {
        IspPair {
            isp_a: self.pair.isp_b,
            isp_b: self.pair.isp_a,
            interconnections: self
                .pair
                .interconnections
                .iter()
                .map(|x| nexit_topology::Interconnection {
                    pop_a: x.pop_b,
                    pop_b: x.pop_a,
                    length_km: x.length_km,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_routing::flow_links_into;
    use nexit_topology::{GeneratorConfig, TopologyGenerator};

    #[test]
    fn pairdata_builds_for_generated_pair() {
        let u = TopologyGenerator::new(GeneratorConfig {
            num_isps: 10,
            num_mesh_isps: 0,
            seed: 3,
            ..GeneratorConfig::default()
        })
        .generate();
        let eligible = u.eligible_pairs(2, true);
        assert!(!eligible.is_empty());
        let pair = &u.pairs[eligible[0]];
        let data = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Gravity,
        );
        assert_eq!(data.flows.len(), data.a.num_pops() * data.b.num_pops());
        assert_eq!(data.default.len(), data.flows.len());
        assert!(data.flows.total_volume() > 0.0);
    }

    #[test]
    fn mirrored_pair_swaps_endpoints() {
        let u = TopologyGenerator::new(GeneratorConfig {
            num_isps: 10,
            num_mesh_isps: 0,
            seed: 3,
            ..GeneratorConfig::default()
        })
        .generate();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let data = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Identical,
        );
        let m = data.mirrored_pair();
        assert_eq!(m.isp_a, pair.isp_b);
        assert_eq!(m.isp_b, pair.isp_a);
        for (orig, mir) in pair.interconnections.iter().zip(&m.interconnections) {
            assert_eq!(orig.pop_a, mir.pop_b);
            assert_eq!(orig.pop_b, mir.pop_a);
        }
    }

    #[test]
    fn mirrored_and_reduced_builds_share_shortest_paths() {
        let u = TopologyGenerator::new(GeneratorConfig {
            num_isps: 10,
            num_mesh_isps: 0,
            seed: 3,
            ..GeneratorConfig::default()
        })
        .generate();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let fwd = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Identical,
        );
        let rev = fwd.build_mirrored(WorkloadModel::Identical);
        assert!(Arc::ptr_eq(&fwd.sp_up, &rev.sp_down), "fwd up == rev down");
        assert!(Arc::ptr_eq(&fwd.sp_down, &rev.sp_up), "fwd down == rev up");
        // The reverse data is identical to an uncached build.
        let fresh = PairData::build(
            &u.isps[pair.isp_b.index()],
            &u.isps[pair.isp_a.index()],
            fwd.mirrored_pair(),
            WorkloadModel::Identical,
        );
        assert_eq!(rev.default, fresh.default);
        assert_eq!(rev.flows.len(), fresh.flows.len());

        let reduced = fwd.build_reduced(fwd.pair.clone(), WorkloadModel::Identical);
        assert!(Arc::ptr_eq(&fwd.sp_up, &reduced.sp_up));
        assert!(Arc::ptr_eq(&fwd.sp_down, &reduced.sp_down));
    }

    fn small_universe() -> nexit_topology::Universe {
        TopologyGenerator::new(GeneratorConfig {
            num_isps: 10,
            num_mesh_isps: 1,
            seed: 3,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    /// Calls `check(full, reduced, workload)` for every failure of every
    /// pair with a choice left afterwards, under each workload model,
    /// and returns how many it made.
    fn each_failure(
        u: &nexit_topology::Universe,
        mut check: impl FnMut(&PairData<'_>, IspPair, WorkloadModel),
    ) -> usize {
        let eligible = u.eligible_pairs(3, false);
        assert!(!eligible.is_empty());
        let mut variants = 0;
        for workload in [
            WorkloadModel::Gravity,
            WorkloadModel::Identical,
            WorkloadModel::Uniform { seed: 7 },
        ] {
            for &idx in &eligible {
                let pair = &u.pairs[idx];
                let (a, b) = (&u.isps[pair.isp_a.index()], &u.isps[pair.isp_b.index()]);
                let full = PairData::build(a, b, pair.clone(), workload);
                for (failed, _) in pair.interconnections() {
                    check(&full, pair.without_interconnection(failed).0, workload);
                    variants += 1;
                }
            }
        }
        variants
    }

    /// Projection must be indistinguishable from a rebuild.
    #[test]
    fn reduced_projection_equals_rebuild() {
        let u = small_universe();
        let variants = each_failure(&u, |full, reduced, workload| {
            let projected = full.build_reduced(reduced.clone(), workload);
            let rebuilt = PairData::build_with_paths(
                full.a,
                full.b,
                reduced,
                workload,
                full.sp_up.clone(),
                full.sp_down.clone(),
            );
            assert_eq!(projected.pair, rebuilt.pair);
            assert_eq!(projected.flows.flows, rebuilt.flows.flows);
            assert_eq!(projected.default, rebuilt.default);
            assert_eq!(projected.paths.len(), rebuilt.paths.len());
            for (fid, _, m) in rebuilt.flows.iter() {
                assert_eq!(projected.flows.metrics(fid), m);
                for (icx, _) in rebuilt.pair.interconnections() {
                    assert_eq!(
                        projected.paths.up_links(fid, icx),
                        rebuilt.paths.up_links(fid, icx)
                    );
                    assert_eq!(
                        projected.paths.down_links(fid, icx),
                        rebuilt.paths.down_links(fid, icx)
                    );
                }
            }
        });
        assert!(variants >= 9, "only {variants} variants compared");
    }

    /// Every flow × alternative of `data` against the per-flow walk the
    /// per-PoP tables replaced: links from `flow_links_into`, kilometres
    /// straight from the shortest-path matrices and the pair record.
    fn assert_equals_per_flow_walk(data: &PairData<'_>) {
        let view = data.view();
        let (mut up, mut down) = (Vec::new(), Vec::new());
        assert_eq!(data.paths.len(), data.flows.len());
        for (fid, flow, m) in data.flows.iter() {
            assert_eq!(m, data.flows.metrics(fid));
            assert_eq!(m.num_alternatives(), data.pair.num_interconnections());
            for (icx, x) in data.pair.interconnections() {
                up.clear();
                down.clear();
                flow_links_into(
                    &view,
                    &data.sp_up,
                    &data.sp_down,
                    flow,
                    icx,
                    &mut up,
                    &mut down,
                );
                assert_eq!(data.paths.up_links(fid, icx), up);
                assert_eq!(data.paths.down_links(fid, icx), down);
                assert_eq!(data.paths.up_paths(fid).get(icx), up);
                assert_eq!(data.paths.down_paths(fid).get(icx), down);
                let i = icx.index();
                assert_eq!(m.up_km[i], data.sp_up.path_length_km(flow.src, x.pop_a));
                assert_eq!(m.down_km[i], data.sp_down.path_length_km(x.pop_b, flow.dst));
                assert_eq!(m.icx_km[i], x.length_km);
            }
        }
    }

    /// The per-PoP tables of the intact pair and of every failure
    /// projection read exactly what a per-flow walk computes.
    #[test]
    fn per_pop_tables_equal_a_per_flow_walk() {
        let u = small_universe();
        let variants = each_failure(&u, |full, reduced, workload| {
            assert_equals_per_flow_walk(full);
            assert_equals_per_flow_walk(&full.build_reduced(reduced, workload));
        });
        assert!(variants >= 9, "only {variants} variants checked");
    }

    #[test]
    #[should_panic(expected = "order-preserving subset")]
    fn reduced_build_refuses_a_non_subset_pair() {
        let u = small_universe();
        let pair = &u.pairs[u.eligible_pairs(3, false)[0]];
        let full = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Identical,
        );
        // The same interconnections in another order are not a
        // projection of the intact tables' columns.
        let mut reordered = pair.clone();
        reordered.interconnections.reverse();
        full.build_reduced(reordered, WorkloadModel::Identical);
    }

    #[test]
    fn smoke_config_is_small() {
        let c = ExpConfig::smoke();
        assert!(c.max_pairs.unwrap() <= 20);
        assert!(c.max_lp_variables <= 6_000);
    }
}
