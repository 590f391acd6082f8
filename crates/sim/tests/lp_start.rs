//! The default routing as the optimum LP's starting vertex, on real
//! failure scenarios: every cold solve of the sweep's programs must
//! accept it, and must land on the optimum a start-less two-phase solve
//! of the same program finds.

use nexit_lp::{ConstraintOp, LpOutcome, LpProblem, SimplexOptions};
use nexit_routing::FlowId;
use nexit_sim::experiments::bandwidth::{FailureScenario, PairFailureSweep};
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, IcxId, TopologyGenerator};
use nexit_workload::{CapacityModel, LinkLoads};
use std::collections::HashSet;

/// Today's load and the §5.2 growth steps.
const LADDER: [f64; 5] = [1.0, 1.05, 1.1, 1.2, 1.4];

/// §5.2's program for one scenario, written here from the paper's
/// formulation rather than taken from `nexit-baselines`, with the
/// background load scaled by `scale`; solved with no starting vertex.
fn startless_t(s: &FailureScenario<'_>, scale: f64) -> f64 {
    let view = s.data.view();
    let (paths, flows) = (&s.data.paths, &s.data.flows);
    let k = view.num_interconnections();
    let num_up = view.a.num_links();

    let impacted: HashSet<FlowId> = s.impacted.iter().copied().collect();
    let moves = || {
        let stay = flows.iter().filter(|(fid, ..)| !impacted.contains(fid));
        stay.map(|(fid, flow, _)| (fid, s.data.default.choice(fid), flow.volume))
    };
    let mut background = LinkLoads::zero(&view);
    paths.add_loads(true, moves(), &mut background.up);
    paths.add_loads(false, moves(), &mut background.down);

    let mut p = LpProblem::new();
    let t = p.add_variable(1.0);
    let x: Vec<Vec<usize>> = s
        .impacted
        .iter()
        .map(|_| (0..k).map(|_| p.add_variable(0.0)).collect())
        .collect();
    for row in &x {
        p.add_constraint(
            row.iter().map(|&v| (v, 1.0)).collect(),
            ConstraintOp::Eq,
            1.0,
        );
    }
    let mut links: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_up + view.b.num_links()];
    for (row, &fid) in x.iter().zip(&s.impacted) {
        let volume = flows.flows[fid.index()].volume;
        for (i, &var) in row.iter().enumerate() {
            for &l in paths.up_links(fid, IcxId::new(i)) {
                links[l.index()].push((var, volume));
            }
            for &l in paths.down_links(fid, IcxId::new(i)) {
                links[num_up + l.index()].push((var, volume));
            }
        }
    }
    for (l, mut coeffs) in links.into_iter().enumerate() {
        let (load, capacity) = if l < num_up {
            (background.up[l], s.caps_up[l])
        } else {
            (background.down[l - num_up], s.caps_down[l - num_up])
        };
        coeffs.push((t, -capacity));
        p.add_constraint(coeffs, ConstraintOp::Le, -load * scale);
    }
    let options = SimplexOptions {
        max_iterations: 500_000,
        ..SimplexOptions::default()
    };
    match nexit_lp::solve_with(&p, options) {
        LpOutcome::Optimal { objective, .. } => objective,
        other => panic!("start-less solve: {other:?}"),
    }
}

#[test]
fn every_cold_solve_of_a_failure_sweep_accepts_its_start() {
    let universe = TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate();
    let cfg = ExpConfig {
        max_failures_per_pair: 3,
        ..ExpConfig::default()
    };
    let mut cold_solves = 0;
    for idx in universe.eligible_pairs(3, false).into_iter().take(5) {
        let sweep = PairFailureSweep::build(&universe, idx, &cfg, &CapacityModel::default());
        let mut session = sweep.lp_session(cfg.max_lp_variables);
        for scenario in &sweep.scenarios {
            assert!(session.has_scenario(scenario.failed));
            for scale in LADDER {
                session.invalidate_warm();
                let started = session
                    .solve_failure_scaled(scenario.failed, scale)
                    .expect("started solve");
                let reference = startless_t(scenario, scale);
                assert!(
                    (started.t - reference).abs() <= 1e-9,
                    "pair {idx} failed {:?} x{scale}: started {} vs start-less {reference}",
                    scenario.failed,
                    started.t
                );
                cold_solves += 1;
            }
        }
        let stats = session.warm_stats();
        assert_eq!(stats.start_refusals, 0, "pair {idx}: {stats:?}");
        assert_eq!(stats.warm_reentries(), 0, "pair {idx}: {stats:?}");
    }
    assert!(
        cold_solves >= 25,
        "only {cold_solves} cold solves exercised"
    );
}
