//! End-to-end checks of the paper's headline claims on a small universe.

use nexit::baselines::optimal_distance;
use nexit::core::{negotiate, NexitConfig, Party, Side, TableArena};
use nexit::metrics::percent_gain;
use nexit::sim::experiments::{bandwidth, distance};
use nexit::sim::twoway::{twoway_side_distance, twoway_total_distance, TwoWayDistanceMapper};
use nexit::sim::ExpConfig;
use nexit::topology::{GeneratorConfig, TopologyGenerator, Universe};
use nexit::workload::{CapacityModel, WorkloadModel};

fn small_universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 16,
        num_mesh_isps: 2,
        ..GeneratorConfig::default()
    })
    .generate()
}

#[test]
fn negotiation_is_win_win_on_every_pair() {
    // Paper §5.1 / Fig. 4b: "individual ISPs do not lose with negotiated
    // routing".
    let u = small_universe();
    for &idx in u.eligible_pairs(2, true).iter().take(8) {
        let run = distance::build_pair_run(&u, idx);
        let session = &run.session;
        let mut a = Party::honest(
            "A",
            TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
        );
        let mut b = Party::honest(
            "B",
            TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
        );
        let out = negotiate(
            &session.input,
            &session.default,
            &mut a,
            &mut b,
            &NexitConfig::win_win(),
        );
        let (f, r) = session.split(&out.assignment);
        for side in [Side::A, Side::B] {
            let d = twoway_side_distance(
                side,
                &run.fwd.flows,
                &run.rev.flows,
                &run.fwd.default,
                &run.rev.default,
            );
            let n = twoway_side_distance(side, &run.fwd.flows, &run.rev.flows, &f, &r);
            let gain = percent_gain(d, n);
            assert!(
                gain >= -1e-9,
                "pair {idx}: {side} lost {gain:.3}% under negotiation"
            );
        }
    }
}

#[test]
fn negotiated_close_to_optimal_distance() {
    // Paper Fig. 4a: negotiated total gain tracks the global optimum.
    let u = small_universe();
    let mut captured = 0.0;
    let mut possible = 0.0;
    for &idx in u.eligible_pairs(2, true).iter().take(8) {
        let run = distance::build_pair_run(&u, idx);
        let session = &run.session;
        let mut a = Party::honest(
            "A",
            TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
        );
        let mut b = Party::honest(
            "B",
            TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
        );
        let out = negotiate(
            &session.input,
            &session.default,
            &mut a,
            &mut b,
            &NexitConfig::win_win(),
        );
        let (f, r) = session.split(&out.assignment);
        let d = twoway_total_distance(
            &run.fwd.flows,
            &run.rev.flows,
            &run.fwd.default,
            &run.rev.default,
        );
        let n = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &f, &r);
        let o = twoway_total_distance(
            &run.fwd.flows,
            &run.rev.flows,
            &optimal_distance(&run.fwd.flows),
            &optimal_distance(&run.rev.flows),
        );
        captured += d - n;
        possible += d - o;
    }
    assert!(possible > 0.0, "degenerate universe");
    let share = captured / possible;
    assert!(
        share > 0.7,
        "negotiation captured only {:.0}% of the optimal gain",
        100.0 * share
    );
}

#[test]
fn negotiated_mel_close_to_optimal() {
    // Paper Fig. 7: negotiated MEL tracks the fractional optimum while
    // default routing overshoots.
    let u = small_universe();
    let cfg = ExpConfig::smoke();
    let mut neg_ratios = Vec::new();
    let mut def_ratios = Vec::new();
    for &idx in u.eligible_pairs(3, false).iter().take(4) {
        for scenario in bandwidth::failure_scenarios(&u, idx, &cfg, &CapacityModel::default()) {
            let Ok(opt) = scenario.optimum(cfg.max_lp_variables) else {
                continue;
            };
            let opt_up = opt.side_mel(&scenario.caps_up, true);
            if opt_up < 1e-9 {
                continue;
            }
            let negotiated = scenario.negotiate_bandwidth();
            let (neg_up, _) = scenario.mels(&negotiated);
            neg_ratios.push(neg_up / opt_up);
            def_ratios.push(scenario.default_mels.0 / opt_up);
        }
    }
    assert!(!neg_ratios.is_empty(), "no scenarios evaluated");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&neg_ratios) <= mean(&def_ratios) + 1e-9,
        "negotiation should not be worse than default: {} vs {}",
        mean(&neg_ratios),
        mean(&def_ratios)
    );
    // Negotiated must sit near the optimum on average (paper: "most of
    // the MELs are one").
    assert!(
        mean(&neg_ratios) < 1.8,
        "negotiated MEL ratio too high: {}",
        mean(&neg_ratios)
    );
}

#[test]
fn bandwidth_negotiation_under_reassignment_is_win_win() {
    // "Win-win never negative" on real failure sessions at the paper's
    // 5 % reassignment interval. While a re-disclosure re-priced the
    // flows already settled, the close took back for a reverted move a
    // class other than the one its round had entered, and 4 of this
    // universe's 71 sessions ended below default: pair 8 failing
    // interconnection 2 at (-2, 0), pair 10 / 1 at (-1, 0), pair 13 / 2
    // at (-1, 59) and pair 24 / 1 at (-2, 0).
    let u = TopologyGenerator::new(GeneratorConfig {
        num_isps: 16,
        num_mesh_isps: 2,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate();
    let cfg = ExpConfig {
        workload: WorkloadModel::Uniform { seed: 11 },
        threads: 1,
        ..ExpConfig::default()
    };
    let mut arena = TableArena::new();
    let mut sessions = 0;
    for idx in u.eligible_pairs(3, false) {
        for s in bandwidth::failure_scenarios(&u, idx, &cfg, &CapacityModel::default()) {
            let out = s.negotiate_bandwidth_with(&mut arena, &s.caps_up, &s.caps_down);
            assert!(
                out.gain_a >= 0 && out.gain_b >= 0,
                "pair {idx}, interconnection {} failed: gains ({}, {})",
                s.failed.index(),
                out.gain_a,
                out.gain_b
            );
            sessions += 1;
        }
    }
    assert_eq!(sessions, 71);
}

#[test]
fn fig3_reassignment_walkthrough_holds_end_to_end() {
    // The §4.1 worked example through the real topology machinery: see
    // also the unit test in the engine; here the ladder scenario drives
    // the bandwidth mapper and reassignment discovers the f3-top move.
    use nexit::core::BandwidthMapper;
    use nexit::routing::{Assignment, FlowId, PairFlows, ShortestPaths};
    use nexit::sim::scenarios::{icx, ladder};
    use nexit::topology::PairView;
    use nexit::workload::{assign_capacities, link_loads, PathTable};

    let s = ladder(500.0);
    let view = PairView::new(&s.a, &s.b, &s.pair);
    let sp_a = ShortestPaths::compute(&s.a);
    let sp_b = ShortestPaths::compute(&s.b);
    let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
    let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
    let default = Assignment::early_exit(&view, &sp_a, &flows);
    let pre = link_loads(&view, &paths, &flows, &default);
    let caps_a = assign_capacities(&CapacityModel::default(), &pre.up);
    let caps_b = assign_capacities(&CapacityModel::default(), &pre.down);

    let (reduced, _) = s.pair.without_interconnection(icx::MIDDLE);
    let rview = PairView::new(&s.a, &s.b, &reduced);
    let rflows = PairFlows::build(&rview, &sp_a, &sp_b, |_, _| 1.0);
    let rpaths = PathTable::build(&rview, &sp_a, &sp_b, &rflows);
    let rdefault = Assignment::early_exit(&rview, &sp_a, &rflows);
    let impacted: Vec<FlowId> = default
        .iter()
        .filter(|(_, c)| *c == icx::MIDDLE)
        .map(|(f, _)| f)
        .collect();
    assert!(!impacted.is_empty());
    let input = nexit::core::SessionInput {
        defaults: impacted.iter().map(|&f| rdefault.choice(f)).collect(),
        volumes: impacted
            .iter()
            .map(|&f| rflows.flows[f.index()].volume)
            .collect(),
        flow_ids: impacted,
        num_alternatives: reduced.num_interconnections(),
    };
    let mut a = Party::honest(
        "A",
        BandwidthMapper::new(Side::A, &rflows, &rpaths, &caps_a),
    );
    let mut b = Party::honest(
        "B",
        BandwidthMapper::new(Side::B, &rflows, &rpaths, &caps_b),
    );
    let out = negotiate(
        &input,
        &rdefault,
        &mut a,
        &mut b,
        &NexitConfig::win_win_bandwidth(),
    );
    // Negotiation must strictly reduce the worst overload vs hot-potato.
    let before = link_loads(&rview, &rpaths, &rflows, &rdefault);
    let after = link_loads(&rview, &rpaths, &rflows, &out.assignment);
    let mel = |l: &nexit::workload::LinkLoads| {
        nexit::metrics::mel(&l.up, &caps_a).max(nexit::metrics::mel(&l.down, &caps_b))
    };
    assert!(
        mel(&after) < mel(&before) - 1e-9,
        "negotiation failed to relieve the overload: {} -> {}",
        mel(&before),
        mel(&after)
    );
}
