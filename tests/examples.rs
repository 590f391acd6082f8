//! Walkthroughs that run as tests: each case drives one public surface
//! end to end on a small fixed scenario and asserts what it shows.

use nexit::core::{
    negotiate, DisclosurePolicy, DistanceMapper, NexitConfig, Party, SessionInput, Side,
};
use nexit::proto::{run_session, Agent, FaultConfig, FaultyLink, FrameError, ProtoError};
use nexit::routing::{Assignment, FlowId, PairFlows, ShortestPaths};
use nexit::sim::scenarios::ladder;
use nexit::topology::PairView;

/// A full negotiation over the wire protocol: two sans-io agents exchange
/// framed binary messages (Hello, FlowAnnounce, PrefList,
/// Propose/Response, Bye) over an in-memory link, as two
/// negotiation-agent daemons would (paper §6, Figure 12). The session
/// reaches the in-process engine's outcome, and a link that corrupts
/// frames fails it on the frame's CRC instead of changing the outcome.
#[test]
fn protocol_session() {
    let s = ladder(400.0);
    let view = PairView::new(&s.a, &s.b, &s.pair);
    let sp_a = ShortestPaths::compute(&s.a);
    let sp_b = ShortestPaths::compute(&s.b);
    let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
    let default = Assignment::early_exit(&view, &sp_a, &flows);
    let input = SessionInput {
        flow_ids: (0..flows.len()).map(FlowId::new).collect(),
        defaults: default.choices().to_vec(),
        volumes: flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: s.pair.num_interconnections(),
    };
    let config = NexitConfig::win_win();
    let agent = |side, name| {
        Agent::new(
            side,
            name,
            input.clone(),
            default.clone(),
            DistanceMapper::new(side, &flows),
            DisclosurePolicy::Truthful,
            config,
        )
        .expect("valid session input")
    };

    let mut pa = Party::honest("A", DistanceMapper::new(Side::A, &flows));
    let mut pb = Party::honest("B", DistanceMapper::new(Side::B, &flows));
    let engine = negotiate(&input, &default, &mut pa, &mut pb, &config);

    let (mut agent_a, mut agent_b) = (agent(Side::A, "ISP-A agent"), agent(Side::B, "ISP-B agent"));
    let mut link_ab = FaultyLink::new(FaultConfig::RELIABLE, 1);
    let mut link_ba = FaultyLink::new(FaultConfig::RELIABLE, 2);
    let (out_a, out_b) =
        run_session(&mut agent_a, &mut agent_b, &mut link_ab, &mut link_ba).expect("session");
    assert_eq!(out_a.assignment, out_b.assignment, "agents agree");
    assert_eq!(out_a.assignment, engine.assignment, "wire equals engine");
    assert_eq!(
        (out_a.my_gain, out_b.my_gain),
        (engine.gain_a, engine.gain_b)
    );
    assert!(out_a.rounds > 0, "the ladder negotiates");
    assert!(engine.gain_a >= 0 && engine.gain_b >= 0, "win-win");

    // Corruption on the wire is detected, not silently accepted.
    let (mut agent_a, mut agent_b) = (agent(Side::A, "A"), agent(Side::B, "B"));
    let mut bad_ab = FaultyLink::new(
        FaultConfig {
            corrupt_chance: 0.5,
            ..FaultConfig::RELIABLE
        },
        7,
    );
    let mut ok_ba = FaultyLink::new(FaultConfig::RELIABLE, 8);
    let err = run_session(&mut agent_a, &mut agent_b, &mut bad_ab, &mut ok_ba)
        .expect_err("a corrupted frame fails the session");
    assert_eq!(
        err,
        ProtoError::Frame(FrameError::BadCrc {
            expected: 0x7463_F7CA,
            found: 0x993A_41F1,
        })
    );
}

/// A batch of wire negotiations served through the session broker. The
/// worker count moves no outcome, a session whose every frame is
/// corrupted fails alone while its siblings finish unchanged, and a
/// rerun over links that drop, corrupt, duplicate and reorder 5% of
/// frames heals under the ARQ layer to the fault-free outcomes.
#[test]
fn broker_batch() {
    use nexit::broker::{Broker, BrokerConfig, ReliableConfig};
    use nexit::sim::experiments::broker::{synthetic_specs, ALTS, FLOWS};

    let pairs = 200;
    let batch = || synthetic_specs(pairs, FLOWS, ALTS, 42);
    let run = Broker::new(BrokerConfig::with_workers(2)).run_pairs(batch());
    assert_eq!(run.stats.completed, pairs);
    let serial = Broker::new(BrokerConfig::with_workers(1)).run_pairs(batch());
    assert_eq!(run.results, serial.results, "workers move no outcome");

    let victim = pairs / 2;
    let mut specs = batch();
    let spec = specs.remove(victim);
    let corrupt_all = FaultConfig {
        corrupt_chance: 1.0,
        ..FaultConfig::RELIABLE
    };
    specs.insert(victim, spec.with_faults(corrupt_all, 7));
    let faulty = Broker::new(BrokerConfig::with_workers(2)).run_pairs(specs);
    assert!(
        faulty.results[victim].failure().is_some(),
        "the victim fails"
    );
    for (i, (f, r)) in faulty.results.iter().zip(&run.results).enumerate() {
        if i != victim {
            assert!(f.is_negotiated() && f == r, "sibling {i} is unchanged");
        }
    }

    let lossy = FaultConfig {
        drop_chance: 0.05,
        corrupt_chance: 0.05,
        duplicate_chance: 0.05,
        reorder_chance: 0.05,
    };
    let specs = batch()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.with_faults(lossy, 1000 + i as u64))
        .collect();
    let config = BrokerConfig::with_workers(2)
        .with_reliability(ReliableConfig::default())
        .with_degradation();
    let healed = Broker::new(config).run_pairs(specs);
    assert!(healed.stats.retransmits > 0, "the links lost frames");
    assert_eq!(healed.stats.degraded, 0);
    assert_eq!(healed.results, run.results, "ARQ heals every session");
}

/// §5.4: one ISP inflates the class of its favourite alternative for
/// every flow. The negotiation still ends, and the honest ISP never
/// ends below its default; the cheater has no such protection.
#[test]
fn cheating_session() {
    use nexit::core::{DisclosurePolicy, SessionBuilder};
    use nexit::sim::experiments::distance::build_pair_run;
    use nexit::sim::twoway::TwoWayDistanceMapper;
    use nexit::topology::{GeneratorConfig, TopologyGenerator};

    let universe = TopologyGenerator::new(GeneratorConfig {
        num_isps: 20,
        num_mesh_isps: 2,
        ..GeneratorConfig::default()
    })
    .generate();
    for &idx in universe.eligible_pairs(2, true).iter().take(4) {
        let run = build_pair_run(&universe, idx);
        let session = &run.session;
        let mapper =
            |side| TwoWayDistanceMapper::new(side, &run.fwd.flows, &run.rev.flows, session.n_fwd);
        let run_with = |party_b: Party<'_>| {
            SessionBuilder::new()
                .input(session.input.clone())
                .default_assignment(session.default.clone())
                .config(NexitConfig::win_win())
                .party_a(Party::honest("A", mapper(Side::A)))
                .party_b(party_b)
                .run()
                .expect("valid session")
        };
        let truthful = run_with(Party::honest("B", mapper(Side::B)));
        let cheated = run_with(Party::cheating(
            "B",
            mapper(Side::B),
            DisclosurePolicy::InflateBest,
        ));
        assert!(truthful.gain_a >= 0 && truthful.gain_b >= 0, "pair {idx}");
        assert!(cheated.gain_a >= 0, "pair {idx}: the honest side");
    }
}

/// §5.3: an upstream that fights overload (bandwidth) negotiates with a
/// downstream that shortens paths (distance) through opaque preference
/// classes alone, and neither ends below its default.
#[test]
fn diverse_objectives() {
    use nexit::core::{BandwidthMapper, SessionBuilder};
    use nexit::sim::experiments::bandwidth::PairFailureSweep;
    use nexit::sim::ExpConfig;
    use nexit::topology::{GeneratorConfig, TopologyGenerator};
    use nexit::workload::CapacityModel;

    let universe = TopologyGenerator::new(GeneratorConfig {
        num_isps: 20,
        num_mesh_isps: 2,
        ..GeneratorConfig::default()
    })
    .generate();
    let pair = universe.eligible_pairs(3, false)[0];
    let cfg = ExpConfig::smoke();
    let sweep = PairFailureSweep::build(&universe, pair, &cfg, &CapacityModel::default());
    let scenario = &sweep.scenarios[0];
    let data = &scenario.data;
    let outcome = SessionBuilder::new()
        .input(scenario.session_input())
        .default_assignment(data.default.clone())
        .config(NexitConfig::win_win_bandwidth())
        .party_a(Party::honest(
            "upstream (bandwidth)",
            BandwidthMapper::new(Side::A, &data.flows, &data.paths, &scenario.caps_up),
        ))
        .party_b(Party::honest(
            "downstream (distance)",
            DistanceMapper::new(Side::B, &data.flows),
        ))
        .run()
        .expect("valid session");
    assert!(!outcome.transcript.is_empty(), "the objectives trade");
    assert!(outcome.gain_a >= 0 && outcome.gain_b >= 0, "win-win");
}

/// The paper's Figure 2: the ladder's middle interconnection fails, and
/// the flows it carried are negotiated under bandwidth preferences. The
/// split moves flows off the hot-potato default, and neither ISP ends
/// below the default.
#[test]
fn failure_negotiation() {
    use nexit::core::{BandwidthMapper, SessionBuilder};
    use nexit::sim::scenarios::icx;
    use nexit::workload::{assign_capacities, link_loads, CapacityModel, PathTable};

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
    let input = SessionInput {
        defaults: impacted.iter().map(|&f| rdefault.choice(f)).collect(),
        volumes: impacted
            .iter()
            .map(|&f| rflows.flows[f.index()].volume)
            .collect(),
        flow_ids: impacted,
        num_alternatives: reduced.num_interconnections(),
    };
    let outcome = SessionBuilder::new()
        .input(input)
        .default_assignment(rdefault.clone())
        .config(NexitConfig::win_win_bandwidth())
        .party_a(Party::honest(
            "ISP-A",
            BandwidthMapper::new(Side::A, &rflows, &rpaths, &caps_a),
        ))
        .party_b(Party::honest(
            "ISP-B",
            BandwidthMapper::new(Side::B, &rflows, &rpaths, &caps_b),
        ))
        .run()
        .expect("valid session");
    assert!(!outcome.assignment.diff(&rdefault).is_empty(), "flows move");
    assert!(outcome.gain_a >= 0 && outcome.gain_b >= 0, "win-win");
}
