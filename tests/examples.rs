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
