//! Drive a full negotiation over the *wire protocol*: two sans-io agents
//! exchange framed binary messages (Hello, FlowAnnounce, PrefList,
//! Propose/Response, Bye) over an in-memory link, as two negotiation-agent
//! daemons would (paper §6, Figure 12) — then once more over a link that
//! corrupts frames.
//!
//! ```sh
//! cargo run --release --example protocol_session
//! ```

use nexit::core::{DisclosurePolicy, DistanceMapper, NexitConfig, SessionInput, Side};
use nexit::proto::{run_session, Agent, FaultConfig, FaultyLink};
use nexit::routing::{Assignment, FlowId, PairFlows, ShortestPaths};
use nexit::sim::scenarios::ladder;
use nexit::topology::PairView;

fn build_session() -> (SessionInput, Assignment, PairFlows) {
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
    (input, default, flows)
}

fn main() {
    let (input, default, flows) = build_session();
    let config = NexitConfig::win_win();

    // Synchronous in-memory session.
    let mut agent_a = Agent::new(
        Side::A,
        "ISP-A agent",
        input.clone(),
        default.clone(),
        DistanceMapper::new(Side::A, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .expect("agent A");
    let mut agent_b = Agent::new(
        Side::B,
        "ISP-B agent",
        input.clone(),
        default.clone(),
        DistanceMapper::new(Side::B, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .expect("agent B");
    let mut link_ab = FaultyLink::new(FaultConfig::RELIABLE, 1);
    let mut link_ba = FaultyLink::new(FaultConfig::RELIABLE, 2);
    let (out_a, out_b) =
        run_session(&mut agent_a, &mut agent_b, &mut link_ab, &mut link_ba).expect("session");
    println!(
        "in-memory session: {} rounds, gains A={} B={}, assignments agree: {}",
        out_a.rounds,
        out_a.my_gain,
        out_b.my_gain,
        out_a.assignment == out_b.assignment
    );

    // Corruption on the wire is detected, not silently accepted.
    let (input, default, flows) = build_session();
    let mut agent_a = Agent::new(
        Side::A,
        "A",
        input.clone(),
        default.clone(),
        DistanceMapper::new(Side::A, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut agent_b = Agent::new(
        Side::B,
        "B",
        input,
        default,
        DistanceMapper::new(Side::B, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut bad_ab = FaultyLink::new(
        FaultConfig {
            corrupt_chance: 0.5,
            ..FaultConfig::RELIABLE
        },
        7,
    );
    let mut ok_ba = FaultyLink::new(FaultConfig::RELIABLE, 8);
    match run_session(&mut agent_a, &mut agent_b, &mut bad_ab, &mut ok_ba) {
        Ok(_) => println!("faulty link: session survived (no frame happened to be corrupted)"),
        Err(e) => println!("faulty link: cleanly detected -> {e}"),
    }
}
