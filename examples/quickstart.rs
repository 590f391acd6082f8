//! Quickstart: generate a universe, pick a peering pair, negotiate the
//! distance objective in both directions, and compare against default
//! (early-exit) and globally optimal routing.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nexit::baselines::optimal_distance;
use nexit::core::{NexitConfig, Party, SessionBuilder, Side};
use nexit::sim::experiments::distance::build_pair_run;
use nexit::sim::twoway::TwoWayDistanceMapper;
use nexit::topology::{GeneratorConfig, TopologyGenerator};

fn main() {
    // A deterministic 20-ISP universe (the paper-scale default is 65).
    let universe = TopologyGenerator::new(GeneratorConfig {
        num_isps: 20,
        num_mesh_isps: 2,
        ..GeneratorConfig::default()
    })
    .generate();
    let idx = universe.eligible_pairs(2, true)[2];
    let pair = &universe.pairs[idx];
    let a = &universe.isps[pair.isp_a.index()];
    let b = &universe.isps[pair.isp_b.index()];
    println!(
        "pair: {} ({} PoPs) <-> {} ({} PoPs), {} interconnections",
        a.name,
        a.num_pops(),
        b.name,
        b.num_pops(),
        pair.num_interconnections()
    );

    // Both traffic directions on the table, as the paper prescribes.
    let run = build_pair_run(&universe, idx);
    let (fwd, rev, session) = (&run.fwd, &run.rev, &run.session);
    println!("flows on the table: {}", session.input.len());

    // Negotiate: each ISP maps its own internal distance to opaque
    // preference classes; neither sees the other's kilometres.
    let outcome = SessionBuilder::new()
        .input(session.input.clone())
        .default_assignment(session.default.clone())
        .config(NexitConfig::win_win())
        .party_a(Party::honest(
            a.name.clone(),
            TwoWayDistanceMapper::new(Side::A, &fwd.flows, &rev.flows, session.n_fwd),
        ))
        .party_b(Party::honest(
            b.name.clone(),
            TwoWayDistanceMapper::new(Side::B, &fwd.flows, &rev.flows, session.n_fwd),
        ))
        .run()
        .expect("valid session");
    let (neg_fwd, neg_rev) = session.split(&outcome.assignment);

    // Compare default / negotiated / optimal, in % distance reduction.
    let (negotiated, sides) = run.gains_split(&neg_fwd, &neg_rev);
    let opt_f = optimal_distance(&fwd.flows);
    let opt_r = optimal_distance(&rev.flows);
    let (optimal, _) = run.gains_split(&opt_f, &opt_r);
    println!("total distance gain: negotiated {negotiated:+.2}%  optimal {optimal:+.2}%");
    for (side, gain) in [Side::A, Side::B].into_iter().zip(sides) {
        println!("  {side}: individual gain {gain:+.2}% (win-win: never negative)");
    }
    println!(
        "rounds: {}, flows moved off default: {}",
        outcome.transcript.len(),
        outcome.assignment.diff(&session.default).len()
    );
}
