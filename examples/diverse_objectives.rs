//! §5.3: negotiation between ISPs with *different* objectives. The
//! upstream fights overload (bandwidth objective) while the downstream
//! shortens paths (distance objective) — opaque preference classes let
//! them trade without sharing metrics or even metric *types*.
//!
//! ```sh
//! cargo run --release --example diverse_objectives
//! ```

use nexit::core::{BandwidthMapper, DistanceMapper, NexitConfig, Party, SessionBuilder, Side};
use nexit::metrics::percent_gain;
use nexit::sim::experiments::bandwidth::failure_scenarios;
use nexit::sim::ExpConfig;
use nexit::topology::{GeneratorConfig, TopologyGenerator};
use nexit::workload::CapacityModel;

fn main() {
    let universe = TopologyGenerator::new(GeneratorConfig {
        num_isps: 20,
        num_mesh_isps: 2,
        ..GeneratorConfig::default()
    })
    .generate();
    let cfg = ExpConfig::smoke();
    let eligible = universe.eligible_pairs(3, false);
    let scenario_pair = eligible[0];
    let scenarios = failure_scenarios(&universe, scenario_pair, &cfg, &CapacityModel::default());
    let scenario = &scenarios[0];
    println!(
        "failure scenario: {} impacted flows, {} surviving interconnections",
        scenario.impacted.len(),
        scenario.data.pair.num_interconnections()
    );

    let input = scenario.session_input();
    // Upstream: avoid overload. Downstream: shorten its carry distance.
    let outcome = SessionBuilder::new()
        .input(input)
        .default_assignment(scenario.data.default.clone())
        .config(NexitConfig::win_win_bandwidth())
        .party_a(Party::honest(
            "upstream (bandwidth)",
            BandwidthMapper::new(
                Side::A,
                &scenario.data.flows,
                &scenario.data.paths,
                &scenario.caps_up,
            ),
        ))
        .party_b(Party::honest(
            "downstream (distance)",
            DistanceMapper::new(Side::B, &scenario.data.flows),
        ))
        .run()
        .expect("valid session");

    let (def_up, _) = scenario.default_mels;
    let (neg_up, _) = scenario.mels(&outcome.assignment);
    println!("upstream max-excess-load: default {def_up:.3} -> negotiated {neg_up:.3}");

    let down_km = |asg: &nexit::routing::Assignment| -> f64 {
        scenario
            .impacted
            .iter()
            .map(|&f| {
                scenario.data.flows.flows[f.index()].volume
                    * scenario.data.flows.metrics(f).down_km[asg.choice(f).index()]
            })
            .sum()
    };
    let d = down_km(&scenario.data.default);
    let n = down_km(&outcome.assignment);
    println!(
        "downstream carry distance on impacted flows: {:.0} km -> {:.0} km ({:+.1}%)",
        d,
        n,
        -percent_gain(d, n)
    );
    println!(
        "both objectives improved through opaque classes alone: gains (pref units) up={} down={}",
        outcome.gain_a, outcome.gain_b
    );
}
