//! Figure 9: negotiation with different optimization criteria.
//!
//! Same failure scenarios as §5.2, but the upstream ISP optimizes
//! bandwidth (overload) while the downstream optimizes distance. The left
//! graph tracks the upstream's MEL relative to the (bandwidth) optimum;
//! the right graph the downstream's distance reduction over the impacted
//! flows relative to default routing.

use crate::cdf::Cdf;
use crate::experiments::bandwidth::FailureScenario;
use crate::experiments::sweep::{sweep_failures, FailureRows, WinWinGate};
use crate::pairdata::ExpConfig;
use nexit_core::{negotiate_in, BandwidthMapper, DistanceMapper, NexitConfig, Party, Side};
use nexit_metrics::percent_gain;
use nexit_routing::Assignment;
use nexit_topology::Universe;
use nexit_workload::CapacityModel;

/// One failure scenario of Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct DiverseRow {
    /// Left graph: upstream MEL / optimal MEL, negotiated.
    pub up_negotiated: f64,
    /// Left graph: upstream MEL / optimal MEL, default.
    pub up_default: f64,
    /// Right graph: downstream distance % gain over default (impacted
    /// flows).
    pub down_distance_gain: f64,
}

/// Downstream distance over the impacted flows only.
fn downstream_impacted_km(scenario: &FailureScenario<'_>, assignment: &Assignment) -> f64 {
    scenario
        .impacted
        .iter()
        .map(|&f| {
            let m = scenario.data.flows.metrics(f);
            let v = scenario.data.flows.flows[f.index()].volume;
            v * m.down_km[assignment.choice(f).index()]
        })
        .sum()
}

/// Run Figure 9 over every failure scenario whose optimum leaves the
/// upstream busy.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> FailureRows<DiverseRow> {
    sweep_failures(
        universe,
        cfg,
        None,
        &CapacityModel::default(),
        |scenario, opt, _, arena| {
            let opt_up = opt.side_mel(&scenario.caps_up, true);
            if opt_up < 1e-9 {
                return None;
            }
            let data = &scenario.data;
            let mut party_a = Party::honest(
                "up-bandwidth",
                BandwidthMapper::new(Side::A, &data.flows, &data.paths, &scenario.caps_up),
            );
            let mut party_b =
                Party::honest("down-distance", DistanceMapper::new(Side::B, &data.flows));
            let outcome = negotiate_in(
                arena,
                &scenario.session_input(),
                &data.default,
                &mut party_a,
                &mut party_b,
                &NexitConfig::win_win_bandwidth(),
            );
            let (def_up, _) = scenario.default_mels;
            let (neg_up, _) = scenario.mels(&outcome.assignment);
            let d_km = downstream_impacted_km(scenario, &data.default);
            let n_km = downstream_impacted_km(scenario, &outcome.assignment);
            let row = DiverseRow {
                up_negotiated: neg_up / opt_up,
                up_default: def_up / opt_up,
                down_distance_gain: percent_gain(d_km, n_km),
            };
            Some((row, WinWinGate::of(&outcome)))
        },
    )
}

/// Print the Figure 9 report.
pub fn report(results: &FailureRows<DiverseRow>) {
    let rows = &results.rows;
    println!(
        "== Figure 9: diverse criteria ({} scenarios) ==",
        rows.len()
    );
    results.gate.print("");
    let cdf = |f: fn(&DiverseRow) -> f64| rows.iter().map(f).collect::<Cdf>();
    println!("-- upstream ISP (bandwidth objective): MEL relative to optimal --");
    cdf(|r| r.up_negotiated).print("negotiated");
    cdf(|r| r.up_default).print("default");
    println!("-- downstream ISP (distance objective): % gain over default --");
    cdf(|r| r.down_distance_gain).print("negotiated");
}
