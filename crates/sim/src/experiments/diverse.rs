//! Figure 9: negotiation with different optimization criteria.
//!
//! Same failure scenarios as §5.2, but the upstream ISP optimizes
//! bandwidth (overload) while the downstream optimizes distance. The left
//! graph tracks the upstream's MEL relative to the (bandwidth) optimum;
//! the right graph the downstream's distance reduction over the impacted
//! flows relative to default routing.

use crate::experiments::bandwidth::PairFailureSweep;
use crate::pairdata::ExpConfig;
use crate::parallel::par_map_with;
use nexit_core::{
    negotiate_in, BandwidthMapper, DistanceMapper, NexitConfig, Party, Side, TableArena,
};
use nexit_metrics::percent_gain;
use nexit_routing::Assignment;
use nexit_topology::Universe;
use nexit_workload::CapacityModel;

/// Results for Figure 9.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiverseResults {
    /// Left graph: upstream MEL / optimal MEL, negotiated.
    pub up_negotiated: Vec<f64>,
    /// Left graph: upstream MEL / optimal MEL, default.
    pub up_default: Vec<f64>,
    /// Right graph: downstream distance % gain over default (impacted
    /// flows).
    pub down_distance_gain: Vec<f64>,
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Evaluated sessions that left either side's cumulative gain
    /// negative. The win-win close guarantees zero.
    pub negative_sessions: usize,
}

/// Downstream distance over the impacted flows only.
fn downstream_impacted_km(
    scenario: &crate::experiments::bandwidth::FailureScenario<'_>,
    assignment: &Assignment,
) -> f64 {
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

/// Run Figure 9. Pairs are swept on `cfg.threads` workers (each with a
/// worker-local [`TableArena`]) and merged in pair order (thread-count
/// independent output).
pub fn run(universe: &Universe, cfg: &ExpConfig) -> DiverseResults {
    let mut eligible = universe.eligible_pairs(3, false);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let capacity_model = CapacityModel::default();
    let per_pair = par_map_with(cfg.threads, eligible.len(), TableArena::new, |arena, i| {
        run_pair(universe, eligible[i], cfg, &capacity_model, arena)
    });
    let mut out = DiverseResults::default();
    for p in per_pair {
        out.up_negotiated.extend(p.up_negotiated);
        out.up_default.extend(p.up_default);
        out.down_distance_gain.extend(p.down_distance_gain);
        out.scenarios += p.scenarios;
        out.negative_sessions += p.negative_sessions;
    }
    out
}

/// Evaluate every failure scenario of one Figure-9 pair, drawing the
/// scenario optima from the pair's warm LP session and the negotiation
/// buffers from the worker's arena.
fn run_pair(
    universe: &Universe,
    idx: usize,
    cfg: &ExpConfig,
    capacity_model: &CapacityModel,
    arena: &mut TableArena,
) -> DiverseResults {
    let mut out = DiverseResults::default();
    let sweep = PairFailureSweep::build(universe, idx, cfg, capacity_model);
    let mut session = sweep.lp_session(cfg.max_lp_variables);
    for scenario in &sweep.scenarios {
        let Ok(opt) = scenario.optimum_in(&mut session) else {
            continue;
        };
        let opt_up = opt.side_mel(&scenario.caps_up, true);
        if opt_up < 1e-9 {
            continue;
        }
        out.scenarios += 1;

        let input = scenario.session_input();
        let mut party_a = Party::honest(
            "up-bandwidth",
            BandwidthMapper::new(
                Side::A,
                &scenario.data.flows,
                &scenario.data.paths,
                &scenario.caps_up,
            ),
        );
        let mut party_b = Party::honest(
            "down-distance",
            DistanceMapper::new(Side::B, &scenario.data.flows),
        );
        let outcome = negotiate_in(
            arena,
            &input,
            &scenario.data.default,
            &mut party_a,
            &mut party_b,
            &NexitConfig::win_win_bandwidth(),
        );
        out.negative_sessions += usize::from(outcome.gain_a < 0 || outcome.gain_b < 0);

        let (def_up, _) = scenario.default_mels;
        let (neg_up, _) = scenario.mels(&outcome.assignment);
        out.up_default.push(def_up / opt_up);
        out.up_negotiated.push(neg_up / opt_up);

        let d_km = downstream_impacted_km(scenario, &scenario.data.default);
        let n_km = downstream_impacted_km(scenario, &outcome.assignment);
        out.down_distance_gain.push(percent_gain(d_km, n_km));
    }
    out
}

/// Print the Figure 9 report.
pub fn report(results: &DiverseResults) {
    use crate::cdf::Cdf;
    println!(
        "== Figure 9: diverse criteria ({} scenarios) ==",
        results.scenarios
    );
    println!(
        "   negative final gain: {} of {} sessions",
        results.negative_sessions, results.scenarios
    );
    println!("-- upstream ISP (bandwidth objective): MEL relative to optimal --");
    Cdf::new(results.up_negotiated.clone()).print("negotiated");
    Cdf::new(results.up_default.clone()).print("default");
    println!("-- downstream ISP (distance objective): % gain over default --");
    Cdf::new(results.down_distance_gain.clone()).print("negotiated");
}
