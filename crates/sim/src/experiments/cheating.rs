//! §5.4 cheating experiments: Figures 10 and 11.
//!
//! The cheater uses the paper's inflate-best strategy with perfect
//! knowledge of the other ISP's preference list. Figure 10 repeats the
//! distance experiment with ISP-B cheating; Figure 11 repeats the
//! bandwidth experiment with the upstream ISP cheating.

use crate::cdf::Cdf;
use crate::experiments::bandwidth::PairFailureSweep;
use crate::experiments::distance::build_pair_run;
use crate::pairdata::ExpConfig;
use crate::parallel::{par_map, par_map_with};
use crate::twoway::{twoway_side_distance, twoway_total_distance, TwoWayDistanceMapper};
use nexit_core::{
    negotiate, negotiate_in, BandwidthMapper, DisclosurePolicy, NexitConfig, Party, Side,
    TableArena,
};
use nexit_lp::WarmStats;
use nexit_metrics::percent_gain;
use nexit_topology::Universe;
use nexit_workload::CapacityModel;

/// Figure 10 results (distance, ISP-B cheats).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheatDistanceResults {
    /// Total gain per pair, both truthful.
    pub total_truthful: Vec<f64>,
    /// Total gain per pair, one cheater.
    pub total_cheater: Vec<f64>,
    /// Individual gains with both truthful (two samples per pair).
    pub individual_truthful: Vec<f64>,
    /// The cheater's individual gain per pair.
    pub cheater_gain: Vec<f64>,
    /// The truthful ISP's individual gain per pair (cheater run).
    pub truthful_gain: Vec<f64>,
    /// Truthful sessions that left either side's cumulative gain
    /// negative, plus cheated sessions that left the honest side (A)
    /// negative. The win-win close guarantees zero.
    pub negative_sessions: usize,
    /// Cheated sessions that left the cheater itself negative: reported,
    /// not gated, as in Figure 11.
    pub negative_cheater: usize,
}

/// Run Figure 10. Pairs are swept on `cfg.threads` workers and merged
/// in pair order (thread-count independent output).
pub fn run_distance(universe: &Universe, cfg: &ExpConfig) -> CheatDistanceResults {
    let mut eligible = universe.eligible_pairs(2, true);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let config = NexitConfig::win_win();
    let per_pair = par_map(cfg.threads, eligible.len(), |i| {
        run_distance_pair(universe, eligible[i], &config)
    });
    let mut out = CheatDistanceResults::default();
    for p in per_pair {
        out.total_truthful.extend(p.total_truthful);
        out.total_cheater.extend(p.total_cheater);
        out.individual_truthful.extend(p.individual_truthful);
        out.cheater_gain.extend(p.cheater_gain);
        out.truthful_gain.extend(p.truthful_gain);
        out.negative_sessions += p.negative_sessions;
        out.negative_cheater += p.negative_cheater;
    }
    out
}

/// Evaluate one Figure-10 pair: truthful run, then ISP-B cheating.
fn run_distance_pair(
    universe: &Universe,
    idx: usize,
    config: &NexitConfig,
) -> CheatDistanceResults {
    let run = build_pair_run(universe, idx);
    let session = &run.session;
    let mapper =
        |side| TwoWayDistanceMapper::new(side, &run.fwd.flows, &run.rev.flows, session.n_fwd);

    // Evaluate an outcome's gains in kilometres.
    let evaluate = |assignment: &nexit_routing::Assignment| -> (f64, f64, f64) {
        let (f, r) = session.split(assignment);
        let d_total = twoway_total_distance(
            &run.fwd.flows,
            &run.rev.flows,
            &run.fwd.default,
            &run.rev.default,
        );
        let total = percent_gain(
            d_total,
            twoway_total_distance(&run.fwd.flows, &run.rev.flows, &f, &r),
        );
        let side = |s| {
            let d = twoway_side_distance(
                s,
                &run.fwd.flows,
                &run.rev.flows,
                &run.fwd.default,
                &run.rev.default,
            );
            let n = twoway_side_distance(s, &run.fwd.flows, &run.rev.flows, &f, &r);
            percent_gain(d, n)
        };
        (total, side(Side::A), side(Side::B))
    };

    // Both truthful.
    let mut a = Party::honest("A", mapper(Side::A));
    let mut b = Party::honest("B", mapper(Side::B));
    let truthful = negotiate(&session.input, &session.default, &mut a, &mut b, config);
    let (t_total, t_a, t_b) = evaluate(&truthful.assignment);

    // ISP-B cheats (inflate-best with perfect knowledge).
    let mut a = Party::honest("A", mapper(Side::A));
    let mut b = Party::cheating("B", mapper(Side::B), DisclosurePolicy::InflateBest);
    let cheated = negotiate(&session.input, &session.default, &mut a, &mut b, config);
    let (c_total, c_a, c_b) = evaluate(&cheated.assignment);

    CheatDistanceResults {
        total_truthful: vec![t_total],
        total_cheater: vec![c_total],
        individual_truthful: vec![t_a, t_b],
        cheater_gain: vec![c_b],
        truthful_gain: vec![c_a],
        negative_sessions: usize::from(truthful.gain_a < 0 || truthful.gain_b < 0)
            + usize::from(cheated.gain_a < 0),
        negative_cheater: usize::from(cheated.gain_b < 0),
    }
}

/// Figure 11 results (bandwidth, upstream cheats). MELs relative to the
/// optimal, per failure scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheatBandwidthResults {
    /// Upstream MEL ratio, both truthful.
    pub up_truthful: Vec<f64>,
    /// Upstream MEL ratio, upstream cheating.
    pub up_cheater: Vec<f64>,
    /// Upstream MEL ratio, default routing.
    pub up_default: Vec<f64>,
    /// Downstream MEL ratio, both truthful.
    pub down_truthful: Vec<f64>,
    /// Downstream MEL ratio, upstream cheating.
    pub down_cheater: Vec<f64>,
    /// Downstream MEL ratio, default routing.
    pub down_default: Vec<f64>,
    /// Truthful sessions that left either side's cumulative gain
    /// negative, plus cheated sessions that left the honest (downstream)
    /// side negative. The win-win close guarantees zero.
    pub negative_sessions: usize,
    /// Cheated sessions that left the cheater itself negative: cheating
    /// can hurt the cheater (§5.4), so this is reported, not gated.
    pub negative_cheater: usize,
    /// How the pair-scoped LP sessions resolved their solves.
    pub lp_stats: WarmStats,
}

/// Run Figure 11. Pairs are swept on `cfg.threads` workers and merged
/// in pair order (thread-count independent output).
pub fn run_bandwidth(universe: &Universe, cfg: &ExpConfig) -> CheatBandwidthResults {
    let mut eligible = universe.eligible_pairs(3, false);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let capacity_model = CapacityModel::default();
    let config = NexitConfig::win_win_bandwidth();
    let per_pair = par_map_with(cfg.threads, eligible.len(), TableArena::new, |arena, i| {
        run_bandwidth_pair(universe, eligible[i], cfg, &capacity_model, &config, arena)
    });
    let mut out = CheatBandwidthResults::default();
    for p in per_pair {
        out.up_truthful.extend(p.up_truthful);
        out.up_cheater.extend(p.up_cheater);
        out.up_default.extend(p.up_default);
        out.down_truthful.extend(p.down_truthful);
        out.down_cheater.extend(p.down_cheater);
        out.down_default.extend(p.down_default);
        out.negative_sessions += p.negative_sessions;
        out.negative_cheater += p.negative_cheater;
        out.lp_stats.absorb(p.lp_stats);
    }
    out
}

/// Evaluate every failure scenario of one Figure-11 pair, with the
/// pair-scoped warm LP session and the worker's negotiation arena.
fn run_bandwidth_pair(
    universe: &Universe,
    idx: usize,
    cfg: &ExpConfig,
    capacity_model: &CapacityModel,
    config: &NexitConfig,
    arena: &mut TableArena,
) -> CheatBandwidthResults {
    let mut out = CheatBandwidthResults::default();
    let sweep = PairFailureSweep::build(universe, idx, cfg, capacity_model);
    let mut session = sweep.lp_session(cfg.max_lp_variables);
    for scenario in &sweep.scenarios {
        let Ok(opt) = scenario.optimum_in(&mut session) else {
            continue;
        };
        let opt_up = opt.side_mel(&scenario.caps_up, true);
        let opt_down = opt.side_mel(&scenario.caps_down, false);
        if opt_up < 1e-9 || opt_down < 1e-9 {
            continue;
        }
        let input = scenario.session_input();
        let up_mapper = || {
            BandwidthMapper::new(
                Side::A,
                &scenario.data.flows,
                &scenario.data.paths,
                &scenario.caps_up,
            )
        };
        let down_mapper = || {
            BandwidthMapper::new(
                Side::B,
                &scenario.data.flows,
                &scenario.data.paths,
                &scenario.caps_down,
            )
        };

        let mut a = Party::honest("up", up_mapper());
        let mut b = Party::honest("down", down_mapper());
        let truthful = negotiate_in(
            arena,
            &input,
            &scenario.data.default,
            &mut a,
            &mut b,
            config,
        );
        let (tu, td) = scenario.mels(&truthful.assignment);

        let mut a = Party::cheating("up", up_mapper(), DisclosurePolicy::InflateBest);
        let mut b = Party::honest("down", down_mapper());
        let cheated = negotiate_in(
            arena,
            &input,
            &scenario.data.default,
            &mut a,
            &mut b,
            config,
        );
        let (cu, cd) = scenario.mels(&cheated.assignment);
        out.negative_sessions += usize::from(truthful.gain_a < 0 || truthful.gain_b < 0);
        out.negative_sessions += usize::from(cheated.gain_b < 0);
        out.negative_cheater += usize::from(cheated.gain_a < 0);

        let (du, dd) = scenario.default_mels;
        out.up_truthful.push(tu / opt_up);
        out.up_cheater.push(cu / opt_up);
        out.up_default.push(du / opt_up);
        out.down_truthful.push(td / opt_down);
        out.down_cheater.push(cd / opt_down);
        out.down_default.push(dd / opt_down);
    }
    out.lp_stats.absorb(session.warm_stats());
    out
}

/// Print the Figure 10 report.
pub fn report_distance(results: &CheatDistanceResults) {
    println!("== Figure 10a: total distance gain, truthful vs one cheater ==");
    print_negative_counts(
        results.negative_sessions,
        results.negative_cheater,
        results.total_truthful.len(),
    );
    Cdf::new(results.total_truthful.clone()).print("both truthful");
    Cdf::new(results.total_cheater.clone()).print("one cheater");
    println!();
    println!("== Figure 10b: individual gains ==");
    Cdf::new(results.individual_truthful.clone()).print("both truthful");
    Cdf::new(results.cheater_gain.clone()).print("cheater");
    Cdf::new(results.truthful_gain.clone()).print("truthful");
}

/// The win-win lines of Figures 10 and 11: `gated` counts truthful
/// sessions plus the honest side of each cheated one (two per pair or
/// scenario), `cheater` the cheater's own negatives (one per pair or
/// scenario).
fn print_negative_counts(gated: usize, cheater: usize, runs: usize) {
    println!(
        "   negative final gain: {gated} of {} sessions (truthful, and the honest side under a cheater)",
        2 * runs
    );
    println!("   cheater's own final gain negative: {cheater} of {runs} sessions (not gated)");
}

/// Print the Figure 11 report.
pub fn report_bandwidth(results: &CheatBandwidthResults) {
    println!("== Figure 11: bandwidth cheating (upstream cheats), MEL vs optimal ==");
    crate::experiments::bandwidth::print_lp_stats(&results.lp_stats);
    print_negative_counts(
        results.negative_sessions,
        results.negative_cheater,
        results.up_truthful.len(),
    );
    println!("-- upstream ISP --");
    Cdf::new(results.up_truthful.clone()).print("both truthful");
    Cdf::new(results.up_cheater.clone()).print("one cheater");
    Cdf::new(results.up_default.clone()).print("default");
    println!("-- downstream ISP --");
    Cdf::new(results.down_truthful.clone()).print("both truthful");
    Cdf::new(results.down_cheater.clone()).print("one cheater");
    Cdf::new(results.down_default.clone()).print("default");
}
