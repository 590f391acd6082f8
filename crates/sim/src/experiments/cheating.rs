//! §5.4 cheating experiments: Figures 10 and 11.
//!
//! The cheater uses the paper's inflate-best strategy with perfect
//! knowledge of the other ISP's preference list. Figure 10 repeats the
//! distance experiment with ISP-B cheating; Figure 11 repeats the
//! bandwidth experiment with the upstream ISP cheating.

use crate::cdf::Cdf;
use crate::experiments::bandwidth::print_lp_stats;
use crate::experiments::distance::build_pair_run;
use crate::experiments::sweep::{
    sweep_failures, sweep_pairs, FailureRows, Pairs, Rows, WinWinGate,
};
use crate::pairdata::ExpConfig;
use nexit_core::{negotiate_in, BandwidthMapper, DisclosurePolicy, NexitConfig, Party, Side};
use nexit_topology::Universe;
use nexit_workload::CapacityModel;

/// One Figure-10 pair (distance, ISP-B cheats): `(total %, [A %, B %])`
/// distance gains of each session.
#[derive(Debug, Clone, PartialEq)]
pub struct CheatDistanceRow {
    /// Both truthful.
    pub truthful: (f64, [f64; 2]),
    /// ISP-B cheating.
    pub cheated: (f64, [f64; 2]),
    /// The cheated session left the cheater itself negative: reported,
    /// not gated, as in Figure 11.
    pub cheater_negative: bool,
}

/// Run Figure 10: per pair a truthful session, then ISP-B cheating. The
/// gate counts the truthful sessions and the honest side (A) of the
/// cheated ones.
pub fn run_distance(universe: &Universe, cfg: &ExpConfig) -> Rows<CheatDistanceRow> {
    let config = NexitConfig::win_win();
    sweep_pairs(universe, cfg, Pairs::Distance, None, |arena, _, idx| {
        let run = build_pair_run(universe, idx);
        let truthful = run.negotiate(arena, &config, DisclosurePolicy::Truthful);
        // Inflate-best with perfect knowledge.
        let cheated = run.negotiate(arena, &config, DisclosurePolicy::InflateBest);
        let row = CheatDistanceRow {
            truthful: run.gains(&truthful.assignment),
            cheated: run.gains(&cheated.assignment),
            cheater_negative: cheated.gain_b < 0,
        };
        let gate = WinWinGate::of(&truthful) + WinWinGate::of_honest(&cheated, Side::A);
        (row, gate)
    })
}

/// One Figure-11 failure scenario (bandwidth, upstream cheats): MELs
/// relative to the optimal.
#[derive(Debug, Clone, PartialEq)]
pub struct CheatBandwidthRow {
    /// `(up, down)` MEL ratios, both truthful.
    pub truthful: (f64, f64),
    /// `(up, down)` MEL ratios, upstream cheating.
    pub cheated: (f64, f64),
    /// `(up, down)` MEL ratios, default routing.
    pub default: (f64, f64),
    /// The cheated session left the cheater itself negative: cheating
    /// can hurt the cheater (§5.4), so this is reported, not gated.
    pub cheater_negative: bool,
}

/// Run Figure 11 over every failure scenario whose optimum has no idle
/// side. The gate counts the truthful sessions and the honest
/// (downstream) side of the cheated ones.
pub fn run_bandwidth(universe: &Universe, cfg: &ExpConfig) -> FailureRows<CheatBandwidthRow> {
    let config = NexitConfig::win_win_bandwidth();
    sweep_failures(
        universe,
        cfg,
        None,
        &CapacityModel::default(),
        |scenario, opt, _, arena| {
            let opt_up = opt.side_mel(&scenario.caps_up, true);
            let opt_down = opt.side_mel(&scenario.caps_down, false);
            if opt_up < 1e-9 || opt_down < 1e-9 {
                return None;
            }
            let ratios = |(up, down): (f64, f64)| (up / opt_up, down / opt_down);
            let (caps_up, caps_down) = (&scenario.caps_up, &scenario.caps_down);
            let truthful = scenario.negotiate_bandwidth_with(arena, caps_up, caps_down);

            let data = &scenario.data;
            let mut a = Party::cheating(
                "up",
                BandwidthMapper::new(Side::A, &data.flows, &data.paths, caps_up),
                DisclosurePolicy::InflateBest,
            );
            let mut b = Party::honest(
                "down",
                BandwidthMapper::new(Side::B, &data.flows, &data.paths, caps_down),
            );
            let input = scenario.session_input();
            let cheated = negotiate_in(arena, &input, &data.default, &mut a, &mut b, &config);

            let row = CheatBandwidthRow {
                truthful: ratios(scenario.mels(&truthful.assignment)),
                cheated: ratios(scenario.mels(&cheated.assignment)),
                default: ratios(scenario.default_mels),
                cheater_negative: cheated.gain_a < 0,
            };
            let gate = WinWinGate::of(&truthful) + WinWinGate::of_honest(&cheated, Side::B);
            Some((row, gate))
        },
    )
}

/// Print the Figure 10 report.
pub fn report_distance(results: &Rows<CheatDistanceRow>) {
    let rows = &results.rows;
    println!("== Figure 10a: total distance gain, truthful vs one cheater ==");
    print_negative_counts(
        results.gate,
        rows.iter().filter(|r| r.cheater_negative).count(),
        rows.len(),
    );
    let cdf = |f: fn(&CheatDistanceRow) -> f64| rows.iter().map(f).collect::<Cdf>();
    cdf(|r| r.truthful.0).print("both truthful");
    cdf(|r| r.cheated.0).print("one cheater");
    println!();
    println!("== Figure 10b: individual gains ==");
    let individual = rows.iter().flat_map(|r| r.truthful.1).collect::<Cdf>();
    individual.print("both truthful");
    cdf(|r| r.cheated.1[1]).print("cheater");
    cdf(|r| r.cheated.1[0]).print("truthful");
}

/// The win-win lines of Figures 10 and 11: the gate counts truthful
/// sessions plus the honest side of each cheated one (two per pair or
/// scenario), `cheater` the cheater's own negatives (one per pair or
/// scenario).
fn print_negative_counts(gate: WinWinGate, cheater: usize, runs: usize) {
    gate.print(" (truthful, and the honest side under a cheater)");
    println!("   cheater's own final gain negative: {cheater} of {runs} sessions (not gated)");
}

/// Print the Figure 11 report.
pub fn report_bandwidth(results: &FailureRows<CheatBandwidthRow>) {
    let rows = &results.rows;
    println!("== Figure 11: bandwidth cheating (upstream cheats), MEL vs optimal ==");
    print_lp_stats(&results.lp_stats);
    print_negative_counts(
        results.gate,
        rows.iter().filter(|r| r.cheater_negative).count(),
        rows.len(),
    );
    let cdf = |f: fn(&CheatBandwidthRow) -> f64| rows.iter().map(f).collect::<Cdf>();
    println!("-- upstream ISP --");
    cdf(|r| r.truthful.0).print("both truthful");
    cdf(|r| r.cheated.0).print("one cheater");
    cdf(|r| r.default.0).print("default");
    println!("-- downstream ISP --");
    cdf(|r| r.truthful.1).print("both truthful");
    cdf(|r| r.cheated.1).print("one cheater");
    cdf(|r| r.default.1).print("default");
}
