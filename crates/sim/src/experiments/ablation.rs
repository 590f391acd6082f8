//! Robustness ablations the paper reports in passing.
//!
//! * **Preference range** (§5): "increasing the range [beyond ±10] does
//!   not lead to noticeable increase in performance" — sweep `P`.
//! * **Grouped negotiation** (§5.1): negotiating in separate groups
//!   "does not provide as much benefit as negotiating over the entire
//!   set" — sweep group counts.
//! * **Alternate models** (§5.2): identical/uniform PoP weights,
//!   power-of-two capacities, max/average backup rules — the results
//!   should stay qualitatively similar.
//!
//! Every sweep also counts its win-win sessions whose final gain ended
//! negative on either side (the win-win close guarantees none), for the
//! `experiments` binary to gate on.

use crate::cdf::Cdf;
use crate::experiments::bandwidth::print_lp_stats;
use crate::experiments::distance::{build_pair_run, DistancePairRun};
use crate::experiments::sweep::{sweep_failures, sweep_pairs, Pairs, Rows, WinWinGate};
use crate::pairdata::ExpConfig;
use nexit_baselines::negotiate_in_groups;
use nexit_core::{AcceptRule, DisclosurePolicy, NexitConfig, StopPolicy, TableArena};
use nexit_lp::WarmStats;
use nexit_routing::Assignment;
use nexit_topology::Universe;
use nexit_workload::{BackupRule, CapacityModel, WorkloadModel};

/// The ablations' distance subset: the first 40 distance pairs, each
/// negotiated by `negotiate` into one combined assignment and the gate
/// of its sessions; each pair's row is that assignment's
/// `(total %, [A %, B %])` distance gains.
fn distance_gains<F>(universe: &Universe, cfg: &ExpConfig, negotiate: F) -> Rows<(f64, [f64; 2])>
where
    F: Fn(&DistancePairRun<'_>, &mut TableArena) -> (Assignment, WinWinGate) + Sync,
{
    sweep_pairs(universe, cfg, Pairs::Distance, Some(40), |arena, _, idx| {
        let run = build_pair_run(universe, idx);
        let (assignment, gate) = negotiate(&run, arena);
        (run.gains(&assignment), gate)
    })
}

/// Median of the rows' total gains.
fn median_total(rows: &Rows<(f64, [f64; 2])>) -> f64 {
    rows.rows.iter().map(|r| r.0).collect::<Cdf>().median()
}

/// Preference-range sweep: median per-pair total distance gain for each P.
pub fn preference_range_sweep(
    universe: &Universe,
    cfg: &ExpConfig,
    ranges: &[i32],
) -> Rows<(i32, f64)> {
    let mut out = Rows::default();
    for &p in ranges {
        let config = NexitConfig {
            pref_range: p,
            ..NexitConfig::win_win()
        };
        let pairs = distance_gains(universe, cfg, |run, arena| {
            let outcome = run.negotiate(arena, &config, DisclosurePolicy::Truthful);
            let gate = WinWinGate::of(&outcome);
            (outcome.assignment, gate)
        });
        out.gate = out.gate + pairs.gate;
        out.rows.push((p, median_total(&pairs)));
    }
    out
}

/// Group-count sweep: median per-pair total distance gain for each count.
/// Each group is a session of its own, gated on its own.
pub fn group_sweep(
    universe: &Universe,
    cfg: &ExpConfig,
    group_counts: &[usize],
) -> Rows<(usize, f64)> {
    let mut out = Rows::default();
    for &g in group_counts {
        let pairs = distance_gains(universe, cfg, |run, _| {
            let (mut a, mut b) = run.parties(DisclosurePolicy::Truthful);
            let s = &run.session;
            let config = NexitConfig::win_win();
            let (assignment, outcomes) =
                negotiate_in_groups(&s.input, &s.default, &mut a, &mut b, &config, g);
            (assignment, outcomes.iter().map(WinWinGate::of).sum())
        });
        out.gate = out.gate + pairs.gate;
        out.rows.push((g, median_total(&pairs)));
    }
    out
}

/// One row of the alternate-models grid: median upstream MEL ratios for
/// default and negotiated routing.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRow {
    /// Human-readable model description.
    pub label: String,
    /// Median default-MEL / optimal-MEL (upstream).
    pub median_default_ratio: f64,
    /// Median negotiated-MEL / optimal-MEL (upstream).
    pub median_negotiated_ratio: f64,
    /// Scenario count.
    pub scenarios: usize,
}

/// The alternate-model grid's results: one row per (workload, capacity)
/// cell, the win-win gate and the LP session counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelGridResults {
    /// One row per grid cell, workloads outer, capacity models inner.
    pub rows: Vec<ModelRow>,
    /// Every negotiated session of the grid.
    pub gate: WinWinGate,
    /// Aggregate warm/cold counters of the per-pair LP sessions.
    pub lp_stats: WarmStats,
}

/// The §5.2 alternate-model grid over the first 20 bandwidth pairs.
///
/// Every (workload, capacity) cell is a different program — the workload
/// sets the volumes, the capacity model the `t` column — so each cell is
/// a failure sweep of its own, and its optima are first solves: cold from
/// the default routing's vertex, the standalone `optimal_bandwidth` solve
/// of that cell.
pub fn model_grid(universe: &Universe, cfg: &ExpConfig) -> ModelGridResults {
    let workloads = [
        ("gravity", WorkloadModel::Gravity),
        ("identical", WorkloadModel::Identical),
        ("uniform", WorkloadModel::Uniform { seed: cfg.seed }),
    ];
    let capacities = [
        ("median-backup", CapacityModel::default()),
        (
            "pow2",
            CapacityModel {
                power_of_two: true,
                ..CapacityModel::default()
            },
        ),
        (
            "max-backup",
            CapacityModel {
                backup: BackupRule::Max,
                ..CapacityModel::default()
            },
        ),
    ];
    let mut out = ModelGridResults::default();
    for (wname, workload) in workloads {
        let cell_cfg = ExpConfig {
            workload,
            ..cfg.clone()
        };
        for (cname, capacity) in &capacities {
            // Per scenario: (default, negotiated) upstream MEL / optimal.
            let cell = sweep_failures(
                universe,
                &cell_cfg,
                Some(20),
                capacity,
                |s, opt, _, arena| {
                    let opt_up = opt.side_mel(&s.caps_up, true);
                    if opt_up < 1e-9 {
                        return None;
                    }
                    let negotiated = s.negotiate_bandwidth_with(arena, &s.caps_up, &s.caps_down);
                    let (neg_up, _) = s.mels(&negotiated.assignment);
                    let row = (s.default_mels.0 / opt_up, neg_up / opt_up);
                    Some((row, WinWinGate::of(&negotiated)))
                },
            );
            out.gate = out.gate + cell.gate;
            out.lp_stats.absorb(cell.lp_stats);
            if cell.rows.is_empty() {
                continue;
            }
            out.rows.push(ModelRow {
                label: format!("{wname} + {cname}"),
                median_default_ratio: cell.rows.iter().map(|r| r.0).collect::<Cdf>().median(),
                median_negotiated_ratio: cell.rows.iter().map(|r| r.1).collect::<Cdf>().median(),
                scenarios: cell.rows.len(),
            });
        }
    }
    out
}

/// Protocol-mode comparison (why the experiments use the credit mode):
/// median total gain and worst individual gain per mode, over a subset of
/// distance pairs. Only the credit-veto mode has the win-win close, so
/// only its sessions are gated.
pub fn mode_comparison(universe: &Universe, cfg: &ExpConfig) -> Rows<(String, f64, f64)> {
    let modes: Vec<(&str, NexitConfig)> = vec![
        ("paper-strict (always+early)", NexitConfig::default()),
        (
            "negotiate-all (always)",
            NexitConfig {
                stop: StopPolicy::NegotiateAll,
                ..NexitConfig::default()
            },
        ),
        (
            "zero-credit veto",
            NexitConfig {
                accept: AcceptRule::VetoNegativeCumulative,
                stop: StopPolicy::NegotiateAll,
                ..NexitConfig::default()
            },
        ),
        ("credit veto + rollback", NexitConfig::win_win()),
    ];
    let mut out = Rows::default();
    for (name, config) in modes {
        let pairs = distance_gains(universe, cfg, |run, arena| {
            let outcome = run.negotiate(arena, &config, DisclosurePolicy::Truthful);
            let gate = WinWinGate::of(&outcome);
            (outcome.assignment, gate)
        });
        if matches!(config.accept, AcceptRule::CreditVeto { .. }) {
            out.gate = out.gate + pairs.gate;
        }
        let worst_individual = pairs.rows.iter().flat_map(|r| r.1);
        out.rows.push((
            name.to_string(),
            median_total(&pairs),
            worst_individual.fold(f64::INFINITY, f64::min),
        ));
    }
    out
}

/// Print the mode comparison.
pub fn report_modes(results: &Rows<(String, f64, f64)>) {
    println!("== Protocol-mode ablation (distance pairs subset) ==");
    results.gate.print("");
    println!("   (credit veto + rollback only: the other modes have no win-win close)");
    println!(
        "  {:32} {:>12} {:>16}",
        "mode", "median gain%", "worst indiv gain%"
    );
    for (name, med, worst) in &results.rows {
        println!("  {name:32} {med:>12.3} {worst:>16.3}");
    }
}

/// Print the preference-range sweep.
pub fn report_prange(results: &Rows<(i32, f64)>) {
    println!("== Preference range sweep (median total distance gain %) ==");
    results.gate.print("");
    for (p, g) in &results.rows {
        println!("  P = {p:3}  median gain = {g:.3}%");
    }
}

/// Print the group sweep.
pub fn report_groups(results: &Rows<(usize, f64)>) {
    println!("== Group-count sweep (median total distance gain %) ==");
    results.gate.print("");
    for (g, v) in &results.rows {
        println!("  groups = {g:3}  median gain = {v:.3}%");
    }
}

/// Print the model grid.
pub fn report_models(results: &ModelGridResults) {
    println!("== Alternate workload/capacity models (upstream MEL vs optimal) ==");
    print_lp_stats(&results.lp_stats);
    results.gate.print("");
    println!(
        "  {:26} {:>9} {:>11} {:>10}",
        "model", "default", "negotiated", "scenarios"
    );
    for r in &results.rows {
        println!(
            "  {:26} {:>9.3} {:>11.3} {:>10}",
            r.label, r.median_default_ratio, r.median_negotiated_ratio, r.scenarios
        );
    }
}
