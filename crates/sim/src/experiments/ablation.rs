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

use crate::experiments::bandwidth::PairFailureSweep;
use crate::experiments::distance::build_pair_run;
use crate::pairdata::ExpConfig;
use crate::parallel::{par_map, par_map_with};
use crate::twoway::{twoway_total_distance, TwoWayDistanceMapper};
use nexit_baselines::{negotiate_in_groups, BandwidthLp};
use nexit_core::{negotiate, AcceptRule, NegotiationOutcome, NexitConfig, Party, Side, TableArena};
use nexit_lp::WarmStats;
use nexit_metrics::percent_gain;
use nexit_topology::Universe;
use nexit_workload::{assign_capacities, BackupRule, CapacityModel, WorkloadModel};

/// Sessions negotiated under a win-win close (credit veto + rollback),
/// and how many of them left either side's final gain negative. The
/// close guarantees none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WinWinGate {
    /// Win-win sessions counted.
    pub sessions: usize,
    /// Of those, sessions with a negative final gain on either side.
    pub negative_sessions: usize,
}

impl WinWinGate {
    /// The gate over `outcomes`.
    fn of<'a>(outcomes: impl IntoIterator<Item = &'a NegotiationOutcome>) -> Self {
        let mut gate = Self::default();
        for outcome in outcomes {
            gate.sessions += 1;
            gate.negative_sessions += usize::from(outcome.gain_a < 0 || outcome.gain_b < 0);
        }
        gate
    }

    fn absorb(&mut self, other: Self) {
        self.sessions += other.sessions;
        self.negative_sessions += other.negative_sessions;
    }

    fn print(&self) {
        println!(
            "   negative final gain: {} of {} sessions",
            self.negative_sessions, self.sessions
        );
    }
}

/// A sweep's report rows and the win-win gate of its sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AblationResults<R> {
    /// One row per swept value.
    pub rows: Vec<R>,
    /// Every win-win session of the sweep.
    pub gate: WinWinGate,
}

/// Preference-range sweep: median per-pair total distance gain for each P.
pub fn preference_range_sweep(
    universe: &Universe,
    cfg: &ExpConfig,
    ranges: &[i32],
) -> AblationResults<(i32, f64)> {
    let mut eligible = universe.eligible_pairs(2, true);
    eligible.truncate(cfg.max_pairs.unwrap_or(40).min(40)); // sweep uses a subset
    let mut out = AblationResults::default();
    for &p in ranges {
        let config = NexitConfig {
            pref_range: p,
            ..NexitConfig::win_win()
        };
        let per_pair = par_map(cfg.threads, eligible.len(), |i| {
            pair_total_gain(universe, eligible[i], &config)
        });
        let mut gains = Vec::with_capacity(per_pair.len());
        for (gain, gate) in per_pair {
            out.gate.absorb(gate);
            gains.push(gain);
        }
        out.rows.push((p, crate::cdf::Cdf::new(gains).median()));
    }
    out
}

/// One pair's total distance gain under `config`, and its session's
/// gate.
fn pair_total_gain(universe: &Universe, idx: usize, config: &NexitConfig) -> (f64, WinWinGate) {
    let run = build_pair_run(universe, idx);
    let session = &run.session;
    let mut a = Party::honest(
        "A",
        TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
    );
    let mut b = Party::honest(
        "B",
        TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
    );
    let outcome = negotiate(&session.input, &session.default, &mut a, &mut b, config);
    let (f, r) = session.split(&outcome.assignment);
    let d = twoway_total_distance(
        &run.fwd.flows,
        &run.rev.flows,
        &run.fwd.default,
        &run.rev.default,
    );
    let n = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &f, &r);
    (percent_gain(d, n), WinWinGate::of([&outcome]))
}

/// Group-count sweep: median per-pair total distance gain for each count.
pub fn group_sweep(
    universe: &Universe,
    cfg: &ExpConfig,
    group_counts: &[usize],
) -> AblationResults<(usize, f64)> {
    let mut eligible = universe.eligible_pairs(2, true);
    eligible.truncate(cfg.max_pairs.unwrap_or(40).min(40));
    let mut out = AblationResults::default();
    for &g in group_counts {
        // Each group is a session of its own, gated on its own.
        let per_pair = par_map(cfg.threads, eligible.len(), |i| {
            let idx = eligible[i];
            let run = build_pair_run(universe, idx);
            let session = &run.session;
            let mut a = Party::honest(
                "A",
                TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
            );
            let mut b = Party::honest(
                "B",
                TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
            );
            let (assignment, outcomes) = negotiate_in_groups(
                &session.input,
                &session.default,
                &mut a,
                &mut b,
                &NexitConfig::win_win(),
                g,
            );
            let (f, r) = session.split(&assignment);
            let d = twoway_total_distance(
                &run.fwd.flows,
                &run.rev.flows,
                &run.fwd.default,
                &run.rev.default,
            );
            let n = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &f, &r);
            (percent_gain(d, n), WinWinGate::of(&outcomes))
        });
        let mut gains = Vec::with_capacity(per_pair.len());
        for (gain, gate) in per_pair {
            out.gate.absorb(gate);
            gains.push(gain);
        }
        out.rows.push((g, crate::cdf::Cdf::new(gains).median()));
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

/// The §5.2 alternate-model grid.
///
/// Every (workload, capacity) cell is a different program — the workload
/// sets the volumes, the capacity model the `t` column — so each cell
/// registers its scenarios through [`BandwidthLp::update_scenario`] and
/// solves them cold from the default routing's vertex: a cell's result
/// is the standalone `optimal_bandwidth` solve of that cell, whatever
/// cell was solved before it. One session per pair spans the grid only
/// so that its counters add up.
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
    let num_cells = workloads.len() * capacities.len();
    let mut eligible = universe.eligible_pairs(3, false);
    eligible.truncate(cfg.max_pairs.unwrap_or(20).min(20));

    // Per pair: per-cell (default ratios, negotiated ratios) in scenario
    // order, the win-win gate of its sessions and the pair's LP
    // counters. The LP session is pair-scoped, the arena worker-scoped
    // (buffer reuse) — collected by pair index, so the output is
    // thread-count independent.
    let per_pair = par_map_with(cfg.threads, eligible.len(), TableArena::new, |arena, i| {
        let mut cells: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); num_cells];
        let mut gate = WinWinGate::default();
        // One sweep per workload; all stay alive because the LP session
        // borrows each one's pair data.
        let sweeps: Vec<PairFailureSweep<'_>> = workloads
            .iter()
            .map(|&(_, workload)| {
                let sub_cfg = ExpConfig {
                    workload,
                    ..cfg.clone()
                };
                PairFailureSweep::build(universe, eligible[i], &sub_cfg, &CapacityModel::default())
            })
            .collect();
        let mut session = BandwidthLp::new();
        for (wi, sweep) in sweeps.iter().enumerate() {
            for (ci, (_, capacity)) in capacities.iter().enumerate() {
                let caps_up = assign_capacities(capacity, &sweep.pre_loads.up);
                let caps_down = assign_capacities(capacity, &sweep.pre_loads.down);
                let (def, neg) = &mut cells[wi * capacities.len() + ci];
                for scenario in &sweep.scenarios {
                    let vars =
                        scenario.impacted.len() * scenario.data.pair.num_interconnections() + 1;
                    if vars > cfg.max_lp_variables {
                        continue;
                    }
                    let view = scenario.data.view();
                    session.update_scenario(
                        scenario.failed,
                        &view,
                        &scenario.data.paths,
                        &scenario.data.flows,
                        &scenario.impacted,
                        &scenario.data.default,
                        &caps_up,
                        &caps_down,
                    );
                    let Ok(opt) = session.solve_failure(scenario.failed) else {
                        continue;
                    };
                    let opt_up = opt.side_mel(&caps_up, true);
                    if opt_up < 1e-9 {
                        continue;
                    }
                    let (def_up, _) =
                        scenario.mels_with_caps(&scenario.data.default, &caps_up, &caps_down);
                    def.push(def_up / opt_up);
                    let negotiated = scenario.negotiate_bandwidth_with(arena, &caps_up, &caps_down);
                    gate.absorb(WinWinGate::of([&negotiated]));
                    let (neg_up, _) =
                        scenario.mels_with_caps(&negotiated.assignment, &caps_up, &caps_down);
                    neg.push(neg_up / opt_up);
                }
            }
        }
        (cells, gate, session.warm_stats())
    });

    let mut merged: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); num_cells];
    let mut out = ModelGridResults::default();
    for (cells, gate, stats) in per_pair {
        for (slot, (def, neg)) in merged.iter_mut().zip(cells) {
            slot.0.extend(def);
            slot.1.extend(neg);
        }
        out.gate.absorb(gate);
        out.lp_stats.absorb(stats);
    }
    for (wi, (wname, _)) in workloads.iter().enumerate() {
        for (ci, (cname, _)) in capacities.iter().enumerate() {
            let (def, neg) = &merged[wi * capacities.len() + ci];
            if def.is_empty() {
                continue;
            }
            out.rows.push(ModelRow {
                label: format!("{wname} + {cname}"),
                median_default_ratio: crate::cdf::Cdf::new(def.clone()).median(),
                median_negotiated_ratio: crate::cdf::Cdf::new(neg.clone()).median(),
                scenarios: def.len(),
            });
        }
    }
    out
}

/// Protocol-mode comparison (why the experiments use the credit mode):
/// median total gain and worst individual gain per mode, over a subset of
/// distance pairs. Only the credit-veto mode has the win-win close, so
/// only its sessions are gated.
pub fn mode_comparison(
    universe: &Universe,
    cfg: &ExpConfig,
) -> AblationResults<(String, f64, f64)> {
    use nexit_core::StopPolicy;
    let mut eligible = universe.eligible_pairs(2, true);
    eligible.truncate(cfg.max_pairs.unwrap_or(40).min(40));
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
    let mut out = AblationResults::default();
    for (name, config) in modes {
        // Per pair: (total gain, worst of the two per-ISP gains, gate).
        let per_pair = par_map(cfg.threads, eligible.len(), |i| {
            let run = build_pair_run(universe, eligible[i]);
            let session = &run.session;
            let mut a = Party::honest(
                "A",
                TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
            );
            let mut b = Party::honest(
                "B",
                TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
            );
            let outcome = negotiate(&session.input, &session.default, &mut a, &mut b, &config);
            let (f, r) = session.split(&outcome.assignment);
            let d = twoway_total_distance(
                &run.fwd.flows,
                &run.rev.flows,
                &run.fwd.default,
                &run.rev.default,
            );
            let n = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &f, &r);
            let mut worst = f64::INFINITY;
            for side in [Side::A, Side::B] {
                let ds = crate::twoway::twoway_side_distance(
                    side,
                    &run.fwd.flows,
                    &run.rev.flows,
                    &run.fwd.default,
                    &run.rev.default,
                );
                let ns = crate::twoway::twoway_side_distance(
                    side,
                    &run.fwd.flows,
                    &run.rev.flows,
                    &f,
                    &r,
                );
                worst = worst.min(percent_gain(ds, ns));
            }
            (percent_gain(d, n), worst, WinWinGate::of([&outcome]))
        });
        if matches!(config.accept, AcceptRule::CreditVeto { .. }) {
            per_pair
                .iter()
                .for_each(|&(_, _, gate)| out.gate.absorb(gate));
        }
        let totals: Vec<f64> = per_pair.iter().map(|&(t, _, _)| t).collect();
        let worst_individual = per_pair
            .iter()
            .map(|&(_, w, _)| w)
            .fold(f64::INFINITY, f64::min);
        out.rows.push((
            name.to_string(),
            crate::cdf::Cdf::new(totals).median(),
            worst_individual,
        ));
    }
    out
}

/// Print the mode comparison.
pub fn report_modes(results: &AblationResults<(String, f64, f64)>) {
    println!("== Protocol-mode ablation (distance pairs subset) ==");
    results.gate.print();
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
pub fn report_prange(results: &AblationResults<(i32, f64)>) {
    println!("== Preference range sweep (median total distance gain %) ==");
    results.gate.print();
    for (p, g) in &results.rows {
        println!("  P = {p:3}  median gain = {g:.3}%");
    }
}

/// Print the group sweep.
pub fn report_groups(results: &AblationResults<(usize, f64)>) {
    println!("== Group-count sweep (median total distance gain %) ==");
    results.gate.print();
    for (g, v) in &results.rows {
        println!("  groups = {g:3}  median gain = {v:.3}%");
    }
}

/// Print the model grid.
pub fn report_models(results: &ModelGridResults) {
    println!("== Alternate workload/capacity models (upstream MEL vs optimal) ==");
    crate::experiments::bandwidth::print_lp_stats(&results.lp_stats);
    results.gate.print();
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
