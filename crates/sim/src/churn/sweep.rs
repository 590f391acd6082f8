//! The `experiments churn` sweep: replay seeded feeds through the
//! driver, verify every prefix against the cold rebuild, rerun at
//! 1/2/4 workers, and report.

use super::driver::{ChurnCounters, ChurnDriver};
use super::model::{
    generate_trace, initial_active, lp_fits, ChurnConfig, ChurnEvent, ChurnPair, Objective,
};
use super::verify::{cold_rebuild, divergence};
use crate::cdf::Cdf;
use crate::parallel::par_map;
use nexit_lp::WarmStats;
use nexit_topology::{GeneratorConfig, IcxId, TopologyGenerator, Universe};

/// The sweep's universe: the same 12-ISP topology the fault sweep and
/// the broker determinism suite pin, restricted to pairs with three or
/// more interconnections so failures leave a negotiable pair behind.
pub fn universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

/// One pair's replay results.
struct PairRun {
    work: Vec<f64>,
    cold_work: Vec<f64>,
    divergences: usize,
    violations: Vec<String>,
    counters: ChurnCounters,
    final_choices: Vec<IcxId>,
    lp_stats: WarmStats,
    lp_skipped: bool,
}

/// Replay one pair's feed through the incremental driver; with
/// `with_cold`, also rebuild every event prefix from scratch and
/// compare (the correctness replay + the cold work twin).
fn replay_pair(
    pair: &ChurnPair<'_>,
    initial: &[bool],
    trace: &[ChurnEvent],
    cfg: &ChurnConfig,
    with_cold: bool,
) -> PairRun {
    let mut driver = ChurnDriver::new(pair, initial.to_vec(), *cfg);
    let mut lp_skipped = !lp_fits(pair, driver.state());
    let mut work = Vec::with_capacity(trace.len());
    let mut cold_work = Vec::new();
    let mut divergences = 0;
    let mut violations = Vec::new();
    for (idx, event) in trace.iter().enumerate() {
        driver.apply(event);
        work.push(driver.last_work() as f64);
        lp_skipped |= !lp_fits(pair, driver.state());
        if with_cold {
            let (cold, units) = cold_rebuild(pair, driver.state(), cfg);
            cold_work.push(units as f64);
            if let Some(diff) = divergence(driver.negotiated(), &cold) {
                divergences += 1;
                if violations.len() < 3 {
                    violations.push(format!("event {idx} ({:?}): {diff}", event.kind));
                }
            }
        }
    }
    violations.extend(driver.lp_errors.iter().cloned());
    PairRun {
        work,
        cold_work,
        divergences,
        violations,
        counters: driver.counters(),
        final_choices: driver.negotiated().assignment.choices().to_vec(),
        lp_stats: driver.lp_stats(),
        lp_skipped,
    }
}

/// Everything `experiments churn` measures.
#[derive(Default)]
pub struct ChurnReport {
    /// The objective the sweep negotiated under.
    pub objective: Objective,
    /// Pairs replayed.
    pub pairs: usize,
    /// Total events across all feeds.
    pub events: usize,
    /// Path and gain-row counters, summed over all pairs.
    pub counters: ChurnCounters,
    /// Prefix replays that did not match the cold rebuild (must be 0).
    pub divergences: usize,
    /// Per-event incremental work units (deterministic).
    pub work: Vec<f64>,
    /// Per-event cold work units (deterministic).
    pub cold_work: Vec<f64>,
    /// Aggregate LP warm/cold counters across all retained workspaces.
    pub lp_stats: WarmStats,
    /// Pairs whose baseline LP exceeded the size budget on some event.
    pub lp_skipped_pairs: usize,
    /// Whether 1/2/4-worker reruns were byte-identical.
    pub deterministic: bool,
    /// Final per-pair assignments (for the determinism suite).
    pub final_assignments: Vec<Vec<IcxId>>,
    /// Hard failures; the binary exits non-zero when non-empty.
    pub violations: Vec<String>,
}

/// Run the churn sweep: replay every pair's seeded feed incrementally,
/// verify every event prefix against a from-scratch cold rebuild, then
/// rerun the incremental path at 1, 2 and 4 workers and require
/// byte-identical assignments and work series.
pub fn run(
    max_pairs: usize,
    events_per_pair: usize,
    threads: usize,
    seed: u64,
    objective: Objective,
) -> ChurnReport {
    let u = universe();
    let cfg = ChurnConfig { objective };
    let eligible = u.eligible_pairs(3, false);
    assert!(
        !eligible.is_empty(),
        "universe has no 3+-interconnection pairs"
    );
    let take = eligible.len().min(max_pairs.max(1));
    let pairs: Vec<ChurnPair<'_>> = eligible[..take]
        .iter()
        .map(|&idx| ChurnPair::build(&u, idx, 2))
        .collect();
    let feeds: Vec<(Vec<bool>, Vec<ChurnEvent>)> = pairs
        .iter()
        .enumerate()
        .map(|(i, pair)| {
            let pair_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let initial = initial_active(pair, pair_seed);
            let trace = generate_trace(pair, &initial, events_per_pair, pair_seed);
            (initial, trace)
        })
        .collect();

    let sweep = |workers: usize, with_cold: bool| -> Vec<PairRun> {
        par_map(workers, pairs.len(), |i| {
            replay_pair(&pairs[i], &feeds[i].0, &feeds[i].1, &cfg, with_cold)
        })
    };

    // Main sweep: incremental replay + per-prefix cold verification.
    let main = sweep(threads, true);

    let mut report = ChurnReport {
        objective,
        pairs: pairs.len(),
        events: feeds.iter().map(|(_, t)| t.len()).sum(),
        deterministic: true,
        ..ChurnReport::default()
    };
    for run in &main {
        report.counters.absorb(run.counters);
        report.divergences += run.divergences;
        report.work.extend(&run.work);
        report.cold_work.extend(&run.cold_work);
        report.lp_stats.absorb(run.lp_stats);
        report.lp_skipped_pairs += usize::from(run.lp_skipped);
        report.final_assignments.push(run.final_choices.clone());
        report.violations.extend(run.violations.iter().cloned());
    }
    if report.divergences > 0 {
        report.violations.push(format!(
            "{} event prefix(es) diverged from the cold rebuild",
            report.divergences
        ));
    }

    // Worker-count determinism: the incremental path must reproduce
    // identical assignments, work series and path counters at 1/2/4.
    for workers in [1usize, 2, 4] {
        let rerun = sweep(workers, false);
        let identical = rerun.iter().zip(&main).all(|(r, m)| {
            r.final_choices == m.final_choices && r.work == m.work && r.counters == m.counters
        });
        if !identical {
            report.deterministic = false;
            report.violations.push(format!(
                "sweep diverged between the main run and {workers} worker(s)"
            ));
        }
    }

    // The work rule, on the deterministic units (gain cells filled +
    // rounds + LP pivots) so that the verdict is the same on every host
    // and build profile: the incremental median must sit strictly under
    // the cold twin's. It follows its subject: under distance the median
    // event is a load delta the outcome cache answers, so the rule says
    // something. Under bandwidth the median event renegotiates, a live
    // session costs what the cold twin's does by construction and LP
    // pivots are at parity, so the two medians differ by noise in the
    // pivot counts — printed by `report` and pinned, with the rest of
    // the smoke's output, in `scripts/smoke_churn.txt`.
    if work_rule_gated(objective) && !report.work.is_empty() && !report.cold_work.is_empty() {
        let p50 = Cdf::new(report.work.clone()).median();
        let cold_p50 = Cdf::new(report.cold_work.clone()).median();
        if p50 >= cold_p50 {
            report.violations.push(format!(
                "incremental work p50 {p50:.1} not under cold work p50 {cold_p50:.1}"
            ));
        }
    }

    report
}

/// Whether "incremental work p50 strictly under cold" is a gate under
/// `objective` (or only printed).
fn work_rule_gated(objective: Objective) -> bool {
    objective == Objective::Distance
}

/// Print the sweep.
pub fn report(r: &ChurnReport) {
    let c = &r.counters;
    println!(
        "churn [{}]: {} pairs, {} events ({} outcome-cached, {} live-variant sessions, {} topology flaps)",
        r.objective.name(),
        r.pairs,
        r.events,
        c.cached_outcomes,
        c.incremental_sessions,
        c.fallback_sessions
    );
    let signature_checks = c.signature_hits + c.signature_misses;
    if signature_checks > 0 {
        println!(
            "load-signature checks: {} hits / {} misses ({:.1}% hit rate)",
            c.signature_hits,
            c.signature_misses,
            100.0 * c.signature_hits as f64 / signature_checks as f64
        );
    }
    println!("gain rows filled: {}", c.rows_refreshed);
    println!(
        "prefix replays vs cold rebuild: {} divergence(s); 1/2/4-worker reruns identical: {}",
        r.divergences, r.deterministic
    );
    let work = Cdf::new(r.work.clone());
    let cold_work = Cdf::new(r.cold_work.clone());
    work.print("per-event incremental work units (deterministic)");
    if !work.is_empty() && !cold_work.is_empty() {
        println!(
            "work p50: incremental {:.1} vs cold {:.1} units ({})",
            work.median(),
            cold_work.median(),
            if work_rule_gated(r.objective) {
                "gated: incremental must be under cold"
            } else {
                "printed, not gated: the median event renegotiates at the cold twin's price"
            },
        );
    }
    crate::experiments::bandwidth::print_lp_stats(&r.lp_stats);
    println!(
        "lp warm re-entry: {} of {} solves warm ({:.1}%), {} pair(s) size-skipped",
        r.lp_stats.warm_reentries(),
        r.lp_stats.total_solves(),
        100.0 * r.lp_stats.warm_fraction(),
        r.lp_skipped_pairs
    );
    for v in &r.violations {
        println!("VIOLATION: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_no_violations() {
        let r = run(2, 30, 2, 7, Objective::Distance);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert_eq!(r.divergences, 0);
        assert!(r.deterministic);
        assert!(
            r.counters.cached_outcomes > 0,
            "load events must cache the outcome"
        );
        assert!(
            r.counters.incremental_sessions > 0,
            "flow events must re-enter the live variant"
        );
        assert!(
            r.lp_stats.warm_reentries() > 0,
            "baseline must re-enter warm"
        );
    }

    #[test]
    fn small_bandwidth_sweep_has_no_violations() {
        // Seed 3's feeds hold both kinds: 2 of their 46 load deltas move
        // no class. Hits are rare — a step of the 0.70-1.49 ladder nearly
        // always carries some link across a 1/16 class boundary — and
        // seed 7, which the distance twin uses, has none.
        let r = run(2, 30, 2, 3, Objective::Bandwidth);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert_eq!(r.divergences, 0);
        assert!(r.deterministic);
        assert!(
            r.counters.signature_hits > 0,
            "a load delta that moves no class must be answered from the outcome cache"
        );
        assert!(
            r.counters.signature_misses > 0,
            "a load delta that moves a class must renegotiate"
        );
    }
}
