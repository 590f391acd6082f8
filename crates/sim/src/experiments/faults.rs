//! Fault-tolerance sweep (`experiments faults`).
//!
//! Serves real topology-derived negotiation pairs through the broker
//! with the ARQ reliability layer and graceful degradation enabled,
//! while the in-memory links drop, corrupt, duplicate and reorder
//! frames at configurable rates. Three questions, answered with hard
//! exit codes rather than prose:
//!
//! 1. **Recovery**: below saturation, every recovered session must be
//!    byte-identical to the fault-free engine reference — the headline
//!    cell (1% drop + 1% corrupt, default retry budget) must keep at
//!    least 99% of ≥1k sessions identical with zero sessions lost.
//! 2. **Degradation**: sessions that exhaust their retry budget must
//!    fall back to the pair's default early-exit assignment — every
//!    pair stays usable even on a dead link. The MEL cost of that
//!    fallback (degraded vs negotiated routing, capacities from the
//!    paper's §5.2 model) is reported as a CDF over degraded sessions.
//! 3. **Determinism**: the headline cell reruns at 1, 2 and 4 workers
//!    and must produce byte-identical results and fault counters.
//!
//! Any violation is collected into [`FaultsReport::violations`] and the
//! binary exits non-zero, making this sweep a CI gate.

use crate::cdf::Cdf;
use crate::PairData;
use nexit_broker::{Broker, BrokerConfig, PairOutcome, PairResult, ReliableConfig, SessionSpec};
use nexit_core::{
    negotiate, DistanceMapper, NegotiationOutcome, NexitConfig, Party, SessionInput, Side,
};
use nexit_metrics::side_mels;
use nexit_proto::channel::FaultConfig;
use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::{GeneratorConfig, TopologyGenerator, Universe};
use nexit_workload::{assign_capacities, link_loads, CapacityModel, WorkloadModel};

/// The sweep's universe: the same 12-ISP topology the broker
/// determinism suite pins, so measured recovery numbers and test
/// guarantees describe the same sessions.
fn universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn session_input(flows: &PairFlows, default: &Assignment, alts: usize) -> SessionInput {
    SessionInput {
        flow_ids: (0..flows.len()).map(FlowId::new).collect(),
        defaults: default.choices().to_vec(),
        volumes: flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: alts,
    }
}

fn build_pairs(u: &Universe) -> Vec<PairData<'_>> {
    u.eligible_pairs(2, true)
        .into_iter()
        .map(|idx| {
            let pair = &u.pairs[idx];
            let a = &u.isps[pair.isp_a.index()];
            let b = &u.isps[pair.isp_b.index()];
            PairData::build(a, b, pair.clone(), WorkloadModel::Identical)
        })
        .collect()
}

fn spec_for<'a>(data: &'a PairData<'_>) -> SessionSpec<'a> {
    let alts = data.pair.num_interconnections();
    SessionSpec::honest(
        session_input(&data.flows, &data.default, alts),
        data.default.clone(),
        DistanceMapper::new(Side::A, &data.flows),
        DistanceMapper::new(Side::B, &data.flows),
        NexitConfig::win_win(),
    )
}

fn engine_reference(data: &PairData<'_>) -> NegotiationOutcome {
    let alts = data.pair.num_interconnections();
    let mut pa = Party::honest("A", DistanceMapper::new(Side::A, &data.flows));
    let mut pb = Party::honest("B", DistanceMapper::new(Side::B, &data.flows));
    negotiate(
        &session_input(&data.flows, &data.default, alts),
        &data.default,
        &mut pa,
        &mut pb,
        &NexitConfig::win_win(),
    )
}

fn matches_reference(reference: &NegotiationOutcome, out: &PairOutcome) -> bool {
    reference.assignment.choices() == out.a.assignment.choices()
        && out.a.assignment == out.b.assignment
        && reference.gain_a == out.a.my_gain
        && reference.gain_b == out.b.my_gain
        && reference.termination == out.a.termination
        && reference.reassignments == out.a.reassignments
}

/// MEL of an assignment over a pair, with link capacities assigned from
/// the default (pre-negotiation) loads per the paper's §5.2 model. The
/// degraded-cost ratio divides the default assignment's MEL by the
/// negotiated one's, so `>= 1` means degradation costs headroom.
fn mel_cost_ratio(data: &PairData<'_>, negotiated: &Assignment) -> f64 {
    let view = data.view();
    let default_loads = link_loads(&view, &data.paths, &data.flows, &data.default);
    let caps_up = assign_capacities(&CapacityModel::default(), &default_loads.up);
    let caps_down = assign_capacities(&CapacityModel::default(), &default_loads.down);
    let (u, d) = side_mels(&default_loads, &caps_up, &caps_down);
    let mel_default = u.max(d);
    let negotiated_loads = link_loads(&view, &data.paths, &data.flows, negotiated);
    let (u, d) = side_mels(&negotiated_loads, &caps_up, &caps_down);
    let mel_negotiated = u.max(d);
    if mel_negotiated > 0.0 {
        mel_default / mel_negotiated
    } else {
        1.0
    }
}

/// One sweep cell's classified outcomes.
#[derive(Debug, Clone)]
pub struct FaultsCell {
    /// Human-readable cell description (rates and retry budget).
    pub label: String,
    /// Sessions served in this cell.
    pub sessions: usize,
    /// Negotiated sessions byte-identical to the engine reference.
    pub identical: usize,
    /// Negotiated sessions that diverged from the reference (always a
    /// violation) plus degraded sessions carrying the wrong fallback.
    pub mismatched: usize,
    /// Sessions that fell back to the default assignment.
    pub degraded: usize,
    /// Sessions lost outright (always a violation: degradation is on).
    pub failed: usize,
    /// Negotiated sessions whose links injected at least one fault.
    pub recovered: usize,
    /// ARQ retransmissions across the cell.
    pub retransmits: u64,
}

/// Everything `experiments faults` measures.
#[derive(Debug, Clone)]
pub struct FaultsReport {
    /// Distinct topology pairs behind the replicated sessions.
    pub pairs: usize,
    /// The acceptance cell: 1% drop + 1% corrupt, default retry budget.
    pub headline: FaultsCell,
    /// Rate × retry-budget grid plus the mixed-fault and dead-link cells.
    pub grid: Vec<FaultsCell>,
    /// Whether the headline cell was byte-identical at 1, 2 and 4 workers.
    pub deterministic: bool,
    /// Degraded-vs-negotiated MEL cost ratio, one sample per degraded
    /// session anywhere in the sweep.
    pub mel_ratio: Vec<f64>,
    /// Hard failures; the binary exits non-zero when non-empty.
    pub violations: Vec<String>,
}

struct CellPlan {
    label: String,
    faults: FaultConfig,
    reliability: ReliableConfig,
    sessions: usize,
}

/// Serve one cell and classify every outcome against the references.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    pairs: &[PairData<'_>],
    references: &[NegotiationOutcome],
    mel_ratios: &[f64],
    plan: &CellPlan,
    workers: usize,
    seed: u64,
    mel_ratio: &mut Vec<f64>,
    violations: &mut Vec<String>,
) -> (FaultsCell, Vec<PairResult>) {
    let specs: Vec<_> = (0..plan.sessions)
        .map(|i| {
            let link_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            spec_for(&pairs[i % pairs.len()]).with_faults(plan.faults, link_seed)
        })
        .collect();
    let config = BrokerConfig::with_workers(workers)
        .with_reliability(plan.reliability)
        .with_degradation();
    let run = Broker::new(config).run_pairs(specs);

    let mut cell = FaultsCell {
        label: plan.label.clone(),
        sessions: plan.sessions,
        identical: 0,
        mismatched: 0,
        degraded: 0,
        failed: 0,
        recovered: run.stats.recovered,
        retransmits: run.stats.retransmits,
    };
    for (i, result) in run.results.iter().enumerate() {
        let p = i % pairs.len();
        match result {
            PairResult::Negotiated(out) if matches_reference(&references[p], out) => {
                cell.identical += 1;
            }
            PairResult::Negotiated(_) => cell.mismatched += 1,
            PairResult::Degraded { assignment, .. } => {
                cell.degraded += 1;
                if assignment != &pairs[p].default {
                    cell.mismatched += 1;
                } else {
                    mel_ratio.push(mel_ratios[p]);
                }
            }
            PairResult::Failed(_) => cell.failed += 1,
        }
    }
    if cell.mismatched > 0 {
        violations.push(format!(
            "{}: {} session(s) diverged from the fault-free reference",
            cell.label, cell.mismatched
        ));
    }
    if cell.failed > 0 {
        violations.push(format!(
            "{}: {} session(s) lost despite degradation being enabled",
            cell.label, cell.failed
        ));
    }
    if cell.identical + cell.degraded + cell.failed != cell.sessions {
        violations.push(format!(
            "{}: {} + {} + {} sessions accounted, {} submitted",
            cell.label, cell.identical, cell.degraded, cell.failed, cell.sessions
        ));
    }
    (cell, run.results)
}

/// Run the full sweep: the headline acceptance cell (at 1, 2 and 4
/// workers), the rate × retry-budget grid, the mixed-fault cell and the
/// dead-link cell. `headline_sessions` sizes the acceptance cell (the
/// acceptance criterion assumes ≥ 1000); grid cells run at a quarter of
/// that. `workers` drives the grid cells (0 = all cores) — outcomes are
/// worker-count independent either way, and the headline sweep proves it.
pub fn run(headline_sessions: usize, workers: usize, seed: u64) -> FaultsReport {
    let u = universe();
    let pairs = build_pairs(&u);
    assert!(!pairs.is_empty(), "universe has no eligible pairs");
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();
    let mel_ratios: Vec<f64> = pairs
        .iter()
        .zip(&references)
        .map(|(data, reference)| mel_cost_ratio(data, &reference.assignment))
        .collect();

    let mut mel_ratio = Vec::new();
    let mut violations = Vec::new();

    // Headline acceptance cell, rerun at 1/2/4 workers: classification
    // comes from the first run; the reruns pin worker-count independence.
    let headline_plan = CellPlan {
        label: "drop 1% + corrupt 1%, budget 8 (headline)".into(),
        faults: FaultConfig {
            drop_chance: 0.01,
            corrupt_chance: 0.01,
            ..FaultConfig::RELIABLE
        },
        reliability: ReliableConfig::default(),
        sessions: headline_sessions.max(pairs.len()),
    };
    let mut headline: Option<FaultsCell> = None;
    let mut first_outcome: Option<(Vec<PairResult>, usize, u64)> = None;
    let mut deterministic = true;
    for w in [1usize, 2, 4] {
        let (cell, results) = run_cell(
            &pairs,
            &references,
            &mel_ratios,
            &headline_plan,
            w,
            seed,
            &mut mel_ratio,
            &mut violations,
        );
        match &first_outcome {
            None => {
                first_outcome = Some((results, cell.recovered, cell.retransmits));
                headline = Some(cell);
            }
            Some((reference_results, recovered, retransmits)) => {
                if *reference_results != results
                    || *recovered != cell.recovered
                    || *retransmits != cell.retransmits
                {
                    deterministic = false;
                    violations.push(format!("headline cell diverged between 1 and {w} workers"));
                }
            }
        }
    }
    let headline = headline.expect("headline cell ran");
    let identical_fraction = headline.identical as f64 / headline.sessions as f64;
    if identical_fraction < 0.99 {
        violations.push(format!(
            "headline: only {:.2}% of {} sessions byte-identical (need >= 99%)",
            identical_fraction * 100.0,
            headline.sessions
        ));
    }

    // Rate × retry-budget grid, plus a mixed-fault cell and a dead-link
    // cell (the latter guarantees the degradation path and the MEL cost
    // CDF are exercised even when every lossy cell fully recovers).
    let grid_sessions = (headline_plan.sessions / 4).max(pairs.len());
    let mut plans = Vec::new();
    for &rate in &[0.01f64, 0.05] {
        for &budget in &[2usize, 8, 16] {
            plans.push(CellPlan {
                label: format!(
                    "drop {p}% + corrupt {p}%, budget {budget}",
                    p = rate * 100.0
                ),
                faults: FaultConfig {
                    drop_chance: rate,
                    corrupt_chance: rate,
                    ..FaultConfig::RELIABLE
                },
                reliability: ReliableConfig {
                    retry_budget: budget,
                    ..ReliableConfig::default()
                },
                sessions: grid_sessions,
            });
        }
    }
    plans.push(CellPlan {
        label: "all four faults 5%, budget 8".into(),
        faults: FaultConfig {
            drop_chance: 0.05,
            corrupt_chance: 0.05,
            duplicate_chance: 0.05,
            reorder_chance: 0.05,
        },
        reliability: ReliableConfig::default(),
        sessions: grid_sessions,
    });
    plans.push(CellPlan {
        label: "dead link (drop 100%), budget 8".into(),
        faults: FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::RELIABLE
        },
        reliability: ReliableConfig::default(),
        sessions: pairs.len(),
    });

    let mut grid = Vec::new();
    for plan in &plans {
        let (cell, _) = run_cell(
            &pairs,
            &references,
            &mel_ratios,
            plan,
            workers,
            seed,
            &mut mel_ratio,
            &mut violations,
        );
        grid.push(cell);
    }
    // The dead-link cell must degrade every session — no pair may become
    // unusable, whatever its link does.
    let dead = grid.last().expect("dead-link cell ran");
    if dead.degraded != dead.sessions {
        violations.push(format!(
            "dead-link cell: {} of {} sessions degraded (all must)",
            dead.degraded, dead.sessions
        ));
    }

    FaultsReport {
        pairs: pairs.len(),
        headline,
        grid,
        deterministic,
        mel_ratio,
        violations,
    }
}

fn report_cell(cell: &FaultsCell) {
    println!(
        "  {:<42} {:>6} sessions: {:>6} identical, {:>4} degraded, {:>3} failed, \
         {:>4} mismatched; {:>5} recovered, {:>7} retransmits",
        cell.label,
        cell.sessions,
        cell.identical,
        cell.degraded,
        cell.failed,
        cell.mismatched,
        cell.recovered,
        cell.retransmits,
    );
}

/// Print the sweep.
pub fn report(r: &FaultsReport) {
    println!(
        "faults: {} real topology pairs, ARQ + degradation enabled",
        r.pairs
    );
    report_cell(&r.headline);
    for cell in &r.grid {
        report_cell(cell);
    }
    println!(
        "headline: {:.2}% of {} sessions byte-identical to the fault-free engine",
        100.0 * r.headline.identical as f64 / r.headline.sessions as f64,
        r.headline.sessions
    );
    println!(
        "headline rerun at 1/2/4 workers byte-identical: {}",
        r.deterministic
    );
    Cdf::new(r.mel_ratio.clone())
        .print("degraded-vs-negotiated MEL cost ratio (per degraded session)");
    for v in &r.violations {
        println!("VIOLATION: {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_has_no_violations() {
        // A scaled-down sweep must still satisfy every acceptance gate:
        // full recovery in the headline cell, worker-count determinism,
        // all dead-link sessions degraded, nothing lost anywhere.
        let r = run(40, 2, 5);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert!(r.deterministic);
        assert_eq!(r.headline.identical, r.headline.sessions);
        let dead = r.grid.last().unwrap();
        assert_eq!(dead.degraded, dead.sessions);
        assert!(!r.mel_ratio.is_empty(), "dead cell must feed the MEL CDF");
        assert!(
            Cdf::new(r.mel_ratio.clone()).min() > 0.0,
            "MEL ratios are positive"
        );
    }
}
