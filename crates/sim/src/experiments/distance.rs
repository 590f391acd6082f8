//! §5.1 distance experiments: Figures 4a, 4b, 6 and the flow-fraction
//! claim.
//!
//! Both traffic directions of each eligible pair (two or more
//! interconnections, no mesh ISPs) are negotiated as one combined session
//! — the paper keeps "all the traffic on the negotiating table". Flows are
//! unweighted (the §5.1 metric is the plain sum of path lengths), so the
//! identical-weights workload model is forced here regardless of the
//! experiment configuration.

use crate::cdf::Cdf;
use crate::pairdata::{ExpConfig, PairData};
use crate::parallel::par_map;
use crate::twoway::{
    twoway_side_distance, twoway_total_distance, TwoWayDistanceMapper, TwoWaySession,
};
use nexit_baselines::optimal_distance;
use nexit_core::{negotiate, NexitConfig, Party, Side};
use nexit_metrics::percent_gain;
use nexit_topology::Universe;
use nexit_workload::WorkloadModel;

/// Results of the distance experiment across all pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceResults {
    /// Fig. 4a: per-pair % reduction of total distance, negotiated.
    pub total_negotiated: Vec<f64>,
    /// Fig. 4a: per-pair % reduction of total distance, optimal.
    pub total_optimal: Vec<f64>,
    /// Fig. 4b: per-ISP % reduction (two samples per pair), negotiated.
    pub individual_negotiated: Vec<f64>,
    /// Fig. 4b: per-ISP % reduction, optimal.
    pub individual_optimal: Vec<f64>,
    /// Fig. 6: per-flow % gain across all pairs, negotiated: ~pops²
    /// samples per pair, the only series that scales with flows rather
    /// than pairs.
    pub flow_negotiated: Vec<f64>,
    /// Fig. 6: per-flow % gain, optimal.
    pub flow_optimal: Vec<f64>,
    /// §5.1 claim: per pair, the fraction of all flows that must be
    /// non-default routed to capture 90% of the negotiated gain.
    pub fraction_for_90pct: Vec<f64>,
    /// Late-exit (consistently honored MEDs, Fig. 1b): per-pair total %
    /// "gain" — typically near zero, since it merely mirrors early-exit.
    pub total_late_exit: Vec<f64>,
    /// Accepted moves across all sessions.
    pub accepted_moves: usize,
    /// Of those, moves the win-win close rolled back.
    pub rolled_back: usize,
    /// Sessions (one per pair) that left either side's cumulative gain
    /// negative. The win-win close guarantees zero.
    pub negative_sessions: usize,
    /// Number of pairs evaluated.
    pub pairs: usize,
}

/// Per-pair intermediate, exposed for the cheating experiment which needs
/// the same setup with different parties.
pub struct DistancePairRun<'u> {
    /// Forward-direction data (A upstream).
    pub fwd: PairData<'u>,
    /// Reverse-direction data (B upstream), built on the mirrored pair.
    pub rev: PairData<'u>,
    /// The combined session.
    pub session: TwoWaySession,
}

/// Build the combined two-direction run for one pair index. The reverse
/// direction reuses the forward shortest-path matrices (mirrored pair,
/// same topologies).
pub fn build_pair_run(universe: &Universe, pair_idx: usize) -> DistancePairRun<'_> {
    let pair = &universe.pairs[pair_idx];
    let a = &universe.isps[pair.isp_a.index()];
    let b = &universe.isps[pair.isp_b.index()];
    let fwd = PairData::build(a, b, pair.clone(), WorkloadModel::Identical);
    let rev = fwd.build_mirrored(WorkloadModel::Identical);
    let session = TwoWaySession::build(&fwd, &rev);
    DistancePairRun { fwd, rev, session }
}

/// One pair's contribution to [`DistanceResults`], in the exact order
/// the serial loop would push it.
struct PairResult {
    total_negotiated: f64,
    total_optimal: f64,
    total_late_exit: f64,
    /// `[A, B]` per-ISP gains.
    individual_negotiated: [f64; 2],
    individual_optimal: [f64; 2],
    flow_negotiated: Vec<f64>,
    flow_optimal: Vec<f64>,
    fraction_for_90pct: f64,
    accepted_moves: usize,
    rolled_back: usize,
    negative: bool,
}

/// Run the full distance experiment. Pairs are swept on
/// `cfg.threads` workers; results are merged in pair order, so the
/// output is independent of the thread count.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> DistanceResults {
    let mut eligible = universe.eligible_pairs(2, true);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let per_pair = par_map(cfg.threads, eligible.len(), |i| {
        run_pair(universe, eligible[i])
    });

    let mut out = DistanceResults {
        pairs: eligible.len(),
        ..DistanceResults::default()
    };
    for p in per_pair {
        out.total_negotiated.push(p.total_negotiated);
        out.total_optimal.push(p.total_optimal);
        out.total_late_exit.push(p.total_late_exit);
        out.individual_negotiated.extend(p.individual_negotiated);
        out.individual_optimal.extend(p.individual_optimal);
        out.flow_negotiated.extend(p.flow_negotiated);
        out.flow_optimal.extend(p.flow_optimal);
        out.fraction_for_90pct.push(p.fraction_for_90pct);
        out.accepted_moves += p.accepted_moves;
        out.rolled_back += p.rolled_back;
        out.negative_sessions += usize::from(p.negative);
    }
    out
}

/// Evaluate one pair (negotiated, optimal and late-exit baselines).
fn run_pair(universe: &Universe, pair_idx: usize) -> PairResult {
    let run = build_pair_run(universe, pair_idx);
    let session = &run.session;

    // Negotiated routing.
    let mut party_a = Party::honest(
        "ISP-A",
        TwoWayDistanceMapper::new(Side::A, &run.fwd.flows, &run.rev.flows, session.n_fwd),
    );
    let mut party_b = Party::honest(
        "ISP-B",
        TwoWayDistanceMapper::new(Side::B, &run.fwd.flows, &run.rev.flows, session.n_fwd),
    );
    let outcome = negotiate(
        &session.input,
        &session.default,
        &mut party_a,
        &mut party_b,
        &NexitConfig::win_win(),
    );
    let (neg_fwd, neg_rev) = session.split(&outcome.assignment);

    // Optimal routing (per-flow total-distance argmin in each
    // direction).
    let opt_fwd = optimal_distance(&run.fwd.flows);
    let opt_rev = optimal_distance(&run.rev.flows);

    // Totals (Fig. 4a).
    let d_total = twoway_total_distance(
        &run.fwd.flows,
        &run.rev.flows,
        &run.fwd.default,
        &run.rev.default,
    );
    let n_total = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &neg_fwd, &neg_rev);
    let o_total = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &opt_fwd, &opt_rev);

    // Late-exit baseline (Fig. 1b): every flow enters at the
    // interconnection closest to its destination.
    let late_fwd = nexit_routing::Assignment::from_choices(
        run.fwd
            .flows
            .flows
            .iter()
            .map(|f| nexit_routing::late_exit(&run.fwd.view(), &run.fwd.sp_down, f.dst))
            .collect(),
    );
    let late_rev = nexit_routing::Assignment::from_choices(
        run.rev
            .flows
            .flows
            .iter()
            .map(|f| nexit_routing::late_exit(&run.rev.view(), &run.rev.sp_down, f.dst))
            .collect(),
    );
    let l_total = twoway_total_distance(&run.fwd.flows, &run.rev.flows, &late_fwd, &late_rev);

    // Individual ISP gains (Fig. 4b).
    let side_gains = |side| {
        let d = twoway_side_distance(
            side,
            &run.fwd.flows,
            &run.rev.flows,
            &run.fwd.default,
            &run.rev.default,
        );
        let n = twoway_side_distance(side, &run.fwd.flows, &run.rev.flows, &neg_fwd, &neg_rev);
        let o = twoway_side_distance(side, &run.fwd.flows, &run.rev.flows, &opt_fwd, &opt_rev);
        (percent_gain(d, n), percent_gain(d, o))
    };
    let (ind_neg_a, ind_opt_a) = side_gains(Side::A);
    let (ind_neg_b, ind_opt_b) = side_gains(Side::B);

    // Flow-level gains (Fig. 6) and the 90%-of-gain fraction.
    let mut flow_negotiated = Vec::new();
    let mut flow_optimal = Vec::new();
    let mut per_flow_saving: Vec<f64> = Vec::new();
    let mut collect = |flows: &nexit_routing::PairFlows,
                       default: &nexit_routing::Assignment,
                       neg: &nexit_routing::Assignment,
                       opt: &nexit_routing::Assignment| {
        for (id, _, m) in flows.iter() {
            let d = m.total_km(default.choice(id));
            flow_negotiated.push(percent_gain(d, m.total_km(neg.choice(id))));
            flow_optimal.push(percent_gain(d, m.total_km(opt.choice(id))));
            per_flow_saving.push(d - m.total_km(neg.choice(id)));
        }
    };
    collect(&run.fwd.flows, &run.fwd.default, &neg_fwd, &opt_fwd);
    collect(&run.rev.flows, &run.rev.default, &neg_rev, &opt_rev);

    PairResult {
        total_negotiated: percent_gain(d_total, n_total),
        total_optimal: percent_gain(d_total, o_total),
        total_late_exit: percent_gain(d_total, l_total),
        individual_negotiated: [ind_neg_a, ind_neg_b],
        individual_optimal: [ind_opt_a, ind_opt_b],
        flow_negotiated,
        flow_optimal,
        fraction_for_90pct: fraction_for_gain_share(&per_flow_saving, 0.9),
        accepted_moves: outcome.flows_negotiated(),
        rolled_back: outcome.flows_rolled_back(),
        negative: outcome.gain_a < 0 || outcome.gain_b < 0,
    }
}

/// The fraction of all flows (sorted by descending saving) needed to
/// capture `share` of the total positive saving. Returns 0 when there is
/// no gain at all.
pub fn fraction_for_gain_share(per_flow_saving: &[f64], share: f64) -> f64 {
    let total: f64 = per_flow_saving.iter().filter(|&&s| s > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut savings: Vec<f64> = per_flow_saving
        .iter()
        .copied()
        .filter(|&s| s > 0.0)
        .collect();
    savings.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let mut acc = 0.0;
    for (i, s) in savings.iter().enumerate() {
        acc += s;
        if acc >= share * total {
            return (i + 1) as f64 / per_flow_saving.len() as f64;
        }
    }
    1.0
}

/// Print the distance experiment report (Figures 4a, 4b, 6).
pub fn report(results: &DistanceResults) {
    println!("== Figure 4a: total distance gain over default (% reduction) ==");
    println!(
        "   rolled back: {} of {} accepted moves",
        results.rolled_back, results.accepted_moves
    );
    println!(
        "   negative final gain: {} of {} sessions",
        results.negative_sessions, results.pairs
    );
    Cdf::new(results.total_negotiated.clone()).print("negotiated");
    Cdf::new(results.total_optimal.clone()).print("optimal");
    Cdf::new(results.total_late_exit.clone()).print("late-exit (MEDs, Fig. 1b)");
    println!();
    println!("== Figure 4b: individual ISP distance gain (% reduction) ==");
    Cdf::new(results.individual_negotiated.clone()).print("negotiated");
    Cdf::new(results.individual_optimal.clone()).print("optimal");
    println!();
    println!("== Figure 6: flow-level gain (% reduction, all flows, all pairs) ==");
    Cdf::new(results.flow_negotiated.clone()).print("negotiated");
    Cdf::new(results.flow_optimal.clone()).print("optimal");
    println!();
    let frac = Cdf::new(results.fraction_for_90pct.clone());
    println!(
        "== §5.1 claim: median fraction of flows for 90% of gain = {:.1}% ==",
        100.0 * frac.median()
    );
}
