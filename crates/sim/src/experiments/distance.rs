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
use crate::experiments::sweep::{sweep_pairs, Pairs, Rows, WinWinGate};
use crate::pairdata::{ExpConfig, PairData};
use crate::twoway::{TwoWayDistanceMapper, TwoWaySession};
use nexit_baselines::optimal_distance;
use nexit_core::{
    negotiate_in, DisclosurePolicy, NegotiationOutcome, NexitConfig, Party, Side, TableArena,
};
use nexit_metrics::percent_gain;
use nexit_routing::assignment::{side_distance_km, total_distance_km};
use nexit_routing::{late_exit, Assignment};
use nexit_topology::Universe;
use nexit_workload::WorkloadModel;

/// One pair's contribution to Figures 4 and 6 and the §5.1 claim.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRow {
    /// Fig. 4a/4b: total and `[A, B]` % distance reduction, negotiated.
    pub negotiated: (f64, [f64; 2]),
    /// Fig. 4a/4b: the same for the optimal routing.
    pub optimal: (f64, [f64; 2]),
    /// Late-exit (consistently honored MEDs, Fig. 1b): total % "gain" —
    /// typically near zero, since it merely mirrors early-exit.
    pub late_exit: f64,
    /// Fig. 6: per-flow % gain, negotiated: ~pops² samples per pair, the
    /// only series that scales with flows rather than pairs.
    pub flow_negotiated: Vec<f64>,
    /// Fig. 6: per-flow % gain, optimal.
    pub flow_optimal: Vec<f64>,
    /// §5.1 claim: the fraction of all flows that must be non-default
    /// routed to capture 90% of the negotiated gain.
    pub fraction_for_90pct: f64,
    /// Accepted moves of the pair's session.
    pub accepted_moves: usize,
    /// Of those, moves the win-win close rolled back.
    pub rolled_back: usize,
}

/// Both directions of one pair, negotiated as one combined session.
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

impl DistancePairRun<'_> {
    /// The two parties on the combined distance objective: A honest, B
    /// disclosing under `b_policy`.
    pub(crate) fn parties(&self, b_policy: DisclosurePolicy) -> (Party<'_>, Party<'_>) {
        let mapper = |side| {
            TwoWayDistanceMapper::new(side, &self.fwd.flows, &self.rev.flows, self.session.n_fwd)
        };
        (
            Party::honest("A", mapper(Side::A)),
            Party::cheating("B", mapper(Side::B), b_policy),
        )
    }

    /// Negotiate the combined session under `config`, B disclosing
    /// under `b_policy`, with buffers drawn from `arena`.
    pub fn negotiate(
        &self,
        arena: &mut TableArena,
        config: &NexitConfig,
        b_policy: DisclosurePolicy,
    ) -> NegotiationOutcome {
        let (mut a, mut b) = self.parties(b_policy);
        let s = &self.session;
        negotiate_in(arena, &s.input, &s.default, &mut a, &mut b, config)
    }

    /// `(total %, [A %, B %])`: the distance reduction of a combined
    /// assignment against the default, in total and on each ISP's side.
    pub fn gains(&self, combined: &Assignment) -> (f64, [f64; 2]) {
        let (fwd, rev) = self.session.split(combined);
        self.gains_split(&fwd, &rev)
    }

    /// [`DistancePairRun::gains`] of per-direction assignments.
    pub fn gains_split(&self, fwd: &Assignment, rev: &Assignment) -> (f64, [f64; 2]) {
        let (f, r) = (&self.fwd.flows, &self.rev.flows);
        let (d_fwd, d_rev) = (&self.fwd.default, &self.rev.default);
        let total = |a, b| total_distance_km(f, a) + total_distance_km(r, b);
        // A is upstream of the forward flows and downstream of the
        // reverse ones; B the other way round.
        let side = |s: Side, a, b| {
            side_distance_km(f, a, s == Side::A) + side_distance_km(r, b, s == Side::B)
        };
        (
            percent_gain(total(d_fwd, d_rev), total(fwd, rev)),
            [Side::A, Side::B].map(|s| percent_gain(side(s, d_fwd, d_rev), side(s, fwd, rev))),
        )
    }
}

/// Run the full distance experiment: one win-win session per pair.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> Rows<DistanceRow> {
    sweep_pairs(universe, cfg, Pairs::Distance, None, |arena, _, idx| {
        run_pair(&build_pair_run(universe, idx), arena)
    })
}

/// Evaluate one pair (negotiated, optimal and late-exit baselines).
fn run_pair(run: &DistancePairRun<'_>, arena: &mut TableArena) -> (DistanceRow, WinWinGate) {
    let outcome = run.negotiate(arena, &NexitConfig::win_win(), DisclosurePolicy::Truthful);
    let (neg_fwd, neg_rev) = run.session.split(&outcome.assignment);

    // Optimal routing (per-flow total-distance argmin in each
    // direction).
    let opt_fwd = optimal_distance(&run.fwd.flows);
    let opt_rev = optimal_distance(&run.rev.flows);

    // Late-exit baseline (Fig. 1b): every flow enters at the
    // interconnection closest to its destination.
    let late = |data: &PairData<'_>| {
        let view = data.view();
        let choices = data.flows.flows.iter();
        Assignment::from_choices(
            choices
                .map(|f| late_exit(&view, &data.sp_down, f.dst))
                .collect(),
        )
    };

    // Flow-level gains (Fig. 6) and the 90%-of-gain fraction.
    let mut flow_negotiated = Vec::new();
    let mut flow_optimal = Vec::new();
    let mut per_flow_saving: Vec<f64> = Vec::new();
    for (data, neg, opt) in [
        (&run.fwd, &neg_fwd, &opt_fwd),
        (&run.rev, &neg_rev, &opt_rev),
    ] {
        for (id, _, m) in data.flows.iter() {
            let d = m.total_km(data.default.choice(id));
            flow_negotiated.push(percent_gain(d, m.total_km(neg.choice(id))));
            flow_optimal.push(percent_gain(d, m.total_km(opt.choice(id))));
            per_flow_saving.push(d - m.total_km(neg.choice(id)));
        }
    }

    let row = DistanceRow {
        negotiated: run.gains_split(&neg_fwd, &neg_rev),
        optimal: run.gains_split(&opt_fwd, &opt_rev),
        late_exit: run.gains_split(&late(&run.fwd), &late(&run.rev)).0,
        flow_negotiated,
        flow_optimal,
        fraction_for_90pct: fraction_for_gain_share(&per_flow_saving, 0.9),
        accepted_moves: outcome.flows_negotiated(),
        rolled_back: outcome.flows_rolled_back(),
    };
    (row, WinWinGate::of(&outcome))
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
pub fn report(results: &Rows<DistanceRow>) {
    let rows = &results.rows;
    println!("== Figure 4a: total distance gain over default (% reduction) ==");
    println!(
        "   rolled back: {} of {} accepted moves",
        rows.iter().map(|r| r.rolled_back).sum::<usize>(),
        rows.iter().map(|r| r.accepted_moves).sum::<usize>()
    );
    results.gate.print("");
    let cdf = |f: fn(&DistanceRow) -> f64| rows.iter().map(f).collect::<Cdf>();
    cdf(|r| r.negotiated.0).print("negotiated");
    cdf(|r| r.optimal.0).print("optimal");
    cdf(|r| r.late_exit).print("late-exit (MEDs, Fig. 1b)");
    println!();
    println!("== Figure 4b: individual ISP distance gain (% reduction) ==");
    let sides = |f: fn(&DistanceRow) -> [f64; 2]| rows.iter().flat_map(f).collect::<Cdf>();
    sides(|r| r.negotiated.1).print("negotiated");
    sides(|r| r.optimal.1).print("optimal");
    println!();
    println!("== Figure 6: flow-level gain (% reduction, all flows, all pairs) ==");
    let flows = |f: fn(&DistanceRow) -> &[f64]| rows.iter().flat_map(f).copied().collect::<Cdf>();
    flows(|r| &r.flow_negotiated).print("negotiated");
    flows(|r| &r.flow_optimal).print("optimal");
    println!();
    println!(
        "== §5.1 claim: median fraction of flows for 90% of gain = {:.1}% ==",
        100.0 * cdf(|r| r.fraction_for_90pct).median()
    );
}
