//! Figure 5: the flow-Pareto and flow-both-better strategies.

use crate::cdf::Cdf;
use crate::experiments::distance::build_pair_run;
use crate::experiments::sweep::{sweep_pairs, Pairs, Rows, WinWinGate};
use crate::pairdata::ExpConfig;
use nexit_baselines::flow_filters::{flow_both_better, flow_pareto, OppositeFlows};
use nexit_topology::Universe;

/// Run Figure 5 over the distance-eligible pairs: per pair, the total
/// distance gain `(flow-Pareto, flow-both-better)`. The filter seed is
/// derived from the pair's position, so the rows are thread-count
/// independent. Nothing is negotiated, so the gate stays empty.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> Rows<(f64, f64)> {
    sweep_pairs(universe, cfg, Pairs::Distance, None, |_, i, idx| {
        let run = build_pair_run(universe, idx);
        let input = OppositeFlows {
            fwd: &run.fwd.flows,
            rev: &run.rev.flows,
            fwd_default: &run.fwd.default,
            rev_default: &run.rev.default,
            num_pops_a: run.fwd.a.num_pops(),
            num_pops_b: run.fwd.b.num_pops(),
        };
        let seed = cfg.seed.wrapping_add(i as u64);
        let (pf, pr) = flow_pareto(&input, seed);
        let (bf, br) = flow_both_better(&input, seed);
        let gains = (run.gains_split(&pf, &pr).0, run.gains_split(&bf, &br).0);
        (gains, WinWinGate::default())
    })
}

/// Print the Figure 5 report.
pub fn report(results: &Rows<(f64, f64)>) {
    println!("== Figure 5: gain of flow-level filter strategies (% reduction) ==");
    let rows = &results.rows;
    rows.iter()
        .map(|r| r.1)
        .collect::<Cdf>()
        .print("flow-both-better");
    rows.iter()
        .map(|r| r.0)
        .collect::<Cdf>()
        .print("flow-Pareto");
}
