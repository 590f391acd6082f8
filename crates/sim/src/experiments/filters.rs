//! Figure 5: the flow-Pareto and flow-both-better strategies.

use crate::cdf::Cdf;
use crate::experiments::distance::build_pair_run;
use crate::pairdata::ExpConfig;
use crate::parallel::par_map;
use crate::twoway::twoway_total_distance;
use nexit_baselines::flow_filters::{flow_both_better, flow_pareto, OppositeFlows};
use nexit_metrics::percent_gain;
use nexit_topology::Universe;

/// Results: per-pair total % gains for both strategies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterResults {
    /// flow-Pareto total distance gain per pair.
    pub pareto: Vec<f64>,
    /// flow-both-better total distance gain per pair.
    pub both_better: Vec<f64>,
}

/// Run Figure 5 over the distance-eligible pairs. Pairs are swept on
/// `cfg.threads` workers and merged in pair order; the filter seed is
/// derived from the pair's position, so the output is thread-count
/// independent.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> FilterResults {
    let mut eligible = universe.eligible_pairs(2, true);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let per_pair = par_map(cfg.threads, eligible.len(), |i| {
        let run = build_pair_run(universe, eligible[i]);
        let input = OppositeFlows {
            fwd: &run.fwd.flows,
            rev: &run.rev.flows,
            fwd_default: &run.fwd.default,
            rev_default: &run.rev.default,
            num_pops_a: run.fwd.a.num_pops(),
            num_pops_b: run.fwd.b.num_pops(),
        };
        let d_total = twoway_total_distance(
            &run.fwd.flows,
            &run.rev.flows,
            &run.fwd.default,
            &run.rev.default,
        );
        let seed = cfg.seed.wrapping_add(i as u64);
        let (pf, pr) = flow_pareto(&input, seed);
        let pareto = percent_gain(
            d_total,
            twoway_total_distance(&run.fwd.flows, &run.rev.flows, &pf, &pr),
        );
        let (bf, br) = flow_both_better(&input, seed);
        let both_better = percent_gain(
            d_total,
            twoway_total_distance(&run.fwd.flows, &run.rev.flows, &bf, &br),
        );
        (pareto, both_better)
    });
    let (pareto, both_better) = per_pair.into_iter().unzip();
    FilterResults {
        pareto,
        both_better,
    }
}

/// Print the Figure 5 report.
pub fn report(results: &FilterResults) {
    println!("== Figure 5: gain of flow-level filter strategies (% reduction) ==");
    Cdf::new(results.both_better.clone()).print("flow-both-better");
    Cdf::new(results.pareto.clone()).print("flow-Pareto");
}
