//! `failure_sweep`: how fast the fractional optimum can be swept.
//!
//! One op is one `BandwidthLp::solve_failure_scaled(failed, scale)`:
//! every pair of a 40-ISP universe with three or more interconnections,
//! every failure scenario within the experiments' LP size cap
//! (`lp_session(6000)`), every step of the §5.2 growth ladder. `lp` (with
//! `baselines::BandwidthLp`) does everything, `core` and `proto` nothing.
//! Each scenario's first solve (today's load) is cold and the four
//! further ladder steps are warm rhs re-entries, so cold and warm drive
//! the same LU and pricing code differently: warm solves make the median,
//! cold ones the tail, and the few largest programs most of the pass.
//!
//! Universe, traffic (the paper's gravity model) and ladder are pinned;
//! the seed drives the order the scenarios are swept in. A seeded traffic
//! matrix makes some seeds' largest programs degenerate and several times
//! slower to solve cold than others', and a seeded ladder decides whether
//! a warm re-entry of one of the largest programs falls back cold, which
//! alone moves `ops_per_s` by 17 %: the run would measure the draw.

use super::{add_lp_counts, lp_count_metrics, median_or_zero, shuffle, Ctx, Values, TOPOLOGY_SEED};
use crate::harness::Pass;
use crate::trace::{self, Span};
use nexit_lp::WarmStats;
use nexit_sim::experiments::bandwidth::PairFailureSweep;
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, TopologyGenerator};
use nexit_workload::CapacityModel;

/// Today's load and the §5.2 growth steps.
const LADDER: [f64; 5] = [1.0, 1.05, 1.1, 1.2, 1.4];

/// Warm solves between two cold re-solves on the check pass.
const VERIFY_EVERY: usize = 50;

/// Which re-entry the solve between two stats snapshots took.
fn solve_class(before: WarmStats, after: WarmStats) -> &'static str {
    if after.warm_fallbacks > before.warm_fallbacks {
        "warm_fallback"
    } else if after.warm_solves > before.warm_solves {
        "warm"
    } else {
        "cold"
    }
}

/// One pass: build every sweep and LP session in set-up, then solve.
pub fn pass(ctx: &Ctx, p: &mut Pass<'_>) -> Values {
    let exp = ExpConfig::default();
    let universe = p.setup("topology.generate", |_| {
        TopologyGenerator::new(GeneratorConfig {
            num_isps: if ctx.mini { 12 } else { 40 },
            num_mesh_isps: if ctx.mini { 0 } else { 2 },
            seed: TOPOLOGY_SEED,
            ..GeneratorConfig::default()
        })
        .generate()
    });
    let sweeps: Vec<PairFailureSweep<'_>> = p.setup("sim.failure_sweep_build", |_| {
        let mut eligible = universe.eligible_pairs(3, false);
        if ctx.mini {
            eligible.truncate(3);
        }
        eligible
            .into_iter()
            .map(|idx| PairFailureSweep::build(&universe, idx, &exp, &CapacityModel::default()))
            .collect()
    });
    let lp_sessions = |tr: &crate::trace::Tracer| -> Vec<_> {
        sweeps
            .iter()
            .map(|sweep| {
                tr.span("baselines.lp_session_build", || {
                    sweep.lp_session(exp.max_lp_variables)
                })
            })
            .collect()
    };
    let mut sessions = p.setup("baselines.lp_sessions", lp_sessions);
    // The check pass re-solves cold in sessions of its own, so the
    // checked sessions' bases stay what the timed passes' are.
    let mut cold_sessions = if p.verify {
        lp_sessions(p.tr)
    } else {
        Vec::new()
    };

    let mut counts = Values::new();
    // `(sweep, scenario)` of every program within the size cap.
    let mut programs = Vec::new();
    for (s, sweep) in sweeps.iter().enumerate() {
        for scenario in &sweep.scenarios {
            if sessions[s].has_scenario(scenario.failed) {
                programs.push((s, scenario));
            } else {
                *counts.entry("lp_size_skipped").or_default() += 1.0;
            }
        }
    }
    shuffle(&mut programs, ctx.seed);

    let mut warm_seen = 0usize;
    for (s, scenario) in programs {
        let session = &mut sessions[s];
        for (step, scale) in LADDER.into_iter().enumerate() {
            let mut solved = None;
            p.op(|tr, digest| {
                let open = tr.begin("lp.solve");
                let before = tr.enabled().then(|| session.warm_stats());
                let result = session.solve_failure_scaled(scenario.failed, scale);
                let class = before.map_or("", |b| solve_class(b, session.warm_stats()));
                tr.end(open, class, 0);
                let optimum = result
                    .map_err(|e| format!("pair {s} failed {:?} x{scale}: {e}", scenario.failed))?;
                digest.int(s as i64);
                digest.real(optimum.t);
                solved = Some(optimum.t);
                Ok(())
            });
            if step > 0 {
                warm_seen += 1;
            }
            if p.verify && step > 0 && warm_seen.is_multiple_of(VERIFY_EVERY) {
                let cold = &mut cold_sessions[s];
                cold.invalidate_warm();
                match (solved, cold.solve_failure_scaled(scenario.failed, scale)) {
                    (Some(warm), Ok(cold)) if (warm - cold.t).abs() <= 1e-6 => {}
                    (Some(warm), Ok(cold)) => p.fail_last(format!(
                        "warm optimum {warm} differs from cold {} beyond 1e-6",
                        cold.t
                    )),
                    (None, _) => {} // already counted as a failed op
                    (_, Err(e)) => p.fail_last(format!("cold re-solve failed: {e}")),
                }
            }
        }
    }
    for session in &sessions {
        add_lp_counts(session.warm_stats(), &mut counts);
    }
    counts
}

/// Layer metrics of a traced pass.
pub fn layer_metrics(spans: &[Span], counts: &Values, out: &mut Values) {
    let t = |name| trace::totals(spans, name);
    out.insert(
        "topology.generate_ms",
        t("topology.generate").self_ms_per_call(),
    );
    out.insert(
        "baselines.lp_session_build_ms",
        t("baselines.lp_session_build").self_ms_per_call(),
    );
    let p50 =
        |class: &str| median_or_zero(&trace::durations_ms(spans, "lp.solve", |tag| tag == class));
    let (cold, warm) = (p50("cold"), p50("warm"));
    out.insert("lp.cold_solve_ms_p50", cold);
    out.insert("lp.warm_rhs_solve_ms_p50", warm);
    out.insert("lp.warm_over_cold", trace::ratio(warm, cold));
    out.insert(
        "lp.size_skipped",
        counts.get("lp_size_skipped").copied().unwrap_or(0.0),
    );
    lp_count_metrics(counts, out);
}
