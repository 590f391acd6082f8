//! §5.2 bandwidth/overload experiments: Figures 7 and 8.
//!
//! For every eligible pair (three or more interconnections) we simulate
//! each interconnection failure in turn: capacities are assigned from the
//! pre-failure loads (gravity workload, early-exit routing), the flows
//! whose default interconnection died are re-routed by each method, and
//! the MEL (maximum excess load) of each ISP is compared against the
//! fractional global optimum.

use crate::pairdata::{ExpConfig, PairData};
use crate::parallel::par_map_with;
use nexit_baselines::{
    optimal_bandwidth, unilateral_upstream, BandwidthLp, BandwidthOptimum, OptimalBandwidthError,
};
use nexit_core::{
    negotiate_in, BandwidthMapper, NegotiationOutcome, NexitConfig, Party, Side, TableArena,
};
use nexit_lp::WarmStats;
use nexit_routing::{Assignment, FlowId};
use nexit_topology::{IcxId, Universe};
use nexit_workload::{assign_capacities, link_loads, CapacityModel, LinkLoads};

/// One simulated failure, fully prepared: reduced pair data, impacted
/// flows, capacities, post-failure default and its MELs.
pub struct FailureScenario<'u> {
    /// The interconnection that failed (id in the *full* pair).
    pub failed: IcxId,
    /// Pair data on the reduced (post-failure) pair.
    pub data: PairData<'u>,
    /// Flows whose pre-failure default was the failed interconnection.
    pub impacted: Vec<FlowId>,
    /// Upstream link capacities (from pre-failure loads).
    pub caps_up: Vec<f64>,
    /// Downstream link capacities.
    pub caps_down: Vec<f64>,
    /// Post-failure early-exit default MELs `(up, down)`.
    pub default_mels: (f64, f64),
}

/// Why one scenario's optimum LP was not evaluated.
#[derive(Debug, Clone)]
pub enum LpSkip {
    /// The LP exceeded the `max_lp_variables` budget.
    Size,
    /// The solver failed (iteration cap or numerical trouble).
    Solver(OptimalBandwidthError),
}

/// One pair's complete failure sweep: the pre-failure pair data and
/// capacities shared by every scenario, plus the prepared scenarios.
/// [`PairFailureSweep::lp_session`] derives the incremental
/// [`BandwidthLp`] that solves all the scenarios' optima warm.
pub struct PairFailureSweep<'u> {
    /// Pre-failure pair data (the full interconnection set).
    pub full: PairData<'u>,
    /// Upstream capacities assigned from the pre-failure loads.
    pub caps_up: Vec<f64>,
    /// Downstream capacities.
    pub caps_down: Vec<f64>,
    /// Pre-failure loads (every flow on its early-exit default).
    pub pre_loads: LinkLoads,
    /// How many leading interconnections the sweep fails.
    pub candidate_failures: usize,
    /// The prepared scenarios (skipping empty and non-negotiable ones).
    pub scenarios: Vec<FailureScenario<'u>>,
}

impl<'u> PairFailureSweep<'u> {
    /// Prepare one pair's failure sweep (up to
    /// `cfg.max_failures_per_pair` scenarios).
    pub fn build(
        universe: &'u Universe,
        pair_idx: usize,
        cfg: &ExpConfig,
        capacity_model: &CapacityModel,
    ) -> Self {
        let pair = &universe.pairs[pair_idx];
        let a = &universe.isps[pair.isp_a.index()];
        let b = &universe.isps[pair.isp_b.index()];
        let full = PairData::build(a, b, pair.clone(), cfg.workload);

        // Pre-failure loads capacitate the links.
        let pre_loads = link_loads(&full.view(), &full.paths, &full.flows, &full.default);
        let caps_up = assign_capacities(capacity_model, &pre_loads.up);
        let caps_down = assign_capacities(capacity_model, &pre_loads.down);

        let mut scenarios = Vec::new();
        let failures = pair.num_interconnections().min(cfg.max_failures_per_pair);
        for failed in 0..failures {
            let failed_icx = IcxId::new(failed);
            let (reduced, _mapping) = full.pair.without_interconnection(failed_icx);
            if reduced.num_interconnections() < 2 {
                continue; // no choice left to negotiate over
            }
            // A failure removes an interconnection, not internal links:
            // the reduced pair reuses the full pair's shortest-path
            // matrices.
            let data = full.build_reduced(reduced, cfg.workload);
            // Impacted flows: pre-failure default used the failed
            // interconnection.
            let impacted: Vec<FlowId> = full
                .default
                .iter()
                .filter(|(_, choice)| *choice == failed_icx)
                .map(|(id, _)| id)
                .collect();
            if impacted.is_empty() {
                continue; // failure did not carry traffic
            }
            let loads = link_loads(&data.view(), &data.paths, &data.flows, &data.default);
            let default_mels = nexit_metrics::side_mels(&loads, &caps_up, &caps_down);
            scenarios.push(FailureScenario {
                failed: failed_icx,
                data,
                impacted,
                caps_up: caps_up.clone(),
                caps_down: caps_down.clone(),
                default_mels,
            });
        }
        Self {
            full,
            caps_up,
            caps_down,
            pre_loads,
            candidate_failures: failures,
            scenarios,
        }
    }

    /// The incremental LP session over this sweep's scenarios: each
    /// scenario's constraint skeleton is built once (identical to the
    /// standalone [`optimal_bandwidth`] program, so first solves are
    /// bit-identical to the cold path) and re-solves warm-start from the
    /// retained basis. Scenarios whose LP exceeds `max_lp_variables` are
    /// left unregistered; [`FailureScenario::optimum_in`] reports those
    /// as [`LpSkip::Size`].
    pub fn lp_session(&self, max_lp_variables: usize) -> BandwidthLp<'_> {
        let mut session = BandwidthLp::new();
        for scenario in &self.scenarios {
            let vars = scenario.impacted.len() * scenario.data.pair.num_interconnections() + 1;
            if vars > max_lp_variables {
                continue;
            }
            let view = scenario.data.view();
            session.add_scenario(
                scenario.failed,
                &view,
                &scenario.data.paths,
                &scenario.data.flows,
                &scenario.impacted,
                &scenario.data.default,
                &scenario.caps_up,
                &scenario.caps_down,
            );
        }
        session
    }
}

/// Build every failure scenario for one pair (up to
/// `cfg.max_failures_per_pair`). Convenience wrapper around
/// [`PairFailureSweep::build`] for callers that do not need the shared
/// pre-failure state.
pub fn failure_scenarios<'u>(
    universe: &'u Universe,
    pair_idx: usize,
    cfg: &ExpConfig,
    capacity_model: &CapacityModel,
) -> Vec<FailureScenario<'u>> {
    PairFailureSweep::build(universe, pair_idx, cfg, capacity_model).scenarios
}

impl FailureScenario<'_> {
    /// This scenario's optimum through a sweep's LP session: warm when
    /// registered, [`LpSkip::Size`] when the session's size gate left it
    /// out.
    pub fn optimum_in(&self, session: &mut BandwidthLp<'_>) -> Result<BandwidthOptimum, LpSkip> {
        if !session.has_scenario(self.failed) {
            return Err(LpSkip::Size);
        }
        session.solve_failure(self.failed).map_err(LpSkip::Solver)
    }

    /// Session input over the impacted flows with post-failure early-exit
    /// defaults.
    pub fn session_input(&self) -> nexit_core::SessionInput {
        nexit_core::SessionInput {
            flow_ids: self.impacted.clone(),
            defaults: self
                .impacted
                .iter()
                .map(|&f| self.data.default.choice(f))
                .collect(),
            volumes: self
                .impacted
                .iter()
                .map(|&f| self.data.flows.flows[f.index()].volume)
                .collect(),
            num_alternatives: self.data.pair.num_interconnections(),
        }
    }

    /// MELs `(up, down)` of an assignment over the reduced pair.
    pub fn mels(&self, assignment: &Assignment) -> (f64, f64) {
        self.mels_with_caps(assignment, &self.caps_up, &self.caps_down)
    }

    /// [`FailureScenario::mels`] against explicit capacity vectors — the
    /// capacity-model grid evaluates one scenario under several models
    /// without rebuilding it.
    pub fn mels_with_caps(
        &self,
        assignment: &Assignment,
        caps_up: &[f64],
        caps_down: &[f64],
    ) -> (f64, f64) {
        let loads = link_loads(
            &self.data.view(),
            &self.data.paths,
            &self.data.flows,
            assignment,
        );
        nexit_metrics::side_mels(&loads, caps_up, caps_down)
    }

    /// Negotiated routing with both ISPs on the bandwidth objective.
    /// Session buffers are drawn from (and retired to) `arena`, so a
    /// sweep threading one arena through its scenarios allocates the
    /// backing tables once.
    pub fn negotiate_bandwidth_in(&self, arena: &mut TableArena) -> Assignment {
        self.negotiate_bandwidth_with(arena, &self.caps_up, &self.caps_down)
            .assignment
    }

    /// [`FailureScenario::negotiate_bandwidth_in`] against explicit
    /// capacity vectors (the capacity-model grid's per-cell capacities),
    /// returning the whole outcome.
    pub fn negotiate_bandwidth_with(
        &self,
        arena: &mut TableArena,
        caps_up: &[f64],
        caps_down: &[f64],
    ) -> NegotiationOutcome {
        let input = self.session_input();
        let mut party_a = Party::honest(
            "up",
            BandwidthMapper::new(Side::A, &self.data.flows, &self.data.paths, caps_up),
        );
        let mut party_b = Party::honest(
            "down",
            BandwidthMapper::new(Side::B, &self.data.flows, &self.data.paths, caps_down),
        );
        negotiate_in(
            arena,
            &input,
            &self.data.default,
            &mut party_a,
            &mut party_b,
            &NexitConfig::win_win_bandwidth(),
        )
    }

    /// [`FailureScenario::negotiate_bandwidth_in`] with a throwaway
    /// arena.
    pub fn negotiate_bandwidth(&self) -> Assignment {
        self.negotiate_bandwidth_in(&mut TableArena::new())
    }

    /// The fractional optimum from a standalone cold-start build of this
    /// scenario's LP, gated on the per-scenario variable budget. The
    /// sweeps prefer the warm [`BandwidthLp`] session (see
    /// [`PairFailureSweep::optimum`]) and use this as the fallback when
    /// the session skeleton is over budget.
    pub fn optimum(&self, max_lp_variables: usize) -> Result<BandwidthOptimum, LpSkip> {
        let vars = self.impacted.len() * self.data.pair.num_interconnections() + 1;
        if vars > max_lp_variables {
            return Err(LpSkip::Size);
        }
        optimal_bandwidth(
            &self.data.view(),
            &self.data.paths,
            &self.data.flows,
            &self.impacted,
            &self.data.default,
            &self.caps_up,
            &self.caps_down,
        )
        .map_err(LpSkip::Solver)
    }
}

/// Results across all failure scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BandwidthResults {
    /// Fig. 7 upstream: default MEL / optimal MEL.
    pub up_default: Vec<f64>,
    /// Fig. 7 upstream: negotiated MEL / optimal MEL.
    pub up_negotiated: Vec<f64>,
    /// Fig. 7 downstream: default MEL / optimal MEL.
    pub down_default: Vec<f64>,
    /// Fig. 7 downstream: negotiated MEL / optimal MEL.
    pub down_negotiated: Vec<f64>,
    /// Fig. 8: downstream MEL under unilateral upstream optimization,
    /// relative to the default routing's downstream MEL.
    pub fig8_down_ratio: Vec<f64>,
    /// Scenarios skipped because their LP exceeded the
    /// `max_lp_variables` budget.
    pub skipped_lp_size: usize,
    /// Scenarios skipped because the LP solver failed (iteration cap or
    /// numerical trouble) — distinct from size skips since PR 4.
    pub failed_lp: usize,
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Accepted moves across the evaluated scenarios' sessions.
    pub accepted_moves: usize,
    /// Of those, moves the win-win close rolled back.
    pub rolled_back: usize,
    /// Evaluated sessions that left either side's cumulative gain
    /// negative. The win-win close guarantees zero.
    pub negative_sessions: usize,
    /// How the pair-scoped LP sessions resolved their solves
    /// (cold / warm rhs re-entry / coefficient refresh, plus fallbacks)
    /// — the sweep-level record of how often the warm path held.
    pub lp_stats: WarmStats,
}

/// Run Figures 7 and 8. Pairs are swept on `cfg.threads` workers (each
/// threading one [`TableArena`] through its pairs); per-pair partial
/// results are merged in pair order, so the output is independent of
/// the thread count.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> BandwidthResults {
    let mut eligible = universe.eligible_pairs(3, false);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let capacity_model = CapacityModel::default();
    let per_pair = par_map_with(cfg.threads, eligible.len(), TableArena::new, |arena, i| {
        let mut out = BandwidthResults::default();
        run_pair_into(universe, eligible[i], cfg, &capacity_model, arena, &mut out);
        out
    });

    let mut out = BandwidthResults::default();
    for p in per_pair {
        out.up_default.extend(p.up_default);
        out.up_negotiated.extend(p.up_negotiated);
        out.down_default.extend(p.down_default);
        out.down_negotiated.extend(p.down_negotiated);
        out.fig8_down_ratio.extend(p.fig8_down_ratio);
        out.skipped_lp_size += p.skipped_lp_size;
        out.failed_lp += p.failed_lp;
        out.scenarios += p.scenarios;
        out.accepted_moves += p.accepted_moves;
        out.rolled_back += p.rolled_back;
        out.negative_sessions += p.negative_sessions;
        out.lp_stats.absorb(p.lp_stats);
    }
    out
}

/// Evaluate every failure scenario of one pair into `out`. The LP
/// session is scoped to the pair (warm-start state never crosses pair
/// boundaries, keeping results independent of work scheduling); the
/// negotiation arena is worker-scoped (buffer reuse is value-neutral).
fn run_pair_into(
    universe: &Universe,
    pair_idx: usize,
    cfg: &ExpConfig,
    capacity_model: &CapacityModel,
    arena: &mut TableArena,
    out: &mut BandwidthResults,
) {
    let sweep = PairFailureSweep::build(universe, pair_idx, cfg, capacity_model);
    let mut session = sweep.lp_session(cfg.max_lp_variables);
    for scenario in &sweep.scenarios {
        let opt = match scenario.optimum_in(&mut session) {
            Ok(opt) => opt,
            Err(LpSkip::Size) => {
                out.skipped_lp_size += 1;
                continue;
            }
            Err(LpSkip::Solver(_)) => {
                out.failed_lp += 1;
                continue;
            }
        };
        let opt_up = opt.side_mel(&scenario.caps_up, true);
        let opt_down = opt.side_mel(&scenario.caps_down, false);
        if opt_up < 1e-9 || opt_down < 1e-9 {
            continue; // degenerate scenario with an idle side
        }
        out.scenarios += 1;

        let (def_up, def_down) = scenario.default_mels;
        out.up_default.push(def_up / opt_up);
        out.down_default.push(def_down / opt_down);

        let outcome =
            scenario.negotiate_bandwidth_with(arena, &scenario.caps_up, &scenario.caps_down);
        out.accepted_moves += outcome.flows_negotiated();
        out.rolled_back += outcome.flows_rolled_back();
        out.negative_sessions += usize::from(outcome.gain_a < 0 || outcome.gain_b < 0);
        let (neg_up, neg_down) = scenario.mels(&outcome.assignment);
        out.up_negotiated.push(neg_up / opt_up);
        out.down_negotiated.push(neg_down / opt_down);

        // Fig. 8: unilateral upstream optimization.
        let uni = unilateral_upstream(
            &scenario.data.view(),
            &scenario.data.paths,
            &scenario.data.flows,
            &scenario.impacted,
            &scenario.data.default,
            &scenario.caps_up,
        );
        let (_, uni_down) = scenario.mels(&uni);
        if def_down > 1e-9 {
            out.fig8_down_ratio.push(uni_down / def_down);
        }
    }
    out.lp_stats.absorb(session.warm_stats());
}

/// Results of the background-growth sweep: per growth factor, the
/// distribution of `t(factor) / t(1.0)` across failure scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GrowthResults {
    /// The growth factors evaluated (background residual load scale).
    pub factors: Vec<f64>,
    /// `degradation[i]` — one sample per scenario of how much factor
    /// `factors[i]` inflates the optimal post-failure MEL.
    pub degradation: Vec<Vec<f64>>,
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// Scaled re-solves that failed (iteration cap / numerical trouble);
    /// their samples are missing from `degradation`.
    pub failed_resolves: usize,
    /// How the ladder's LP sessions resolved their solves — at paper
    /// scale almost everything after each scenario's first solve should
    /// land in `warm_solves`.
    pub lp_stats: WarmStats,
}

/// What-if sweep over background traffic growth: for every failure
/// scenario, re-solve the fractional optimum with the non-negotiated
/// residual load scaled by each factor. Each scenario's skeleton is
/// built once and every re-solve after the first is an rhs-only patch,
/// so the whole ladder runs on warm simplex starts — this sweep is the
/// experiment-level consumer of [`BandwidthLp::solve_failure_scaled`].
pub fn run_growth(universe: &Universe, cfg: &ExpConfig, factors: &[f64]) -> GrowthResults {
    let mut eligible = universe.eligible_pairs(3, false);
    if let Some(cap) = cfg.max_pairs {
        eligible.truncate(cap);
    }
    let capacity_model = CapacityModel::default();
    let per_pair = par_map_with(
        cfg.threads,
        eligible.len(),
        || (),
        |(), i| {
            let mut out = GrowthResults {
                factors: factors.to_vec(),
                degradation: vec![Vec::new(); factors.len()],
                ..GrowthResults::default()
            };
            let sweep = PairFailureSweep::build(universe, eligible[i], cfg, &capacity_model);
            let mut session = sweep.lp_session(cfg.max_lp_variables);
            for scenario in &sweep.scenarios {
                let Ok(base) = scenario.optimum_in(&mut session) else {
                    continue;
                };
                if base.t < 1e-9 {
                    continue;
                }
                out.scenarios += 1;
                for (fi, &factor) in factors.iter().enumerate() {
                    match session.solve_failure_scaled(scenario.failed, factor) {
                        Ok(scaled) => out.degradation[fi].push(scaled.t / base.t),
                        Err(_) => out.failed_resolves += 1,
                    }
                }
            }
            out.lp_stats.absorb(session.warm_stats());
            out
        },
    );
    let mut out = GrowthResults {
        factors: factors.to_vec(),
        degradation: vec![Vec::new(); factors.len()],
        ..GrowthResults::default()
    };
    for p in per_pair {
        for (fi, samples) in p.degradation.into_iter().enumerate() {
            out.degradation[fi].extend(samples);
        }
        out.scenarios += p.scenarios;
        out.failed_resolves += p.failed_resolves;
        out.lp_stats.absorb(p.lp_stats);
    }
    out
}

/// Print one sweep's LP warm/cold counters — how often the warm
/// path actually held across the sweep's re-solves — plus the engine's
/// factorization/pricing telemetry, so a slow-looking sweep is
/// diagnosable from its output (basis churn vs fill-in vs anti-cycling
/// stalls).
pub fn print_lp_stats(stats: &WarmStats) {
    println!(
        "   LP solves: {} cold ({} starts refused), {} warm (rhs re-entry, {} fell back)",
        stats.cold_solves, stats.start_refusals, stats.warm_solves, stats.warm_fallbacks
    );
    println!(
        "   LP engine: {} refactorizations, {} eta pivots \
         (longest chain {}), peak LU fill {} nnz, {} Bland fallbacks",
        stats.refactorizations,
        stats.eta_pivots,
        stats.max_eta_chain,
        stats.lu_fill_nnz,
        stats.pricing_fallbacks
    );
}

/// Print the growth-sweep report.
pub fn report_growth(results: &GrowthResults) {
    use crate::cdf::Cdf;
    println!(
        "== Background growth: optimal MEL degradation ({} scenarios, {} failed re-solves) ==",
        results.scenarios, results.failed_resolves
    );
    println!("   negotiation: none (the LP optimum only, so no win-win gate)");
    print_lp_stats(&results.lp_stats);
    for (factor, samples) in results.factors.iter().zip(&results.degradation) {
        Cdf::new(samples.clone()).print(&format!("x{factor:.2} background"));
    }
}

/// Print the bandwidth experiment report.
pub fn report(results: &BandwidthResults) {
    use crate::cdf::Cdf;
    println!(
        "== Figure 7: MEL relative to optimal ({} failure scenarios, {} size-skipped, {} solver-failed) ==",
        results.scenarios, results.skipped_lp_size, results.failed_lp
    );
    print_lp_stats(&results.lp_stats);
    println!(
        "   rolled back: {} of {} accepted moves",
        results.rolled_back, results.accepted_moves
    );
    println!(
        "   negative final gain: {} of {} sessions",
        results.negative_sessions, results.scenarios
    );
    println!("-- upstream ISP --");
    Cdf::new(results.up_negotiated.clone()).print("negotiated");
    Cdf::new(results.up_default.clone()).print("default");
    println!("-- downstream ISP --");
    Cdf::new(results.down_negotiated.clone()).print("negotiated");
    Cdf::new(results.down_default.clone()).print("default");
    println!();
    println!("== Figure 8: downstream MEL, unilateral-upstream / default ==");
    Cdf::new(results.fig8_down_ratio.clone()).print("upstream-optimized");
}
