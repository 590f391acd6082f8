//! §5.2 bandwidth/overload experiments: Figures 7 and 8.
//!
//! For every eligible pair (three or more interconnections) we simulate
//! each interconnection failure in turn: capacities are assigned from the
//! pre-failure loads (gravity workload, early-exit routing), the flows
//! whose default interconnection died are re-routed by each method, and
//! the MEL (maximum excess load) of each ISP is compared against the
//! fractional global optimum.

use crate::cdf::Cdf;
use crate::experiments::sweep::{sweep_failures, FailureRows, WinWinGate};
use crate::pairdata::{ExpConfig, PairData};
use nexit_baselines::{unilateral_upstream, BandwidthLp, BandwidthOptimum, OptimalBandwidthError};
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
    /// standalone [`nexit_baselines::optimal_bandwidth()`] program, so first solves are
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
        let loads = link_loads(
            &self.data.view(),
            &self.data.paths,
            &self.data.flows,
            assignment,
        );
        nexit_metrics::side_mels(&loads, &self.caps_up, &self.caps_down)
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
}

/// One failure scenario of Figures 7 and 8. MELs are relative to the
/// fractional optimum's.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthRow {
    /// Fig. 7 upstream: default MEL / optimal MEL.
    pub up_default: f64,
    /// Fig. 7 upstream: negotiated MEL / optimal MEL.
    pub up_negotiated: f64,
    /// Fig. 7 downstream: default MEL / optimal MEL.
    pub down_default: f64,
    /// Fig. 7 downstream: negotiated MEL / optimal MEL.
    pub down_negotiated: f64,
    /// Fig. 8: downstream MEL under unilateral upstream optimization,
    /// relative to the default routing's (when that is not idle).
    pub fig8_down_ratio: Option<f64>,
    /// Accepted moves of the scenario's session.
    pub accepted_moves: usize,
    /// Of those, moves the win-win close rolled back.
    pub rolled_back: usize,
}

/// Run Figures 7 and 8 over every failure scenario whose optimum has
/// no idle side.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> FailureRows<BandwidthRow> {
    sweep_failures(
        universe,
        cfg,
        None,
        &CapacityModel::default(),
        |scenario, opt, _, arena| {
            let opt_up = opt.side_mel(&scenario.caps_up, true);
            let opt_down = opt.side_mel(&scenario.caps_down, false);
            if opt_up < 1e-9 || opt_down < 1e-9 {
                return None; // degenerate scenario with an idle side
            }
            let outcome =
                scenario.negotiate_bandwidth_with(arena, &scenario.caps_up, &scenario.caps_down);
            let (def_up, def_down) = scenario.default_mels;
            let (neg_up, neg_down) = scenario.mels(&outcome.assignment);

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
            let row = BandwidthRow {
                up_default: def_up / opt_up,
                up_negotiated: neg_up / opt_up,
                down_default: def_down / opt_down,
                down_negotiated: neg_down / opt_down,
                fig8_down_ratio: (def_down > 1e-9).then(|| uni_down / def_down),
                accepted_moves: outcome.flows_negotiated(),
                rolled_back: outcome.flows_rolled_back(),
            };
            Some((row, WinWinGate::of(&outcome)))
        },
    )
}

/// What-if sweep over background traffic growth: for every failure
/// scenario, re-solve the fractional optimum with the non-negotiated
/// residual load scaled by each factor. Each row holds, per factor,
/// `t(factor) / t(1.0)`, or `None` when the scaled re-solve failed
/// (iteration cap / numerical trouble). Each scenario's skeleton is
/// built once and every re-solve after the first is an rhs-only patch,
/// so the whole ladder runs on warm simplex starts — this sweep is the
/// experiment-level consumer of [`BandwidthLp::solve_failure_scaled`].
/// Nothing is negotiated, so the gate stays empty.
pub fn run_growth(
    universe: &Universe,
    cfg: &ExpConfig,
    factors: &[f64],
) -> FailureRows<Vec<Option<f64>>> {
    sweep_failures(
        universe,
        cfg,
        None,
        &CapacityModel::default(),
        |scenario, base, session, _| {
            if base.t < 1e-9 {
                return None;
            }
            let scaled = factors.iter().map(|&factor| {
                let scaled = session.solve_failure_scaled(scenario.failed, factor);
                scaled.ok().map(|scaled| scaled.t / base.t)
            });
            Some((scaled.collect(), WinWinGate::default()))
        },
    )
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

/// Print the growth-sweep report for `factors`.
pub fn report_growth(results: &FailureRows<Vec<Option<f64>>>, factors: &[f64]) {
    let failed: usize = results
        .rows
        .iter()
        .flatten()
        .filter(|t| t.is_none())
        .count();
    println!(
        "== Background growth: optimal MEL degradation ({} scenarios, {failed} failed re-solves) ==",
        results.rows.len()
    );
    println!("   negotiation: none (the LP optimum only, so no win-win gate)");
    print_lp_stats(&results.lp_stats);
    for (fi, factor) in factors.iter().enumerate() {
        let samples = results.rows.iter().filter_map(|row| row[fi]);
        samples
            .collect::<Cdf>()
            .print(&format!("x{factor:.2} background"));
    }
}

/// Print the bandwidth experiment report.
pub fn report(results: &FailureRows<BandwidthRow>) {
    let rows = &results.rows;
    println!(
        "== Figure 7: MEL relative to optimal ({} failure scenarios, {} size-skipped, {} solver-failed) ==",
        rows.len(), results.skipped_lp_size, results.failed_lp
    );
    print_lp_stats(&results.lp_stats);
    println!(
        "   rolled back: {} of {} accepted moves",
        rows.iter().map(|r| r.rolled_back).sum::<usize>(),
        rows.iter().map(|r| r.accepted_moves).sum::<usize>()
    );
    results.gate.print("");
    let cdf = |f: fn(&BandwidthRow) -> f64| rows.iter().map(f).collect::<Cdf>();
    println!("-- upstream ISP --");
    cdf(|r| r.up_negotiated).print("negotiated");
    cdf(|r| r.up_default).print("default");
    println!("-- downstream ISP --");
    cdf(|r| r.down_negotiated).print("negotiated");
    cdf(|r| r.down_default).print("default");
    println!();
    println!("== Figure 8: downstream MEL, unilateral-upstream / default ==");
    let fig8 = rows
        .iter()
        .filter_map(|r| r.fig8_down_ratio)
        .collect::<Cdf>();
    fig8.print("upstream-optimized");
}
