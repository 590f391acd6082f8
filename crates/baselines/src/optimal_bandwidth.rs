//! Globally optimal overload routing (fractional LP).
//!
//! The paper (§5.2): *"The globally optimal is computed by solving an
//! optimization problem that minimizes the maximum increase in link load.
//! For computational tractability, we allow flows to be fractionally
//! divided among interconnections; thus, the quality of this routing is an
//! upper bound on the global optimal without fractional routing."*
//!
//! Formulation, with `x[f][i]` the fraction of impacted flow `f` routed
//! via interconnection `i`:
//!
//! ```text
//! minimize t
//! s.t. Σ_i x[f][i] = 1                          for every impacted flow f
//!      residual(l) + Σ_f Σ_i vol_f · x[f][i] · [l ∈ path(f,i)]
//!                    <= t · capacity(l)          for every link l (both ISPs)
//!      x >= 0
//! ```
//!
//! `residual(l)` is the load from flows *not* on the negotiation table
//! (they stay on their default paths). The optimum `t` is the fractional
//! MEL across both ISPs treated as one system.
//!
//! # Incremental sessions and warm starts
//!
//! [`BandwidthLp`] is the per-pair session the failure sweeps use: it
//! builds each scenario's program **once** and re-solves it through a
//! retained [`nexit_lp::SimplexWorkspace`]. One patch shape re-enters
//! warm: scaled background traffic
//! ([`BandwidthLp::solve_failure_scaled`]) changes only the capacity
//! rows' residual rhs, which the workspace's dual-simplex re-entry
//! repairs in a handful of pivots. Anything else — other capacities,
//! volumes or flows — is a different program:
//! [`BandwidthLp::update_scenario`] rebuilds it and the next solve is
//! cold from the default routing's vertex (below), exactly the
//! standalone [`optimal_bandwidth`] solve of the same inputs.
//!
//! A note on scope, from measurement: *different* failure scenarios of a
//! pair do **not** share enough structure to warm-start across — their
//! impacted-flow sets are disjoint (a flow is impacted by exactly the
//! failure of its default interconnection) and often wildly imbalanced,
//! so a shared union-of-scenarios program is several times larger than
//! the per-scenario programs and loses far more to its size than basis
//! reuse recovers. The session therefore keeps one compact skeleton and
//! one workspace *per scenario* — the first solve of each is bit-identical
//! to the standalone [`optimal_bandwidth`], because both are the same
//! function (`solve_program`) on the same construction through a fresh
//! workspace — and warm starts pay off across each scenario's re-solves.
//! Likewise recorded, so it is not retried: a *generic* crash basis
//! (slack or triangular) was not needed to take phase 1 out of the cold
//! solves; the program's own structure supplies a better one, below.
//!
//! # Cold solves start from the default routing
//!
//! The routing the optimum is compared against — every impacted flow on
//! its default exit — is a feasible vertex of the program above: `x[f]`
//! is a unit vector per flow, `t` is that routing's worst
//! load-to-capacity ratio, and every link but the worst has slack. A
//! cold solve that starts from the all-artificial basis spends 96 % of
//! its pivots (measured over one failure sweep: 41 883 of 43 473)
//! finding *some* feasible vertex before it optimizes at all, so every
//! solve here names this one
//! ([`nexit_lp::SimplexWorkspace::solve_from`]) and the engine runs
//! phase 2 only. `build_program` collects it in the loop it already
//! makes over the flows' paths; `solve_program` picks the bottleneck row
//! under the rhs as currently patched.
//!
//! What that changes and what it cannot: the optimum `t` is unique and
//! is the same to solver tolerance whatever vertex the solve begins at.
//! [`BandwidthOptimum::fractions`] and [`BandwidthOptimum::loads`] are
//! *one optimal vertex among many* — most programs have a face of
//! optima, since only the bottleneck links constrain `t` — and a solve
//! that starts elsewhere generally ends on another of them. Anything
//! computed from one side's loads alone (`side_mel`, the per-side
//! denominators of Figures 7 and 11) moves with that choice; anything
//! computed from `t` does not.

use nexit_core::GainTable;
use nexit_lp::{ConstraintOp, LpOutcome, LpProblem, SimplexOptions, SimplexWorkspace, WarmStats};
use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::{IcxId, PairView};
use nexit_workload::{LinkLoads, PathTable};

/// Result of the fractional optimum.
#[derive(Debug, Clone)]
pub struct BandwidthOptimum {
    /// The optimal objective: the minimal achievable maximum
    /// load-to-capacity ratio across both ISPs.
    pub t: f64,
    /// `fractions.get(j, i)` = fraction of impacted flow `j` (in input
    /// order) routed via interconnection `i`. Flat `impacted × k` table
    /// (same layout as the negotiation core's gain tables).
    pub fractions: GainTable,
    /// Link loads under the fractional optimum (including residual).
    pub loads: LinkLoads,
}

impl BandwidthOptimum {
    /// MEL of one side under the optimum. `up_capacities` /
    /// `down_capacities` as used in the solve.
    pub fn side_mel(&self, capacities: &[f64], upstream: bool) -> f64 {
        let loads = if upstream {
            &self.loads.up
        } else {
            &self.loads.down
        };
        nexit_metrics::mel(loads, capacities)
    }
}

/// Failure modes of the optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptimalBandwidthError {
    /// The LP solver hit its iteration cap (pathological input).
    SolverLimit {
        /// Pivots the solver actually consumed before giving up.
        iterations: usize,
    },
    /// The LP was reported infeasible or unbounded — impossible for this
    /// formulation (`x = default split, t large` is always feasible), so
    /// it indicates a numerical failure worth surfacing.
    Numerical(&'static str),
}

impl std::fmt::Display for OptimalBandwidthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimalBandwidthError::SolverLimit { iterations } => {
                write!(f, "simplex iteration cap reached after {iterations} pivots")
            }
            OptimalBandwidthError::Numerical(what) => {
                write!(f, "LP reported {what} for a trivially feasible program")
            }
        }
    }
}

impl std::error::Error for OptimalBandwidthError {}

/// Shared solver options: the failure-sweep programs occasionally need
/// more pivots than the default cap.
fn solver_options() -> SimplexOptions {
    SimplexOptions {
        max_iterations: 500_000,
        ..SimplexOptions::default()
    }
}

/// The LP variable index of the objective `t` (max load-to-capacity
/// ratio); every capacity row carries `-capacity` in this column.
const T_VAR: usize = 0;

/// One scenario's built program: the patchable LP, its retained capacity
/// rows, and the residual loads for reconstructing the optimum's link
/// loads.
struct Program {
    problem: LpProblem,
    /// The default routing as a vertex of `problem`, in
    /// [`SimplexWorkspace::solve_from`]'s terms: flow row `j` holds
    /// `x[j][default exit]`. [`solve_program`] appends the pair that
    /// depends on the patch — the bottleneck capacity row holds `t`.
    start: Vec<(usize, usize)>,
    /// The retained capacity rows; see [`CapRow`].
    cap_rows: Vec<CapRow>,
    /// Residual loads (non-impacted flows on their defaults), unscaled.
    residual: LinkLoads,
}

/// One retained capacity row of a scenario's program: enough to re-point
/// the row at a scaled background load (rhs patch —
/// [`BandwidthLp::solve_failure_scaled`]) without rebuilding the program.
struct CapRow {
    /// Constraint row index in the problem.
    row: usize,
    /// Unscaled residual load on the link; re-solving at
    /// `residual_scale = s` sets the row's rhs to `-residual * s`.
    residual: f64,
    /// Load the impacted flows put on the link on their default exits.
    default_load: f64,
}

/// Build one scenario's program. Variable 0 is `t`; `x[j][i]` follows in
/// row-major order; flow-conservation rows come first, then one capacity
/// row per link carrying impacted or residual load.
fn build_program(
    view: &PairView<'_>,
    paths: &PathTable,
    flows: &PairFlows,
    impacted: &[FlowId],
    default_assignment: &Assignment,
    up_capacities: &[f64],
    down_capacities: &[f64],
) -> Program {
    let k = view.num_interconnections();
    let num_up = view.a.num_links();

    // Residual loads from non-impacted flows, and the impacted flows'
    // loads on their default exits.
    let mut is_impacted = vec![false; flows.len()];
    for &f in impacted {
        is_impacted[f.index()] = true;
    }
    let background = || {
        let flows = flows.iter().filter(|(f, ..)| !is_impacted[f.index()]);
        flows.map(|(f, flow, _)| (f, default_assignment.choice(f), flow.volume))
    };
    let mut residual = LinkLoads::zero(view);
    paths.add_loads(true, background(), &mut residual.up);
    paths.add_loads(false, background(), &mut residual.down);
    // Keyed like `per_link` below: upstream links, then downstream.
    let mut default_load = vec![0.0; num_up + view.b.num_links()];
    let (up, down) = default_load.split_at_mut(num_up);
    let on_default = || {
        let volumes = impacted.iter().map(|&f| (f, flows.flows[f.index()].volume));
        volumes.map(|(f, volume)| (f, default_assignment.choice(f), volume))
    };
    paths.add_loads(true, on_default(), up);
    paths.add_loads(false, on_default(), down);

    // Build the LP. Variable 0 is t; x[j][i] follows in row-major order.
    let mut lp = LpProblem::new();
    let t_var = lp.add_variable(1.0);
    debug_assert_eq!(t_var, T_VAR);
    let x_var = |j: usize, i: usize| 1 + j * k + i;
    for _ in 0..impacted.len() * k {
        lp.add_variable(0.0);
    }

    // Flow conservation.
    for j in 0..impacted.len() {
        let row: Vec<(usize, f64)> = (0..k).map(|i| (x_var(j, i), 1.0)).collect();
        lp.add_constraint(row, ConstraintOp::Eq, 1.0);
    }

    // Link capacity rows. Gather per-link coefficients sparsely.
    // link key: 0..num_up = upstream links, num_up.. = downstream links.
    let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_up + view.b.num_links()];
    let mut start = Vec::with_capacity(impacted.len() + 1);
    for (j, &fid) in impacted.iter().enumerate() {
        let vol = flows.flows[fid.index()].volume;
        start.push((j, x_var(j, default_assignment.choice(fid).index())));
        for i in 0..k {
            let icx = IcxId::new(i);
            for &l in paths.up_links(fid, icx) {
                per_link[l.index()].push((x_var(j, i), vol));
            }
            for &l in paths.down_links(fid, icx) {
                per_link[num_up + l.index()].push((x_var(j, i), vol));
            }
        }
    }
    let mut cap_rows = Vec::new();
    for (lkey, coeffs) in per_link.into_iter().enumerate() {
        let (res, cap) = if lkey < num_up {
            (residual.up[lkey], up_capacities[lkey])
        } else {
            (residual.down[lkey - num_up], down_capacities[lkey - num_up])
        };
        if coeffs.is_empty() && res == 0.0 {
            continue; // untouched link; no constraint needed
        }
        // Merge duplicate variables (a flow whose up-path uses a link
        // twice cannot happen on shortest paths, but different (j,i)
        // entries are already unique; volumes accumulate defensively).
        let mut merged: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for (var, c) in coeffs {
            *merged.entry(var).or_insert(0.0) += c;
        }
        let mut row: Vec<(usize, f64)> = merged.into_iter().collect();
        row.push((t_var, -cap));
        cap_rows.push(CapRow {
            row: lp.num_constraints(),
            residual: res,
            default_load: default_load[lkey],
        });
        lp.add_constraint(row, ConstraintOp::Le, -res);
    }

    Program {
        problem: lp,
        start,
        cap_rows,
        residual,
    }
}

/// The one solve behind [`optimal_bandwidth`] and every [`BandwidthLp`]
/// entry point: point the capacity rows at `residual_scale` times the
/// background load and solve through `workspace`, handing it the default
/// routing as the starting vertex for when it has to go cold.
///
/// That vertex is every impacted flow on its default exit, `t` at the
/// worst load-to-capacity ratio that routing produces (so `t` is basic
/// in the bottleneck's capacity row) and every other capacity row slack.
/// The ratio is taken under the rhs as just patched.
fn solve_program(
    program: &mut Program,
    workspace: &mut SimplexWorkspace,
    residual_scale: f64,
) -> LpOutcome {
    let Program {
        problem,
        start,
        cap_rows,
        ..
    } = program;
    let mut bottleneck: Option<(usize, f64)> = None;
    for cr in cap_rows.iter() {
        let rhs = -cr.residual * residual_scale;
        problem.set_rhs(cr.row, rhs);
        // `build_program` writes the `t` coefficient last in its row.
        let &(t_var, neg_cap) = problem.constraints()[cr.row]
            .coeffs
            .last()
            .expect("a capacity row carries t");
        debug_assert_eq!(t_var, T_VAR);
        let ratio = (cr.default_load - rhs) / -neg_cap;
        if bottleneck.is_none_or(|(_, worst)| ratio > worst) {
            bottleneck = Some((cr.row, ratio));
        }
    }
    // One pair per flow row (every row that is not a capacity row),
    // then this solve's bottleneck in place of the last solve's.
    start.truncate(problem.num_constraints() - cap_rows.len());
    start.extend(bottleneck.map(|(row, _)| (row, T_VAR)));
    workspace.solve_from(problem, start)
}

/// Interpret one solve's solution vector: objective `t`, per-flow
/// fractions and reconstructed link loads (residual scaled by
/// `residual_scale`, plus the impacted flows' fractional routes).
fn extract_optimum(
    solution: &[f64],
    impacted: &[FlowId],
    k: usize,
    paths: &PathTable,
    flows: &PairFlows,
    residual: &LinkLoads,
    residual_scale: f64,
) -> BandwidthOptimum {
    let t = solution[0];
    let x_var = |j: usize, i: usize| 1 + j * k + i;
    let mut fractions = GainTable::new(impacted.len(), k);
    for j in 0..impacted.len() {
        for (i, cell) in fractions.row_mut(j).iter_mut().enumerate() {
            *cell = solution[x_var(j, i)];
        }
    }
    // Reconstruct loads: (scaled) residual + fractional impacted flows.
    let mut loads = residual.clone();
    if residual_scale != 1.0 {
        for v in loads.up.iter_mut().chain(loads.down.iter_mut()) {
            *v *= residual_scale;
        }
    }
    let routed = || {
        impacted.iter().enumerate().flat_map(|(j, &fid)| {
            let vol = flows.flows[fid.index()].volume;
            let row = fractions.row(j).iter().enumerate();
            row.filter(|&(_, &x)| x > 1e-12)
                .map(move |(i, &x)| (fid, IcxId::new(i), vol * x))
        })
    };
    paths.add_loads(true, routed(), &mut loads.up);
    paths.add_loads(false, routed(), &mut loads.down);
    BandwidthOptimum {
        t,
        fractions,
        loads,
    }
}

/// Map a solver outcome to the optimum or an error.
fn finish_solve(
    outcome: LpOutcome,
    impacted: &[FlowId],
    k: usize,
    paths: &PathTable,
    flows: &PairFlows,
    residual: &LinkLoads,
    residual_scale: f64,
) -> Result<BandwidthOptimum, OptimalBandwidthError> {
    match outcome {
        LpOutcome::Optimal { solution, .. } => Ok(extract_optimum(
            &solution,
            impacted,
            k,
            paths,
            flows,
            residual,
            residual_scale,
        )),
        LpOutcome::Infeasible => Err(OptimalBandwidthError::Numerical("infeasible")),
        LpOutcome::Unbounded => Err(OptimalBandwidthError::Numerical("unbounded")),
        LpOutcome::IterationLimit { iterations } => {
            Err(OptimalBandwidthError::SolverLimit { iterations })
        }
    }
}

/// Solve the fractional optimum for the impacted flows.
///
/// * `default_assignment` routes every flow; flows in `impacted` become
///   LP variables, all others contribute residual load at their assigned
///   interconnection.
/// * `up_capacities` / `down_capacities` are the per-link capacities of
///   the two ISPs (from [`nexit_workload::assign_capacities`]).
///
/// This is the standalone build, solved once from the default routing's
/// vertex; sweeps that re-solve scenarios should hold a [`BandwidthLp`]
/// session instead.
#[allow(clippy::too_many_arguments)]
pub fn optimal_bandwidth(
    view: &PairView<'_>,
    paths: &PathTable,
    flows: &PairFlows,
    impacted: &[FlowId],
    default_assignment: &Assignment,
    up_capacities: &[f64],
    down_capacities: &[f64],
) -> Result<BandwidthOptimum, OptimalBandwidthError> {
    let k = view.num_interconnections();
    let mut program = build_program(
        view,
        paths,
        flows,
        impacted,
        default_assignment,
        up_capacities,
        down_capacities,
    );
    let mut workspace = SimplexWorkspace::with_options(solver_options());
    let outcome = solve_program(&mut program, &mut workspace, 1.0);
    finish_solve(outcome, impacted, k, paths, flows, &program.residual, 1.0)
}

/// One prepared failure scenario inside a [`BandwidthLp`] session.
struct ScenarioLp<'a> {
    failed: IcxId,
    impacted: Vec<FlowId>,
    k: usize,
    paths: &'a PathTable,
    flows: &'a PairFlows,
    program: Program,
    workspace: SimplexWorkspace,
}

/// An incremental per-pair LP session for failure sweeps.
///
/// Register every scenario once with [`BandwidthLp::add_scenario`] (the
/// skeleton is built exactly like [`optimal_bandwidth`] builds its
/// program and solved by the same function, so the first solve of each
/// scenario is bit-identical to the standalone path), then re-solve freely: each scenario keeps its own
/// [`SimplexWorkspace`], so repeated solves — identical or with patched
/// capacity residuals via [`BandwidthLp::solve_failure_scaled`] — re-enter
/// the simplex warm from the retained optimal basis.
#[derive(Default)]
pub struct BandwidthLp<'a> {
    scenarios: Vec<ScenarioLp<'a>>,
}

impl<'a> BandwidthLp<'a> {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register one failure scenario: `view`/`paths`/`flows`/`defaults`
    /// describe the **reduced** (post-failure) pair, `impacted` the flows
    /// to re-route, `failed` the failed interconnection's id in the full
    /// pair (the session's lookup key).
    #[allow(clippy::too_many_arguments)]
    pub fn add_scenario(
        &mut self,
        failed: IcxId,
        view: &PairView<'a>,
        paths: &'a PathTable,
        flows: &'a PairFlows,
        impacted: &[FlowId],
        default_assignment: &Assignment,
        up_capacities: &[f64],
        down_capacities: &[f64],
    ) {
        debug_assert!(
            !self.has_scenario(failed),
            "scenario for failed {failed:?} registered twice"
        );
        self.update_scenario(
            failed,
            view,
            paths,
            flows,
            impacted,
            default_assignment,
            up_capacities,
            down_capacities,
        );
    }

    /// Replace a registered scenario's program — new pair data (flows,
    /// volumes, residuals) and/or capacities — keeping the scenario's
    /// simplex workspace, so its counters accumulate. The next solve is
    /// what [`optimal_bandwidth`] on the same inputs is, cold from the
    /// default routing's vertex, unless the rebuilt program differs from
    /// the last one solved in right-hand sides only (the workspace then
    /// re-enters from its retained basis). For an unregistered failure
    /// id this registers the scenario.
    #[allow(clippy::too_many_arguments)]
    pub fn update_scenario(
        &mut self,
        failed: IcxId,
        view: &PairView<'a>,
        paths: &'a PathTable,
        flows: &'a PairFlows,
        impacted: &[FlowId],
        default_assignment: &Assignment,
        up_capacities: &[f64],
        down_capacities: &[f64],
    ) {
        let program = build_program(
            view,
            paths,
            flows,
            impacted,
            default_assignment,
            up_capacities,
            down_capacities,
        );
        if let Some(s) = self.scenarios.iter_mut().find(|s| s.failed == failed) {
            s.impacted = impacted.to_vec();
            s.k = view.num_interconnections();
            s.paths = paths;
            s.flows = flows;
            s.program = program;
        } else {
            self.scenarios.push(ScenarioLp {
                failed,
                impacted: impacted.to_vec(),
                k: view.num_interconnections(),
                paths,
                flows,
                program,
                workspace: SimplexWorkspace::with_options(solver_options()),
            });
        }
    }

    /// Number of registered scenarios.
    pub fn num_scenarios(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether a scenario is registered for this failure.
    pub fn has_scenario(&self, failed: IcxId) -> bool {
        self.scenarios.iter().any(|s| s.failed == failed)
    }

    /// LP variable count of one registered scenario (for size gating).
    pub fn scenario_variables(&self, failed: IcxId) -> Option<usize> {
        self.scenarios
            .iter()
            .find(|s| s.failed == failed)
            .map(|s| s.program.problem.num_variables())
    }

    /// Aggregate warm/cold counters across all scenario workspaces.
    pub fn warm_stats(&self) -> WarmStats {
        let mut total = WarmStats::default();
        for s in &self.scenarios {
            total.absorb(s.workspace.stats());
        }
        total
    }

    /// Drop every retained basis: the next solve of each scenario is
    /// forced cold (benchmarking the cold path through the identical
    /// formulation).
    pub fn invalidate_warm(&mut self) {
        for s in &mut self.scenarios {
            s.workspace.invalidate();
        }
    }

    /// Solve one registered scenario at the baseline residual load.
    /// Panics if the scenario was never registered.
    pub fn solve_failure(
        &mut self,
        failed: IcxId,
    ) -> Result<BandwidthOptimum, OptimalBandwidthError> {
        self.solve_failure_scaled(failed, 1.0)
    }

    /// Solve one registered scenario with the background (residual) load
    /// scaled by `residual_scale` — the what-if-traffic-grows variant of
    /// the optimum. The impacted flows' own volumes are unscaled; only
    /// the non-negotiated background shifts. This is an rhs-only patch of
    /// the scenario skeleton, so consecutive solves of one scenario
    /// warm-start from each other's bases.
    pub fn solve_failure_scaled(
        &mut self,
        failed: IcxId,
        residual_scale: f64,
    ) -> Result<BandwidthOptimum, OptimalBandwidthError> {
        assert!(
            residual_scale.is_finite() && residual_scale >= 0.0,
            "residual scale must be finite and non-negative"
        );
        let scenario = self
            .scenarios
            .iter_mut()
            .find(|s| s.failed == failed)
            .unwrap_or_else(|| panic!("no scenario registered for failed {failed:?}"));
        let outcome = solve_program(
            &mut scenario.program,
            &mut scenario.workspace,
            residual_scale,
        );
        finish_solve(
            outcome,
            &scenario.impacted,
            scenario.k,
            scenario.paths,
            scenario.flows,
            &scenario.program.residual,
            residual_scale,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_metrics::mel;
    use nexit_routing::ShortestPaths;
    use nexit_topology::{
        GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, Pop, PopId,
    };
    use nexit_workload::link_loads;

    fn pop(city: &str, lon: f64) -> Pop {
        Pop {
            city: city.into(),
            geo: GeoPoint::new(0.0, lon),
            weight: 1.0,
        }
    }

    fn line(id: u32, n: usize) -> IspTopology {
        let pops = (0..n).map(|i| pop(&format!("c{i}"), i as f64)).collect();
        let links = (0..n - 1)
            .map(|i| Link {
                a: PopId::new(i),
                b: PopId::new(i + 1),
                weight: 100.0,
                length_km: 100.0,
            })
            .collect();
        IspTopology::new(IspId(id), format!("L{id}"), pops, links, false).unwrap()
    }

    struct Fx {
        a: IspTopology,
        b: IspTopology,
        pair: IspPair,
    }

    fn fixture() -> Fx {
        let a = line(0, 3);
        let b = line(1, 3);
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 0.0,
                },
                Interconnection {
                    pop_a: PopId(2),
                    pop_b: PopId(2),
                    length_km: 0.0,
                },
            ],
        )
        .unwrap();
        Fx { a, b, pair }
    }

    #[test]
    fn optimum_beats_or_matches_every_integral_assignment() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() * 2 + d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![5.0; fx.a.num_links()];
        let caps_b = vec![5.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows.len()).map(FlowId::new).collect();

        let opt = optimal_bandwidth(&view, &paths, &flows, &impacted, &default, &caps_a, &caps_b)
            .unwrap();

        // Exhaustively enumerate integral assignments (2^9 = 512) and
        // verify the fractional optimum is a lower bound on max ratio.
        let n = flows.len();
        let mut best_integral = f64::INFINITY;
        for mask in 0..(1u32 << n) {
            let choices: Vec<IcxId> = (0..n)
                .map(|f| IcxId::new(((mask >> f) & 1) as usize))
                .collect();
            let asg = Assignment::from_choices(choices);
            let loads = link_loads(&view, &paths, &flows, &asg);
            let m = mel(&loads.up, &caps_a).max(mel(&loads.down, &caps_b));
            best_integral = best_integral.min(m);
        }
        assert!(
            opt.t <= best_integral + 1e-6,
            "fractional {} must lower-bound integral {}",
            opt.t,
            best_integral
        );
        // And it should not be absurdly below (sanity).
        assert!(opt.t > 0.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![2.0; fx.a.num_links()];
        let caps_b = vec![2.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows.len()).map(FlowId::new).collect();
        let opt = optimal_bandwidth(&view, &paths, &flows, &impacted, &default, &caps_a, &caps_b)
            .unwrap();
        for j in 0..opt.fractions.num_flows() {
            let fr = opt.fractions.row(j);
            let s: f64 = fr.iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "fractions sum {s}");
            assert!(fr.iter().all(|&x| x >= -1e-9));
        }
    }

    #[test]
    fn residual_flows_count_against_capacity() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![1.0; fx.a.num_links()];
        let caps_b = vec![1.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        // Only one impacted flow; the rest are residual on icx0.
        let impacted = vec![FlowId::new(8)];
        let opt = optimal_bandwidth(&view, &paths, &flows, &impacted, &default, &caps_a, &caps_b)
            .unwrap();
        // Residual load alone drives t well above 1 on unit capacities
        // (upstream link a0-a1 carries >= 5 residual units).
        assert!(opt.t >= 5.0 - 1e-6, "t = {}", opt.t);
        // Optimal moves the impacted a2->b2 flow off the congested side.
        assert!(opt.fractions.get(0, 1) > 0.99);
    }

    #[test]
    fn empty_impacted_set_is_residual_only() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![2.0; fx.a.num_links()];
        let caps_b = vec![2.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let opt =
            optimal_bandwidth(&view, &paths, &flows, &[], &default, &caps_a, &caps_b).unwrap();
        let loads = link_loads(&view, &paths, &flows, &default);
        let expect = mel(&loads.up, &caps_a).max(mel(&loads.down, &caps_b));
        assert!((opt.t - expect).abs() < 1e-6);
    }

    /// The session's first solve of a scenario is the standalone build:
    /// same program, same solve function, identical results.
    #[test]
    fn session_first_solve_matches_standalone() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() + 2 * d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![4.0; fx.a.num_links()];
        let caps_b = vec![4.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows.len())
            .filter(|f| f % 2 == 0)
            .map(FlowId::new)
            .collect();

        let standalone =
            optimal_bandwidth(&view, &paths, &flows, &impacted, &default, &caps_a, &caps_b)
                .unwrap();
        let mut session = BandwidthLp::new();
        session.add_scenario(
            IcxId(0),
            &view,
            &paths,
            &flows,
            &impacted,
            &default,
            &caps_a,
            &caps_b,
        );
        let via_session = session.solve_failure(IcxId(0)).unwrap();
        assert_eq!(via_session.t.to_bits(), standalone.t.to_bits());
        assert_eq!(via_session.fractions, standalone.fractions);
        assert_eq!(via_session.loads, standalone.loads);
    }

    /// The default routing is accepted as the starting vertex of every
    /// cold solve, and the started solve lands on the optimum a
    /// start-less two-phase solve of the same (patched) program finds.
    #[test]
    fn default_vertex_starts_every_cold_solve() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() * 2 + d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![5.0; fx.a.num_links()];
        let caps_b = vec![3.0; fx.b.num_links()];
        // Mixed defaults, so the vertex is not one exit for everyone.
        let default = Assignment::from_choices(
            (0..flows.len())
                .map(|f| IcxId::new(f % 2))
                .collect::<Vec<_>>(),
        );
        let mut solves = 0;
        for modulus in [1, 2, 3] {
            let impacted: Vec<FlowId> = (0..flows.len())
                .filter(|f| f % modulus == 0)
                .map(FlowId::new)
                .collect();
            let mut session = BandwidthLp::new();
            session.add_scenario(
                IcxId(0),
                &view,
                &paths,
                &flows,
                &impacted,
                &default,
                &caps_a,
                &caps_b,
            );
            for scale in [1.0, 1.05, 1.1, 1.2, 1.4, 0.0] {
                session.invalidate_warm();
                let started = session.solve_failure_scaled(IcxId(0), scale).unwrap();
                let startless = match nexit_lp::solve_with(
                    &session.scenarios[0].program.problem,
                    solver_options(),
                ) {
                    LpOutcome::Optimal { objective, .. } => objective,
                    other => panic!("start-less solve: {other:?}"),
                };
                assert!(
                    (started.t - startless).abs() <= 1e-9,
                    "1/{modulus} impacted, x{scale}: started {} vs start-less {startless}",
                    started.t
                );
                solves += 1;
            }
            let stats = session.warm_stats();
            assert_eq!(stats.start_refusals, 0, "{stats:?}");
            assert_eq!(stats.cold_solves, 6, "{stats:?}");
        }
        assert_eq!(solves, 18);
    }

    /// Warm re-solves across residual scales must agree with fresh cold
    /// solves of the equivalently scaled program.
    #[test]
    fn warm_scaled_resolves_match_cold() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() * 2 + d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![5.0; fx.a.num_links()];
        let caps_b = vec![5.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows.len())
            .filter(|f| f % 3 != 0)
            .map(FlowId::new)
            .collect();

        let mut warm = BandwidthLp::new();
        warm.add_scenario(
            IcxId(0),
            &view,
            &paths,
            &flows,
            &impacted,
            &default,
            &caps_a,
            &caps_b,
        );
        let mut cold = BandwidthLp::new();
        cold.add_scenario(
            IcxId(0),
            &view,
            &paths,
            &flows,
            &impacted,
            &default,
            &caps_a,
            &caps_b,
        );

        for scale in [1.0, 1.1, 1.25, 1.5, 2.0, 0.75, 0.0] {
            let w = warm.solve_failure_scaled(IcxId(0), scale).unwrap();
            cold.invalidate_warm();
            let c = cold.solve_failure_scaled(IcxId(0), scale).unwrap();
            assert!(
                (w.t - c.t).abs() < 1e-9,
                "scale {scale}: warm t {} != cold t {}",
                w.t,
                c.t
            );
            // The warm solution realizes its own objective: max
            // load-to-capacity ratio of the reconstructed loads is t.
            let realized = mel(&w.loads.up, &caps_a).max(mel(&w.loads.down, &caps_b));
            assert!(
                (realized - w.t).abs() < 1e-6,
                "scale {scale}: realized {realized} vs t {}",
                w.t
            );
            for j in 0..w.fractions.num_flows() {
                let s: f64 = w.fractions.row(j).iter().sum();
                assert!((s - 1.0).abs() < 1e-6);
            }
        }
        // The chain must actually have warm-started (deterministic, so
        // this cannot flake).
        let stats = warm.warm_stats();
        assert!(stats.warm_solves >= 4, "warm stats: {stats:?}");
        assert_eq!(cold.warm_stats().warm_solves, 0);
    }

    /// `update_scenario` keeps the workspace: an identical program
    /// re-enters from the retained basis, one with different volumes (a
    /// workload change) is solved cold and matches the standalone build,
    /// and both are counted on the one scenario.
    #[test]
    fn update_scenario_retains_the_workspace() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows_1 = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let flows_2 = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            2.0 + (s.index() + d.index()) as f64
        });
        let paths_1 = PathTable::build(&view, &sp_a, &sp_b, &flows_1);
        let paths_2 = PathTable::build(&view, &sp_a, &sp_b, &flows_2);
        let caps_a = vec![4.0; fx.a.num_links()];
        let caps_b = vec![4.0; fx.b.num_links()];
        let default = Assignment::uniform(flows_1.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows_1.len()).map(FlowId::new).collect();

        let mut session = BandwidthLp::new();
        for (paths, flows) in [
            (&paths_1, &flows_1),
            (&paths_1, &flows_1),
            (&paths_2, &flows_2),
        ] {
            session.update_scenario(
                IcxId(0),
                &view,
                paths,
                flows,
                &impacted,
                &default,
                &caps_a,
                &caps_b,
            );
            assert_eq!(session.num_scenarios(), 1);
            let got = session.solve_failure(IcxId(0)).unwrap();
            let cold =
                optimal_bandwidth(&view, paths, flows, &impacted, &default, &caps_a, &caps_b)
                    .unwrap();
            assert!(
                (got.t - cold.t).abs() < 1e-9,
                "session {} standalone {}",
                got.t,
                cold.t
            );
        }
        let stats = session.warm_stats();
        assert_eq!(
            (stats.cold_solves, stats.warm_solves, stats.warm_fallbacks),
            (2, 1, 0),
            "stats: {stats:?}"
        );
    }

    /// What a re-registered scenario solves to does not depend on what
    /// the session solved before it: a walk over capacity models and
    /// workloads, every cell through `update_scenario`, is bit for bit
    /// the standalone solve of each cell.
    #[test]
    fn reregistered_scenario_solves_bit_identically_to_standalone() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows_1 = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() * 2 + d.index()) as f64
        });
        let flows_2 = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            2.0 + (s.index() + d.index()) as f64
        });
        let paths_1 = PathTable::build(&view, &sp_a, &sp_b, &flows_1);
        let paths_2 = PathTable::build(&view, &sp_a, &sp_b, &flows_2);
        let default = Assignment::uniform(flows_1.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows_1.len())
            .filter(|f| f % 3 != 0)
            .map(FlowId::new)
            .collect();

        let mut session = BandwidthLp::new();
        let mut cells = 0;
        for (paths, flows) in [(&paths_1, &flows_1), (&paths_2, &flows_2)] {
            // Power-of-two-ish scalings and asymmetric ones.
            for (sa, sb) in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (0.5, 1.5), (4.0, 4.0)] {
                let caps_a = vec![5.0 * sa; fx.a.num_links()];
                let caps_b = vec![5.0 * sb; fx.b.num_links()];
                session.update_scenario(
                    IcxId(0),
                    &view,
                    paths,
                    flows,
                    &impacted,
                    &default,
                    &caps_a,
                    &caps_b,
                );
                let got = session.solve_failure(IcxId(0)).unwrap();
                let standalone =
                    optimal_bandwidth(&view, paths, flows, &impacted, &default, &caps_a, &caps_b)
                        .unwrap();
                assert_eq!(got.t.to_bits(), standalone.t.to_bits(), "({sa}, {sb})");
                assert_eq!(got.fractions, standalone.fractions, "({sa}, {sb})");
                assert_eq!(got.loads, standalone.loads, "({sa}, {sb})");
                // The optimum realizes its own objective on the cell's
                // capacities.
                let realized = mel(&got.loads.up, &caps_a).max(mel(&got.loads.down, &caps_b));
                assert!((realized - got.t).abs() < 1e-6);
                cells += 1;
            }
        }
        let stats = session.warm_stats();
        assert_eq!(
            (stats.cold_solves, stats.warm_solves, stats.start_refusals),
            (cells, 0, 0),
            "stats: {stats:?}"
        );
    }

    /// Per-scenario workspaces: solving different failures in
    /// interleaved order still warm-starts each scenario's re-solves.
    #[test]
    fn interleaved_scenarios_keep_their_bases() {
        let fx = fixture();
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps_a = vec![3.0; fx.a.num_links()];
        let caps_b = vec![3.0; fx.b.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted_even: Vec<FlowId> = (0..flows.len())
            .filter(|f| f % 2 == 0)
            .map(FlowId::new)
            .collect();
        let impacted_odd: Vec<FlowId> = (0..flows.len())
            .filter(|f| f % 2 == 1)
            .map(FlowId::new)
            .collect();

        let mut session = BandwidthLp::new();
        session.add_scenario(
            IcxId(0),
            &view,
            &paths,
            &flows,
            &impacted_even,
            &default,
            &caps_a,
            &caps_b,
        );
        session.add_scenario(
            IcxId(1),
            &view,
            &paths,
            &flows,
            &impacted_odd,
            &default,
            &caps_a,
            &caps_b,
        );
        assert_eq!(session.num_scenarios(), 2);
        assert!(session.has_scenario(IcxId(1)));
        assert!(!session.has_scenario(IcxId(5)));

        let mut reference = Vec::new();
        for scale in [1.0, 1.2] {
            for failed in [IcxId(0), IcxId(1)] {
                reference.push(session.solve_failure_scaled(failed, scale).unwrap().t);
            }
        }
        // Second pass over the same (failed, scale) grid: all warm, all
        // matching.
        let before = session.warm_stats();
        let mut idx = 0;
        for scale in [1.0, 1.2] {
            for failed in [IcxId(0), IcxId(1)] {
                let t = session.solve_failure_scaled(failed, scale).unwrap().t;
                assert!((t - reference[idx]).abs() < 1e-9);
                idx += 1;
            }
        }
        let after = session.warm_stats();
        assert_eq!(
            after.warm_solves - before.warm_solves,
            4,
            "repeat pass must be fully warm: {before:?} -> {after:?}"
        );
    }
}
