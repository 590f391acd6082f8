//! Warm-started solving: a reusable [`SimplexWorkspace`].
//!
//! The what-if sweeps solve long runs of LPs that share one program and
//! differ in their right-hand sides: failure-scenario ladders
//! (`baselines::BandwidthLp` scales residuals per scenario). Solving
//! every member of such a run from scratch re-walks to an optimum the
//! previous solve already sat next to.
//!
//! A [`SimplexWorkspace`] keeps the **revised-simplex engine** of the
//! last successful solve — the basis (a set of column indices), its LU
//! factorization, the standard-form layout and the fresh pricing pass
//! the solve ended on — and has exactly two answers to the next problem:
//!
//! * **same program, new rhs**: the problem's fingerprint (kept by
//!   [`LpProblem`] itself, mixed in as it is built, blind to
//!   [`LpProblem::set_rhs`]) equals the retained one. The re-entry
//!   re-signs the rhs and re-solves `x_B = B^{-1} b̃` (one FTRAN against
//!   the retained factorization). If `x_B >= 0` the kept pass is already
//!   the optimum's certificate and nothing pivots; otherwise its reduced
//!   costs are dual feasible, **dual-simplex** pivots repair primal
//!   feasibility, and a primal pass polishes and re-prices fresh.
//! * **anything else**: cold, on a fresh engine. With a caller-supplied
//!   start ([`SimplexWorkspace::solve_from`]) the fresh engine's basis
//!   is set to the named feasible vertex (each named structural column
//!   basic in its row, every other row on its own slack or surplus),
//!   factorized, checked (`x_B >= 0`, no artificial above zero) and
//!   handed to the same re-optimization and verification a warm
//!   re-entry gets. Phase 1 is not run. The start is an argument of the
//!   solve, not a setting: callers without one
//!   ([`SimplexWorkspace::solve`], [`crate::solve_with`]) and refused
//!   starts take the two-phase path.
//!
//! Any trouble — a stale/singular basis, a blocked pivot, a budget
//! overrun, a solution that fails verification; for a start also a pair
//! out of range, a non-structural column, a row or column named twice,
//! an infeasible vertex ([`WarmStats::start_refusals`]) — falls back to
//! the ordinary cold start on a fresh engine, so a warm or started solve
//! can never return anything a cold solve would not. Matching is by
//! content, not by pointer, so callers may rebuild problems freely.
//! Every result is verified against the problem itself before it is
//! returned, which bounds what float drift could ever cost to a cold
//! refresh.

use crate::certify::VERIFY_TOL;
use crate::problem::{LpOutcome, LpProblem, SimplexOptions};
use crate::revised::{EngineCounters, RevisedSimplex};

/// Counters describing how a [`SimplexWorkspace`] resolved its solves,
/// plus the engine's factorization/pricing telemetry: path counters
/// (`*_solves`, `*_fallbacks`) say *which* re-entry each solve took,
/// the engine counters say what the basis machinery did along the way.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Solves that built a fresh engine: the two-phase cold path, or
    /// phase 2 alone from a caller-supplied starting vertex.
    pub cold_solves: usize,
    /// Rhs-only solves answered from the saved basis (dual repair +
    /// polish).
    pub warm_solves: usize,
    /// Warm attempts that had to fall back to a cold start (stale or
    /// infeasible-at-basis); each also counts as a cold solve.
    pub warm_fallbacks: usize,
    /// Sparse-LU basis refactorizations (scheduled eta-limit rebuilds
    /// and cold builds).
    pub refactorizations: usize,
    /// Basis changes recorded as product-form eta updates.
    pub eta_pivots: usize,
    /// Longest eta file any FTRAN/BTRAN had to walk (peak, not a sum).
    pub max_eta_chain: usize,
    /// Worst L+U fill-in (stored nonzeros) any factorization produced
    /// (peak, not a sum).
    pub lu_fill_nnz: usize,
    /// Devex-to-Bland pricing hand-overs (anti-cycling stalls).
    pub pricing_fallbacks: usize,
    /// Caller-supplied starting vertices ([`SimplexWorkspace::solve_from`])
    /// that were refused: malformed, singular, not a feasible vertex, or
    /// failing the checks every warm result must pass. The solve then
    /// ran the two-phase path (it is one of the `cold_solves` either
    /// way).
    pub start_refusals: usize,
}

impl WarmStats {
    /// Accumulate another workspace's counters (sweep-level reporting).
    /// Count fields add; the two peak fields (`max_eta_chain`,
    /// `lu_fill_nnz`) take the maximum.
    pub fn absorb(&mut self, other: WarmStats) {
        self.cold_solves += other.cold_solves;
        self.warm_solves += other.warm_solves;
        self.warm_fallbacks += other.warm_fallbacks;
        self.refactorizations += other.refactorizations;
        self.eta_pivots += other.eta_pivots;
        self.max_eta_chain = self.max_eta_chain.max(other.max_eta_chain);
        self.lu_fill_nnz = self.lu_fill_nnz.max(other.lu_fill_nnz);
        self.pricing_fallbacks += other.pricing_fallbacks;
        self.start_refusals += other.start_refusals;
    }

    /// Fold one engine's drained telemetry into the totals.
    pub(crate) fn absorb_engine(&mut self, c: EngineCounters) {
        self.refactorizations += c.refactorizations;
        self.eta_pivots += c.eta_pivots;
        self.max_eta_chain = self.max_eta_chain.max(c.max_eta_chain);
        self.lu_fill_nnz = self.lu_fill_nnz.max(c.lu_fill_nnz);
        self.pricing_fallbacks += c.pricing_fallbacks;
    }

    /// Total solves recorded.
    pub fn total_solves(&self) -> usize {
        self.cold_solves + self.warm_solves
    }

    /// Solves answered from the saved basis. Streaming drivers report
    /// this to show their event loop actually re-enters warm instead of
    /// silently falling back.
    pub fn warm_reentries(&self) -> usize {
        self.warm_solves
    }

    /// Fraction of all solves answered warm (0 when nothing solved).
    pub fn warm_fraction(&self) -> f64 {
        let total = self.total_solves();
        if total == 0 {
            0.0
        } else {
            self.warm_reentries() as f64 / total as f64
        }
    }
}

/// A reusable simplex solver that warm-starts rhs-patched problems from
/// the previous solve's retained basis factorization. See the module
/// docs for the two re-entries and the fallback rules.
pub struct SimplexWorkspace {
    options: SimplexOptions,
    saved: Option<Saved>,
    stats: WarmStats,
}

struct Saved {
    /// [`LpProblem::fingerprint`] of the problem `engine` solved; the
    /// next problem must match it to re-enter.
    fingerprint: u64,
    engine: RevisedSimplex,
}

impl Default for SimplexWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SimplexWorkspace {
    /// A workspace with default [`SimplexOptions`].
    pub fn new() -> Self {
        Self::with_options(SimplexOptions::default())
    }

    /// A workspace with explicit solver options.
    pub fn with_options(options: SimplexOptions) -> Self {
        Self {
            options,
            saved: None,
            stats: WarmStats::default(),
        }
    }

    /// How the workspace resolved its solves so far.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Drop the saved basis: the next solve is forced cold. Useful when
    /// the caller knows the upcoming problem is unrelated, and for
    /// benchmarking the cold path through the same interface.
    pub fn invalidate(&mut self) {
        self.saved = None;
    }

    /// Solve, re-entering from the previous solve's basis (dual-simplex
    /// repair) when the problem differs from it in right-hand sides
    /// only. Outcomes are identical to [`crate::solve_with`] up to the
    /// solver tolerance (degenerate optima may pick a different optimal
    /// vertex).
    pub fn solve(&mut self, problem: &LpProblem) -> LpOutcome {
        self.solve_from(problem, &[])
    }

    /// [`Self::solve`] for a caller that knows a feasible vertex of
    /// `problem`: each `(row, structural column)` of `start` makes that
    /// column basic in place of the row's own logical column, and every
    /// other row keeps its slack or surplus (its artificial on an `==`
    /// row). A retained basis still wins; when the solve has to go cold
    /// it starts from this vertex instead of the all-artificial one, so
    /// phase 1 is not run, and the result passes the same checks a warm
    /// re-entry does. A start the engine refuses (see the module docs)
    /// is counted in [`WarmStats::start_refusals`] and costs nothing
    /// but time: the solve then is the two-phase one [`Self::solve`]
    /// would have made. An empty `start` is no start.
    pub fn solve_from(&mut self, problem: &LpProblem, start: &[(usize, usize)]) -> LpOutcome {
        let fingerprint = problem.fingerprint();
        if let Some(saved) = self.saved.as_mut().filter(|s| s.fingerprint == fingerprint) {
            saved.engine.install_rhs(problem);
            let outcome = finish_warm(&mut saved.engine, problem);
            // Telemetry accrues even on a failed attempt (partial
            // repairs still refactorize and push etas).
            self.stats.absorb_engine(saved.engine.take_counters());
            if let Some(outcome) = outcome {
                self.stats.warm_solves += 1;
                return outcome;
            }
            self.stats.warm_fallbacks += 1;
        }
        self.saved = None;

        self.stats.cold_solves += 1;
        if !start.is_empty() {
            let mut engine = RevisedSimplex::build(problem, self.options);
            let outcome = if engine.install_start(start) {
                finish_warm(&mut engine, problem)
            } else {
                None
            };
            self.stats.absorb_engine(engine.take_counters());
            if let Some(outcome) = outcome {
                self.retain(fingerprint, engine);
                return outcome;
            }
            self.stats.start_refusals += 1;
        }
        let mut engine = RevisedSimplex::build(problem, self.options);
        let outcome = engine.run(problem);
        let drained = engine.take_counters();
        self.stats.absorb_engine(drained);
        // Phase 1 accepts artificials summing to 1e-7 (roundoff on a
        // nearly redundant `==` pair), above the pivot tolerance every
        // re-entry holds them to: such an engine could only fall back.
        if matches!(outcome, LpOutcome::Optimal { .. }) && !engine.artificial_still_basic() {
            self.retain(fingerprint, engine);
        }
        outcome
    }

    /// Keep a cold-solved engine for the next solve to re-enter.
    fn retain(&mut self, fingerprint: u64, mut engine: RevisedSimplex) {
        engine.cold_pivots = engine.iterations_used;
        self.saved = Some(Saved {
            fingerprint,
            engine,
        });
    }
}

/// Run the warm re-optimization on a re-entered engine and verify the
/// result. `None` means the basis could not be reused (the caller falls
/// back to a cold start).
fn finish_warm(engine: &mut RevisedSimplex, problem: &LpProblem) -> Option<LpOutcome> {
    if !engine.reoptimize(problem.objective()) {
        return None;
    }
    // An artificial still basic at a meaningfully positive value means
    // the saved basis cannot represent the patched problem.
    if engine.artificial_still_basic() {
        return None;
    }
    // Trust, but verify: the warm path must never return a point the
    // problem itself rejects.
    let solution = engine.extract_solution(problem.num_variables());
    if !problem.is_feasible(&solution, VERIFY_TOL) {
        return None;
    }
    Some(engine.optimal(problem, solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};
    use crate::solve;

    fn objective(outcome: &LpOutcome) -> f64 {
        match outcome {
            LpOutcome::Optimal { objective, .. } => *objective,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// The min-max-ratio shape the bandwidth optimum uses, with
    /// patchable capacity residuals.
    fn min_max_problem(residuals: &[f64; 2]) -> LpProblem {
        // min t  s.t. x1 + x2 == 1, 5 x1 - 10 t <= -r1, 5 x2 - 2 t <= -r2.
        let mut p = LpProblem::new();
        let t = p.add_variable(1.0);
        let x1 = p.add_variable(0.0);
        let x2 = p.add_variable(0.0);
        p.add_constraint(vec![(x1, 1.0), (x2, 1.0)], ConstraintOp::Eq, 1.0);
        p.add_constraint(vec![(x1, 5.0), (t, -10.0)], ConstraintOp::Le, -residuals[0]);
        p.add_constraint(vec![(x2, 5.0), (t, -2.0)], ConstraintOp::Le, -residuals[1]);
        p
    }

    /// `p` rebuilt with one coefficient replaced (the variable must
    /// already appear in the row): same pattern, different values.
    fn with_coefficient(p: &LpProblem, row: usize, var: usize, coeff: f64) -> LpProblem {
        let mut q = LpProblem::new();
        for &c in p.objective() {
            q.add_variable(c);
        }
        for (i, c) in p.constraints().iter().enumerate() {
            let mut coeffs = c.coeffs.clone();
            if i == row {
                let slot = coeffs.iter_mut().find(|(v, _)| *v == var);
                slot.expect("variable present in the row").1 = coeff;
            }
            q.add_constraint(coeffs, c.op, c.rhs);
        }
        q
    }

    /// An rhs edit leaves the fingerprint (the dual-repair path), and so
    /// does building the same program again; any other edit moves it
    /// (cold).
    #[test]
    fn only_rhs_edits_keep_the_fingerprint() {
        let base = min_max_problem(&[1.0, 0.5]);
        let fingerprint = base.fingerprint();

        let mut rhs_only = min_max_problem(&[1.0, 0.5]);
        rhs_only.set_rhs(1, -7.25);
        assert_eq!(rhs_only.fingerprint(), fingerprint);
        // Rebuilt row by row from `base`'s content: the same program.
        assert_eq!(
            with_coefficient(&base, 2, 0, -2.0).fingerprint(),
            fingerprint
        );

        // One coefficient, by one ulp.
        let one_coeff = with_coefficient(&base, 2, 0, f64::from_bits((-2.0f64).to_bits() + 1));
        assert_ne!(one_coeff.fingerprint(), fingerprint);

        // The objective, the variable a row reads, a row's operator:
        // every other number the same.
        for (cost, var, op) in [
            (2.0, 2, ConstraintOp::Le),
            (1.0, 1, ConstraintOp::Le),
            (1.0, 2, ConstraintOp::Ge),
        ] {
            let mut p = LpProblem::new();
            let t = p.add_variable(cost);
            let x1 = p.add_variable(0.0);
            let x2 = p.add_variable(0.0);
            p.add_constraint(vec![(x1, 1.0), (x2, 1.0)], ConstraintOp::Eq, 1.0);
            p.add_constraint(vec![(x1, 5.0), (t, -10.0)], ConstraintOp::Le, -1.0);
            p.add_constraint(vec![(var, 5.0), (t, -2.0)], op, -0.5);
            assert_ne!(p.fingerprint(), fingerprint, "{cost} {var} {op:?}");
        }
    }

    #[test]
    fn warm_rhs_patch_matches_cold() {
        let mut ws = SimplexWorkspace::new();
        let mut p = min_max_problem(&[0.0, 0.0]);
        let first = objective(&ws.solve(&p));
        assert!((first - 5.0 / 12.0).abs() < 1e-9);
        assert_eq!(ws.stats().cold_solves, 1);

        // Patch the residuals (rhs only) and re-solve warm.
        for (r1, r2) in [(1.0, 0.5), (3.0, 0.0), (0.0, 1.5), (2.0, 2.0)] {
            p.set_rhs(1, -r1);
            p.set_rhs(2, -r2);
            let warm = objective(&ws.solve(&p));
            let cold = objective(&solve(&p));
            assert!(
                (warm - cold).abs() < 1e-9,
                "warm {warm} != cold {cold} for residuals ({r1}, {r2})"
            );
        }
        let stats = ws.stats();
        assert!(stats.warm_solves >= 3, "stats = {stats:?}");
        assert_eq!(stats.cold_solves + stats.warm_solves, 5);
    }

    /// Anything but an rhs edit is a different program: solved cold (not
    /// a fallback), equal to a stand-alone solve, and retained for the
    /// rhs patch that follows it.
    #[test]
    fn any_other_change_goes_cold() {
        let mut ws = SimplexWorkspace::new();
        let base = min_max_problem(&[1.0, 0.5]);
        ws.solve(&base);
        // A new row, then capacity-model style rewrites of the `t`
        // column and of an `==` row's coefficient.
        let mut extra_row = min_max_problem(&[1.0, 0.5]);
        extra_row.add_constraint(vec![(1, 1.0)], ConstraintOp::Le, 0.9);
        let mut programs = vec![extra_row];
        for (c1, c2) in [(-8.0, -3.0), (-16.0, -1.0), (-6.0, -6.0), (-9.0, -2.5)] {
            let p = with_coefficient(&base, 1, 0, c1);
            programs.push(with_coefficient(&p, 2, 0, c2));
        }
        programs.push(with_coefficient(&base, 0, 1, 1.3));
        for (k, p) in programs.iter_mut().enumerate() {
            assert_ne!(p.fingerprint(), base.fingerprint(), "program {k}");
            let got = objective(&ws.solve(p));
            let cold = objective(&solve(p));
            assert!((got - cold).abs() < 1e-9, "program {k}: {got} != {cold}");
            let stats = ws.stats();
            assert_eq!(stats.cold_solves, k + 2, "program {k}: {stats:?}");
            assert_eq!(stats.warm_solves, k, "program {k}: {stats:?}");
            p.set_rhs(1, -0.4 * k as f64);
            let warm = objective(&ws.solve(p));
            let cold = objective(&solve(p));
            assert!((warm - cold).abs() < 1e-9, "program {k}: {warm} != {cold}");
        }
        assert_eq!(ws.stats().warm_fallbacks, 0);
    }

    #[test]
    fn infeasible_after_patch_detected() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 5.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        let mut ws = SimplexWorkspace::new();
        assert!((objective(&ws.solve(&p)) - 1.0).abs() < 1e-9);
        // x <= 5 becomes x <= 0.5 while x >= 1 stays: infeasible.
        p.set_rhs(0, 0.5);
        assert_eq!(ws.solve(&p), LpOutcome::Infeasible);
        // And feasible again after widening.
        p.set_rhs(0, 2.0);
        assert!((objective(&ws.solve(&p)) - 1.0).abs() < 1e-9);
    }

    /// A cold optimum that keeps an artificial basic at 5e-8 (phase 1
    /// passes it, a re-entry would not) is not retained: its rhs patches
    /// solve cold without a fallback, and match a stand-alone solve.
    #[test]
    fn nearly_redundant_equalities_are_not_retained() {
        let mut p = LpProblem::new();
        let (x, y) = (p.add_variable(1.0), p.add_variable(2.0));
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 1.0 + 5e-8);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 0.75);
        let mut ws = SimplexWorkspace::new();
        for bound in [0.75, 0.5, 0.25] {
            p.set_rhs(2, bound);
            let (warm, cold) = (objective(&ws.solve(&p)), objective(&solve(&p)));
            assert!((warm - (2.0 - bound)).abs() < 1e-6 && (warm - cold).abs() < 1e-9);
        }
        let s = ws.stats();
        assert_eq!((s.cold_solves, s.warm_fallbacks), (3, 0), "{s:?}");
    }

    #[test]
    fn infeasible_after_coefficient_change_detected() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        let mut ws = SimplexWorkspace::new();
        assert!((objective(&ws.solve(&p)) - 1.0).abs() < 1e-9);
        // x <= 2 becomes 5x <= 2 while x >= 1 stays: infeasible.
        assert_eq!(
            ws.solve(&with_coefficient(&p, 0, x, 5.0)),
            LpOutcome::Infeasible
        );
        // Relax back: feasible again.
        let relaxed = with_coefficient(&p, 0, x, 0.5);
        assert!((objective(&ws.solve(&relaxed)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalidate_forces_cold() {
        let mut ws = SimplexWorkspace::new();
        let mut p = min_max_problem(&[0.0, 0.0]);
        ws.solve(&p);
        p.set_rhs(1, -1.0);
        ws.invalidate();
        ws.solve(&p);
        assert_eq!(ws.stats().cold_solves, 2);
        assert_eq!(ws.stats().warm_solves, 0);
    }

    #[test]
    fn rhs_sign_flip_still_warm_and_correct() {
        // The cold build flips rows with negative rhs; a warm re-solve
        // keeps the old signs. Crossing zero must still be handled.
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
        p.add_constraint(vec![(x, -1.0)], ConstraintOp::Le, -1.0); // x >= 1
        let mut ws = SimplexWorkspace::new();
        assert!((objective(&ws.solve(&p)) - 2.0).abs() < 1e-9);
        // Flip the second row's rhs sign: x >= -3 (vacuous).
        p.set_rhs(1, 3.0);
        let warm = objective(&ws.solve(&p));
        let cold = objective(&solve(&p));
        assert!((warm - cold).abs() < 1e-9, "warm {warm} cold {cold}");
    }

    #[test]
    fn absorb_accumulates_counters() {
        let mut total = WarmStats::default();
        total.absorb(WarmStats {
            cold_solves: 1,
            warm_solves: 2,
            warm_fallbacks: 3,
            refactorizations: 6,
            eta_pivots: 7,
            max_eta_chain: 8,
            lu_fill_nnz: 90,
            pricing_fallbacks: 1,
            start_refusals: 2,
        });
        total.absorb(WarmStats {
            cold_solves: 10,
            refactorizations: 2,
            eta_pivots: 3,
            max_eta_chain: 4,
            lu_fill_nnz: 120,
            ..WarmStats::default()
        });
        assert_eq!(total.cold_solves, 11);
        assert_eq!(total.warm_solves, 2);
        assert_eq!(total.warm_fallbacks, 3);
        // Counts sum; the two peak fields take the max.
        assert_eq!(total.refactorizations, 8);
        assert_eq!(total.eta_pivots, 10);
        assert_eq!(total.max_eta_chain, 8);
        assert_eq!(total.lu_fill_nnz, 120);
        assert_eq!(total.pricing_fallbacks, 1);
        assert_eq!(total.start_refusals, 2);
        assert_eq!(total.total_solves(), 13);
    }

    #[test]
    fn engine_counters_reach_warm_stats() {
        // A cold solve must record at least the build factorization and
        // its fill-in; a warm rhs patch keeps accruing on the same
        // workspace.
        let mut ws = SimplexWorkspace::new();
        let mut p = min_max_problem(&[0.0, 0.0]);
        ws.solve(&p);
        let after_cold = ws.stats();
        assert!(after_cold.refactorizations >= 1, "{after_cold:?}");
        assert!(after_cold.lu_fill_nnz >= 3, "{after_cold:?}");
        assert!(after_cold.eta_pivots >= 1, "{after_cold:?}");
        p.set_rhs(1, -1.5);
        ws.solve(&p);
        let after_warm = ws.stats();
        assert!(
            after_warm.refactorizations >= after_cold.refactorizations,
            "{after_warm:?}"
        );
        assert!(after_warm.max_eta_chain >= 1, "{after_warm:?}");
    }

    /// Caller-supplied starting vertices ([`SimplexWorkspace::solve_from`]).
    mod start {
        use super::*;
        use crate::reference;
        use crate::revised::tests::proptests::{large_program, small_program};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Same outcome, bit for bit (`f64`'s `Debug` form round-trips,
        /// and tells `-0.0` from `0.0`).
        fn assert_identical(got: &LpOutcome, want: &LpOutcome) {
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }

        /// `start` must be refused, counted once, and leave the solve
        /// exactly what a start-less one on a fresh workspace is.
        fn assert_refused(p: &LpProblem, start: &[(usize, usize)], why: &str) {
            let mut ws = SimplexWorkspace::new();
            let got = ws.solve_from(p, start);
            let stats = ws.stats();
            assert_eq!(stats.start_refusals, 1, "{why}: {stats:?}");
            assert_eq!(stats.cold_solves, 1, "{why}: {stats:?}");
            assert_identical(&got, &SimplexWorkspace::new().solve(p));
        }

        // `min_max_problem`: columns t = 0, x1 = 1, x2 = 2, then two
        // slack/surplus columns (3, 4) and three artificials (5..8);
        // row 0 is the `==` row.

        #[test]
        fn a_feasible_vertex_is_accepted_and_skips_phase_one() {
            // x1 = 1 (row 0), t = 0.6 basic in row 1, row 2 keeps its
            // surplus at 2 * 0.6 - 0.5.
            let p = min_max_problem(&[1.0, 0.5]);
            let mut ws = SimplexWorkspace::new();
            let started = objective(&ws.solve_from(&p, &[(0, 1), (1, 0)]));
            let stats = ws.stats();
            assert_eq!((stats.cold_solves, stats.start_refusals), (1, 0));
            let mut cold = SimplexWorkspace::new();
            assert!((started - objective(&cold.solve(&p))).abs() < 1e-9);
            assert!(
                stats.eta_pivots < cold.stats().eta_pivots,
                "started {stats:?} vs cold {:?}",
                cold.stats()
            );
            // The started engine is retained like any other: the next
            // rhs patch re-enters warm.
            let mut q = min_max_problem(&[1.0, 0.5]);
            q.set_rhs(1, -2.0);
            let warm = objective(&ws.solve_from(&q, &[(7, 7)]));
            assert!((warm - objective(&solve(&q))).abs() < 1e-9);
            let stats = ws.stats();
            // A retained basis wins: the (malformed) start is not looked at.
            assert_eq!((stats.warm_solves, stats.start_refusals), (1, 0));
        }

        #[test]
        fn malformed_starts_are_refused() {
            let p = min_max_problem(&[1.0, 0.5]);
            assert_refused(&p, &[(3, 1)], "row out of range");
            assert_refused(&p, &[(0, 8)], "column out of range");
            assert_refused(&p, &[(0, usize::MAX)], "column far out of range");
            assert_refused(&p, &[(0, 3)], "a surplus column");
            assert_refused(&p, &[(0, 5)], "an artificial column");
            assert_refused(&p, &[(0, 1), (1, 1)], "a column named twice");
            assert_refused(&p, &[(0, 1), (0, 2)], "a row named twice");
        }

        #[test]
        fn singular_and_infeasible_vertices_are_refused() {
            let p = min_max_problem(&[1.0, 0.5]);
            // t has no entry in row 0: the basis matrix has a zero row.
            assert_refused(&p, &[(0, 0)], "singular");
            // x1 = 1 with t nonbasic at 0 leaves row 1's surplus at -6.
            assert_refused(&p, &[(0, 1)], "primal infeasible");
            // Zero residuals: t = 0 in row 1 is primal feasible, but the
            // `==` row is left to its artificial, basic at 1.
            let p = min_max_problem(&[0.0, 0.0]);
            assert_refused(&p, &[(1, 0)], "== row uncovered");
        }

        /// `p` with the objective negated: same polytope, and (the
        /// generators bound it by a box row) an optimum at its far end.
        fn reversed(p: &LpProblem) -> LpProblem {
            let mut q = LpProblem::new();
            for &c in p.objective() {
                q.add_variable(-c);
            }
            for c in p.constraints() {
                q.add_constraint(c.coeffs.clone(), c.op, c.rhs);
            }
            q
        }

        /// The optimal basis of `p` as a start (`None`: not expressible,
        /// see `RevisedSimplex::basis_as_start`).
        fn optimal_basis(p: &LpProblem) -> Option<Vec<(usize, usize)>> {
            let mut ws = SimplexWorkspace::new();
            assert!(matches!(ws.solve(p), LpOutcome::Optimal { .. }));
            ws.saved.as_ref()?.engine.basis_as_start()
        }

        /// `solve_from(p, start)` against a start-less solve: same kind
        /// of outcome, objective equal to 1e-7 relative, a certified
        /// optimum that (at most five variables) the vertex reference
        /// agrees with; a refused start leaves the result bit-identical.
        fn check_against_cold(
            p: &LpProblem,
            start: &[(usize, usize)],
        ) -> Result<WarmStats, TestCaseError> {
            let mut ws = SimplexWorkspace::new();
            let started = ws.solve_from(p, start);
            let cold = SimplexWorkspace::new().solve(p);
            let stats = ws.stats();
            prop_assert_eq!(stats.cold_solves, 1);
            prop_assert!(stats.start_refusals <= 1);
            if stats.start_refusals == 1 {
                assert_identical(&started, &cold);
            }
            reference::check(p, &started)?;
            match (&started, &cold) {
                (
                    LpOutcome::Optimal { objective: s, .. },
                    LpOutcome::Optimal { objective: c, .. },
                ) => {
                    prop_assert!(
                        (s - c).abs() <= 1e-7 * c.abs().max(1.0),
                        "started {s} != cold {c}"
                    );
                }
                (s, c) => prop_assert_eq!(s, c),
            }
            Ok(stats)
        }

        // The `#[cfg(test)]` hooks inside `optimize` (`assert_priced_out`,
        // `assert_maintained_matches_fresh`) and the debug certificate run
        // on every started solve below: a start changes where phase 2
        // begins, not its contract.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            // (a) Started at its own optimal basis a program needs no
            // phase 1 and (next to) no pivots.
            #[test]
            fn start_at_the_optimal_basis(seed in any::<u64>(), mixed in any::<bool>(),
                                          large in any::<bool>()) {
                let p = if large { large_program(seed, mixed) } else { small_program(seed, mixed) };
                let Some(start) = optimal_basis(&p) else { return Ok(()) };
                let stats = check_against_cold(&p, &start)?;
                prop_assert_eq!(stats.start_refusals, 0);
                prop_assert!(stats.eta_pivots <= 2, "{stats:?}");
            }

            // (b) A feasible vertex far from the optimum: the optimal
            // basis of the negated objective.
            #[test]
            fn start_at_the_far_end_of_the_polytope(seed in any::<u64>(), mixed in any::<bool>(),
                                                    large in any::<bool>()) {
                let p = if large { large_program(seed, mixed) } else { small_program(seed, mixed) };
                let Some(start) = optimal_basis(&reversed(&p)) else { return Ok(()) };
                let stats = check_against_cold(&p, &start)?;
                prop_assert_eq!(stats.start_refusals, 0);
            }

            // (c) Arbitrary pairs — out of range, logical columns,
            // repeats, singular and infeasible sets — never panic and
            // never change the answer.
            #[test]
            fn hostile_starts_never_change_the_answer(seed in any::<u64>(), mixed in any::<bool>(),
                                                      large in any::<bool>()) {
                let p = if large { large_program(seed, mixed) } else { small_program(seed, mixed) };
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let (m, nv) = (p.num_constraints(), p.num_variables());
                let pairs = rng.gen_range(1..m + 3);
                let start: Vec<(usize, usize)> = (0..pairs)
                    .map(|_| (rng.gen_range(0..m + 2), rng.gen_range(0..nv + 2 * m + 2)))
                    .collect();
                check_against_cold(&p, &start)?;
                // In-range, distinct rows and structural columns: what is
                // left to refuse is the linear algebra.
                let mut cols: Vec<usize> = (0..nv).collect();
                let mut start = Vec::new();
                for row in 0..m.min(nv) {
                    if rng.gen_bool(0.5) {
                        start.push((row, cols.swap_remove(rng.gen_range(0..cols.len()))));
                    }
                }
                check_against_cold(&p, &start)?;
            }
        }
    }

    mod proptests {
        use super::*;
        use crate::reference;
        use proptest::prelude::*;

        /// A feasible-by-construction program over `nv` variables and a
        /// chain of patches: one row's rhs (warm), a coefficient too (a
        /// new program, cold), or every row's rhs pulled in to just above
        /// a new point (`x0` rotated) so the last optimum breaks several
        /// rows at once (a multi-pivot dual repair). A patch is `(row,
        /// var, coeff, extra)`: `var` in 5..10 encodes "patch a
        /// coefficient too", 10.. "patch every row" (the vendored
        /// proptest tuples stop at four elements). On every step the
        /// workspace must match a fresh cold solve to 1e-9, carry a
        /// certificate and equal the vertex reference's optimum.
        fn patch_chain(
            nv: usize,
            seed_rows: &[(Vec<f64>, f64)],
            cost: &[f64],
            x0: &[f64],
            patches: &[(usize, usize, f64, f64)],
        ) -> Result<(), TestCaseError> {
            let mut p = LpProblem::new();
            for &c in cost.iter().take(nv) {
                p.add_variable(c);
            }
            for (coeffs, slack) in seed_rows {
                let row: Vec<(usize, f64)> = (0..nv).map(|i| (i, coeffs[i])).collect();
                let rhs: f64 = (0..nv).map(|i| coeffs[i] * x0[i]).sum::<f64>() + slack;
                p.add_constraint(row, ConstraintOp::Le, rhs);
            }
            // Every rhs is set at or above its row's value at `anchor`,
            // so the program stays feasible there.
            let mut anchor = x0.to_vec();
            let at = |p: &LpProblem, anchor: &[f64], i: usize| -> f64 {
                p.constraints()[i]
                    .coeffs
                    .iter()
                    .map(|&(j, a)| a * anchor[j])
                    .sum()
            };
            let mut ws = SimplexWorkspace::new();
            ws.solve(&p);
            for &(row, var, coeff, extra) in patches {
                if var >= 10 {
                    // Alternately free the origin (the optimum drops onto
                    // it) and pull every row in to just above a new
                    // anchor: the repair then enters a structural column
                    // per row the origin breaks.
                    let tighten = row % 2 == 1;
                    if tighten {
                        anchor.rotate_left(1 + row % 4);
                    }
                    for i in 0..seed_rows.len() {
                        let b = at(&p, &anchor, i);
                        let rhs = if tighten {
                            b + extra / 16.0
                        } else {
                            b.max(0.0) + extra
                        };
                        p.set_rhs(i, rhs);
                    }
                } else {
                    let row = row % seed_rows.len();
                    if var >= 5 {
                        p = with_coefficient(&p, row, var % nv, coeff);
                    }
                    p.set_rhs(row, at(&p, &anchor, row) + extra);
                }
                let warm = ws.solve(&p);
                let cold = solve(&p);
                reference::check(&p, &warm)?;
                match (&warm, &cold) {
                    (
                        LpOutcome::Optimal { objective: w, .. },
                        LpOutcome::Optimal { objective: c, .. },
                    ) => {
                        prop_assert!((w - c).abs() < 1e-9, "warm {w} != cold {c}")
                    }
                    (w, c) => prop_assert!(false, "outcome mismatch: warm {w:?} cold {c:?}"),
                }
            }
            // Every solve lands in exactly one terminal bucket
            // (fallbacks re-run cold and are counted there).
            prop_assert_eq!(ws.stats().total_solves(), patches.len() + 1);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn warm_matches_cold_and_reference_across_mixed_patches(
                nv in 1usize..6,
                seed_rows in proptest::collection::vec(
                    (proptest::collection::vec(-5.0f64..5.0, 5), 0.0f64..3.0), 1..6),
                cost in proptest::collection::vec(0.0f64..4.0, 5),
                x0 in proptest::collection::vec(0.0f64..3.0, 5),
                patches in proptest::collection::vec(
                    (0usize..6, 0usize..15, -4.0f64..4.0, 0.0f64..4.0),
                    1..8),
            ) {
                patch_chain(nv, &seed_rows, &cost, &x0, &patches)?;
            }
        }

        /// Case 2 600 of the property above at 3 000 cases: a repair
        /// whose leaving test is looser than the pivot tolerance (1e-7
        /// against 1e-9) stops on a basic value in between, and the warm
        /// optimum's certificate reads "primal infeasible".
        #[test]
        #[rustfmt::skip]
        fn repair_leaves_no_row_between_two_tolerances() {
            // Two variables: only each row's first two coefficients count.
            let seed_rows = [
                (vec![1.5367813561942514, -2.8514094199171613], 2.2030068195770824),
                (vec![0.8566375008048368, -1.9998849493142155], 0.35488473859128444),
                (vec![3.2453673241530385, 3.6552979370329943], 2.5901079597098673),
                (vec![-1.336526311290144, 0.74595361203155], 2.8365881082976148),
                (vec![-2.839025296105966, 3.155524938037125], 2.9313334725581566),
            ];
            let cost = [3.3391176549935913, 3.803246748101273];
            let x0 = [0.15149818950893124, 2.5347741729848385, 2.3985352907394892,
                0.9715332380232643, 2.2119245998595645];
            let patches = [
                (0, 0, -0.49994045225836903, 0.13698251378833293),
                (3, 0, 0.9628629148603922, 3.0298462238011297),
                (4, 7, 3.449088578664118, 2.6961549872225192),
                (3, 14, 3.3107380399657034, 0.02478251645827312),
                (1, 12, -1.9032767847352527, 2.008687792799769),
            ];
            patch_chain(2, &seed_rows, &cost, &x0, &patches).unwrap();
        }
    }
}
