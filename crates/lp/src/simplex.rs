//! Two-phase dense primal simplex — the property-tested **oracle**.
//!
//! The production engine is the revised simplex in [`crate::revised`]
//! (maintained basis factorization, warm restarts); this module keeps
//! the textbook full-tableau method as an independent reference
//! implementation that the revised path is proptested against
//! ([`solve_dense`]). Hardened for the problems this workspace
//! generates:
//!
//! * rows are normalized so every right-hand side is non-negative,
//! * phase 1 minimizes the sum of artificial variables to find a basic
//!   feasible solution (or prove infeasibility),
//! * phase 2 minimizes the real objective,
//! * **Dantzig pricing** (most negative reduced cost) runs by default and
//!   the solver switches to **Bland's rule** after a stall, so degenerate
//!   problems cannot cycle,
//! * an iteration cap turns pathological inputs into an explicit
//!   [`LpOutcome::IterationLimit`] instead of a hang.

use crate::problem::{ConstraintOp, LpOutcome, LpProblem, PhaseResult, SimplexOptions};

/// Solve with default options on the dense oracle path.
pub fn solve_dense(problem: &LpProblem) -> LpOutcome {
    solve_dense_with(problem, SimplexOptions::default())
}

/// Solve with explicit options on the dense oracle path.
pub fn solve_dense_with(problem: &LpProblem, options: SimplexOptions) -> LpOutcome {
    let mut tableau = Tableau::build(problem, options);
    tableau.run(problem)
}

pub(crate) struct Tableau {
    /// Constraint matrix, row-major, `m x n`.
    pub(crate) a: Vec<f64>,
    /// Right-hand sides (kept non-negative by the build).
    pub(crate) b: Vec<f64>,
    /// Reduced-cost row for the current phase.
    pub(crate) d: Vec<f64>,
    /// Basic variable of each row.
    pub(crate) basis: Vec<usize>,
    pub(crate) m: usize,
    pub(crate) n: usize,
    /// Index of the first artificial column (artificials occupy
    /// `artificial_start..n`).
    pub(crate) artificial_start: usize,
    /// Cost vector of the phase currently being optimized (used to
    /// recompute the phase objective `c_B^T b` exactly).
    pub(crate) phase_cost: Option<Vec<f64>>,
    pub(crate) options: SimplexOptions,
    pub(crate) iterations_used: usize,
}

impl Tableau {
    pub(crate) fn build(problem: &LpProblem, options: SimplexOptions) -> Self {
        let m = problem.num_constraints();
        let nv = problem.num_variables();

        // Column layout: [original variables | slack/surplus | artificials].
        // One slack or surplus per inequality row; artificials are created
        // for every row that lacks a natural basic column.
        let num_slack = problem
            .constraints()
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();

        // First pass: determine which rows need artificials. A `<=` row
        // with rhs >= 0 uses its slack as the initial basic variable; all
        // other rows need an artificial.
        // Rows are normalized to rhs >= 0 by flipping signs (which also
        // flips Le <-> Ge).
        struct RowPlan {
            flip: bool,
            op: ConstraintOp,
        }
        let plans: Vec<RowPlan> = problem
            .constraints()
            .iter()
            .map(|c| {
                let flip = c.rhs < 0.0;
                let op = match (c.op, flip) {
                    (ConstraintOp::Le, true) => ConstraintOp::Ge,
                    (ConstraintOp::Ge, true) => ConstraintOp::Le,
                    (op, _) => op,
                };
                RowPlan { flip, op }
            })
            .collect();
        let num_artificial = plans.iter().filter(|p| p.op != ConstraintOp::Le).count();

        let n = nv + num_slack + num_artificial;
        let mut a = vec![0.0; m * n];
        let mut b = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];

        let mut slack_col = nv;
        let mut art_col = nv + num_slack;
        for (i, (c, plan)) in problem.constraints().iter().zip(&plans).enumerate() {
            let sign = if plan.flip { -1.0 } else { 1.0 };
            for &(var, coeff) in &c.coeffs {
                a[i * n + var] = sign * coeff;
            }
            b[i] = sign * c.rhs;
            match plan.op {
                ConstraintOp::Le => {
                    a[i * n + slack_col] = 1.0;
                    basis[i] = slack_col;
                    slack_col += 1;
                }
                ConstraintOp::Ge => {
                    a[i * n + slack_col] = -1.0; // surplus
                    slack_col += 1;
                    a[i * n + art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
                ConstraintOp::Eq => {
                    a[i * n + art_col] = 1.0;
                    basis[i] = art_col;
                    art_col += 1;
                }
            }
        }
        debug_assert_eq!(slack_col, nv + num_slack);
        debug_assert_eq!(art_col, n);

        Self {
            a,
            b,
            d: vec![0.0; n],
            basis,
            m,
            n,
            artificial_start: nv + num_slack,
            phase_cost: None,
            options,
            iterations_used: 0,
        }
    }

    /// Recompute the reduced-cost row `d = c - c_B^T B^{-1} A` for a cost
    /// vector, exploiting that the tableau is kept in basis-canonical form
    /// (basic columns are unit vectors).
    pub(crate) fn reset_costs(&mut self, cost: &[f64]) {
        debug_assert_eq!(cost.len(), self.n);
        self.d.copy_from_slice(cost);
        for row in 0..self.m {
            let cb = cost[self.basis[row]];
            if cb != 0.0 {
                let base = row * self.n;
                for j in 0..self.n {
                    self.d[j] -= cb * self.a[base + j];
                }
            }
        }
    }

    pub(crate) fn pivot(&mut self, row: usize, col: usize) {
        let n = self.n;
        let pivot_val = self.a[row * n + col];
        debug_assert!(pivot_val.abs() > self.options.tolerance);
        // Normalize pivot row.
        let inv = 1.0 / pivot_val;
        for j in 0..n {
            self.a[row * n + j] *= inv;
        }
        self.b[row] *= inv;
        self.a[row * n + col] = 1.0; // exact

        // Eliminate the column elsewhere.
        for i in 0..self.m {
            if i == row {
                continue;
            }
            let factor = self.a[i * n + col];
            if factor != 0.0 {
                let (pre, post) = self.a.split_at_mut(i.max(row) * n);
                let (row_i, row_r) = if i < row {
                    (&mut pre[i * n..i * n + n], &post[..n])
                } else {
                    (&mut post[..n], &pre[row * n..row * n + n])
                };
                for j in 0..n {
                    row_i[j] -= factor * row_r[j];
                }
                row_i[col] = 0.0; // exact
                self.b[i] -= factor * self.b[row];
            }
        }
        // Objective row.
        let dfac = self.d[col];
        if dfac != 0.0 {
            for j in 0..n {
                self.d[j] -= dfac * self.a[row * n + j];
            }
            self.d[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// One simplex phase: pivot until optimal/unbounded/limit.
    /// `ban_artificials` excludes artificial columns from entering (phase 2).
    pub(crate) fn optimize(&mut self, ban_artificials: bool) -> PhaseResult {
        let tol = self.options.tolerance;
        let mut stall = 0usize;
        let mut bland = false;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.iterations_used >= self.options.max_iterations {
                return PhaseResult::IterationLimit;
            }
            let limit = if ban_artificials {
                self.artificial_start
            } else {
                self.n
            };
            // Entering column.
            let col = if bland {
                (0..limit).find(|&j| self.d[j] < -tol)
            } else {
                let mut best: Option<(usize, f64)> = None;
                for j in 0..limit {
                    let dj = self.d[j];
                    if dj < -tol && best.is_none_or(|(_, bd)| dj < bd) {
                        best = Some((j, dj));
                    }
                }
                best.map(|(j, _)| j)
            };
            let Some(col) = col else {
                return PhaseResult::Optimal;
            };
            // Ratio test.
            let mut pivot_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.m {
                let aij = self.a[i * self.n + col];
                if aij > tol {
                    let ratio = self.b[i] / aij;
                    let better = ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
                            && pivot_row.is_none_or(|r| self.basis[i] < self.basis[r]));
                    if better {
                        best_ratio = ratio;
                        pivot_row = Some(i);
                    }
                }
            }
            let Some(row) = pivot_row else {
                return PhaseResult::Unbounded;
            };
            self.pivot(row, col);
            self.iterations_used += 1;

            // Stall detection: objective value is z = c_B^T b; track the
            // phase objective via the maintained reduced-cost invariant.
            let current = self.current_objective();
            if current < last_obj - tol {
                stall = 0;
                last_obj = current;
            } else {
                stall += 1;
                if stall >= self.options.stall_threshold {
                    bland = true;
                }
            }
        }
    }

    /// Current phase objective `z = c_B^T b`, recomputed exactly from the
    /// phase cost vector — O(m), negligible next to an O(m*n) pivot.
    fn current_objective(&self) -> f64 {
        self.phase_cost
            .as_ref()
            .map(|c| {
                self.basis
                    .iter()
                    .zip(&self.b)
                    .map(|(&bv, &bval)| c[bv] * bval)
                    .sum()
            })
            .unwrap_or(0.0)
    }

    pub(crate) fn run(&mut self, problem: &LpProblem) -> LpOutcome {
        let tol = self.options.tolerance;
        // Phase 1: minimize the sum of artificials, when any exist.
        if self.artificial_start < self.n {
            let mut phase1 = vec![0.0; self.n];
            for c in phase1.iter_mut().skip(self.artificial_start) {
                *c = 1.0;
            }
            self.reset_costs(&phase1);
            self.phase_cost = Some(phase1);
            match self.optimize(false) {
                PhaseResult::Optimal => {}
                PhaseResult::Unbounded => {
                    // Phase-1 objective is bounded below by 0; unbounded
                    // here indicates numerical trouble. Report as limit.
                    return LpOutcome::IterationLimit {
                        iterations: self.iterations_used,
                    };
                }
                PhaseResult::IterationLimit => {
                    return LpOutcome::IterationLimit {
                        iterations: self.iterations_used,
                    }
                }
            }
            let phase1_obj = self.current_objective();
            if phase1_obj > tol.max(1e-7) {
                return LpOutcome::Infeasible;
            }
            // Drive any artificial still basic (at value ~0) out of the
            // basis when a real pivot exists in its row.
            for row in 0..self.m {
                if self.basis[row] >= self.artificial_start {
                    let col =
                        (0..self.artificial_start).find(|&j| self.a[row * self.n + j].abs() > tol);
                    if let Some(col) = col {
                        self.pivot(row, col);
                    }
                    // If no real column exists the row is redundant; the
                    // artificial stays basic at 0 and phase 2 bans
                    // artificial entering columns, so it is harmless.
                }
            }
        }

        // Phase 2: the real objective (zero cost on slack and artificial
        // columns).
        let mut phase2 = vec![0.0; self.n];
        phase2[..problem.num_variables()].copy_from_slice(problem.objective());
        self.reset_costs(&phase2);
        self.phase_cost = Some(phase2);
        match self.optimize(true) {
            PhaseResult::Optimal => {
                let solution = self.extract_solution(problem.num_variables());
                LpOutcome::Optimal {
                    objective: problem.objective_value(&solution),
                    solution,
                }
            }
            PhaseResult::Unbounded => LpOutcome::Unbounded,
            PhaseResult::IterationLimit => LpOutcome::IterationLimit {
                iterations: self.iterations_used,
            },
        }
    }

    /// Read the current basic solution off the tableau (non-basic
    /// variables are zero).
    pub(crate) fn extract_solution(&self, num_variables: usize) -> Vec<f64> {
        let mut solution = vec![0.0; num_variables];
        for (row, &var) in self.basis.iter().enumerate() {
            if var < solution.len() {
                solution[var] = self.b[row].max(0.0);
            }
        }
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};

    fn assert_optimal(outcome: &LpOutcome, expect_obj: f64, tol: f64) -> Vec<f64> {
        match outcome {
            LpOutcome::Optimal {
                objective,
                solution,
            } => {
                assert!(
                    (objective - expect_obj).abs() < tol,
                    "objective {objective} != {expect_obj}"
                );
                solution.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn simple_le_problem() {
        // min -x - 2y  s.t. x + y <= 4, x <= 2  => x=0, y=4, obj=-8
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0);
        let sol = assert_optimal(&solve_dense(&p), -8.0, 1e-7);
        assert!((sol[0] - 0.0).abs() < 1e-7);
        assert!((sol[1] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge() {
        // min x + y  s.t. x + y == 3, x >= 1  => obj 3, e.g. x=1..3
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        let sol = assert_optimal(&solve_dense(&p), 3.0, 1e-7);
        assert!(p.is_feasible(&sol, 1e-7));
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve_dense(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x  s.t. x >= 1
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(solve_dense(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x  s.t. -x <= -3  (i.e. x >= 3)
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, -1.0)], ConstraintOp::Le, -3.0);
        let sol = assert_optimal(&solve_dense(&p), 3.0, 1e-7);
        assert!((sol[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex: multiple constraints active at origin.
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 0.0);
        let sol = assert_optimal(&solve_dense(&p), 0.0, 1e-7);
        assert!(p.is_feasible(&sol, 1e-7));
    }

    #[test]
    fn min_max_ratio_shape() {
        // The exact structure used by optimal bandwidth routing:
        // min t  s.t. x1 + x2 == 1 (flow split),
        //             5 x1 <= 10 t (link 1), 5 x2 <= 2 t (link 2).
        // Optimum puts more on link 1: x1 = 5/6, x2 = 1/6, t = 5/12.
        let mut p = LpProblem::new();
        let t = p.add_variable(1.0);
        let x1 = p.add_variable(0.0);
        let x2 = p.add_variable(0.0);
        p.add_constraint(vec![(x1, 1.0), (x2, 1.0)], ConstraintOp::Eq, 1.0);
        p.add_constraint(vec![(x1, 5.0), (t, -10.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x2, 5.0), (t, -2.0)], ConstraintOp::Le, 0.0);
        let sol = assert_optimal(&solve_dense(&p), 5.0 / 12.0, 1e-7);
        assert!((sol[1] - 5.0 / 6.0).abs() < 1e-6);
        assert!((sol[2] - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y == 2 twice (redundant row leaves an artificial basic at 0).
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = assert_optimal(&solve_dense(&p), 2.0, 1e-7);
        assert!((sol[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_constraint_problem() {
        // min x with no constraints: optimum x = 0.
        let mut p = LpProblem::new();
        let _x = p.add_variable(1.0);
        let sol = assert_optimal(&solve_dense(&p), 0.0, 1e-9);
        assert_eq!(sol.len(), 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        // Random small feasible-by-construction LPs: constraints are
        // `a.x <= a.x0 + slack` around a known feasible point `x0 >= 0`,
        // so the solver's optimum must be feasible and no worse than
        // `c.x0`.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn optimum_is_feasible_and_beats_known_point(
                nv in 1usize..5,
                seed_rows in proptest::collection::vec(
                    (proptest::collection::vec(-5.0f64..5.0, 5), 0.0f64..3.0), 1..6),
                cost in proptest::collection::vec(0.0f64..4.0, 5),
                x0 in proptest::collection::vec(0.0f64..3.0, 5),
            ) {
                let mut p = LpProblem::new();
                for &c in cost.iter().take(nv) {
                    p.add_variable(c);
                }
                for (coeffs, slack) in &seed_rows {
                    let row: Vec<(usize, f64)> =
                        (0..nv).map(|i| (i, coeffs[i])).collect();
                    let rhs: f64 =
                        (0..nv).map(|i| coeffs[i] * x0[i]).sum::<f64>() + slack;
                    p.add_constraint(row, ConstraintOp::Le, rhs);
                }
                match solve_dense(&p) {
                    LpOutcome::Optimal { objective, solution } => {
                        prop_assert!(p.is_feasible(&solution, 1e-6));
                        let known: f64 = (0..nv).map(|i| cost[i] * x0[i]).sum();
                        prop_assert!(objective <= known + 1e-6,
                            "optimum {objective} worse than known point {known}");
                        // Non-negative costs + x >= 0 => objective >= 0.
                        prop_assert!(objective >= -1e-7);
                    }
                    other => prop_assert!(false, "expected optimal, got {other:?}"),
                }
            }
        }
    }
}
