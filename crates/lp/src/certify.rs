//! An optimum that proves itself: LP duality, checked from the problem
//! alone.
//!
//! For `min c·x` subject to the problem's rows and `x >= 0`, a point `x`
//! is optimal exactly when some multipliers `y` (one per row) make
//!
//! * `x` primal feasible,
//! * `y` dual feasible: `y_i <= 0` on a `<=` row, `y_i >= 0` on a `>=`
//!   row, free on an `==` row, and `c − Aᵀy >= 0` on every column,
//! * the two objectives meet: `c·x = b·y`.
//!
//! [`certify`] checks those three things to a tolerance and nothing else.
//! It reads only the [`LpProblem`], so it shares no code with the engine
//! that produced the pair: no basis, no factorization, no standard form.

use crate::problem::{ConstraintOp, LpProblem};

/// The tolerance the engine holds its own answers to: a warm or started
/// result is verified feasible at it, and debug builds certify every
/// `Optimal` at it.
pub(crate) const VERIFY_TOL: f64 = 1e-6;

/// Check that `(x, y)` is a primal–dual optimal pair of `problem`:
/// primal feasibility ([`LpProblem::is_feasible`] at `tol`), each dual's
/// sign for its row's operator (to `tol`), reduced costs `c − Aᵀy >=
/// −tol` on every variable, and a duality gap `|c·x − b·y| <= tol · (1 +
/// |c·x|)`. The error names the first check that failed.
pub fn certify(problem: &LpProblem, x: &[f64], y: &[f64], tol: f64) -> Result<(), &'static str> {
    if y.len() != problem.num_constraints() {
        return Err("dual length: one multiplier per constraint");
    }
    if !problem.is_feasible(x, tol) {
        return Err("primal infeasible");
    }
    let mut reduced = problem.objective().to_vec();
    let mut dual_objective = 0.0;
    for (row, &yi) in problem.constraints().iter().zip(y) {
        let signed = match row.op {
            ConstraintOp::Le => yi <= tol,
            ConstraintOp::Ge => yi >= -tol,
            ConstraintOp::Eq => yi.is_finite(),
        };
        if !signed {
            return Err("dual sign");
        }
        for &(j, a) in &row.coeffs {
            reduced[j] -= a * yi;
        }
        dual_objective += row.rhs * yi;
    }
    if reduced.iter().any(|&d| d.is_nan() || d < -tol) {
        return Err("reduced cost");
    }
    let primal_objective = problem.objective_value(x);
    if (primal_objective - dual_objective).abs() > tol * (1.0 + primal_objective.abs()) {
        return Err("duality gap");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, LpOutcome};

    /// `min −x − 2y` s.t. `x + y <= 4`, `x <= 2`: optimum `(0, 4)` at
    /// −8, duals `(−2, 0)`.
    fn le_program() -> LpProblem {
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0);
        p
    }

    #[test]
    fn the_engine_optimum_certifies_and_each_mutant_fails_its_own_check() {
        let p = le_program();
        let LpOutcome::Optimal {
            solution, duals, ..
        } = solve(&p)
        else {
            panic!("optimal expected");
        };
        assert_eq!(certify(&p, &solution, &duals, 1e-9), Ok(()));
        assert_eq!(certify(&p, &[0.0, 4.0], &[-2.0, 0.0], 1e-9), Ok(()));
        for (x, y, why) in [
            (&[0.0, 4.1][..], &[-2.0, 0.0][..], "primal infeasible"),
            (&[0.0, 4.0], &[2.0, 0.0], "dual sign"),
            (&[0.0, 4.0], &[-1.5, 0.0], "reduced cost"),
            (&[0.0, 4.0], &[-2.0, -1.0], "duality gap"),
            (&[2.0, 2.0], &[-2.0, 0.0], "duality gap"),
            (
                &[0.0, 4.0],
                &[-2.0],
                "dual length: one multiplier per constraint",
            ),
        ] {
            assert_eq!(certify(&p, x, y, 1e-9), Err(why), "x {x:?}, y {y:?}");
        }
    }

    /// Duals keep the problem's own row signs: a `>=` row and a `<=`
    /// row with a negative rhs (flipped inside the engine) and an `==`
    /// row whose optimal multiplier is negative.
    #[test]
    fn duals_come_back_in_the_problems_own_signs() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(3.0);
        let z = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
        p.add_constraint(vec![(x, -1.0)], ConstraintOp::Le, -0.5);
        p.add_constraint(vec![(z, 1.0), (x, 1.0)], ConstraintOp::Eq, 3.0);
        let LpOutcome::Optimal {
            objective,
            solution,
            duals,
        } = solve(&p)
        else {
            panic!("optimal expected");
        };
        // x = 2, z = 1: the `>=` row binds at y_0 = 2, the `==` row at −1.
        assert!((objective - 1.0).abs() < 1e-9, "{objective}");
        assert_eq!(certify(&p, &solution, &duals, 1e-9), Ok(()));
        let want = [2.0, 0.0, -1.0];
        assert!(
            duals.iter().zip(want).all(|(d, w)| (d - w).abs() < 1e-9),
            "{duals:?}"
        );
    }
}
