//! The tests' reference solver: vertex enumeration for tiny programs.
//!
//! With `x >= 0` the feasible region is pointed, so when it is not empty
//! it has a vertex: a point where `n` independent hyperplanes meet, taken
//! from the rows (as equalities) and the axes `x_j = 0`. For up to
//! [`MAX_VARIABLES`] variables every `n`-subset is tried, which decides
//! all three verdicts:
//!
//! * **infeasible** — no subset meets in a feasible point;
//! * **unbounded** — feasible, and `c` decreases along a recession
//!   direction `d` (`d >= 0`, each row's operator applied to `a·d`
//!   against zero). Those directions form a cone whose slice `Σd = 1`
//!   is again a tiny bounded program, enumerated the same way;
//! * **optimal** — otherwise, the best feasible vertex.

use crate::certify::certify;
use crate::problem::{Constraint, ConstraintOp, LpOutcome, LpProblem};
use proptest::TestCaseError;

/// The largest program the enumerator takes.
pub(crate) const MAX_VARIABLES: usize = 5;

/// Feasibility and pivot tolerance on the enumerated vertices, and the
/// tolerance [`check`] certifies at: the tests' programs have
/// coefficients of order one, so an optimum is held to 1e-9, not to the
/// 1e-6 the engine's own debug check allows production programs.
const TOL: f64 = 1e-9;

/// What the enumerator decides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

/// The verdict on `p` (at most [`MAX_VARIABLES`] variables).
pub(crate) fn verdict(p: &LpProblem) -> Verdict {
    let Some(best) = best_vertex(p) else {
        return Verdict::Infeasible;
    };
    let mut slice = LpProblem::new();
    for &c in p.objective() {
        slice.add_variable(c);
    }
    for row in p.constraints() {
        slice.add_constraint(row.coeffs.clone(), row.op, 0.0);
    }
    let n = p.num_variables();
    slice.add_constraint((0..n).map(|j| (j, 1.0)).collect(), ConstraintOp::Eq, 1.0);
    match best_vertex(&slice) {
        Some(slope) if slope < -TOL => Verdict::Unbounded,
        _ => Verdict::Optimal(best),
    }
}

/// The least objective over the feasible vertices of `p`; `None` when
/// it has none.
fn best_vertex(p: &LpProblem) -> Option<f64> {
    let n = p.num_variables();
    assert!(n <= MAX_VARIABLES, "{n} variables is not a tiny program");
    // Each hyperplane `a·x = b` as a dense row `[a | b]` scaled to a unit
    // largest coefficient: the rows (an all-zero row meets nothing), then
    // the axes.
    let axes = (0..n).map(|j| Constraint {
        coeffs: vec![(j, 1.0)],
        op: ConstraintOp::Eq,
        rhs: 0.0,
    });
    let mut planes = Vec::new();
    for row in p.constraints().iter().cloned().chain(axes) {
        let mut plane = vec![0.0; n + 1];
        row.coeffs.iter().for_each(|&(j, a)| plane[j] = a);
        plane[n] = row.rhs;
        let scale = plane[..n].iter().fold(0.0f64, |s, a| s.max(a.abs()));
        if scale > 0.0 {
            planes.push(plane.iter().map(|v| v / scale).collect::<Vec<f64>>());
        }
    }
    assert!(planes.len() <= 20, "{} hyperplanes", planes.len());
    (0u32..1 << planes.len())
        .filter(|mask| mask.count_ones() as usize == n)
        .filter_map(|mask| {
            let chosen = (0..planes.len()).filter(|k| mask >> k & 1 == 1);
            intersect(chosen.map(|k| planes[k].clone()).collect())
        })
        .filter(|x| p.is_feasible(x, TOL))
        .map(|x| p.objective_value(&x))
        .reduce(f64::min)
}

/// The one point where the hyperplanes `[a | b]` of a square system
/// meet (Gauss–Jordan elimination with partial pivoting); `None` when
/// they are dependent.
fn intersect(mut rows: Vec<Vec<f64>>) -> Option<Vec<f64>> {
    let n = rows.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&r, &s| rows[r][col].abs().total_cmp(&rows[s][col].abs()))?;
        if rows[pivot][col].abs() <= TOL {
            return None;
        }
        rows.swap(col, pivot);
        let pivot = rows[col].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            let factor = row[col] / pivot[col];
            if r != col && factor != 0.0 {
                row.iter_mut()
                    .zip(&pivot)
                    .for_each(|(v, p)| *v -= factor * p);
            }
        }
    }
    Some((0..n).map(|j| rows[j][n] / rows[j][j]).collect())
}

/// An engine outcome checked against everything the tests can know: an
/// `Optimal` must carry a certificate ([`certify`] at 1e-9), and on a program of at most
/// [`MAX_VARIABLES`] variables the outcome must be the enumerator's
/// verdict, with the objective equal to 1e-9 relative.
pub(crate) fn check(p: &LpProblem, outcome: &LpOutcome) -> Result<(), TestCaseError> {
    if let LpOutcome::Optimal {
        solution, duals, ..
    } = outcome
    {
        certify(p, solution, duals, TOL)
            .map_err(|e| TestCaseError::fail(format!("certificate: {e}")))?;
    }
    if p.num_variables() > MAX_VARIABLES {
        return Ok(());
    }
    match (outcome, verdict(p)) {
        (LpOutcome::Optimal { objective, .. }, Verdict::Optimal(want))
            if (objective - want).abs() <= 1e-9 * want.abs().max(1.0) =>
        {
            Ok(())
        }
        (LpOutcome::Infeasible, Verdict::Infeasible)
        | (LpOutcome::Unbounded, Verdict::Unbounded) => Ok(()),
        (got, want) => Err(TestCaseError::fail(format!(
            "{got:?}, the vertex reference says {want:?}"
        ))),
    }
}
