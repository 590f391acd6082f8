//! LP problem construction, and the solver's option and outcome types.
//!
//! Problems are built incrementally: declare variables (all implicitly
//! `>= 0`), set objective coefficients, add constraints as sparse rows.
//! The solver converts to standard form internally.

/// Direction of one linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `coeffs · x <= rhs`
    Le,
    /// `coeffs · x >= rhs`
    Ge,
    /// `coeffs · x == rhs`
    Eq,
}

/// One sparse constraint row.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation between the row and `rhs`.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over non-negative variables.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
    /// Everything but the right-hand sides, mixed in as the problem is
    /// built: see [`Self::fingerprint`].
    fingerprint: Signature,
}

impl LpProblem {
    /// Empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with the given objective coefficient (minimized);
    /// returns its index. Variables are constrained to `x >= 0`.
    pub fn add_variable(&mut self, objective_coeff: f64) -> usize {
        assert!(
            objective_coeff.is_finite(),
            "objective coefficient must be finite"
        );
        self.fingerprint.write(4);
        self.fingerprint.write(objective_coeff.to_bits());
        self.objective.push(objective_coeff);
        self.objective.len() - 1
    }

    /// Add a constraint row. Panics on out-of-range variable indices,
    /// duplicate indices, or non-finite values.
    pub fn add_constraint(&mut self, coeffs: Vec<(usize, f64)>, op: ConstraintOp, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        let mut seen = vec![false; self.objective.len()];
        for &(var, coeff) in &coeffs {
            assert!(
                var < self.objective.len(),
                "constraint references unknown variable {var}"
            );
            assert!(coeff.is_finite(), "coefficient must be finite");
            assert!(!seen[var], "duplicate variable {var} in constraint");
            seen[var] = true;
        }
        self.fingerprint.write(1 + op as u64);
        self.fingerprint.write(coeffs.len() as u64);
        for &(var, coeff) in &coeffs {
            self.fingerprint.write(var as u64);
            self.fingerprint.write(coeff.to_bits());
        }
        self.constraints.push(Constraint { coeffs, op, rhs });
    }

    /// Patch one constraint's right-hand side in place. The constraint's
    /// coefficients and operator — its *structure* — are untouched, which
    /// is what lets a [`crate::SimplexWorkspace`] warm-start the
    /// re-solve. Panics on an out-of-range row or non-finite rhs.
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        self.constraints[row].rhs = rhs;
    }

    /// One constraint's current right-hand side.
    #[inline]
    pub fn rhs(&self, row: usize) -> f64 {
        self.constraints[row].rhs
    }

    /// Content hash of everything except the right-hand sides: each
    /// variable's objective coefficient and each row's operator, length,
    /// indices and coefficients, in the order they were added (a tag word
    /// per item, so the stream decodes back to the build, counts
    /// included). Equal fingerprints mean a shared standard-form matrix
    /// and cost vector, so a basis saved from one problem is dual
    /// feasible for the other and its factorization still valid:
    /// [`crate::SimplexWorkspace`]'s rhs re-entry. [`Self::set_rhs`]
    /// leaves it unchanged.
    #[inline]
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint.0
    }

    /// Number of variables.
    #[inline]
    pub fn num_variables(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    #[inline]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Objective coefficient vector.
    #[inline]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraint rows.
    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.objective.len());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Check whether `x` satisfies every constraint (within `tol`) and
    /// non-negativity. Useful for tests and for validating solver output.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.objective.len() {
            return false;
        }
        if x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * x[i]).sum();
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// A 64-bit structure fingerprint mixed one word per step: xor, an odd
/// multiply (FNV's prime) and a rotation that carries the well-mixed
/// high bits back under the next word. Each step is a bijection of the
/// state for a fixed word and of the word for a fixed state, so two
/// inputs that differ in exactly one word never collide; every item
/// opens with a non-zero tag, so the zero start never lingers.
/// Fingerprints are compared within one process and never stored.
#[derive(Debug, Clone, Copy, Default)]
struct Signature(u64);

impl Signature {
    fn write(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }
}

/// Solver knobs.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard cap on total pivots across both phases.
    pub max_iterations: usize,
    /// Numerical tolerance for reduced costs, pivots and feasibility.
    pub tolerance: f64,
    /// Consecutive non-improving pivots before switching to Bland's rule.
    pub stall_threshold: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200_000,
            tolerance: 1e-9,
            stall_threshold: 64,
        }
    }
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimum found.
    Optimal {
        /// Minimal objective value.
        objective: f64,
        /// Optimal assignment of the problem's variables.
        solution: Vec<f64>,
        /// One multiplier per constraint, in the problem's row order and
        /// sign: `<=` rows price at or below zero, `>=` rows at or above,
        /// and `c − Aᵀy ≥ 0` with `c·x = b·y`. [`crate::certify`] checks
        /// exactly that.
        duals: Vec<f64>,
    },
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded below over the feasible region.
    Unbounded,
    /// Pivot cap exhausted before convergence.
    IterationLimit {
        /// Pivots consumed before the solver gave up.
        iterations: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_problem() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 10.0);
        assert_eq!(p.num_variables(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.objective_value(&[3.0, 4.0]), 11.0);
    }

    #[test]
    fn feasibility_check() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, 2.0)], ConstraintOp::Ge, 4.0);
        assert!(p.is_feasible(&[2.0], 1e-9));
        assert!(p.is_feasible(&[3.0], 1e-9));
        assert!(!p.is_feasible(&[1.0], 1e-9));
        assert!(!p.is_feasible(&[-1.0], 1e-9), "negativity rejected");
        assert!(!p.is_feasible(&[1.0, 2.0], 1e-9), "wrong arity rejected");
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_unknown_variable() {
        let mut p = LpProblem::new();
        p.add_constraint(vec![(3, 1.0)], ConstraintOp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn rejects_duplicate_variable() {
        let mut p = LpProblem::new();
        let x = p.add_variable(0.0);
        p.add_constraint(vec![(x, 1.0), (x, 2.0)], ConstraintOp::Le, 1.0);
    }
}
