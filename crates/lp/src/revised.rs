//! Revised simplex with a maintained basis factorization.
//!
//! The engine behind [`crate::solve`] and [`crate::SimplexWorkspace`].
//! Where a dense tableau rewrites the whole `m x n` matrix on every
//! pivot, the revised method keeps the constraint matrix **immutable and
//! sparse** (one flat column-compressed
//! store plus a row-compressed copy of it, `crate::sparse`) and works
//! through a factorization of the current basis `B`:
//!
//! * a **sparse LU factorization** ([`crate::lu::SparseLu`]: its
//!   triangular part first, threshold Markowitz on the rest) of the
//!   basis a solve starts from is computed once and rebuilt periodically,
//! * each pivot appends a **sparse product-form eta vector** instead of
//!   touching the factorization — `FTRAN` (solve `B w = v`) and `BTRAN`
//!   (solve `B^T y = v`) apply the LU base and then the eta file, with
//!   zero-skips end to end so hyper-sparse right-hand sides and eta
//!   columns cost only their stored nonzeros,
//! * after a dimension-scaled number of etas (or numerical trouble) the basis is
//!   **refactorized** from scratch, which also re-derives the basic
//!   solution from the raw right-hand side and so bounds drift,
//! * pricing reads **maintained reduced costs**: `d` is computed from
//!   scratch (`y = B^{-T} c_B`, `d_j = c_j - y · a_j`) on entry to every
//!   primal phase, after every refactorization and on every iteration
//!   under Bland's rule, and in between is updated from the pivot row
//!   (`d_j -= (d_q / alpha_q) alpha_j`), primal and dual pivots alike. A
//!   maintained `d` may *propose* a pivot but never certifies
//!   optimality: a phase returns `Optimal` only straight after a fresh
//!   pass that found no candidate. That pass's multipliers are kept and
//!   returned with the optimum as its duals, which [`crate::certify`]
//!   checks.
//!
//! The pivot row `alpha_j = rho · a_j` (`rho = B^{-T} e_r`) comes from
//! one **row-major kernel** (`RevisedSimplex::pivot_row`): it scatters
//! `rho_i · A[i, ·]` for the rows with `rho_i != 0` only, in ascending
//! row order, which is the order a column-wise dot product over the
//! rows-ascending column store accumulates in — so every `alpha_j` has
//! the column-wise result's exact bits while the rows `rho` misses
//! (three quarters of them on the failure-sweep programs) cost nothing.
//!
//! The payoff is warm restarts: the basis is a *set of column indices*
//! plus a factorization, so an rhs-patched problem re-enters without
//! any saved tableau ([`RevisedSimplex::install_rhs`], then
//! [`RevisedSimplex::reoptimize`]), and a caller's feasible vertex can
//! replace the all-artificial basis before the first pivot
//! ([`RevisedSimplex::install_start`], then the same `reoptimize`:
//! phase 2 alone). The two-phase [`RevisedSimplex::run`] serves callers
//! with no vertex to offer and refused starts.
//!
//! Pricing is **devex** in both directions — column weights choose
//! the primal entering column, row weights the dual leaving row — with
//! a non-sticky hand-over to **Bland's rule** after a stalled primal
//! stretch; the crate docs' "Pricing and refactorization policy" gives
//! the rules. Ratio-test near-ties, primal and dual, break on the largest
//! pivot magnitude except under Bland's rule, whose termination proof
//! needs the lowest basic index. Artificials never re-enter in phase 2.

use crate::certify::{certify, VERIFY_TOL};
use crate::lu::{SparseLu, PIVOT_MIN};
use crate::problem::{ConstraintOp, LpOutcome, LpProblem, SimplexOptions};
use crate::sparse::Compressed;

/// Eta vectors tolerated before the basis is refactorized. The sparse
/// Markowitz factorization is cheap and each one also buys a fresh
/// pricing pass, while long eta chains make every FTRAN/BTRAN denser.
/// Swept with fixed limits 8..100: the bench min-max program (m = 200,
/// this formula gives 33) is flat from 33 to 64 and 50 % slower at 8;
/// `failure_sweep` is flat for every `(m / 3..10).clamp(12..24, 32..64)`
/// tried, following which tie-breaks a refresh flips, not the limit.
fn refactor_limit(m: usize) -> usize {
    (m / 6).clamp(12, 48)
}

/// Devex weights are approximate; long pivot chains can inflate them
/// until the ratio `d_j^2 / w_j` loses all contrast. Past this bound
/// the reference framework is reset to the unit weights.
const DEVEX_WEIGHT_CEILING: f64 = 1e12;

/// How one primal phase ([`RevisedSimplex::optimize`]) ended.
pub(crate) enum PhaseResult {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// What [`RevisedSimplex::optimize`] knows about its reduced costs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pricing {
    /// Recomputed from the multipliers at the current basis: may
    /// certify optimality.
    Fresh,
    /// Carried across every pivot since the last fresh pass by the
    /// pivot-row update: may propose a pivot, nothing more.
    Maintained,
    /// Behind the basis (phase entry, a Bland pivot, a
    /// refactorization): recompute before use.
    Stale,
}

/// Factorization and pricing telemetry accumulated by one engine across
/// its lifetime (cold build, warm re-entries, everything). Drained by
/// [`RevisedSimplex::take_counters`] into
/// [`crate::WarmStats`] so sweep reports can tell *why* a solve was
/// slow: `refactorizations` and `eta_pivots` measure basis churn,
/// `max_eta_chain` the longest product-form file any FTRAN had to walk,
/// `lu_fill_nnz` the worst fill-in a factorization produced, and
/// `pricing_fallbacks` how often devex handed over to Bland's rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EngineCounters {
    pub(crate) refactorizations: usize,
    pub(crate) eta_pivots: usize,
    pub(crate) max_eta_chain: usize,
    pub(crate) lu_fill_nnz: usize,
    pub(crate) pricing_fallbacks: usize,
}

/// Solve with default options on the revised engine.
pub fn solve(problem: &LpProblem) -> LpOutcome {
    solve_with(problem, SimplexOptions::default())
}

/// Solve with explicit options on the revised engine.
pub fn solve_with(problem: &LpProblem, options: SimplexOptions) -> LpOutcome {
    RevisedSimplex::build(problem, options).run(problem)
}

/// One product-form update: basis column `row` was replaced, and
/// `B_old^{-1} a_entering` is the eta vector — stored sparse as its
/// pivot-row entry plus the off-pivot nonzeros `nz` (rows ascending),
/// which FTRAN/BTRAN walk instead of a dense length-`m` column.
struct Eta {
    row: usize,
    pivot: f64,
    nz: Vec<(u32, f64)>,
}

/// The revised-simplex engine over one problem's standard form. See the
/// module docs for the algorithm; [`crate::SimplexWorkspace`] keeps one
/// of these alive between solves as the retained basis.
pub(crate) struct RevisedSimplex {
    /// Equality-form matrix, column-compressed: lane `j` lists the
    /// non-zero `(row, value)` entries of column `j`, rows ascending.
    cols: Compressed,
    /// The same matrix row-compressed (lane `i` lists row `i`'s
    /// `(column, value)` entries: the problem's coefficients in their
    /// given order, then the row's slack/surplus and artificial). The
    /// pivot-row kernel's input. Both copies are built once and never
    /// patched.
    rows: Compressed,
    /// Sign-normalized right-hand side.
    b: Vec<f64>,
    m: usize,
    n: usize,
    /// Structural (original) variable count; columns `nv..` are slack,
    /// surplus and artificial.
    nv: usize,
    /// First artificial column.
    pub(crate) artificial_start: usize,
    /// Row normalization signs fixed at the cold build (`-1.0` for rows
    /// flipped to make the original rhs non-negative); rhs patches are
    /// re-signed with these so the retained layout stays valid.
    signs: Vec<f64>,
    /// Each row's own logical column: its slack or surplus, or its
    /// artificial on an `==` row (which has neither). What a
    /// caller-supplied start leaves basic in the rows it does not name.
    logical: Vec<usize>,
    /// Basic variable of each row; `B`'s column `i` is column `basis[i]`.
    pub(crate) basis: Vec<usize>,
    /// Column -> basis row, `usize::MAX` when nonbasic.
    position: Vec<usize>,
    /// Current basic values `x_B = B^{-1} b`, updated per pivot and
    /// recomputed from scratch at every refactorization.
    pub(crate) xb: Vec<f64>,
    lu: SparseLu,
    etas: Vec<Eta>,
    /// Cost vector of the phase currently optimized (length `n`).
    phase_cost: Vec<f64>,
    /// Devex reference-framework weights, one per column. Reset to the
    /// unit framework at each phase boundary, updated per pivot.
    devex: Vec<f64>,
    /// Multipliers `y = B^{-T} c_B` of the last fresh pricing pass: when a
    /// phase returns `Optimal`, the duals of its optimum (in the
    /// sign-normalized rows).
    y: Vec<f64>,
    /// Reduced costs of the current phase under [`Self::optimize`]'s
    /// contract (fresh or maintained from the pivot row), zero on basic
    /// columns; only the columns the phase may enter are kept up.
    d: Vec<f64>,
    /// `y` and `d` are a fresh phase-2 pass at this basis that priced
    /// every column out: set where [`Self::optimize`]`(true)` returns
    /// `Optimal`, cleared by a pivot and by a new phase cost. An rhs
    /// patch changes neither, so [`Self::reoptimize`] starts from them.
    priced: bool,
    /// Dual devex weights, one per basis row: [`Self::dual_optimize`]
    /// leaves on the row maximizing `x_i^2 / w_i`. Reset to 1 at the
    /// start of each repair, updated from every pivot column.
    dual_devex: Vec<f64>,
    /// Pivot-row kernel output: `alpha[j] = rho · a_j` for the columns
    /// listed in `touched`, zero everywhere else.
    alpha: Vec<f64>,
    touched: Vec<u32>,
    /// `mark[j]` while the kernel has column `j` in `touched`.
    mark: Vec<bool>,
    pub(crate) options: SimplexOptions,
    pub(crate) iterations_used: usize,
    /// Pivots the cold solve that first optimized this engine took
    /// (written by the workspace when it retains the engine): what
    /// [`Self::reoptimize`] sizes its dual-repair budget against.
    pub(crate) cold_pivots: usize,
    /// Recycled length-`m` buffers (pricing multipliers, pivot
    /// columns): the solve loop allocates nothing in steady state.
    scratch: Vec<Vec<f64>>,
    /// Permutation staging for the sparse LU solves (length `m`).
    ptmp: Vec<f64>,
    /// Recycled sparse eta payloads (retired at refactorization).
    eta_pool: Vec<Vec<(u32, f64)>>,
    counters: EngineCounters,
}

impl RevisedSimplex {
    /// Build the standard form and name the initial (unit) basis: rows
    /// with a negative rhs are flipped, then each row gets its slack
    /// (`<=`) or surplus and artificial (`>=`) or artificial (`==`).
    /// Nothing is factored yet: [`Self::run`] factors the unit basis,
    /// [`Self::install_start`] the caller's vertex in its place.
    pub(crate) fn build(problem: &LpProblem, options: SimplexOptions) -> Self {
        let m = problem.num_constraints();
        let nv = problem.num_variables();

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
        let num_slack = problem
            .constraints()
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();
        let num_artificial = plans.iter().filter(|p| p.op != ConstraintOp::Le).count();
        let n = nv + num_slack + num_artificial;

        let nnz = problem
            .constraints()
            .iter()
            .map(|c| c.coeffs.len())
            .sum::<usize>()
            + num_slack
            + num_artificial;
        let mut rows = Compressed::with_capacity(m, nnz);
        let mut b = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];
        let mut logical = Vec::with_capacity(m);
        let mut signs = Vec::with_capacity(m);
        let mut slack_col = nv;
        let mut art_col = nv + num_slack;
        for (i, (c, plan)) in problem.constraints().iter().zip(&plans).enumerate() {
            let sign = if plan.flip { -1.0 } else { 1.0 };
            signs.push(sign);
            for &(var, coeff) in &c.coeffs {
                rows.push(var, sign * coeff);
            }
            b[i] = sign * c.rhs;
            match plan.op {
                ConstraintOp::Le => {
                    rows.push(slack_col, 1.0);
                    basis[i] = slack_col;
                    logical.push(slack_col);
                    slack_col += 1;
                }
                ConstraintOp::Ge => {
                    rows.push(slack_col, -1.0); // surplus
                    logical.push(slack_col);
                    slack_col += 1;
                    rows.push(art_col, 1.0);
                    basis[i] = art_col;
                    art_col += 1;
                }
                ConstraintOp::Eq => {
                    rows.push(art_col, 1.0);
                    basis[i] = art_col;
                    logical.push(art_col);
                    art_col += 1;
                }
            }
            rows.close_lane();
        }
        debug_assert_eq!(slack_col, nv + num_slack);
        debug_assert_eq!(art_col, n);

        let mut position = vec![usize::MAX; n];
        for (row, &var) in basis.iter().enumerate() {
            position[var] = row;
        }
        Self {
            cols: rows.transpose(n),
            rows,
            b,
            m,
            n,
            nv,
            artificial_start: nv + num_slack,
            signs,
            logical,
            basis,
            position,
            xb: Vec::new(),
            lu: SparseLu::empty(),
            etas: Vec::new(),
            phase_cost: vec![0.0; n],
            devex: vec![1.0; n],
            y: Vec::new(),
            d: vec![0.0; n],
            priced: false,
            dual_devex: Vec::new(),
            alpha: vec![0.0; n],
            touched: Vec::new(),
            mark: vec![false; n],
            options,
            iterations_used: 0,
            cold_pivots: 0,
            scratch: Vec::new(),
            ptmp: vec![0.0; m],
            eta_pool: Vec::new(),
            counters: EngineCounters::default(),
        }
    }

    /// Replace the unit basis [`Self::build`] named with a caller-supplied
    /// vertex: each `(row, column)` of `start` makes structural `column`
    /// basic in `row`, every other row keeps its logical column. The
    /// caller continues with [`Self::reoptimize`], exactly as after a
    /// warm re-entry. `false` — the engine is then in no usable state
    /// and the caller builds a fresh one — when a pair is out of range
    /// or names a non-structural column, a row or column is named twice,
    /// the basis is singular, or the vertex is not feasible (`x_B`
    /// negative, or an artificial basic above zero).
    pub(crate) fn install_start(&mut self, start: &[(usize, usize)]) -> bool {
        let tol = self.options.tolerance;
        self.basis.clone_from(&self.logical);
        self.position.fill(usize::MAX);
        for &(row, col) in start {
            // Logical columns sit at `nv..`, so a row still holding one
            // has not been named yet.
            if row >= self.m
                || col >= self.nv
                || self.basis[row] < self.nv
                || self.position[col] != usize::MAX
            {
                return false;
            }
            self.basis[row] = col;
            self.position[col] = row;
        }
        for (row, &var) in self.basis.iter().enumerate() {
            self.position[var] = row;
        }
        self.refactor() && self.xb.iter().all(|&x| x >= -tol) && !self.artificial_still_basic()
    }

    /// Test hook: the current basis in [`Self::install_start`]'s terms —
    /// its structural columns dealt to the rows whose own logical column
    /// is nonbasic (which row holds which is immaterial: the basis is a
    /// set of columns). `None` when an artificial is basic in a row that
    /// has a surplus, which no start can express.
    #[cfg(test)]
    pub(crate) fn basis_as_start(&self) -> Option<Vec<(usize, usize)>> {
        let mut free_rows = (0..self.m).filter(|&r| self.position[self.logical[r]] == usize::MAX);
        let start = self
            .basis
            .iter()
            .filter(|&&var| var < self.nv)
            .map(|&var| free_rows.next().map(|row| (row, var)))
            .collect::<Option<Vec<_>>>()?;
        free_rows.next().is_none().then_some(start)
    }

    /// Rebuild the LU factorization from the current basis columns, drop
    /// the eta file, and re-derive `x_B` from the raw rhs (bounding
    /// accumulated drift). `false` when the basis matrix is singular.
    fn refactor(&mut self) -> bool {
        let Some(lu) = SparseLu::factor(&self.cols, &self.basis) else {
            return false;
        };
        self.counters.refactorizations += 1;
        self.counters.lu_fill_nnz = self.counters.lu_fill_nnz.max(lu.fill_nnz());
        self.lu = lu;
        self.eta_pool.extend(self.etas.drain(..).map(|eta| eta.nz));
        self.recompute_xb();
        true
    }

    /// Drain the accumulated factorization/pricing telemetry (resets the
    /// counters — callers absorb the delta per solve).
    pub(crate) fn take_counters(&mut self) -> EngineCounters {
        std::mem::take(&mut self.counters)
    }

    /// A zeroed length-`m` buffer from the recycle pool.
    fn take_buffer(&mut self) -> Vec<f64> {
        let mut v = self.scratch.pop().unwrap_or_default();
        v.clear();
        v.resize(self.m, 0.0);
        v
    }

    /// `x_B = B^{-1} b` for the current rhs, into the retained buffer.
    fn recompute_xb(&mut self) {
        let mut xb = std::mem::take(&mut self.xb);
        xb.clear();
        xb.extend_from_slice(&self.b);
        self.apply_ftran(&mut xb);
        self.xb = xb;
    }

    /// FTRAN: overwrite `v` with `B^{-1} v` (sparse LU base, then etas
    /// in application order). Each eta pass walks only the stored
    /// off-pivot nonzeros and skips entirely on a zero pivot-row value.
    fn apply_ftran(&mut self, v: &mut [f64]) {
        self.lu.solve(v, &mut self.ptmp);
        for eta in &self.etas {
            let r = eta.row;
            let wr = v[r] / eta.pivot;
            if wr != 0.0 {
                for &(i, e) in &eta.nz {
                    v[i as usize] -= e * wr;
                }
            }
            v[r] = wr;
        }
    }

    /// BTRAN: overwrite `v` with `B^{-T} v` (etas in reverse, then the
    /// sparse LU base transposed). Each eta contributes one sparse dot
    /// product over its stored nonzeros.
    fn apply_btran(&mut self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let r = eta.row;
            let dot: f64 = eta.nz.iter().map(|&(i, e)| e * v[i as usize]).sum();
            v[r] = (v[r] - dot) / eta.pivot;
        }
        self.lu.solve_transpose(v, &mut self.ptmp);
    }

    /// `B^{-1} a_j` for one column (buffer drawn from the pool).
    fn ftran_col(&mut self, j: usize) -> Vec<f64> {
        let mut w = self.take_buffer();
        for (r, v) in self.cols.lane(j) {
            w[r] = v;
        }
        self.apply_ftran(&mut w);
        w
    }

    /// Simplex multipliers `y = B^{-T} c_B` for the current phase cost
    /// (buffer drawn from the pool; return it with `retire_buffer`).
    fn multipliers(&mut self) -> Vec<f64> {
        let mut y = self.take_buffer();
        for (yi, &var) in y.iter_mut().zip(&self.basis) {
            *yi = self.phase_cost[var];
        }
        self.apply_btran(&mut y);
        y
    }

    /// One pivot-row entry `rho · a_j`, column-wise: what the artificial
    /// drive-out uses, and the reference the row-major kernel is tested
    /// against.
    fn row_entry(&self, rho: &[f64], j: usize) -> f64 {
        let mut alpha = 0.0;
        for (row, v) in self.cols.lane(j) {
            alpha += rho[row] * v;
        }
        alpha
    }

    /// Return a pooled buffer.
    fn retire_buffer(&mut self, v: Vec<f64>) {
        self.scratch.push(v);
    }

    /// Reduced cost `d_j = c_j - y · a_j` of one column.
    fn reduced_cost(&self, j: usize, y: &[f64]) -> f64 {
        let mut d = self.phase_cost[j];
        for (r, v) in self.cols.lane(j) {
            d -= y[r] * v;
        }
        d
    }

    /// Execute one basis change: entering column `q` replaces the basic
    /// variable of row `r`, with `w = B^{-1} a_q` already computed.
    /// Updates `x_B`, the basis maps and the eta file, and refactorizes
    /// on schedule. `false` on a numerically unusable pivot.
    fn pivot(&mut self, r: usize, q: usize, w: Vec<f64>) -> bool {
        if w[r].abs() <= PIVOT_MIN {
            return false;
        }
        let theta = self.xb[r] / w[r];
        for (i, (xi, &wi)) in self.xb.iter_mut().zip(&w).enumerate() {
            if i != r {
                *xi -= theta * wi;
            }
        }
        self.xb[r] = theta;
        self.priced = false;
        self.position[self.basis[r]] = usize::MAX;
        self.basis[r] = q;
        self.position[q] = r;
        self.push_eta(r, w);
        self.counters.eta_pivots += 1;
        self.counters.max_eta_chain = self.counters.max_eta_chain.max(self.etas.len());
        if self.etas.len() >= refactor_limit(self.m) && !self.refactor() {
            return false;
        }
        true
    }

    /// Compress the dense pivot column `w = B^{-1} a_entering` into a
    /// sparse eta (payload recycled through the pool) and retire the
    /// dense buffer back to scratch.
    fn push_eta(&mut self, r: usize, w: Vec<f64>) {
        let mut nz = self.eta_pool.pop().unwrap_or_default();
        nz.clear();
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                nz.push((i as u32, wi));
            }
        }
        self.etas.push(Eta {
            row: r,
            pivot: w[r],
            nz,
        });
        self.scratch.push(w);
    }

    /// Current phase objective `c_B · x_B`.
    fn current_objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&var, &x)| self.phase_cost[var] * x)
            .sum()
    }

    /// One primal phase: pivot until optimal, unbounded or the budget
    /// runs out, under the pricing rules of the module docs.
    /// `ban_artificials` excludes artificial columns from entering
    /// (phase 2 and every warm path). The reduced costs `self.d` are
    /// **fresh** on entry, after every refactorization and on every
    /// Bland iteration, **maintained** from the pivot row in between.
    /// `Optimal` is returned only when a fresh pass prices every column
    /// out: when a maintained `d` finds no candidate, the pass is
    /// repeated fresh and the loop carries on from whatever it finds.
    pub(crate) fn optimize(&mut self, ban_artificials: bool) -> PhaseResult {
        let tol = self.options.tolerance;
        let limit = if ban_artificials {
            self.artificial_start
        } else {
            self.n
        };
        self.reset_devex();
        let mut pricing = Pricing::Stale;
        let mut stall = 0usize;
        let mut bland = false;
        let mut last_obj = f64::INFINITY;
        loop {
            if self.iterations_used >= self.options.max_iterations {
                return PhaseResult::IterationLimit;
            }
            if bland || pricing == Pricing::Stale {
                self.price_refresh(limit);
                pricing = Pricing::Fresh;
            }
            let Some(q) = self.entering(limit, bland) else {
                if pricing == Pricing::Fresh {
                    #[cfg(test)]
                    self.assert_priced_out(limit);
                    self.priced = ban_artificials;
                    return PhaseResult::Optimal;
                }
                pricing = Pricing::Stale;
                continue;
            };
            // Ratio test. Near-tied ratios break on the largest pivot
            // magnitude (numerically safest and the escape hatch out of
            // degenerate plateaus), except under Bland's rule, whose
            // termination proof needs the lowest basic index.
            let w = self.ftran_col(q);
            let mut pivot_row: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, &wi) in w.iter().enumerate() {
                if wi > tol {
                    let ratio = self.xb[i] / wi;
                    let better = ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
                            && pivot_row.is_none_or(|r| {
                                if bland {
                                    self.basis[i] < self.basis[r]
                                } else {
                                    wi > w[r]
                                }
                            }));
                    if better {
                        best_ratio = ratio;
                        pivot_row = Some(i);
                    }
                }
            }
            let Some(r) = pivot_row else {
                return PhaseResult::Unbounded;
            };
            // Bland pivots compute no pivot row, so `d` goes stale (and
            // is re-priced next iteration whether Bland stays or not).
            pricing = if bland {
                Pricing::Stale
            } else {
                self.update_pricing(r, q, &w, limit);
                Pricing::Maintained
            };
            if !self.pivot(r, q, w) {
                return PhaseResult::IterationLimit;
            }
            self.iterations_used += 1;
            if self.etas.is_empty() {
                // `pivot` refactorized: re-derive `d` like `x_B`.
                pricing = Pricing::Stale;
            }
            #[cfg(test)]
            if pricing == Pricing::Maintained {
                self.assert_maintained_matches_fresh(limit);
            }

            let current = self.current_objective();
            if current < last_obj - tol {
                stall = 0;
                last_obj = current;
                bland = false;
            } else {
                stall += 1;
                if stall >= self.options.stall_threshold && !bland {
                    bland = true;
                    self.counters.pricing_fallbacks += 1;
                }
            }
        }
    }

    /// Fresh pricing pass: `d_j = c_j - y · a_j` from newly BTRAN'd
    /// multipliers for every nonbasic column below `limit`, zero on the
    /// basic ones. The multipliers are kept in `self.y`.
    fn price_refresh(&mut self, limit: usize) {
        let y = self.multipliers();
        for j in 0..limit {
            self.d[j] = if self.position[j] == usize::MAX {
                self.reduced_cost(j, &y)
            } else {
                0.0
            };
        }
        let old = std::mem::replace(&mut self.y, y);
        self.retire_buffer(old);
    }

    /// Entering column from the current `d`: lowest eligible index
    /// under Bland, otherwise the devex winner (ties to the lowest
    /// index, keeping the pick deterministic). Basic columns hold
    /// `d == 0` and so never qualify.
    fn entering(&self, limit: usize, bland: bool) -> Option<usize> {
        let tol = self.options.tolerance;
        let d = &self.d[..limit];
        if bland {
            return d.iter().position(|&dj| dj < -tol);
        }
        let mut entering = None;
        let mut best_score = 0.0f64;
        for (j, (&dj, &wj)) in d.iter().zip(&self.devex).enumerate() {
            if dj < -tol {
                let score = dj * dj / wj;
                if score > best_score {
                    best_score = score;
                    entering = Some(j);
                }
            }
        }
        entering
    }

    /// Test hook: the maintained `d` must track a fresh pass, and must
    /// not outlive a refactorization.
    #[cfg(test)]
    fn assert_maintained_matches_fresh(&mut self, limit: usize) {
        assert!(!self.etas.is_empty(), "d maintained across a refactor");
        let y = self.multipliers();
        for j in 0..limit {
            if self.position[j] != usize::MAX {
                assert_eq!(self.d[j], 0.0, "basic column {j} must price at zero");
                continue;
            }
            let fresh = self.reduced_cost(j, &y);
            assert!(
                (self.d[j] - fresh).abs() <= 1e-7 * fresh.abs().max(1.0),
                "maintained d[{j}] = {} drifted from fresh {fresh}",
                self.d[j]
            );
        }
        self.retire_buffer(y);
    }

    /// Test hook: `Optimal` must rest on a from-scratch certificate —
    /// multipliers recomputed here, independently of the loop's
    /// bookkeeping, must equal the kept `self.y` the duals are read from
    /// and reproduce the `d` the loop is about to certify with.
    #[cfg(test)]
    fn assert_priced_out(&mut self, limit: usize) {
        let tol = self.options.tolerance;
        let y = self.multipliers();
        assert!(
            y.iter()
                .map(|v| v.to_bits())
                .eq(self.y.iter().map(|v| v.to_bits())),
            "Optimal returned on kept multipliers that are not a fresh pass"
        );
        for j in (0..limit).filter(|&j| self.position[j] == usize::MAX) {
            let fresh = self.reduced_cost(j, &y);
            assert_eq!(
                self.d[j].to_bits(),
                fresh.to_bits(),
                "Optimal returned on a d[{j}] that is not a fresh pass"
            );
            assert!(fresh >= -tol, "Optimal returned with d[{j}] = {fresh}");
        }
        self.retire_buffer(y);
    }

    /// Reset the devex reference framework to unit weights (every column
    /// is its own reference). Done at each phase boundary: the weights
    /// approximate steepest-edge norms relative to the basis the
    /// framework was anchored at, and a phase switch re-anchors.
    fn reset_devex(&mut self) {
        self.devex.iter_mut().for_each(|w| *w = 1.0);
    }

    /// The pivot-row kernel: `alpha_j = rho · a_j` for every nonbasic
    /// column `j < limit` other than `q`, left in `self.alpha` with the
    /// columns that received a term listed in `self.touched` (every
    /// other `alpha_j` is exactly zero), bit for bit the column-wise dot
    /// product (module docs). The caller consumes the row and then calls
    /// [`Self::clear_pivot_row`].
    fn pivot_row(&mut self, rho: &[f64], limit: usize, q: usize) {
        debug_assert!(self.touched.is_empty());
        for (i, &rho_i) in rho.iter().enumerate() {
            if rho_i == 0.0 {
                continue;
            }
            for (j, v) in self.rows.lane(i) {
                if !self.mark[j] {
                    self.mark[j] = true;
                    self.touched.push(j as u32);
                }
                self.alpha[j] += rho_i * v;
            }
        }
        // Drop what the pricing loop never reads (basic columns, the
        // entering column, artificials a phase bans): at most one entry
        // per row, cheaper to discard once here than to test per term.
        let (alpha, mark, position) = (&mut self.alpha, &mut self.mark, &self.position);
        self.touched.retain(|&j| {
            let j = j as usize;
            let keep = j < limit && j != q && position[j] == usize::MAX;
            if !keep {
                alpha[j] = 0.0;
                mark[j] = false;
            }
            keep
        });
    }

    /// Row `r` of `B^{-1} A` into the kernel's output: BTRAN of `e_r`
    /// (one `rho` per pivot), then [`Self::pivot_row`].
    fn basis_row(&mut self, r: usize, limit: usize, q: usize) {
        let mut rho = self.take_buffer();
        rho[r] = 1.0;
        self.apply_btran(&mut rho);
        self.pivot_row(&rho, limit, q);
        self.retire_buffer(rho);
    }

    /// Zero the kernel's output again (only the touched entries).
    fn clear_pivot_row(&mut self) {
        for &j in &self.touched {
            self.alpha[j as usize] = 0.0;
            self.mark[j as usize] = false;
        }
        self.touched.clear();
    }

    /// Carry the devex weights and the reduced costs across the pivot
    /// `(r, q)` with pivot column `w = B^{-1} a_q` (pre-pivot basis),
    /// both from the pivot row `alpha_j = rho · a_j`: every nonbasic
    /// column's weight becomes `max(w_j, (alpha_j / alpha_q)^2 w_q)`
    /// (Forrest–Goldfarb), the leaving variable re-enters the pool with
    /// `max(w_q / alpha_q^2, 1)`, and a weight past
    /// [`DEVEX_WEIGHT_CEILING`] re-anchors the framework to unit
    /// weights; `d` moves by [`Self::carry_reduced_costs`]. Columns the
    /// row does not touch change in neither.
    fn update_pricing(&mut self, r: usize, q: usize, w: &[f64], limit: usize) {
        let alpha_q = w[r];
        if alpha_q.abs() <= PIVOT_MIN {
            // `pivot` rejects this pivot and the phase ends.
            return;
        }
        let wq = self.devex[q].max(1.0);
        let scale = wq / (alpha_q * alpha_q);
        let step = self.d[q] / alpha_q;
        self.basis_row(r, limit, q);
        let leaving_weight = scale.max(1.0);
        let mut peak = leaving_weight;
        for &j in &self.touched {
            let j = j as usize;
            let alpha = self.alpha[j];
            if alpha != 0.0 && alpha * alpha * scale > self.devex[j] {
                self.devex[j] = alpha * alpha * scale;
            }
            peak = peak.max(self.devex[j]);
        }
        // The leaving variable joins the nonbasic pool.
        self.devex[self.basis[r]] = leaving_weight;
        self.carry_reduced_costs(r, q, step);
        if peak > DEVEX_WEIGHT_CEILING {
            self.reset_devex();
        }
    }

    /// Carry `d` across the pivot `(r, q)` on the kernel's row, which it
    /// then clears: `d_j -= step alpha_j` on the touched columns
    /// (`step = d_q / alpha_q`), the leaving variable prices at `-step`
    /// and the entering one at zero.
    fn carry_reduced_costs(&mut self, r: usize, q: usize, step: f64) {
        for &j in &self.touched {
            self.d[j as usize] -= step * self.alpha[j as usize];
        }
        self.clear_pivot_row();
        self.d[self.basis[r]] = -step;
        self.d[q] = 0.0;
    }

    /// Dual-simplex pivoting from a dual-feasible basis towards primal
    /// feasibility, on the `d` of the kept fresh phase-2 pass: leave on
    /// the infeasible row maximizing `x_i^2 / w_i` (dual devex), enter
    /// by [`Self::dual_entering`] on the kernel's pivot row, carry `d`
    /// across the pivot from that row and re-price fresh after a
    /// refactorization. Artificials never enter. `false` when blocked
    /// (dual ray, bad pivot, or the pivot budget ran out) — the caller
    /// falls back.
    pub(crate) fn dual_optimize(&mut self, max_pivots: usize) -> bool {
        let tol = self.options.tolerance;
        let limit = self.artificial_start;
        self.dual_devex.clear();
        self.dual_devex.resize(self.m, 1.0);
        let mut pivots = 0usize;
        loop {
            let mut leaving: Option<(usize, f64)> = None;
            for (i, (&xi, &wi)) in self.xb.iter().zip(&self.dual_devex).enumerate() {
                if xi < -tol && leaving.is_none_or(|(_, best)| xi * xi / wi > best) {
                    leaving = Some((i, xi * xi / wi));
                }
            }
            let Some((r, _)) = leaving else {
                return true;
            };
            if pivots >= max_pivots {
                return false;
            }
            self.basis_row(r, limit, usize::MAX);
            let Some(q) = self.dual_entering() else {
                self.clear_pivot_row();
                return false;
            };
            self.carry_reduced_costs(r, q, self.d[q] / self.alpha[q]);
            let w = self.ftran_col(q);
            self.update_dual_devex(r, &w);
            if !self.pivot(r, q, w) {
                return false;
            }
            self.iterations_used += 1;
            pivots += 1;
            if self.etas.is_empty() {
                // `pivot` refactorized: re-derive `d` like `x_B`.
                self.price_refresh(limit);
            } else {
                #[cfg(test)]
                self.assert_maintained_matches_fresh(limit);
            }
        }
    }

    /// The dual ratio test over the kernel's pivot row: of the columns
    /// with `alpha_j < -tol` whose `d_j / -alpha_j` is within `tol` of
    /// the minimum, the one with the largest `|alpha_j|`, exact ties to
    /// the lowest index (Harris's second pass, as in the primal test). A
    /// min-max program's dual is mostly ties at zero, where the lowest
    /// index walks zero-step pivots. `None` on a dual ray.
    fn dual_entering(&self) -> Option<usize> {
        let tol = self.options.tolerance;
        let eligible = || {
            self.touched
                .iter()
                .map(|&j| j as usize)
                .filter(|&j| self.alpha[j] < -tol)
        };
        let ratio = |j: usize| self.d[j] / -self.alpha[j];
        let best = eligible().map(ratio).fold(f64::INFINITY, f64::min);
        eligible()
            .filter(|&j| ratio(j) <= best + tol)
            .min_by(|&a, &b| self.alpha[a].total_cmp(&self.alpha[b]).then(a.cmp(&b)))
    }

    /// Carry the dual devex weights across the pivot in row `r` with
    /// pivot column `w = B^{-1} a_q` (pre-pivot basis):
    /// `w_i = max(w_i, (w[i] / w[r])^2 w_r)` for every other row, and the
    /// entering column's row takes `max(w_r / w[r]^2, 1)`. Re-anchored
    /// to unit weights when one passes [`DEVEX_WEIGHT_CEILING`] (a pivot
    /// too small for `pivot` ends the repair, weights and all).
    fn update_dual_devex(&mut self, r: usize, w: &[f64]) {
        let scale = self.dual_devex[r] / (w[r] * w[r]);
        let mut peak = scale.max(1.0);
        for (weight, &wi) in self.dual_devex.iter_mut().zip(w) {
            if wi != 0.0 {
                *weight = weight.max(wi * wi * scale);
                peak = peak.max(*weight);
            }
        }
        self.dual_devex[r] = scale.max(1.0);
        if peak > DEVEX_WEIGHT_CEILING {
            self.dual_devex.iter_mut().for_each(|w| *w = 1.0);
        }
    }

    /// Install a phase cost vector: zero everywhere except `values` on
    /// the leading columns.
    fn set_phase_cost(&mut self, values: &[f64]) {
        self.priced = false;
        self.phase_cost.iter_mut().for_each(|c| *c = 0.0);
        self.phase_cost[..values.len()].copy_from_slice(values);
    }

    /// Install the phase-1 cost (1 on artificials).
    fn set_phase1_cost(&mut self) {
        self.priced = false;
        for (j, c) in self.phase_cost.iter_mut().enumerate() {
            *c = if j >= self.artificial_start { 1.0 } else { 0.0 };
        }
    }

    /// Full two-phase cold solve from the unit basis [`Self::build`]
    /// named: phase 1 drives the artificials to zero (or reports
    /// `Infeasible`), phase 2 optimizes the objective.
    pub(crate) fn run(&mut self, problem: &LpProblem) -> LpOutcome {
        let tol = self.options.tolerance;
        // A permuted identity always factors; were it not to, report a
        // numerical iteration limit rather than panic.
        if !self.refactor() {
            return LpOutcome::IterationLimit { iterations: 0 };
        }
        if self.artificial_start < self.n {
            self.set_phase1_cost();
            match self.optimize(false) {
                PhaseResult::Optimal => {}
                // Phase 1 is bounded below by 0; "unbounded" means
                // numerical trouble. Report as an iteration limit.
                PhaseResult::Unbounded | PhaseResult::IterationLimit => {
                    return LpOutcome::IterationLimit {
                        iterations: self.iterations_used,
                    }
                }
            }
            if self.current_objective() > tol.max(1e-7) {
                return LpOutcome::Infeasible;
            }
            self.drive_out_artificials();
        }

        self.set_phase_cost(problem.objective());
        match self.optimize(true) {
            PhaseResult::Optimal => {
                let solution = self.extract_solution(problem.num_variables());
                self.optimal(problem, solution)
            }
            PhaseResult::Unbounded => LpOutcome::Unbounded,
            PhaseResult::IterationLimit => LpOutcome::IterationLimit {
                iterations: self.iterations_used,
            },
        }
    }

    /// Pivot any artificial still basic (at value ~0) out of the basis
    /// when a structural/slack pivot exists in its row; rows without one
    /// are redundant and the artificial stays harmlessly basic at 0
    /// (phase 2 bans artificial entering columns).
    fn drive_out_artificials(&mut self) {
        let tol = self.options.tolerance;
        for r in 0..self.m {
            if self.basis[r] < self.artificial_start {
                continue;
            }
            let mut rho = self.take_buffer();
            rho[r] = 1.0;
            self.apply_btran(&mut rho);
            let candidate = (0..self.artificial_start)
                .filter(|&j| self.position[j] == usize::MAX)
                .find(|&j| self.row_entry(&rho, j).abs() > tol);
            self.retire_buffer(rho);
            if let Some(q) = candidate {
                let w = self.ftran_col(q);
                // The pivot element may still be tiny after drift; leave
                // the artificial in place in that case (harmless at 0).
                if w[r].abs() > tol {
                    self.pivot(r, q, w);
                }
            }
        }
    }

    /// Read the current basic solution (non-basic variables are zero).
    pub(crate) fn extract_solution(&self, num_variables: usize) -> Vec<f64> {
        let mut solution = vec![0.0; num_variables];
        for (row, &var) in self.basis.iter().enumerate() {
            if var < solution.len() {
                solution[var] = self.xb[row].max(0.0);
            }
        }
        solution
    }

    /// The `Optimal` outcome for `solution`, read at the current basis
    /// after a phase returned `Optimal`: its duals are the multipliers of
    /// the fresh pass that ended the phase, in the problem's own row
    /// signs. Debug builds certify the pair.
    pub(crate) fn optimal(&self, problem: &LpProblem, solution: Vec<f64>) -> LpOutcome {
        let duals: Vec<f64> = self.y.iter().zip(&self.signs).map(|(y, s)| s * y).collect();
        debug_assert_eq!(certify(problem, &solution, &duals, VERIFY_TOL), Ok(()));
        #[cfg(test)]
        SparseLu::factor(&self.cols, &self.basis)
            .expect("an optimal basis is nonsingular")
            .check_invariants(&self.cols, &self.basis);
        LpOutcome::Optimal {
            objective: problem.objective_value(&solution),
            solution,
            duals,
        }
    }

    /// Install a patched rhs (re-signed with the retained row signs) and
    /// recompute `x_B`. Used by the rhs-only warm path; the basis and
    /// column values are untouched.
    pub(crate) fn install_rhs(&mut self, problem: &LpProblem) {
        for (i, c) in problem.constraints().iter().enumerate() {
            self.b[i] = self.signs[i] * c.rhs;
        }
        self.recompute_xb();
    }

    /// Re-optimize from the current basis with the phase-2 objective
    /// installed. An rhs re-entry keeps the fresh phase-2 pass its last
    /// solve ended on (`priced`): when the patched `x_B` is still
    /// feasible that pass is already the optimum's certificate, and
    /// otherwise its `d` is dual feasible and dual-simplex repair starts
    /// from it before a primal polish. A caller's start (never priced,
    /// primal feasible by construction) gets the plain primal pass.
    ///
    /// `false` means the basis could not be reused (the caller falls
    /// back to a cold start, so no outcome is ever lost).
    pub(crate) fn reoptimize(&mut self, objective: &[f64]) -> bool {
        let tol = self.options.tolerance;
        if !self.priced {
            self.set_phase_cost(objective);
        }
        self.iterations_used = 0;
        // A repair that has taken twice the pivots of this program's
        // own cold solve is not going to be cheaper than starting over.
        // (`4 * m + 64`, the bound while cold solves ran phase 1, let a
        // blocked repair burn ~1 350 pivots — 55-195 ms on `experiments
        // churn --smoke` — before a cold solve that now takes 2-8 ms.)
        // The floor grows with the program, as a vertex start can leave
        // the cold solve 0 pivots: `experiments all` at seeds 11 and 12
        // fell back 16 times under a flat 64 and once under `m`.
        let dual_budget = 2 * self.cold_pivots + self.m.max(64);

        if self.xb.iter().all(|&x| x >= -tol) {
            if self.priced {
                #[cfg(test)]
                self.assert_priced_out(self.artificial_start);
                return true;
            }
            return matches!(self.optimize(true), PhaseResult::Optimal);
        }
        self.priced
            && self.dual_optimize(dual_budget)
            && matches!(self.optimize(true), PhaseResult::Optimal)
    }

    /// Whether an artificial variable is basic at a meaningfully
    /// positive level — the retained basis cannot represent the patched
    /// problem, and the warm result must be discarded.
    pub(crate) fn artificial_still_basic(&self) -> bool {
        let tol = self.options.tolerance;
        self.basis
            .iter()
            .zip(&self.xb)
            .any(|(&var, &x)| var >= self.artificial_start && x > tol)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::problem::{ConstraintOp, LpProblem};
    use crate::reference::{self, Verdict};
    use crate::{SimplexWorkspace, WarmStats};

    /// `outcome` must be `p`'s optimum at `expect_obj`, certified and
    /// equal to the vertex reference's.
    fn assert_optimal(p: &LpProblem, outcome: &LpOutcome, expect_obj: f64, tol: f64) -> Vec<f64> {
        reference::check(p, outcome).unwrap();
        match outcome {
            LpOutcome::Optimal {
                objective,
                solution,
                ..
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
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 2.0);
        let sol = assert_optimal(&p, &solve(&p), -8.0, 1e-7);
        assert!((sol[0] - 0.0).abs() < 1e-7);
        assert!((sol[1] - 4.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        let sol = assert_optimal(&p, &solve(&p), 3.0, 1e-7);
        assert!(p.is_feasible(&sol, 1e-7));
    }

    #[test]
    fn infeasible_detected() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(solve(&p), LpOutcome::Infeasible);
        assert_eq!(reference::verdict(&p), Verdict::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(solve(&p), LpOutcome::Unbounded);
        assert_eq!(reference::verdict(&p), Verdict::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        p.add_constraint(vec![(x, -1.0)], ConstraintOp::Le, -3.0);
        let sol = assert_optimal(&p, &solve(&p), 3.0, 1e-7);
        assert!((sol[0] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn min_max_ratio_shape() {
        let mut p = LpProblem::new();
        let t = p.add_variable(1.0);
        let x1 = p.add_variable(0.0);
        let x2 = p.add_variable(0.0);
        p.add_constraint(vec![(x1, 1.0), (x2, 1.0)], ConstraintOp::Eq, 1.0);
        p.add_constraint(vec![(x1, 5.0), (t, -10.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x2, 5.0), (t, -2.0)], ConstraintOp::Le, 0.0);
        let sol = assert_optimal(&p, &solve(&p), 5.0 / 12.0, 1e-7);
        assert!((sol[1] - 5.0 / 6.0).abs() < 1e-6);
        assert!((sol[2] - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut p = LpProblem::new();
        let x = p.add_variable(1.0);
        let y = p.add_variable(3.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = assert_optimal(&p, &solve(&p), 2.0, 1e-7);
        assert!((sol[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_constraint_problem() {
        let mut p = LpProblem::new();
        let _x = p.add_variable(1.0);
        let sol = assert_optimal(&p, &solve(&p), 0.0, 1e-9);
        assert_eq!(sol.len(), 1);
    }

    #[test]
    fn degenerate_problem_terminates() {
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, 2.0), (y, 1.0)], ConstraintOp::Le, 0.0);
        let sol = assert_optimal(&p, &solve(&p), 0.0, 1e-7);
        assert!(p.is_feasible(&sol, 1e-7));
    }

    /// Beale's classic cycling example: pure Dantzig pricing with naive
    /// tie-breaking loops forever at the degenerate origin. The stall
    /// detector must hand over to Bland's rule and terminate at the true
    /// optimum (-1/20).
    #[test]
    fn beale_cycling_example_terminates() {
        let mut p = LpProblem::new();
        let x1 = p.add_variable(-0.75);
        let x2 = p.add_variable(150.0);
        let x3 = p.add_variable(-0.02);
        let x4 = p.add_variable(6.0);
        p.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -1.0 / 25.0), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -1.0 / 50.0), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        p.add_constraint(vec![(x3, 1.0)], ConstraintOp::Le, 1.0);
        let sol = assert_optimal(&p, &solve(&p), -0.05, 1e-9);
        assert!(p.is_feasible(&sol, 1e-9));
    }

    /// A degenerate program forced through an aggressive stall threshold
    /// so Bland's rule engages almost immediately — termination and the
    /// optimum must be unaffected.
    #[test]
    fn blands_rule_engages_on_degenerate_program() {
        // x = y is forced by two opposing rows both active at the
        // degenerate origin; the optimum sits at (1, 1).
        let mut p = LpProblem::new();
        let x = p.add_variable(-1.0);
        let y = p.add_variable(-1.0);
        p.add_constraint(vec![(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, -1.0), (y, 1.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        let options = SimplexOptions {
            stall_threshold: 1,
            ..SimplexOptions::default()
        };
        let outcome = solve_with(&p, options);
        let sol = assert_optimal(&p, &outcome, -2.0, 1e-7);
        assert!(p.is_feasible(&sol, 1e-7));
    }

    /// Long pivot chains cross the eta-file refactorization limit; the
    /// optimum must still carry a certificate.
    #[test]
    fn refactorization_preserves_results() {
        // A transport-like chain with enough pivots to trip REFACTOR_LIMIT.
        let stages = 60usize;
        let mut p = LpProblem::new();
        let vars: Vec<usize> = (0..stages)
            .map(|s| p.add_variable(1.0 + (s % 7) as f64 * 0.25))
            .collect();
        for s in 0..stages {
            p.add_constraint(
                if s == 0 {
                    vec![(vars[0], 1.0)]
                } else {
                    vec![(vars[s - 1], 0.5), (vars[s], 1.0)]
                },
                ConstraintOp::Ge,
                1.0 + (s % 3) as f64,
            );
        }
        let mut engine = RevisedSimplex::build(&p, SimplexOptions::default());
        let outcome = engine.run(&p);
        assert!(matches!(outcome, LpOutcome::Optimal { .. }), "{outcome:?}");
        reference::check(&p, &outcome).unwrap();
        assert!(engine.take_counters().refactorizations >= 3);
    }

    /// Harris's second pass: of the ratios within `tol` of the minimum
    /// the largest `|alpha_j|` enters, exact ties to the lowest index
    /// whatever the kernel's order; a clearly larger ratio never does.
    #[test]
    fn dual_ratio_ties_break_on_the_largest_pivot() {
        let mut p = LpProblem::new();
        (0..5).for_each(|_| _ = p.add_variable(0.0));
        p.add_constraint((0..5).map(|j| (j, 1.0)).collect(), ConstraintOp::Le, 1.0);
        let mut e = RevisedSimplex::build(&p, SimplexOptions::default());
        let alpha = [-0.5, -2.0, -2.0, -4.0, 3.0];
        let d = [0.0, 2e-12, 0.0, 1.0, 0.0];
        for j in (0..5).rev() {
            (e.alpha[j], e.d[j]) = (alpha[j], d[j]);
            e.touched.push(j as u32);
        }
        assert_eq!(e.dual_entering(), Some(1));
    }

    /// The stall: a min-max program whose only cost is on `t`, so its
    /// dual is almost all ties at zero. Raising a third of the
    /// residuals breaks their rows; the lowest-index tie-break walked
    /// 2 831 mostly zero-step dual pivots here, past the repair budget
    /// (a fallback). Breaking the ties on the largest pivot takes 72.
    #[test]
    fn degenerate_min_max_repair_stays_warm() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (flows, exits, links) = (40, 4, 30);
        let mut p = LpProblem::new();
        (0..=flows * exits).for_each(|j| _ = p.add_variable(if j == 0 { 1.0 } else { 0.0 }));
        for f in 0..flows {
            let row = (1..=exits).map(|i| (f * exits + i, 1.0)).collect();
            p.add_constraint(row, ConstraintOp::Eq, 1.0);
        }
        // Each exit's path crosses two links on average; a link carries
        // background load (a residual) one time in five.
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..links {
            let on_link = |x| rng.gen_bool(0.07).then_some((x, 1.0));
            let mut row: Vec<_> = (1..=flows * exits).filter_map(on_link).collect();
            row.push((0, -10.0));
            let residual = rng.gen_range(-40..10i32).max(0);
            p.add_constraint(row, ConstraintOp::Le, -f64::from(residual));
        }
        let mut q = p.clone();
        for l in (flows..flows + links).step_by(3) {
            q.set_rhs(l, p.constraints()[l].rhs - 12.0);
        }
        let mut e = RevisedSimplex::build(&p, SimplexOptions::default());
        assert!(matches!(e.run(&p), LpOutcome::Optimal { .. }));
        e.install_rhs(&q);
        e.iterations_used = 0;
        assert!(e.dual_optimize(usize::MAX));
        let pivots = e.iterations_used;
        assert!(pivots < 2831 / 10, "{pivots} dual pivots");
        let mut ws = SimplexWorkspace::new();
        ws.solve(&p);
        let LpOutcome::Optimal { objective, .. } = solve(&q) else {
            panic!("the patched program is feasible and bounded")
        };
        assert_optimal(&q, &ws.solve(&q), objective, 1e-9);
        let stats = ws.stats();
        assert_eq!(stats.warm_fallbacks, 0, "{stats:?}");
        assert!(stats.eta_pivots > 0 && stats.max_eta_chain > 0 && stats.lu_fill_nnz > 0);
    }

    pub(crate) mod proptests {
        use super::*;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::ops::Range;

        /// With probability `density`, a coefficient for variable `i`.
        fn sparse_entry(rng: &mut StdRng, density: f64, i: usize) -> Option<(usize, f64)> {
            if rng.gen_bool(density) {
                Some((i, rng.gen_range(-4.0..4.0)))
            } else {
                None
            }
        }

        /// The large size class: 40..56 rows over 80..110 columns at
        /// density 0.12, so a solve crosses the eta limit several times.
        pub(crate) fn large_program(seed: u64, mixed: bool) -> LpProblem {
            random_program(seed, mixed, 40..56, 80..110, 0.12)
        }

        /// The small size class the strategy-built properties below
        /// cover, drawn from a seed: 1..6 rows over 1..5 columns.
        pub(crate) fn small_program(seed: u64, mixed: bool) -> LpProblem {
            random_program(seed, mixed, 1..6, 1..5, 0.8)
        }

        /// A sparse program feasible at a known point `x0` and bounded
        /// by a box row. `mixed` draws `<=`, `>=` and `==` rows;
        /// otherwise every row is `<=`.
        fn random_program(
            seed: u64,
            mixed: bool,
            rows: Range<usize>,
            cols: Range<usize>,
            density: f64,
        ) -> LpProblem {
            let mut rng = StdRng::seed_from_u64(seed);
            let (m, nv) = (rng.gen_range(rows), rng.gen_range(cols));
            let mut p = LpProblem::new();
            for _ in 0..nv {
                p.add_variable(rng.gen_range(-1.0..3.0));
            }
            let x0: Vec<f64> = (0..nv).map(|_| rng.gen_range(0.2..2.0)).collect();
            for _ in 0..m {
                let row: Vec<(usize, f64)> = (0..nv)
                    .filter_map(|i| sparse_entry(&mut rng, density, i))
                    .collect();
                let at_x0: f64 = row.iter().map(|&(i, a)| a * x0[i]).sum();
                let slack = rng.gen_range(0.0..2.0);
                let (op, rhs) = match if mixed { rng.gen_range(0..3) } else { 0 } {
                    0 => (ConstraintOp::Le, at_x0 + slack),
                    1 => (ConstraintOp::Ge, at_x0 - slack),
                    _ => (ConstraintOp::Eq, at_x0),
                };
                p.add_constraint(row, op, rhs);
            }
            p.add_constraint(
                (0..nv).map(|i| (i, 1.0)).collect(),
                ConstraintOp::Le,
                x0.iter().sum::<f64>() + 1.0,
            );
            p
        }

        /// Cold-solve `p`, which is feasible and bounded by
        /// construction: the outcome must be a certified optimum. Then
        /// pull every rhs in around half that optimum, which the optimum
        /// itself breaks in many rows: the rhs re-entry's dual repair
        /// must reach a certified optimum at a cold solve's objective.
        /// Returns the cold solve's telemetry.
        fn assert_certified(p: &LpProblem) -> Result<WarmStats, TestCaseError> {
            let mut ws = SimplexWorkspace::new();
            let outcome = ws.solve(p);
            reference::check(p, &outcome)?;
            let LpOutcome::Optimal { solution, .. } = outcome else {
                return Err(TestCaseError::fail(format!("{outcome:?}")));
            };
            let cold = ws.stats();
            let mut q = p.clone();
            for (i, c) in p.constraints().iter().enumerate() {
                let half: f64 = c.coeffs.iter().map(|&(j, a)| a * solution[j] / 2.0).sum();
                // `<=` a little above, `>=` a little below, `==` on it.
                let gap = [0.01, -0.01, 0.0][c.op as usize];
                q.set_rhs(i, half + gap);
            }
            match (ws.solve(&q), solve(&q)) {
                (
                    LpOutcome::Optimal { objective: w, .. },
                    LpOutcome::Optimal { objective: c, .. },
                ) => {
                    prop_assert!(
                        (w - c).abs() <= 1e-9 * c.abs().max(1.0),
                        "warm {w} != cold {c}"
                    )
                }
                (w, c) => prop_assert!(false, "warm {w:?} cold {c:?}"),
            }
            Ok(cold)
        }

        // The pivot-row kernel against the column-wise dot product
        // (`row_entry`), `to_bits`-equal: random sparse
        // matrices with unsorted rows, sparse and dense `rho`, random
        // basic sets, both `limit`s.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            #[test]
            fn pivot_row_kernel_is_bitwise_the_column_dot_product(seed in any::<u64>()) {
                let mut rng = StdRng::seed_from_u64(seed);
                let (m, nv) = (rng.gen_range(2usize..30), rng.gen_range(2usize..50));
                let density = rng.gen_range(0.05..0.6);
                let mut p = LpProblem::new();
                for _ in 0..nv {
                    p.add_variable(rng.gen_range(-1.0..1.0));
                }
                for _ in 0..m {
                    // Descending variable order: rows need not be sorted.
                    let row: Vec<(usize, f64)> = (0..nv)
                        .rev()
                        .filter_map(|i| sparse_entry(&mut rng, density, i))
                        .collect();
                    let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq]
                        [rng.gen_range(0usize..3)];
                    p.add_constraint(row, op, rng.gen_range(-2.0..2.0));
                }
                let mut e = RevisedSimplex::build(&p, SimplexOptions::default());
                for limit in [e.n, e.artificial_start] {
                    // The kernel reads `position` only as a
                    // basic/nonbasic flag: any subset will do.
                    for pos in e.position.iter_mut() {
                        *pos = if rng.gen_bool(0.3) { 0 } else { usize::MAX };
                    }
                    let dense_rho = rng.gen_bool(0.5);
                    let rho: Vec<f64> = (0..m)
                        .map(|_| {
                            if dense_rho || rng.gen_bool(0.25) {
                                rng.gen_range(-3.0..3.0)
                            } else {
                                0.0
                            }
                        })
                        .collect();
                    let q = rng.gen_range(0..e.n);
                    e.pivot_row(&rho, limit, q);
                    let mut listed = vec![false; e.n];
                    for &j in &e.touched {
                        prop_assert!(!listed[j as usize], "column {j} listed twice");
                        listed[j as usize] = true;
                    }
                    for (j, &listed) in listed.iter().enumerate() {
                        let read = j < limit && j != q && e.position[j] == usize::MAX;
                        let want = if read { e.row_entry(&rho, j) } else { 0.0 };
                        prop_assert_eq!(e.alpha[j].to_bits(), want.to_bits(),
                            "alpha[{}] = {:e}, column-wise {:e}", j, e.alpha[j], want);
                        prop_assert!(read || !listed, "column {j} must be dropped");
                        prop_assert!(want == 0.0 || listed, "column {j} missing");
                        prop_assert_eq!(e.mark[j], listed);
                    }
                    e.clear_pivot_row();
                    prop_assert!(e.touched.is_empty());
                    prop_assert!(e.alpha.iter().all(|a| a.to_bits() == 0));
                    prop_assert!(e.mark.iter().all(|&m| !m));
                }
            }
        }

        // Random feasible-by-construction LPs of at most four
        // variables: every optimum is certified and equals the vertex
        // reference's to 1e-9.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn revised_matches_vertex_reference(
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
                let outcome = solve(&p);
                prop_assert!(matches!(outcome, LpOutcome::Optimal { .. }), "{outcome:?}");
                reference::check(&p, &outcome)?;
            }

            // The same family at a size where the maintained reduced
            // costs actually drift between refreshes: >= 40 rows x 80
            // columns, sparse, with negative costs under a box row, so a
            // solve makes dozens of pivots and crosses the eta limit
            // (12 at this size) several times. The per-pivot
            // maintained-vs-fresh hook runs throughout, and the optimum
            // must carry a certificate.
            #[test]
            fn revised_is_certified_large(seed in any::<u64>()) {
                let p = large_program(seed, false);
                let counters = assert_certified(&p)?;
                prop_assert!(counters.refactorizations >= 3,
                    "too easy to exercise drift: {counters:?}");
            }

            // Mixed-operator programs around a known interior point: the
            // engine must reach the vertex reference's verdict and, when
            // optimal, its objective, with a certificate.
            #[test]
            fn revised_matches_reference_on_mixed_ops(
                nv in 1usize..4,
                rows in proptest::collection::vec(
                    (proptest::collection::vec(-3.0f64..3.0, 4), 0usize..3, 0.0f64..2.0),
                    1..5),
                cost in proptest::collection::vec(0.0f64..3.0, 4),
                x0 in proptest::collection::vec(0.2f64..2.0, 4),
            ) {
                let mut p = LpProblem::new();
                for &c in cost.iter().take(nv) {
                    p.add_variable(c);
                }
                for (coeffs, op, slack) in &rows {
                    let row: Vec<(usize, f64)> =
                        (0..nv).map(|i| (i, coeffs[i])).collect();
                    let at_x0: f64 = (0..nv).map(|i| coeffs[i] * x0[i]).sum();
                    // Keep x0 feasible under every operator choice.
                    let (op, rhs) = match op {
                        0 => (ConstraintOp::Le, at_x0 + slack),
                        1 => (ConstraintOp::Ge, at_x0 - slack),
                        _ => (ConstraintOp::Eq, at_x0),
                    };
                    p.add_constraint(row, op, rhs);
                }
                reference::check(&p, &solve(&p))?;
            }

            // Mixed operators at the larger size: phase 1 alone pivots
            // an artificial out of most rows, so both phases run on
            // maintained reduced costs across several refactorizations.
            #[test]
            fn revised_is_certified_on_mixed_ops_large(seed in any::<u64>()) {
                let p = large_program(seed, true);
                let counters = assert_certified(&p)?;
                prop_assert!(counters.refactorizations >= 3,
                    "too easy to exercise drift: {counters:?}");
            }

            // Degenerate-vertex programs: every constraint is active at
            // the origin (rhs 0), so the first vertex is maximally
            // degenerate and ties riddle the ratio test — exactly where
            // devex-era cycling bugs would live. The engine must
            // terminate with the vertex reference's verdict and a
            // certified optimum. The box row keeps the program bounded.
            #[test]
            fn devex_terminates_on_degenerate_vertices(
                nv in 2usize..5,
                zero_rows in proptest::collection::vec(
                    (proptest::collection::vec(-3.0f64..3.0, 5), 0usize..2), 2..7),
                cost in proptest::collection::vec(-2.0f64..2.0, 5),
                bound in 0.5f64..4.0,
            ) {
                let mut p = LpProblem::new();
                for &c in cost.iter().take(nv) {
                    p.add_variable(c);
                }
                // Active-at-origin rows: `a·x <= 0` or `a·x >= 0`.
                for (coeffs, op) in &zero_rows {
                    let row: Vec<(usize, f64)> =
                        (0..nv).map(|i| (i, coeffs[i])).collect();
                    let op = if *op == 0 {
                        ConstraintOp::Le
                    } else {
                        ConstraintOp::Ge
                    };
                    p.add_constraint(row, op, 0.0);
                }
                // A box keeps the feasible cone bounded.
                p.add_constraint(
                    (0..nv).map(|i| (i, 1.0)).collect::<Vec<_>>(),
                    ConstraintOp::Le,
                    bound,
                );
                reference::check(&p, &solve(&p))?;
            }

            // The same degenerate family with `stall_threshold: 1`, so
            // the devex-to-Bland hand-over fires on the very first
            // non-improving pivot: the fallback path itself must
            // terminate at the vertex reference's optimum.
            #[test]
            fn bland_fallback_matches_reference_on_degenerate_vertices(
                nv in 2usize..4,
                zero_rows in proptest::collection::vec(
                    (proptest::collection::vec(-2.0f64..2.0, 4), 0usize..2), 2..6),
                cost in proptest::collection::vec(-2.0f64..2.0, 4),
            ) {
                let mut p = LpProblem::new();
                for &c in cost.iter().take(nv) {
                    p.add_variable(c);
                }
                for (coeffs, op) in &zero_rows {
                    let row: Vec<(usize, f64)> =
                        (0..nv).map(|i| (i, coeffs[i])).collect();
                    let op = if *op == 0 {
                        ConstraintOp::Le
                    } else {
                        ConstraintOp::Ge
                    };
                    p.add_constraint(row, op, 0.0);
                }
                p.add_constraint(
                    (0..nv).map(|i| (i, 1.0)).collect::<Vec<_>>(),
                    ConstraintOp::Le,
                    1.0,
                );
                let options = SimplexOptions {
                    stall_threshold: 1,
                    ..SimplexOptions::default()
                };
                reference::check(&p, &solve_with(&p, options))?;
            }
        }
    }
}
