//! An LP solver stack built around a revised simplex with a maintained
//! basis factorization.
//!
//! Built from scratch as the substrate for the paper's *globally optimal*
//! bandwidth routing: "computed by solving an optimization problem that
//! minimizes the maximum increase in link load … we allow flows to be
//! fractionally divided among interconnections" (§5.2). That is a linear
//! program; the paper's authors used an off-the-shelf solver, which the
//! offline crate set does not include.
//!
//! Scope: minimize `c·x` subject to mixed `<=` / `>=` / `==` constraints
//! and `x >= 0`, on one engine:
//!
//! * `revised` — the revised simplex: the constraint matrix in flat
//!   compressed storage (`sparse`: one column-major copy for FTRAN and
//!   the factorization, one row-major copy for the pivot-row kernel),
//!   sparse LU of the basis (`lu`, column-compressed factors, the
//!   triangular part pivoted before a Markowitz nucleus) with sparse
//!   product-form (eta) updates and periodic refactorization, devex
//!   pricing over reduced costs maintained from the pivot row, with a
//!   Bland's-rule anti-cycling fallback. [`solve`] / [`solve_with`] run it cold.
//!
//! Every `Optimal` carries its proof: the duals `y` of the fresh pricing
//! pass that ended the solve, one per constraint. [`certify`] checks the
//! pair `(x, y)` by LP duality — primal feasibility, dual signs, reduced
//! costs `c − Aᵀy >= 0` and `c·x = b·y` — from the problem alone, sharing
//! no code with the engine. Debug builds certify every optimum the
//! engine returns; the tests check small programs against a vertex
//! enumerator as well.
//!
//! # Warm starts
//!
//! Sweeps that re-solve one program with patches should hold a
//! [`SimplexWorkspace`]: it retains the revised engine — the basis and
//! its factorization — between solves and re-enters it instead of
//! cold-starting. There are two re-entries, chosen by content:
//!
//! | what changed                             | re-entry                                              |
//! |------------------------------------------|-------------------------------------------------------|
//! | rhs only                                 | `x_B = B⁻¹b` + dual-simplex repair (retained basis)   |
//! | anything else (values, objective, shape) | cold: a fresh engine                                  |
//! | cold, caller names a feasible vertex     | that basis, factorized and checked, then phase 2 only |
//!
//! The last row is [`SimplexWorkspace::solve_from`]: a caller that knows
//! a feasible vertex of its program (the bandwidth optimum knows the
//! default routing) hands it over as `(row, structural column)` pairs,
//! and a solve that has to go cold starts there instead of from the
//! all-artificial basis.
//!
//! Every warm or started outcome is verified against the problem itself
//! and falls back to a two-phase cold start transparently, so neither
//! can return anything a cold solve would not ([`WarmStats`] counts
//! which path each solve actually took).
//!
//! # Pricing and refactorization policy
//!
//! Primal phases price with **devex** (approximate steepest edge):
//! reference-framework weights start at the unit framework per phase,
//! grow monotonically via the Forrest–Goldfarb pivot-row recurrence,
//! survive refactorization, and re-anchor if they overflow the
//! contrast ceiling. After `SimplexOptions::stall_threshold`
//! consecutive non-improving pivots the phase hands over to **Bland's
//! rule** for guaranteed termination on degenerate programs
//! (`WarmStats::pricing_fallbacks` counts the hand-overs); the first
//! strictly improving pivot hands control back to devex, so one
//! degenerate plateau does not slow the rest of the solve.
//!
//! Each devex pivot computes its **pivot row** `alpha_j = rho · a_j`
//! (`rho = B⁻ᵀ e_r`) once, with a row-major kernel that visits only the
//! rows where `rho` is non-zero and reproduces the column-wise dot
//! products bit for bit; the row updates both the devex weights and the
//! **reduced costs** (`d_j -= (d_q / alpha_q) alpha_j`), so choosing
//! the entering column is a read of two arrays. The drift contract:
//! reduced costs are recomputed from fresh multipliers on entry to
//! every phase, after every refactorization and on every iteration
//! under Bland's rule, and **no phase reports an optimum except
//! straight after such a fresh pass found nothing to enter** — a
//! maintained reduced cost can propose a pivot, never certify an
//! answer.
//!
//! **Dual pivots** (the rhs re-entry's repair) are priced the same
//! way: one BTRAN for `rho`, the same row kernel, a ratio test
//! `min d_j / -alpha_j` over the row's negative entries, and the same
//! update carrying `d` across the pivot, so a dual pivot costs what a
//! primal one does. Ratio near-ties go to the largest `|alpha_j|`
//! (Harris's second pass, as in the primal test): the min-max
//! program's dual is mostly ties at zero, where the lowest column index
//! walked zero-step pivots until the repair's budget ran out. The repair
//! starts from the `d` of the fresh pass the retained solve ended on (a
//! patched rhs changes neither `y` nor `d`; an rhs patch that leaves
//! `x_B >= 0` is answered by that pass outright) and re-prices fresh
//! after a refactorization. The leaving row maximizes `x_i^2 / w_i`
//! over **dual devex** row weights: reset to 1 per repair, updated from
//! the pivot column `B⁻¹a_q` each pivot already computes
//! (`w_i = max(w_i, (alpha_iq / alpha_rq)^2 w_r)`,
//! `w_r = max(w_r / alpha_rq^2, 1)`), re-anchored at the same ceiling.
//!
//! The basis is **refactorized** every `(m/6).clamp(12, 48)` eta
//! updates (which is also the longest stretch reduced costs and `x_B`
//! are carried by updates alone) and on numerically unusable pivots;
//! `WarmStats::refactorizations`, `max_eta_chain` and `lu_fill_nnz`
//! expose that machinery per solve.

#![forbid(unsafe_code)]

mod certify;
mod lu;
#[cfg(test)]
mod numerics_tests;
pub mod problem;
#[cfg(test)]
mod reference;
mod revised;
mod sparse;
pub mod workspace;

pub use certify::certify;
pub use problem::{Constraint, ConstraintOp, LpOutcome, LpProblem, SimplexOptions};
pub use revised::{solve, solve_with};
pub use workspace::{SimplexWorkspace, WarmStats};
