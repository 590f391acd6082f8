//! LP numerics through the certificate: one table of awkward programs,
//! each row solved cold and through a [`SimplexWorkspace`] (then patched
//! where the row says so). Every outcome must be a certified optimum or
//! the vertex reference's verdict ([`crate::reference::check`]).

use crate::problem::{ConstraintOp, LpProblem};
use crate::reference;
use crate::{solve, SimplexWorkspace};

use ConstraintOp::{Eq, Ge, Le};

/// One `(coefficients, op, rhs)` row.
type Row<'a> = (&'a [(usize, f64)], ConstraintOp, f64);

/// `(row, rhs)` patches applied one after another.
type Patches = &'static [(usize, f64)];

/// A program from its costs and rows.
fn program(costs: &[f64], rows: &[Row]) -> LpProblem {
    let mut p = LpProblem::new();
    for &c in costs {
        p.add_variable(c);
    }
    for &(coeffs, op, rhs) in rows {
        p.add_constraint(coeffs.to_vec(), op, rhs);
    }
    p
}

/// The bandwidth optimum's min-max shape: `t` (column 0) bounds two
/// links' load ratios, two flows (columns 1–2 and 3–4) each split over
/// two exits. `volume` is the second flow's, `scale` multiplies the
/// first link row.
fn min_max(volume: f64, scale: f64) -> LpProblem {
    program(
        &[1.0, 0.0, 0.0, 0.0, 0.0],
        &[
            (&[(1, 1.0), (2, 1.0)], Eq, 1.0),
            (&[(3, 1.0), (4, 1.0)], Eq, 1.0),
            (
                &[(1, 3.0 * scale), (3, volume * scale), (0, -10.0 * scale)],
                Le,
                -scale,
            ),
            (&[(2, 3.0), (4, volume), (0, -4.0)], Le, -0.5),
        ],
    )
}

#[test]
fn awkward_programs_end_certified_or_with_the_reference_verdict() {
    let bounded_pair = [(0, 1.0), (1, 1.0)];
    let table: Vec<(&str, LpProblem, Patches)> = vec![
        (
            "duplicate rows",
            program(
                &[1.0, 2.0],
                &[
                    (&bounded_pair, Ge, 2.0),
                    (&bounded_pair, Ge, 2.0),
                    (&[(0, 1.0)], Le, 1.5),
                ],
            ),
            &[(1, 3.0), (0, 3.0)],
        ),
        (
            "an all-zero row, satisfied",
            program(
                &[-1.0, 1.0],
                &[(&[(0, 0.0), (1, 0.0)], Eq, 0.0), (&bounded_pair, Le, 2.0)],
            ),
            &[(1, 5.0)],
        ),
        (
            "an all-zero row, violated",
            program(&[1.0, 1.0], &[(&bounded_pair, Ge, 1.0), (&[], Ge, 1.0)]),
            &[],
        ),
        (
            "an all-zero column",
            program(
                &[1.0, 0.0, 2.0],
                &[(&[(0, 1.0), (2, 1.0)], Ge, 1.0), (&[(1, 0.0)], Le, 1.0)],
            ),
            &[(0, 3.0)],
        ),
        (
            "a zero-volume flow",
            min_max(0.0, 1.0),
            &[(2, -0.25), (3, 0.0)],
        ),
        (
            "a link row scaled by 1e-6",
            min_max(2.0, 1e-6),
            &[(3, -1.5)],
        ),
        ("a link row scaled by 1e6", min_max(2.0, 1e6), &[(3, -1.5)]),
        (
            "redundant equalities",
            program(
                &[1.0, 3.0, 0.5],
                &[
                    (&[(0, 1.0), (1, 1.0), (2, 1.0)], Eq, 2.0),
                    (&[(0, 2.0), (1, 2.0), (2, 2.0)], Eq, 4.0),
                    (&[(0, -1.0), (1, -1.0), (2, -1.0)], Eq, -2.0),
                    (&[(2, 1.0)], Le, 0.5),
                ],
            ),
            &[(3, 1.0), (3, 0.0)],
        ),
        (
            // The retained basis re-enters on each patch: x <= 0.5
            // against x >= 1 is infeasible, then feasible again.
            "an rhs patch that makes a retained program infeasible",
            program(
                &[1.0, 1.0],
                &[
                    (&[(0, 1.0)], Le, 5.0),
                    (&[(0, 1.0)], Ge, 1.0),
                    (&bounded_pair, Le, 4.0),
                ],
            ),
            &[(0, 0.5), (0, 2.0), (2, 0.5)],
        ),
    ];
    for (name, mut p, patches) in table {
        let mut ws = SimplexWorkspace::new();
        for step in 0..=patches.len() {
            if step > 0 {
                let (row, rhs) = patches[step - 1];
                p.set_rhs(row, rhs);
            }
            for (how, outcome) in [("cold", solve(&p)), ("workspace", ws.solve(&p))] {
                if let Err(e) = reference::check(&p, &outcome) {
                    panic!("{name}, step {step}, {how}: {e}");
                }
            }
        }
    }
}
