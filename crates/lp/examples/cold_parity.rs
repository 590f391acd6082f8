//! Cold-solve parity check: the revised engine (sparse LU + devex) vs
//! the dense tableau (`solve_dense`, the pre-revised engine kept as the
//! oracle) on the bench min-max programs.
//!
//! ```text
//! cargo run --release -p nexit-lp --features test-support --example cold_parity
//! ```
//!
//! Prints per-size medians and the speedup ratio; the ROADMAP's
//! cold-parity number comes from this tool.

use std::time::Instant;

use nexit_lp::{solve, solve_dense, ConstraintOp, LpOutcome, LpProblem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The bench generator: min-max load-ratio LP, `flows` flows over `k`
/// choices, `links` random capacity rows (seed-stable).
fn min_max_problem(flows: usize, k: usize, links: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = LpProblem::new();
    let t = p.add_variable(1.0);
    let x = |f: usize, i: usize| 1 + f * k + i;
    for _ in 0..flows * k {
        p.add_variable(0.0);
    }
    for f in 0..flows {
        p.add_constraint(
            (0..k).map(|i| (x(f, i), 1.0)).collect(),
            ConstraintOp::Eq,
            1.0,
        );
    }
    for _ in 0..links {
        let mut row: Vec<(usize, f64)> = Vec::new();
        for f in 0..flows {
            for i in 0..k {
                if rng.gen_bool(0.3) {
                    row.push((x(f, i), rng.gen_range(0.1..2.0)));
                }
            }
        }
        if row.is_empty() {
            continue;
        }
        row.push((t, -rng.gen_range(1.0..10.0)));
        p.add_constraint(row, ConstraintOp::Le, 0.0);
    }
    p
}

fn median_micros(mut runs: Vec<f64>) -> f64 {
    runs.sort_by(|a, b| a.total_cmp(b));
    runs[runs.len() / 2]
}

fn time_solver(p: &LpProblem, reps: usize, f: impl Fn(&LpProblem) -> LpOutcome) -> (f64, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut obj = f64::NAN;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = f(p);
        times.push(start.elapsed().as_secs_f64() * 1e6);
        match outcome {
            LpOutcome::Optimal { objective, .. } => obj = objective,
            other => panic!("bench program must be solvable, got {other:?}"),
        }
    }
    (median_micros(times), obj)
}

fn main() {
    let reps = 15;
    println!("cold-solve parity, median of {reps} runs (µs):");
    println!(
        "{:>12} {:>12} {:>12} {:>9}",
        "program", "dense", "revised", "ratio"
    );
    for &(flows, links) in &[(20usize, 20usize), (60, 40), (120, 80)] {
        let p = min_max_problem(flows, 3, links, 7);
        let (dense_us, dense_obj) = time_solver(&p, reps, solve_dense);
        let (revised_us, revised_obj) = time_solver(&p, reps, solve);
        assert!(
            (dense_obj - revised_obj).abs() < 1e-7,
            "engines disagree: dense {dense_obj} vs revised {revised_obj}"
        );
        println!(
            "{:>12} {:>12.1} {:>12.1} {:>8.2}x",
            format!("{flows}f_{links}l"),
            dense_us,
            revised_us,
            dense_us / revised_us
        );
    }
}
