//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [TARGET] [--smoke] [--pairs N] [--seed N] [--threads N]
//!             [--objective distance|bandwidth|both]
//! ```
//!
//! `TARGET` is `all` (the default: every figure of `FIGURES`, in order),
//! one figure's name, or one of the named-only targets `faults` and
//! `churn`; a bad target prints the list. `--objective` selects the
//! negotiation objective of the `churn` target (default `both`: the
//! distance sweep then the bandwidth sweep).
//!
//! `--smoke` runs a small subset for quick verification; the default runs
//! the full paper-scale universe (65 ISPs). Run with `--release`.
//!
//! Per-pair sweeps run on `--threads N` workers (or `NEXIT_THREADS`;
//! default: all available cores). Results are byte-identical for every
//! thread count — parallelism only changes wall-clock time.

#![forbid(unsafe_code)]

use nexit_sim::churn;
use nexit_sim::destination;
use nexit_sim::experiments::sweep::{Pairs, WinWinGate};
use nexit_sim::experiments::{ablation, bandwidth, cheating, distance, diverse, faults, filters};
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, TopologyGenerator, Universe};

/// Runs one figure, prints its report and returns its win-win gate.
type Figure = fn(&Universe, &ExpConfig) -> WinWinGate;

/// Print a figure's results with `report` and hand them back.
fn reported<R>(results: R, report: fn(&R)) -> R {
    report(&results);
    results
}

/// The growth ladder's background-load factors.
const GROWTH: [f64; 4] = [1.1, 1.25, 1.5, 2.0];

/// Every figure `all` runs, in its order: the names that select it, what
/// it runs, and the runner. The cheater's own loss is §5.4's point, not a
/// violation: the cheating gates count the honest side only.
const FIGURES: &[(&[&str], &str, Figure)] = &[
    (
        &["fig4", "fig6", "fraction"],
        "distance experiment (Figures 4, 6)",
        |u, c| reported(distance::run(u, c), distance::report).gate,
    ),
    (&["fig5"], "filter strategies (Figure 5)", |u, c| {
        reported(filters::run(u, c), filters::report).gate
    }),
    (
        &["fig7", "fig8"],
        "bandwidth experiment (Figures 7, 8)",
        |u, c| reported(bandwidth::run(u, c), bandwidth::report).gate,
    ),
    (
        &["fig9"],
        "diverse-criteria experiment (Figure 9)",
        |u, c| reported(diverse::run(u, c), diverse::report).gate,
    ),
    (
        &["fig10"],
        "distance cheating experiment (Figure 10)",
        |u, c| reported(cheating::run_distance(u, c), cheating::report_distance).gate,
    ),
    (
        &["fig11"],
        "bandwidth cheating experiment (Figure 11)",
        |u, c| reported(cheating::run_bandwidth(u, c), cheating::report_bandwidth).gate,
    ),
    (&["prange"], "preference-range sweep", |u, c| {
        reported(
            ablation::preference_range_sweep(u, c, &[1, 2, 5, 10, 20, 50]),
            ablation::report_prange,
        )
        .gate
    }),
    (&["groups"], "group-count sweep", |u, c| {
        reported(
            ablation::group_sweep(u, c, &[1, 2, 4, 8]),
            ablation::report_groups,
        )
        .gate
    }),
    (&["modes"], "protocol-mode ablation", |u, c| {
        reported(ablation::mode_comparison(u, c), ablation::report_modes).gate
    }),
    (
        &["dest"],
        "destination-granularity negotiation (footnote 2)",
        |u, c| reported(destination::run(u, c), destination::report).gate,
    ),
    (&["models"], "alternate-model grid", |u, c| {
        reported(ablation::model_grid(u, c), ablation::report_models).gate
    }),
    (
        &["growth"],
        "background-growth sweep (warm-started LP ladder)",
        |u, c| {
            reported(bandwidth::run_growth(u, c, &GROWTH), |r| {
                bandwidth::report_growth(r, &GROWTH)
            })
            .gate
        },
    ),
];

/// Targets `all` does NOT cover: they pin their own workloads or
/// universes and run only when named (see below).
const NAMED_ONLY: &[&str] = &["faults", "churn"];

fn usage() -> ! {
    let figures = FIGURES.iter().flat_map(|(names, ..)| names.iter().copied());
    let targets: Vec<&str> = std::iter::once("all")
        .chain(figures)
        .chain(NAMED_ONLY.iter().copied())
        .collect();
    eprintln!(
        "usage: experiments [{}] [--smoke] [--pairs N] [--seed N] [--threads N] [--objective distance|bandwidth|both]",
        targets.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut target = String::from("all");
    let mut cfg = ExpConfig::default();
    let mut gen_cfg = GeneratorConfig::default();
    // Thread count: `--threads` beats `NEXIT_THREADS` beats auto (0).
    let mut threads: Option<usize> = std::env::var("NEXIT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok());
    // Churn objectives: default runs the distance sweep then the
    // bandwidth sweep.
    let mut objectives = vec![churn::Objective::Distance, churn::Objective::Bandwidth];

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => {
                cfg = ExpConfig::smoke();
                gen_cfg.num_isps = 20;
                gen_cfg.num_mesh_isps = 2;
            }
            "--pairs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                cfg.max_pairs = Some(n);
            }
            "--seed" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                gen_cfg.seed = n;
                cfg.seed = n;
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                threads = Some(n);
            }
            "--objective" => {
                objectives = match it.next().map(String::as_str) {
                    Some("distance") => vec![churn::Objective::Distance],
                    Some("bandwidth") => vec![churn::Objective::Bandwidth],
                    Some("both") => {
                        vec![churn::Objective::Distance, churn::Objective::Bandwidth]
                    }
                    _ => usage(),
                };
            }
            name if !name.starts_with('-') => target = name.to_string(),
            _ => usage(),
        }
    }
    cfg.threads = threads.unwrap_or(0);

    let is_figure = FIGURES
        .iter()
        .any(|(names, ..)| names.contains(&target.as_str()));
    if target != "all" && !is_figure && !NAMED_ONLY.contains(&target.as_str()) {
        eprintln!("unknown target `{target}`");
        usage();
    }

    // The faults target sweeps the broker's ARQ + degradation layer over
    // lossy links on real topology pairs; it runs only when named
    // explicitly and exits non-zero on any acceptance
    // violation (mismatched outcome, lost session, headline recovery
    // below 99%, or worker-count nondeterminism).
    if target == "faults" {
        let sessions = cfg.max_pairs.unwrap_or(1_000);
        eprintln!(
            "running fault-tolerance sweep ({sessions} headline sessions, {} worker(s)) ...",
            nexit_sim::parallel::resolve_threads(cfg.threads),
        );
        let r = faults::run(sessions, cfg.threads, cfg.seed);
        faults::report(&r);
        if !r.violations.is_empty() {
            eprintln!("fault-tolerance acceptance violated!");
            std::process::exit(1);
        }
        return;
    }

    // The churn target replays seeded event feeds through the
    // incremental re-negotiation driver on its own pinned universe;
    // like `faults` it runs only when named explicitly and
    // exits non-zero on any divergence from the per-prefix cold
    // rebuild, nondeterminism across worker counts, or (distance) an
    // incremental work median not under the cold twin's. Its stdout is
    // thread-count independent and pinned in `scripts/smoke_churn.txt`.
    if target == "churn" {
        let pairs = cfg.max_pairs.unwrap_or(24);
        let events = if cfg.max_pairs.is_some() { 60 } else { 250 };
        let mut failed = false;
        for (i, &objective) in objectives.iter().enumerate() {
            eprintln!(
                "running churn sweep [{}] ({pairs} pairs x {events} events) ...",
                objective.name(),
            );
            let r = churn::run(pairs, events, cfg.threads, cfg.seed, objective);
            churn::report(&r);
            if !r.violations.is_empty() {
                eprintln!("churn acceptance violated under {}!", objective.name());
                failed = true;
            }
            if i + 1 < objectives.len() {
                println!();
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    if target == "all" {
        eprintln!(
            "note: `all` skips the named-only targets: {} (run each explicitly to cover it; \
             `churn` takes --objective distance|bandwidth|both)",
            NAMED_ONLY.join(", ")
        );
    }

    eprintln!(
        "generating universe: {} ISPs (seed {}) ...",
        gen_cfg.num_isps, gen_cfg.seed
    );
    let universe: Universe = TopologyGenerator::new(gen_cfg).generate();
    eprintln!(
        "universe ready: {} pairs, {} distance-eligible, {} bandwidth-eligible ({} sweep threads)",
        universe.pairs.len(),
        Pairs::Distance.eligible(&universe).len(),
        Pairs::Bandwidth.eligible(&universe).len(),
        nexit_sim::parallel::resolve_threads(cfg.threads),
    );

    // The win-win close is a gate, not a figure: any target whose
    // sessions ended below default fails the run.
    let mut violated = false;
    for &(names, what, figure) in FIGURES {
        if target != "all" && !names.contains(&target.as_str()) {
            continue;
        }
        eprintln!("running {what} ...");
        let gate = figure(&universe, &cfg);
        println!();
        if gate.negative_sessions > 0 {
            eprintln!("win-win violated: a {what} session ended below default!");
            violated = true;
        }
    }
    if violated {
        std::process::exit(1);
    }
}
