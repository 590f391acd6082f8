//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments [all|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fraction|prange|groups|modes|models|dest|growth|faults|churn]
//!             [--smoke] [--pairs N] [--seed N] [--threads N]
//!             [--objective distance|bandwidth|both]
//! ```
//!
//! `--objective` selects the negotiation objective of the `churn`
//! target (default `both`: the distance sweep then the bandwidth
//! sweep).
//!
//! `--smoke` runs a small subset for quick verification; the default runs
//! the full paper-scale universe (65 ISPs). Run with `--release`.
//!
//! Per-pair sweeps run on `--threads N` workers (or `NEXIT_THREADS`;
//! default: all available cores). Results are byte-identical for every
//! thread count — parallelism only changes wall-clock time.

#![forbid(unsafe_code)]

use nexit_sim::churn;
use nexit_sim::experiments::{ablation, bandwidth, cheating, distance, diverse, faults, filters};
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, TopologyGenerator, Universe};

fn usage() -> ! {
    eprintln!(
        "usage: experiments [all|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fraction|prange|groups|modes|models|dest|growth|faults|churn] [--smoke] [--pairs N] [--seed N] [--threads N] [--objective distance|bandwidth|both]"
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

    const TARGETS: &[&str] = &[
        "all", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fraction",
        "prange", "groups", "modes", "models", "dest", "growth", "faults", "churn",
    ];
    // Targets `all` does NOT cover: they pin their own workloads or
    // universes and run only when named (see below).
    const NAMED_ONLY: &[&str] = &["faults", "churn"];
    if !TARGETS.contains(&target.as_str()) {
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
        universe.eligible_pairs(2, true).len(),
        universe.eligible_pairs(3, false).len(),
        nexit_sim::parallel::resolve_threads(cfg.threads),
    );

    let want = |name: &str| target == "all" || target == name;
    let mut violated = false;

    if want("fig4") || want("fig6") || want("fraction") {
        eprintln!("running distance experiment (Figures 4, 6) ...");
        let results = distance::run(&universe, &cfg);
        distance::report(&results);
        println!();
        // The win-win close is a gate, not a figure (here and in every
        // target that counts negative final gains).
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: a distance session ended below default!");
            violated = true;
        }
    }
    if want("fig5") {
        eprintln!("running filter strategies (Figure 5) ...");
        let results = filters::run(&universe, &cfg);
        filters::report(&results);
        println!();
    }
    if want("fig7") || want("fig8") {
        eprintln!("running bandwidth experiment (Figures 7, 8) ...");
        let results = bandwidth::run(&universe, &cfg);
        bandwidth::report(&results);
        println!();
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: a bandwidth session ended below default!");
            violated = true;
        }
    }
    if want("fig9") {
        eprintln!("running diverse-criteria experiment (Figure 9) ...");
        let results = diverse::run(&universe, &cfg);
        diverse::report(&results);
        println!();
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: a diverse-criteria session ended below default!");
            violated = true;
        }
    }
    if want("fig10") {
        eprintln!("running distance cheating experiment (Figure 10) ...");
        let results = cheating::run_distance(&universe, &cfg);
        cheating::report_distance(&results);
        println!();
        // The cheater's own loss is §5.4's point, not a violation.
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: an honest ISP ended below default!");
            violated = true;
        }
    }
    if want("fig11") {
        eprintln!("running bandwidth cheating experiment (Figure 11) ...");
        let results = cheating::run_bandwidth(&universe, &cfg);
        cheating::report_bandwidth(&results);
        println!();
        // The cheater's own loss is §5.4's point, not a violation.
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: an honest ISP ended below default!");
            violated = true;
        }
    }
    if want("prange") {
        eprintln!("running preference-range sweep ...");
        let results = ablation::preference_range_sweep(&universe, &cfg, &[1, 2, 5, 10, 20, 50]);
        ablation::report_prange(&results);
        println!();
        if results.gate.negative_sessions > 0 {
            eprintln!("win-win violated: a preference-range session ended below default!");
            violated = true;
        }
    }
    if want("groups") {
        eprintln!("running group-count sweep ...");
        let results = ablation::group_sweep(&universe, &cfg, &[1, 2, 4, 8]);
        ablation::report_groups(&results);
        println!();
        if results.gate.negative_sessions > 0 {
            eprintln!("win-win violated: a group session ended below default!");
            violated = true;
        }
    }
    if want("modes") {
        eprintln!("running protocol-mode ablation ...");
        let results = ablation::mode_comparison(&universe, &cfg);
        ablation::report_modes(&results);
        println!();
        if results.gate.negative_sessions > 0 {
            eprintln!("win-win violated: a credit-veto session ended below default!");
            violated = true;
        }
    }
    if want("dest") {
        eprintln!("running destination-granularity negotiation (footnote 2) ...");
        let results = nexit_sim::destination::run(&universe, &cfg);
        nexit_sim::destination::report(&results);
        println!();
        if results.negative_sessions > 0 {
            eprintln!("win-win violated: a destination session ended below default!");
            violated = true;
        }
    }
    if want("models") {
        eprintln!("running alternate-model grid ...");
        let results = ablation::model_grid(&universe, &cfg);
        ablation::report_models(&results);
        println!();
        if results.gate.negative_sessions > 0 {
            eprintln!("win-win violated: an alternate-model session ended below default!");
            violated = true;
        }
    }
    if want("growth") {
        eprintln!("running background-growth sweep (warm-started LP ladder) ...");
        let results = bandwidth::run_growth(&universe, &cfg, &[1.1, 1.25, 1.5, 2.0]);
        bandwidth::report_growth(&results);
        println!();
    }
    if violated {
        std::process::exit(1);
    }
}
