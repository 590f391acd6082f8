//! The parallel sweep contract: experiment output is byte-identical for
//! every thread count. Each driver collects per-pair results by pair
//! index, so scheduling can never reorder or perturb them — these tests
//! pin that with exact (bitwise) `f64` equality between `threads = 1`
//! and `threads = 4` runs.

use nexit_sim::experiments::{ablation, bandwidth, cheating, distance, diverse, filters};
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, TopologyGenerator, Universe};

fn small_universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 16,
        num_mesh_isps: 1,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn cfg(threads: usize) -> ExpConfig {
    ExpConfig {
        max_pairs: Some(6),
        max_failures_per_pair: 2,
        max_lp_variables: 2_000,
        threads,
        ..ExpConfig::default()
    }
}

#[test]
fn distance_results_are_thread_count_independent() {
    let u = small_universe();
    let serial = distance::run(&u, &cfg(1));
    let parallel = distance::run(&u, &cfg(4));
    assert!(serial.pairs > 0, "universe must yield eligible pairs");
    assert_eq!(serial, parallel);
}

#[test]
fn bandwidth_results_are_thread_count_independent() {
    // The arena-threaded, warm-started sweep must stay byte-identical
    // for threads = 1, 2 and 4: the LP session is pair-scoped (warm
    // state never crosses pairs, so scheduling cannot perturb it) and
    // the worker arenas only recycle buffers, never values.
    let u = small_universe();
    let serial = bandwidth::run(&u, &cfg(1));
    for threads in [2, 4] {
        let parallel = bandwidth::run(&u, &cfg(threads));
        assert_eq!(serial, parallel, "threads = {threads}");
    }
    assert!(serial.scenarios > 0, "sweep must evaluate scenarios");
}

#[test]
fn growth_sweep_is_thread_count_independent_and_monotone() {
    let u = small_universe();
    let factors = [1.1, 1.5];
    let serial = bandwidth::run_growth(&u, &cfg(1), &factors);
    let parallel = bandwidth::run_growth(&u, &cfg(4), &factors);
    assert_eq!(serial, parallel);
    assert!(serial.scenarios > 0);
    // Growing the background load can never shrink the optimal MEL.
    for samples in &serial.degradation {
        assert!(samples.iter().all(|&r| r >= 1.0 - 1e-9));
    }
}

#[test]
fn cheating_results_are_thread_count_independent() {
    let u = small_universe();
    assert_eq!(
        cheating::run_distance(&u, &cfg(1)),
        cheating::run_distance(&u, &cfg(4))
    );
    assert_eq!(
        cheating::run_bandwidth(&u, &cfg(1)),
        cheating::run_bandwidth(&u, &cfg(4))
    );
}

#[test]
fn diverse_and_filter_results_are_thread_count_independent() {
    let u = small_universe();
    assert_eq!(diverse::run(&u, &cfg(1)), diverse::run(&u, &cfg(4)));
    assert_eq!(filters::run(&u, &cfg(1)), filters::run(&u, &cfg(4)));
}

#[test]
fn ablation_sweeps_are_thread_count_independent() {
    let u = small_universe();
    let ranges = [1, 10];
    let serial = ablation::preference_range_sweep(&u, &cfg(1), &ranges);
    let parallel = ablation::preference_range_sweep(&u, &cfg(4), &ranges);
    assert_eq!(serial, parallel);
    let groups = [1, 4];
    assert_eq!(
        ablation::group_sweep(&u, &cfg(1), &groups),
        ablation::group_sweep(&u, &cfg(4), &groups)
    );
    let serial_modes = ablation::mode_comparison(&u, &cfg(1));
    let parallel_modes = ablation::mode_comparison(&u, &cfg(4));
    assert_eq!(serial_modes, parallel_modes);
    let serial_grid = ablation::model_grid(&u, &cfg(1));
    for threads in [2, 4] {
        assert_eq!(
            serial_grid,
            ablation::model_grid(&u, &cfg(threads)),
            "threads = {threads}"
        );
    }
    assert!(!serial_grid.rows.is_empty(), "grid must produce rows");
}
