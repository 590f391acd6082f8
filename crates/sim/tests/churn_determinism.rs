//! Determinism suite for the churn driver: the same seed and event feed
//! must produce byte-identical results at every worker count, and any
//! event-prefix replay must equal a from-scratch cold rebuild.
//!
//! The cross-thread identity is asserted on the deterministic work
//! series (gain cells filled + negotiation rounds + LP pivots per event)
//! — the sequence `ChurnReport` meters, one sample per event — plus the
//! final assignments and every path counter.

use nexit_sim::churn::{
    self, ChurnConfig, ChurnCounters, ChurnDriver, ChurnEvent, ChurnPair, LogicalState,
    NegotiatedState, Objective,
};

/// Same seed + feed ⇒ byte-identical final assignments, work series and
/// path counters at 1, 2 and 4 worker threads — under both objectives.
#[test]
fn sweep_is_identical_across_thread_counts() {
    for objective in [Objective::Distance, Objective::Bandwidth] {
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&threads| churn::run(3, 40, threads, 9, objective))
            .collect();
        let reference = &runs[0];
        assert!(
            reference.violations.is_empty(),
            "[{}] violations: {:?}",
            objective.name(),
            reference.violations
        );
        assert_eq!(reference.divergences, 0);
        for run in &runs[1..] {
            assert_eq!(run.final_assignments, reference.final_assignments);
            assert_eq!(run.work, reference.work, "work series must be identical");
            assert_eq!(run.counters, reference.counters);
            assert_eq!(run.lp_stats, reference.lp_stats);
            assert_eq!(run.work.len(), run.events, "one work sample per event");
            assert!(
                run.violations.is_empty(),
                "[{}] violations: {:?}",
                objective.name(),
                run.violations
            );
            assert!(run.deterministic);
        }
    }
}

/// Which path every event takes, pinned in absolute terms: the runs
/// above only compare with each other and the benchmark digests cover
/// negotiated state only, so nothing else stops a change from silently
/// turning cached outcomes into sessions.
///
/// The third value of each row, the costliest event's work units,
/// counts LP pivots and so moves with the LP engine while the counters
/// stay: 1 947 / 2 956 until cold solves began at the default routing's
/// vertex instead of running phase 1 (and a dual repair's budget was
/// sized from that), 1 795 / 1 904 until the gain-row memo went, and
/// bandwidth's 1 904 until the dual ratio test broke near-ties on the
/// largest pivot (1 871: that event's LP repairs take fewer pivots).
///
/// What moved when every session began filling its own rows, and why:
/// * `rows_refreshed` counts every row of every session table — 10 924
///   = the 3 310 the memo recomputed + the 7 614 it served; 30 276 =
///   25 472 + 4 804 — and `rows_served` / `rows_load_invalidated` are
///   gone with the memo;
/// * bandwidth `fallback_sessions` 98 → 9 and `incremental_sessions`
///   19 → 108: 89 sessions were "fallbacks" only because more than 5 %
///   of the table's cached rows had been dropped, a threshold that chose
///   between invalidating some rows and all of them. What is left under
///   `fallback_sessions` is the 9 topology flaps, the same 9 as under
///   distance (the feeds are the same);
/// * `cached_outcomes`, `signature_hits` and `signature_misses` did not
///   move: "no active row's footprint met a moved link" and "no class
///   moved" pick out the same 3 of these 82 load deltas;
/// * distance max work 1 795 → 1 816: the meter priced a row served
///   from the memo at zero and a filled one at `k`; a session now counts
///   every row of its tables. The bandwidth maximum stayed at 1 904 —
///   a session that already recomputed all of its rows.
#[test]
fn path_counters_are_pinned() {
    let golden = [
        (
            Objective::Distance,
            ChurnCounters {
                cached_outcomes: 82,
                incremental_sessions: 29,
                fallback_sessions: 9,
                rows_refreshed: 10_924,
                ..ChurnCounters::default()
            },
            1_815.0,
        ),
        (
            Objective::Bandwidth,
            ChurnCounters {
                cached_outcomes: 3,
                incremental_sessions: 108,
                fallback_sessions: 9,
                signature_hits: 3,
                signature_misses: 79,
                rows_refreshed: 30_276,
            },
            1_887.0,
        ),
    ];
    for (objective, counters, max_work) in golden {
        let run = churn::run(3, 40, 1, 9, objective);
        assert_eq!(run.counters, counters, "[{}]", objective.name());
        let costliest = run.work.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(costliest, max_work, "[{}]", objective.name());
    }
}

/// Same seed ⇒ the identical feed, twice in a row.
#[test]
fn feeds_are_reproducible() {
    let u = churn::universe();
    let idx = u.eligible_pairs(3, false)[0];
    let pair = ChurnPair::build(&u, idx, 2);
    let initial = churn::initial_active(&pair, 17);
    assert_eq!(initial, churn::initial_active(&pair, 17));
    let a = churn::generate_trace(&pair, &initial, 50, 17);
    let b = churn::generate_trace(&pair, &initial, 50, 17);
    assert_eq!(a, b);
}

/// Replay a prefix of `trace` through a fresh driver and return its
/// final negotiated state plus the logical state it ended in.
fn replay_prefix(
    pair: &ChurnPair<'_>,
    initial: &[bool],
    prefix: &[ChurnEvent],
    cfg: ChurnConfig,
) -> (NegotiatedState, LogicalState) {
    let mut driver = ChurnDriver::new(pair, initial.to_vec(), cfg);
    for event in prefix {
        driver.apply(event);
    }
    (driver.negotiated().clone(), driver.state().clone())
}

/// The property the whole module rests on: for every event prefix, the
/// incrementally maintained state equals the state a cold from-scratch
/// negotiation of the same logical state produces — byte-identical
/// assignments, identical gains and bookkeeping, LP objective within
/// 1e-6.
#[test]
fn every_prefix_replay_equals_the_cold_rebuild() {
    for objective in [Objective::Distance, Objective::Bandwidth] {
        let u = churn::universe();
        let idx = u.eligible_pairs(3, false)[0];
        let pair = ChurnPair::build(&u, idx, 2);
        let cfg = ChurnConfig { objective };
        let initial = churn::initial_active(&pair, 33);
        let trace = churn::generate_trace(&pair, &initial, 18, 33);
        for len in 0..=trace.len() {
            let (incremental, state) = replay_prefix(&pair, &initial, &trace[..len], cfg);
            let (cold, _work) = churn::cold_rebuild(&pair, &state, &cfg);
            assert_eq!(
                churn::divergence(&incremental, &cold),
                None,
                "[{}] diverged after {len} event(s)",
                objective.name()
            );
        }
    }
}
