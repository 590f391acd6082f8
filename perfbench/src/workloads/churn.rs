//! `churn_distance` and `churn_bandwidth`: the online path, one event
//! at a time.
//!
//! One op is one `ChurnDriver::apply(event)` on one of eight live pairs:
//! the first eight pairs of the churn sweep's own universe
//! (`churn::universe()`) with three or more interconnections and 48–400
//! flows, each fed 60 events of the sweep's own feed generator
//! (`initial_active` + `generate_trace`, `ChurnConfig::default()`).
//! Under the distance objective the `core::delta` caches are pure
//! memoisation and `lp` re-enters warm: the median op is the delta path,
//! the tail is cold fallbacks and LP re-solves on the largest pairs. The
//! bandwidth objective drives the same driver differently —
//! footprint-keyed invalidation and utilization classes — so a gain for
//! one objective that costs the other shows here.
//!
//! The feeds are pinned and the seed drives the order their events
//! arrive in across pairs (each pair's own feed stays in order). A feed
//! drawn anew from each seed decides the run: how many failures 60 events
//! hold and how far each load delta jumps set the cost of the baseline
//! LP's re-entries, which is 99 % of an event's cost, and ten seeds spread
//! `ops_per_s` by 14 % and the tail by 29 % on identical code.

use super::{add_lp_counts, lp_count_metrics, median_or_zero, pair_flows, shuffle, Ctx, Values};
use crate::harness::Pass;
use crate::stats;
use crate::trace::{self, Span};
use nexit_sim::churn::{
    self, ChurnConfig, ChurnDriver, ChurnEvent, ChurnKind, ChurnPair, NegotiatedState, Objective,
};

/// Events between two cold-rebuild twins on the traced run.
const COLD_TWIN_EVERY: usize = 4;

/// Flows of the pairs brought live.
const FLOWS: std::ops::RangeInclusive<usize> = 48..=400;

/// Seed of every feed.
const FEED_SEED: u64 = 11;

/// `(pairs, events per pair)`.
fn shape(ctx: &Ctx) -> (usize, usize) {
    if ctx.mini {
        (2, 12)
    } else {
        (8, 60)
    }
}

/// Pair `i`'s initial table membership and feed, seeded the way
/// `churn::run` seeds them.
fn feed(pair: &ChurnPair<'_>, i: usize, events: usize) -> (Vec<bool>, Vec<ChurnEvent>) {
    let pair_seed = FEED_SEED ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let initial = churn::initial_active(pair, pair_seed);
    let trace = churn::generate_trace(pair, &initial, events, pair_seed);
    (initial, trace)
}

/// Which path an event took, by the public counter it bumped, joined
/// with what kind of event it was.
fn tag(kind: ChurnKind, before: (u64, u64, u64), driver: &ChurnDriver<'_>) -> &'static str {
    let cached = driver.cached_outcomes > before.0;
    let incremental = driver.incremental_sessions > before.1;
    debug_assert!(cached || incremental || driver.fallback_sessions > before.2);
    match (kind, cached, incremental) {
        (ChurnKind::LoadDelta { .. }, true, _) => "load_delta/cached",
        (ChurnKind::LoadDelta { .. }, _, true) => "load_delta/incremental",
        (ChurnKind::LoadDelta { .. }, ..) => "load_delta/fallback",
        (ChurnKind::FlowAdd(_) | ChurnKind::FlowRemove(_), true, _) => "flow/cached",
        (ChurnKind::FlowAdd(_) | ChurnKind::FlowRemove(_), _, true) => "flow/incremental",
        (ChurnKind::FlowAdd(_) | ChurnKind::FlowRemove(_), ..) => "flow/fallback",
        (ChurnKind::LinkFail(_) | ChurnKind::LinkRestore, true, _) => "topology/cached",
        (ChurnKind::LinkFail(_) | ChurnKind::LinkRestore, _, true) => "topology/incremental",
        (ChurnKind::LinkFail(_) | ChurnKind::LinkRestore, ..) => "topology/fallback",
    }
}

/// Why the live state differs from a from-scratch rebuild, if it does.
fn divergence(live: &NegotiatedState, cold: &NegotiatedState) -> Option<&'static str> {
    if live.assignment != cold.assignment {
        return Some("assignment");
    }
    if (live.gain_a, live.gain_b) != (cold.gain_a, cold.gain_b) {
        return Some("gains");
    }
    if live.termination != cold.termination || live.reassignments != cold.reassignments {
        return Some("termination");
    }
    match (live.opt_t, cold.opt_t) {
        (Some(w), Some(c)) if (w - c).abs() > 1e-6 => Some("LP objective"),
        (Some(_), None) | (None, Some(_)) => Some("LP evaluated on one path only"),
        _ => None,
    }
}

/// One pass: bring every pair live in set-up, then apply every event.
pub fn pass(ctx: &Ctx, p: &mut Pass<'_>, objective: Objective) -> Values {
    let (max_pairs, events) = shape(ctx);
    let cfg = ChurnConfig {
        objective,
        ..ChurnConfig::default()
    };
    let universe = p.setup("topology.generate", |_| churn::universe());
    let pairs: Vec<ChurnPair<'_>> = p.setup("sim.pair_selection", |tr| {
        universe
            .eligible_pairs(3, false)
            .into_iter()
            .filter(|&i| FLOWS.contains(&pair_flows(&universe, i)))
            .take(max_pairs)
            .map(|i| tr.span("churn.pair_build", || ChurnPair::build(&universe, i, 2)))
            .collect()
    });
    let (feeds, arrivals) = p.setup("churn.feeds", |_| {
        let feeds: Vec<(Vec<bool>, Vec<ChurnEvent>)> = pairs
            .iter()
            .enumerate()
            .map(|(i, pair)| feed(pair, i, events))
            .collect();
        // Which pair each arriving event belongs to.
        let mut arrivals: Vec<usize> = (0..pairs.len() * events).map(|a| a / events).collect();
        shuffle(&mut arrivals, ctx.seed);
        (feeds, arrivals)
    });
    let mut drivers: Vec<ChurnDriver<'_>> = p.setup("churn.drivers", |tr| {
        pairs
            .iter()
            .zip(&feeds)
            .map(|(pair, (initial, _))| {
                tr.span("churn.driver_new", || {
                    ChurnDriver::new(pair, initial.clone(), cfg)
                })
            })
            .collect()
    });

    let mut counts = Values::new();
    let mut applied = vec![0usize; pairs.len()];
    for (arrival, &i) in arrivals.iter().enumerate() {
        let (pair, driver) = (&pairs[i], &mut drivers[i]);
        let event = &feeds[i].1[applied[i]];
        applied[i] += 1;
        p.op(|tr, digest| {
            let before = (
                driver.cached_outcomes,
                driver.incremental_sessions,
                driver.fallback_sessions,
            );
            let open = tr.begin("churn.apply");
            driver.apply(event);
            tr.end(open, tag(event.kind, before, driver), 0);
            let live = driver.negotiated();
            digest.int(i as i64);
            digest.assignment(&live.assignment);
            digest.int(live.gain_a);
            digest.int(live.gain_b);
            digest.termination(live.termination);
            digest.int(live.reassignments as i64);
            digest.real(live.opt_t.unwrap_or(-1.0));
            Ok(())
        });
        *counts.entry("work_units").or_default() += driver.last_work() as f64;
        if p.tr.enabled() && arrival % COLD_TWIN_EVERY == 0 {
            // The cold twin of the event just applied, outside the op.
            p.tr.span("churn.cold_rebuild", || {
                churn::cold_rebuild(pair, driver.state(), &cfg)
            });
        }
    }
    for (pair, driver) in pairs.iter().zip(&drivers) {
        if p.verify {
            let (cold, _) = churn::cold_rebuild(pair, driver.state(), &cfg);
            if let Some(what) = divergence(driver.negotiated(), &cold) {
                p.fail_last(format!("final state diverged from a cold rebuild: {what}"));
            }
            if let Some(error) = driver.lp_errors.first() {
                p.fail_last(format!(
                    "{} LP error(s), first: {error}",
                    driver.lp_errors.len()
                ));
            }
        }
        let (refreshed, served, invalidated) = driver.cache_stats();
        for (name, value) in [
            ("events", events as u64),
            ("cached", driver.cached_outcomes),
            ("incremental", driver.incremental_sessions),
            ("fallback", driver.fallback_sessions),
            ("signature_hits", driver.signature_hits),
            ("signature_misses", driver.signature_misses),
            ("rows_refreshed", refreshed),
            ("rows_served", served),
            ("rows_load_invalidated", invalidated),
        ] {
            *counts.entry(name).or_default() += value as f64;
        }
        add_lp_counts(driver.lp_stats(), &mut counts);
    }
    counts
}

/// Layer metrics of a traced pass.
pub fn layer_metrics(spans: &[Span], counts: &Values, out: &mut Values) {
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let t = |name| trace::totals(spans, name);
    out.insert(
        "topology.generate_ms",
        t("topology.generate").self_ms_per_call(),
    );
    out.insert(
        "churn.pair_build_ms",
        t("churn.pair_build").self_ms_per_call(),
    );
    out.insert(
        "churn.driver_new_ms_per_pair",
        t("churn.driver_new").self_ms_per_call(),
    );

    for (metric, wanted) in [
        ("churn.event_ms_p50.load_delta", "load_delta/"),
        ("churn.event_ms_p50.flow", "flow/"),
        ("churn.event_ms_p50.topology", "topology/"),
    ] {
        let ms = trace::durations_ms(spans, "churn.apply", |tag| tag.starts_with(wanted));
        out.insert(metric, median_or_zero(&ms));
    }
    for (metric, wanted) in [
        ("churn.event_ms_p50.cached", "/cached"),
        ("churn.event_ms_p50.incremental", "/incremental"),
        ("churn.event_ms_p50.fallback", "/fallback"),
    ] {
        let ms = trace::durations_ms(spans, "churn.apply", |tag| tag.ends_with(wanted));
        out.insert(metric, median_or_zero(&ms));
    }

    let events = get("events");
    out.insert("churn.cached_share", trace::ratio(get("cached"), events));
    out.insert(
        "churn.incremental_share",
        trace::ratio(get("incremental"), events),
    );
    out.insert(
        "churn.fallback_share",
        trace::ratio(get("fallback"), events),
    );
    out.insert(
        "churn.signature_hit_share",
        trace::ratio(
            get("signature_hits"),
            get("signature_hits") + get("signature_misses"),
        ),
    );
    out.insert(
        "churn.rows_refreshed_per_event",
        trace::ratio(get("rows_refreshed"), events),
    );
    out.insert(
        "churn.rows_served_per_event",
        trace::ratio(get("rows_served"), events),
    );
    out.insert(
        "churn.rows_load_invalidated_per_event",
        trace::ratio(get("rows_load_invalidated"), events),
    );
    out.insert(
        "churn.work_units_per_event",
        trace::ratio(get("work_units"), events),
    );
    out.insert(
        "churn.lp_warm_share",
        trace::ratio(get("lp_warm"), get("lp_solves")),
    );
    lp_count_metrics(counts, out);

    // Each cold twin directly follows the apply it shadows.
    let mut ratios = Vec::new();
    let mut last_apply = None;
    for span in spans {
        match span.name {
            "churn.apply" => last_apply = Some(span.ns()),
            "churn.cold_rebuild" => {
                if let Some(apply) = last_apply.take() {
                    ratios.push(apply as f64 / span.ns() as f64);
                }
            }
            _ => {}
        }
    }
    let cold = trace::durations_ms(spans, "churn.cold_rebuild", |_| true);
    out.insert("churn.cold_rebuild_ms_p50", median_or_zero(&cold));
    if !ratios.is_empty() {
        stats::sort(&mut ratios);
        let tail = stats::tail_percentile(ratios.len()).unwrap_or(90.0);
        out.insert(
            "churn.incremental_over_cold_p50",
            stats::percentile(&ratios, 50.0),
        );
        out.insert(
            "churn.incremental_over_cold_tail",
            stats::percentile(&ratios, tail),
        );
    }
}
