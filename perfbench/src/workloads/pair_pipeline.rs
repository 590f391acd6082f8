//! `pair_pipeline`: the paper's §5 evaluation of one ISP pair, minus
//! the LP.
//!
//! One op is one pair of the paper-scale universe with three or more
//! interconnections: `PairFailureSweep::build`, a distance negotiation
//! on the intact pair, then a bandwidth negotiation (5 % reassignment)
//! of each of its failure scenarios on one shared arena. `routing`,
//! `workload` and `core` do all the work; `proto`, `broker` and `lp`
//! none. The median op is a small session and the tail a 2 000-flow
//! one, so index and round-loop gains show in the tail and per-session
//! set-up gains in the median.

use super::{pair_flows, whole_pair_input, Ctx, TracedMapper, Values, TOPOLOGY_SEED};
use crate::harness::Pass;
use crate::trace::{self, Span, Tracer};
use nexit_core::selection::TableState;
use nexit_core::{
    negotiate_in, quantize, BandwidthMapper, CandidateIndex, DistanceMapper, GainTable,
    NegotiationOutcome, NexitConfig, Party, PreferenceMapper, Side, TableArena,
};
use nexit_routing::{Assignment, FlowId, ShortestPaths};
use nexit_sim::experiments::bandwidth::{FailureScenario, PairFailureSweep};
use nexit_sim::{ExpConfig, PairData};
use nexit_topology::{GeneratorConfig, IcxId, TopologyGenerator, Universe};
use nexit_workload::{assign_capacities, link_loads, CapacityModel, WorkloadModel};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn universe(ctx: &Ctx) -> Universe {
    let paper_scale = GeneratorConfig {
        seed: TOPOLOGY_SEED,
        ..GeneratorConfig::default()
    };
    let config = if ctx.mini {
        GeneratorConfig {
            num_isps: 12,
            num_mesh_isps: 0,
            ..paper_scale
        }
    } else {
        paper_scale
    };
    TopologyGenerator::new(config).generate()
}

fn exp_config(ctx: &Ctx) -> ExpConfig {
    ExpConfig {
        workload: WorkloadModel::Uniform { seed: ctx.seed },
        threads: 1,
        ..ExpConfig::default()
    }
}

/// One pass: every eligible pair of the universe, in pair order.
pub fn pass(ctx: &Ctx, p: &mut Pass<'_>) -> Values {
    let universe = p.setup("topology.generate", |_| universe(ctx));
    let (eligible, exp, capacity_model) = p.setup("sim.pair_selection", |_| {
        let mut eligible = universe.eligible_pairs(3, false);
        if ctx.mini {
            eligible.truncate(4);
        }
        (eligible, exp_config(ctx), CapacityModel::default())
    });
    let mut arena = TableArena::new();
    for &idx in &eligible {
        p.op(|tr, digest| {
            let sweep = if tr.enabled() {
                traced_sweep_build(tr, &universe, idx, &exp, &capacity_model)
            } else {
                PairFailureSweep::build(&universe, idx, &exp, &capacity_model)
            };
            let intact = negotiate_distance(tr, &mut arena, &sweep.full);
            digest.assignment(&intact.assignment);
            digest.int(intact.gain_a);
            digest.int(intact.gain_b);
            digest.termination(intact.termination);
            digest.int(intact.reassignments as i64);
            for scenario in &sweep.scenarios {
                let assignment = if tr.enabled() {
                    traced_negotiate_bandwidth(tr, &mut arena, scenario)
                } else {
                    scenario.negotiate_bandwidth_in(&mut arena)
                };
                digest.assignment(&assignment);
            }
            // The win-win configuration's guarantee: nobody ends worse
            // off than under default routing.
            if intact.gain_a < 0 || intact.gain_b < 0 {
                return Err(format!(
                    "pair {idx}: negative gain ({}, {})",
                    intact.gain_a, intact.gain_b
                ));
            }
            Ok(())
        });
    }
    Values::new()
}

/// Distance negotiation over every flow of the intact pair.
fn negotiate_distance(
    tr: &Tracer,
    arena: &mut TableArena,
    data: &PairData<'_>,
) -> NegotiationOutcome {
    let input = whole_pair_input(data);
    let fill = "core.gain_fill_distance";
    let mut a = Party::honest(
        "A",
        TracedMapper::new(tr, fill, DistanceMapper::new(Side::A, &data.flows)),
    );
    let mut b = Party::honest(
        "B",
        TracedMapper::new(tr, fill, DistanceMapper::new(Side::B, &data.flows)),
    );
    let open = tr.begin("core.negotiate_distance");
    let outcome = negotiate_in(
        arena,
        &input,
        &data.default,
        &mut a,
        &mut b,
        &NexitConfig::win_win(),
    );
    tr.end(open, "", outcome.transcript.len() as u64);
    outcome
}

/// `FailureScenario::negotiate_bandwidth_in` from its public
/// constituents, with the gain fills and the round count recorded.
fn traced_negotiate_bandwidth(
    tr: &Tracer,
    arena: &mut TableArena,
    s: &FailureScenario<'_>,
) -> Assignment {
    let input = s.session_input();
    let fill = "core.gain_fill_bandwidth";
    let mapper = |side, caps| BandwidthMapper::new(side, &s.data.flows, &s.data.paths, caps);
    let mut a = Party::honest(
        "up",
        TracedMapper::new(tr, fill, mapper(Side::A, &s.caps_up)),
    );
    let mut b = Party::honest(
        "down",
        TracedMapper::new(tr, fill, mapper(Side::B, &s.caps_down)),
    );
    let open = tr.begin("core.negotiate_bandwidth");
    let outcome = negotiate_in(
        arena,
        &input,
        &s.data.default,
        &mut a,
        &mut b,
        &NexitConfig::win_win_bandwidth(),
    );
    tr.end(open, "", outcome.transcript.len() as u64);
    outcome.assignment
}

/// `PairFailureSweep::build` from its public constituents, one span per
/// layer boundary (`PairData::build` = 2 × `ShortestPaths::compute` +
/// `build_with_paths`).
fn traced_sweep_build<'u>(
    tr: &Tracer,
    universe: &'u Universe,
    pair_idx: usize,
    cfg: &ExpConfig,
    capacity_model: &CapacityModel,
) -> PairFailureSweep<'u> {
    let pair = &universe.pairs[pair_idx];
    let a = &universe.isps[pair.isp_a.index()];
    let b = &universe.isps[pair.isp_b.index()];
    let sp_up = Arc::new(tr.span_units("routing.shortest_paths", 1, || ShortestPaths::compute(a)));
    let sp_down =
        Arc::new(tr.span_units("routing.shortest_paths", 1, || ShortestPaths::compute(b)));
    let full = tr.span("routing.pair_tables", || {
        PairData::build_with_paths(a, b, pair.clone(), cfg.workload, sp_up, sp_down)
    });
    let (pre_loads, caps_up, caps_down) = tr.span("workload.loads_caps", || {
        let pre_loads = link_loads(&full.view(), &full.paths, &full.flows, &full.default);
        let caps_up = assign_capacities(capacity_model, &pre_loads.up);
        let caps_down = assign_capacities(capacity_model, &pre_loads.down);
        (pre_loads, caps_up, caps_down)
    });

    let mut scenarios = Vec::new();
    let failures = pair.num_interconnections().min(cfg.max_failures_per_pair);
    for failed in 0..failures {
        let failed_icx = IcxId::new(failed);
        let (reduced, _) = full.pair.without_interconnection(failed_icx);
        if reduced.num_interconnections() < 2 {
            continue;
        }
        let data = tr.span("routing.pair_tables", || {
            full.build_reduced(reduced, cfg.workload)
        });
        let impacted: Vec<FlowId> = full
            .default
            .iter()
            .filter(|(_, choice)| *choice == failed_icx)
            .map(|(id, _)| id)
            .collect();
        if impacted.is_empty() {
            continue;
        }
        let default_mels = tr.span("workload.loads_caps", || {
            let loads = link_loads(&data.view(), &data.paths, &data.flows, &data.default);
            nexit_metrics::side_mels(&loads, &caps_up, &caps_down)
        });
        scenarios.push(FailureScenario {
            failed: failed_icx,
            data,
            impacted,
            caps_up: caps_up.clone(),
            caps_down: caps_down.clone(),
            default_mels,
        });
    }
    PairFailureSweep {
        full,
        caps_up,
        caps_down,
        pre_loads,
        candidate_failures: failures,
        scenarios,
    }
}

/// Layer metrics of a traced pass.
pub fn layer_metrics(spans: &[Span], out: &mut Values) {
    let ops = trace::totals(spans, trace::OP_SPAN).calls as f64;
    let t = |name| trace::totals(spans, name);
    out.insert(
        "topology.generate_ms",
        t("topology.generate").self_ms_per_call(),
    );
    out.insert(
        "routing.shortest_paths_ms_per_isp",
        t("routing.shortest_paths").self_ms_per_call(),
    );
    out.insert(
        "routing.pair_tables_ms_per_pair",
        trace::ratio(t("routing.pair_tables").self_ns as f64 / 1e6, ops),
    );
    out.insert(
        "workload.loads_caps_ms_per_pair",
        trace::ratio(t("workload.loads_caps").self_ns as f64 / 1e6, ops),
    );
    out.insert(
        "core.gain_fill_distance_ns_per_cell",
        t("core.gain_fill_distance").self_ns_per_unit(),
    );
    out.insert(
        "core.gain_fill_bandwidth_ns_per_cell",
        t("core.gain_fill_bandwidth").self_ns_per_unit(),
    );
    let (distance, bandwidth) = (t("core.negotiate_distance"), t("core.negotiate_bandwidth"));
    out.insert(
        "core.negotiate_distance_ms_per_session",
        distance.self_ms_per_call(),
    );
    out.insert(
        "core.negotiate_bandwidth_ms_per_session",
        bandwidth.self_ms_per_call(),
    );
    // Each side fills once at the start and once per reassignment.
    let fills = t("core.gain_fill_bandwidth").calls as f64;
    let sessions = bandwidth.calls as f64;
    out.insert(
        "core.reassignments_per_session",
        trace::ratio(fills, 2.0 * sessions) - if sessions > 0.0 { 1.0 } else { 0.0 },
    );
    out.insert(
        "core.rounds_per_session",
        trace::ratio(bandwidth.units as f64, sessions),
    );
    out.insert(
        "core.us_per_round",
        trace::ratio(bandwidth.self_ns as f64 / 1e3, bandwidth.units as f64),
    );
}

/// `core::prefs` and `core::index` on their own: quantize and index a
/// gain table of the universe's largest pair, per cell.
pub fn probes(ctx: &Ctx, out: &mut Values) {
    let universe = universe(ctx);
    let idx = universe
        .eligible_pairs(3, false)
        .into_iter()
        .max_by_key(|&i| pair_flows(&universe, i))
        .expect("universe has an eligible pair");
    let pair = &universe.pairs[idx];
    let data = PairData::build(
        &universe.isps[pair.isp_a.index()],
        &universe.isps[pair.isp_b.index()],
        pair.clone(),
        WorkloadModel::Identical,
    );
    let input = whole_pair_input(&data);
    let config = NexitConfig::win_win();
    let mut gains = GainTable::new(input.len(), input.num_alternatives);
    DistanceMapper::new(Side::A, &data.flows).gains(&input, &data.default, &mut gains);
    let cells = (input.len() * input.num_alternatives) as f64;
    let reps = if ctx.mini { 2 } else { 20 };

    let start = Instant::now();
    for _ in 0..reps {
        black_box(quantize(black_box(&gains), config.pref_range));
    }
    let quantize_ns = start.elapsed().as_nanos() as f64 / f64::from(reps);
    out.insert("core.quantize_ns_per_cell", quantize_ns / cells);

    // The index materialises lazily: building it means the first
    // `select` after a rebuild, which fills one threshold row and heap.
    let own = quantize(&gains, config.pref_range);
    DistanceMapper::new(Side::B, &data.flows).gains(&input, &data.default, &mut gains);
    let other = quantize(&gains, config.pref_range);
    let state = TableState::new(input.len(), input.num_alternatives);
    let start = Instant::now();
    for _ in 0..reps {
        let mut index = CandidateIndex::new(
            config.proposal,
            config.pref_range,
            &input.defaults,
            input.num_alternatives,
            false,
        );
        index.rebuild(&own, &other, &own, &state);
        black_box(index.select(&own, &other, &state, None));
    }
    let index_ns = start.elapsed().as_nanos() as f64 / f64::from(reps);
    out.insert("core.index_build_ns_per_cell", index_ns / cells);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced build must be the product's build, call for call.
    #[test]
    fn traced_build_matches_the_product() {
        let ctx = Ctx {
            seed: 5,
            mini: true,
        };
        let universe = universe(&ctx);
        let exp = exp_config(&ctx);
        let model = CapacityModel::default();
        let tr = Tracer::new(true);
        for idx in universe.eligible_pairs(3, false).into_iter().take(3) {
            let ours = traced_sweep_build(&tr, &universe, idx, &exp, &model);
            let theirs = PairFailureSweep::build(&universe, idx, &exp, &model);
            assert_eq!(ours.caps_up, theirs.caps_up);
            assert_eq!(ours.caps_down, theirs.caps_down);
            assert_eq!(ours.candidate_failures, theirs.candidate_failures);
            assert_eq!(ours.full.default, theirs.full.default);
            assert_eq!(ours.scenarios.len(), theirs.scenarios.len());
            for (o, t) in ours.scenarios.iter().zip(&theirs.scenarios) {
                assert_eq!(o.failed, t.failed);
                assert_eq!(o.impacted, t.impacted);
                assert_eq!(o.default_mels, t.default_mels);
                assert_eq!(o.data.default, t.data.default);
            }
        }
        assert!(trace::totals(&tr.take(), "routing.shortest_paths").calls >= 6);
    }
}
