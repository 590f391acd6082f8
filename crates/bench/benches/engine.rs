//! Negotiation-engine benchmarks: session cost versus flow count and
//! alternatives, with and without reassignment — plus the
//! failure-scenario LP sweep (warm vs cold), whose rows pin the
//! warm-start win in `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nexit_core::{negotiate, GainTable, NexitConfig, Party, PreferenceMapper, SessionInput};
use nexit_routing::{Assignment, FlowId};
use nexit_sim::experiments::bandwidth::PairFailureSweep;
use nexit_sim::ExpConfig;
use nexit_topology::{GeneratorConfig, IcxId, TopologyGenerator, Universe};
use nexit_workload::CapacityModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct RandomMapper {
    gains: GainTable,
}

impl RandomMapper {
    fn new(n: usize, k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gains = GainTable::new(n, k);
        for f in 0..n {
            let row = gains.row_mut(f);
            for cell in row.iter_mut() {
                *cell = rng.gen_range(-100.0..100.0);
            }
            row[0] = 0.0;
        }
        Self { gains }
    }
}

impl PreferenceMapper for RandomMapper {
    /// Projects the fixed global table onto the session's flows, so the
    /// same mapper serves whole-set sessions and grouped sub-sessions.
    fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
        for (local, f) in i.flow_ids.iter().enumerate() {
            out.row_mut(local)
                .copy_from_slice(self.gains.row(f.index()));
        }
    }
}

fn input(n: usize, k: usize) -> SessionInput {
    SessionInput {
        flow_ids: (0..n).map(FlowId::new).collect(),
        defaults: vec![IcxId(0); n],
        volumes: vec![1.0; n],
        num_alternatives: k,
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("negotiate");
    group.sample_size(20);
    for &n in &[50usize, 200, 800] {
        group.bench_with_input(BenchmarkId::new("flows", n), &n, |bencher, &n| {
            let inp = input(n, 4);
            let default = Assignment::uniform(n, IcxId(0));
            bencher.iter(|| {
                let mut a = Party::honest("A", RandomMapper::new(n, 4, 1));
                let mut b = Party::honest("B", RandomMapper::new(n, 4, 2));
                negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::win_win())
            });
        });
    }
    for &k in &[2usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("alternatives", k), &k, |bencher, &k| {
            let inp = input(200, k);
            let default = Assignment::uniform(200, IcxId(0));
            bencher.iter(|| {
                let mut a = Party::honest("A", RandomMapper::new(200, k, 1));
                let mut b = Party::honest("B", RandomMapper::new(200, k, 2));
                negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::win_win())
            });
        });
    }
    // Paper-scale sessions: a large ISP pair negotiating every flow.
    // These are the sessions the candidate index exists for — the
    // per-round work must stay near-constant, not O(flows × alts).
    for &(n, k) in &[(2_000usize, 8usize), (4_000, 8)] {
        group.bench_with_input(
            BenchmarkId::new("large", format!("{n}x{k}")),
            &(n, k),
            |bencher, &(n, k)| {
                let inp = input(n, k);
                let default = Assignment::uniform(n, IcxId(0));
                bencher.iter(|| {
                    let mut a = Party::honest("A", RandomMapper::new(n, k, 1));
                    let mut b = Party::honest("B", RandomMapper::new(n, k, 2));
                    negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::win_win())
                });
            },
        );
    }
    // The §6 close: the rows above draw both gain tables from one
    // distribution, no side ever ends negative, and the credit-veto
    // rollback they all run plans nothing. Real pairs are lopsided — a
    // quarter of their accepted moves are rolled back — so here B
    // loses half of what A gains on three flows in four: the combined
    // maximum keeps trading at B's expense and the close undoes 550 of
    // the 2 000 accepted moves.
    group.bench_function("rollback_2000x4", |bencher| {
        let (n, k) = (2_000, 4);
        let inp = input(n, k);
        let default = Assignment::uniform(n, IcxId(0));
        let lopsided = || {
            let a = RandomMapper::new(n, k, 1);
            let mut b = RandomMapper::new(n, k, 2);
            for f in (0..n).filter(|f| f % 4 != 0) {
                for (cell, &theirs) in b.gains.row_mut(f).iter_mut().zip(a.gains.row(f)) {
                    *cell = -0.5 * theirs;
                }
            }
            (Party::honest("A", a), Party::honest("B", b))
        };
        let (mut a, mut b) = lopsided();
        let outcome = negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::win_win());
        let (accepted, reverted) = (outcome.flows_negotiated(), outcome.flows_rolled_back());
        assert!(
            5 * reverted >= accepted,
            "the fixture must roll back a fifth of its {accepted} accepted moves, not {reverted}"
        );
        bencher.iter(|| {
            let (mut a, mut b) = lopsided();
            negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::win_win())
        });
    });
    // Early-termination stop projections are the other rescan hot spot:
    // every round used to re-sort all remaining flows.
    group.bench_function("large_early_stop/2000x8", |bencher| {
        let (n, k) = (2_000, 8);
        let inp = input(n, k);
        let default = Assignment::uniform(n, IcxId(0));
        let config = NexitConfig {
            stop: nexit_core::StopPolicy::Early,
            ..NexitConfig::win_win()
        };
        bencher.iter(|| {
            let mut a = Party::honest("A", RandomMapper::new(n, k, 1));
            let mut b = Party::honest("B", RandomMapper::new(n, k, 2));
            negotiate(&inp, &default, &mut a, &mut b, &config)
        });
    });
    // Reassignment is the allocation-churn hot spot the table arena
    // targets: every 5% of accepted volume the mapper-gains → quantize →
    // disclose chain re-runs on both sides, over the flows still on the
    // table. With flat arena-backed tables the steady state of this
    // loop allocates nothing but the wire copy of each disclosed table.
    group.bench_function("reassignment_5pct", |bencher| {
        let n = 200;
        let inp = input(n, 4);
        let default = Assignment::uniform(n, IcxId(0));
        let config = NexitConfig {
            reassign_interval_frac: Some(0.05),
            ..NexitConfig::win_win()
        };
        // What makes the row representative: the session re-maps often,
        // and each re-map is asked for fewer rows than the one before.
        struct Counting<'a>(RandomMapper, &'a mut Vec<usize>);
        impl PreferenceMapper for Counting<'_> {
            fn gains(&mut self, i: &SessionInput, c: &Assignment, out: &mut GainTable) {
                self.1.push(i.len());
                self.0.gains(i, c, out);
            }
        }
        let mut rows_asked = Vec::new();
        let outcome = {
            let mut a = Party::honest("A", Counting(RandomMapper::new(n, 4, 1), &mut rows_asked));
            let mut b = Party::honest("B", RandomMapper::new(n, 4, 2));
            negotiate(&inp, &default, &mut a, &mut b, &config)
        };
        assert!(outcome.reassignments >= 10, "{}", outcome.reassignments);
        assert_eq!(rows_asked.len(), outcome.reassignments + 1);
        assert!(rows_asked.windows(2).all(|w| w[1] < w[0]), "{rows_asked:?}");
        bencher.iter(|| {
            let mut a = Party::honest("A", RandomMapper::new(n, 4, 1));
            let mut b = Party::honest("B", RandomMapper::new(n, 4, 2));
            negotiate(&inp, &default, &mut a, &mut b, &config)
        });
    });
    // Grouped negotiation: many back-to-back sessions over one shared
    // arena. Before the arena each group allocated its own tables, index
    // heaps and projection tree, making the sweep's setup
    // O(groups × group size) allocations; now the whole sweep draws from
    // one recycled buffer set.
    group.bench_function("grouped_sweep/2000x8x32", |bencher| {
        let (n, k, groups) = (2_000, 8, 32);
        let inp = input(n, k);
        let default = Assignment::uniform(n, IcxId(0));
        bencher.iter(|| {
            let mut a = Party::honest("A", RandomMapper::new(n, k, 1));
            let mut b = Party::honest("B", RandomMapper::new(n, k, 2));
            nexit_baselines::negotiate_in_groups(
                &inp,
                &default,
                &mut a,
                &mut b,
                &NexitConfig::win_win(),
                groups,
            )
        });
    });
    group.finish();
}

/// The 16-ISP universe the pair-level rows share.
fn sweep_universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 16,
        num_mesh_isps: 1,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

/// The eligible pair with the most failure scenarios (ties broken by
/// pair order), so a sweep covers several programs.
fn largest_sweep(universe: &Universe) -> PairFailureSweep<'_> {
    let cfg = ExpConfig {
        max_failures_per_pair: 5,
        threads: 1,
        ..ExpConfig::default()
    };
    let sweep = universe
        .eligible_pairs(3, false)
        .into_iter()
        .map(|idx| PairFailureSweep::build(universe, idx, &cfg, &CapacityModel::default()))
        .max_by_key(|s| s.scenarios.len())
        .expect("universe yields an eligible pair");
    assert!(
        sweep.scenarios.len() >= 3,
        "sweep too small to exercise warm starts: {}",
        sweep.scenarios.len()
    );
    sweep
}

/// The layers under one `pair_pipeline` op, each on its own: the
/// percentile scale of a paper-scale gain table, one bandwidth gain
/// fill of a failure scenario (both sides; the unit the 5 %
/// reassignment loop repeats), and one failure variant's tables
/// derived from the intact pair's.
fn bench_pair_layers(c: &mut Criterion) {
    use nexit_core::prefs::quantize_into;
    use nexit_core::{BandwidthMapper, PrefTable, Side};

    let mut group = c.benchmark_group("prefs");
    group.bench_function("quantize/8000", |bencher| {
        let gains = RandomMapper::new(2_000, 4, 1).gains;
        let mut out = PrefTable::zero(0, 0);
        let mut scratch = Vec::new();
        bencher.iter(|| {
            quantize_into(&gains, 10, &mut out, &mut scratch);
            out.max_class()
        });
    });
    group.finish();

    let universe = sweep_universe();
    let sweep = largest_sweep(&universe);
    let scenario = sweep
        .scenarios
        .iter()
        .max_by_key(|s| s.impacted.len())
        .expect("sweep has scenarios");

    let mut group = c.benchmark_group("mapping");
    group.bench_function("bw_fill", |bencher| {
        let data = &scenario.data;
        let inp = scenario.session_input();
        // The mappers keep their loads across fills and update them from
        // the flows that moved: refill alternately under the default and
        // under one 5 % reassignment's worth of session flows moved, as
        // a session's refills do, not under an unchanged assignment.
        let mut moved = data.default.clone();
        let budget = 0.05 * inp.volumes.iter().sum::<f64>();
        let mut volume = 0.0;
        for ((&f, &default), &v) in inp.flow_ids.iter().zip(&inp.defaults).zip(&inp.volumes) {
            if volume >= budget {
                break;
            }
            moved.set(f, IcxId::new((default.index() + 1) % inp.num_alternatives));
            volume += v;
        }
        let diff = data.default.diff(&moved).len();
        assert!(
            diff > 0 && diff * 10 < data.flows.len(),
            "{diff} of {} flows moved",
            data.flows.len()
        );
        let currents = [&data.default, &moved];
        let mut up = BandwidthMapper::new(Side::A, &data.flows, &data.paths, &scenario.caps_up);
        let mut down = BandwidthMapper::new(Side::B, &data.flows, &data.paths, &scenario.caps_down);
        let mut out = GainTable::new(inp.len(), inp.num_alternatives);
        let mut fills = 0usize;
        bencher.iter(|| {
            let current = currents[fills % 2];
            fills += 1;
            up.gains(&inp, current, &mut out);
            down.gains(&inp, current, &mut out);
            out.get(0, 0)
        });
    });
    group.finish();

    let mut group = c.benchmark_group("pairdata");
    group.bench_function("build_reduced", |bencher| {
        // Tables are stored per PoP; a fixture with few flows per PoP
        // would hide a per-flow copy coming back.
        let full = &sweep.full;
        let (flows, pops) = (full.flows.len(), full.a.num_pops() + full.b.num_pops());
        assert!(flows >= 4 * pops, "{flows} flows over {pops} PoPs");
        let (reduced, _) = full.pair.without_interconnection(scenario.failed);
        bencher.iter(|| {
            full.build_reduced(reduced.clone(), ExpConfig::default().workload)
                .default
                .len()
        });
    });
    group.finish();
}

/// One pair, all failure scenarios, each re-solved across a ladder of
/// background-load scales (the §5.2 what-if-traffic-grows sweep): the
/// fractional-optimum LPs solved warm (per-scenario skeleton built once,
/// rhs patched per scale, basis carried over) versus cold (the identical
/// formulation with the basis invalidated before every solve). The
/// warm/cold ratio is the tentpole number the CI bench gate tracks.
fn bench_scenario_sweep(c: &mut Criterion) {
    let universe = sweep_universe();
    let sweep = largest_sweep(&universe);
    const GROWTH: [f64; 5] = [1.0, 1.05, 1.1, 1.2, 1.4];

    let mut group = c.benchmark_group("scenario_sweep");
    group.sample_size(10);
    group.bench_function("warm", |b| {
        b.iter(|| {
            let mut lp = sweep.lp_session(usize::MAX);
            let mut acc = 0.0;
            for s in &sweep.scenarios {
                for &scale in &GROWTH {
                    acc += lp
                        .solve_failure_scaled(s.failed, scale)
                        .expect("solvable")
                        .t;
                }
            }
            acc
        })
    });
    group.bench_function("cold", |b| {
        b.iter(|| {
            let mut lp = sweep.lp_session(usize::MAX);
            let mut acc = 0.0;
            for s in &sweep.scenarios {
                for &scale in &GROWTH {
                    lp.invalidate_warm();
                    acc += lp
                        .solve_failure_scaled(s.failed, scale)
                        .expect("solvable")
                        .t;
                }
            }
            acc
        })
    });
    group.finish();
}

/// Build a min-max load-ratio LP (the bandwidth-optimum shape): `flows`
/// flows split over `k` choices, `links` capacity rows with random
/// coefficients. Returns the capacity rows' indices for the rhs-patch
/// bench. Mirrors the `lp` bench's generator so the
/// gated rows here and the exploratory rows there describe the same
/// programs.
fn min_max_program(
    flows: usize,
    k: usize,
    links: usize,
    seed: u64,
) -> (nexit_lp::LpProblem, Vec<usize>) {
    use nexit_lp::{ConstraintOp, LpProblem};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    let mut cap_rows: Vec<usize> = Vec::new();
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
        let cap = rng.gen_range(1.0..10.0);
        row.push((t, -cap));
        cap_rows.push(p.num_constraints());
        p.add_constraint(row, ConstraintOp::Le, 0.0);
    }
    (p, cap_rows)
}

/// Synthetic min-max-ratio programs, cold and warm: the gated
/// `BENCH_engine.json` rows for the simplex engine itself.
///
/// * `cold` — one full two-phase solve of the paper-scale 120-flow /
///   80-link program per iteration: the first-solve price every new
///   skeleton (broker batch, churn event, mesh hop) pays, and the row
///   the sparse-LU + devex engine is gated on (parity vs the old dense
///   tableau).
/// * `warm_rhs` — 8 runs of rhs-only patches re-entered through the
///   workspace's dual-simplex path (the failure-sweep access pattern).
/// * `pivot_row` / `price_refresh` — the pricing layer under `cold`, on
///   the same program at its optimal basis: what every devex pivot pays
///   for its pivot row (BTRAN of a unit vector + the row-major kernel,
///   cycling through the basis rows), and what every refactorization
///   and every optimality certificate pays for a from-scratch pricing
///   pass (multipliers BTRAN + all reduced costs).
fn bench_simplex(c: &mut Criterion) {
    use nexit_lp::revised::PricingProbe;
    use nexit_lp::SimplexWorkspace;

    let mut group = c.benchmark_group("simplex");
    group.sample_size(10);

    group.bench_function("cold", |bencher| {
        let (p, _) = min_max_program(120, 3, 80, 7);
        bencher.iter(|| match nexit_lp::solve(&p) {
            nexit_lp::LpOutcome::Optimal { objective, .. } => objective,
            other => panic!("bench program must be solvable, got {other:?}"),
        });
    });

    group.bench_function("pivot_row", |bencher| {
        let (p, _) = min_max_program(120, 3, 80, 7);
        let mut probe = PricingProbe::at_optimum(&p).expect("bench program must be solvable");
        let mut r = 0;
        bencher.iter(|| {
            r = (r + 1) % probe.rows();
            probe.pivot_row(r)
        });
    });

    group.bench_function("price_refresh", |bencher| {
        let (p, _) = min_max_program(120, 3, 80, 7);
        let mut probe = PricingProbe::at_optimum(&p).expect("bench program must be solvable");
        bencher.iter(|| probe.price_refresh());
    });

    group.bench_function("warm_rhs", |bencher| {
        let (mut p, cap_rows) = min_max_program(120, 3, 80, 7);
        let mut ws = SimplexWorkspace::new();
        ws.solve(&p);
        bencher.iter(|| {
            let mut acc = 0.0;
            for step in 0..8u64 {
                // Tighten a deterministic spread of capacity rows
                // (rows past the flow-conservation block).
                for j in 0..4 {
                    let row = cap_rows[(step as usize * 7 + j * 13) % cap_rows.len()];
                    let rhs = p.rhs(row);
                    p.set_rhs(row, rhs - 0.01 * ((step + 1) as f64));
                }
                if let nexit_lp::LpOutcome::Optimal { objective, .. } = ws.solve(&p) {
                    acc += objective;
                }
            }
            acc
        });
    });
    group.finish();
}

/// The layers under one `broker_clean` / `broker_lossy` session, on that
/// session (16 flows × 4 alternatives of
/// [`nexit_sim::experiments::broker::synthetic_specs`]): one small frame
/// written into a buffer and read back in place, one preference list
/// from table to frame to table, one whole session through
/// `run_session` with the agents built before the clock starts, and one
/// session's share of a 250-session batch with all 250 live at once —
/// codec, pump step and broker tick. Their end-to-end parents are the
/// benchmark of record's `broker_clean` / `broker_lossy` workloads, which
/// time whole batches with spread.
fn bench_wire_layers(c: &mut Criterion) {
    use nexit_broker::{Broker, BrokerConfig};
    use nexit_core::{PrefTable, Side};
    use nexit_proto::frame::parse_frame;
    use nexit_proto::messages::{write_pref_list, Message, MessageRef};
    use nexit_proto::{run_session, Agent, FaultyLink};
    use nexit_sim::experiments::broker::{synthetic_specs, ALTS, FLOWS};
    use std::time::Instant;

    let mut group = c.benchmark_group("proto");
    group.bench_function("frame_propose", |bencher| {
        let mut wire = Vec::new();
        let mut round = 0u32;
        bencher.iter(|| {
            round = round.wrapping_add(1);
            wire.clear();
            let propose = Message::Propose {
                round,
                local_flow: 7,
                alternative: IcxId(3),
            };
            propose.encode_into(&mut wire);
            let frame = parse_frame(&wire).expect("sound").expect("whole");
            match MessageRef::parse(frame).expect("well formed") {
                MessageRef::Propose { round, .. } => round,
                other => panic!("wrote a Propose, read {other:?}"),
            }
        });
    });
    group.bench_function("preflist_16x4", |bencher| {
        let mut table = PrefTable::zero(FLOWS, ALTS);
        for flow in 0..FLOWS {
            for (alt, class) in table.row_mut(flow).iter_mut().enumerate() {
                *class = ((flow * 7 + alt * 3) % 21) as i32 - 10;
            }
        }
        let mut wire = Vec::new();
        let mut back = PrefTable::zero(0, 0);
        bencher.iter(|| {
            wire.clear();
            let cells = table.values().iter().map(|&class| class as i16);
            write_pref_list(&mut wire, FLOWS, ALTS, cells);
            let frame = parse_frame(&wire).expect("sound").expect("whole");
            let MessageRef::PrefList {
                rows,
                columns,
                classes,
            } = MessageRef::parse(frame).expect("well formed")
            else {
                panic!("wrote a PrefList");
            };
            back.refill(rows, columns, MessageRef::classes(classes).map(i32::from));
            back.max_class()
        });
        assert_eq!(back, table);
    });
    group.bench_function("session_16x4", |bencher| {
        bencher.iter_custom(|iters| {
            let mut sessions: Vec<_> = synthetic_specs(iters as usize, FLOWS, ALTS, 1)
                .into_iter()
                .map(|spec| {
                    let agent = |side, input, assignment, mapper, disclosure| {
                        Agent::new(
                            side,
                            "bench",
                            input,
                            assignment,
                            mapper,
                            disclosure,
                            spec.config,
                        )
                        .expect("synthetic sessions are valid")
                    };
                    (
                        agent(
                            Side::A,
                            spec.input.clone(),
                            spec.default_assignment.clone(),
                            spec.mapper_a,
                            spec.disclosure_a,
                        ),
                        agent(
                            Side::B,
                            spec.input,
                            spec.default_assignment,
                            spec.mapper_b,
                            spec.disclosure_b,
                        ),
                    )
                })
                .collect();
            let start = Instant::now();
            for (a, b) in &mut sessions {
                let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
                let done = run_session(a, b, &mut ab, &mut ba).expect("clean session");
                std::hint::black_box(done);
            }
            start.elapsed()
        });
    });
    group.finish();

    let mut group = c.benchmark_group("broker");
    group.bench_function("session_16x4_250live", |bencher| {
        const LIVE: u64 = 250;
        let broker = Broker::new(BrokerConfig::with_workers(1));
        bencher.iter_custom(|iters| {
            // Whole batches only: `iters` sessions' worth of their time.
            let batches = iters.div_ceil(LIVE);
            let specs: Vec<_> = (0..batches)
                .map(|batch| synthetic_specs(LIVE as usize, FLOWS, ALTS, 1 + batch))
                .collect();
            let start = Instant::now();
            for batch in specs {
                let run = broker.run_pairs(batch);
                assert_eq!(run.stats.completed as u64, LIVE);
                std::hint::black_box(run);
            }
            start
                .elapsed()
                .mul_f64(iters as f64 / (batches * LIVE) as f64)
        });
    });
    group.finish();
}

/// The churn driver's steady-state feed, replayed live versus rebuilt
/// from scratch after every event. `replay` drives one pair's seeded
/// 60-event feed (load drift + flow churn, no topology flaps) through
/// [`nexit_sim::churn::ChurnDriver`] — outcome cache, incrementally
/// maintained loads, recycled arena, warm LP re-entry; `cold_replay`
/// applies the same feed to the logical state only and pays a full cold
/// rebuild (fresh load aggregation, fresh negotiation, cold LP) per
/// event. `bw_replay` / `bw_cold_replay` are the same pair and feed
/// under the bandwidth objective, where nearly every load delta moves a
/// utilization class and renegotiates, so the ratio is what the
/// maintained loads and the retained LP are worth. Both ratios are the
/// live driver's whole-feed win, gated in CI at the floors 1.25
/// (distance) and 1.5 (bandwidth); per-event percentiles live in
/// `experiments churn`.
fn bench_churn(c: &mut Criterion) {
    use nexit_sim::churn::{self, ChurnConfig, ChurnDriver, ChurnPair, LogicalState, Objective};

    let universe = churn::universe();
    // Deterministically pick the smallest eligible pair with a table
    // of 48+ flows: a compact LP keeps per-iteration time CI-friendly.
    let flows_of = |i: usize| {
        let p = &universe.pairs[i];
        universe.isps[p.isp_a.index()].num_pops() * universe.isps[p.isp_b.index()].num_pops()
    };
    let idx = universe
        .eligible_pairs(3, false)
        .into_iter()
        .filter(|&i| flows_of(i) >= 48)
        .min_by_key(|&i| flows_of(i))
        .expect("universe yields an eligible pair with 48+ flows");
    let pair = ChurnPair::build(&universe, idx, 0);
    let initial = churn::initial_active(&pair, 42);
    let trace = churn::generate_trace(&pair, &initial, 60, 42);

    let mut group = c.benchmark_group("churn");
    group.sample_size(10);
    for (row, objective, incremental) in [
        ("replay", Objective::Distance, true),
        ("cold_replay", Objective::Distance, false),
        ("bw_replay", Objective::Bandwidth, true),
        ("bw_cold_replay", Objective::Bandwidth, false),
    ] {
        let cfg = ChurnConfig { objective };
        group.bench_function(row, |bencher| {
            bencher.iter(|| {
                let mut acc = 0u64;
                if incremental {
                    let mut driver = ChurnDriver::new(&pair, initial.clone(), cfg);
                    for event in &trace {
                        driver.apply(event);
                        acc += driver.last_work();
                    }
                } else {
                    let mut state = LogicalState::new(initial.clone());
                    for event in &trace {
                        state.apply(&pair, event.kind);
                        let (_, work) = churn::cold_rebuild(&pair, &state, &cfg);
                        acc += work;
                    }
                }
                acc
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_pair_layers,
    bench_scenario_sweep,
    bench_simplex,
    bench_wire_layers,
    bench_churn
);
criterion_main!(benches);
