//! The broker is a scheduler, not a second implementation: every pair it
//! serves must reach outcomes byte-identical to the in-process engine
//! ([`nexit_core::negotiate`]) run sequentially on the same session,
//! regardless of worker count. This suite pins that on real
//! topology-derived pairs (distance objective, borrowed mappers), and
//! checks fault isolation on the same workload: one faulty session fails
//! alone while its shard siblings still match the engine exactly. With
//! the ARQ reliability layer on, the same faulty workload must instead
//! *recover*: every session completes byte-identical to the engine at
//! any worker count, and a terminally dead link degrades to the default
//! assignment rather than losing the pair.

use nexit_broker::{
    Broker, BrokerConfig, BrokerStats, PairOutcome, PairResult, ReliableConfig, SessionSpec,
};
use nexit_core::{
    negotiate, DistanceMapper, NegotiationOutcome, NexitConfig, Party, SessionInput, Side,
};
use nexit_proto::channel::{FaultConfig, FaultyLink};
use nexit_proto::{run_reliable_session, run_session, Agent, AgentOutcome, ProtoError};
use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_sim::experiments::broker::{synthetic_specs, ALTS, FLOWS};
use nexit_sim::PairData;
use nexit_topology::{GeneratorConfig, TopologyGenerator, Universe};
use nexit_workload::WorkloadModel;

fn universe() -> Universe {
    TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed: 11,
        ..GeneratorConfig::default()
    })
    .generate()
}

fn session_input(flows: &PairFlows, default: &Assignment, alts: usize) -> SessionInput {
    SessionInput {
        flow_ids: (0..flows.len()).map(FlowId::new).collect(),
        defaults: default.choices().to_vec(),
        volumes: flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: alts,
    }
}

/// All distance-eligible pairs of the test universe, fully built.
fn build_pairs(u: &Universe) -> Vec<PairData<'_>> {
    u.eligible_pairs(2, true)
        .into_iter()
        .map(|idx| {
            let pair = &u.pairs[idx];
            let a = &u.isps[pair.isp_a.index()];
            let b = &u.isps[pair.isp_b.index()];
            PairData::build(a, b, pair.clone(), WorkloadModel::Identical)
        })
        .collect()
}

fn spec_for<'a>(data: &'a PairData<'_>) -> SessionSpec<'a> {
    let alts = data.pair.num_interconnections();
    SessionSpec::honest(
        session_input(&data.flows, &data.default, alts),
        data.default.clone(),
        DistanceMapper::new(Side::A, &data.flows),
        DistanceMapper::new(Side::B, &data.flows),
        NexitConfig::win_win(),
    )
}

fn engine_reference(data: &PairData<'_>) -> NegotiationOutcome {
    let alts = data.pair.num_interconnections();
    let mut pa = Party::honest("A", DistanceMapper::new(Side::A, &data.flows));
    let mut pb = Party::honest("B", DistanceMapper::new(Side::B, &data.flows));
    negotiate(
        &session_input(&data.flows, &data.default, alts),
        &data.default,
        &mut pa,
        &mut pb,
        &NexitConfig::win_win(),
    )
}

fn assert_pair_matches(reference: &NegotiationOutcome, out: &PairOutcome, label: &str) {
    assert_eq!(
        reference.assignment.choices(),
        out.a.assignment.choices(),
        "{label}: broker assignment diverged from engine"
    );
    assert_eq!(
        out.a.assignment, out.b.assignment,
        "{label}: sides disagree"
    );
    assert_eq!(reference.gain_a, out.a.my_gain, "{label}: A gain");
    assert_eq!(reference.gain_b, out.b.my_gain, "{label}: B gain");
    assert_eq!(
        reference.termination, out.a.termination,
        "{label}: termination"
    );
    assert_eq!(
        reference.reassignments, out.a.reassignments,
        "{label}: reassignments"
    );
}

#[test]
fn broker_matches_engine_at_every_worker_count() {
    let u = universe();
    let pairs = build_pairs(&u);
    assert!(pairs.len() >= 4, "universe too small for a meaningful test");
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();

    for workers in [1usize, 2, 4] {
        let specs: Vec<_> = pairs.iter().map(spec_for).collect();
        let run = Broker::new(BrokerConfig::with_workers(workers)).run_pairs(specs);
        assert_eq!(run.stats.completed, pairs.len(), "workers={workers}");
        assert_eq!(run.stats.failed, 0, "workers={workers}");
        for (i, result) in run.results.iter().enumerate() {
            let out = result.outcome().unwrap_or_else(|| {
                panic!(
                    "pair {i} failed under {workers} workers: {:?}",
                    result.failure()
                )
            });
            assert_pair_matches(&references[i], out, &format!("pair {i}, workers={workers}"));
        }
    }
}

#[test]
fn faulty_session_fails_alone_siblings_match_engine() {
    let u = universe();
    let pairs = build_pairs(&u);
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();
    // Corrupt every frame of one victim pair; its shard siblings (all
    // pairs — single worker) must be byte-identical to the engine.
    let victim = pairs.len() / 2;
    let specs: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let spec = spec_for(data);
            if i == victim {
                spec.with_faults(
                    FaultConfig {
                        corrupt_chance: 1.0,
                        ..FaultConfig::RELIABLE
                    },
                    41,
                )
            } else {
                spec
            }
        })
        .collect();
    let run = Broker::new(BrokerConfig::with_workers(1)).run_pairs(specs);
    assert_eq!(run.stats.failed, 1, "exactly the victim fails");
    assert_eq!(run.stats.completed, pairs.len() - 1);
    let failure = run.results[victim].failure().expect("victim failed");
    assert!(
        matches!(failure.error, ProtoError::Frame(_) | ProtoError::Message(_)),
        "corruption must fail via CRC/validation, got {:?}",
        failure.error
    );
    for (i, result) in run.results.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert_pair_matches(
            &references[i],
            result.outcome().expect("sibling completed"),
            &format!("sibling pair {i}"),
        );
    }
}

#[test]
fn dropped_frames_stall_only_their_session() {
    let u = universe();
    let pairs = build_pairs(&u);
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();
    let victim = 0usize;
    let specs: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let spec = spec_for(data);
            if i == victim {
                spec.with_faults(
                    FaultConfig {
                        drop_chance: 1.0,
                        ..FaultConfig::RELIABLE
                    },
                    17,
                )
            } else {
                spec
            }
        })
        .collect();
    let run = Broker::new(BrokerConfig::with_workers(2)).run_pairs(specs);
    assert_eq!(run.stats.failed, 1);
    let failure = run.results[victim].failure().expect("victim failed");
    assert!(
        matches!(failure.error, ProtoError::Stalled { .. }),
        "total frame loss must surface as a stall, got {:?}",
        failure.error
    );
    for (i, result) in run.results.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert_pair_matches(
            &references[i],
            result.outcome().expect("sibling completed"),
            &format!("sibling pair {i}"),
        );
    }
}

#[test]
fn arq_recovers_every_faulty_pair_at_every_worker_count() {
    // Real topology pairs, every link injecting all four fault kinds at
    // 5%: with the ARQ layer on, every session must complete with
    // outcomes byte-identical to the fault-free engine reference, and
    // identically at 1, 2 and 4 workers.
    let u = universe();
    let pairs = build_pairs(&u);
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();
    let faults = FaultConfig {
        drop_chance: 0.05,
        corrupt_chance: 0.05,
        duplicate_chance: 0.05,
        reorder_chance: 0.05,
    };
    let mut recovered_counts = Vec::new();
    for workers in [1usize, 2, 4] {
        let specs: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, data)| spec_for(data).with_faults(faults, 7000 + i as u64))
            .collect();
        let config =
            BrokerConfig::with_workers(workers).with_reliability(ReliableConfig::default());
        let run = Broker::new(config).run_pairs(specs);
        assert_eq!(run.stats.completed, pairs.len(), "workers={workers}");
        assert_eq!(run.stats.failed, 0, "workers={workers}");
        for (i, result) in run.results.iter().enumerate() {
            let out = result.outcome().unwrap_or_else(|| {
                panic!(
                    "pair {i} not recovered under {workers} workers: {:?}",
                    result.failure()
                )
            });
            assert_pair_matches(
                &references[i],
                out,
                &format!("recovered pair {i}, workers={workers}"),
            );
        }
        recovered_counts.push((run.stats.recovered, run.stats.retransmits));
    }
    // Fault patterns and recovery work are per-session seeded, so the
    // counters must not depend on scheduling either.
    assert_eq!(recovered_counts[0], recovered_counts[1]);
    assert_eq!(recovered_counts[0], recovered_counts[2]);
    assert!(
        recovered_counts[0].0 > 0,
        "5% fault rates must hit sessions"
    );
}

#[test]
fn dead_link_degrades_to_default_assignment_with_siblings_intact() {
    // One pair's links drop everything; with ARQ + degradation on, that
    // pair falls back to its default early-exit assignment while every
    // sibling still negotiates byte-identical to the engine. No pair is
    // ever lost: negotiated + degraded accounts for the whole batch.
    let u = universe();
    let pairs = build_pairs(&u);
    let references: Vec<_> = pairs.iter().map(engine_reference).collect();
    let victim = pairs.len() / 2;
    let specs: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, data)| {
            let spec = spec_for(data);
            if i == victim {
                spec.with_faults(
                    FaultConfig {
                        drop_chance: 1.0,
                        ..FaultConfig::RELIABLE
                    },
                    83,
                )
            } else {
                spec
            }
        })
        .collect();
    let config = BrokerConfig::with_workers(2)
        .with_reliability(ReliableConfig::default())
        .with_degradation();
    let run = Broker::new(config).run_pairs(specs);
    assert_eq!(run.stats.completed, pairs.len() - 1);
    assert_eq!(run.stats.degraded, 1);
    assert_eq!(run.stats.failed, 0);
    assert!(run.results[victim].is_degraded());
    assert_eq!(
        run.results[victim].assignment().unwrap(),
        &pairs[victim].default,
        "degraded pair must carry its default assignment"
    );
    assert!(
        matches!(
            run.results[victim].failure().unwrap().error,
            ProtoError::RetryExhausted { .. }
        ),
        "a fully dead link should exhaust the retry budget"
    );
    for (i, result) in run.results.iter().enumerate() {
        if i == victim {
            continue;
        }
        assert_pair_matches(
            &references[i],
            result.outcome().expect("sibling negotiated"),
            &format!("sibling pair {i}"),
        );
    }
}

/// The batch whose wire trace is pinned: 40 synthetic 16×4 sessions,
/// seed 11. `faults` go on every link (seeded per session); under
/// faults, session 7's links drop everything so the retry-exhaustion
/// and degradation paths are in the trace too.
fn pinned_specs(faults: Option<FaultConfig>) -> Vec<SessionSpec<'static>> {
    let dead = FaultConfig {
        drop_chance: 1.0,
        ..FaultConfig::RELIABLE
    };
    synthetic_specs(40, FLOWS, ALTS, 11)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| match faults {
            Some(_) if i == 7 => spec.with_faults(dead, 500),
            Some(faults) => spec.with_faults(faults, 500 + i as u64),
            None => spec,
        })
        .collect()
}

/// Drive one spec through the single-pair drivers, wiring agents and
/// links the way the broker admits them.
fn direct_outcome(
    spec: SessionSpec<'static>,
    reliability: Option<ReliableConfig>,
) -> Result<(AgentOutcome, AgentOutcome), ProtoError> {
    let agent = |side, mapper, disclosure| {
        Agent::new(
            side,
            "direct",
            spec.input.clone(),
            spec.default_assignment.clone(),
            mapper,
            disclosure,
            spec.config,
        )
        .expect("synthetic sessions are valid")
    };
    let mut a = agent(Side::A, spec.mapper_a, spec.disclosure_a);
    let mut b = agent(Side::B, spec.mapper_b, spec.disclosure_b);
    let mut ab = FaultyLink::new(spec.faults_ab, spec.link_seed);
    let mut ba = FaultyLink::new(spec.faults_ba, spec.link_seed ^ 0x9e37_79b9_7f4a_7c15);
    match reliability {
        None => run_session(&mut a, &mut b, &mut ab, &mut ba),
        Some(arq) => {
            a.set_replay_tolerance(true);
            b.set_replay_tolerance(true);
            run_reliable_session(&mut a, &mut b, &mut ab, &mut ba, arq, 100_000)
        }
    }
}

#[allow(clippy::too_many_arguments)] // one positional row per pinned batch
fn pinned(
    completed: usize,
    recovered: usize,
    degraded: usize,
    retransmits: u64,
    frames: u64,
    bytes: u64,
    ticks: u64,
    parked: u64,
    peak_active: usize,
) -> BrokerStats {
    BrokerStats {
        sessions: 40,
        completed,
        failed: 0,
        recovered,
        degraded,
        retransmits,
        frames,
        bytes,
        ticks,
        parked,
        peak_active,
    }
}

#[test]
fn wire_trace_is_pinned_and_single_pair_drivers_agree() {
    // Every counter below was captured at the commit before the four
    // session drivers became one pump; they are what "same behaviour"
    // means for any later change to the frame-moving loop. `ticks` sums
    // over workers and `peak_active` is a per-worker maximum, so both
    // depend on the worker count; everything else must not.
    let lossy = FaultConfig {
        drop_chance: 0.1,
        corrupt_chance: 0.1,
        duplicate_chance: 0.1,
        reorder_chance: 0.1,
    };
    let arq = ReliableConfig::default();
    let tiny_queues = BrokerConfig {
        workers: 1,
        max_active: 6,
        queue_capacity: 1,
        deliver_budget: 1,
        ..BrokerConfig::default()
    };
    let cases = [
        (
            "clean",
            None,
            BrokerConfig::default(),
            [
                (1usize, pinned(40, 0, 0, 0, 1560, 50180, 22, 0, 40)),
                (2, pinned(40, 0, 0, 0, 1560, 50180, 44, 0, 20)),
                (4, pinned(40, 0, 0, 0, 1560, 50180, 88, 0, 10)),
            ]
            .to_vec(),
        ),
        (
            "lossy",
            Some(lossy),
            BrokerConfig::default()
                .with_reliability(arq)
                .with_degradation(),
            [
                (1, pinned(39, 39, 1, 624, 3254, 116910, 380, 0, 40)),
                (2, pinned(39, 39, 1, 624, 3254, 116910, 486, 0, 20)),
                (4, pinned(39, 39, 1, 624, 3254, 116910, 690, 0, 10)),
            ]
            .to_vec(),
        ),
        (
            "tiny queues",
            None,
            tiny_queues,
            [(1, pinned(40, 0, 0, 0, 1560, 50180, 266, 1480, 6))].to_vec(),
        ),
        (
            "tiny queues, lossy",
            Some(lossy),
            tiny_queues.with_reliability(arq).with_degradation(),
            [(1, pinned(39, 39, 1, 994, 4637, 146845, 776, 3290, 6))].to_vec(),
        ),
    ];
    for (label, faults, config, expected) in cases {
        let mut first: Option<Vec<PairResult>> = None;
        for (workers, stats) in expected {
            let config = BrokerConfig { workers, ..config };
            let run = Broker::new(config).run_pairs(pinned_specs(faults));
            assert_eq!(run.stats, stats, "{label}, workers={workers}");
            let first = first.get_or_insert_with(|| run.results.clone());
            assert_eq!(*first, run.results, "{label}, workers={workers}");
        }
        // Session i through `run_session` / `run_reliable_session` ends
        // where the broker's slot i did.
        let results = first.expect("every case runs at least once");
        for (i, (spec, result)) in pinned_specs(faults).into_iter().zip(&results).enumerate() {
            match (direct_outcome(spec, config.reliability), result) {
                (Ok((a, b)), PairResult::Negotiated(out)) => {
                    assert_eq!((&a, &b), (&out.a, &out.b), "{label}, session {i}");
                }
                (Err(error), PairResult::Degraded { failure, .. }) => {
                    assert_eq!(error, failure.error, "{label}, session {i}");
                }
                (direct, brokered) => {
                    panic!("{label}, session {i}: direct {direct:?} vs brokered {brokered:?}")
                }
            }
        }
    }
}
