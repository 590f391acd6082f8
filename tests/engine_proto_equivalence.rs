//! Cross-crate invariant: the in-process engine and the wire-protocol
//! agents must reach identical outcomes from identical inputs. Since the
//! `NegotiationMachine` refactor both paths execute the same state
//! machine, so this suite is no longer guarding against drift between
//! two implementations — it pins the *shells* (engine pump, frame codec,
//! handshake, link) end to end, bytes included, and checks that
//! injected transport faults can only fail a session cleanly, never
//! silently change its outcome.

use nexit::core::{
    negotiate, DisclosurePolicy, DistanceMapper, GainTable, NegotiationMachine, NexitConfig, Party,
    PreferenceMapper, SessionInput, Side, TableArena,
};
use nexit::proto::{
    run_reliable_session, run_session, Agent, FaultConfig, FaultyLink, ProtoError, ReliableConfig,
};
use nexit::routing::{Assignment, FlowId, PairFlows, ShortestPaths};
use nexit::topology::{GeneratorConfig, IcxId, PairView, TopologyGenerator};
use nexit::workload::WorkloadModel;
use proptest::prelude::*;

fn run_both(seed: u64, config: NexitConfig) {
    let u = TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed,
        ..GeneratorConfig::default()
    })
    .generate();
    let idx = u.eligible_pairs(2, true)[0];
    let pair = &u.pairs[idx];
    let a = &u.isps[pair.isp_a.index()];
    let b = &u.isps[pair.isp_b.index()];
    let view = PairView::new(a, b, pair);
    let sp_a = ShortestPaths::compute(a);
    let sp_b = ShortestPaths::compute(b);
    let vol = nexit::workload::volume_fn(WorkloadModel::Identical, a, b);
    let flows = PairFlows::build(&view, &sp_a, &sp_b, vol);
    let default = Assignment::early_exit(&view, &sp_a, &flows);
    let input = SessionInput {
        flow_ids: (0..flows.len()).map(FlowId::new).collect(),
        defaults: default.choices().to_vec(),
        volumes: flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: pair.num_interconnections(),
    };

    // Engine outcome.
    let mut pa = Party::honest("A", DistanceMapper::new(Side::A, &flows));
    let mut pb = Party::honest("B", DistanceMapper::new(Side::B, &flows));
    let engine = negotiate(&input, &default, &mut pa, &mut pb, &config);
    check_final_tables(&input, &default, &flows, config, &engine);

    // Wire-protocol outcome over framed binary messages.
    let mut agent_a = Agent::new(
        Side::A,
        "A",
        input.clone(),
        default.clone(),
        DistanceMapper::new(Side::A, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut agent_b = Agent::new(
        Side::B,
        "B",
        input,
        default,
        DistanceMapper::new(Side::B, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut ab = FaultyLink::reliable();
    let mut ba = FaultyLink::reliable();
    let (out_a, out_b) = run_session(&mut agent_a, &mut agent_b, &mut ab, &mut ba).unwrap();

    assert_eq!(
        engine.assignment.choices(),
        out_a.assignment.choices(),
        "engine and protocol agents disagree (seed {seed})"
    );
    assert_eq!(
        out_a.assignment, out_b.assignment,
        "agents disagree with each other"
    );
    assert_eq!(engine.gain_a, out_a.my_gain, "A gain mismatch");
    assert_eq!(engine.gain_b, out_b.my_gain, "B gain mismatch");
    assert_eq!(
        engine.termination, out_a.termination,
        "termination mismatch"
    );
    assert_eq!(
        engine.reassignments, out_a.reassignments,
        "reassignment mismatch"
    );
}

/// Whether `classes` can be a floor quantization of `gains` under some
/// positive scale: no sign flipped, no order inverted.
fn quantizes(gains: &[f64], classes: &[i32]) -> bool {
    let pairs = || gains.iter().zip(classes);
    pairs().all(|(&g, &c)| (c <= 0 || g > 0.0) && (c >= 0 || g < 0.0))
        && pairs().all(|(&g, &c)| pairs().all(|(&h, &d)| g <= h || c >= d))
}

/// The same session on two bare machines, whose tables the agents and
/// the engine do not show: both sides must end holding the same two
/// disclosed tables, row by row, and — engine and wire running one
/// machine, a fill wrong on both sides would pass every check above —
/// each row must still be a quantization of *its own flow's* gains,
/// computed here without the machine.
fn check_final_tables(
    input: &SessionInput,
    default: &Assignment,
    flows: &PairFlows,
    config: NexitConfig,
    engine: &nexit::core::NegotiationOutcome,
) {
    let machine = |side| {
        NegotiationMachine::new_in(
            &mut TableArena::new(),
            side,
            Side::A,
            input.clone(),
            default.clone(),
            DistanceMapper::new(side, flows),
            DisclosurePolicy::Truthful,
            config,
        )
        .unwrap()
    };
    let (mut a, mut b) = (machine(Side::A), machine(Side::B));
    while !(a.is_done() && b.is_done()) {
        while let Some(action) = a.poll_action() {
            b.handle(a.peer_event(action)).unwrap();
        }
        while let Some(action) = b.poll_action() {
            a.handle(b.peer_event(action)).unwrap();
        }
    }
    assert_eq!(a.state().assignment, engine.assignment);
    assert_eq!(a.state().reassignments, engine.reassignments);
    let held_by_a = a.state().disclosed_tables(Side::A);
    let held_by_b = b.state().disclosed_tables(Side::B);
    let mut gains = GainTable::new(input.len(), input.num_alternatives);
    for (side, by_a, by_b) in [
        (Side::A, held_by_a.0, held_by_b.0),
        (Side::B, held_by_a.1, held_by_b.1),
    ] {
        gains.reset(input.len(), input.num_alternatives);
        DistanceMapper::new(side, flows).gains(input, default, &mut gains);
        for flow in 0..input.len() {
            assert_eq!(by_a.row(flow), by_b.row(flow), "{side}'s row {flow}");
            assert!(
                quantizes(gains.row(flow), by_a.row(flow)),
                "{side}'s row {flow} {:?} is not its gains {:?} quantized",
                by_a.row(flow),
                gains.row(flow)
            );
        }
    }
}

#[test]
fn equivalence_default_config() {
    for seed in [1, 2, 3] {
        run_both(seed, NexitConfig::default());
    }
}

#[test]
fn equivalence_win_win_config() {
    for seed in [4, 5, 6] {
        run_both(seed, NexitConfig::win_win());
    }
}

#[test]
fn equivalence_bandwidth_reassignment_config() {
    for seed in [7, 8] {
        run_both(seed, NexitConfig::win_win_bandwidth());
    }
}

#[test]
fn equivalence_with_cheating_downstream() {
    // A cheating B (InflateBest discloses second in both settings).
    let u = TopologyGenerator::new(GeneratorConfig {
        num_isps: 12,
        num_mesh_isps: 0,
        seed: 9,
        ..GeneratorConfig::default()
    })
    .generate();
    let idx = u.eligible_pairs(2, true)[1];
    let pair = &u.pairs[idx];
    let a = &u.isps[pair.isp_a.index()];
    let b = &u.isps[pair.isp_b.index()];
    let view = PairView::new(a, b, pair);
    let sp_a = ShortestPaths::compute(a);
    let sp_b = ShortestPaths::compute(b);
    let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
    let default = Assignment::early_exit(&view, &sp_a, &flows);
    let input = SessionInput {
        flow_ids: (0..flows.len()).map(FlowId::new).collect(),
        defaults: default.choices().to_vec(),
        volumes: flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: pair.num_interconnections(),
    };
    let config = NexitConfig::win_win();

    let mut pa = Party::honest("A", DistanceMapper::new(Side::A, &flows));
    let mut pb = Party::cheating(
        "B",
        DistanceMapper::new(Side::B, &flows),
        DisclosurePolicy::InflateBest,
    );
    let engine = negotiate(&input, &default, &mut pa, &mut pb, &config);

    let mut agent_a = Agent::new(
        Side::A,
        "A",
        input.clone(),
        default.clone(),
        DistanceMapper::new(Side::A, &flows),
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut agent_b = Agent::new(
        Side::B,
        "B",
        input,
        default,
        DistanceMapper::new(Side::B, &flows),
        DisclosurePolicy::InflateBest,
        config,
    )
    .unwrap();
    let mut ab = FaultyLink::reliable();
    let mut ba = FaultyLink::reliable();
    let (out_a, _) = run_session(&mut agent_a, &mut agent_b, &mut ab, &mut ba).unwrap();
    assert_eq!(engine.assignment.choices(), out_a.assignment.choices());
}

#[test]
fn cheating_upstream_is_rejected_in_protocol() {
    let input = SessionInput {
        flow_ids: vec![FlowId(0)],
        defaults: vec![IcxId(0)],
        volumes: vec![1.0],
        num_alternatives: 2,
    };
    struct Null;
    impl PreferenceMapper for Null {
        fn gains(&mut self, _i: &SessionInput, _c: &Assignment, _out: &mut GainTable) {
            // Indifferent to everything: the table arrives zeroed.
        }
    }
    let err = Agent::new(
        Side::A,
        "A",
        input,
        Assignment::from_choices(vec![IcxId(0)]),
        Null,
        DisclosurePolicy::InflateBest,
        NexitConfig::default(),
    )
    .err()
    .expect("side-A InflateBest must be rejected");
    assert!(matches!(err, ProtoError::UnsupportedDisclosure));
}

// ---------------------------------------------------------------------------
// Fault-injection property cases: a machine pair driven through
// `FaultyLink` (drop / corrupt / duplicate) either fails the session
// *cleanly* or reaches exactly the in-process outcome. Injected faults
// must never silently change the negotiated assignment or the gains.
// ---------------------------------------------------------------------------

/// A deterministic synthetic mapper: cheap enough to run hundreds of
/// sessions, rich enough to exercise trades, vetoes and reassignment.
#[derive(Clone)]
struct TableMapper {
    gains: GainTable,
}

impl PreferenceMapper for TableMapper {
    fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
        for (row, flow) in i.flow_ids.iter().enumerate() {
            out.row_mut(row)
                .copy_from_slice(self.gains.row(flow.index()));
        }
    }
}

fn synthetic_session(n: usize, k: usize) -> (SessionInput, Assignment) {
    (
        SessionInput {
            flow_ids: (0..n).map(FlowId::new).collect(),
            defaults: vec![IcxId(0); n],
            volumes: vec![1.0; n],
            num_alternatives: k,
        },
        Assignment::uniform(n, IcxId(0)),
    )
}

/// Run the same session through the in-process driver and through agents
/// over the given links; check the fault-safety contract.
fn check_faulty_session(
    gains_a: Vec<Vec<f64>>,
    gains_b: Vec<Vec<f64>>,
    config: NexitConfig,
    faults: FaultConfig,
    link_seed: u64,
) -> Result<(), TestCaseError> {
    let n = gains_a.len();
    let k = gains_a[0].len();
    let (input, default) = synthetic_session(n, k);
    let gains_a = GainTable::from_rows(&gains_a);
    let gains_b = GainTable::from_rows(&gains_b);

    let mut pa = Party::honest(
        "A",
        TableMapper {
            gains: gains_a.clone(),
        },
    );
    let mut pb = Party::honest(
        "B",
        TableMapper {
            gains: gains_b.clone(),
        },
    );
    let reference = negotiate(&input, &default, &mut pa, &mut pb, &config);

    let mut agent_a = Agent::new(
        Side::A,
        "A",
        input.clone(),
        default.clone(),
        TableMapper { gains: gains_a },
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut agent_b = Agent::new(
        Side::B,
        "B",
        input,
        default,
        TableMapper { gains: gains_b },
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut ab = FaultyLink::new(faults, link_seed);
    let mut ba = FaultyLink::new(faults, link_seed.wrapping_add(1));
    match run_session(&mut agent_a, &mut agent_b, &mut ab, &mut ba) {
        Ok((out_a, out_b)) => {
            // The session survived the faults (duplicates of a frame can
            // still break protocol state; surviving ones must be exact).
            prop_assert_eq!(
                reference.assignment.choices(),
                out_a.assignment.choices(),
                "fault injection changed the outcome (seed {})",
                link_seed
            );
            prop_assert_eq!(out_a.assignment, out_b.assignment);
            prop_assert_eq!(reference.gain_a, out_a.my_gain);
            prop_assert_eq!(reference.gain_b, out_b.my_gain);
        }
        Err(e) => {
            // Clean failure is the only acceptable alternative: frame
            // corruption must be caught by the CRC (or the message /
            // state validators), never absorbed.
            let clean = matches!(
                e,
                ProtoError::Frame(_)
                    | ProtoError::Message(_)
                    | ProtoError::UnexpectedMessage { .. }
                    | ProtoError::BadProposal(_)
                    | ProtoError::BadPrefList(_)
                    | ProtoError::ConfigMismatch(_)
                    | ProtoError::FlowMismatch(_)
                    | ProtoError::Stalled { .. }
                    | ProtoError::Closed
            );
            prop_assert!(clean, "unclean failure: {e}");
        }
    }
    Ok(())
}

fn arb_gains(n: usize, k: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, k), n).prop_map(
        |mut rows| {
            for row in &mut rows {
                row[0] = 0.0; // default column
            }
            rows
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On reliable links, engine and agents agree for arbitrary tables
    /// and both headline configs (round-trip equivalence).
    #[test]
    fn machine_pair_roundtrips_reliable(
        ga in arb_gains(6, 3),
        gb in arb_gains(6, 3),
        win_win in any::<bool>(),
    ) {
        let config = if win_win {
            NexitConfig::win_win()
        } else {
            NexitConfig::default()
        };
        check_faulty_session(ga, gb, config, FaultConfig::RELIABLE, 0)?;
    }

    /// Dropped frames stall the lock-step protocol: the driver must
    /// surface that as an error, and partial sessions never yield an
    /// outcome that differs from the reference.
    #[test]
    fn dropped_frames_fail_cleanly(
        ga in arb_gains(5, 3),
        gb in arb_gains(5, 3),
        drop_chance in 0.05f64..0.6,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { drop_chance, ..FaultConfig::RELIABLE };
        check_faulty_session(ga, gb, NexitConfig::win_win(), faults, link_seed)?;
    }

    /// Corrupted frames must be detected by the CRC (or fail message
    /// validation) — never silently alter the outcome.
    #[test]
    fn corrupted_frames_fail_cleanly(
        ga in arb_gains(5, 3),
        gb in arb_gains(5, 3),
        corrupt_chance in 0.05f64..0.6,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { corrupt_chance, ..FaultConfig::RELIABLE };
        check_faulty_session(ga, gb, NexitConfig::win_win(), faults, link_seed)?;
    }

    /// Duplicated frames arrive in a state that no longer expects them;
    /// the machine's state validation must reject them (or, where a
    /// duplicate is harmlessly re-ordered out, the outcome must match).
    #[test]
    fn duplicated_frames_fail_cleanly_or_match(
        ga in arb_gains(5, 3),
        gb in arb_gains(5, 3),
        duplicate_chance in 0.05f64..0.6,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { duplicate_chance, ..FaultConfig::RELIABLE };
        check_faulty_session(ga, gb, NexitConfig::win_win(), faults, link_seed)?;
    }

    /// Reordered frames arrive in a state that no longer expects them;
    /// on the raw link the state validation must reject them cleanly
    /// (or, where the exchange happens to tolerate the swap, match).
    #[test]
    fn reordered_frames_fail_cleanly_or_match(
        ga in arb_gains(5, 3),
        gb in arb_gains(5, 3),
        reorder_chance in 0.05f64..0.6,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { reorder_chance, ..FaultConfig::RELIABLE };
        check_faulty_session(ga, gb, NexitConfig::win_win(), faults, link_seed)?;
    }

    /// All four fault classes at once.
    #[test]
    fn mixed_faults_fail_cleanly_or_match(
        ga in arb_gains(4, 3),
        gb in arb_gains(4, 3),
        drop_chance in 0.0f64..0.3,
        corrupt_chance in 0.0f64..0.3,
        duplicate_chance in 0.0f64..0.3,
        reorder_chance in 0.0f64..0.3,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { drop_chance, corrupt_chance, duplicate_chance, reorder_chance };
        check_faulty_session(ga, gb, NexitConfig::win_win(), faults, link_seed)?;
    }
}

// ---------------------------------------------------------------------------
// ARQ recovery property cases: the same faulty sessions driven through
// `run_reliable_session`. Below saturation with a sufficient retry
// budget the session must *recover* — byte-identical to the fault-free
// reference — and at any rate the outcome is never silently wrong.
// ---------------------------------------------------------------------------

/// Run the same session through the engine and through replay-tolerant
/// agents over ARQ endpoints on the given faulty links. With `strict`,
/// the session must recover and match the reference exactly; otherwise a
/// terminal ARQ error (retry exhaustion / deadline) is also acceptable —
/// but a diverging outcome or a raw protocol error never is.
fn check_reliable_session(
    gains_a: Vec<Vec<f64>>,
    gains_b: Vec<Vec<f64>>,
    config: NexitConfig,
    faults: FaultConfig,
    link_seed: u64,
    arq: ReliableConfig,
    strict: bool,
) -> Result<(), TestCaseError> {
    let n = gains_a.len();
    let k = gains_a[0].len();
    let (input, default) = synthetic_session(n, k);
    let gains_a = GainTable::from_rows(&gains_a);
    let gains_b = GainTable::from_rows(&gains_b);

    let mut pa = Party::honest(
        "A",
        TableMapper {
            gains: gains_a.clone(),
        },
    );
    let mut pb = Party::honest(
        "B",
        TableMapper {
            gains: gains_b.clone(),
        },
    );
    let reference = negotiate(&input, &default, &mut pa, &mut pb, &config);

    let mut agent_a = Agent::new(
        Side::A,
        "A",
        input.clone(),
        default.clone(),
        TableMapper { gains: gains_a },
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    let mut agent_b = Agent::new(
        Side::B,
        "B",
        input,
        default,
        TableMapper { gains: gains_b },
        DisclosurePolicy::Truthful,
        config,
    )
    .unwrap();
    agent_a.set_replay_tolerance(true);
    agent_b.set_replay_tolerance(true);
    let mut ab = FaultyLink::new(faults, link_seed);
    let mut ba = FaultyLink::new(faults, link_seed.wrapping_add(1));
    match run_reliable_session(&mut agent_a, &mut agent_b, &mut ab, &mut ba, arq, 50_000) {
        Ok((out_a, out_b)) => {
            prop_assert_eq!(
                reference.assignment.choices(),
                out_a.assignment.choices(),
                "ARQ recovery changed the outcome (seed {})",
                link_seed
            );
            prop_assert_eq!(out_a.assignment, out_b.assignment);
            prop_assert_eq!(reference.gain_a, out_a.my_gain);
            prop_assert_eq!(reference.gain_b, out_b.my_gain);
            prop_assert_eq!(reference.termination, out_a.termination);
            prop_assert_eq!(reference.reassignments, out_a.reassignments);
        }
        Err(e) => {
            prop_assert!(
                !strict,
                "below saturation the session must recover, got: {} (seed {})",
                e,
                link_seed
            );
            // Past saturation the only acceptable failures are the ARQ
            // layer's own terminal errors: transient faults must never
            // leak through as protocol violations or wrong outcomes.
            prop_assert!(
                matches!(
                    e,
                    ProtoError::RetryExhausted { .. } | ProtoError::DeadlineExceeded { .. }
                ),
                "unclean ARQ failure: {}",
                e
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Below saturation (≤12% per fault class) with a generous retry
    /// budget, every faulted session recovers byte-identical to the
    /// fault-free reference — loss, corruption, duplication and
    /// reordering together.
    #[test]
    fn arq_recovers_below_saturation(
        ga in arb_gains(5, 3),
        gb in arb_gains(5, 3),
        drop_chance in 0.0f64..0.12,
        corrupt_chance in 0.0f64..0.12,
        duplicate_chance in 0.0f64..0.12,
        reorder_chance in 0.0f64..0.12,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { drop_chance, corrupt_chance, duplicate_chance, reorder_chance };
        let arq = ReliableConfig { retry_budget: 16, ..ReliableConfig::default() };
        check_reliable_session(ga, gb, NexitConfig::win_win(), faults, link_seed, arq, true)?;
    }

    /// At arbitrary fault rates (up to half of all frames mangled per
    /// class) the ARQ layer either recovers exactly or fails with its
    /// own terminal error — never a wrong outcome, never a raw protocol
    /// violation.
    #[test]
    fn arq_never_corrupts_at_any_rate(
        ga in arb_gains(4, 3),
        gb in arb_gains(4, 3),
        drop_chance in 0.0f64..0.5,
        corrupt_chance in 0.0f64..0.5,
        duplicate_chance in 0.0f64..0.5,
        reorder_chance in 0.0f64..0.5,
        link_seed in 0u64..1_000,
    ) {
        let faults = FaultConfig { drop_chance, corrupt_chance, duplicate_chance, reorder_chance };
        let arq = ReliableConfig::default();
        check_reliable_session(ga, gb, NexitConfig::win_win(), faults, link_seed, arq, false)?;
    }
}

/// Deterministic gain tables for the non-proptest ARQ cases.
fn fixed_gains(n: usize, k: usize, salt: u64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|f| {
            (0..k)
                .map(|a| {
                    if a == 0 {
                        0.0
                    } else {
                        ((f as f64 * 7.3 + a as f64 * 3.1 + salt as f64 * 1.7) % 19.0) - 9.0
                    }
                })
                .collect()
        })
        .collect()
}

/// The headline robustness claim at the deployment-realistic rate: 1%
/// drop + 1% corruption per frame, default retry budget, across many
/// link seeds — every session recovers byte-identical to the fault-free
/// reference.
#[test]
fn arq_recovers_one_percent_faults_with_default_budget() {
    let faults = FaultConfig {
        drop_chance: 0.01,
        corrupt_chance: 0.01,
        ..FaultConfig::RELIABLE
    };
    for seed in 0..100u64 {
        check_reliable_session(
            fixed_gains(6, 3, seed),
            fixed_gains(6, 3, seed ^ 0xff),
            NexitConfig::win_win(),
            faults,
            seed,
            ReliableConfig::default(),
            true,
        )
        .unwrap();
    }
}

/// The dedup-window satellite, both halves: with replay tolerance on, a
/// byte-identical replay of the last frame is silently ignored; on the
/// raw strict path the same replay is a fatal protocol violation.
#[test]
fn replayed_frame_ignored_with_tolerance_fatal_without() {
    for tolerate in [false, true] {
        let (input, default) = synthetic_session(4, 3);
        let gains = GainTable::from_rows(&fixed_gains(4, 3, 1));
        let mut agent_a = Agent::new(
            Side::A,
            "A",
            input.clone(),
            default.clone(),
            TableMapper {
                gains: gains.clone(),
            },
            DisclosurePolicy::Truthful,
            NexitConfig::win_win(),
        )
        .unwrap();
        let mut agent_b = Agent::new(
            Side::B,
            "B",
            input,
            default,
            TableMapper { gains },
            DisclosurePolicy::Truthful,
            NexitConfig::win_win(),
        )
        .unwrap();
        agent_b.set_replay_tolerance(tolerate);
        let hello = agent_a.poll_transmit().expect("A opens with Hello");
        agent_b.handle_bytes(&hello).expect("first Hello is fine");
        let replay = agent_b.handle_bytes(&hello);
        if tolerate {
            assert!(
                replay.is_ok(),
                "dedup window must absorb the replay, got {:?}",
                replay
            );
        } else {
            assert!(
                matches!(replay, Err(ProtoError::UnexpectedMessage { .. })),
                "raw path must reject the replay, got {:?}",
                replay
            );
        }
    }
}
