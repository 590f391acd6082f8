use super::*;
use crate::policies::AcceptRule;
use nexit_routing::FlowId;
use support::*;

mod props;
mod support;

#[test]
fn early_stop_by_acceptor_reaches_both_sides() {
    // A proposes (positive projection), B's projection is negative
    // (the combined-best picks are a net loss for B): B stops as the
    // acceptor; both machines see Stopped(B).
    let (mut a, mut b) = pair(
        &[vec![0.0, 10.0], vec![0.0, 1.0]],
        &[vec![0.0, -4.0], vec![0.0, -8.0]],
        NexitConfig::default(),
    );
    let (out_a, out_b) = pump(&mut a, &mut b);
    assert_eq!(out_a.termination, Termination::Stopped(Side::B));
    assert_eq!(out_b.termination, Termination::Stopped(Side::B));
    assert_eq!(out_a.assignment.choice(FlowId(0)), IcxId(0));
    assert_eq!(out_a.my_gain, 0);
    assert_eq!(out_b.my_gain, 0);
}

#[test]
fn first_discloser_cannot_need_peer_list() {
    let mk = |side| {
        let (mapper, inflate) = (
            CrowdedMapper::new(&[[0.0, 0.0]], 0.0),
            DisclosurePolicy::InflateBest,
        );
        let (arena, config) = (&mut TableArena::new(), NexitConfig::default());
        machine_in(arena, side, input(1, 2), mapper, inflate, config)
    };
    assert_eq!(mk(Side::A).err(), Some(MachineError::UnsupportedDisclosure));
    // The second discloser may cheat.
    assert!(mk(Side::B).is_ok());
}

#[test]
fn rejects_malformed_peer_prefs() {
    let mk = || {
        let (mapper, truthful) = (
            CrowdedMapper::new(&[[0.0; 2]; 2], 0.0),
            DisclosurePolicy::Truthful,
        );
        let (arena, config) = (&mut TableArena::new(), NexitConfig::default());
        machine_in(arena, Side::B, input(2, 2), mapper, truthful, config).unwrap()
    };
    let mut b = mk();
    assert_eq!(
        b.handle(Event::PeerPrefs {
            prefs: &PrefTable::from_rows(&[vec![0, 0]]),
        }),
        Err(MachineError::BadPrefList("row count mismatch"))
    );
    let mut b = mk();
    assert_eq!(
        b.handle(Event::PeerPrefs {
            prefs: &PrefTable::from_rows(&[vec![0, 99], vec![0, 0]]),
        }),
        Err(MachineError::BadPrefList("class out of range"))
    );
    // A poisoned machine stays closed.
    assert_eq!(b.handle(Event::PeerBye), Err(MachineError::Closed));
}

#[test]
fn rejects_out_of_turn_and_stale_proposals() {
    let (mut a, mut b) = pair(
        &[vec![0.0, 1.0], vec![0.0, 1.0]],
        &[vec![0.0, 1.0], vec![0.0, 1.0]],
        NexitConfig::default(),
    );
    // Exchange the preference lists only.
    assert_eq!(a.poll_action(), Some(Action::SendPrefs), "A discloses");
    b.handle(a.peer_event(Action::SendPrefs)).unwrap();
    assert_eq!(b.poll_action(), Some(Action::SendPrefs), "B answers");
    a.handle(b.peer_event(Action::SendPrefs)).unwrap();
    let propose = |round| Event::Proposal {
        round,
        local_flow: 0,
        alternative: IcxId(1),
    };
    // Round 0 is A's turn; a proposal *to* A is out of turn.
    let out_of_turn = MachineError::BadProposal("proposal out of turn");
    assert_eq!(a.handle(propose(0)), Err(out_of_turn));
    // B expects A's proposal for round 0, not round 7.
    let stale = MachineError::BadProposal("round mismatch");
    assert_eq!(b.handle(propose(7)), Err(stale));
}

#[test]
fn remapping_asks_for_the_unsettled_flows_only() {
    let n = 40;
    let (mut a, mut b) = pair_in(
        &mut TableArena::new(),
        input(n, 3),
        CrowdedMapper::new(&seeded_gains(n, 1), 0.5),
        CrowdedMapper::new(&seeded_gains(n, 2), 0.5),
        NexitConfig::win_win_bandwidth(),
    );
    assert_eq!(a.mapper.fills, [a.input.flow_ids.clone()], "first fill");
    // After every event, a fill that event caused was asked for
    // exactly the flows still on the table.
    fn check(m: &NegotiationMachine<CrowdedMapper>, fills_before: usize) {
        if m.mapper.fills.len() == fills_before {
            return;
        }
        assert_eq!(m.mapper.fills.len(), fills_before + 1, "one fill per event");
        let table = &m.state().table;
        let unsettled: Vec<FlowId> = (0..m.input.len())
            .filter(|&flow| table.is_remaining(flow))
            .map(|flow| m.input.flow_ids[flow])
            .collect();
        assert_eq!(unsettled.len(), table.num_remaining());
        assert_eq!(m.mapper.fills.last(), Some(&unsettled));
    }
    while !(a.is_done() && b.is_done()) {
        while let Some(action) = a.poll_action() {
            let fills = b.mapper.fills.len();
            deliver(&a, &mut b, action);
            check(&b, fills);
        }
        while let Some(action) = b.poll_action() {
            let fills = a.mapper.fills.len();
            deliver(&b, &mut a, action);
            check(&a, fills);
        }
    }
    for m in [&a, &b] {
        let reassignments = m.state().reassignments;
        assert!(reassignments >= 10, "{reassignments} epochs");
        assert_eq!(m.mapper.fills.len(), reassignments + 1);
        assert!(
            m.mapper.fills.windows(2).all(|w| w[1].len() < w[0].len()),
            "every re-map must be asked for fewer flows than the one before"
        );
    }
}

#[test]
fn reassignment_rounds_match_the_per_round_threshold() {
    // `pump` runs `check_invariants` after every event, and it replays the
    // trigger from the session's volumes: here uneven, not binary fractions.
    let n = 40;
    let uneven = (0..n).map(|f| 0.37 * (f % 7 + 1) as f64).collect();
    for volumes in [uneven, vec![0.0; n]] {
        let (mut a, mut b) = pair_in(
            &mut TableArena::new(),
            SessionInput {
                volumes,
                ..input(n, 3)
            },
            CrowdedMapper::new(&seeded_gains(n, 1), 0.0),
            CrowdedMapper::new(&seeded_gains(n, 2), 0.0),
            NexitConfig::win_win_bandwidth(),
        );
        pump(&mut a, &mut b);
        assert!(a.state().reassignments > 0, "the session must reassign");
    }
}

#[test]
#[should_panic(expected = "the mapper reshaped the gain table")]
fn a_mapper_that_ignores_its_input_is_caught() {
    /// Replays its whole table whatever subset it is asked for.
    struct WholeTable(GainTable);
    impl PreferenceMapper for WholeTable {
        fn gains(&mut self, _: &SessionInput, _: &Assignment, out: &mut GainTable) {
            out.copy_from(&self.0);
        }
    }
    let table = || WholeTable(GainTable::from_rows(&seeded_gains(40, 1)));
    let (mut a, mut b) = pair_in(
        &mut TableArena::new(),
        input(40, 3),
        table(),
        table(),
        NexitConfig::win_win_bandwidth(),
    );
    pump(&mut a, &mut b);
}
