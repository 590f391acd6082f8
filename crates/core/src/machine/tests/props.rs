//! Machine properties over random sessions, configurations and peers;
//! every one checks the machine's invariants after every event.

use super::*;
use crate::policies::{ProposalRule, TurnPolicy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{BuildHasher, RandomState};

/// A random session: 3–15 flows over 2–4 alternatives, random defaults
/// and volumes, gains per side (A's higher, so credit-veto closes
/// revert), any policies at `P` ≤ 12, and either side cheating or not.
struct Case {
    input: SessionInput,
    rows: [Vec<Vec<f64>>; 2],
    config: NexitConfig,
    disclosure: [DisclosurePolicy; 2],
}

impl Case {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, k) = (rng.gen_range(3..16usize), rng.gen_range(2..5usize));
        let input = SessionInput {
            defaults: (0..n).map(|_| IcxId::new(rng.gen_range(0..k))).collect(),
            // Zero volumes (in one session of four) reassign at every accept.
            volumes: (0..n)
                .map(|_| rng.gen_range(0.0..2.0) * f64::from(!seed.is_multiple_of(4)))
                .collect(),
            ..input(n, k)
        };
        let mut rows = |best: f64| -> Vec<Vec<f64>> {
            let mut row = || (0..k).map(|_| rng.gen_range(-10.0..best)).collect();
            (0..n).map(|_| row()).collect()
        };
        let rows = [rows(10.0), rows(3.0)];
        let (credit, turn_seed) = (rng.gen_range(0..30i64), rng.gen_range(0..u64::MAX));
        let config = NexitConfig {
            pref_range: rng.gen_range(1..13),
            turn: [
                TurnPolicy::Alternate,
                TurnPolicy::LowerGain,
                TurnPolicy::CoinToss { seed: turn_seed },
            ][rng.gen_range(0..3usize)],
            proposal: [ProposalRule::MaxCombined, ProposalRule::BestLocalMinHarm]
                [rng.gen_range(0..2usize)],
            accept: [
                AcceptRule::Always,
                AcceptRule::VetoNegativeCumulative,
                AcceptRule::CreditVeto { credit },
            ][rng.gen_range(0..3usize)],
            stop: [
                StopPolicy::Early,
                StopPolicy::Full,
                StopPolicy::NegotiateAll,
            ][rng.gen_range(0..3usize)],
            reassign_interval_frac: rng.gen_bool(0.5).then(|| rng.gen_range(0.05..0.5)),
        };
        use DisclosurePolicy::{BlindMax, InflateBest, Truthful};
        let disclosure = [
            [Truthful, Truthful, Truthful, BlindMax][rng.gen_range(0..4usize)],
            [Truthful, Truthful, BlindMax, InflateBest][rng.gen_range(0..4usize)],
        ];
        Self {
            input,
            rows,
            config,
            disclosure,
        }
    }

    /// `side`'s machine, its buffers drawn from `arena`.
    fn machine(&self, arena: &mut TableArena, side: Side) -> NegotiationMachine<CrowdedMapper> {
        let i = usize::from(side == Side::B);
        let mapper = CrowdedMapper::new(&self.rows[i], 0.5);
        let (input, disclosure) = (self.input.clone(), self.disclosure[i]);
        machine_in(arena, side, input, mapper, disclosure, self.config).unwrap()
    }
}

/// An arena holding the buffers of a finished session of another shape
/// (31 flows, five alternatives, reassigning), as a sweep's next has.
fn recycled_arena() -> TableArena {
    let mut arena = TableArena::new();
    let rows = |seed: usize| -> Vec<Vec<f64>> {
        let class = |f: usize, alt: usize| ((f * 3 + alt * 7 + seed) % 11) as f64 - 5.0;
        (0..31)
            .map(|f| (0..5).map(|alt| class(f, alt)).collect())
            .collect()
    };
    let config = NexitConfig {
        reassign_interval_frac: Some(0.1),
        ..NexitConfig::default()
    };
    let (a_rows, b_rows) = (
        CrowdedMapper::new(&rows(1), 0.0),
        CrowdedMapper::new(&rows(4), 0.0),
    );
    let (mut a, mut b) = pair_in(&mut arena, input(31, 5), a_rows, b_rows, config);
    assert!(pump(&mut a, &mut b).0.reassignments > 0);
    a.recycle(&mut arena);
    b.recycle(&mut arena);
    arena
}

/// Equal states hash alike, and both machines hold their invariants.
fn assert_same_state<M: PreferenceMapper>(x: &NegotiationMachine<M>, y: &NegotiationMachine<M>) {
    assert_eq!(x.state(), y.state());
    let hasher = RandomState::new();
    assert_eq!(hasher.hash_one(x.state()), hasher.hash_one(y.state()));
    x.check_invariants();
    y.check_invariants();
}

/// Drain `x` and its twin `y` in lock step, asserting equal actions and
/// states; each step, `y`'s index also builds the row of a floor its
/// machine is not at (another accelerator history). Returns the actions.
fn drain_twins<M: PreferenceMapper>(
    x: &mut NegotiationMachine<M>,
    y: &mut NegotiationMachine<M>,
    floor: &mut i64,
) -> Vec<Action> {
    let mut actions = Vec::new();
    loop {
        let action = x.poll_action();
        assert_eq!(action, y.poll_action(), "twins acted apart");
        assert_same_state(x, y);
        *floor = (*floor + 7) % 23;
        let (s, index) = (&y.state, &mut y.acc.index);
        if matches!(s.phase, Phase::Turn | Phase::AwaitResponse) {
            let guard = Some((&s.my_true, *floor - 11));
            index.select(&s.my_disclosed, &s.their_disclosed, &s.table, guard);
        }
        match action {
            Some(action) => actions.push(action),
            None => return actions,
        }
    }
}

/// A peer that sends whatever the protocol lets it: any table in range,
/// a proposal of any open cell, accepts and vetoes at random, and now
/// and then an early Stop or Bye. It never breaks the protocol, so the
/// machine must take every event.
struct RandomPeer {
    rng: StdRng,
    table: PrefTable,
}

impl RandomPeer {
    /// The next event for `m`, which has drained its actions; `None`
    /// once `m` is terminal.
    fn next<M: PreferenceMapper>(&mut self, m: &NegotiationMachine<M>) -> Option<Event<'_>> {
        let (s, input, p) = (m.state(), m.input(), m.config.pref_range);
        let (n, k) = (input.len(), input.num_alternatives);
        let open =
            |&(f, alt): &(usize, usize)| s.table.is_remaining(f) && !s.table.is_banned(f, alt);
        let open: Vec<_> = (0..n * k).map(|c| (c / k, c % k)).filter(open).collect();
        let round = s.round;
        Some(match s.phase {
            Phase::Disclose | Phase::AwaitReassign => {
                let classes = (0..n * k).map(|_| self.rng.gen_range(-p..=p));
                self.table.refill(n, k, classes);
                Event::PeerPrefs { prefs: &self.table }
            }
            // A drained machine in `Turn` waits for the peer's proposal.
            Phase::Turn if open.is_empty() || self.rng.gen_bool(0.03) => Event::PeerBye,
            Phase::Turn if self.rng.gen_bool(0.03) => Event::PeerStop {
                side: m.side().other(),
            },
            Phase::Turn => {
                let (local_flow, alt) = open[self.rng.gen_range(0..open.len())];
                let alternative = IcxId::new(alt);
                Event::Proposal {
                    round,
                    local_flow,
                    alternative,
                }
            }
            Phase::AwaitResponse => Event::Response {
                round,
                accepted: self.rng.gen_bool(0.6),
            },
            Phase::Closing => Event::PeerBye,
            Phase::Done | Phase::Failed => return None,
        })
    }
}

/// Feed `x` and its twin a random peer's events until `x` is done,
/// draining both in lock step; they must end in one state.
fn face_random_peer<M: PreferenceMapper>(
    seed: u64,
    x: &mut NegotiationMachine<M>,
    twin: &mut NegotiationMachine<M>,
) {
    let mut peer = RandomPeer {
        rng: StdRng::seed_from_u64(seed),
        table: PrefTable::zero(0, 0),
    };
    let mut floor = 0;
    for _ in 0..10_000 {
        drain_twins(x, twin, &mut floor);
        let Some(event) = peer.next(x) else {
            break;
        };
        x.handle(event).unwrap();
        twin.handle(event).unwrap();
    }
    assert!(x.is_done());
    assert_same_state(x, twin);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    // Equal protocol state means an equal future: a session run twice,
    // once on fresh buffers and once on an arena recycled from a larger
    // session of another shape, with foreign guard rows warmed in its
    // indexes, takes the same action at every step and passes through
    // equal (and equally hashed) states.
    #[test]
    fn equal_states_have_equal_futures(seed in any::<u64>()) {
        let case = Case::new(seed);
        let fresh = |side| case.machine(&mut TableArena::new(), side);
        let (mut a, mut b) = (fresh(Side::A), fresh(Side::B));
        let mut arena = recycled_arena();
        let (mut a2, mut b2) = (case.machine(&mut arena, Side::A), case.machine(&mut arena, Side::B));
        let mut floor = 0;
        for _ in 0..10_000 {
            if a.is_done() && b.is_done() {
                break;
            }
            for action in drain_twins(&mut a, &mut a2, &mut floor) {
                deliver(&a, &mut b, action);
                deliver(&a2, &mut b2, action);
            }
            for action in drain_twins(&mut b, &mut b2, &mut floor) {
                deliver(&b, &mut a, action);
                deliver(&b2, &mut a2, action);
            }
        }
        prop_assert!(a.is_done() && b.is_done());
        assert_same_state(&a, &a2);
        assert_same_state(&b, &b2);
        // Both sides close alike; honest disclosed gains are the true
        // ones, and the credit-veto close leaves both non-negative.
        let (sa, sb) = (a.state(), b.state());
        let shared =
            |s: &ProtocolState| (s.round, s.assignment.clone(), s.reverted.clone(), s.reassignments);
        prop_assert_eq!(shared(sa), shared(sb));
        let gains = |s: &ProtocolState| (s.disclosed_gain_a, s.disclosed_gain_b);
        prop_assert_eq!(gains(sa), gains(sb));
        if case.disclosure == [DisclosurePolicy::Truthful; 2] {
            prop_assert_eq!(gains(sa), (sa.my_gain, sb.my_gain));
            let credit = matches!(case.config.accept, AcceptRule::CreditVeto { .. });
            prop_assert!(!credit || sa.my_gain >= 0 && sb.my_gain >= 0);
        }
    }

    // The same for one machine, on either side, facing a peer that may
    // lie, stop or veto at any point.
    #[test]
    fn equal_states_have_equal_futures_under_any_peer(seed in any::<u64>(), b in any::<bool>()) {
        let (case, side) = (Case::new(seed), if b { Side::B } else { Side::A });
        let mut x = case.machine(&mut TableArena::new(), side);
        let mut twin = case.machine(&mut recycled_arena(), side);
        face_random_peer(seed, &mut x, &mut twin);
    }
}

/// Two vetoes of the peer's proposals, issued in either order around a
/// proposal of our own, leave one state — with the index having
/// recomputed the two flows in opposite orders — and from there one
/// future, whatever the peer does next.
#[test]
fn vetoes_in_either_order_reach_one_state() {
    // B (the acceptor in even rounds) loses on flows 1 and 2's
    // alternative 1, so it vetoes both; its own pick stays flow 0.
    let rows_b = [
        [0.0, 9.0, 2.0],
        [0.0, -5.0, 1.0],
        [0.0, -6.0, 1.0],
        [0.0, 1.0, 3.0],
    ];
    let peer_table = PrefTable::from_rows(&[[0, 8, 1], [0, 4, 0], [0, 3, 2], [0, 0, 1]]);
    let config = NexitConfig {
        accept: AcceptRule::VetoNegativeCumulative,
        stop: StopPolicy::NegotiateAll,
        ..NexitConfig::default()
    };
    let propose = |round, local_flow| Event::Proposal {
        round,
        local_flow,
        alternative: IcxId(1),
    };
    let run = |first: usize, second: usize| {
        let (mapper, truthful) = (CrowdedMapper::new(&rows_b, 0.0), DisclosurePolicy::Truthful);
        let arena = &mut TableArena::new();
        let mut b = machine_in(arena, Side::B, input(4, 3), mapper, truthful, config).unwrap();
        b.handle(Event::PeerPrefs { prefs: &peer_table }).unwrap();
        b.handle(propose(0, first)).unwrap();
        while b.poll_action().is_some() {} // disclose, veto round 0, propose round 1
        let vetoed = Event::Response {
            round: 1,
            accepted: false,
        };
        b.handle(vetoed).unwrap();
        b.handle(propose(2, second)).unwrap();
        b
    };
    let (mut x, mut twin) = (run(1, 2), run(2, 1));
    // Three vetoes each: the peer's two proposals, and B's own of flow 0.
    let s = x.state();
    assert!(s.accepted_log.is_empty() && (0..3).all(|flow| s.table.is_banned(flow, 1)));
    assert_same_state(&x, &twin);
    face_random_peer(3, &mut x, &mut twin);
}
