//! The round loop: how each event and each turn advance the protocol
//! state, with the accelerators kept in step.

use super::{Action, Event, MachineError, NegotiationMachine, Phase, Volume};
use crate::mapping::PreferenceMapper;
use crate::outcome::{Side, Termination};
use crate::policies::{AcceptRule, StopPolicy};
use crate::prefs::{quantize_into, PrefTable};
use crate::selection;
use nexit_topology::IcxId;

fn event_name(e: &Event<'_>) -> &'static str {
    match e {
        Event::PeerPrefs { .. } => "PeerPrefs",
        Event::Proposal { .. } => "Proposal",
        Event::Response { .. } => "Response",
        Event::PeerStop { .. } => "PeerStop",
        Event::PeerBye => "PeerBye",
    }
}

impl<M: PreferenceMapper> NegotiationMachine<M> {
    /// Map our preferences over the flows still on the table, disclose
    /// them, and queue the transmission (paper §4: preferences are
    /// re-mapped "for the remaining flows"). The mapper sees the session
    /// restricted to those flows, the quantization scale is taken over
    /// their cells, and only their rows of `my_true` / `my_disclosed` are
    /// written: a settled flow keeps the classes it was accepted at, so
    /// what [`Self::finish`] takes back for a reverted move is what the
    /// round that accepted it added. The whole chain writes into buffers
    /// reused across reassignments.
    pub(super) fn disclose_own(&mut self) {
        let (s, acc) = (&mut self.state, &mut self.acc);
        let k = self.input.num_alternatives;
        let live = s.table.remaining();
        // Before the first accept the live session is the session, and
        // its classes are the table.
        let all_live = s.table.num_remaining() == live.len();
        let (input, classes) = if all_live {
            (&self.input, &mut s.my_true)
        } else {
            let (whole, part) = (&self.input, &mut acc.live_input);
            part.flow_ids.clear();
            part.defaults.clear();
            part.volumes.clear();
            let flows = (whole.flow_ids.iter().zip(&whole.defaults)).zip(&whole.volumes);
            for (((&id, &default), &volume), _) in flows.zip(live).filter(|(_, &live)| live) {
                part.flow_ids.push(id);
                part.defaults.push(default);
                part.volumes.push(volume);
            }
            (&*part, &mut acc.live_true)
        };
        acc.gains.reset(input.len(), k);
        self.mapper.gains(input, &s.assignment, &mut acc.gains);
        // Invariant: the mapper fills the input it was given (no peer data reaches it).
        assert_eq!(
            (acc.gains.num_flows(), acc.gains.num_alternatives()),
            (input.len(), k),
            "the mapper reshaped the gain table: row i is input.flow_ids[i], for the input given"
        );
        let p = self.config.pref_range;
        quantize_into(&acc.gains, p, classes, &mut acc.magnitudes);
        if !all_live {
            s.my_true.scatter_live_rows(&acc.live_true, live);
        }
        let (truth, theirs, defaults) = (&s.my_true, &s.their_disclosed, &self.input.defaults);
        (self.disclosure).disclose_into(truth, theirs, p, defaults, live, &mut s.my_disclosed);
        s.sent_prefs = true;
        s.actions.push_back(Action::SendPrefs);
    }

    /// Take the peer's list: checked whole, as it arrived, but copied
    /// for the flows still on the table only — what the peer says about
    /// a settled flow is never read, so it cannot re-price one.
    fn store_their_prefs(&mut self, prefs: &PrefTable) -> Result<(), MachineError> {
        if prefs.num_flows() != self.input.len() {
            return Err(MachineError::BadPrefList("row count mismatch"));
        }
        if prefs.num_flows() > 0 && prefs.num_alternatives() != self.input.num_alternatives {
            return Err(MachineError::BadPrefList("alternative count mismatch"));
        }
        if !prefs.within_range(self.config.pref_range) {
            return Err(MachineError::BadPrefList("class out of range"));
        }
        let s = &mut self.state;
        s.their_disclosed.copy_live_rows(prefs, s.table.remaining());
        Ok(())
    }

    pub(super) fn whose_turn(&self) -> Side {
        let s = &self.state;
        let (gain_a, gain_b) = (s.disclosed_gain_a, s.disclosed_gain_b);
        selection::decide_turn(self.config.turn, s.round as usize, gain_a, gain_b)
    }

    /// The proposer's self-guard: the floor its own true cumulative gain
    /// may not drop below, `None` when it proposes unguarded.
    pub(super) fn guard_floor(&self) -> Option<i64> {
        match self.config.accept {
            AcceptRule::Always => None,
            AcceptRule::VetoNegativeCumulative => Some(self.state.my_gain),
            AcceptRule::CreditVeto { credit } => Some(self.state.my_gain + credit),
        }
    }

    /// Act when the round loop hands us the turn.
    pub(super) fn advance(&mut self) {
        if self.state.phase != Phase::Turn {
            return;
        }
        if self.state.table.num_remaining() == 0 {
            self.exhausted();
            return;
        }
        if self.whose_turn() != self.side {
            return; // peer proposes; we wait
        }
        // Our turn: early-termination self check.
        if self.config.stop == StopPolicy::Early && self.acc.index.projected_gain() < 0 {
            self.stop_self();
            return;
        }
        let (floor, s) = (self.guard_floor(), &self.state);
        let guard = floor.map(|floor| (&s.my_true, floor));
        let proposal =
            (self.acc.index).select(&s.my_disclosed, &s.their_disclosed, &s.table, guard);
        let Some((local, alt)) = proposal else {
            self.exhausted();
            return;
        };
        // Full-termination self check against the concrete proposal.
        if self.full_stop_violated(local, alt) {
            self.stop_self();
            return;
        }
        let s = &mut self.state;
        s.pending = Some((local, alt));
        s.actions.push_back(Action::SendProposal {
            round: s.round,
            local_flow: local,
            alternative: alt,
        });
        s.phase = Phase::AwaitResponse;
    }

    fn stop_self(&mut self) {
        let side = self.side;
        self.state.actions.push_back(Action::SendStop { side });
        self.state.termination = Some(Termination::Stopped(side));
        self.state.phase = Phase::Closing;
    }

    /// Nothing left to propose: say goodbye and await the peer's.
    fn exhausted(&mut self) {
        self.state.termination = Some(Termination::Exhausted);
        self.state.actions.push_back(Action::SendBye);
        self.state.phase = Phase::Closing;
    }

    /// Whether accepting `(local, alt)` would break the full-termination
    /// floor ("ISPs may continue as long as their cumulative gain is
    /// positive", paper §4).
    fn full_stop_violated(&self, local: usize, alt: IcxId) -> bool {
        self.config.stop == StopPolicy::Full
            && self.state.my_gain + i64::from(self.state.my_true.get(local, alt)) < 0
    }

    pub(super) fn dispatch(&mut self, event: Event<'_>) -> Result<(), MachineError> {
        match (self.state.phase, event) {
            (Phase::Disclose | Phase::AwaitReassign, Event::PeerPrefs { prefs }) => {
                self.store_their_prefs(prefs)?;
                if !self.state.sent_prefs {
                    // We disclose second, seeing the peer's list first (a
                    // cheating second discloser exploits exactly this).
                    self.disclose_own();
                }
                // Both tables are now settled for the coming rounds.
                let s = &mut self.state;
                s.sent_prefs = false;
                let (own, theirs) = (&s.my_disclosed, &s.their_disclosed);
                self.acc.index.rebuild(own, theirs, &s.my_true, &s.table);
                s.phase = Phase::Turn;
                Ok(())
            }
            (
                Phase::Turn,
                Event::Proposal {
                    round,
                    local_flow,
                    alternative,
                },
            ) => {
                if self.whose_turn() == self.side {
                    return Err(MachineError::BadProposal("proposal out of turn"));
                }
                let s = &self.state;
                if round != s.round {
                    return Err(MachineError::BadProposal("round mismatch"));
                }
                if local_flow >= self.input.len() || !s.table.is_remaining(local_flow) {
                    return Err(MachineError::BadProposal("flow not on the table"));
                }
                if alternative.index() >= self.input.num_alternatives
                    || s.table.is_banned(local_flow, alternative.index())
                {
                    return Err(MachineError::BadProposal("alternative unavailable"));
                }
                // Our own stop checks, exercised as the acceptor.
                if self.config.stop == StopPolicy::Early && self.acc.index.projected_gain() < 0
                    || self.full_stop_violated(local_flow, alternative)
                {
                    self.stop_self();
                    return Ok(());
                }
                let after = s.my_gain + i64::from(s.my_true.get(local_flow, alternative));
                let accepted = match self.config.accept {
                    AcceptRule::Always => true,
                    AcceptRule::VetoNegativeCumulative => after >= 0,
                    AcceptRule::CreditVeto { credit } => after >= -credit,
                };
                let round = s.round;
                (self.state.actions).push_back(Action::SendResponse { round, accepted });
                self.apply_round_result(local_flow, alternative, accepted);
                Ok(())
            }
            (Phase::AwaitResponse, Event::Response { round, accepted }) => {
                if round != self.state.round {
                    return Err(MachineError::BadProposal("response round mismatch"));
                }
                // Invariant: `advance` sets `pending` whenever it enters AwaitResponse.
                let (local, alt) =
                    (self.state.pending.take()).expect("AwaitResponse without pending proposal");
                self.apply_round_result(local, alt, accepted);
                Ok(())
            }
            (Phase::AwaitResponse | Phase::Turn, Event::PeerStop { side }) => {
                self.peer_closed(Some(Termination::Stopped(side)))
            }
            (Phase::AwaitResponse | Phase::Turn, Event::PeerBye) => {
                self.peer_closed(Some(Termination::Exhausted))
            }
            (Phase::Closing, Event::PeerBye) => {
                self.finish();
                Ok(())
            }
            // Simultaneous stop from the peer while ours is in flight:
            // keep the earlier (our) termination, still answer with Bye.
            (Phase::Closing, Event::PeerStop { .. }) => self.peer_closed(None),
            (phase, event) => Err(MachineError::UnexpectedEvent {
                state: phase.name(),
                event: event_name(&event),
            }),
        }
    }

    /// The peer closed the session: record why (unless we already had),
    /// answer with Bye and finish.
    fn peer_closed(&mut self, termination: Option<Termination>) -> Result<(), MachineError> {
        if let Some(termination) = termination {
            self.state.termination = Some(termination);
            self.state.pending = None;
        }
        self.state.actions.push_back(Action::SendBye);
        self.finish();
        Ok(())
    }

    /// Apply one completed round (both sides run this identically).
    fn apply_round_result(&mut self, local: usize, alt: IcxId, accepted: bool) {
        let s = &mut self.state;
        s.round += 1;
        if !accepted {
            // Vetoed: withdraw this alternative; the flow stays on the
            // table with its other alternatives.
            s.table.ban(local, alt.index());
            let (own, theirs, index) = (&s.my_disclosed, &s.their_disclosed, &mut self.acc.index);
            index.on_ban(own, theirs, &s.my_true, &s.table, local);
            s.phase = Phase::Turn;
            return;
        }
        s.table.accept(local);
        self.acc.index.on_accept(local);
        s.accepted_log.push((local, alt));
        s.assignment.set(self.input.flow_ids[local], alt);
        s.my_gain += i64::from(s.my_true.get(local, alt));
        let (d_a, d_b) = s.disclosed_tables(self.side);
        let (gain_a, gain_b) = (d_a.get(local, alt), d_b.get(local, alt));
        s.disclosed_gain_a += i64::from(gain_a);
        s.disclosed_gain_b += i64::from(gain_b);
        s.volume_since_reassign.0 += self.input.volumes[local];

        // Reassignment trigger: computed identically on both sides.
        if let Some(threshold) = self.reassign_threshold {
            if s.volume_since_reassign.0 >= threshold && s.table.num_remaining() > 0 {
                s.reassignments += 1;
                s.volume_since_reassign = Volume(0.0);
                s.phase = Phase::AwaitReassign;
                s.sent_prefs = false;
                if self.side == self.first_discloser {
                    self.disclose_own();
                }
                return;
            }
        }
        s.phase = Phase::Turn;
    }

    /// Close the session: apply the credit-veto rollback (computed
    /// identically by both sides from disclosed state) and mark Done.
    ///
    /// The rollback plan reverts each side's disclosedly-worst accepted
    /// compromises until both cumulative disclosed gains are
    /// non-negative; for honest parties disclosed equals true, so the
    /// win-win guarantee carries to true preference units (and, with the
    /// floor quantization, to the real metric).
    fn finish(&mut self) {
        let s = &mut self.state;
        if matches!(self.config.accept, AcceptRule::CreditVeto { .. }) {
            let (d_a, d_b) = s.disclosed_tables(self.side);
            let (gain_a, gain_b) = (s.disclosed_gain_a, s.disclosed_gain_b);
            let plan = selection::rollback_plan(d_a, d_b, &s.accepted_log, gain_a, gain_b);
            for &idx in &plan {
                let (local, alt) = s.accepted_log[idx];
                s.assignment
                    .set(self.input.flow_ids[local], self.input.defaults[local]);
                s.my_gain -= i64::from(s.my_true.get(local, alt));
                let (d_a, d_b) = s.disclosed_tables(self.side);
                let (rev_a, rev_b) = (d_a.get(local, alt), d_b.get(local, alt));
                s.disclosed_gain_a -= i64::from(rev_a);
                s.disclosed_gain_b -= i64::from(rev_b);
            }
            s.reverted = plan;
        }
        s.phase = Phase::Done;
    }
}
