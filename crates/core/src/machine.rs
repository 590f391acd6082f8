//! The sans-IO negotiation machine: one side of the paper's §4 round
//! loop as a pure event-in / action-out state machine.
//!
//! This is the *single* implementation of every protocol decision —
//! disclosure order, turn taking, proposal selection, accept/veto,
//! reassignment pacing, early/full termination, and the §6 credit-veto
//! rollback. Everything else in the workspace is a driver around it:
//!
//! * [`crate::engine::negotiate`] instantiates two machines and shuttles
//!   events between them synchronously (the in-process simulation path),
//! * `nexit-proto`'s `Agent` wraps one machine in a frame codec and a
//!   session handshake (the deployment path).
//!
//! Because both paths execute the same machine, the engine↔protocol
//! equivalence that used to be an empirical cross-check is structural:
//! there is no second copy of the round loop to drift.
//!
//! ## Interaction model
//!
//! Feed peer activity with [`NegotiationMachine::handle`]; drain what
//! this side wants to transmit with [`NegotiationMachine::poll_action`]
//! (which also lets the machine act when it holds the turn). The machine
//! never blocks, sleeps, or touches a transport — drivers own all IO.
//!
//! ```text
//!            +--------------------- Event ----------------------+
//!  transport |  PeerPrefs / Proposal / Response / Stop / Bye    |
//!  ========> |                                                  |
//!            |              NegotiationMachine                  |
//!  <======== |                                                  |
//!  transport |  SendPrefs / SendProposal / SendResponse /       |
//!            +--------- Action: SendStop / SendBye -------------+
//! ```

use crate::arena::{GainTable, TableArena};
use crate::cheating::DisclosurePolicy;
use crate::engine::SessionInput;
use crate::index::CandidateIndex;
use crate::mapping::PreferenceMapper;
use crate::outcome::{Side, Termination};
use crate::policies::{AcceptRule, NexitConfig, StopPolicy};
use crate::prefs::{quantize_into, PrefTable};
use crate::selection::{self, TableState};
use nexit_routing::Assignment;
use nexit_topology::IcxId;
use std::collections::VecDeque;

/// Peer activity fed into the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// The peer's disclosed preference table (initial disclosure or a
    /// reassignment refresh). Borrowed: the machine copies the classes
    /// into its own table, so a driver decodes every list of a session
    /// into one buffer.
    PeerPrefs {
        /// Disclosed classes, one row per session flow.
        prefs: &'a PrefTable,
    },
    /// The peer proposes an alternative for one flow.
    Proposal {
        /// The proposer's round counter (must match ours).
        round: u32,
        /// Local flow index within the session.
        local_flow: usize,
        /// The proposed alternative.
        alternative: IcxId,
    },
    /// The peer answers our proposal.
    Response {
        /// The round being answered.
        round: u32,
        /// Whether the peer accepted.
        accepted: bool,
    },
    /// The peer terminates under its stop policy.
    PeerStop {
        /// The side that stopped (echoed from the wire).
        side: Side,
    },
    /// The peer is out of proposals (orderly completion).
    PeerBye,
}

/// What this side wants transmitted to the peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Disclose our preference table: transmit
    /// [`NegotiationMachine::own_disclosed`] as it stands. It changes
    /// only inside [`NegotiationMachine::handle`], at most once per
    /// call, so a driver that drains actions before it feeds the next
    /// event always reads the table this action was queued for.
    SendPrefs,
    /// Propose an alternative for one flow.
    SendProposal {
        /// Our round counter.
        round: u32,
        /// Local flow index within the session.
        local_flow: usize,
        /// The proposed alternative.
        alternative: IcxId,
    },
    /// Answer the peer's proposal.
    SendResponse {
        /// The round being answered.
        round: u32,
        /// Whether we accepted.
        accepted: bool,
    },
    /// Terminate under our stop policy.
    SendStop {
        /// Our side.
        side: Side,
    },
    /// Orderly close (nothing left to propose, or acknowledging the
    /// peer's close).
    SendBye,
}

/// Protocol violations surfaced by the machine. All are fatal to the
/// session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// [`crate::SessionInput::check`] refused the session input and
    /// configuration.
    InvalidSession(crate::engine::SessionError),
    /// The configured disclosure policy needs the peer's list first, but
    /// this side is the first discloser.
    UnsupportedDisclosure,
    /// A preference list had the wrong shape or out-of-range classes.
    BadPrefList(&'static str),
    /// A proposal or response referenced an invalid or settled
    /// flow/alternative, or arrived out of turn.
    BadProposal(&'static str),
    /// A valid event arrived in the wrong state.
    UnexpectedEvent {
        /// The machine phase the event arrived in.
        state: &'static str,
        /// The event kind.
        event: &'static str,
    },
    /// The machine already failed or completed.
    Closed,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::InvalidSession(e) => write!(f, "invalid session: {e}"),
            MachineError::UnsupportedDisclosure => {
                write!(f, "disclosure policy requires seeing the peer's list first")
            }
            MachineError::BadPrefList(what) => write!(f, "bad preference list: {what}"),
            MachineError::BadProposal(what) => write!(f, "bad proposal: {what}"),
            MachineError::UnexpectedEvent { state, event } => {
                write!(f, "unexpected {event} in state {state}")
            }
            MachineError::Closed => write!(f, "machine closed"),
        }
    }
}

impl std::error::Error for MachineError {}

/// Final result of one machine's session.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOutcome {
    /// The agreed assignment over all pair flows.
    pub assignment: Assignment,
    /// This side's true cumulative preference gain.
    pub my_gain: i64,
    /// How the session ended.
    pub termination: Termination,
    /// Rounds executed.
    pub rounds: u32,
    /// Preference reassignments performed.
    pub reassignments: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Initial disclosure: tables not yet exchanged.
    Disclose,
    /// Round loop: act when it is our turn, else await a proposal.
    Turn,
    /// We proposed; awaiting the peer's response.
    AwaitResponse,
    /// Reassignment triggered; awaiting the peer's fresh list.
    AwaitReassign,
    /// We sent Stop or Bye; awaiting the peer's close.
    Closing,
    /// Session complete.
    Done,
    /// Session failed.
    Failed,
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Disclose => "Disclose",
        Phase::Turn => "Turn",
        Phase::AwaitResponse => "AwaitResponse",
        Phase::AwaitReassign => "AwaitReassign",
        Phase::Closing => "Closing",
        Phase::Done => "Done",
        Phase::Failed => "Failed",
    }
}

fn event_name(e: &Event<'_>) -> &'static str {
    match e {
        Event::PeerPrefs { .. } => "PeerPrefs",
        Event::Proposal { .. } => "Proposal",
        Event::Response { .. } => "Response",
        Event::PeerStop { .. } => "PeerStop",
        Event::PeerBye => "PeerBye",
    }
}

/// One side of a negotiation as a pure state machine.
///
/// Generic over the preference mapper so drivers choose their ownership:
/// the in-process engine lends `&mut dyn PreferenceMapper` from its
/// [`crate::engine::Party`]s, the wire agent owns a boxed `Send` mapper.
pub struct NegotiationMachine<M: PreferenceMapper> {
    side: Side,
    first_discloser: Side,
    mapper: M,
    disclosure: DisclosurePolicy,
    config: NexitConfig,
    input: SessionInput,
    assignment: Assignment,
    state: TableState,
    /// Incremental candidate index over the disclosed tables; rebuilt at
    /// every (re)disclosure, updated on accept/veto. Takes bit-identical
    /// decisions to the [`selection`] reference scans.
    index: CandidateIndex,
    actions: VecDeque<Action>,
    phase: Phase,
    /// Whether our list went out in the current (re)disclosure exchange.
    sent_prefs: bool,
    my_true: PrefTable,
    my_disclosed: PrefTable,
    their_disclosed: PrefTable,
    /// Mapper output scratch, reused across every (re)disclosure.
    gains: GainTable,
    /// Quantization sort scratch, reused likewise.
    magnitudes: Vec<f64>,
    /// Re-disclosure scratch: the session restricted to the flows still
    /// on the table, and their freshly quantized classes. Both stay
    /// empty in a session that never reassigns.
    live_input: SessionInput,
    live_true: PrefTable,
    my_gain: i64,
    disclosed_gain_a: i64,
    disclosed_gain_b: i64,
    round: u32,
    volume_since_reassign: f64,
    /// Accepted volume that triggers a reassignment: the configured
    /// fraction of the session's total volume, `None` when disabled.
    reassign_threshold: Option<f64>,
    reassignments: usize,
    pending: Option<(usize, IcxId)>,
    termination: Option<Termination>,
    /// Accepted moves in round order, for the credit-veto rollback.
    accepted_log: Vec<(usize, IcxId)>,
    /// Indices into `accepted_log` reverted by the rollback.
    reverted: Vec<usize>,
}

impl<M: PreferenceMapper> NegotiationMachine<M> {
    /// Create one side of a session.
    ///
    /// Both machines of a pair must be constructed from the same `input`,
    /// `default_assignment`, `config` and `first_discloser` (in
    /// deployment these come from the §6 flow-signature agreement and the
    /// peering contract). `first_discloser` names the side that sends its
    /// preference list without having seen the peer's; a disclosure
    /// policy that needs the peer's list first (the §5.4 inflate-best
    /// cheater) is rejected on that side.
    pub fn new(
        side: Side,
        first_discloser: Side,
        input: SessionInput,
        default_assignment: Assignment,
        mapper: M,
        disclosure: DisclosurePolicy,
        config: NexitConfig,
    ) -> Result<Self, MachineError> {
        Self::new_in(
            &mut TableArena::new(),
            side,
            first_discloser,
            input,
            default_assignment,
            mapper,
            disclosure,
            config,
        )
    }

    /// [`NegotiationMachine::new`] drawing every table and index buffer
    /// from `arena`. Pair with [`NegotiationMachine::recycle`]: a driver
    /// that runs sessions back to back (grouped negotiation, scenario
    /// sweeps) allocates each backing buffer exactly once.
    #[allow(clippy::too_many_arguments)] // mirrors `new` plus the arena
    pub fn new_in(
        arena: &mut TableArena,
        side: Side,
        first_discloser: Side,
        input: SessionInput,
        default_assignment: Assignment,
        mapper: M,
        disclosure: DisclosurePolicy,
        config: NexitConfig,
    ) -> Result<Self, MachineError> {
        if side == first_discloser && disclosure.needs_peer_list() {
            return Err(MachineError::UnsupportedDisclosure);
        }
        input.check(&config).map_err(MachineError::InvalidSession)?;
        let n = input.len();
        let k = input.num_alternatives;
        let reassign_threshold = config
            .reassign_interval_frac
            .map(|frac| frac * input.total_volume());
        let index = CandidateIndex::new_in(
            arena,
            config.proposal,
            config.pref_range,
            &input.defaults,
            k,
            config.stop == StopPolicy::Early,
        );
        let mut machine = Self {
            side,
            first_discloser,
            mapper,
            disclosure,
            config,
            input,
            assignment: default_assignment,
            state: TableState::new(n, k),
            index,
            actions: VecDeque::new(),
            phase: Phase::Disclose,
            sent_prefs: false,
            my_true: arena.pref_table(n, k),
            my_disclosed: arena.pref_table(n, k),
            their_disclosed: arena.pref_table(n, k),
            gains: arena.gain_table(n, k),
            // Recycled through the arena as a shapeless gain buffer —
            // only its capacity matters.
            magnitudes: arena.gain_table(0, 0).into_storage(),
            live_input: SessionInput {
                flow_ids: Vec::new(),
                defaults: Vec::new(),
                volumes: Vec::new(),
                num_alternatives: k,
            },
            live_true: arena.pref_table(0, 0),
            my_gain: 0,
            disclosed_gain_a: 0,
            disclosed_gain_b: 0,
            round: 0,
            volume_since_reassign: 0.0,
            reassign_threshold,
            reassignments: 0,
            pending: None,
            termination: None,
            // A flow is accepted at most once: the log never regrows.
            accepted_log: Vec::with_capacity(n),
            reverted: Vec::new(),
        };
        if side == first_discloser {
            machine.disclose_own();
        }
        Ok(machine)
    }

    /// Retire the machine, returning its table and index buffers to
    /// `arena` for the next [`NegotiationMachine::new_in`].
    pub fn recycle(self, arena: &mut TableArena) {
        arena.recycle_pref(self.my_true);
        arena.recycle_pref(self.my_disclosed);
        arena.recycle_pref(self.their_disclosed);
        arena.recycle_pref(self.live_true);
        arena.recycle_gain(self.gains);
        arena.recycle_gain(GainTable::from_storage(self.magnitudes, 0, 0));
        self.index.recycle(arena);
    }

    /// This machine's side.
    pub fn side(&self) -> Side {
        self.side
    }

    /// The session this machine negotiates.
    pub fn input(&self) -> &SessionInput {
        &self.input
    }

    /// Feed one peer event.
    pub fn handle(&mut self, event: Event<'_>) -> Result<(), MachineError> {
        if self.phase == Phase::Failed {
            return Err(MachineError::Closed);
        }
        let result = self.dispatch(event);
        if result.is_err() {
            self.phase = Phase::Failed;
        }
        result
    }

    /// Pop the next outgoing action, advancing the machine first so it
    /// can act whenever it holds the turn.
    pub fn poll_action(&mut self) -> Option<Action> {
        self.advance();
        self.actions.pop_front()
    }

    /// Whether the session reached a terminal state (done or failed) and
    /// every pending action has been drained.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Failed) && self.actions.is_empty()
    }

    /// The outcome, once the session completed successfully.
    pub fn outcome(&self) -> Option<MachineOutcome> {
        if self.phase != Phase::Done {
            return None;
        }
        Some(MachineOutcome {
            assignment: self.assignment.clone(),
            my_gain: self.my_gain,
            termination: self.termination.unwrap_or(Termination::Exhausted),
            rounds: self.round,
            reassignments: self.reassignments,
        })
    }

    /// How the session ended, once terminal.
    pub fn termination(&self) -> Option<Termination> {
        self.termination
    }

    /// Whether the machine is waiting for the peer's preference list
    /// (initial disclosure or a post-reassignment re-disclosure). Used
    /// by replay-tolerant transports: while this holds, a byte-identical
    /// `PeerPrefs` is fresh data (an honestly unchanged table encodes to
    /// the same bytes), not a duplicate.
    pub fn expects_prefs(&self) -> bool {
        matches!(self.phase, Phase::Disclose | Phase::AwaitReassign)
    }

    /// The evolving (or final) assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// This side's true cumulative preference gain so far.
    pub fn my_gain(&self) -> i64 {
        self.my_gain
    }

    /// Cumulative disclosed gains in `(A, B)` orientation (identical on
    /// both machines of a pair).
    pub fn disclosed_gains(&self) -> (i64, i64) {
        (self.disclosed_gain_a, self.disclosed_gain_b)
    }

    /// Preference reassignments performed.
    pub fn reassignments(&self) -> usize {
        self.reassignments
    }

    /// Accepted moves `(local_flow, alternative)` in round order.
    pub fn accepted_log(&self) -> &[(usize, IcxId)] {
        &self.accepted_log
    }

    /// Indices into [`NegotiationMachine::accepted_log`] reverted by the
    /// end-of-session rollback (credit-veto mode only), in revert order.
    pub fn reverted_indices(&self) -> &[usize] {
        &self.reverted
    }

    /// The table this side last disclosed (what [`Action::SendPrefs`]
    /// transmits).
    pub fn own_disclosed(&self) -> &PrefTable {
        &self.my_disclosed
    }

    /// What `action`, drained from this machine, is to the peer when
    /// nothing sits between the two (the in-process transport).
    pub fn peer_event(&self, action: Action) -> Event<'_> {
        match action {
            Action::SendPrefs => Event::PeerPrefs {
                prefs: &self.my_disclosed,
            },
            Action::SendProposal {
                round,
                local_flow,
                alternative,
            } => Event::Proposal {
                round,
                local_flow,
                alternative,
            },
            Action::SendResponse { round, accepted } => Event::Response { round, accepted },
            Action::SendStop { side } => Event::PeerStop { side },
            Action::SendBye => Event::PeerBye,
        }
    }

    /// Current disclosed preference tables in `(A, B)` orientation —
    /// exactly the view a transcript of the wire would show.
    pub fn disclosed_tables(&self) -> (&PrefTable, &PrefTable) {
        match self.side {
            Side::A => (&self.my_disclosed, &self.their_disclosed),
            Side::B => (&self.their_disclosed, &self.my_disclosed),
        }
    }

    /// Map our preferences over the flows still on the table, disclose
    /// them, and queue the transmission (paper §4: preferences are
    /// re-mapped "for the remaining flows"). The mapper sees the session
    /// restricted to those flows, the quantization scale is taken over
    /// their cells, and only their rows of `my_true` / `my_disclosed` are
    /// written: a settled flow keeps the classes it was accepted at, so
    /// what [`Self::finish`] takes back for a reverted move is what the
    /// round that accepted it added. The whole chain writes into buffers
    /// reused across reassignments.
    fn disclose_own(&mut self) {
        let k = self.input.num_alternatives;
        let live = self.state.remaining();
        // Before the first accept the live session is the session, and
        // its classes are the table.
        let all_live = self.state.num_remaining() == live.len();
        let (input, classes) = if all_live {
            (&self.input, &mut self.my_true)
        } else {
            let (whole, part) = (&self.input, &mut self.live_input);
            part.flow_ids.clear();
            part.defaults.clear();
            part.volumes.clear();
            let flows = whole
                .flow_ids
                .iter()
                .zip(&whole.defaults)
                .zip(&whole.volumes);
            for (((&id, &default), &volume), _) in flows.zip(live).filter(|(_, &live)| live) {
                part.flow_ids.push(id);
                part.defaults.push(default);
                part.volumes.push(volume);
            }
            (&*part, &mut self.live_true)
        };
        self.gains.reset(input.len(), k);
        self.mapper.gains(input, &self.assignment, &mut self.gains);
        assert_eq!(
            (self.gains.num_flows(), self.gains.num_alternatives()),
            (input.len(), k),
            "the mapper reshaped the gain table: row i is input.flow_ids[i], for the input given"
        );
        quantize_into(
            &self.gains,
            self.config.pref_range,
            classes,
            &mut self.magnitudes,
        );
        if !all_live {
            self.my_true.scatter_live_rows(&self.live_true, live);
        }
        self.disclosure.disclose_into(
            &self.my_true,
            &self.their_disclosed,
            self.config.pref_range,
            &self.input.defaults,
            live,
            &mut self.my_disclosed,
        );
        self.sent_prefs = true;
        self.actions.push_back(Action::SendPrefs);
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
        self.their_disclosed
            .copy_live_rows(prefs, self.state.remaining());
        Ok(())
    }

    fn whose_turn(&self) -> Side {
        selection::decide_turn(
            self.config.turn,
            self.round as usize,
            self.disclosed_gain_a,
            self.disclosed_gain_b,
        )
    }

    /// Rebuild the candidate index after a (re)disclosure changed the
    /// tables it is keyed on.
    fn rebuild_index(&mut self) {
        self.index.rebuild(
            &self.my_disclosed,
            &self.their_disclosed,
            &self.my_true,
            &self.state,
        );
    }

    /// Act when the round loop hands us the turn.
    fn advance(&mut self) {
        if self.phase != Phase::Turn {
            return;
        }
        if self.state.num_remaining() == 0 {
            self.termination = Some(Termination::Exhausted);
            self.actions.push_back(Action::SendBye);
            self.phase = Phase::Closing;
            return;
        }
        if self.whose_turn() != self.side {
            return; // peer proposes; we wait
        }
        // Our turn: early-termination self check.
        if self.config.stop == StopPolicy::Early && self.index.projected_gain() < 0 {
            self.stop_self();
            return;
        }
        let self_guard_floor = match self.config.accept {
            AcceptRule::Always => None,
            AcceptRule::VetoNegativeCumulative => Some(self.my_gain),
            AcceptRule::CreditVeto { credit } => Some(self.my_gain + credit),
        };
        let proposal = self.index.select(
            &self.my_disclosed,
            &self.their_disclosed,
            &self.state,
            self_guard_floor.map(|floor| (&self.my_true, floor)),
        );
        let Some((local, alt)) = proposal else {
            self.termination = Some(Termination::Exhausted);
            self.actions.push_back(Action::SendBye);
            self.phase = Phase::Closing;
            return;
        };
        // Full-termination self check against the concrete proposal.
        if self.full_stop_violated(local, alt) {
            self.stop_self();
            return;
        }
        self.pending = Some((local, alt));
        self.actions.push_back(Action::SendProposal {
            round: self.round,
            local_flow: local,
            alternative: alt,
        });
        self.phase = Phase::AwaitResponse;
    }

    fn stop_self(&mut self) {
        self.termination = Some(Termination::Stopped(self.side));
        self.actions.push_back(Action::SendStop { side: self.side });
        self.phase = Phase::Closing;
    }

    /// Whether accepting `(local, alt)` would break the full-termination
    /// floor ("ISPs may continue as long as their cumulative gain is
    /// positive", paper §4).
    fn full_stop_violated(&self, local: usize, alt: IcxId) -> bool {
        self.config.stop == StopPolicy::Full
            && self.my_gain + i64::from(self.my_true.get(local, alt)) < 0
    }

    fn dispatch(&mut self, event: Event<'_>) -> Result<(), MachineError> {
        match (self.phase, event) {
            (Phase::Disclose | Phase::AwaitReassign, Event::PeerPrefs { prefs }) => {
                self.store_their_prefs(prefs)?;
                if !self.sent_prefs {
                    // We disclose second, seeing the peer's list first (a
                    // cheating second discloser exploits exactly this).
                    self.disclose_own();
                }
                self.sent_prefs = false;
                // Both tables are now settled for the coming rounds.
                self.rebuild_index();
                self.phase = Phase::Turn;
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
                if round != self.round {
                    return Err(MachineError::BadProposal("round mismatch"));
                }
                if local_flow >= self.input.len() || !self.state.is_remaining(local_flow) {
                    return Err(MachineError::BadProposal("flow not on the table"));
                }
                if alternative.index() >= self.input.num_alternatives
                    || self.state.is_banned(local_flow, alternative.index())
                {
                    return Err(MachineError::BadProposal("alternative unavailable"));
                }
                // Our own stop checks, exercised as the acceptor.
                if self.config.stop == StopPolicy::Early && self.index.projected_gain() < 0 {
                    self.stop_self();
                    return Ok(());
                }
                if self.full_stop_violated(local_flow, alternative) {
                    self.stop_self();
                    return Ok(());
                }
                let accepted = match self.config.accept {
                    AcceptRule::Always => true,
                    AcceptRule::VetoNegativeCumulative => {
                        self.my_gain + i64::from(self.my_true.get(local_flow, alternative)) >= 0
                    }
                    AcceptRule::CreditVeto { credit } => {
                        self.my_gain + i64::from(self.my_true.get(local_flow, alternative))
                            >= -credit
                    }
                };
                self.actions.push_back(Action::SendResponse {
                    round: self.round,
                    accepted,
                });
                self.apply_round_result(local_flow, alternative, accepted);
                Ok(())
            }
            (Phase::AwaitResponse, Event::Response { round, accepted }) => {
                if round != self.round {
                    return Err(MachineError::BadProposal("response round mismatch"));
                }
                let (local, alt) = self
                    .pending
                    .take()
                    .expect("AwaitResponse without pending proposal");
                self.apply_round_result(local, alt, accepted);
                Ok(())
            }
            (Phase::AwaitResponse | Phase::Turn, Event::PeerStop { side }) => {
                self.termination = Some(Termination::Stopped(side));
                self.pending = None;
                self.actions.push_back(Action::SendBye);
                self.finish();
                Ok(())
            }
            (Phase::AwaitResponse | Phase::Turn, Event::PeerBye) => {
                self.termination = Some(Termination::Exhausted);
                self.pending = None;
                self.actions.push_back(Action::SendBye);
                self.finish();
                Ok(())
            }
            (Phase::Closing, Event::PeerBye) => {
                self.finish();
                Ok(())
            }
            (Phase::Closing, Event::PeerStop { .. }) => {
                // Simultaneous stop from the peer while ours is in
                // flight: keep the earlier (our) termination, still
                // answer with Bye.
                self.actions.push_back(Action::SendBye);
                self.finish();
                Ok(())
            }
            (phase, event) => Err(MachineError::UnexpectedEvent {
                state: phase_name(phase),
                event: event_name(&event),
            }),
        }
    }

    /// Apply one completed round (both sides run this identically).
    fn apply_round_result(&mut self, local: usize, alt: IcxId, accepted: bool) {
        self.round += 1;
        if !accepted {
            // Vetoed: withdraw this alternative; the flow stays on the
            // table with its other alternatives.
            self.state.ban(local, alt.index());
            self.index.on_ban(
                &self.my_disclosed,
                &self.their_disclosed,
                &self.my_true,
                &self.state,
                local,
            );
            self.phase = Phase::Turn;
            return;
        }
        self.state.accept(local);
        self.index.on_accept(local);
        self.accepted_log.push((local, alt));
        self.assignment.set(self.input.flow_ids[local], alt);
        self.my_gain += i64::from(self.my_true.get(local, alt));
        let (d_a, d_b) = self.disclosed_tables();
        let (gain_a, gain_b) = (
            i64::from(d_a.get(local, alt)),
            i64::from(d_b.get(local, alt)),
        );
        self.disclosed_gain_a += gain_a;
        self.disclosed_gain_b += gain_b;
        self.volume_since_reassign += self.input.volumes[local];

        // Reassignment trigger: computed identically on both sides.
        if let Some(threshold) = self.reassign_threshold {
            if self.volume_since_reassign >= threshold && self.state.num_remaining() > 0 {
                self.reassignments += 1;
                self.volume_since_reassign = 0.0;
                self.phase = Phase::AwaitReassign;
                self.sent_prefs = false;
                if self.side == self.first_discloser {
                    self.disclose_own();
                }
                return;
            }
        }
        self.phase = Phase::Turn;
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
        if matches!(self.config.accept, AcceptRule::CreditVeto { .. }) {
            let (d_a, d_b) = match self.side {
                Side::A => (&self.my_disclosed, &self.their_disclosed),
                Side::B => (&self.their_disclosed, &self.my_disclosed),
            };
            let plan = selection::rollback_plan(
                d_a,
                d_b,
                &self.accepted_log,
                self.disclosed_gain_a,
                self.disclosed_gain_b,
            );
            for &idx in &plan {
                let (local, alt) = self.accepted_log[idx];
                self.assignment
                    .set(self.input.flow_ids[local], self.input.defaults[local]);
                self.my_gain -= i64::from(self.my_true.get(local, alt));
                let (d_a, d_b) = self.disclosed_tables();
                let (rev_a, rev_b) = (
                    i64::from(d_a.get(local, alt)),
                    i64::from(d_b.get(local, alt)),
                );
                self.disclosed_gain_a -= rev_a;
                self.disclosed_gain_b -= rev_b;
            }
            self.reverted = plan;
        }
        self.phase = Phase::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SessionInput;
    use nexit_routing::FlowId;

    /// A mapper replaying a fixed gain table, one row per flow id.
    struct FixedMapper {
        gains: GainTable,
    }

    impl FixedMapper {
        fn new<R: AsRef<[f64]>>(rows: &[R]) -> Self {
            Self {
                gains: GainTable::from_rows(rows),
            }
        }
    }

    impl PreferenceMapper for FixedMapper {
        fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
            for (row, flow) in input.flow_ids.iter().enumerate() {
                out.row_mut(row)
                    .copy_from_slice(self.gains.row(flow.index()));
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

    fn pair(
        gains_a: &[Vec<f64>],
        gains_b: &[Vec<f64>],
        config: NexitConfig,
    ) -> (
        NegotiationMachine<FixedMapper>,
        NegotiationMachine<FixedMapper>,
    ) {
        let k = gains_a.first().map_or(1, Vec::len);
        pair_over(input(gains_a.len(), k), gains_a, gains_b, config)
    }

    fn pair_over(
        inp: SessionInput,
        gains_a: &[Vec<f64>],
        gains_b: &[Vec<f64>],
        config: NexitConfig,
    ) -> (
        NegotiationMachine<FixedMapper>,
        NegotiationMachine<FixedMapper>,
    ) {
        pair_with(
            inp,
            FixedMapper::new(gains_a),
            FixedMapper::new(gains_b),
            config,
        )
    }

    fn pair_with<M: PreferenceMapper>(
        inp: SessionInput,
        mapper_a: M,
        mapper_b: M,
        config: NexitConfig,
    ) -> (NegotiationMachine<M>, NegotiationMachine<M>) {
        let default = Assignment::uniform(inp.len(), IcxId(0));
        let a = NegotiationMachine::new(
            Side::A,
            Side::A,
            inp.clone(),
            default.clone(),
            mapper_a,
            DisclosurePolicy::Truthful,
            config,
        )
        .unwrap();
        let b = NegotiationMachine::new(
            Side::B,
            Side::A,
            inp,
            default,
            mapper_b,
            DisclosurePolicy::Truthful,
            config,
        )
        .unwrap();
        (a, b)
    }

    /// Shuttle events until both machines are done.
    fn pump<M: PreferenceMapper>(
        a: &mut NegotiationMachine<M>,
        b: &mut NegotiationMachine<M>,
    ) -> (MachineOutcome, MachineOutcome) {
        for _ in 0..10_000 {
            let mut progressed = false;
            while let Some(action) = a.poll_action() {
                b.handle(a.peer_event(action)).unwrap();
                progressed = true;
            }
            while let Some(action) = b.poll_action() {
                a.handle(b.peer_event(action)).unwrap();
                progressed = true;
            }
            if a.is_done() && b.is_done() {
                return (a.outcome().unwrap(), b.outcome().unwrap());
            }
            assert!(progressed, "machine pair deadlocked");
        }
        panic!("machine pair did not terminate");
    }

    #[test]
    fn mutually_good_move_is_taken() {
        let (mut a, mut b) = pair(&[vec![0.0, 5.0]], &[vec![0.0, 3.0]], NexitConfig::default());
        let (out_a, out_b) = pump(&mut a, &mut b);
        assert_eq!(out_a.assignment.choice(FlowId(0)), IcxId(1));
        assert_eq!(out_a.assignment, out_b.assignment);
        assert!(out_a.my_gain > 0 && out_b.my_gain > 0);
        assert_eq!(out_a.termination, Termination::Exhausted);
    }

    #[test]
    fn machines_agree_on_rounds_and_gain_orientation() {
        let (mut a, mut b) = pair(
            &[vec![0.0, 10.0], vec![0.0, -2.0], vec![0.0, 6.0]],
            &[vec![0.0, -2.0], vec![0.0, 10.0], vec![0.0, 6.0]],
            NexitConfig::default(),
        );
        let (out_a, out_b) = pump(&mut a, &mut b);
        assert_eq!(out_a.rounds, out_b.rounds);
        assert_eq!(out_a.assignment, out_b.assignment);
        assert_eq!(a.disclosed_gains(), b.disclosed_gains());
        assert_eq!(a.disclosed_gains(), (out_a.my_gain, out_b.my_gain));
    }

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
        let err = NegotiationMachine::new(
            Side::A,
            Side::A,
            input(1, 2),
            Assignment::uniform(1, IcxId(0)),
            FixedMapper::new(&[vec![0.0, 0.0]]),
            DisclosurePolicy::InflateBest,
            NexitConfig::default(),
        )
        .err();
        assert_eq!(err, Some(MachineError::UnsupportedDisclosure));
        // The second discloser may cheat.
        assert!(NegotiationMachine::new(
            Side::B,
            Side::A,
            input(1, 2),
            Assignment::uniform(1, IcxId(0)),
            FixedMapper::new(&[vec![0.0, 0.0]]),
            DisclosurePolicy::InflateBest,
            NexitConfig::default(),
        )
        .is_ok());
    }

    #[test]
    fn rejects_malformed_peer_prefs() {
        let mk = || {
            NegotiationMachine::new(
                Side::B,
                Side::A,
                input(2, 2),
                Assignment::uniform(2, IcxId(0)),
                FixedMapper::new(&[[0.0, 0.0]; 2]),
                DisclosurePolicy::Truthful,
                NexitConfig::default(),
            )
            .unwrap()
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
        // Round 0 is A's turn; a proposal *to* A is out of turn.
        assert_eq!(
            a.handle(Event::Proposal {
                round: 0,
                local_flow: 0,
                alternative: IcxId(1),
            }),
            Err(MachineError::BadProposal("proposal out of turn"))
        );
        // B expects A's proposal for round 0, not round 7.
        assert_eq!(
            b.handle(Event::Proposal {
                round: 7,
                local_flow: 0,
                alternative: IcxId(1),
            }),
            Err(MachineError::BadProposal("round mismatch"))
        );
    }

    /// The reassignment trigger as `apply_round_result` first spelled
    /// it — the threshold recomputed from `total_volume()` on every
    /// accepted round — replayed over a finished machine's log: whether
    /// a reassignment follows each accepted move.
    fn per_round_trigger(m: &NegotiationMachine<FixedMapper>, frac: f64) -> Vec<bool> {
        let input = m.input();
        let mut since = 0.0;
        let mut fired = Vec::new();
        for (i, &(local, _)) in m.accepted_log().iter().enumerate() {
            since += input.volumes[local];
            let fire = since >= frac * input.total_volume() && i + 1 < input.len();
            if fire {
                since = 0.0;
            }
            fired.push(fire);
        }
        fired
    }

    #[test]
    fn reassignment_rounds_match_the_per_round_threshold() {
        let n = 40;
        let gains = |seed| seeded_gains(n, seed);
        let uneven: Vec<f64> = (0..n).map(|f| 0.37 * (f % 7 + 1) as f64).collect();
        for volumes in [uneven, vec![0.0; n]] {
            let config = NexitConfig::win_win_bandwidth();
            let frac = config.reassign_interval_frac.unwrap();
            let inp = SessionInput {
                volumes,
                ..input(n, 3)
            };
            let (mut a, mut b) = pair_over(inp, &gains(1), &gains(2), config);
            // Pump by hand, noting after which accepted moves A reassigned.
            let mut fired = Vec::new();
            while !(a.is_done() && b.is_done()) {
                while let Some(action) = a.poll_action() {
                    b.handle(a.peer_event(action)).unwrap();
                }
                while let Some(action) = b.poll_action() {
                    let before = (a.accepted_log().len(), a.reassignments());
                    a.handle(b.peer_event(action)).unwrap();
                    if a.accepted_log().len() > before.0 {
                        fired.push(a.reassignments() > before.1);
                    }
                }
            }
            assert_eq!(fired, per_round_trigger(&a, frac));
            assert_eq!(a.reassignments(), b.reassignments());
            assert_eq!(a.accepted_log(), b.accepted_log());
            assert!(a.reassignments() > 0, "the session must reassign");
        }
    }

    #[test]
    fn credit_veto_rollback_is_mirrored() {
        // A trade that ends negative for one side without rollback.
        let config = NexitConfig {
            accept: AcceptRule::CreditVeto { credit: 100 },
            stop: StopPolicy::NegotiateAll,
            ..NexitConfig::default()
        };
        let (mut a, mut b) = pair(
            &[vec![0.0, -5.0], vec![0.0, 2.0]],
            &[vec![0.0, 9.0], vec![0.0, 1.0]],
            config,
        );
        let (out_a, out_b) = pump(&mut a, &mut b);
        assert_eq!(out_a.assignment, out_b.assignment);
        assert_eq!(a.reverted_indices(), b.reverted_indices());
        assert!(out_a.my_gain >= 0, "rollback failed: {}", out_a.my_gain);
        assert!(out_b.my_gain >= 0);
    }

    /// A load-like objective: a fixed table less a charge for every flow
    /// `current` already routes over the alternative (beyond the
    /// default's riders), so each accepted move re-prices every row the
    /// mapper is asked for again. Records the flows of each fill.
    struct CrowdedMapper {
        base: GainTable,
        charge: f64,
        fills: Vec<Vec<FlowId>>,
    }

    impl CrowdedMapper {
        fn new(rows: &[Vec<f64>], charge: f64) -> Self {
            Self {
                base: GainTable::from_rows(rows),
                charge,
                fills: Vec::new(),
            }
        }
    }

    impl PreferenceMapper for CrowdedMapper {
        fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
            self.fills.push(input.flow_ids.clone());
            let mut riders = vec![0.0; input.num_alternatives];
            for (_, alt) in current.iter() {
                riders[alt.index()] += 1.0;
            }
            for (row, (flow, default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
                for (alt, cell) in out.row_mut(row).iter_mut().enumerate() {
                    if alt != default.index() {
                        *cell = self.base.get(flow.index(), alt)
                            - self.charge * (riders[alt] - riders[default.index()]);
                    }
                }
            }
        }
    }

    /// Deterministic `n x 3` gain rows in `[-8, 10]`, default column 0.
    fn seeded_gains(n: usize, seed: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|f| {
                let g = |alt: usize| ((f * 7 + alt * 13 + seed * 5) % 19) as f64 - 8.0;
                vec![0.0, g(1), g(2)]
            })
            .collect()
    }

    /// Deliver `action` and, when it completed an accepted round, enter
    /// in `ledger` the class `to` held for the move when it accepted.
    fn deliver_with_ledger<M: PreferenceMapper>(
        from: &NegotiationMachine<M>,
        to: &mut NegotiationMachine<M>,
        action: Action,
        ledger: &mut Vec<i64>,
    ) {
        let (held, logged) = (to.my_true.clone(), to.accepted_log.len());
        to.handle(from.peer_event(action)).unwrap();
        if let Some(&(local, alt)) = to.accepted_log.get(logged) {
            ledger.push(i64::from(held.get(local, alt)));
        }
    }

    /// What `finish` must leave: the accept-time classes of the moves
    /// the rollback kept.
    fn surviving(ledger: &[i64], reverted: &[usize]) -> i64 {
        let taken_back: i64 = reverted.iter().map(|&idx| ledger[idx]).sum();
        ledger.iter().sum::<i64>() - taken_back
    }

    #[test]
    fn remapping_asks_for_the_unsettled_flows_only() {
        let n = 40;
        let (mut a, mut b) = pair_with(
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
            let unsettled: Vec<FlowId> = (0..m.input.len())
                .filter(|&flow| m.state.is_remaining(flow))
                .map(|flow| m.input.flow_ids[flow])
                .collect();
            assert_eq!(unsettled.len(), m.state.num_remaining());
            assert_eq!(m.mapper.fills.last(), Some(&unsettled));
        }
        while !(a.is_done() && b.is_done()) {
            while let Some(action) = a.poll_action() {
                let fills = b.mapper.fills.len();
                b.handle(a.peer_event(action)).unwrap();
                check(&b, fills);
            }
            while let Some(action) = b.poll_action() {
                let fills = a.mapper.fills.len();
                a.handle(b.peer_event(action)).unwrap();
                check(&a, fills);
            }
        }
        for m in [&a, &b] {
            assert!(m.reassignments() >= 10, "{} epochs", m.reassignments());
            assert_eq!(m.mapper.fills.len(), m.reassignments() + 1);
            assert!(
                m.mapper.fills.windows(2).all(|w| w[1].len() < w[0].len()),
                "every re-map must be asked for fewer flows than the one before"
            );
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
        let (mut a, mut b) = pair_with(
            input(40, 3),
            table(),
            table(),
            NexitConfig::win_win_bandwidth(),
        );
        pump(&mut a, &mut b);
    }

    #[test]
    fn a_peer_cannot_reprice_a_settled_move() {
        // B loses on three flows in four, so the close rolls moves back
        // on B's disclosed classes — the ones a lying B would rewrite.
        let n = 40;
        let gains_a = seeded_gains(n, 1);
        let gains_b: Vec<Vec<f64>> = gains_a
            .iter()
            .enumerate()
            .map(|(f, row)| {
                let tilt = if f % 4 == 0 { 0.5 } else { -0.5 };
                row.iter().map(|g| tilt * g.abs()).collect()
            })
            .collect();
        let config = NexitConfig::win_win_bandwidth();
        let mk = || pair_over(input(n, 3), &gains_a, &gains_b, config);

        let (mut a, mut b) = mk();
        let (honest, _) = pump(&mut a, &mut b);
        assert!(!a.reverted_indices().is_empty(), "the close must revert");
        let honest_reverted = a.reverted_indices().to_vec();

        // The same session, but every re-disclosure of B's claims +P in
        // every cell of every flow already settled.
        let (mut a, mut b) = mk();
        let mut lies = 0;
        while !(a.is_done() && b.is_done()) {
            while let Some(action) = a.poll_action() {
                b.handle(a.peer_event(action)).unwrap();
            }
            while let Some(action) = b.poll_action() {
                if action == Action::SendPrefs && b.reassignments() > 0 {
                    let mut forged = b.own_disclosed().clone();
                    for flow in (0..n).filter(|&flow| !a.state.is_remaining(flow)) {
                        forged.row_mut(flow).fill(config.pref_range);
                        lies += 1;
                    }
                    a.handle(Event::PeerPrefs { prefs: &forged }).unwrap();
                } else {
                    a.handle(b.peer_event(action)).unwrap();
                }
            }
        }
        assert!(lies > 0, "no settled row was ever re-disclosed");
        let lied_to = a.outcome().unwrap();
        assert_eq!(lied_to, honest);
        assert_eq!(a.reverted_indices(), honest_reverted);
        assert!(lied_to.my_gain >= 0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_rows(n: usize, best: f64) -> impl Strategy<Value = Vec<Vec<f64>>> {
            proptest::collection::vec(proptest::collection::vec(-10.0..best, 3), n).prop_map(
                |mut rows| {
                    for row in &mut rows {
                        row[0] = 0.0; // default column
                    }
                    rows
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn the_close_takes_back_what_the_rounds_entered(
                // B has less to win than A, so most closes revert moves.
                (rows_a, rows_b) in (6usize..24)
                    .prop_flat_map(|n| (arb_rows(n, 10.0), arb_rows(n, 3.0))),
                charge in 0.0f64..2.0,
                frac in 0.05f64..0.5,
                credit in 0i64..40,
            ) {
                let config = NexitConfig {
                    accept: AcceptRule::CreditVeto { credit },
                    stop: StopPolicy::NegotiateAll,
                    reassign_interval_frac: Some(frac),
                    ..NexitConfig::default()
                };
                let (mut a, mut b) = pair_with(
                    input(rows_a.len(), 3),
                    CrowdedMapper::new(&rows_a, charge),
                    CrowdedMapper::new(&rows_b, charge),
                    config,
                );
                let (mut ledger_a, mut ledger_b) = (Vec::new(), Vec::new());
                while !(a.is_done() && b.is_done()) {
                    while let Some(action) = a.poll_action() {
                        deliver_with_ledger(&a, &mut b, action, &mut ledger_b);
                    }
                    while let Some(action) = b.poll_action() {
                        deliver_with_ledger(&b, &mut a, action, &mut ledger_a);
                    }
                }
                prop_assert_eq!(a.reverted_indices(), b.reverted_indices());
                prop_assert_eq!(a.my_gain(), surviving(&ledger_a, a.reverted_indices()));
                prop_assert_eq!(b.my_gain(), surviving(&ledger_b, b.reverted_indices()));
                // Honest sides: the disclosed ledger is the true one.
                prop_assert_eq!(a.disclosed_gains(), (a.my_gain(), b.my_gain()));
                prop_assert!(a.my_gain() >= 0 && b.my_gain() >= 0,
                    "gains ({}, {})", a.my_gain(), b.my_gain());
            }
        }
    }
}
