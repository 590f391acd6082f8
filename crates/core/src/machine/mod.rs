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
//! ## Three parts
//!
//! A [`NegotiationMachine`] holds **session constants** (side, first
//! discloser, disclosure policy, configuration, session input, the
//! reassignment threshold, and the mapper); **the protocol state**, one
//! `Clone + Eq + Hash` [`ProtocolState`] value that drivers read through
//! [`NegotiationMachine::state`]; and private **accelerators** (the
//! [`CandidateIndex`] and the mapping and re-disclosure scratch). The
//! accelerators only answer faster what the state already determines:
//! two machines with equal states act alike, whatever they hold.
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

mod round;
mod state;

pub use state::{Phase, ProtocolState, Volume};

use crate::arena::{GainTable, TableArena};
use crate::cheating::DisclosurePolicy;
use crate::engine::SessionInput;
use crate::index::CandidateIndex;
use crate::mapping::PreferenceMapper;
use crate::outcome::{Side, Termination};
use crate::policies::{NexitConfig, StopPolicy};
use crate::prefs::PrefTable;
use crate::selection::TableState;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Disclose our preference table: transmit
    /// [`ProtocolState::my_disclosed`] as it stands. It changes only
    /// inside [`NegotiationMachine::handle`], at most once per call, so a
    /// driver that drains actions before it feeds the next event always
    /// reads the table this action was queued for.
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

/// One side of a negotiation as a pure state machine: session
/// constants, a [`ProtocolState`], and private accelerators (module
/// docs).
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
    /// Accepted volume that triggers a reassignment: the configured
    /// fraction of the session's total volume, `None` when disabled.
    reassign_threshold: Option<f64>,
    state: ProtocolState,
    acc: Accelerators,
}

/// What only speeds the machine up: every field is either derived from
/// the [`ProtocolState`] or overwritten before it is read.
struct Accelerators {
    /// Incremental candidate index over the disclosed tables; rebuilt at
    /// every (re)disclosure, updated on accept/veto. Takes bit-identical
    /// decisions to the [`crate::selection`] reference scans.
    index: CandidateIndex,
    /// Mapper output scratch, reused across every (re)disclosure.
    gains: GainTable,
    /// Quantization sort scratch, reused likewise.
    magnitudes: Vec<f64>,
    /// Re-disclosure scratch: the session restricted to the flows still
    /// on the table, and their freshly quantized classes. Both stay
    /// empty in a session that never reassigns.
    live_input: SessionInput,
    live_true: PrefTable,
}

impl<M: PreferenceMapper> NegotiationMachine<M> {
    /// Create one side of a session, drawing every buffer from `arena`
    /// (a one-off session passes `&mut TableArena::new()`; a sweep
    /// threads one arena and [`NegotiationMachine::recycle`]s into it).
    ///
    /// Both machines of a pair must be built from the same `input`,
    /// `default_assignment`, `config` and `first_discloser` (in
    /// deployment: the §6 flow-signature agreement and the peering
    /// contract). `first_discloser` sends its list without having seen
    /// the peer's, so a policy that needs the peer's list first (the
    /// §5.4 inflate-best cheater) is rejected on that side.
    #[allow(clippy::too_many_arguments)] // the session, plus the arena
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
        let reassign_threshold = (config.reassign_interval_frac).map(|f| f * input.total_volume());
        let (rule, p, early) = (
            config.proposal,
            config.pref_range,
            config.stop == StopPolicy::Early,
        );
        let index = CandidateIndex::new_in(arena, rule, p, &input.defaults, k, early);
        let state = ProtocolState {
            phase: Phase::Disclose,
            round: 0,
            sent_prefs: false,
            pending: None,
            actions: VecDeque::new(),
            table: TableState::new(n, k),
            assignment: default_assignment,
            my_true: arena.pref_table(n, k),
            my_disclosed: arena.pref_table(n, k),
            their_disclosed: arena.pref_table(n, k),
            my_gain: 0,
            disclosed_gain_a: 0,
            disclosed_gain_b: 0,
            volume_since_reassign: Volume(0.0),
            reassignments: 0,
            termination: None,
            // A flow is accepted at most once: the log never regrows.
            accepted_log: Vec::with_capacity(n),
            reverted: Vec::new(),
        };
        let acc = Accelerators {
            index,
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
        };
        let mut machine = Self {
            side,
            first_discloser,
            mapper,
            disclosure,
            config,
            input,
            reassign_threshold,
            state,
            acc,
        };
        if side == first_discloser {
            machine.disclose_own();
        }
        Ok(machine)
    }

    /// Retire the machine, returning its table and index buffers to
    /// `arena` for the next [`NegotiationMachine::new_in`].
    pub fn recycle(self, arena: &mut TableArena) {
        let (state, acc) = (self.state, self.acc);
        arena.recycle_pref(state.my_true);
        arena.recycle_pref(state.my_disclosed);
        arena.recycle_pref(state.their_disclosed);
        arena.recycle_pref(acc.live_true);
        arena.recycle_gain(acc.gains);
        arena.recycle_gain(GainTable::from_storage(acc.magnitudes, 0, 0));
        acc.index.recycle(arena);
    }

    /// This machine's side.
    pub fn side(&self) -> Side {
        self.side
    }

    /// The session this machine negotiates.
    pub fn input(&self) -> &SessionInput {
        &self.input
    }

    /// The protocol state: assignment, gains, termination, the tables
    /// and the accepted and reverted moves, as they stand.
    pub fn state(&self) -> &ProtocolState {
        &self.state
    }

    /// Feed one peer event.
    pub fn handle(&mut self, event: Event<'_>) -> Result<(), MachineError> {
        if self.state.phase == Phase::Failed {
            return Err(MachineError::Closed);
        }
        let result = self.dispatch(event);
        if result.is_err() {
            self.state.phase = Phase::Failed;
        }
        result
    }

    /// Pop the next outgoing action, advancing the machine first so it
    /// can act whenever it holds the turn.
    pub fn poll_action(&mut self) -> Option<Action> {
        self.advance();
        self.state.actions.pop_front()
    }

    /// Whether the session reached a terminal state (done or failed) and
    /// every pending action has been drained.
    pub fn is_done(&self) -> bool {
        matches!(self.state.phase, Phase::Done | Phase::Failed) && self.state.actions.is_empty()
    }

    /// The outcome, once the session completed successfully.
    pub fn outcome(&self) -> Option<MachineOutcome> {
        let s = &self.state;
        (s.phase == Phase::Done).then(|| MachineOutcome {
            assignment: s.assignment.clone(),
            my_gain: s.my_gain,
            termination: s.termination.unwrap_or(Termination::Exhausted),
            rounds: s.round,
            reassignments: s.reassignments,
        })
    }

    /// What `action`, drained from this machine, is to the peer when
    /// nothing sits between the two (the in-process transport).
    pub fn peer_event(&self, action: Action) -> Event<'_> {
        match action {
            Action::SendPrefs => Event::PeerPrefs {
                prefs: &self.state.my_disclosed,
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
}

#[cfg(test)]
mod tests;
