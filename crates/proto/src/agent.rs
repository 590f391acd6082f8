//! Poll-based negotiation agent (one side of a session).
//!
//! The agent is *sans-io*: it never touches a socket. Feed it bytes from
//! the transport with [`Agent::handle_bytes`]; drain outgoing frames with
//! [`Agent::poll_transmit`]; check [`Agent::is_done`] /
//! [`Agent::outcome`]. Any transport with reliable ordered delivery works
//! — the in-memory [`crate::channel`] or a TCP socket; the loop that
//! moves the frames is [`crate::driver::SessionPump`].
//!
//! ## Session flow
//!
//! ```text
//!   A                                 B
//!   | -- Hello ---------------------> |   config agreement
//!   | <-------------------- Hello --- |
//!   | -- FlowAnnounce --------------> |   flow set validation
//!   | -- PrefList ------------------> |   A discloses first
//!   | <----------------- PrefList --- |   (a cheating B sees A's list)
//!   |                                 |
//!   |  rounds: Propose / Response     |   turn order computed identically
//!   |  (reassignment: PrefList pair)  |   on both sides
//!   |                                 |
//!   | -- Stop or Bye ---------------> |   termination
//!   | <----------------------- Bye --
//! ```
//!
//! Since the `NegotiationMachine` refactor the agent contains **no
//! decision logic at all**: it is a codec shim that owns the session
//! handshake (Hello / FlowAnnounce validation) and translates decoded
//! [`Message`]s into [`nexit_core::machine::Event`]s and drained
//! [`nexit_core::machine::Action`]s into framed messages. The round loop
//! itself is the same [`NegotiationMachine`] the in-process engine
//! drives, so a distributed session reproduces
//! [`nexit_core::negotiate`]'s outcome *by construction* (still pinned
//! end to end, bytes included, by the integration suite).

use crate::frame::{FrameCodec, FrameError};
use crate::messages::{FlowEntry, Message, MessageError};
use nexit_core::machine::{Action, Event, MachineError, NegotiationMachine};
use nexit_core::prefs::PrefTable;
use nexit_core::{DisclosurePolicy, NexitConfig, PreferenceMapper, SessionInput, Side, TableArena};
use nexit_routing::Assignment;
use std::collections::VecDeque;

/// Final result of one agent's session (the machine's outcome).
pub use nexit_core::machine::MachineOutcome as AgentOutcome;

/// Wire type byte of [`Message::PrefList`] (see `messages.rs`).
const PREF_LIST_TYPE: u8 = 3;

/// Agent-level protocol failures. All are fatal to the session.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// Framing-layer corruption.
    Frame(FrameError),
    /// Message decoding failure.
    Message(MessageError),
    /// A valid message arrived in the wrong state.
    UnexpectedMessage {
        /// The handshake or machine state the message arrived in.
        state: &'static str,
        /// The offending message kind.
        got: &'static str,
    },
    /// Hello parameters disagree with ours.
    ConfigMismatch(&'static str),
    /// The announced flow set does not match our session input.
    FlowMismatch(&'static str),
    /// A proposal referenced an invalid or settled flow/alternative.
    BadProposal(&'static str),
    /// A preference list had the wrong shape or out-of-range classes.
    BadPrefList(&'static str),
    /// The session input or configuration is structurally invalid.
    InvalidSession(nexit_core::SessionError),
    /// `InflateBest` cheating needs the peer's list first, which only the
    /// second discloser (side B) has in this protocol.
    UnsupportedDisclosure,
    /// The lock-step exchange stopped making progress before both sides
    /// finished — a lost frame stalled the protocol. Carries the number
    /// of frames still queued in each direction when the stall was
    /// detected, so a dropped-frame stall (both queues empty) is
    /// distinguishable from an undelivered backlog.
    Stalled {
        /// Frames in flight from A to B at stall detection.
        in_flight_ab: usize,
        /// Frames in flight from B to A at stall detection.
        in_flight_ba: usize,
    },
    /// A frame exhausted the ARQ retransmission budget without being
    /// acknowledged (reliable transport only; see [`crate::reliable`]).
    RetryExhausted {
        /// Sequence number of the abandoned frame.
        seq: u32,
        /// Retransmissions already attempted.
        retries: usize,
    },
    /// The session did not terminate within its tick deadline.
    DeadlineExceeded {
        /// The deadline that elapsed, in supervisor ticks.
        ticks: u64,
    },
    /// The session already failed or closed.
    Closed,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "frame error: {e}"),
            ProtoError::Message(e) => write!(f, "message error: {e}"),
            ProtoError::UnexpectedMessage { state, got } => {
                write!(f, "unexpected {got} in state {state}")
            }
            ProtoError::ConfigMismatch(what) => write!(f, "config mismatch: {what}"),
            ProtoError::FlowMismatch(what) => write!(f, "flow set mismatch: {what}"),
            ProtoError::BadProposal(what) => write!(f, "bad proposal: {what}"),
            ProtoError::BadPrefList(what) => write!(f, "bad preference list: {what}"),
            ProtoError::InvalidSession(e) => write!(f, "invalid session: {e}"),
            ProtoError::UnsupportedDisclosure => {
                write!(
                    f,
                    "InflateBest disclosure requires disclosing second (side B)"
                )
            }
            ProtoError::Stalled {
                in_flight_ab,
                in_flight_ba,
            } => write!(
                f,
                "session stalled without terminating \
                 ({in_flight_ab} frame(s) in flight A->B, {in_flight_ba} B->A)"
            ),
            ProtoError::RetryExhausted { seq, retries } => write!(
                f,
                "frame seq {seq} unacked after {retries} retransmission(s)"
            ),
            ProtoError::DeadlineExceeded { ticks } => {
                write!(f, "session exceeded its {ticks}-tick deadline")
            }
            ProtoError::Closed => write!(f, "session closed"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<FrameError> for ProtoError {
    fn from(e: FrameError) -> Self {
        ProtoError::Frame(e)
    }
}

impl From<MessageError> for ProtoError {
    fn from(e: MessageError) -> Self {
        ProtoError::Message(e)
    }
}

impl From<MachineError> for ProtoError {
    fn from(e: MachineError) -> Self {
        match e {
            MachineError::InvalidSession(err) => ProtoError::InvalidSession(err),
            MachineError::UnsupportedDisclosure => ProtoError::UnsupportedDisclosure,
            MachineError::BadPrefList(what) => ProtoError::BadPrefList(what),
            MachineError::BadProposal(what) => ProtoError::BadProposal(what),
            MachineError::UnexpectedEvent { state, event } => {
                ProtoError::UnexpectedMessage { state, got: event }
            }
            MachineError::Closed => ProtoError::Closed,
        }
    }
}

/// The session-management handshake preceding the machine-driven round
/// loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Handshake {
    /// Waiting for the peer's Hello (A sent its own at construction).
    AwaitHello,
    /// B only: waiting for A's FlowAnnounce.
    AwaitAnnounce,
    /// Handshake complete; every further message belongs to the machine.
    Running,
    /// Session failed.
    Failed,
}

/// One side of a distributed negotiation: frame codec + handshake +
/// [`NegotiationMachine`].
pub struct Agent<'a> {
    side: Side,
    name: String,
    config: NexitConfig,
    input: SessionInput,
    machine: NegotiationMachine<Box<dyn PreferenceMapper + Send + 'a>>,
    codec: FrameCodec,
    outbox: VecDeque<Vec<u8>>,
    handshake: Handshake,
    /// Dedup-window mode (ARQ transports): a byte-identical replay of
    /// the last handled frame is silently ignored instead of failing the
    /// session. Off by default — on a raw link a duplicate is a protocol
    /// violation and must stay fatal.
    tolerate_replays: bool,
    /// Last handled frame (`msg_type`, payload) for replay detection;
    /// tracked only when `tolerate_replays` is set.
    last_frame: Option<(u8, Vec<u8>)>,
}

impl<'a> Agent<'a> {
    /// Create an agent. Side A initiates the session.
    ///
    /// Both agents must be constructed from the same `input`,
    /// `default_assignment` and `config` (in deployment these come from
    /// the §6 flow-signature agreement and the peering contract; the A
    /// side's `FlowAnnounce` re-validates the flow set).
    pub fn new(
        side: Side,
        name: impl Into<String>,
        input: SessionInput,
        default_assignment: Assignment,
        mapper: impl PreferenceMapper + Send + 'a,
        disclosure: DisclosurePolicy,
        config: NexitConfig,
    ) -> Result<Self, ProtoError> {
        Self::new_in(
            &mut TableArena::new(),
            side,
            name,
            input,
            default_assignment,
            mapper,
            disclosure,
            config,
        )
    }

    /// [`Agent::new`] drawing the machine's tables and index buffers from
    /// `arena`. Pair with [`Agent::recycle`]: a driver that serves many
    /// sessions back to back (the `nexit-broker` workers) allocates each
    /// backing buffer exactly once per worker.
    #[allow(clippy::too_many_arguments)] // mirrors `new` plus the arena
    pub fn new_in(
        arena: &mut TableArena,
        side: Side,
        name: impl Into<String>,
        input: SessionInput,
        default_assignment: Assignment,
        mapper: impl PreferenceMapper + Send + 'a,
        disclosure: DisclosurePolicy,
        config: NexitConfig,
    ) -> Result<Self, ProtoError> {
        let machine = NegotiationMachine::new_in(
            arena,
            side,
            // The wire protocol fixes the disclosure order: A discloses
            // first, so only B may run a peer-list-dependent cheater.
            Side::A,
            input.clone(),
            default_assignment,
            Box::new(mapper) as Box<dyn PreferenceMapper + Send + 'a>,
            disclosure,
            config,
        )?;
        let mut agent = Self {
            side,
            name: name.into(),
            config,
            input,
            machine,
            codec: FrameCodec::new(),
            outbox: VecDeque::new(),
            handshake: Handshake::AwaitHello,
            tolerate_replays: false,
            last_frame: None,
        };
        if side == Side::A {
            agent.send(Message::Hello {
                side: Side::A,
                name: agent.name.clone(),
                num_alternatives: agent.input.num_alternatives as u16,
                config: agent.config,
            });
        }
        Ok(agent)
    }

    /// Retire the agent, returning its machine's table and index buffers
    /// to `arena` for the next [`Agent::new_in`].
    pub fn recycle(self, arena: &mut TableArena) {
        self.machine.recycle(arena);
    }

    fn send(&mut self, msg: Message) {
        self.outbox.push_back(msg.encode());
    }

    /// Encode every action the machine wants transmitted. Held back until
    /// the handshake completes — the machine queues its first PrefList at
    /// construction, but the wire order is Hello / Hello / FlowAnnounce
    /// first.
    fn drain_machine(&mut self) {
        if self.handshake != Handshake::Running {
            return;
        }
        while let Some(action) = self.machine.poll_action() {
            let msg = match action {
                Action::SendPrefs { prefs } => Message::PrefList {
                    prefs: encode_prefs(&prefs),
                },
                Action::SendProposal {
                    round,
                    local_flow,
                    alternative,
                } => Message::Propose {
                    round,
                    local_flow: local_flow as u32,
                    alternative,
                },
                Action::SendResponse { round, accepted } => Message::Response { round, accepted },
                Action::SendStop { side } => Message::Stop { side },
                Action::SendBye => Message::Bye,
            };
            self.send(msg);
        }
    }

    /// Pop the next outgoing wire frame, if any.
    pub fn poll_transmit(&mut self) -> Option<Vec<u8>> {
        self.drain_machine();
        self.outbox.pop_front()
    }

    /// Whether the session reached a terminal state (done or failed).
    pub fn is_done(&self) -> bool {
        match self.handshake {
            Handshake::Failed => self.outbox.is_empty(),
            Handshake::Running => self.machine.is_done() && self.outbox.is_empty(),
            _ => false,
        }
    }

    /// The outcome, once [`Agent::is_done`] and the session succeeded.
    pub fn outcome(&self) -> Option<AgentOutcome> {
        if self.handshake != Handshake::Running {
            return None;
        }
        self.machine.outcome()
    }

    /// This agent's side.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Enable (or disable) replay tolerance for dedup-window transports.
    ///
    /// The ARQ layer ([`crate::reliable`]) absorbs duplicates below the
    /// agent, but an endpoint restart or an ack raced by a retransmit
    /// can still re-deliver the last frame; with tolerance on, a
    /// byte-identical replay of the most recently handled frame is
    /// ignored instead of surfacing as
    /// [`ProtoError::UnexpectedMessage`] / [`ProtoError::Closed`]. One
    /// deliberate exception: an identical `PrefList` while the machine
    /// is awaiting disclosure is *fresh data*, not a replay — honest
    /// mappers may legitimately re-disclose an unchanged table after a
    /// reassignment — so it is always dispatched. Raw (non-ARQ) links
    /// must leave this off: there a duplicate is a transport-contract
    /// violation and failing fast is correct.
    pub fn set_replay_tolerance(&mut self, tolerate: bool) {
        self.tolerate_replays = tolerate;
        if !tolerate {
            self.last_frame = None;
        }
    }

    /// Feed received transport bytes; processes every complete frame.
    pub fn handle_bytes(&mut self, data: &[u8]) -> Result<(), ProtoError> {
        if self.handshake == Handshake::Failed {
            return Err(ProtoError::Closed);
        }
        self.codec.feed(data);
        loop {
            match self.codec.next_frame() {
                Ok(Some(frame)) => {
                    if self.tolerate_replays {
                        let is_replay = self
                            .last_frame
                            .as_ref()
                            .is_some_and(|(t, p)| *t == frame.msg_type && *p == frame.payload);
                        if is_replay && !self.replayed_frame_is_fresh(frame.msg_type) {
                            continue;
                        }
                        self.last_frame = Some((frame.msg_type, frame.payload.clone()));
                    }
                    let msg = match Message::decode(&frame) {
                        Ok(m) => m,
                        Err(e) => {
                            self.handshake = Handshake::Failed;
                            return Err(e.into());
                        }
                    };
                    if let Err(e) = self.handle_message(msg) {
                        self.handshake = Handshake::Failed;
                        return Err(e);
                    }
                }
                Ok(None) => return Ok(()),
                Err(e) => {
                    self.handshake = Handshake::Failed;
                    return Err(e.into());
                }
            }
        }
    }

    /// Whether a byte-identical repeat of the last frame is legitimate
    /// new data rather than a replay: only a `PrefList` while the
    /// machine awaits disclosure qualifies (an unchanged table honestly
    /// re-disclosed after reassignment encodes to the same bytes). No
    /// other message can lawfully repeat verbatim — Hello/FlowAnnounce
    /// happen once, Propose/Response embed their round number, and
    /// Stop/Bye terminate.
    fn replayed_frame_is_fresh(&self, msg_type: u8) -> bool {
        msg_type == PREF_LIST_TYPE
            && self.handshake == Handshake::Running
            && self.machine.expects_prefs()
    }

    fn handle_message(&mut self, msg: Message) -> Result<(), ProtoError> {
        match (self.handshake, msg) {
            (
                Handshake::AwaitHello,
                Message::Hello {
                    side,
                    num_alternatives,
                    config,
                    ..
                },
            ) => {
                if side != self.side.other() {
                    return Err(ProtoError::ConfigMismatch("peer claims our side"));
                }
                if num_alternatives as usize != self.input.num_alternatives {
                    return Err(ProtoError::ConfigMismatch("alternative count"));
                }
                if config != self.config {
                    return Err(ProtoError::ConfigMismatch("engine configuration"));
                }
                match self.side {
                    Side::A => {
                        // B answered our Hello: announce flows, then let
                        // the machine's queued PrefList go out.
                        let flows: Vec<FlowEntry> = self
                            .input
                            .flow_ids
                            .iter()
                            .zip(&self.input.defaults)
                            .zip(&self.input.volumes)
                            .map(|((&flow, &default), &volume)| FlowEntry {
                                flow,
                                default,
                                volume,
                            })
                            .collect();
                        self.send(Message::FlowAnnounce { flows });
                        self.handshake = Handshake::Running;
                    }
                    Side::B => {
                        // A's opening Hello: answer it, then await the
                        // flow announcement.
                        self.send(Message::Hello {
                            side: Side::B,
                            name: self.name.clone(),
                            num_alternatives: self.input.num_alternatives as u16,
                            config: self.config,
                        });
                        self.handshake = Handshake::AwaitAnnounce;
                    }
                }
                Ok(())
            }
            (Handshake::AwaitAnnounce, Message::FlowAnnounce { flows }) => {
                if flows.len() != self.input.len() {
                    return Err(ProtoError::FlowMismatch("flow count"));
                }
                for (i, e) in flows.iter().enumerate() {
                    if e.flow != self.input.flow_ids[i] {
                        return Err(ProtoError::FlowMismatch("flow id"));
                    }
                    if e.default != self.input.defaults[i] {
                        return Err(ProtoError::FlowMismatch("default alternative"));
                    }
                    if (e.volume - self.input.volumes[i]).abs() > 1e-9 {
                        return Err(ProtoError::FlowMismatch("volume"));
                    }
                }
                self.handshake = Handshake::Running;
                Ok(())
            }
            (Handshake::Running, msg) => {
                let event = match msg {
                    Message::PrefList { prefs } => Event::PeerPrefs {
                        prefs: decode_prefs(prefs),
                    },
                    Message::Propose {
                        round,
                        local_flow,
                        alternative,
                    } => Event::Proposal {
                        round,
                        local_flow: local_flow as usize,
                        alternative,
                    },
                    Message::Response { round, accepted } => Event::Response { round, accepted },
                    Message::Stop { side } => Event::PeerStop { side },
                    Message::Bye => Event::PeerBye,
                    other => {
                        return Err(ProtoError::UnexpectedMessage {
                            state: "Running",
                            got: msg_name(&other),
                        })
                    }
                };
                self.machine.handle(event).map_err(ProtoError::from)
            }
            (phase, msg) => Err(ProtoError::UnexpectedMessage {
                state: handshake_name(phase),
                got: msg_name(&msg),
            }),
        }
    }
}

/// Wire representation of a disclosed table (`i16` classes).
fn encode_prefs(prefs: &PrefTable) -> Vec<Vec<i16>> {
    (0..prefs.num_flows())
        .map(|f| prefs.row(f).iter().map(|&c| c as i16).collect())
        .collect()
}

/// Widen wire classes back to a [`PrefTable`]. Shape and range are
/// validated by the machine.
fn decode_prefs(prefs: Vec<Vec<i16>>) -> PrefTable {
    let num_alts = prefs.first().map_or(0, Vec::len);
    let mut out = PrefTable::zero(prefs.len(), num_alts);
    for (f, row) in prefs.iter().enumerate() {
        assert_eq!(row.len(), num_alts, "ragged preference table");
        for (cell, &c) in out.row_mut(f).iter_mut().zip(row) {
            *cell = i32::from(c);
        }
    }
    out
}

fn handshake_name(h: Handshake) -> &'static str {
    match h {
        Handshake::AwaitHello => "AwaitHello",
        Handshake::AwaitAnnounce => "AwaitAnnounce",
        Handshake::Running => "Running",
        Handshake::Failed => "Failed",
    }
}

fn msg_name(m: &Message) -> &'static str {
    match m {
        Message::Hello { .. } => "Hello",
        Message::FlowAnnounce { .. } => "FlowAnnounce",
        Message::PrefList { .. } => "PrefList",
        Message::Propose { .. } => "Propose",
        Message::Response { .. } => "Response",
        Message::Stop { .. } => "Stop",
        Message::Bye => "Bye",
    }
}
