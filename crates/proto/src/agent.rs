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
//! handshake (Hello / FlowAnnounce validation) and translates parsed
//! [`MessageRef`]s into [`nexit_core::machine::Event`]s and drained
//! [`nexit_core::machine::Action`]s into frames. The round loop itself
//! is the same [`NegotiationMachine`] the in-process engine drives, so a
//! distributed session reproduces [`nexit_core::negotiate`]'s outcome *by
//! construction* (still pinned end to end, bytes included, by the
//! integration suite).
//!
//! ## Who owns a frame's bytes
//!
//! Every outgoing frame is written once, straight from where its fields
//! live (the machine's disclosed table and session input, the agent's
//! name, the action the machine queued) into a buffer from the agent's
//! buffer pool. [`Agent::poll_transmit`] gives the
//! buffer away; whoever holds it once it is spent hands it to the
//! [`Agent::reclaim`] of the agent at hand. The pool is bounded in count
//! ([`crate::frame::POOLED_FRAMES`]), and a session in lock step cycles
//! the same few buffers: a `Propose` / `Response` round between two
//! running agents allocates nothing.
//!
//! Incoming frames are parsed where they lie
//! ([`FrameCodec::feed_frames`]): the receive buffer only ever holds the
//! tail of a frame that has not fully arrived. Every `PrefList` of a
//! session is widened into one table, and the replay window kept in one
//! byte buffer.

use crate::frame::{FrameCodec, FrameError, FramePool, FrameRef, MAX_FRAME_PAYLOAD};
use crate::messages::{self, FlowEntry, Message, MessageError, MessageRef};
use crate::reliable::ENVELOPE_BYTES;
use nexit_core::machine::{Action, Event, MachineError, NegotiationMachine};
use nexit_core::prefs::PrefTable;
use nexit_core::{DisclosurePolicy, NexitConfig, PreferenceMapper, SessionInput, Side, TableArena};
use nexit_routing::Assignment;
use std::collections::VecDeque;

/// Final result of one agent's session (the machine's outcome).
pub use nexit_core::machine::MachineOutcome as AgentOutcome;

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
    /// [`nexit_core::SessionInput::check`] refused the session input and
    /// configuration (a structural error, or a shape outside the
    /// candidate index's envelope).
    InvalidSession(nexit_core::SessionError),
    /// `InflateBest` cheating needs the peer's list first, which only the
    /// second discloser (side B) has in this protocol.
    UnsupportedDisclosure,
    /// The session does not fit the wire format: a name, a count or a
    /// preference range wider than its field, or a flow set whose
    /// announcement or preference list would exceed
    /// [`MAX_FRAME_PAYLOAD`].
    WireLimit(&'static str),
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
            ProtoError::WireLimit(what) => write!(f, "session exceeds the wire format: {what}"),
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

/// One side of a distributed negotiation: receive buffer + handshake +
/// [`NegotiationMachine`].
pub struct Agent<'a> {
    /// The tail of a frame that has not fully arrived. Kept apart from
    /// `session` so frames parsed out of it can be handled in place.
    codec: FrameCodec,
    session: Session<'a>,
}

/// Everything of an [`Agent`] but its receive buffer.
struct Session<'a> {
    side: Side,
    name: String,
    config: NexitConfig,
    machine: NegotiationMachine<Box<dyn PreferenceMapper + Send + 'a>>,
    handshake: Handshake,
    /// Encoded frames awaiting [`Agent::poll_transmit`].
    outbox: VecDeque<Vec<u8>>,
    /// Spent frame buffers for the next frames.
    pool: FramePool,
    /// Where every `PrefList` of the session is decoded.
    peer_prefs: PrefTable,
    /// Dedup-window mode (ARQ transports): a byte-identical replay of
    /// the last handled frame is silently ignored instead of failing the
    /// session. Off by default — on a raw link a duplicate is a protocol
    /// violation and must stay fatal.
    tolerate_replays: bool,
    /// Type byte and payload of the last handled frame, for replay
    /// detection; empty until one was handled with `tolerate_replays`
    /// set.
    last_frame: Vec<u8>,
}

/// Refuse a session the wire format cannot carry, so that no writer ever
/// truncates a field and no frame outgrows [`MAX_FRAME_PAYLOAD`]
/// mid-session, inside an ARQ envelope included. Alternative ids and column counts are below
/// `num_alternatives`, flow indices and row counts below the flow count
/// (bounded by the payload limit, far under `u32::MAX`), classes within
/// `pref_range`.
fn check_wire_limits(
    name: &str,
    input: &SessionInput,
    config: &NexitConfig,
) -> Result<(), ProtoError> {
    let limit = |holds, what| match holds {
        true => Ok(()),
        false => Err(ProtoError::WireLimit(what)),
    };
    let room = MAX_FRAME_PAYLOAD - ENVELOPE_BYTES;
    let fits = |units, (fixed, each): (usize, usize)| units <= (room - fixed) / each;
    let cells = input.len().saturating_mul(input.num_alternatives);
    limit(name.len() <= 0xFFFF, "name longer than 65535 bytes")?;
    limit(
        input.num_alternatives <= 0xFFFF,
        "more than 65535 alternatives",
    )?;
    limit(config.pref_range <= 0x7FFF, "preference range beyond i16")?;
    limit(
        fits(input.len(), messages::FLOW_ANNOUNCE_BYTES),
        "flow announcement exceeds a frame",
    )?;
    limit(
        fits(cells, messages::PREF_LIST_BYTES),
        "preference list exceeds a frame",
    )
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
    ///
    /// A session the wire format cannot carry is refused here with
    /// [`ProtoError::WireLimit`], before anything is sent.
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
        let name = name.into();
        check_wire_limits(&name, &input, &config)?;
        let machine = NegotiationMachine::new_in(
            arena,
            side,
            // The wire protocol fixes the disclosure order: A discloses
            // first, so only B may run a peer-list-dependent cheater.
            Side::A,
            input,
            default_assignment,
            Box::new(mapper) as Box<dyn PreferenceMapper + Send + 'a>,
            disclosure,
            config,
        )?;
        let mut session = Session {
            side,
            name,
            config,
            machine,
            handshake: Handshake::AwaitHello,
            outbox: VecDeque::new(),
            pool: FramePool::default(),
            peer_prefs: arena.pref_table(0, 0),
            tolerate_replays: false,
            last_frame: Vec::new(),
        };
        if side == Side::A {
            session.send_hello();
        }
        Ok(Self {
            codec: FrameCodec::new(),
            session,
        })
    }

    /// Retire the agent, returning its table and index buffers to
    /// `arena` for the next [`Agent::new_in`].
    pub fn recycle(self, arena: &mut TableArena) {
        arena.recycle_pref(self.session.peer_prefs);
        self.session.machine.recycle(arena);
    }

    /// Pop the next outgoing wire frame, if any. The buffer is the
    /// caller's; once spent it is worth an [`Agent::reclaim`].
    pub fn poll_transmit(&mut self) -> Option<Vec<u8>> {
        self.session.outbox.pop_front()
    }

    /// Take a spent frame buffer (from this agent or its peer) for a
    /// later frame. The pool is bounded: beyond
    /// [`crate::frame::POOLED_FRAMES`] the buffer is dropped.
    pub fn reclaim(&mut self, buf: Vec<u8>) {
        self.session.pool.put(buf);
    }

    /// Whether the session reached a terminal state (done or failed).
    pub fn is_done(&self) -> bool {
        let session = &self.session;
        match session.handshake {
            Handshake::Failed => session.outbox.is_empty(),
            Handshake::Running => session.machine.is_done() && session.outbox.is_empty(),
            _ => false,
        }
    }

    /// The outcome, once [`Agent::is_done`] and the session succeeded.
    pub fn outcome(&self) -> Option<AgentOutcome> {
        if self.session.handshake != Handshake::Running {
            return None;
        }
        self.session.machine.outcome()
    }

    /// This agent's side.
    pub fn side(&self) -> Side {
        self.session.side
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
        self.session.tolerate_replays = tolerate;
        if !tolerate {
            self.session.last_frame.clear();
        }
    }

    /// Bytes of an unfinished frame held back for the next
    /// [`Agent::handle_bytes`] (for diagnostics): never more than one
    /// frame's worth.
    pub fn buffered(&self) -> usize {
        self.codec.buffered()
    }

    /// Feed received transport bytes; processes every complete frame.
    pub fn handle_bytes(&mut self, data: &[u8]) -> Result<(), ProtoError> {
        let Self { codec, session } = self;
        if session.handshake == Handshake::Failed {
            return Err(ProtoError::Closed);
        }
        let result = codec.feed_frames(data, |frame| session.handle_frame(frame));
        if result.is_err() {
            session.handshake = Handshake::Failed;
        }
        result
    }
}

impl Session<'_> {
    fn handle_frame(&mut self, frame: FrameRef<'_>) -> Result<(), ProtoError> {
        if self.tolerate_replays {
            let is_replay = self
                .last_frame
                .split_first()
                .is_some_and(|(&t, payload)| t == frame.msg_type && payload == frame.payload);
            if is_replay && !self.replayed_frame_is_fresh(frame.msg_type) {
                return Ok(());
            }
            self.last_frame.clear();
            self.last_frame.push(frame.msg_type);
            self.last_frame.extend_from_slice(frame.payload);
        }
        self.handle_message(MessageRef::parse(frame)?)?;
        self.drain_machine();
        Ok(())
    }

    /// Whether a byte-identical repeat of the last frame is legitimate
    /// new data rather than a replay: only a `PrefList` while the
    /// machine awaits disclosure qualifies (an unchanged table honestly
    /// re-disclosed after reassignment encodes to the same bytes). No
    /// other message can lawfully repeat verbatim — Hello/FlowAnnounce
    /// happen once, Propose/Response embed their round number, and
    /// Stop/Bye terminate.
    fn replayed_frame_is_fresh(&self, msg_type: u8) -> bool {
        msg_type == messages::PREF_LIST
            && self.handshake == Handshake::Running
            && self.machine.state().expects_prefs()
    }

    /// Queue one frame: `write` appends it to a pooled buffer.
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>, &Self)) {
        let mut buf = self.pool.take();
        write(&mut buf, self);
        self.outbox.push_back(buf);
    }

    fn send_hello(&mut self) {
        self.send(|out, s| {
            // Fits: `check_wire_limits` bounded the alternative count.
            let num_alternatives = s.machine.input().num_alternatives as u16;
            messages::write_hello(out, s.side, &s.name, num_alternatives, &s.config);
        });
    }

    /// Encode every action the machine wants transmitted, straight from
    /// the machine's own state. Held back until the handshake completes
    /// — the machine queues its first PrefList at construction, but the
    /// wire order is Hello / Hello / FlowAnnounce first — and run after
    /// every handled message from then on, so the outbox is always the
    /// machine's actions in order and a `SendPrefs` reads the table it
    /// was queued for.
    fn drain_machine(&mut self) {
        if self.handshake != Handshake::Running {
            return;
        }
        while let Some(action) = self.machine.poll_action() {
            self.send(|out, s| match action {
                Action::SendPrefs => {
                    let prefs = &s.machine.state().my_disclosed;
                    messages::write_pref_list(
                        out,
                        prefs.num_flows(),
                        prefs.num_alternatives(),
                        // Fits: classes are within the checked range.
                        prefs.values().iter().map(|&class| class as i16),
                    );
                }
                // The messages of fixed size own no memory.
                Action::SendProposal {
                    round,
                    local_flow,
                    alternative,
                } => Message::Propose {
                    round,
                    local_flow: local_flow as u32,
                    alternative,
                }
                .encode_into(out),
                Action::SendResponse { round, accepted } => {
                    Message::Response { round, accepted }.encode_into(out)
                }
                Action::SendStop { side } => Message::Stop { side }.encode_into(out),
                Action::SendBye => Message::Bye.encode_into(out),
            });
        }
    }

    fn handle_message(&mut self, msg: MessageRef<'_>) -> Result<(), ProtoError> {
        match (self.handshake, msg) {
            (
                Handshake::AwaitHello,
                MessageRef::Hello {
                    side,
                    num_alternatives,
                    config,
                    ..
                },
            ) => {
                if side != self.side.other() {
                    return Err(ProtoError::ConfigMismatch("peer claims our side"));
                }
                if usize::from(num_alternatives) != self.machine.input().num_alternatives {
                    return Err(ProtoError::ConfigMismatch("alternative count"));
                }
                if config != self.config {
                    return Err(ProtoError::ConfigMismatch("engine configuration"));
                }
                match self.side {
                    Side::A => {
                        // B answered our Hello: announce flows, then let
                        // the machine's queued PrefList go out.
                        self.send(|out, s| {
                            let input = s.machine.input();
                            let flows = (0..input.len()).map(|i| FlowEntry {
                                flow: input.flow_ids[i],
                                default: input.defaults[i],
                                volume: input.volumes[i],
                            });
                            messages::write_flow_announce(out, flows);
                        });
                        self.handshake = Handshake::Running;
                    }
                    Side::B => {
                        // A's opening Hello: answer it, then await the
                        // flow announcement.
                        self.send_hello();
                        self.handshake = Handshake::AwaitAnnounce;
                    }
                }
                Ok(())
            }
            (Handshake::AwaitAnnounce, MessageRef::FlowAnnounce { entries }) => {
                let input = self.machine.input();
                let flows = MessageRef::flows(entries);
                if flows.len() != input.len() {
                    return Err(ProtoError::FlowMismatch("flow count"));
                }
                for (i, e) in flows.enumerate() {
                    if e.flow != input.flow_ids[i] {
                        return Err(ProtoError::FlowMismatch("flow id"));
                    }
                    if e.default != input.defaults[i] {
                        return Err(ProtoError::FlowMismatch("default alternative"));
                    }
                    // False on NaN: a NaN volume is refused, not waved through.
                    let agrees = (e.volume - input.volumes[i]).abs() <= 1e-9;
                    if !agrees {
                        return Err(ProtoError::FlowMismatch("volume"));
                    }
                }
                self.handshake = Handshake::Running;
                Ok(())
            }
            (Handshake::Running, msg) => {
                let event = match msg {
                    MessageRef::PrefList {
                        rows,
                        columns,
                        classes,
                    } => {
                        // Widened into the session's one table; shape and
                        // range are the machine's to validate. The body
                        // held every cell, so it is two frames big at most.
                        let classes = MessageRef::classes(classes).map(i32::from);
                        self.peer_prefs.refill(rows, columns, classes);
                        Event::PeerPrefs {
                            prefs: &self.peer_prefs,
                        }
                    }
                    MessageRef::Propose {
                        round,
                        local_flow,
                        alternative,
                    } => Event::Proposal {
                        round,
                        local_flow: local_flow as usize,
                        alternative,
                    },
                    MessageRef::Response { round, accepted } => Event::Response { round, accepted },
                    MessageRef::Stop { side } => Event::PeerStop { side },
                    MessageRef::Bye => Event::PeerBye,
                    other => {
                        return Err(ProtoError::UnexpectedMessage {
                            state: "Running",
                            got: other.name(),
                        })
                    }
                };
                self.machine.handle(event).map_err(ProtoError::from)
            }
            (phase, msg) => Err(ProtoError::UnexpectedMessage {
                state: handshake_name(phase),
                got: msg.name(),
            }),
        }
    }
}

fn handshake_name(h: Handshake) -> &'static str {
    match h {
        Handshake::AwaitHello => "AwaitHello",
        Handshake::AwaitAnnounce => "AwaitAnnounce",
        Handshake::Running => "Running",
        Handshake::Failed => "Failed",
    }
}
