//! Out-of-band negotiation wire protocol and agents.
//!
//! The paper's deployment story (§6, Figure 12) places a *negotiation
//! agent* in each ISP, logically above the routing infrastructure: it
//! collects network state, maps alternatives to preference classes,
//! negotiates with the peer agent out-of-band (not inside BGP), and
//! configures routers to implement the agreed paths. This crate is that
//! agent's protocol layer:
//!
//! * [`crc`] — CRC-32 (IEEE) for frame integrity, slicing-by-8 in safe
//!   Rust: eight independent table lookups per 8-byte block, with the
//!   byte-at-a-time loop's checksums bit for bit,
//! * [`frame`] — length-prefixed binary framing: frames are written
//!   once into a caller's buffer and parsed in place by one parser,
//! * [`messages`] — the message set: session hello, flow announcements,
//!   preference lists, proposals, accept/reject responses, stop and bye;
//!   one borrowed parser and one writer, an owned form on top,
//! * [`agent`] — a poll-based (sans-io) state machine driving one side of
//!   a negotiation; transport-agnostic in the style of event-driven
//!   network stacks: feed it received bytes with
//!   [`agent::Agent::handle_bytes`], drain outgoing frames with
//!   [`agent::Agent::poll_transmit`],
//! * [`channel`] — an in-memory duplex link with fault injection (drop /
//!   corrupt / duplicate / reorder) for exercising the agent's error
//!   handling and the ARQ layer's recovery,
//! * [`driver`] — the session pump: [`driver::SessionPump::step`] is the
//!   one loop that moves frames between two agents, over the raw link or
//!   through the ARQ layer; [`run_session`] and [`run_reliable_session`]
//!   are the two single-pair wrappers around it and `nexit-broker` is the
//!   many-pair one,
//! * [`reliable`] — a sans-IO ARQ layer (sequence numbers, cumulative
//!   acks, deterministic tick-based retransmission, dedup/reorder
//!   window) supplying the reliable-transport assumption over a lossy
//!   link.
//!
//! The negotiation protocol itself assumes a reliable, ordered transport
//! (deployments would run it over TCP/TLS between the two agents). On a
//! *raw* link, fault injection verifies that the framing layer *detects*
//! corruption and that agents fail cleanly on protocol violations; under
//! [`reliable`], the same faults are absorbed by retransmission and
//! deduplication so transient loss never becomes a lost outcome.
//!
//! The decision logic is not shared with the in-process engine — it is
//! the *same object*: both drive a [`nexit_core::machine::NegotiationMachine`],
//! so a distributed session reaches the same assignment as
//! [`nexit_core::negotiate`] on the same inputs by construction (still
//! pinned end to end, bytes included, by the integration suite).

#![forbid(unsafe_code)]

pub mod agent;
pub mod channel;
pub mod crc;
pub mod driver;
pub mod frame;
pub mod messages;
pub mod reliable;

pub use agent::{Agent, AgentOutcome, ProtoError};
pub use channel::{FaultConfig, FaultyLink};
pub use driver::{run_session, SessionPump, StepLimits, StepReport};
pub use frame::{FrameCodec, FrameError, MAX_FRAME_PAYLOAD};
pub use messages::{Message, MessageRef};
pub use reliable::{run_reliable_session, ReliableConfig, ReliableEndpoint, ReliableStats};

#[cfg(test)]
mod wire_tests;
