//! The Nexit negotiation engine (the paper's primary contribution).
//!
//! Nexit lets a pair of neighboring ISPs agree on an interconnection for
//! every traffic flow they exchange while disclosing only *opaque
//! preference classes* — small integers in `[-P, P]` — instead of internal
//! metrics like latency, load or cost. Conceptually two steps (paper §4):
//!
//! 1. **ISP-internal evaluation** ([`mapping`]): each ISP maps every
//!    (flow, interconnection) alternative to a preference class relative
//!    to the *default* alternative (what the flow would do without
//!    negotiation, mapped to class 0). Mappers for the paper's distance,
//!    bandwidth and Fortz–Thorup objectives are provided; the trait is
//!    open for custom objectives.
//! 2. **The negotiation protocol** ([`machine`]): the ISPs exchange
//!    preference lists and proceed in rounds — decide turn, propose an
//!    alternative, accept it, optionally reassign preferences, decide
//!    whether to stop. Every step is a pluggable policy ([`policies`])
//!    because the paper specifies each as "agreed contractually in
//!    advance" with several listed options. The loop is one sans-IO
//!    state machine ([`machine::NegotiationMachine`]); the in-process
//!    driver ([`engine`]) and the wire-protocol agents (`nexit-proto`)
//!    are both thin shells around it.
//!
//! The engine guarantees the paper's headline incentive property: with the
//! early-termination policy an honest ISP never finishes with negative
//! cumulative preference gain — negotiation is risk-free relative to
//! default routing.
//!
//! [`cheating`] implements the paper's §5.4 cheater model (inflate the
//! preference of your best alternative to hijack the combined-maximum
//! selection rule, given perfect knowledge of the other side's list).

#![forbid(unsafe_code)]

pub mod arena;
pub mod cheating;
pub mod engine;
pub mod index;
pub mod machine;
pub mod mapping;
pub mod outcome;
pub mod parallel;
pub mod policies;
pub mod prefs;
pub mod selection;

pub use arena::{GainTable, TableArena};
pub use cheating::DisclosurePolicy;
pub use engine::{negotiate, negotiate_in, Party, SessionBuilder, SessionError, SessionInput};
pub use index::CandidateIndex;
pub use machine::{Action, Event, MachineError, MachineOutcome, NegotiationMachine};
pub use mapping::{
    utilization_classes, BandwidthMapper, DistanceMapper, FortzMapper, PreferenceMapper,
    UTIL_CLASS_WIDTH,
};
pub use outcome::{NegotiationOutcome, RoundRecord, Side, Termination};
pub use policies::{AcceptRule, NexitConfig, ProposalRule, StopPolicy, TurnPolicy};
pub use prefs::{quantize, PrefTable};
