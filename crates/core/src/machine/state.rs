//! The protocol state: everything one side's future depends on, as one
//! value that compares and hashes.

use super::Action;
use crate::outcome::{Side, Termination};
use crate::prefs::PrefTable;
use crate::selection::TableState;
use nexit_routing::Assignment;
use nexit_topology::IcxId;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Where the round loop stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
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

impl Phase {
    pub(super) fn name(self) -> &'static str {
        match self {
            Phase::Disclose => "Disclose",
            Phase::Turn => "Turn",
            Phase::AwaitResponse => "AwaitResponse",
            Phase::AwaitReassign => "AwaitReassign",
            Phase::Closing => "Closing",
            Phase::Done => "Done",
            Phase::Failed => "Failed",
        }
    }
}

/// Accepted traffic volume: a raw `f64` sum, as the reassignment trigger
/// always compared (whole 2⁻³² units would move the trigger on other
/// volumes), compared and hashed by its bits. That is `==` on every
/// non-NaN sum from `+0.0` (none is `-0.0`), and makes the state `Eq`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Volume(pub f64);

impl PartialEq for Volume {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Volume {}

impl Hash for Volume {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

/// One side's protocol state: what both ISPs advance in lock step, and
/// all a machine's future depends on besides its session constants. Two
/// machines of one session with equal states emit equal actions for
/// equal events from then on, whatever their accelerators hold.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProtocolState {
    /// Where the round loop stands.
    pub phase: Phase,
    /// Rounds completed (accepted or vetoed).
    pub round: u32,
    /// Whether our list went out in the current (re)disclosure exchange.
    pub sent_prefs: bool,
    /// Our proposal awaiting the peer's response: `(local_flow, alt)`.
    pub pending: Option<(usize, IcxId)>,
    /// Actions queued for the driver, oldest first.
    pub actions: VecDeque<Action>,
    /// Settled flows and vetoed alternatives.
    pub table: TableState,
    /// The evolving (or final) assignment over all pair flows.
    pub assignment: Assignment,
    /// Our true classes; a settled flow's row keeps its accept-time ones.
    pub my_true: PrefTable,
    /// The table we last disclosed (what [`Action::SendPrefs`] sends).
    pub my_disclosed: PrefTable,
    /// The peer's disclosed table, rows of settled flows as accepted.
    pub their_disclosed: PrefTable,
    /// Our true cumulative preference gain.
    pub my_gain: i64,
    /// Side A's cumulative disclosed gain (identical on both machines).
    pub disclosed_gain_a: i64,
    /// Side B's cumulative disclosed gain (identical on both machines).
    pub disclosed_gain_b: i64,
    /// Accepted volume since the last reassignment.
    pub volume_since_reassign: Volume,
    /// Preference reassignments performed.
    pub reassignments: usize,
    /// How the session ended, once terminal.
    pub termination: Option<Termination>,
    /// Accepted moves `(local_flow, alternative)` in round order.
    pub accepted_log: Vec<(usize, IcxId)>,
    /// Indices into `accepted_log` the credit-veto close reverted.
    pub reverted: Vec<usize>,
}

impl ProtocolState {
    /// Whether the machine is waiting for the peer's preference list
    /// (initial disclosure or a post-reassignment re-disclosure). Used
    /// by replay-tolerant transports: while this holds, a byte-identical
    /// `PeerPrefs` is fresh data (an honestly unchanged table encodes to
    /// the same bytes), not a duplicate.
    pub fn expects_prefs(&self) -> bool {
        matches!(self.phase, Phase::Disclose | Phase::AwaitReassign)
    }

    /// The disclosed tables in `(A, B)` orientation, for the machine on
    /// `side` — exactly the view a transcript of the wire would show.
    pub fn disclosed_tables(&self, side: Side) -> (&PrefTable, &PrefTable) {
        match side {
            Side::A => (&self.my_disclosed, &self.their_disclosed),
            Side::B => (&self.their_disclosed, &self.my_disclosed),
        }
    }
}
