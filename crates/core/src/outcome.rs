//! Negotiation results and transcripts.

use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;

/// Which side of the pair an ISP is on. `A` is the upstream in directed
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The A (upstream) ISP.
    A,
    /// The B (downstream) ISP.
    B,
}

serde::impl_json_enum!(Side { A, B });

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::A => write!(f, "ISP-A"),
            Side::B => write!(f, "ISP-B"),
        }
    }
}

/// One round of the negotiation, for replay and protocol integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round number, starting at 0.
    pub round: usize,
    /// Which ISP proposed.
    pub proposer: Side,
    /// The flow proposed (global id).
    pub flow: FlowId,
    /// The proposed alternative.
    pub alternative: IcxId,
    /// Whether the other ISP accepted.
    pub accepted: bool,
    /// Whether the acceptance was later reverted by the end-of-session
    /// rollback (credit-veto mode only).
    pub reverted: bool,
}

/// Why the negotiation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Termination {
    /// Every flow in the session was negotiated.
    Exhausted,
    /// An ISP stopped under the early/full termination policy.
    Stopped(Side),
}

/// Complete result of one negotiation session.
#[derive(Debug, Clone)]
pub struct NegotiationOutcome {
    /// The final full assignment: negotiated flows moved, everything else
    /// at its default.
    pub assignment: Assignment,
    /// Per-round transcript.
    pub transcript: Vec<RoundRecord>,
    /// Cumulative *true* preference gain of ISP-A (pref units).
    pub gain_a: i64,
    /// Cumulative *true* preference gain of ISP-B (pref units).
    pub gain_b: i64,
    /// Cumulative *disclosed* gains (differ from true only when cheating).
    pub disclosed_gain_a: i64,
    /// See [`NegotiationOutcome::disclosed_gain_a`].
    pub disclosed_gain_b: i64,
    /// How the session ended.
    pub termination: Termination,
    /// Number of preference reassignments performed.
    pub reassignments: usize,
}

impl NegotiationOutcome {
    /// True cumulative gain of one side.
    pub fn gain(&self, side: Side) -> i64 {
        match side {
            Side::A => self.gain_a,
            Side::B => self.gain_b,
        }
    }

    /// Number of flows actually negotiated (accepted proposals).
    pub fn flows_negotiated(&self) -> usize {
        self.transcript.iter().filter(|r| r.accepted).count()
    }

    /// Number of accepted proposals the end-of-session rollback
    /// reverted.
    pub fn flows_rolled_back(&self) -> usize {
        self.transcript.iter().filter(|r| r.reverted).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other() {
        assert_eq!(Side::A.other(), Side::B);
        assert_eq!(Side::B.other(), Side::A);
        assert_eq!(Side::A.to_string(), "ISP-A");
    }

    #[test]
    fn outcome_accessors() {
        let o = NegotiationOutcome {
            assignment: Assignment::from_choices(vec![]),
            transcript: vec![
                RoundRecord {
                    round: 0,
                    proposer: Side::A,
                    flow: FlowId(0),
                    alternative: IcxId(1),
                    accepted: true,
                    reverted: false,
                },
                RoundRecord {
                    round: 1,
                    proposer: Side::B,
                    flow: FlowId(1),
                    alternative: IcxId(0),
                    accepted: false,
                    reverted: false,
                },
            ],
            gain_a: 3,
            gain_b: -1,
            disclosed_gain_a: 3,
            disclosed_gain_b: -1,
            termination: Termination::Exhausted,
            reassignments: 0,
        };
        assert_eq!(o.gain(Side::A), 3);
        assert_eq!(o.gain(Side::B), -1);
        assert_eq!(o.flows_negotiated(), 1);
        assert_eq!(o.flows_rolled_back(), 0);
    }
}
