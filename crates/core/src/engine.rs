//! The synchronous in-process negotiation driver.
//!
//! Since the `NegotiationMachine` refactor this module contains **no
//! protocol logic**: every turn/propose/accept/reassign/stop decision
//! lives in [`crate::machine`], and this module merely instantiates one
//! machine per ISP and shuttles events between them in memory — the same
//! pump a network transport performs for `nexit-proto`'s agents, minus
//! the framing. The paper's loop (§4, step 2) for reference:
//!
//! ```text
//! loop {
//!     decide turn            (TurnPolicy)
//!     propose an alternative (ProposalRule, over disclosed preferences)
//!     accept alternative?    (AcceptRule)
//!     reassign preferences?  (after each reassign_interval_frac of volume)
//!     stop?                  (StopPolicy)
//! }
//! ```
//!
//! Each ISP is a [`Party`]: a preference mapper (its private objective)
//! plus a disclosure policy (truthful, or one of the §5.4 cheating
//! strategies). The machine keeps *true* and *disclosed* preference
//! tables separate: proposals are selected on disclosed values (all a
//! real ISP would see), while each ISP's stop decision and gain
//! accounting use its own true values.
//!
//! Entry points:
//!
//! * [`SessionBuilder`] — the validated fluent API; prefer it in new
//!   code and examples,
//! * [`negotiate`] — the positional convenience wrapper the experiment
//!   harness uses in bulk loops.

use crate::arena::TableArena;
use crate::cheating::DisclosurePolicy;
use crate::machine::{Action, MachineError, NegotiationMachine};
use crate::mapping::PreferenceMapper;
use crate::outcome::{NegotiationOutcome, RoundRecord, Side};
use crate::policies::{NexitConfig, StopPolicy};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;

/// The negotiated flow set: which flows are on the table, their defaults
/// and volumes, and how many alternatives each has.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// Global ids of the flows under negotiation (a subset of the pair's
    /// flows — e.g. only the failure-impacted flows in §5.2).
    pub flow_ids: Vec<FlowId>,
    /// Default alternative of each negotiated flow (parallel to
    /// `flow_ids`). Class 0 by definition.
    pub defaults: Vec<IcxId>,
    /// Traffic volume of each negotiated flow (parallel); used to pace
    /// preference reassignment.
    pub volumes: Vec<f64>,
    /// Number of alternatives (interconnections) per flow.
    pub num_alternatives: usize,
}

impl SessionInput {
    /// Number of flows on the table.
    pub fn len(&self) -> usize {
        self.flow_ids.len()
    }

    /// True when nothing is on the table.
    pub fn is_empty(&self) -> bool {
        self.flow_ids.is_empty()
    }

    /// Total negotiated-set volume.
    pub fn total_volume(&self) -> f64 {
        self.volumes.iter().sum()
    }

    /// The one session validator: parallel arrays line up, every default
    /// names a real alternative, every volume is finite (a NaN would
    /// never reach a reassignment threshold), the preference range is
    /// positive and the shape fits the candidate index's envelope under
    /// `config` ([`SessionError::IndexLimit`]).
    pub fn check(&self, config: &NexitConfig) -> Result<(), SessionError> {
        if self.defaults.len() != self.flow_ids.len() {
            return Err(SessionError::LengthMismatch {
                field: "defaults",
                expected: self.flow_ids.len(),
                got: self.defaults.len(),
            });
        }
        if self.volumes.len() != self.flow_ids.len() {
            return Err(SessionError::LengthMismatch {
                field: "volumes",
                expected: self.flow_ids.len(),
                got: self.volumes.len(),
            });
        }
        if self.num_alternatives == 0 {
            return Err(SessionError::NoAlternatives);
        }
        for (flow, d) in self.defaults.iter().enumerate() {
            if d.index() >= self.num_alternatives {
                return Err(SessionError::DefaultOutOfRange { flow });
            }
        }
        if let Some(flow) = self.volumes.iter().position(|v| !v.is_finite()) {
            return Err(SessionError::NonFiniteVolume { flow });
        }
        if config.pref_range <= 0 {
            return Err(SessionError::BadPrefRange(config.pref_range));
        }
        crate::index::check_envelope(
            config.pref_range,
            self.num_alternatives,
            self.len(),
            config.stop == StopPolicy::Early,
        )
        .map_err(SessionError::IndexLimit)
    }
}

/// One negotiating ISP: a private objective plus a disclosure policy.
pub struct Party<'a> {
    /// Display name (used in transcripts and the wire protocol).
    pub name: String,
    /// The ISP's private objective.
    pub mapper: Box<dyn PreferenceMapper + 'a>,
    /// Truthful, or a cheating strategy.
    pub disclosure: DisclosurePolicy,
}

impl<'a> Party<'a> {
    /// An honest party.
    pub fn honest(name: impl Into<String>, mapper: impl PreferenceMapper + 'a) -> Self {
        Self {
            name: name.into(),
            mapper: Box::new(mapper),
            disclosure: DisclosurePolicy::Truthful,
        }
    }

    /// A party using a cheating disclosure policy.
    pub fn cheating(
        name: impl Into<String>,
        mapper: impl PreferenceMapper + 'a,
        disclosure: DisclosurePolicy,
    ) -> Self {
        Self {
            name: name.into(),
            mapper: Box::new(mapper),
            disclosure,
        }
    }
}

/// What a [`SessionBuilder`] can reject before any negotiation runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No [`SessionBuilder::input`] was provided.
    MissingInput,
    /// No [`SessionBuilder::default_assignment`] was provided.
    MissingDefaultAssignment,
    /// A party was not provided.
    MissingParty(Side),
    /// Two parallel input arrays disagree in length.
    LengthMismatch {
        /// The offending field.
        field: &'static str,
        /// Length of `flow_ids`.
        expected: usize,
        /// Length found.
        got: usize,
    },
    /// `num_alternatives` was zero.
    NoAlternatives,
    /// A flow's default alternative index is out of range.
    DefaultOutOfRange {
        /// Local index of the offending flow.
        flow: usize,
    },
    /// A flow's volume is NaN or infinite.
    NonFiniteVolume {
        /// Local index of the offending flow.
        flow: usize,
    },
    /// The preference class range must be positive.
    BadPrefRange(i32),
    /// The session shape is outside the candidate index's envelope; names
    /// the limit (see [`SessionInput::check`]).
    IndexLimit(&'static str),
    /// The default assignment does not cover every negotiated flow.
    DefaultAssignmentTooSmall {
        /// Flows the assignment must cover (max flow id + 1).
        need: usize,
        /// Flows it covers.
        got: usize,
    },
    /// Both parties use a disclosure policy that needs to see the peer's
    /// list first — someone has to disclose without that knowledge.
    ConflictingDisclosure,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingInput => write!(f, "session input not provided"),
            SessionError::MissingDefaultAssignment => {
                write!(f, "default assignment not provided")
            }
            SessionError::MissingParty(side) => write!(f, "party {side} not provided"),
            SessionError::LengthMismatch {
                field,
                expected,
                got,
            } => write!(
                f,
                "`{field}` has {got} entries but `flow_ids` has {expected}"
            ),
            SessionError::NoAlternatives => write!(f, "need at least one alternative"),
            SessionError::DefaultOutOfRange { flow } => {
                write!(f, "flow {flow}'s default alternative is out of range")
            }
            SessionError::NonFiniteVolume { flow } => {
                write!(f, "flow {flow}'s volume is not a finite number")
            }
            SessionError::BadPrefRange(p) => {
                write!(f, "preference range must be positive, got {p}")
            }
            SessionError::IndexLimit(what) => {
                write!(f, "session exceeds the candidate index: {what}")
            }
            SessionError::DefaultAssignmentTooSmall { need, got } => write!(
                f,
                "default assignment covers {got} flows but the session references flow ids up to {need}"
            ),
            SessionError::ConflictingDisclosure => write!(
                f,
                "both parties need to see the peer's list before disclosing; one side must disclose first"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Validated fluent construction of an in-process negotiation.
///
/// Replaces the loose `(SessionInput, Assignment, Party, Party,
/// NexitConfig)` argument spread with named steps and upfront
/// validation:
///
/// ```
/// use nexit_core::{GainTable, Party, PreferenceMapper, SessionBuilder, SessionInput};
/// use nexit_routing::{Assignment, FlowId};
/// use nexit_topology::IcxId;
///
/// struct Fixed(GainTable);
/// impl PreferenceMapper for Fixed {
///     fn gains(&mut self, input: &SessionInput, _: &Assignment, out: &mut GainTable) {
///         for (row, flow) in input.flow_ids.iter().enumerate() {
///             out.row_mut(row).copy_from_slice(self.0.row(flow.index()));
///         }
///     }
/// }
///
/// let outcome = SessionBuilder::new()
///     .input(SessionInput {
///         flow_ids: vec![FlowId(0)],
///         defaults: vec![IcxId(0)],
///         volumes: vec![1.0],
///         num_alternatives: 2,
///     })
///     .default_assignment(Assignment::uniform(1, IcxId(0)))
///     .party_a(Party::honest("A", Fixed(GainTable::from_rows(&[[0.0, 5.0]]))))
///     .party_b(Party::honest("B", Fixed(GainTable::from_rows(&[[0.0, 3.0]]))))
///     .run()
///     .expect("valid session");
/// assert!(outcome.gain_a > 0 && outcome.gain_b > 0);
/// ```
#[derive(Default)]
pub struct SessionBuilder<'a> {
    input: Option<SessionInput>,
    default_assignment: Option<Assignment>,
    config: NexitConfig,
    party_a: Option<Party<'a>>,
    party_b: Option<Party<'a>>,
}

impl<'a> SessionBuilder<'a> {
    /// Start a builder with the default (paper distance-experiment)
    /// configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// The negotiated flow set.
    pub fn input(mut self, input: SessionInput) -> Self {
        self.input = Some(input);
        self
    }

    /// The pre-negotiation assignment of *all* pair flows (the engine
    /// mutates only the negotiated subset).
    pub fn default_assignment(mut self, assignment: Assignment) -> Self {
        self.default_assignment = Some(assignment);
        self
    }

    /// Replace the whole policy configuration.
    pub fn config(mut self, config: NexitConfig) -> Self {
        self.config = config;
        self
    }

    /// The A-side (upstream) ISP.
    pub fn party_a(mut self, party: Party<'a>) -> Self {
        self.party_a = Some(party);
        self
    }

    /// The B-side (downstream) ISP.
    pub fn party_b(mut self, party: Party<'a>) -> Self {
        self.party_b = Some(party);
        self
    }

    /// Validate everything and run the negotiation to completion.
    pub fn run(self) -> Result<NegotiationOutcome, SessionError> {
        let input = self.input.ok_or(SessionError::MissingInput)?;
        let default = self
            .default_assignment
            .ok_or(SessionError::MissingDefaultAssignment)?;
        let mut party_a = self.party_a.ok_or(SessionError::MissingParty(Side::A))?;
        let mut party_b = self.party_b.ok_or(SessionError::MissingParty(Side::B))?;
        input.check(&self.config)?;
        if let Some(max_flow) = input.flow_ids.iter().map(|f| f.index()).max() {
            if default.len() <= max_flow {
                return Err(SessionError::DefaultAssignmentTooSmall {
                    need: max_flow + 1,
                    got: default.len(),
                });
            }
        }
        if party_a.disclosure.needs_peer_list() && party_b.disclosure.needs_peer_list() {
            return Err(SessionError::ConflictingDisclosure);
        }
        Ok(negotiate_in(
            &mut TableArena::new(),
            &input,
            &default,
            &mut party_a,
            &mut party_b,
            &self.config,
        ))
    }
}

/// Run a complete negotiation and return the outcome.
///
/// `default_assignment` must cover *all* flows of the pair (the engine
/// mutates only the negotiated subset); `input` names the subset on the
/// table. Panics on input [`SessionInput::check`] refuses — use
/// [`SessionBuilder`] for checked construction.
pub fn negotiate<'b>(
    input: &SessionInput,
    default_assignment: &Assignment,
    party_a: &mut Party<'b>,
    party_b: &mut Party<'b>,
    config: &NexitConfig,
) -> NegotiationOutcome {
    negotiate_in(
        &mut TableArena::new(),
        input,
        default_assignment,
        party_a,
        party_b,
        config,
    )
}

/// [`negotiate`] drawing both machines' preference tables, gain scratch
/// and index buffers from `arena`, and returning them to it when the
/// session completes. A driver that runs sessions back to back (grouped
/// negotiation, failure-scenario sweeps) threads one arena through all
/// of them so every backing buffer is allocated exactly once for the
/// whole sweep.
///
/// The in-memory event pump: two machines, zero IO. Disclosure order
/// matches the wire protocol (A first) unless A cheats with a
/// peer-list-dependent policy, in which case the honest B discloses
/// first — the §5.4 "perfect knowledge" cheater model, expressed purely
/// through message ordering instead of privileged access to the peer's
/// internal state. Panics where a machine refuses the session: input
/// [`SessionInput::check`] refuses, or both parties needing the other's
/// list first.
pub fn negotiate_in<'b>(
    arena: &mut TableArena,
    input: &SessionInput,
    default_assignment: &Assignment,
    party_a: &mut Party<'b>,
    party_b: &mut Party<'b>,
    config: &NexitConfig,
) -> NegotiationOutcome {
    let first_discloser = if party_a.disclosure.needs_peer_list() {
        Side::B
    } else {
        Side::A
    };
    let mut machine_a = NegotiationMachine::new_in(
        arena,
        Side::A,
        first_discloser,
        input.clone(),
        default_assignment.clone(),
        party_a.mapper.as_mut(),
        party_a.disclosure,
        *config,
    )
    // Documented precondition (`SessionBuilder` is the checked path).
    .unwrap_or_else(|e| panic!("{e}"));
    let mut machine_b = NegotiationMachine::new_in(
        arena,
        Side::B,
        first_discloser,
        input.clone(),
        default_assignment.clone(),
        party_b.mapper.as_mut(),
        party_b.disclosure,
        *config,
    )
    // As for machine A.
    .unwrap_or_else(|e| panic!("{e}"));

    let mut transcript: Vec<RoundRecord> = Vec::new();
    loop {
        let mut progressed = false;
        while let Some(action) = machine_a.poll_action() {
            deliver(action, &machine_a, &mut machine_b, input, &mut transcript)
                // Invariant: each event is the peer's own action, in order.
                .expect("in-process machines cannot violate the protocol");
            progressed = true;
        }
        while let Some(action) = machine_b.poll_action() {
            deliver(action, &machine_b, &mut machine_a, input, &mut transcript)
                // Invariant: as above, in the other direction.
                .expect("in-process machines cannot violate the protocol");
            progressed = true;
        }
        if machine_a.is_done() && machine_b.is_done() {
            break;
        }
        // Invariant: a live machine pair always has an action in flight.
        assert!(progressed, "machine pair deadlocked without terminating");
    }

    finish_outcome(arena, machine_a, machine_b, transcript)
}

/// Translate one side's action into the peer's event, recording each
/// answered proposal as a transcript row, as the wire would show it.
fn deliver<M: PreferenceMapper>(
    action: Action,
    from: &NegotiationMachine<M>,
    peer: &mut NegotiationMachine<M>,
    input: &SessionInput,
    transcript: &mut Vec<RoundRecord>,
) -> Result<(), MachineError> {
    // A response answers the proposal its proposer still holds; a
    // proposal met by a stop never completed its round.
    if let (Action::SendResponse { round, accepted }, Some((local, alt))) =
        (action, peer.state().pending)
    {
        transcript.push(RoundRecord {
            round: round as usize,
            proposer: peer.side(),
            flow: input.flow_ids[local],
            alternative: alt,
            accepted,
            reverted: false,
        });
    }
    peer.handle(from.peer_event(action))
}

/// Assemble the outcome from the two finished machines, retiring their
/// buffers into `arena` for the next session.
fn finish_outcome<MA: PreferenceMapper, MB: PreferenceMapper>(
    arena: &mut TableArena,
    machine_a: NegotiationMachine<MA>,
    machine_b: NegotiationMachine<MB>,
    mut transcript: Vec<RoundRecord>,
) -> NegotiationOutcome {
    // Mark the rollback's reverted rows (both machines computed the same
    // plan from shared disclosed state; take A's).
    let accepted_rows: Vec<usize> = transcript
        .iter()
        .enumerate()
        .filter(|(_, r)| r.accepted)
        .map(|(i, _)| i)
        .collect();
    let (a, b) = (machine_a.state(), machine_b.state());
    for &idx in &a.reverted {
        transcript[accepted_rows[idx]].reverted = true;
    }

    // Invariant: every path into `Phase::Done` records a termination.
    let termination = a
        .termination
        .expect("terminated machine must report a termination");
    // Invariant: both machines advance one protocol state in lock step.
    debug_assert_eq!(Some(termination), b.termination);
    debug_assert_eq!(a.assignment, b.assignment);
    let outcome = NegotiationOutcome {
        assignment: a.assignment.clone(),
        transcript,
        gain_a: a.my_gain,
        gain_b: b.my_gain,
        disclosed_gain_a: a.disclosed_gain_a,
        disclosed_gain_b: a.disclosed_gain_b,
        termination,
        reassignments: a.reassignments,
    };
    machine_a.recycle(arena);
    machine_b.recycle(arena);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::PreferenceMapper;
    use crate::outcome::Termination;
    use crate::policies::{AcceptRule, ProposalRule, StopPolicy, TurnPolicy};

    use crate::arena::GainTable;

    /// A mapper replaying a fixed gain table, one row per flow id (tests
    /// drive the engine with hand-crafted scenarios).
    struct FixedMapper {
        gains: GainTable,
    }

    impl PreferenceMapper for FixedMapper {
        fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
            for (row, flow) in input.flow_ids.iter().enumerate() {
                out.row_mut(row)
                    .copy_from_slice(self.gains.row(flow.index()));
            }
        }
    }

    /// Shorthand: a flat gain table from row literals.
    fn tbl<R: AsRef<[f64]>>(rows: &[R]) -> GainTable {
        GainTable::from_rows(rows)
    }

    fn input(n: usize, k: usize) -> SessionInput {
        SessionInput {
            flow_ids: (0..n).map(FlowId::new).collect(),
            defaults: vec![IcxId(0); n],
            volumes: vec![1.0; n],
            num_alternatives: k,
        }
    }

    fn run(gains_a: GainTable, gains_b: GainTable, config: NexitConfig) -> NegotiationOutcome {
        let n = gains_a.num_flows();
        let k = gains_a.num_alternatives();
        let inp = input(n, k);
        let default = Assignment::uniform(n, IcxId(0));
        let mut a = Party::honest("A", FixedMapper { gains: gains_a });
        let mut b = Party::honest("B", FixedMapper { gains: gains_b });
        negotiate(&inp, &default, &mut a, &mut b, &config)
    }

    #[test]
    fn mutually_good_move_is_taken() {
        // One flow; alternative 1 better for both.
        let out = run(
            tbl(&[vec![0.0, 5.0]]),
            tbl(&[vec![0.0, 3.0]]),
            NexitConfig::default(),
        );
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(1));
        assert!(out.gain_a > 0 && out.gain_b > 0);
        assert_eq!(out.termination, Termination::Exhausted);
    }

    #[test]
    fn trade_across_flows_wins_for_both() {
        // Flow 2 is mutually good; flows 0 and 1 are a classic trade (big
        // win for one, small loss for the other). Under greedy early
        // termination the mutually-good flow and A's winner complete, and
        // B stops before its own losing flow — both ISPs end positive.
        let out = run(
            tbl(&[vec![0.0, 10.0], vec![0.0, -2.0], vec![0.0, 6.0]]),
            tbl(&[vec![0.0, -2.0], vec![0.0, 10.0], vec![0.0, 6.0]]),
            NexitConfig::default(),
        );
        assert_eq!(
            out.assignment.choice(FlowId(2)),
            IcxId(1),
            "mutual win taken"
        );
        assert!(out.gain_a > 0, "gain_a = {}", out.gain_a);
        assert!(out.gain_b > 0, "gain_b = {}", out.gain_b);
    }

    #[test]
    fn negotiate_all_completes_the_full_trade() {
        // The same trade completes fully in negotiate-all mode (the
        // socially-best outcome the paper describes), with a higher total
        // than early termination: each side trades a -2 for a +10.
        let out = run(
            tbl(&[vec![0.0, 10.0], vec![0.0, -2.0], vec![0.0, 6.0]]),
            tbl(&[vec![0.0, -2.0], vec![0.0, 10.0], vec![0.0, 6.0]]),
            NexitConfig {
                stop: StopPolicy::NegotiateAll,
                ..NexitConfig::default()
            },
        );
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(1));
        assert_eq!(out.assignment.choice(FlowId(1)), IcxId(1));
        assert_eq!(out.assignment.choice(FlowId(2)), IcxId(1));
        assert_eq!(out.gain_a, 14);
        assert_eq!(out.gain_b, 14);
    }

    #[test]
    fn negative_combined_alternatives_fall_back_to_default() {
        // Flow 0 helps A; flow 1's non-default alternative has negative
        // combined sum (-1), so the combined-max criterion selects flow
        // 1's default instead and nobody loses. (Both tables span +/-10 so
        // global quantization is the identity here.)
        let out = run(
            tbl(&[vec![0.0, 10.0], vec![0.0, -4.0]]),
            tbl(&[vec![0.0, 10.0], vec![0.0, 3.0]]),
            NexitConfig::default(),
        );
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(1));
        assert_eq!(out.assignment.choice(FlowId(1)), IcxId(0));
        assert_eq!(out.termination, Termination::Exhausted);
        assert!(out.gain_a > 0);
        assert!(out.gain_b >= 0);
    }

    #[test]
    fn early_termination_stops_a_doomed_negotiation() {
        // Flow 0's combined-best alternative is positive overall but a
        // net loss for A, and flow 1 offers A no recovery: A projects no
        // gain in continuing and stops before round one, leaving both
        // flows at their defaults.
        let out = run(
            tbl(&[vec![0.0, -3.0], vec![0.0, -10.0]]),
            tbl(&[vec![0.0, 10.0], vec![0.0, 2.0]]),
            NexitConfig::default(),
        );
        assert!(
            matches!(out.termination, Termination::Stopped(Side::A)),
            "termination = {:?}",
            out.termination
        );
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(0));
        assert_eq!(out.assignment.choice(FlowId(1)), IcxId(0));
        assert_eq!(out.gain_a, 0);
        assert_eq!(out.gain_b, 0);
        assert_eq!(out.flows_negotiated(), 0);
    }

    #[test]
    fn negotiate_all_covers_every_flow() {
        let out = run(
            tbl(&[vec![0.0, 10.0], vec![0.0, -4.0]]),
            tbl(&[vec![0.0, 10.0], vec![0.0, 3.0]]),
            NexitConfig {
                stop: StopPolicy::NegotiateAll,
                ..NexitConfig::default()
            },
        );
        // Combined sum of f1 alt1 is -1 < 0 = default sum, so the
        // combined-max proposer keeps f1 at its default alternative even
        // in negotiate-all mode; both flows are decided.
        assert_eq!(out.flows_negotiated(), 2);
        assert_eq!(out.assignment.choice(FlowId(1)), IcxId(0));
    }

    #[test]
    fn honest_isp_never_loses_with_early_stop() {
        // Adversarial-ish tables: many flows bad for A.
        let out = run(
            tbl(&[[0.0, -5.0], [0.0, -3.0], [0.0, 1.0], [0.0, -2.0]]),
            tbl(&[[0.0, 9.0], [0.0, 8.0], [0.0, 0.0], [0.0, 7.0]]),
            NexitConfig::default(),
        );
        assert!(out.gain_a >= 0, "A lost: {}", out.gain_a);
        assert!(out.gain_b >= 0, "B lost: {}", out.gain_b);
    }

    #[test]
    fn alternate_turns_recorded() {
        let out = run(
            tbl(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]]),
            tbl(&[vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0]]),
            NexitConfig::default(),
        );
        let proposers: Vec<Side> = out.transcript.iter().map(|r| r.proposer).collect();
        assert_eq!(proposers, vec![Side::A, Side::B, Side::A]);
    }

    #[test]
    fn lower_gain_turn_policy_alternates_catchup() {
        // Flow 0 strongly favors A; after it is accepted, B has lower gain
        // and should get the next turn.
        let out = run(
            tbl(&[vec![0.0, 10.0], vec![0.0, 0.0]]),
            tbl(&[vec![0.0, 0.0], vec![0.0, 10.0]]),
            NexitConfig {
                turn: TurnPolicy::LowerGain,
                ..NexitConfig::default()
            },
        );
        assert_eq!(out.transcript[0].proposer, Side::A, "tie at start -> A");
        assert_eq!(out.transcript[1].proposer, Side::B, "B is behind");
    }

    #[test]
    fn coin_toss_is_deterministic() {
        let mk = || {
            run(
                tbl(&[vec![0.0, 1.0], vec![0.0, 1.0]]),
                tbl(&[vec![0.0, 1.0], vec![0.0, 1.0]]),
                NexitConfig {
                    turn: TurnPolicy::CoinToss { seed: 99 },
                    ..NexitConfig::default()
                },
            )
        };
        let t1: Vec<Side> = mk().transcript.iter().map(|r| r.proposer).collect();
        let t2: Vec<Side> = mk().transcript.iter().map(|r| r.proposer).collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn best_local_min_harm_rule() {
        // A proposes first. MaxCombined would pick flow 1 (sum 7);
        // BestLocalMinHarm picks flow 0 (A's best local = 6 > 4), tie-broken
        // on other's preference.
        let out = run(
            tbl(&[vec![0.0, 6.0], vec![0.0, 4.0]]),
            tbl(&[vec![0.0, 0.0], vec![0.0, 3.0]]),
            NexitConfig {
                proposal: ProposalRule::BestLocalMinHarm,
                ..NexitConfig::default()
            },
        );
        assert_eq!(out.transcript[0].flow, FlowId(0));
    }

    #[test]
    fn veto_blocks_negative_cumulative() {
        // B would go negative accepting flow 0 alt 1; with veto it rejects
        // and the engine falls back to the default alternative.
        let out = run(
            tbl(&[vec![0.0, 10.0]]),
            tbl(&[vec![0.0, -10.0]]),
            NexitConfig {
                accept: AcceptRule::VetoNegativeCumulative,
                stop: StopPolicy::NegotiateAll,
                ..NexitConfig::default()
            },
        );
        assert!(out.gain_b >= 0);
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(0));
        // Transcript shows the rejected proposal.
        assert!(out.transcript.iter().any(|r| !r.accepted));
    }

    #[test]
    fn empty_session_terminates_immediately() {
        let inp = input(0, 2);
        let default = Assignment::from_choices(vec![]);
        let mut a = Party::honest(
            "A",
            FixedMapper {
                gains: GainTable::new(0, 2),
            },
        );
        let mut b = Party::honest(
            "B",
            FixedMapper {
                gains: GainTable::new(0, 2),
            },
        );
        let out = negotiate(&inp, &default, &mut a, &mut b, &NexitConfig::default());
        assert_eq!(out.termination, Termination::Exhausted);
        assert_eq!(out.flows_negotiated(), 0);
    }

    #[test]
    fn fig3_worked_example() {
        // The paper's Figure 3 walk-through (§4.1): two flows (f2, f3),
        // two alternatives (top = 1, bottom = 0), defaults = bottom,
        // preference range [-1, 1].
        //
        // Initial lists: A is averse to f2-top (-1); B indifferent to all.
        // After f2-bottom is accepted, reassignment reveals B prefers
        // f3-top (+1). Final outcome: f2 on bottom, f3 on top (Fig. 2e).
        /// The row of `flow`, when the (possibly re-mapped, hence
        /// restricted) session still holds it.
        fn row_of(input: &SessionInput, flow: FlowId) -> Option<usize> {
            input.flow_ids.iter().position(|&f| f == flow)
        }
        struct IspA;
        impl PreferenceMapper for IspA {
            fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
                // [bottom, top] per flow; f2 = flow 0, f3 = flow 1.
                if let Some(f2) = row_of(i, FlowId(0)) {
                    out.set(f2, 1, -1.0);
                }
            }
        }
        struct IspB;
        impl PreferenceMapper for IspB {
            fn gains(&mut self, i: &SessionInput, current: &Assignment, out: &mut GainTable) {
                // B can handle either flow on the bottom link, but not
                // both: once f2 is settled on bottom, f3-top becomes
                // preferable.
                let f2_on_bottom = current.choice(FlowId(0)) == IcxId(0);
                if let (true, Some(f3)) = (f2_on_bottom, row_of(i, FlowId(1))) {
                    out.set(f3, 1, 1.0);
                }
            }
        }
        let inp = input(2, 2);
        let default = Assignment::uniform(2, IcxId(0));
        let config = NexitConfig {
            pref_range: 1,
            // Reassign after every acceptance (every flow is 50% > 25%).
            reassign_interval_frac: Some(0.25),
            ..NexitConfig::default()
        };
        let out = SessionBuilder::new()
            .input(inp)
            .default_assignment(default)
            .config(config)
            .party_a(Party::honest("ISP-A", IspA))
            .party_b(Party::honest("ISP-B", IspB))
            .run()
            .expect("valid session");
        assert_eq!(
            out.assignment.choice(FlowId(0)),
            IcxId(0),
            "f2 stays on the bottom interconnection"
        );
        assert_eq!(
            out.assignment.choice(FlowId(1)),
            IcxId(1),
            "f3 moves to the top interconnection after reassignment"
        );
        assert!(out.reassignments >= 1, "reassignment must have occurred");
        assert_eq!(out.gain_b, 1, "B ends strictly better than default");
        assert_eq!(out.gain_a, 0, "A is unharmed");
    }

    #[test]
    fn reassignment_counts_volume_fraction() {
        // 20 unit-volume flows, reassign every 25% -> after every 5 accepted.
        let n = 20;
        let gains = tbl(&vec![[0.0, 1.0]; n]);
        let out = run(
            gains.clone(),
            gains,
            NexitConfig {
                reassign_interval_frac: Some(0.25),
                ..NexitConfig::default()
            },
        );
        assert_eq!(out.flows_negotiated(), n);
        // Reassignments happen at 5, 10, 15 accepted (not after the last).
        assert_eq!(out.reassignments, 3);
    }

    #[test]
    fn builder_rejects_structural_errors() {
        let mk_party = || {
            Party::honest(
                "X",
                FixedMapper {
                    gains: tbl(&[vec![0.0, 1.0]]),
                },
            )
        };
        // Missing pieces, one at a time.
        assert_eq!(
            SessionBuilder::new().run().unwrap_err(),
            SessionError::MissingInput
        );
        assert_eq!(
            SessionBuilder::new().input(input(1, 2)).run().unwrap_err(),
            SessionError::MissingDefaultAssignment
        );
        assert_eq!(
            SessionBuilder::new()
                .input(input(1, 2))
                .default_assignment(Assignment::uniform(1, IcxId(0)))
                .run()
                .unwrap_err(),
            SessionError::MissingParty(Side::A)
        );
        // Parallel-array mismatch.
        let mut bad = input(2, 2);
        bad.volumes.pop();
        assert!(matches!(
            SessionBuilder::new()
                .input(bad)
                .default_assignment(Assignment::uniform(2, IcxId(0)))
                .party_a(mk_party())
                .party_b(mk_party())
                .run()
                .unwrap_err(),
            SessionError::LengthMismatch {
                field: "volumes",
                ..
            }
        ));
        // Default alternative out of range.
        let mut bad = input(1, 2);
        bad.defaults[0] = IcxId(5);
        assert_eq!(
            SessionBuilder::new()
                .input(bad)
                .default_assignment(Assignment::uniform(1, IcxId(0)))
                .party_a(mk_party())
                .party_b(mk_party())
                .run()
                .unwrap_err(),
            SessionError::DefaultOutOfRange { flow: 0 }
        );
        // Assignment too small for the referenced flow ids.
        assert!(matches!(
            SessionBuilder::new()
                .input(input(2, 2))
                .default_assignment(Assignment::uniform(1, IcxId(0)))
                .party_a(mk_party())
                .party_b(mk_party())
                .run()
                .unwrap_err(),
            SessionError::DefaultAssignmentTooSmall { .. }
        ));
        // Bad preference range.
        assert_eq!(
            SessionBuilder::new()
                .input(input(1, 2))
                .default_assignment(Assignment::uniform(1, IcxId(0)))
                .config(NexitConfig {
                    pref_range: 0,
                    ..NexitConfig::default()
                })
                .party_a(mk_party())
                .party_b(mk_party())
                .run()
                .unwrap_err(),
            SessionError::BadPrefRange(0)
        );
        // Two peer-list-dependent cheaters cannot both disclose second.
        assert_eq!(
            SessionBuilder::new()
                .input(input(1, 2))
                .default_assignment(Assignment::uniform(1, IcxId(0)))
                .party_a(Party::cheating(
                    "A",
                    FixedMapper {
                        gains: tbl(&[vec![0.0, 1.0]])
                    },
                    DisclosurePolicy::InflateBest,
                ))
                .party_b(Party::cheating(
                    "B",
                    FixedMapper {
                        gains: tbl(&[vec![0.0, 1.0]])
                    },
                    DisclosurePolicy::InflateBest,
                ))
                .run()
                .unwrap_err(),
            SessionError::ConflictingDisclosure
        );
    }

    /// A NaN volume fails every threshold comparison, so a reassigning
    /// session would never reassign: refused up front, as is infinity.
    #[test]
    fn non_finite_volumes_are_refused() {
        let config = NexitConfig::default();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = input(3, 2);
            bad.volumes[1] = v;
            assert_eq!(
                bad.check(&config),
                Err(SessionError::NonFiniteVolume { flow: 1 })
            );
        }
        assert_eq!(input(3, 2).check(&config), Ok(()));
    }

    #[test]
    fn builder_refuses_shapes_outside_the_index_envelope() {
        // One row per limit edge: (P, flows, alternatives, stop) and the
        // limit refused, if any. 1 022 flows at P = 256 is the largest
        // early-stop projection under 2²⁰ leaves (1 022 × 1 026 =
        // 1 048 572; no shape hits 2²⁰ exactly, as 4P + 2 has an odd
        // factor), and one flow more is refused unless nothing projects.
        let (early, all) = (StopPolicy::Early, StopPolicy::NegotiateAll);
        let too_many_leaves = Some("early-stop projection above 2^20 leaves");
        let rows = [
            ((256, 1, 2, early), None),
            ((257, 1, 2, early), Some("preference range above 256")),
            ((10, 1, 512, early), None),
            ((10, 1, 513, early), Some("more than 512 alternatives")),
            ((256, 1_022, 2, early), None),
            ((256, 1_023, 2, early), too_many_leaves),
            ((256, 1_023, 2, all), None),
        ];
        for ((pref_range, n, k, stop), refused) in rows {
            // The last alternative, at the packed cell's edge for 512,
            // is the best for both sides.
            let mut gains = GainTable::new(n, k);
            (0..n).for_each(|flow| gains.row_mut(flow)[k - 1] = 1.0);
            let config = NexitConfig {
                pref_range,
                stop,
                ..NexitConfig::default()
            };
            let party = |name| {
                Party::honest(
                    name,
                    FixedMapper {
                        gains: gains.clone(),
                    },
                )
            };
            let result = SessionBuilder::new()
                .input(input(n, k))
                .default_assignment(Assignment::uniform(n, IcxId(0)))
                .config(config)
                .party_a(party("A"))
                .party_b(party("B"))
                .run();
            let row = format!("P = {pref_range}, {n} x {k}, {stop:?}");
            match (result, refused) {
                (Ok(out), None) => {
                    let last = IcxId::new(k - 1);
                    let moved = (0..n).all(|f| out.assignment.choice(FlowId::new(f)) == last);
                    assert!(moved, "{row}: every flow takes the last alternative");
                }
                (Err(e), Some(limit)) => assert_eq!(e, SessionError::IndexLimit(limit), "{row}"),
                (result, _) => panic!("{row}: expected {refused:?}, got {:?}", result.err()),
            }
        }
    }

    #[test]
    fn lopsided_pair_rolls_back_a_fifth_and_ends_win_win() {
        // The §6 close on a lopsided pair, as real pairs are (a quarter
        // of their accepted moves are rolled back): B loses half of what
        // A gains on three flows in four, so the combined maximum keeps
        // trading at B's expense and the close must undo much of it.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (n, k) = (2_000, 4);
        let random = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gains = GainTable::new(n, k);
            for f in 0..n {
                let row = gains.row_mut(f);
                row.iter_mut()
                    .for_each(|cell| *cell = rng.gen_range(-100.0..100.0));
                row[0] = 0.0;
            }
            gains
        };
        let gains_a = random(1);
        let mut gains_b = random(2);
        for f in (0..n).filter(|f| f % 4 != 0) {
            for (cell, &theirs) in gains_b.row_mut(f).iter_mut().zip(gains_a.row(f)) {
                *cell = -0.5 * theirs;
            }
        }
        let out = run(gains_a, gains_b, NexitConfig::win_win());
        let (accepted, reverted) = (out.flows_negotiated(), out.flows_rolled_back());
        assert!(
            5 * reverted >= accepted,
            "a fifth of the {accepted} accepted moves must be rolled back, not {reverted}"
        );
        assert!(out.gain_a >= 0, "A lost {}", out.gain_a);
        assert!(out.gain_b >= 0, "B lost {}", out.gain_b);
    }

    #[test]
    fn builder_matches_negotiate() {
        let gains_a = tbl(&[vec![0.0, 10.0], vec![0.0, -2.0], vec![0.0, 6.0]]);
        let gains_b = tbl(&[vec![0.0, -2.0], vec![0.0, 10.0], vec![0.0, 6.0]]);
        let via_fn = run(gains_a.clone(), gains_b.clone(), NexitConfig::win_win());
        let via_builder = SessionBuilder::new()
            .input(input(3, 2))
            .default_assignment(Assignment::uniform(3, IcxId(0)))
            .config(NexitConfig::win_win())
            .party_a(Party::honest("A", FixedMapper { gains: gains_a }))
            .party_b(Party::honest("B", FixedMapper { gains: gains_b }))
            .run()
            .unwrap();
        assert_eq!(via_fn.assignment, via_builder.assignment);
        assert_eq!(via_fn.gain_a, via_builder.gain_a);
        assert_eq!(via_fn.gain_b, via_builder.gain_b);
        assert_eq!(via_fn.transcript, via_builder.transcript);
    }

    #[test]
    fn cheating_side_a_discloses_second() {
        // A cheating A is legal in-process: the driver flips the
        // disclosure order so the cheater still sees the peer's list
        // first, matching the §5.4 perfect-knowledge model.
        let out = SessionBuilder::new()
            .input(input(1, 2))
            .default_assignment(Assignment::uniform(1, IcxId(0)))
            .party_a(Party::cheating(
                "A",
                FixedMapper {
                    gains: tbl(&[vec![0.0, 4.0]]),
                },
                DisclosurePolicy::InflateBest,
            ))
            .party_b(Party::honest(
                "B",
                FixedMapper {
                    gains: tbl(&[vec![0.0, 1.0]]),
                },
            ))
            .run()
            .unwrap();
        assert_eq!(out.assignment.choice(FlowId(0)), IcxId(1));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_gains(n: usize, k: usize) -> impl Strategy<Value = GainTable> {
            proptest::collection::vec(proptest::collection::vec(-10.0f64..10.0, k), n).prop_map(
                move |mut rows| {
                    for row in &mut rows {
                        row[0] = 0.0; // default column
                    }
                    GainTable::from_rows(&rows)
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn no_loss_with_veto_guard(
                ga in arb_gains(6, 3),
                gb in arb_gains(6, 3),
            ) {
                // The paper's hard no-loss guarantee ("an honest ISP can
                // always protect itself by not negotiating loses") holds
                // under the veto rule for *any* preference tables, even
                // adversarial ones.
                let out = run(ga, gb, NexitConfig {
                    accept: AcceptRule::VetoNegativeCumulative,
                    ..NexitConfig::default()
                });
                prop_assert!(out.gain_a >= 0, "A lost {}", out.gain_a);
                prop_assert!(out.gain_b >= 0, "B lost {}", out.gain_b);
            }

            #[test]
            fn credit_veto_rollback_guarantees_win_win(
                ga in arb_gains(6, 3),
                gb in arb_gains(6, 3),
                credit in 0i64..30,
            ) {
                // The provable no-loss property: with credit-bounded
                // vetoes and the end-of-session rollback, both honest
                // ISPs end with non-negative cumulative gain for *any*
                // preference tables. (Early termination alone is only a
                // perception-based heuristic: projection assumes the
                // neutral tie-break, and an adversarial proposer can pick
                // a different equal-sum alternative, so the engine's
                // guarantee is deliberately placed here instead.)
                let out = run(ga, gb, NexitConfig {
                    accept: AcceptRule::CreditVeto { credit },
                    stop: StopPolicy::NegotiateAll,
                    ..NexitConfig::default()
                });
                prop_assert!(out.gain_a >= 0, "A lost {}", out.gain_a);
                prop_assert!(out.gain_b >= 0, "B lost {}", out.gain_b);
            }

            #[test]
            fn terminates_within_round_budget(
                ga in arb_gains(8, 4),
                gb in arb_gains(8, 4),
            ) {
                // Each accepted round removes a flow; each vetoed round
                // bans an alternative. Rounds <= flows * alternatives.
                let out = run(ga, gb, NexitConfig {
                    accept: AcceptRule::VetoNegativeCumulative,
                    stop: StopPolicy::NegotiateAll,
                    ..NexitConfig::default()
                });
                prop_assert!(out.transcript.len() <= 8 * 4);
                prop_assert!(out.gain_a >= 0);
                prop_assert!(out.gain_b >= 0);
            }

            #[test]
            fn real_metric_win_win_via_floor_quantization(
                ga in arb_gains(8, 3),
                gb in arb_gains(8, 3),
            ) {
                // The documented theorem: floor quantization never
                // overstates a gain (raw >= class * quantum for every
                // cell), so a non-negative cumulative class gain implies
                // a non-negative cumulative *raw metric* gain. With the
                // credit-veto rollback the class gain is >= 0, hence so
                // is the real one.
                let n = ga.num_flows();
                let out = run(ga.clone(), gb.clone(), NexitConfig::win_win());
                let raw = |table: &GainTable| -> f64 {
                    (0..n)
                        .map(|f| table.get(f, out.assignment.choice(FlowId::new(f)).index()))
                        .sum()
                };
                prop_assert!(out.gain_a >= 0 && out.gain_b >= 0);
                prop_assert!(raw(&ga) >= -1e-9, "A's real metric went negative: {}", raw(&ga));
                prop_assert!(raw(&gb) >= -1e-9, "B's real metric went negative: {}", raw(&gb));
            }

            #[test]
            fn full_termination_never_negative(
                ga in arb_gains(6, 3),
                gb in arb_gains(6, 3),
            ) {
                let out = run(ga, gb, NexitConfig {
                    stop: StopPolicy::Full,
                    ..NexitConfig::default()
                });
                prop_assert!(out.gain_a >= 0);
                prop_assert!(out.gain_b >= 0);
            }
        }
    }
}
