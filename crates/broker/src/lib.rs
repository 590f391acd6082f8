//! A multiplexed session broker: thousands of concurrent wire
//! negotiations over framed in-memory transports, on M worker threads.
//!
//! `nexit-proto`'s [`Agent`] is sans-IO by design, but until this crate
//! nothing drove more than one wire session at a time
//! ([`nexit_proto::run_session`] runs one pair to completion). The
//! [`Broker`] is the datacenter-scale shell around the same machinery:
//! it owns per-session state keyed by **pair id** (the index of the
//! session's [`SessionSpec`] in the submitted batch), shards the
//! sessions round-robin across workers, and runs each worker as a
//! readiness-polled event loop:
//!
//! * **Admission control** — each worker keeps at most
//!   [`BrokerConfig::max_active`] sessions live; the rest wait in the
//!   worker's pending queue. Retired sessions return their table and
//!   index buffers to a per-worker [`TableArena`], so a worker serving
//!   thousands of sessions allocates each backing buffer only once.
//! * **One poll tick** — a tick is one [`SessionPump::step`] (the same
//!   frame-moving loop the single-pair drivers in
//!   [`nexit_proto::driver`] run: every outgoing frame onto its link,
//!   queued wire units off it, each read in place by the peer and its
//!   buffer kept for that side's next frames) followed by the broker's
//!   own bookkeeping: completion, deadline, retransmit timers, stall.
//!   The tick does not know which transport a session uses.
//! * **Bounded queues with backpressure** — a link holds at most
//!   [`BrokerConfig::queue_capacity`] frames in flight and a peer
//!   consumes at most [`BrokerConfig::deliver_budget`] frames per tick.
//!   When a queue is full the sender is parked — its remaining frames
//!   wait on its side of the link — and the worker moves on to the next
//!   session: a stalled peer never blocks its worker.
//! * **Fault isolation** — a corrupted or dropped frame (injected via
//!   each spec's [`FaultConfig`]) fails only its own session, which
//!   surfaces as a [`SessionFailure`] in that pair's result slot;
//!   sibling sessions on the same worker complete with unchanged
//!   outcomes. A session that moves nothing for 16 consecutive ticks is
//!   failed with [`ProtoError::Stalled`], carrying both links'
//!   in-flight counts.
//! * **Fault recovery** — with [`BrokerConfig::reliability`] set, each
//!   session's pump runs the [`nexit_proto::reliable`] ARQ layer:
//!   dropped and corrupted frames are retransmitted on deterministic
//!   tick timeouts, duplicates and reordered frames are absorbed by the
//!   dedup window, and only a persistently dead link (retry budget
//!   exhausted) or a blown [`BrokerConfig::session_deadline`] terminates
//!   the session. A session with unacked frames is exempt from the stall
//!   detector (its progress is scheduled by the retransmit timers).
//! * **Graceful degradation** — with
//!   [`BrokerConfig::degrade_to_default`] set, a terminally-failed
//!   session falls back to the paper's status quo: its result is
//!   [`PairResult::Degraded`], carrying the spec's default early-exit
//!   assignment plus the underlying failure, so every batch yields a
//!   usable routing table for every pair.
//!
//! Outcomes are **byte-identical to the in-process engine**
//! ([`nexit_core::negotiate`]) for every pair at any worker count: a
//! session's two agents advance in lock step regardless of how ticks
//! interleave with other sessions, the per-worker arena recycles
//! allocations but never values, per-session fault and retransmission
//! timing is derived from the session's own seed and tick counters (not
//! from wall clocks or scheduling), and results are collected by pair
//! id. `crates/sim/tests/broker_determinism.rs` pins exactly this.

#![forbid(unsafe_code)]

use nexit_core::parallel::resolve_threads;
use nexit_core::{DisclosurePolicy, NexitConfig, PreferenceMapper, SessionInput, Side, TableArena};
use nexit_proto::agent::{Agent, AgentOutcome, ProtoError};
use nexit_proto::channel::{FaultConfig, FaultyLink};
use nexit_proto::driver::{SessionPump, StepLimits};
use nexit_routing::Assignment;
use std::collections::VecDeque;

pub use nexit_proto::reliable::ReliableConfig;

/// Everything the broker needs to serve one negotiation pair: the shared
/// session parameters plus each side's private objective and disclosure
/// policy, and the (possibly faulty) link characteristics.
///
/// The pair's **id** is its index in the batch passed to
/// [`Broker::run_pairs`]; results come back in the same order.
pub struct SessionSpec<'a> {
    /// The negotiated flow set (identical on both sides).
    pub input: SessionInput,
    /// The pre-negotiation assignment of all pair flows.
    pub default_assignment: Assignment,
    /// The A-side (upstream) ISP's private objective.
    pub mapper_a: Box<dyn PreferenceMapper + Send + 'a>,
    /// The B-side (downstream) ISP's private objective.
    pub mapper_b: Box<dyn PreferenceMapper + Send + 'a>,
    /// A's disclosure policy (truthful, or a §5.4 cheater).
    pub disclosure_a: DisclosurePolicy,
    /// B's disclosure policy.
    pub disclosure_b: DisclosurePolicy,
    /// The contractually agreed protocol configuration.
    pub config: NexitConfig,
    /// Fault injection on the A→B link.
    pub faults_ab: FaultConfig,
    /// Fault injection on the B→A link.
    pub faults_ba: FaultConfig,
    /// Seed for the links' fault randomness (per session, so fault
    /// patterns are independent of scheduling).
    pub link_seed: u64,
}

impl<'a> SessionSpec<'a> {
    /// A spec for two honest parties over reliable links.
    pub fn honest(
        input: SessionInput,
        default_assignment: Assignment,
        mapper_a: impl PreferenceMapper + Send + 'a,
        mapper_b: impl PreferenceMapper + Send + 'a,
        config: NexitConfig,
    ) -> Self {
        Self {
            input,
            default_assignment,
            mapper_a: Box::new(mapper_a),
            mapper_b: Box::new(mapper_b),
            disclosure_a: DisclosurePolicy::Truthful,
            disclosure_b: DisclosurePolicy::Truthful,
            config,
            faults_ab: FaultConfig::RELIABLE,
            faults_ba: FaultConfig::RELIABLE,
            link_seed: 0,
        }
    }

    /// Replace both links' fault configuration.
    pub fn with_faults(mut self, faults: FaultConfig, link_seed: u64) -> Self {
        self.faults_ab = faults;
        self.faults_ba = faults;
        self.link_seed = link_seed;
        self
    }
}

/// Broker tuning knobs. The defaults serve well-behaved sessions without
/// ever parking; shrink `queue_capacity` / `deliver_budget` to model slow
/// peers and exercise backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerConfig {
    /// Worker threads: 0 = one per available core, 1 = serial, N = N.
    /// Results are byte-identical for every setting.
    pub workers: usize,
    /// Concurrent sessions per worker (admission control). Pending
    /// sessions wait, and retired sessions' buffers are recycled into
    /// the slots they free.
    pub max_active: usize,
    /// Per-direction bound on frames in flight. A full queue parks the
    /// sending session until deliveries drain it.
    pub queue_capacity: usize,
    /// Frames delivered to a peer per direction per tick (models peer
    /// consumption rate).
    pub deliver_budget: usize,
    /// Run every session through the [`nexit_proto::reliable`] ARQ
    /// layer with these knobs. `None` (the default) keeps the raw
    /// fail-fast wire path: any injected fault kills its session.
    pub reliability: Option<ReliableConfig>,
    /// Tick budget per session; a session still unfinished after this
    /// many of its own poll ticks fails with
    /// [`ProtoError::DeadlineExceeded`]. `0` = unlimited.
    pub session_deadline: u64,
    /// Fall back to the spec's default early-exit assignment when a
    /// session terminally fails ([`PairResult::Degraded`]), instead of
    /// reporting only the failure.
    pub degrade_to_default: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            max_active: 512,
            queue_capacity: 64,
            deliver_budget: 64,
            reliability: None,
            session_deadline: 0,
            degrade_to_default: false,
        }
    }
}

impl BrokerConfig {
    /// Default configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Enable the ARQ reliability layer for every session.
    pub fn with_reliability(mut self, arq: ReliableConfig) -> Self {
        self.reliability = Some(arq);
        self
    }

    /// Set the per-session tick deadline (`0` = unlimited).
    pub fn with_deadline(mut self, ticks: u64) -> Self {
        self.session_deadline = ticks;
        self
    }

    /// Enable graceful degradation to the default assignment.
    pub fn with_degradation(mut self) -> Self {
        self.degrade_to_default = true;
        self
    }
}

/// Consecutive ticks a session may move nothing before it is failed with
/// [`ProtoError::Stalled`]. The lock-step protocol stalls for good on the
/// first idle tick; the grace is cheap insurance against multi-tick
/// shapes. Sessions with unacked ARQ frames are exempt — the retransmit
/// timers schedule their progress, and the retry budget and
/// `session_deadline` bound it.
const STALL_TICKS: usize = 16;

/// Both sides' outcomes for one completed pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// A's machine outcome.
    pub a: AgentOutcome,
    /// B's machine outcome.
    pub b: AgentOutcome,
}

/// Why a pair's session failed. Failure is always clean and isolated:
/// the error names the offending session only, and sibling sessions are
/// unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionFailure {
    /// The protocol error that killed the session.
    pub error: ProtoError,
    /// The side whose agent rejected a frame (decode/protocol errors)
    /// or whose transmissions went unacked (retry exhaustion); `None`
    /// for stalls, deadlines and admission errors.
    pub side: Option<Side>,
}

/// One pair's result: the negotiated outcome, the degraded fallback, or
/// a bare failure. `Degraded` only appears with
/// [`BrokerConfig::degrade_to_default`] set; it is the paper's status
/// quo — when negotiation is unavailable, traffic keeps flowing on the
/// default early-exit routes.
#[derive(Debug, Clone, PartialEq)]
pub enum PairResult {
    /// The session completed; both sides' machine outcomes.
    Negotiated(PairOutcome),
    /// The session terminally failed but the broker fell back to the
    /// spec's default assignment: the pair still has usable routing.
    Degraded {
        /// The default early-exit assignment from the session's spec.
        assignment: Assignment,
        /// Why negotiation was abandoned.
        failure: SessionFailure,
    },
    /// The session terminally failed with no fallback.
    Failed(SessionFailure),
}

impl PairResult {
    /// The negotiated outcome, if the session completed.
    pub fn outcome(&self) -> Option<&PairOutcome> {
        match self {
            PairResult::Negotiated(out) => Some(out),
            _ => None,
        }
    }

    /// The usable assignment, if any: the negotiated one, or the
    /// degraded fallback. `None` only for `Failed`.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            PairResult::Negotiated(out) => Some(&out.a.assignment),
            PairResult::Degraded { assignment, .. } => Some(assignment),
            PairResult::Failed(_) => None,
        }
    }

    /// The underlying failure, for `Degraded` and `Failed`.
    pub fn failure(&self) -> Option<&SessionFailure> {
        match self {
            PairResult::Negotiated(_) => None,
            PairResult::Degraded { failure, .. } => Some(failure),
            PairResult::Failed(failure) => Some(failure),
        }
    }

    /// Whether the session completed with a negotiated outcome.
    pub fn is_negotiated(&self) -> bool {
        matches!(self, PairResult::Negotiated(_))
    }

    /// Whether the session fell back to the default assignment.
    pub fn is_degraded(&self) -> bool {
        matches!(self, PairResult::Degraded { .. })
    }

    /// Whether the session failed with no usable assignment.
    pub fn is_failed(&self) -> bool {
        matches!(self, PairResult::Failed(_))
    }
}

/// Aggregate counters across all workers of one [`Broker::run_pairs`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Sessions submitted.
    pub sessions: usize,
    /// Sessions that completed with negotiated outcomes.
    pub completed: usize,
    /// Sessions that failed with no usable result (admission, protocol
    /// error, stall, retry exhaustion or deadline — and degradation
    /// off).
    pub failed: usize,
    /// Completed sessions that recovered from at least one injected
    /// link fault (a subset of `completed`; only nonzero with the ARQ
    /// layer on).
    pub recovered: usize,
    /// Sessions that terminally failed but fell back to the default
    /// assignment ([`PairResult::Degraded`]).
    pub degraded: usize,
    /// ARQ frames retransmitted across all sessions.
    pub retransmits: u64,
    /// Wire frames moved.
    pub frames: u64,
    /// Wire bytes moved.
    pub bytes: u64,
    /// Poll-loop iterations, summed over workers.
    pub ticks: u64,
    /// Session-ticks spent parked on a full frame queue (backpressure).
    pub parked: u64,
    /// Highest concurrent session count observed on any worker.
    pub peak_active: usize,
}

impl BrokerStats {
    fn absorb(&mut self, other: &BrokerStats) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.recovered += other.recovered;
        self.degraded += other.degraded;
        self.retransmits += other.retransmits;
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.ticks += other.ticks;
        self.parked += other.parked;
        self.peak_active = self.peak_active.max(other.peak_active);
    }
}

/// Result of one [`Broker::run_pairs`] batch: per-pair results in
/// submission order, plus the aggregate counters.
#[derive(Debug)]
pub struct BrokerRun {
    /// One slot per submitted spec, in order (slot `i` = pair id `i`).
    pub results: Vec<PairResult>,
    /// Aggregate counters across all workers.
    pub stats: BrokerStats,
}

/// The session broker. See the crate docs for the event-loop shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Broker {
    config: BrokerConfig,
}

impl Broker {
    /// A broker with the given configuration.
    pub fn new(config: BrokerConfig) -> Self {
        Self { config }
    }

    /// This broker's configuration.
    pub fn config(&self) -> &BrokerConfig {
        &self.config
    }

    /// Serve every spec'd pair to completion and return per-pair results
    /// in submission order. Sessions are sharded round-robin across
    /// workers; outcomes are byte-identical for any worker count.
    pub fn run_pairs<'a>(&self, specs: Vec<SessionSpec<'a>>) -> BrokerRun {
        let n = specs.len();
        let mut stats = BrokerStats {
            sessions: n,
            ..BrokerStats::default()
        };
        if n == 0 {
            return BrokerRun {
                results: Vec::new(),
                stats,
            };
        }
        let workers = resolve_threads(self.config.workers).min(n).max(1);
        // Round-robin sharding: session i belongs to worker i % W. Any
        // partition yields identical results (sessions are independent);
        // this one balances mixed-size batches.
        let mut shards: Vec<Vec<(usize, SessionSpec<'a>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, spec) in specs.into_iter().enumerate() {
            shards[i % workers].push((i, spec));
        }
        let config = &self.config;
        let worker_outputs: Vec<ShardOutput> = if workers == 1 {
            shards.into_iter().map(|s| run_shard(config, s)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .into_iter()
                    .map(|shard| scope.spawn(move || run_shard(config, shard)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("broker worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<PairResult>> = (0..n).map(|_| None).collect();
        for (results, shard_stats) in worker_outputs {
            stats.absorb(&shard_stats);
            for (id, result) in results {
                slots[id] = Some(result);
            }
        }

        BrokerRun {
            results: slots
                .into_iter()
                .map(|slot| slot.expect("every session reports exactly once"))
                .collect(),
            stats,
        }
    }
}

/// One live session inside a worker: two agents, two bounded links, the
/// pump that moves frames between them, and the tick bookkeeping.
struct ActiveSession<'a> {
    id: usize,
    agent_a: Agent<'a>,
    agent_b: Agent<'a>,
    link_ab: FaultyLink,
    link_ba: FaultyLink,
    pump: SessionPump,
    /// The spec's default assignment, kept for graceful degradation.
    default_assignment: Assignment,
    idle_ticks: usize,
    /// Poll ticks this session has consumed (the deadline currency).
    ticks_used: u64,
}

/// A worker's output: `(pair id, result)` in retirement order, plus the
/// worker's counters.
type ShardOutput = (Vec<(usize, PairResult)>, BrokerStats);

/// Wrap a terminal failure per the degradation policy: the default
/// assignment (the paper's status-quo routing) when degradation is on,
/// the bare failure otherwise.
fn resolve_failure(degrade: bool, fallback: Assignment, failure: SessionFailure) -> PairResult {
    if degrade {
        PairResult::Degraded {
            assignment: fallback,
            failure,
        }
    } else {
        PairResult::Failed(failure)
    }
}

/// One worker: admit from the pending queue up to the active cap, poll
/// every active session once per tick, retire terminal sessions into the
/// arena, repeat until the shard is drained.
fn run_shard<'a>(config: &BrokerConfig, specs: Vec<(usize, SessionSpec<'a>)>) -> ShardOutput {
    let mut results = Vec::with_capacity(specs.len());
    let mut pending: VecDeque<(usize, SessionSpec<'a>)> = specs.into();
    let mut active: Vec<ActiveSession<'a>> = Vec::new();
    let mut arena = TableArena::new();
    let mut stats = BrokerStats::default();

    while !pending.is_empty() || !active.is_empty() {
        stats.ticks += 1;
        // Admission: fill freed slots from the pending queue. Admission
        // failures obey the degradation policy like any terminal
        // failure — the pair still gets its default assignment.
        while active.len() < config.max_active.max(1) {
            let Some((id, spec)) = pending.pop_front() else {
                break;
            };
            match admit(&mut arena, config, id, spec) {
                Ok(session) => active.push(session),
                Err((fallback, failure)) => {
                    let result = resolve_failure(config.degrade_to_default, fallback, failure);
                    match &result {
                        PairResult::Degraded { .. } => stats.degraded += 1,
                        _ => stats.failed += 1,
                    }
                    results.push((id, result));
                }
            }
        }
        stats.peak_active = stats.peak_active.max(active.len());

        // Poll every active session once; retire terminal ones in place.
        let mut i = 0;
        while i < active.len() {
            let Some(end) = tick(config, &mut active[i], &mut stats) else {
                i += 1;
                continue;
            };
            let session = active.swap_remove(i);
            stats.frames += session.pump.frames();
            stats.bytes += session.pump.bytes();
            stats.retransmits += session.pump.retransmits();
            let link_faults = session.link_ab.dropped
                + session.link_ab.corrupted
                + session.link_ab.duplicated
                + session.link_ab.reordered
                + session.link_ba.dropped
                + session.link_ba.corrupted
                + session.link_ba.duplicated
                + session.link_ba.reordered;
            let result = match end {
                Ok(outcome) => PairResult::Negotiated(outcome),
                Err(failure) => resolve_failure(
                    config.degrade_to_default,
                    session.default_assignment,
                    failure,
                ),
            };
            match &result {
                PairResult::Negotiated(_) => {
                    stats.completed += 1;
                    if link_faults > 0 {
                        stats.recovered += 1;
                    }
                }
                PairResult::Degraded { .. } => stats.degraded += 1,
                PairResult::Failed(_) => stats.failed += 1,
            }
            results.push((session.id, result));
            session.agent_a.recycle(&mut arena);
            session.agent_b.recycle(&mut arena);
        }
    }
    (results, stats)
}

/// Construct a session's two agents from its spec, drawing buffers from
/// the worker's arena. Failure returns the spec's default assignment
/// alongside the error so the caller can apply the degradation policy.
fn admit<'a>(
    arena: &mut TableArena,
    config: &BrokerConfig,
    id: usize,
    spec: SessionSpec<'a>,
) -> Result<ActiveSession<'a>, (Assignment, SessionFailure)> {
    let fallback = spec.default_assignment.clone();
    let failure = |error, side| SessionFailure {
        error,
        side: Some(side),
    };
    // A works on copies; B takes the spec's own input and assignment.
    let agent_a = Agent::new_in(
        arena,
        Side::A,
        format!("pair{id}-A"),
        spec.input.clone(),
        spec.default_assignment.clone(),
        spec.mapper_a,
        spec.disclosure_a,
        spec.config,
    );
    let mut agent_a = match agent_a {
        Ok(agent) => agent,
        Err(error) => return Err((fallback, failure(error, Side::A))),
    };
    let agent_b = Agent::new_in(
        arena,
        Side::B,
        format!("pair{id}-B"),
        spec.input,
        spec.default_assignment,
        spec.mapper_b,
        spec.disclosure_b,
        spec.config,
    );
    let mut agent_b = match agent_b {
        Ok(agent) => agent,
        Err(error) => {
            agent_a.recycle(arena);
            return Err((fallback, failure(error, Side::B)));
        }
    };
    // Under the dedup window a replayed frame is absorbed, not a
    // protocol violation; the raw link keeps strict semantics.
    agent_a.set_replay_tolerance(config.reliability.is_some());
    agent_b.set_replay_tolerance(config.reliability.is_some());
    Ok(ActiveSession {
        id,
        agent_a,
        agent_b,
        link_ab: FaultyLink::new(spec.faults_ab, spec.link_seed),
        link_ba: FaultyLink::new(spec.faults_ba, spec.link_seed ^ 0x9e37_79b9_7f4a_7c15),
        pump: SessionPump::new(config.reliability),
        default_assignment: fallback,
        idle_ticks: 0,
        ticks_used: 0,
    })
}

/// One poll tick for one session: one pump step within the configured
/// queue bounds, then completion, deadline, retransmit timers and the
/// stall detector, in that order. Returns how the session ended, if this
/// tick ended it.
fn tick(
    config: &BrokerConfig,
    session: &mut ActiveSession<'_>,
    stats: &mut BrokerStats,
) -> Option<Result<PairOutcome, SessionFailure>> {
    let failed = |error, side| Some(Err(SessionFailure { error, side }));
    session.ticks_used += 1;
    let limits = StepLimits {
        queue_capacity: config.queue_capacity,
        deliver_budget: config.deliver_budget,
    };
    let step = session.pump.step(
        &mut session.agent_a,
        &mut session.agent_b,
        &mut session.link_ab,
        &mut session.link_ba,
        limits,
    );
    let report = match step {
        Ok(report) => report,
        Err((error, side)) => return failed(error, Some(side)),
    };

    if report.done {
        return match (session.agent_a.outcome(), session.agent_b.outcome()) {
            (Some(a), Some(b)) => Some(Ok(PairOutcome { a, b })),
            // An agent terminal without an outcome failed its handshake.
            _ => failed(ProtoError::Closed, None),
        };
    }

    if config.session_deadline > 0 && session.ticks_used >= config.session_deadline {
        let error = ProtoError::DeadlineExceeded {
            ticks: config.session_deadline,
        };
        return failed(error, None);
    }

    // Budget exhaustion is terminal, blamed on the side whose
    // transmissions went unacked.
    if let Err((error, side)) = session.pump.on_tick() {
        return failed(error, Some(side));
    }

    if report.parked {
        stats.parked += 1;
    }
    // The stall detector only watches sessions with no scheduled
    // progress: unacked frames mean a retransmit timer will fire, so
    // termination is bounded by the retry budget instead.
    if report.moved || session.pump.has_unacked() {
        session.idle_ticks = 0;
        return None;
    }
    // Nothing to send, nothing to deliver, nobody finished: a lost frame
    // stalled the lock-step exchange. Fail this session alone — with
    // both queues' state, so a dropped-frame stall is diagnosable.
    session.idle_ticks += 1;
    if session.idle_ticks < STALL_TICKS {
        return None;
    }
    let error = ProtoError::Stalled {
        in_flight_ab: session.link_ab.in_flight(),
        in_flight_ba: session.link_ba.in_flight(),
    };
    failed(error, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_core::{negotiate, GainTable, Party, SessionError};
    use nexit_routing::FlowId;
    use nexit_topology::IcxId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fixed-table mapper (the broker test workload).
    #[derive(Clone)]
    struct TableMapper {
        gains: GainTable,
    }

    impl PreferenceMapper for TableMapper {
        fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
            for (row, flow) in i.flow_ids.iter().enumerate() {
                out.row_mut(row)
                    .copy_from_slice(self.gains.row(flow.index()));
            }
        }
    }

    fn synthetic_gains(n: usize, k: usize, seed: u64) -> GainTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gains = GainTable::new(n, k);
        for f in 0..n {
            let row = gains.row_mut(f);
            for cell in row.iter_mut() {
                *cell = rng.gen_range(-50.0..50.0);
            }
            row[0] = 0.0;
        }
        gains
    }

    fn input(n: usize, k: usize) -> SessionInput {
        SessionInput {
            flow_ids: (0..n).map(FlowId::new).collect(),
            defaults: vec![IcxId(0); n],
            volumes: vec![1.0; n],
            num_alternatives: k,
        }
    }

    fn spec(pair: u64, n: usize, k: usize) -> SessionSpec<'static> {
        SessionSpec::honest(
            input(n, k),
            Assignment::uniform(n, IcxId(0)),
            TableMapper {
                gains: synthetic_gains(n, k, 2 * pair),
            },
            TableMapper {
                gains: synthetic_gains(n, k, 2 * pair + 1),
            },
            NexitConfig::win_win(),
        )
    }

    fn engine_reference(pair: u64, n: usize, k: usize) -> nexit_core::NegotiationOutcome {
        let mut a = Party::honest(
            "A",
            TableMapper {
                gains: synthetic_gains(n, k, 2 * pair),
            },
        );
        let mut b = Party::honest(
            "B",
            TableMapper {
                gains: synthetic_gains(n, k, 2 * pair + 1),
            },
        );
        negotiate(
            &input(n, k),
            &Assignment::uniform(n, IcxId(0)),
            &mut a,
            &mut b,
            &NexitConfig::win_win(),
        )
    }

    fn assert_matches_engine(pair: u64, n: usize, k: usize, out: &PairOutcome) {
        let reference = engine_reference(pair, n, k);
        assert_eq!(
            reference.assignment.choices(),
            out.a.assignment.choices(),
            "pair {pair}: broker assignment diverged from engine"
        );
        assert_eq!(out.a.assignment, out.b.assignment);
        assert_eq!(reference.gain_a, out.a.my_gain);
        assert_eq!(reference.gain_b, out.b.my_gain);
        assert_eq!(reference.termination, out.a.termination);
        assert_eq!(reference.reassignments, out.a.reassignments);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let run = Broker::default().run_pairs(Vec::new());
        assert!(run.results.is_empty());
        assert_eq!(run.stats, BrokerStats::default());
    }

    #[test]
    fn admission_control_bounds_active_sessions() {
        let specs: Vec<_> = (0..64).map(|p| spec(p, 6, 3)).collect();
        let config = BrokerConfig {
            workers: 1,
            max_active: 8,
            ..BrokerConfig::default()
        };
        let run = Broker::new(config).run_pairs(specs);
        assert_eq!(run.stats.completed, 64);
        assert!(
            run.stats.peak_active <= 8,
            "active sessions exceeded the admission cap: {}",
            run.stats.peak_active
        );
    }

    #[test]
    fn backpressure_parks_sessions_but_all_complete() {
        // Tiny queues and a one-frame-per-tick consumer: the handshake
        // burst alone (Hello + FlowAnnounce + PrefList) overflows the
        // A→B queue, so sessions must park and resume.
        let specs: Vec<_> = (0..24).map(|p| spec(p, 10, 3)).collect();
        let config = BrokerConfig {
            workers: 1,
            max_active: 6,
            queue_capacity: 1,
            deliver_budget: 1,
            ..BrokerConfig::default()
        };
        let run = Broker::new(config).run_pairs(specs);
        assert_eq!(run.stats.completed, 24, "parked sessions must finish");
        assert!(
            run.stats.parked > 0,
            "queue_capacity=1 must trigger backpressure parking"
        );
        for (p, result) in run.results.iter().enumerate() {
            assert_matches_engine(p as u64, 10, 3, result.outcome().unwrap());
        }
    }

    #[test]
    fn dropped_frames_stall_cleanly_with_queue_state() {
        let specs = vec![
            spec(0, 6, 3),
            spec(1, 6, 3).with_faults(
                FaultConfig {
                    drop_chance: 1.0,
                    ..FaultConfig::RELIABLE
                },
                3,
            ),
        ];
        let run = Broker::new(BrokerConfig::with_workers(1)).run_pairs(specs);
        assert_matches_engine(0, 6, 3, run.results[0].outcome().unwrap());
        let failure = run.results[1].failure().expect("faulty pair failed");
        match failure.error {
            ProtoError::Stalled {
                in_flight_ab,
                in_flight_ba,
            } => {
                // Every frame was dropped outright: the stall reports
                // empty queues, distinguishing loss from backlog.
                assert_eq!(in_flight_ab, 0);
                assert_eq!(in_flight_ba, 0);
            }
            ref other => panic!("expected a stall, got {other:?}"),
        }
        assert!(failure.side.is_none(), "stalls blame no side");
    }

    #[test]
    fn invalid_spec_is_rejected_at_admission_without_poisoning_the_shard() {
        // InflateBest on side A is rejected by the wire protocol (A must
        // disclose first); a preference range beyond the candidate
        // index's 256 is an invalid session. Either admission failure
        // lands in that pair's slot; the sibling completes normally.
        let mut cheater = spec(0, 4, 2);
        cheater.disclosure_a = DisclosurePolicy::InflateBest;
        let mut too_wide = spec(0, 4, 2);
        too_wide.config.pref_range = 257;
        let admit = |bad| {
            let run =
                Broker::new(BrokerConfig::with_workers(1)).run_pairs(vec![bad, spec(1, 4, 2)]);
            assert_matches_engine(1, 4, 2, run.results[1].outcome().unwrap());
            let failure = run.results[0].failure().expect("bad spec rejected");
            assert_eq!(failure.side, Some(Side::A));
            failure.error.clone()
        };
        assert!(matches!(admit(cheater), ProtoError::UnsupportedDisclosure));
        assert!(matches!(
            admit(too_wide),
            ProtoError::InvalidSession(SessionError::IndexLimit(_))
        ));
    }

    #[test]
    fn stats_count_frames_and_bytes() {
        let run = Broker::new(BrokerConfig::with_workers(1)).run_pairs(vec![spec(0, 6, 3)]);
        assert_eq!(run.stats.sessions, 1);
        assert_eq!(run.stats.completed, 1);
        // At minimum: 2 Hellos, FlowAnnounce, 2 PrefLists, Stop/Bye.
        assert!(run.stats.frames >= 6, "frames = {}", run.stats.frames);
        assert!(run.stats.bytes > run.stats.frames, "frames carry payload");
        assert!(run.stats.ticks > 0);
    }

    #[test]
    fn degradation_falls_back_to_the_default_assignment() {
        // A hopeless link (every frame corrupted, ARQ off) with
        // degradation on: the pair still yields a usable assignment —
        // the spec's default — tagged with the underlying failure.
        let specs = vec![
            spec(0, 6, 3),
            spec(1, 6, 3).with_faults(
                FaultConfig {
                    corrupt_chance: 1.0,
                    ..FaultConfig::RELIABLE
                },
                21,
            ),
        ];
        let config = BrokerConfig::with_workers(1).with_degradation();
        let run = Broker::new(config).run_pairs(specs);
        assert_eq!(run.stats.completed, 1);
        assert_eq!(run.stats.degraded, 1);
        assert_eq!(run.stats.failed, 0, "degradation replaces bare failure");
        assert_matches_engine(0, 6, 3, run.results[0].outcome().unwrap());
        assert!(run.results[1].is_degraded());
        assert_eq!(
            run.results[1].assignment().unwrap(),
            &Assignment::uniform(6, IcxId(0)),
            "degraded pair must carry the default early-exit assignment"
        );
        assert!(run.results[1].failure().is_some());
    }

    #[test]
    fn retry_budget_exhaustion_fails_or_degrades_dead_links() {
        // Total frame loss with ARQ on: the retry budget, not the stall
        // detector, terminates the session (retransmit backoff can
        // exceed STALL_TICKS, so the stall path must stay out of it).
        let dead = FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::RELIABLE
        };
        let specs = vec![spec(0, 6, 3).with_faults(dead, 5)];
        let config = BrokerConfig::with_workers(1).with_reliability(ReliableConfig::default());
        let run = Broker::new(config).run_pairs(specs);
        let failure = run.results[0].failure().expect("dead link must fail");
        assert!(
            matches!(failure.error, ProtoError::RetryExhausted { .. }),
            "expected retry exhaustion, got {:?}",
            failure.error
        );
        // Same link with degradation: the pair keeps default routing.
        let specs = vec![spec(0, 6, 3).with_faults(dead, 5)];
        let run = Broker::new(config.with_degradation()).run_pairs(specs);
        assert!(run.results[0].is_degraded());
        assert_eq!(run.stats.degraded, 1);
    }

    #[test]
    fn session_deadline_bounds_ticks() {
        // An honest session needs a handful of ticks; a 2-tick deadline
        // must cut it off with DeadlineExceeded.
        let specs = vec![spec(0, 8, 3)];
        let config = BrokerConfig::with_workers(1).with_deadline(2);
        let run = Broker::new(config).run_pairs(specs);
        let failure = run.results[0].failure().expect("deadline must fire");
        assert!(
            matches!(failure.error, ProtoError::DeadlineExceeded { ticks: 2 }),
            "expected a deadline failure, got {:?}",
            failure.error
        );
        assert_eq!(run.stats.ticks, 2, "the session ends on its deadline tick");
        // A generous deadline leaves the session untouched.
        let specs = vec![spec(0, 8, 3)];
        let run = Broker::new(BrokerConfig::with_workers(1).with_deadline(10_000)).run_pairs(specs);
        assert_matches_engine(0, 8, 3, run.results[0].outcome().unwrap());
    }
}
