//! The session pump: the one loop that moves frames between two agents.
//!
//! Everything that drives a pair of [`Agent`]s over a pair of
//! [`FaultyLink`]s — [`run_session`], [`crate::reliable::run_reliable_session`]
//! and every `nexit-broker` worker — calls [`SessionPump::step`] and adds
//! only its own termination policy (stall, tick budget, deadline). Whether
//! a session talks over the raw link or through the [`crate::reliable`]
//! ARQ layer is decided once, by [`SessionPump::new`], and is invisible to
//! the callers.
//!
//! One step, in order: A's frames onto the A→B link, B's frames onto the
//! B→A link (each stopping at `queue_capacity`), up to `deliver_budget`
//! wire units off the A→B link into B, the same from B→A into A. Every
//! wire unit reaches the transport on its own — a corrupted unit poisons
//! only itself.
//!
//! The pump copies no frame. A wire unit is the `Vec` its writer filled:
//! it moves from the agent (or the ARQ endpoint) onto the link and off
//! it again, the receiving agent reads it as a borrowed slice — the unit
//! itself on the raw link, each frame the endpoint releases under ARQ —
//! and the spent `Vec` goes into the receiving side's bounded buffer pool
//! ([`Agent::reclaim`], [`ReliableEndpoint::reclaim`]) to become one of
//! that side's next frames.

use crate::agent::{Agent, AgentOutcome, ProtoError};
use crate::channel::FaultyLink;
use crate::reliable::{ReliableConfig, ReliableEndpoint};
use nexit_core::Side;

/// One side's transport end: what sits between an agent and its link.
// Inline, as the broker always held its endpoints: a `Box` would add two
// allocations to every ARQ session to shrink only the raw ones.
#[allow(clippy::large_enum_variant)]
enum Transport {
    /// Frames go onto the wire as they are, straight from the agent.
    Direct,
    /// Frames are sequenced, acknowledged and retransmitted.
    Arq(ReliableEndpoint),
}

impl Transport {
    /// Take over the frames `agent` has ready, whether or not the link
    /// has room: a frame's retransmit timer runs from here. The raw link
    /// keeps nothing, so there they wait in the agent's own outbox.
    fn accept(&mut self, agent: &mut Agent<'_>) {
        if let Transport::Arq(endpoint) = self {
            while let Some(frame) = agent.poll_transmit() {
                endpoint.send(&frame);
                agent.reclaim(frame);
            }
        }
    }

    /// The next wire unit for the link.
    fn poll_transmit(&mut self, agent: &mut Agent<'_>) -> Option<Vec<u8>> {
        match self {
            Transport::Direct => agent.poll_transmit(),
            Transport::Arq(endpoint) => endpoint.poll_transmit(),
        }
    }

    /// Take one wire unit off the link, feed the agent whatever it
    /// releases, in order, and keep the spent buffers on this side.
    fn on_datagram(&mut self, unit: Vec<u8>, agent: &mut Agent<'_>) -> Result<(), ProtoError> {
        match self {
            Transport::Direct => {
                let handled = agent.handle_bytes(&unit);
                agent.reclaim(unit);
                handled
            }
            Transport::Arq(endpoint) => {
                endpoint.on_datagram(&unit);
                endpoint.reclaim(unit);
                while let Some(frame) = endpoint.poll_deliver() {
                    let handled = agent.handle_bytes(&frame);
                    endpoint.reclaim(frame);
                    handled?;
                }
                Ok(())
            }
        }
    }

    fn on_tick(&mut self) -> Result<(), ProtoError> {
        match self {
            Transport::Direct => Ok(()),
            Transport::Arq(endpoint) => endpoint.on_tick(),
        }
    }

    /// Whether a retransmit timer still has work scheduled.
    fn has_unacked(&self) -> bool {
        match self {
            Transport::Direct => false,
            Transport::Arq(endpoint) => endpoint.has_pending(),
        }
    }

    fn retransmits(&self) -> u64 {
        match self {
            Transport::Direct => 0,
            Transport::Arq(endpoint) => endpoint.stats().retransmits,
        }
    }

    /// Whether nothing this end sent can still change the peer's state.
    /// On the raw link an agent that [`Agent::is_done`] has emptied its
    /// outbox, so the frames are on `link` or delivered. Under ARQ both
    /// agents being done means every frame was delivered, and what is
    /// left on the link is acks and answered retransmits.
    fn settled(&self, link: &FaultyLink) -> bool {
        match self {
            Transport::Direct => link.in_flight() == 0,
            Transport::Arq(_) => true,
        }
    }
}

/// Per-step bounds on one session's links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepLimits {
    /// Wire units a link holds before its sender is parked.
    pub queue_capacity: usize,
    /// Wire units taken off each link per step.
    pub deliver_budget: usize,
}

impl StepLimits {
    /// No bounds: every step moves everything there is to move.
    pub const UNBOUNDED: StepLimits = StepLimits {
        queue_capacity: usize::MAX,
        deliver_budget: usize::MAX,
    };
}

/// What one [`SessionPump::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// A wire unit entered or left a link, or bytes reached an agent.
    pub moved: bool,
    /// A full link held a sender back.
    pub parked: bool,
    /// Both agents are terminal and nothing in flight can change that;
    /// their [`Agent::outcome`]s are final.
    pub done: bool,
}

/// The frame-moving state of one session: a transport end per side plus
/// the wire counters (kept here, not in [`StepReport`], so that what a
/// failing step put on the wire is still counted). The agents and links
/// stay with the caller.
pub struct SessionPump {
    end_a: Transport,
    end_b: Transport,
    frames: u64,
    bytes: u64,
}

impl SessionPump {
    /// A pump over the raw link (`None`: any fault is fatal to the
    /// session) or through a pair of ARQ endpoints.
    pub fn new(reliability: Option<ReliableConfig>) -> Self {
        let end = || match reliability {
            None => Transport::Direct,
            Some(config) => Transport::Arq(ReliableEndpoint::new(config)),
        };
        Self {
            end_a: end(),
            end_b: end(),
            frames: 0,
            bytes: 0,
        }
    }

    /// Move frames once around the session (see the module docs for the
    /// order). An agent rejecting what it was fed is fatal and is
    /// returned with that agent's side.
    pub fn step(
        &mut self,
        agent_a: &mut Agent<'_>,
        agent_b: &mut Agent<'_>,
        link_ab: &mut FaultyLink,
        link_ba: &mut FaultyLink,
        limits: StepLimits,
    ) -> Result<StepReport, (ProtoError, Side)> {
        let mut report = StepReport::default();
        self.transmit(Side::A, agent_a, link_ab, limits, &mut report);
        self.transmit(Side::B, agent_b, link_ba, limits, &mut report);
        self.deliver(Side::B, link_ab, agent_b, limits, &mut report)?;
        self.deliver(Side::A, link_ba, agent_a, limits, &mut report)?;
        report.done = agent_a.is_done()
            && agent_b.is_done()
            && self.end_a.settled(link_ab)
            && self.end_b.settled(link_ba);
        Ok(report)
    }

    /// `from`'s agent → its transport end → its link, while the link has
    /// room.
    fn transmit(
        &mut self,
        from: Side,
        agent: &mut Agent<'_>,
        link: &mut FaultyLink,
        limits: StepLimits,
        report: &mut StepReport,
    ) {
        let end = match from {
            Side::A => &mut self.end_a,
            Side::B => &mut self.end_b,
        };
        end.accept(agent);
        loop {
            if link.in_flight() >= limits.queue_capacity {
                report.parked = true;
                break;
            }
            let Some(unit) = end.poll_transmit(agent) else {
                break;
            };
            self.frames += 1;
            self.bytes += unit.len() as u64;
            link.send(unit);
            report.moved = true;
        }
    }

    /// `link` → `to`'s transport end → its agent.
    fn deliver(
        &mut self,
        to: Side,
        link: &mut FaultyLink,
        agent: &mut Agent<'_>,
        limits: StepLimits,
        report: &mut StepReport,
    ) -> Result<(), (ProtoError, Side)> {
        let end = match to {
            Side::A => &mut self.end_a,
            Side::B => &mut self.end_b,
        };
        for _ in 0..limits.deliver_budget {
            let Some(unit) = link.recv() else {
                break;
            };
            report.moved = true;
            end.on_datagram(unit, agent).map_err(|e| (e, to))?;
        }
        Ok(())
    }

    /// Advance both ends' retransmit timers by one tick. A frame out of
    /// retries is fatal and is returned with the side that sent it.
    pub fn on_tick(&mut self) -> Result<(), (ProtoError, Side)> {
        self.end_a.on_tick().map_err(|e| (e, Side::A))?;
        self.end_b.on_tick().map_err(|e| (e, Side::B))
    }

    /// Whether a retransmit timer still has work scheduled, so a step
    /// that moved nothing is a wait and not a stall. Never true on the
    /// raw link.
    pub fn has_unacked(&self) -> bool {
        self.end_a.has_unacked() || self.end_b.has_unacked()
    }

    /// Wire units put on the links so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Bytes put on the links so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Frames either end retransmitted so far.
    pub fn retransmits(&self) -> u64 {
        self.end_a.retransmits() + self.end_b.retransmits()
    }
}

/// Both outcomes of a session whose last step reported `done`.
pub(crate) fn outcomes(
    agent_a: &Agent<'_>,
    agent_b: &Agent<'_>,
) -> Result<(AgentOutcome, AgentOutcome), ProtoError> {
    let a = agent_a.outcome().ok_or(ProtoError::Closed)?;
    let b = agent_b.outcome().ok_or(ProtoError::Closed)?;
    Ok((a, b))
}

/// Step bound of [`run_session`]: every round is a handful of frames, so
/// anything beyond this is a livelock bug, not a long negotiation.
const MAX_STEPS: usize = 64 + 16 * 4096;

/// Pump both agents over a pair of (possibly faulty) raw links until
/// both sessions finish or either agent fails.
///
/// Returns the two outcomes `(A, B)` on success.
pub fn run_session(
    agent_a: &mut Agent<'_>,
    agent_b: &mut Agent<'_>,
    link_ab: &mut FaultyLink,
    link_ba: &mut FaultyLink,
) -> Result<(AgentOutcome, AgentOutcome), ProtoError> {
    let mut pump = SessionPump::new(None);
    for _ in 0..MAX_STEPS {
        let report = pump
            .step(agent_a, agent_b, link_ab, link_ba, StepLimits::UNBOUNDED)
            .map_err(|(error, _)| error)?;
        if report.done {
            return outcomes(agent_a, agent_b);
        }
        if !report.moved {
            break;
        }
    }
    // No frames moved and nobody finished: a lost frame (fault
    // injection) stalled the lock-step protocol. Empty queues mean the
    // missing frame was dropped outright, non-empty ones a backlog.
    Err(ProtoError::Stalled {
        in_flight_ab: link_ab.in_flight(),
        in_flight_ba: link_ba.in_flight(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::channel::FaultConfig;
    use nexit_core::{
        DisclosurePolicy, GainTable, NexitConfig, PreferenceMapper, SessionInput, Side,
    };
    use nexit_routing::{Assignment, FlowId};
    use nexit_topology::IcxId;

    struct TableMapper(GainTable);

    impl PreferenceMapper for TableMapper {
        fn gains(&mut self, i: &SessionInput, _c: &Assignment, out: &mut GainTable) {
            for (row, flow) in i.flow_ids.iter().enumerate() {
                out.row_mut(row).copy_from_slice(self.0.row(flow.index()));
            }
        }
    }

    /// Two honest agents over a 6-flow, 3-alternative session whose
    /// tables disagree enough to take several rounds.
    pub(crate) fn agents() -> (Agent<'static>, Agent<'static>) {
        let (flows, alts) = (6usize, 3usize);
        let agent = |side, tilt: f64| {
            let mut gains = GainTable::new(flows, alts);
            for f in 0..flows {
                for (a, cell) in gains.row_mut(f).iter_mut().enumerate().skip(1) {
                    *cell = tilt * ((f * 5 + a * 3) % 7) as f64 - 6.0;
                }
            }
            Agent::new(
                side,
                "test",
                SessionInput {
                    flow_ids: (0..flows).map(FlowId::new).collect(),
                    defaults: vec![IcxId(0); flows],
                    volumes: vec![1.0; flows],
                    num_alternatives: alts,
                },
                Assignment::uniform(flows, IcxId(0)),
                TableMapper(gains),
                DisclosurePolicy::Truthful,
                NexitConfig::win_win(),
            )
            .expect("valid session")
        };
        (agent(Side::A, 3.0), agent(Side::B, 4.0))
    }

    const ONE_AT_A_TIME: StepLimits = StepLimits {
        queue_capacity: 1,
        deliver_budget: 1,
    };

    #[test]
    fn bounded_steps_park_then_end_where_unbounded_ones_do() {
        let (mut a, mut b) = agents();
        let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
        let reference = run_session(&mut a, &mut b, &mut ab, &mut ba).expect("clean session");

        let (mut a, mut b) = agents();
        let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
        let mut pump = SessionPump::new(None);
        let mut parked = 0;
        let mut steps = 0;
        loop {
            let report = pump
                .step(&mut a, &mut b, &mut ab, &mut ba, ONE_AT_A_TIME)
                .expect("clean links");
            assert!(ab.in_flight() <= 1 && ba.in_flight() <= 1);
            parked += usize::from(report.parked);
            steps += 1;
            if report.done {
                break;
            }
            assert!(report.moved, "a clean session never idles");
            assert!(steps < 10_000, "bounded session must terminate");
        }
        assert!(
            parked > 0,
            "the handshake burst overflows a one-frame queue"
        );
        assert_eq!(outcomes(&a, &b).unwrap(), reference);
        // Wire units are counted as they enter a link, whatever the pace.
        let (mut a, mut b) = agents();
        let mut unbounded = SessionPump::new(None);
        while !unbounded
            .step(&mut a, &mut b, &mut ab, &mut ba, StepLimits::UNBOUNDED)
            .unwrap()
            .done
        {}
        assert_eq!(pump.frames(), unbounded.frames());
        assert_eq!(pump.bytes(), unbounded.bytes());
        assert!(pump.bytes() > pump.frames());
    }

    #[test]
    fn an_idle_raw_link_is_a_stall_and_an_idle_arq_link_a_wait() {
        // Nothing is ever delivered: after A's Hello is on the link no
        // step moves anything. Only unacked ARQ frames may excuse that.
        let frozen = StepLimits {
            queue_capacity: 8,
            deliver_budget: 0,
        };
        for (reliability, waits) in [(None, false), (Some(ReliableConfig::default()), true)] {
            let (mut a, mut b) = agents();
            let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
            let mut pump = SessionPump::new(reliability);
            let first = pump.step(&mut a, &mut b, &mut ab, &mut ba, frozen).unwrap();
            assert!(first.moved && !first.done);
            let second = pump.step(&mut a, &mut b, &mut ab, &mut ba, frozen).unwrap();
            assert!(!second.moved && !second.done);
            assert_eq!(pump.has_unacked(), waits);
            assert_eq!(ab.in_flight(), 1, "the Hello is queued, not lost");
        }
    }

    #[test]
    fn a_rejected_frame_blames_the_agent_that_rejected_it() {
        let (mut a, mut b) = agents();
        let corrupt = FaultConfig {
            corrupt_chance: 1.0,
            ..FaultConfig::RELIABLE
        };
        let (mut ab, mut ba) = (FaultyLink::new(corrupt, 3), FaultyLink::reliable());
        let mut pump = SessionPump::new(None);
        let (error, side) = pump
            .step(&mut a, &mut b, &mut ab, &mut ba, StepLimits::UNBOUNDED)
            .expect_err("B must reject A's corrupted Hello");
        assert!(matches!(
            error,
            ProtoError::Frame(_) | ProtoError::Message(_)
        ));
        assert_eq!(side, Side::B);
        assert_eq!(pump.frames(), 1, "the failing step's frame is counted");
    }

    #[test]
    fn a_dead_arq_link_runs_out_of_retries_on_the_sending_side() {
        let (mut a, mut b) = agents();
        let dead = FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::RELIABLE
        };
        let (mut ab, mut ba) = (FaultyLink::new(dead, 1), FaultyLink::new(dead, 2));
        let mut pump = SessionPump::new(Some(ReliableConfig::default()));
        let (error, side) = loop {
            let report = pump
                .step(&mut a, &mut b, &mut ab, &mut ba, StepLimits::UNBOUNDED)
                .expect("nothing arrives, so nothing is rejected");
            assert!(!report.done);
            assert!(pump.has_unacked(), "A's Hello is never acknowledged");
            if let Err(failure) = pump.on_tick() {
                break failure;
            }
        };
        // Only A ever had anything to send.
        assert!(matches!(error, ProtoError::RetryExhausted { seq: 0, .. }));
        assert_eq!(side, Side::A);
        assert_eq!(
            pump.retransmits(),
            ReliableConfig::default().retry_budget as u64
        );
        assert_eq!(pump.frames(), 1 + pump.retransmits());
    }
}
