//! Sans-IO ARQ reliability layer under the negotiation protocol.
//!
//! The wire protocol itself assumes a reliable, ordered transport; this
//! module supplies that assumption over a lossy link. Every outgoing
//! wire frame is wrapped in a sequenced `ArqData` envelope and held in a
//! retransmit queue until the peer's cumulative `ArqAck` covers it:
//!
//! ```text
//! +-----------+        ArqData { seq, inner frame }        +-----------+
//! |  Agent A  | -----------------------------------------> |  Agent B  |
//! | (codec)   | <----------------------------------------- | (codec)   |
//! +-----------+            ArqAck { cumulative }           +-----------+
//! ```
//!
//! * **Loss** — an unacked frame is retransmitted after a deterministic,
//!   tick-based timeout with exponential backoff, up to a bounded
//!   [`ReliableConfig::retry_budget`]; exhausting the budget surfaces
//!   [`ProtoError::RetryExhausted`] so the supervisor (broker /
//!   driver) can terminate or degrade the session.
//! * **Corruption** — a frame failing its CRC is *discarded and
//!   counted*, never fatal: the retransmit timer recovers it. This turns
//!   [`crate::frame::FrameError::BadCrc`] from session death into a
//!   transient.
//! * **Duplication / reordering** — the receiver keeps a cumulative
//!   in-order sequence cursor plus a bounded out-of-order window:
//!   duplicated frames are dropped (and re-acked, so a lost ack cannot
//!   wedge the sender), reordered frames are buffered and released in
//!   sequence.
//!
//! The endpoint is sans-IO in the same style as [`crate::agent::Agent`]:
//! feed received transport units with [`ReliableEndpoint::on_datagram`],
//! drain outgoing wire bytes with [`ReliableEndpoint::poll_transmit`],
//! pop recovered in-order frames with [`ReliableEndpoint::poll_deliver`],
//! and advance time with [`ReliableEndpoint::on_tick`]. Everything is
//! deterministic — no clocks, no randomness — so broker batches recover
//! byte-identically at any worker count.
//!
//! One caveat is inherited from CRC framing: after a corrupted frame the
//! byte stream has no trustworthy length field to resynchronize on, so
//! the endpoint consumes *datagrams* (one transport unit = the frames
//! handed to one [`on_datagram`](ReliableEndpoint::on_datagram) call,
//! e.g. one [`crate::channel::FaultyLink`] queue entry). A corrupt
//! prefix poisons only its own datagram, and retransmission re-delivers
//! the frames it carried.
//!
//! Frames are written once and read in place, as everywhere in this
//! crate. [`ReliableEndpoint::send`] writes the envelope (header,
//! sequence number, the inner frame, CRC) in one pass into a buffer from
//! the endpoint's bounded buffer pool; acks, retransmitted copies and
//! released inner frames use buffers from the same pool, and
//! [`ReliableEndpoint::reclaim`] takes spent ones back.
//! [`ReliableEndpoint::on_datagram`] runs [`parse_frame`] — the crate's
//! one frame parser, CRC check included — directly on the datagram.

use crate::agent::{Agent, AgentOutcome, ProtoError};
use crate::channel::FaultyLink;
use crate::driver::{outcomes, SessionPump, StepLimits};
use crate::frame::{begin_frame, finish_frame, parse_frame, FramePool, FRAME_OVERHEAD};
use std::collections::{BTreeMap, VecDeque};

/// Frame-type byte for a sequenced data envelope (`u32 seq || inner`).
pub const ARQ_DATA: u8 = 8;
/// Frame-type byte for a cumulative acknowledgement (`u32 next expected`).
pub const ARQ_ACK: u8 = 9;
/// Bytes an envelope's payload holds beyond the inner frame's payload:
/// the sequence number and the inner frame's own header and CRC. An
/// inner payload may be this much short of [`MAX_FRAME_PAYLOAD`].
pub(crate) const ENVELOPE_BYTES: usize = 4 + FRAME_OVERHEAD;

/// Tuning knobs for the ARQ layer. All timings are in abstract ticks
/// (one tick = one supervisor poll round), keeping the layer
/// deterministic and clock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Retransmissions allowed per frame before the session is declared
    /// dead ([`ProtoError::RetryExhausted`]).
    pub retry_budget: usize,
    /// Ticks an unacked frame waits before its first retransmission.
    pub retransmit_ticks: u64,
    /// Cap on the exponential backoff: the timeout doubles per retry up
    /// to `retransmit_ticks << backoff_cap`.
    pub backoff_cap: u32,
    /// Receive-side out-of-order window: frames up to this many
    /// sequence numbers ahead of the cursor are buffered for in-order
    /// release; anything further is dropped (and retransmitted later).
    pub window: u32,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        Self {
            retry_budget: 8,
            retransmit_ticks: 4,
            backoff_cap: 4,
            window: 64,
        }
    }
}

/// Counters of everything the ARQ layer absorbed or re-sent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStats {
    /// Frames retransmitted after a timeout.
    pub retransmits: u64,
    /// Received frames discarded as duplicates (seq below the cursor).
    pub duplicates: u64,
    /// Received frames buffered out of order and released in sequence.
    pub reordered: u64,
    /// Received frames discarded for CRC / framing corruption.
    pub corrupt_dropped: u64,
    /// Received frames beyond the out-of-order window, discarded.
    pub out_of_window: u64,
    /// Cumulative acks transmitted.
    pub acks_sent: u64,
}

/// Sequence numbers wrap at `u32::MAX`, so the `wrapping_sub` distance,
/// not the magnitude, orders them: `a.wrapping_sub(b)` is how far `a` is
/// ahead of `b`, and half the sequence space or more reads as *behind*.
const SEQ_BEHIND: u32 = 1 << 31;

/// An unacked outgoing frame awaiting its cumulative ack.
#[derive(Debug)]
struct Pending {
    seq: u32,
    wire: Vec<u8>,
    retries: usize,
    due: u64,
}

/// One side's ARQ endpoint: sequences outgoing frames, retransmits
/// unacked ones, and reassembles the incoming stream in order. See the
/// module docs for the sans-IO call pattern.
#[derive(Debug)]
pub struct ReliableEndpoint {
    config: ReliableConfig,
    tick: u64,
    next_seq: u32,
    /// Unacked frames in ascending seq order (cumulative acks pop from
    /// the front).
    pending: VecDeque<Pending>,
    /// Wire-ready ARQ frames (fresh data and due retransmissions).
    outbox: VecDeque<Vec<u8>>,
    /// Next in-order sequence number expected from the peer.
    recv_next: u32,
    /// Out-of-order frames buffered for in-sequence release.
    reorder: BTreeMap<u32, Vec<u8>>,
    /// Recovered in-order inner frames awaiting the application.
    delivery: VecDeque<Vec<u8>>,
    ack_pending: bool,
    stats: ReliableStats,
    /// Spent buffers for the next envelopes, acks and copies.
    pool: FramePool,
}

impl ReliableEndpoint {
    /// A fresh endpoint at tick 0, sequence 0.
    pub fn new(config: ReliableConfig) -> Self {
        Self {
            config,
            tick: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            outbox: VecDeque::new(),
            recv_next: 0,
            reorder: BTreeMap::new(),
            delivery: VecDeque::new(),
            ack_pending: false,
            stats: ReliableStats::default(),
            pool: FramePool::default(),
        }
    }

    /// An endpoint whose stream starts at `seq` in both directions, to
    /// reach the wraparound without sending four billion frames.
    #[cfg(test)]
    fn starting_at(config: ReliableConfig, seq: u32) -> Self {
        Self {
            next_seq: seq,
            recv_next: seq,
            ..Self::new(config)
        }
    }

    /// Take back a spent buffer — a wire unit this endpoint was fed, or
    /// a frame it delivered — for a later envelope, ack or copy. The
    /// pool is bounded ([`crate::frame::POOLED_FRAMES`]).
    pub fn reclaim(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// Queue one application frame (a complete wire frame from
    /// [`Agent::poll_transmit`]) for sequenced transmission.
    pub fn send(&mut self, inner: &[u8]) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let mut wire = self.pool.take();
        let start = begin_frame(&mut wire, ARQ_DATA);
        wire.extend_from_slice(&seq.to_be_bytes());
        wire.extend_from_slice(inner);
        finish_frame(&mut wire, start);
        self.outbox.push_back(self.pool.copy_of(&wire));
        self.pending.push_back(Pending {
            seq,
            wire,
            retries: 0,
            due: self.tick + self.config.retransmit_ticks,
        });
    }

    /// Pop the next outgoing wire unit: a pending cumulative ack first
    /// (cheap, unblocks the peer's retransmit queue), then queued data.
    pub fn poll_transmit(&mut self) -> Option<Vec<u8>> {
        if self.ack_pending {
            self.ack_pending = false;
            self.stats.acks_sent += 1;
            let mut ack = self.pool.take();
            let start = begin_frame(&mut ack, ARQ_ACK);
            ack.extend_from_slice(&self.recv_next.to_be_bytes());
            finish_frame(&mut ack, start);
            return Some(ack);
        }
        self.outbox.pop_front()
    }

    /// Feed one received transport unit (one or more ARQ frames).
    /// Corruption is absorbed: a frame failing CRC/framing validation is
    /// discarded and counted, and the rest of the datagram is dropped
    /// with it (no trustworthy resync point past a bad length field).
    pub fn on_datagram(&mut self, mut data: &[u8]) {
        loop {
            let frame = match parse_frame(data) {
                Ok(Some(frame)) => frame,
                Ok(None) => return,
                Err(_) => {
                    self.stats.corrupt_dropped += 1;
                    return;
                }
            };
            data = &data[frame.wire_len()..];
            match (frame.msg_type, frame.payload.split_first_chunk::<4>()) {
                (ARQ_DATA, Some((seq, inner))) => self.on_data(u32::from_be_bytes(*seq), inner),
                (ARQ_ACK, Some((cumulative, []))) => self.on_ack(u32::from_be_bytes(*cumulative)),
                // Wrong layer or mangled payload: treat like
                // corruption — drop and let retransmission heal it.
                _ => self.stats.corrupt_dropped += 1,
            }
        }
    }

    fn on_data(&mut self, seq: u32, inner: &[u8]) {
        // Every data arrival warrants a (re-)ack: fresh data advances
        // the cursor, duplicates mean the peer missed our last ack, and
        // out-of-order frames re-state the gap.
        self.ack_pending = true;
        let ahead = seq.wrapping_sub(self.recv_next);
        if ahead >= SEQ_BEHIND {
            self.stats.duplicates += 1;
            return;
        }
        if ahead == 0 {
            self.delivery.push_back(self.pool.copy_of(inner));
            self.recv_next = self.recv_next.wrapping_add(1);
            // Release any directly following buffered frames.
            while let Some(next) = self.reorder.remove(&self.recv_next) {
                self.delivery.push_back(next);
                self.recv_next = self.recv_next.wrapping_add(1);
            }
            return;
        }
        if ahead < self.config.window {
            let copy = self.pool.copy_of(inner);
            match self.reorder.insert(seq, copy) {
                None => self.stats.reordered += 1,
                Some(replaced) => {
                    self.stats.duplicates += 1;
                    self.pool.put(replaced);
                }
            }
        } else {
            self.stats.out_of_window += 1;
        }
    }

    fn on_ack(&mut self, cumulative: u32) {
        // Everything strictly before the peer's cursor is acknowledged.
        while self
            .pending
            .front()
            .is_some_and(|p| p.seq.wrapping_sub(cumulative) >= SEQ_BEHIND)
        {
            if let Some(acked) = self.pending.pop_front() {
                self.pool.put(acked.wire);
            }
        }
    }

    /// Pop the next recovered in-order application frame.
    pub fn poll_deliver(&mut self) -> Option<Vec<u8>> {
        self.delivery.pop_front()
    }

    /// Advance one tick: retransmit every due unacked frame with
    /// exponential backoff, or fail once a frame exhausts its budget —
    /// the layer's one terminal failure: transient faults (loss,
    /// corruption, duplication, reordering) never error, only a
    /// persistently dead link does.
    pub fn on_tick(&mut self) -> Result<(), ProtoError> {
        self.tick += 1;
        for p in &mut self.pending {
            if p.due > self.tick {
                continue;
            }
            if p.retries >= self.config.retry_budget {
                return Err(ProtoError::RetryExhausted {
                    seq: p.seq,
                    retries: p.retries,
                });
            }
            p.retries += 1;
            self.stats.retransmits += 1;
            let shift = (p.retries as u32).min(self.config.backoff_cap);
            p.due = self.tick + (self.config.retransmit_ticks << shift);
            self.outbox.push_back(self.pool.copy_of(&p.wire));
        }
        Ok(())
    }

    /// Whether any frame is still unacked or queued for the wire — i.e.
    /// future progress is scheduled (a supervisor should not declare a
    /// stall while this holds).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty() || !self.outbox.is_empty() || self.ack_pending
    }

    /// Fault/retransmission counters.
    pub fn stats(&self) -> &ReliableStats {
        &self.stats
    }
}

/// Pump two agents over faulty links *through* a pair of ARQ endpoints
/// until both sessions finish, a frame exhausts its retry budget, or
/// `max_ticks` elapses. The reliable counterpart of
/// [`crate::driver::run_session`]: transient drop / corrupt / duplicate
/// / reorder faults heal instead of killing the session, so on success
/// the outcome is byte-identical to the fault-free run.
pub fn run_reliable_session(
    agent_a: &mut Agent<'_>,
    agent_b: &mut Agent<'_>,
    link_ab: &mut FaultyLink,
    link_ba: &mut FaultyLink,
    config: ReliableConfig,
    max_ticks: u64,
) -> Result<(AgentOutcome, AgentOutcome), ProtoError> {
    let mut pump = SessionPump::new(Some(config));
    for _ in 0..max_ticks {
        let report = pump
            .step(agent_a, agent_b, link_ab, link_ba, StepLimits::UNBOUNDED)
            .map_err(|(error, _)| error)?;
        if report.done {
            return outcomes(agent_a, agent_b);
        }
        pump.on_tick().map_err(|(error, _)| error)?;
    }
    Err(ProtoError::DeadlineExceeded { ticks: max_ticks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_to(link: &mut Vec<Vec<u8>>, ep: &mut ReliableEndpoint) {
        while let Some(u) = ep.poll_transmit() {
            link.push(u);
        }
    }

    #[test]
    fn in_order_delivery_roundtrip() {
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        tx.send(b"alpha");
        tx.send(b"beta");
        let mut wire = Vec::new();
        drain_to(&mut wire, &mut tx);
        for unit in wire {
            rx.on_datagram(&unit);
        }
        assert_eq!(rx.poll_deliver().unwrap(), b"alpha");
        assert_eq!(rx.poll_deliver().unwrap(), b"beta");
        assert!(rx.poll_deliver().is_none());
        // The receiver owes one cumulative ack covering both frames.
        let ack = rx.poll_transmit().expect("ack pending");
        tx.on_datagram(&ack);
        assert!(!tx.has_pending());
    }

    #[test]
    fn lost_frame_is_retransmitted_and_recovered() {
        let cfg = ReliableConfig {
            retransmit_ticks: 2,
            ..ReliableConfig::default()
        };
        let mut tx = ReliableEndpoint::new(cfg);
        let mut rx = ReliableEndpoint::new(cfg);
        tx.send(b"lost");
        let _dropped = tx.poll_transmit().unwrap(); // the link eats it
        assert!(tx.poll_transmit().is_none());
        // Tick past the timeout: the frame comes back out.
        tx.on_tick().unwrap();
        tx.on_tick().unwrap();
        tx.on_tick().unwrap();
        let retx = tx.poll_transmit().expect("retransmission due");
        assert_eq!(tx.stats().retransmits, 1);
        rx.on_datagram(&retx);
        assert_eq!(rx.poll_deliver().unwrap(), b"lost");
    }

    #[test]
    fn corruption_is_absorbed_not_fatal() {
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        tx.send(b"payload");
        let mut unit = tx.poll_transmit().unwrap();
        let last = unit.len() - 1;
        unit[last] ^= 0x01; // break the CRC
        rx.on_datagram(&unit);
        assert_eq!(rx.stats().corrupt_dropped, 1);
        assert!(rx.poll_deliver().is_none());
        // The retransmission (clean) still delivers it.
        for _ in 0..8 {
            tx.on_tick().unwrap();
        }
        let retx = tx.poll_transmit().expect("retransmission due");
        rx.on_datagram(&retx);
        assert_eq!(rx.poll_deliver().unwrap(), b"payload");
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        tx.send(b"once");
        let unit = tx.poll_transmit().unwrap();
        rx.on_datagram(&unit);
        let _first_ack = rx.poll_transmit().unwrap();
        rx.on_datagram(&unit); // duplicate delivery
        assert_eq!(rx.stats().duplicates, 1);
        assert_eq!(rx.poll_deliver().unwrap(), b"once");
        assert!(rx.poll_deliver().is_none(), "duplicate must not deliver");
        // The duplicate triggered a fresh ack (covers a lost first ack).
        assert!(rx.poll_transmit().is_some());
    }

    #[test]
    fn reordered_frames_release_in_sequence() {
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        tx.send(b"first");
        tx.send(b"second");
        let u1 = tx.poll_transmit().unwrap();
        let u2 = tx.poll_transmit().unwrap();
        rx.on_datagram(&u2); // out of order
        assert!(rx.poll_deliver().is_none(), "gap must hold delivery");
        assert_eq!(rx.stats().reordered, 1);
        rx.on_datagram(&u1);
        assert_eq!(rx.poll_deliver().unwrap(), b"first");
        assert_eq!(rx.poll_deliver().unwrap(), b"second");
    }

    #[test]
    fn retry_budget_exhaustion_is_terminal() {
        let cfg = ReliableConfig {
            retry_budget: 2,
            retransmit_ticks: 1,
            backoff_cap: 0,
            ..ReliableConfig::default()
        };
        let mut tx = ReliableEndpoint::new(cfg);
        tx.send(b"doomed");
        let _ = tx.poll_transmit();
        let mut err = None;
        for _ in 0..64 {
            if let Err(e) = tx.on_tick() {
                err = Some(e);
                break;
            }
            // Nobody acks; drain retransmissions into the void.
            while tx.poll_transmit().is_some() {}
        }
        match err.expect("budget must exhaust") {
            ProtoError::RetryExhausted { seq: 0, retries } => assert_eq!(retries, 2),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn stream_crosses_the_sequence_wraparound() {
        // Both directions start three frames below `u32::MAX`; eight
        // frames cross the boundary with one lost and one overtaken.
        let cfg = ReliableConfig {
            retransmit_ticks: 2,
            ..ReliableConfig::default()
        };
        let start = u32::MAX - 2;
        let mut tx = ReliableEndpoint::starting_at(cfg, start);
        let mut rx = ReliableEndpoint::starting_at(cfg, start);
        for i in 0..8u8 {
            tx.send(&[i]);
        }
        let mut units: Vec<_> = std::iter::from_fn(|| tx.poll_transmit()).collect();
        units.remove(1); // seq u32::MAX - 1 is lost on the wire
        units.swap(1, 2); // seq 0 overtakes seq u32::MAX
        for unit in &units {
            rx.on_datagram(unit);
        }
        // Only the frame before the gap is released; the six behind it
        // wait in the window, on both sides of the boundary.
        assert_eq!(rx.poll_deliver().unwrap(), vec![0]);
        assert!(rx.poll_deliver().is_none());
        assert_eq!(rx.stats().reordered, 6);
        assert_eq!(rx.stats().duplicates, 0);
        assert_eq!(rx.stats().out_of_window, 0);
        // The ack names the lost frame; the timer re-sends what is
        // unacked, and the stream completes in order.
        tx.on_datagram(&rx.poll_transmit().expect("ack pending"));
        for _ in 0..3 {
            tx.on_tick().unwrap();
        }
        assert_eq!(tx.stats().retransmits, 7, "all but the acked first frame");
        while let Some(unit) = tx.poll_transmit() {
            rx.on_datagram(&unit);
        }
        let rest: Vec<_> = std::iter::from_fn(|| rx.poll_deliver()).collect();
        assert_eq!(rest, (1..8u8).map(|i| vec![i]).collect::<Vec<_>>());
        assert_eq!(
            rx.stats().duplicates,
            6,
            "re-sent copies of buffered frames"
        );
        // The cumulative ack is now a small number acknowledging large
        // ones: it must still clear the retransmit queue.
        tx.on_datagram(&rx.poll_transmit().expect("ack pending"));
        assert!(!tx.has_pending(), "wrapped ack must cover pre-wrap frames");
    }

    #[test]
    fn the_largest_frame_an_agent_may_write_fits_an_envelope() {
        use crate::frame::MAX_FRAME_PAYLOAD;
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        let inner = vec![0x5A; MAX_FRAME_PAYLOAD - ENVELOPE_BYTES + FRAME_OVERHEAD];
        tx.send(&inner);
        rx.on_datagram(&tx.poll_transmit().expect("one envelope"));
        assert_eq!(rx.poll_deliver(), Some(inner));
    }

    #[test]
    fn frames_beyond_the_window_are_dropped() {
        let cfg = ReliableConfig {
            window: 2,
            ..ReliableConfig::default()
        };
        let mut tx = ReliableEndpoint::new(cfg);
        let mut rx = ReliableEndpoint::new(cfg);
        for i in 0..4u8 {
            tx.send(&[i]);
        }
        let units: Vec<_> = std::iter::from_fn(|| tx.poll_transmit()).collect();
        // Deliver only the frame 3 windows ahead: outside the window.
        rx.on_datagram(&units[3]);
        assert_eq!(rx.stats().out_of_window, 1);
        assert!(rx.poll_deliver().is_none());
        // In-window out-of-order frame is buffered instead.
        rx.on_datagram(&units[1]);
        assert_eq!(rx.stats().reordered, 1);
    }
}
