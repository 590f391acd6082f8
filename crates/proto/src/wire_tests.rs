//! Tests of the wire path that span modules: the same real transcript
//! goes through the frame parser, the message parser, the codec, an
//! agent, an ARQ endpoint and the pump — whole, split at arbitrary
//! boundaries, and mutated.

use crate::agent::{Agent, AgentOutcome, ProtoError};
use crate::channel::FaultyLink;
use crate::crc::crc32;
use crate::driver::tests::agents;
use crate::driver::{SessionPump, StepLimits};
use crate::frame::{parse_frame, FrameCodec, FrameRef, MAX_FRAME_PAYLOAD};
use crate::messages::{Message, MessageRef};
use crate::reliable::{ReliableConfig, ReliableEndpoint};
use nexit_core::{
    DisclosurePolicy, GainTable, NexitConfig, PreferenceMapper, SessionError, SessionInput, Side,
};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;
use proptest::prelude::*;

/// One clean session of the `driver.rs` fixture, every frame handed over
/// whole: the A→B stream, the B→A stream and both outcomes.
struct Transcript {
    ab: Vec<Vec<u8>>,
    ba: Vec<Vec<u8>>,
    outcomes: (AgentOutcome, AgentOutcome),
}

fn transcript() -> Transcript {
    let (mut a, mut b) = agents();
    let (mut ab, mut ba) = (Vec::new(), Vec::new());
    loop {
        let before = ab.len() + ba.len();
        while let Some(frame) = a.poll_transmit() {
            b.handle_bytes(&frame).expect("clean session");
            ab.push(frame);
        }
        while let Some(frame) = b.poll_transmit() {
            a.handle_bytes(&frame).expect("clean session");
            ba.push(frame);
        }
        if ab.len() + ba.len() == before {
            break;
        }
    }
    assert!(a.is_done() && b.is_done());
    let outcomes = (a.outcome().expect("A done"), b.outcome().expect("B done"));
    Transcript { ab, ba, outcomes }
}

/// Bytes left at the end of `stream` once every whole frame at its front
/// is taken off — what a receiver may still hold. `None` when a frame is
/// refused on the way.
fn unparsed_tail(mut stream: &[u8]) -> Option<usize> {
    while let Some(frame) = parse_frame(stream).ok()? {
        stream = &stream[frame.wire_len()..];
    }
    Some(stream.len())
}

/// Feed `stream` to `agent` in pieces of the given sizes (cycled), and
/// check after every piece that the agent holds exactly the unfinished
/// tail of what it was fed so far — or nothing, once it refused a frame.
fn feed_in_pieces(
    agent: &mut Agent<'_>,
    stream: &[u8],
    sizes: &[usize],
) -> Result<(), TestCaseError> {
    let mut fed = 0;
    let mut failed = false;
    for &size in sizes.iter().cycle() {
        if fed == stream.len() {
            break;
        }
        let piece = &stream[fed..stream.len().min(fed + size)];
        fed += piece.len();
        match agent.handle_bytes(piece) {
            Ok(()) => {
                prop_assert!(!failed, "a failed agent accepted bytes");
                prop_assert_eq!(Some(agent.buffered()), unparsed_tail(&stream[..fed]));
            }
            Err(error) => {
                prop_assert!(!failed || error == ProtoError::Closed);
                prop_assert_eq!(agent.buffered(), 0, "a dead stream is not kept");
                failed = true;
            }
        }
    }
    Ok(())
}

fn drain(agent: &mut Agent<'_>) -> Vec<u8> {
    std::iter::from_fn(|| agent.poll_transmit())
        .flatten()
        .collect()
}

#[test]
fn transcript_bytes_are_pinned() {
    // Recorded at the commit before frames were written in place: the
    // bytes on the wire are what "same behaviour" means here.
    let t = transcript();
    let (ab, ba) = (t.ab.concat(), t.ba.concat());
    assert_eq!((ab.len(), crc32(&ab)), (326, 0x9496_0C19), "A→B stream");
    assert_eq!((ba.len(), crc32(&ba)), (227, 0xD21E_9B8E), "B→A stream");
}

#[test]
fn one_byte_at_a_time_is_whole_unit_delivery() {
    let t = transcript();
    let (mut a, mut b) = agents();
    let hello = drain(&mut a);
    feed_in_pieces(&mut b, &t.ab.concat(), &[1]).unwrap();
    feed_in_pieces(&mut a, &t.ba.concat(), &[1]).unwrap();
    assert_eq!([hello, drain(&mut a)].concat(), t.ab.concat());
    assert_eq!(drain(&mut b), t.ba.concat());
    assert!(a.is_done() && b.is_done());
    assert_eq!((a.outcome().unwrap(), b.outcome().unwrap()), t.outcomes);
}

/// `stream` with one fault: a flipped bit, a cut, or a run of its own
/// bytes spliced in somewhere else.
fn mutate(stream: &[u8], (kind, at, arg): (u8, usize, usize)) -> Vec<u8> {
    let mut out = stream.to_vec();
    let at = at % stream.len();
    match kind {
        0 => out[at] ^= 1 << (arg % 8),
        1 => out.truncate(at),
        _ => {
            let from = arg % stream.len();
            let run = &stream[from..stream.len().min(from + 1 + arg % 40)];
            out.splice(at..at, run.iter().copied());
        }
    }
    out
}

fn mutation() -> impl Strategy<Value = (u8, usize, usize)> {
    (0u8..3, any::<usize>(), any::<usize>())
}

fn piece_sizes() -> impl Strategy<Value = Vec<usize>> {
    collection::vec(1usize..48, 1..12)
}

/// Everything below the agent, on one byte string: nothing panics, and
/// the borrowed and the buffered parser agree frame for frame. A
/// `canonical` stream (an agent wrote it) is also what `Message::encode`
/// gives for each of its messages.
fn parsers_agree(stream: &[u8], canonical: bool) -> Result<(), TestCaseError> {
    let mut codec = FrameCodec::new();
    codec.feed(stream);
    let mut rest = stream;
    loop {
        let parsed = parse_frame(rest);
        let buffered = codec.next_frame();
        match (parsed, buffered) {
            (Ok(Some(frame)), Ok(Some(owned))) => {
                prop_assert!(frame.wire_len() <= rest.len());
                prop_assert!(frame.payload.len() <= MAX_FRAME_PAYLOAD);
                prop_assert_eq!(
                    (frame.msg_type, frame.payload),
                    (owned.msg_type, &owned.payload[..])
                );
                let (wire, after) = rest.split_at(frame.wire_len());
                rest = after;
                prop_assert_eq!(codec.buffered(), rest.len());
                // Borrowed ≡ owned, on whatever the frame carries.
                let message = MessageRef::parse(frame).map(|m| m.to_owned());
                prop_assert_eq!(&message, &Message::decode(&owned));
                if canonical {
                    prop_assert_eq!(message.map(|m| m.encode()), Ok(wire.to_vec()));
                }
            }
            (Ok(None), Ok(None)) => return Ok(()),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                return Ok(());
            }
            (a, b) => prop_assert!(false, "parse_frame {a:?} vs FrameCodec {b:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_split_of_a_valid_stream_is_whole_unit_delivery(
        to_b in piece_sizes(),
        to_a in piece_sizes(),
    ) {
        let t = transcript();
        let (mut a, mut b) = agents();
        let hello = drain(&mut a);
        feed_in_pieces(&mut b, &t.ab.concat(), &to_b)?;
        feed_in_pieces(&mut a, &t.ba.concat(), &to_a)?;
        prop_assert_eq!([hello, drain(&mut a)].concat(), t.ab.concat());
        prop_assert_eq!(drain(&mut b), t.ba.concat());
        prop_assert_eq!((a.outcome(), b.outcome()), (Some(t.outcomes.0), Some(t.outcomes.1)));
    }

    #[test]
    fn a_mutated_stream_ends_in_ok_or_a_typed_error(
        fault in mutation(),
        sizes in piece_sizes(),
        tolerate_replays in any::<bool>(),
    ) {
        let t = transcript();
        let stream = mutate(&t.ab.concat(), fault);
        parsers_agree(&stream, false)?;
        let (_, mut b) = agents();
        b.set_replay_tolerance(tolerate_replays);
        feed_in_pieces(&mut b, &stream, &sizes)?;
        // Whatever B made of it, what it says back is well formed.
        parsers_agree(&drain(&mut b), true)?;
    }

    #[test]
    fn arbitrary_bytes_end_in_ok_or_a_typed_error(
        noise in collection::vec(any::<u8>(), 0..96),
        after in 0usize..8,
        sizes in piece_sizes(),
    ) {
        parsers_agree(&noise, false)?;
        for msg_type in 0..12 {
            // Must not panic; the length checks are `MessageRef::parse`'s.
            let _ = MessageRef::parse(FrameRef { msg_type, payload: &noise });
        }
        // Noise after a valid prefix reaches every handshake state.
        let t = transcript();
        let mut stream = t.ab[..after.min(t.ab.len())].concat();
        stream.extend_from_slice(&noise);
        let (_, mut b) = agents();
        feed_in_pieces(&mut b, &stream, &sizes)?;
        let mut endpoint = ReliableEndpoint::new(ReliableConfig::default());
        endpoint.on_datagram(&noise);
        prop_assert!(endpoint.poll_deliver().is_none(), "noise carries no valid envelope");
    }

    #[test]
    fn a_mutated_datagram_never_delivers_a_wrong_frame(
        fault in mutation(),
        victim in any::<usize>(),
    ) {
        let t = transcript();
        let mut tx = ReliableEndpoint::new(ReliableConfig::default());
        for frame in &t.ab {
            tx.send(frame);
        }
        let mut units: Vec<_> = std::iter::from_fn(|| tx.poll_transmit()).collect();
        let victim = victim % units.len();
        units[victim] = mutate(&units[victim], fault);
        let mut rx = ReliableEndpoint::new(ReliableConfig::default());
        for unit in &units {
            rx.on_datagram(unit);
        }
        // In order, unaltered, and at most a gap where the victim was.
        let delivered: Vec<_> = std::iter::from_fn(|| rx.poll_deliver()).collect();
        prop_assert!(delivered.len() <= t.ab.len());
        prop_assert_eq!(&delivered[..], &t.ab[..delivered.len()]);
        prop_assert!(delivered.len() >= victim);
    }

    #[test]
    fn a_mutated_unit_on_the_link_fails_the_step_or_heals(
        fault in mutation(),
        clean_steps in 0usize..12,
        arq in any::<bool>(),
    ) {
        let t = transcript();
        let (mut a, mut b) = agents();
        a.set_replay_tolerance(arq);
        b.set_replay_tolerance(arq);
        let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
        let mut pump = SessionPump::new(arq.then(ReliableConfig::default));
        let mut ended = None;
        for step in 0..400 {
            if step == clean_steps {
                // A hostile unit cuts into the A→B queue: a real frame
                // of this session, mutated (under ARQ it lacks even the
                // envelope).
                ab.send(mutate(&t.ab[clean_steps % t.ab.len()], fault));
            }
            match pump.step(&mut a, &mut b, &mut ab, &mut ba, StepLimits::UNBOUNDED) {
                Ok(report) if report.done => {
                    ended = Some(Ok(()));
                    break;
                }
                Ok(_) => {
                    if let Err((error, _)) = pump.on_tick() {
                        ended = Some(Err(error));
                        break;
                    }
                }
                Err((error, side)) => {
                    prop_assert_eq!(side, Side::B, "only B was fed the unit");
                    ended = Some(Err(error));
                    break;
                }
            }
        }
        match ended {
            // The ARQ layer drops what is not a sound envelope, and the
            // session must come out as if nothing had happened.
            Some(Ok(())) | None if arq => {
                prop_assert!(ended.is_some(), "an absorbed unit must not wedge the session");
                prop_assert_eq!((a.outcome(), b.outcome()), (Some(t.outcomes.0), Some(t.outcomes.1)));
            }
            Some(Err(error)) if arq => prop_assert!(false, "ARQ session failed: {error}"),
            // Raw link: a typed failure, a stall (no step moves again),
            // or — the mutation was harmless, e.g. an empty cut — the
            // clean outcome.
            Some(Ok(())) => {
                prop_assert_eq!((a.outcome(), b.outcome()), (Some(t.outcomes.0), Some(t.outcomes.1)));
            }
            Some(Err(_)) | None => {}
        }
    }
}

struct ZeroMapper;

impl PreferenceMapper for ZeroMapper {
    fn gains(&mut self, _i: &SessionInput, _c: &Assignment, _out: &mut GainTable) {}
}

fn agent_for(
    name: &str,
    flows: usize,
    alternatives: usize,
    pref_range: i32,
) -> Result<Agent<'static>, ProtoError> {
    Agent::new(
        Side::A,
        name,
        SessionInput {
            flow_ids: (0..flows).map(FlowId::new).collect(),
            defaults: vec![IcxId(0); flows],
            volumes: vec![1.0; flows],
            num_alternatives: alternatives,
        },
        Assignment::uniform(flows, IcxId(0)),
        ZeroMapper,
        DisclosurePolicy::Truthful,
        NexitConfig {
            pref_range,
            ..NexitConfig::win_win()
        },
    )
}

fn assert_wire_limit(result: Result<Agent<'static>, ProtoError>) {
    match result {
        Err(ProtoError::WireLimit(_)) => {}
        Err(other) => panic!("expected a wire limit, got {other}"),
        Ok(_) => panic!("expected a wire limit, got an agent"),
    }
}

#[test]
fn a_name_beyond_its_length_prefix_is_refused() {
    let longest = "n".repeat(usize::from(u16::MAX));
    let mut a = agent_for(&longest, 2, 2, 10).expect("65535 bytes fit");
    // The whole name travels, and the frame says so.
    let hello = a.poll_transmit().expect("A opens with Hello");
    let frame = parse_frame(&hello).unwrap().expect("one whole frame");
    assert_eq!(frame.wire_len(), hello.len());
    match MessageRef::parse(frame).unwrap() {
        MessageRef::Hello { name, .. } => assert_eq!(name, longest),
        other => panic!("expected Hello, got {other:?}"),
    }
    assert_wire_limit(agent_for(&(longest + "n"), 2, 2, 10));
}

#[test]
fn more_alternatives_than_a_u16_are_refused() {
    assert_wire_limit(agent_for("a", 1, usize::from(u16::MAX) + 1, 10));
}

#[test]
fn a_preference_range_beyond_i16_is_refused() {
    // The wire format carries P = i16::MAX, which the candidate index
    // (P <= 256) refuses; one more is refused by the wire limits first.
    assert_index_limit(agent_for("a", 2, 2, i32::from(i16::MAX)));
    assert_wire_limit(agent_for("a", 2, 2, i32::from(i16::MAX) + 1));
}

fn assert_index_limit(result: Result<Agent<'static>, ProtoError>) {
    match result {
        Err(ProtoError::InvalidSession(SessionError::IndexLimit(_))) => {}
        Err(other) => panic!("expected an index limit, got {other}"),
        Ok(_) => panic!("expected an index limit, got an agent"),
    }
}

#[test]
fn a_shape_beyond_the_candidate_index_is_an_invalid_session() {
    assert!(agent_for("a", 2, 512, 256).is_ok());
    assert_index_limit(agent_for("a", 2, 512, 257));
    assert_index_limit(agent_for("a", 2, 513, 10));
}

#[test]
fn a_flow_set_beyond_one_frame_is_refused() {
    // 14 bytes per announced flow, 2 per disclosed class, 4 MiB a frame
    // less the 15 bytes an ARQ envelope takes for itself.
    let announceable = (MAX_FRAME_PAYLOAD - 15 - 4) / 14;
    assert_eq!(announceable + 1, (MAX_FRAME_PAYLOAD - 4) / 14);
    assert_wire_limit(agent_for("a", announceable + 1, 1, 10));
    // The widest rows the candidate index holds.
    let columns = 512;
    let disclosable = (MAX_FRAME_PAYLOAD - 15 - 6) / (2 * columns);
    assert!(agent_for("a", disclosable, columns, 10).is_ok());
    assert_wire_limit(agent_for("a", disclosable + 1, columns, 10));
}

/// A `FlowAnnounce` whose volume is NaN is refused like one a whole unit
/// off: every comparison with NaN is false, so a "too far apart" test
/// would wave it through.
#[test]
fn an_announced_nan_volume_is_refused() {
    let t = transcript();
    let announce = t.ab.iter().enumerate().find_map(|(at, frame)| {
        match MessageRef::parse(parse_frame(frame).ok()??).ok()? {
            MessageRef::FlowAnnounce { entries } => Some((at, MessageRef::flows(entries))),
            _ => None,
        }
    });
    let (at, flows) = announce.expect("A announces its flows");
    let flows: Vec<_> = flows.collect();
    for volume in [f64::NAN, f64::INFINITY, flows[0].volume + 1.0] {
        let (_, mut b) = agents();
        for frame in &t.ab[..at] {
            b.handle_bytes(frame).expect("clean prefix");
        }
        let mut flows = flows.clone();
        flows[0].volume = volume;
        let announce = Message::FlowAnnounce { flows }.encode();
        let refused = Err(ProtoError::FlowMismatch("volume"));
        assert_eq!(b.handle_bytes(&announce), refused, "volume {volume}");
    }
}
