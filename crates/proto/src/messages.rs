//! The negotiation message set and its binary codec.
//!
//! One message type per protocol step (paper §4 plus session management):
//!
//! | type | message        | direction        | purpose                          |
//! |------|----------------|------------------|----------------------------------|
//! | 1    | `Hello`        | both, A first    | identify side, agree on config   |
//! | 2    | `FlowAnnounce` | upstream → down  | the flow set on the table        |
//! | 3    | `PrefList`     | both, A first    | disclosed preference classes     |
//! | 4    | `Propose`      | proposer → other | one (flow, alternative) proposal |
//! | 5    | `Response`     | other → proposer | accept / reject                  |
//! | 6    | `Stop`         | either           | early/full termination           |
//! | 7    | `Bye`          | both             | orderly shutdown                 |
//!
//! All integers are big-endian; preferences travel as `i16` (classes are
//! tiny); volumes as IEEE-754 `f64` bits.
//!
//! There is one parser, [`MessageRef::parse`], which reads a payload in
//! place and checks every length, and one writer, [`Message::encode_into`],
//! which appends a whole frame to a caller's buffer; the three messages
//! that own memory are written by `write_hello`, `write_flow_announce`
//! and `write_pref_list` from borrowed fields, which is how the agent
//! calls them. [`Message::decode`] is `MessageRef::parse(..).to_owned()`.

use crate::frame::{begin_frame, finish_frame, Frame, FrameRef, FRAME_OVERHEAD, MAX_FRAME_PAYLOAD};
use nexit_core::{NexitConfig, Side};
use nexit_routing::FlowId;
use nexit_topology::IcxId;

/// Decoding failures at the message layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Payload ended before the message was complete, or had trailing
    /// garbage.
    Malformed(&'static str),
}

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageError::UnknownType(t) => write!(f, "unknown message type {t}"),
            MessageError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for MessageError {}

/// Wire type byte of a `PrefList` (the table in the module docs).
pub(crate) const PREF_LIST: u8 = 3;
/// Bytes of a `FlowAnnounce` payload: the count, then this per entry.
pub(crate) const FLOW_ANNOUNCE_BYTES: (usize, usize) = (4, 4 + 2 + 8);
/// Bytes of a `PrefList` payload: rows and columns, then this per class.
pub(crate) const PREF_LIST_BYTES: (usize, usize) = (4 + 2, 2);

/// One announced flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEntry {
    /// Global flow id (shared numbering between the ISPs; see paper §6 on
    /// flow signatures).
    pub flow: FlowId,
    /// The flow's default alternative.
    pub default: IcxId,
    /// Estimated volume.
    pub volume: f64,
}

/// A negotiation message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Session opening: who I am and the contractually agreed parameters
    /// (echoed by the responder; mismatch aborts the session).
    Hello {
        /// Sender's side of the pair.
        side: Side,
        /// Sender's display name.
        name: String,
        /// Number of alternatives (interconnections).
        num_alternatives: u16,
        /// The agreed engine configuration.
        config: NexitConfig,
    },
    /// Upstream announces the negotiated flow set.
    FlowAnnounce {
        /// Flows on the table, in session (local) order.
        flows: Vec<FlowEntry>,
    },
    /// Full disclosed preference table for the remaining flows.
    PrefList {
        /// `prefs[local_flow][alternative]`, dense.
        prefs: Vec<Vec<i16>>,
    },
    /// Proposal for one flow.
    Propose {
        /// Round number (must match the receiver's view).
        round: u32,
        /// Local flow index.
        local_flow: u32,
        /// Proposed alternative.
        alternative: IcxId,
    },
    /// Accept/reject a proposal.
    Response {
        /// Round being answered.
        round: u32,
        /// Acceptance.
        accepted: bool,
    },
    /// Sender terminates the negotiation (early/full stop).
    Stop {
        /// Which side stopped.
        side: Side,
    },
    /// Orderly close acknowledgement.
    Bye,
}

/// A [`Message`] read in place: the same fields, with what would own
/// memory borrowed from the payload — the name as `&str`, the two bodies
/// as the bytes on the wire, their length already checked against their
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MessageRef<'a> {
    Hello {
        side: Side,
        name: &'a str,
        num_alternatives: u16,
        config: NexitConfig,
    },
    /// The entries are read with [`MessageRef::flows`].
    FlowAnnounce {
        entries: &'a [u8],
    },
    /// `rows × columns` classes, read with [`MessageRef::classes`].
    PrefList {
        rows: usize,
        columns: usize,
        classes: &'a [u8],
    },
    Propose {
        round: u32,
        local_flow: u32,
        alternative: IcxId,
    },
    Response {
        round: u32,
        accepted: bool,
    },
    Stop {
        side: Side,
    },
    Bye,
}

fn side_byte(side: Side) -> u8 {
    match side {
        Side::A => 0,
        Side::B => 1,
    }
}

fn byte_side(b: u8) -> Result<Side, MessageError> {
    match b {
        0 => Ok(Side::A),
        1 => Ok(Side::B),
        _ => Err(MessageError::Malformed("bad side byte")),
    }
}

/// Big-endian reads off the front of a payload, as
/// `T::from_be_bytes(reader.take())`. Every read is preceded by a length
/// check on [`Reader::remaining`]; reading past the end would be a
/// missing check, so it panics.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        // Invariant: the caller checked `remaining` covers this read.
        let (head, rest) = self
            .0
            .split_first_chunk()
            .expect("length checked before the read");
        self.0 = rest;
        *head
    }
}

fn put_config(out: &mut Vec<u8>, config: &NexitConfig) {
    use nexit_core::{AcceptRule, ProposalRule, StopPolicy, TurnPolicy};
    out.extend_from_slice(&config.pref_range.to_be_bytes());
    match config.turn {
        TurnPolicy::Alternate => {
            out.push(0);
            out.extend_from_slice(&0u64.to_be_bytes());
        }
        TurnPolicy::LowerGain => {
            out.push(1);
            out.extend_from_slice(&0u64.to_be_bytes());
        }
        TurnPolicy::CoinToss { seed } => {
            out.push(2);
            out.extend_from_slice(&seed.to_be_bytes());
        }
    }
    out.push(match config.proposal {
        ProposalRule::MaxCombined => 0,
        ProposalRule::BestLocalMinHarm => 1,
    });
    match config.accept {
        AcceptRule::Always => {
            out.push(0);
            out.extend_from_slice(&0i64.to_be_bytes());
        }
        AcceptRule::VetoNegativeCumulative => {
            out.push(1);
            out.extend_from_slice(&0i64.to_be_bytes());
        }
        AcceptRule::CreditVeto { credit } => {
            out.push(2);
            out.extend_from_slice(&credit.to_be_bytes());
        }
    }
    out.push(match config.stop {
        StopPolicy::Early => 0,
        StopPolicy::Full => 1,
        StopPolicy::NegotiateAll => 2,
    });
    out.extend_from_slice(
        &config
            .reassign_interval_frac
            .unwrap_or(f64::NAN)
            .to_be_bytes(),
    );
}

fn get_config(buf: &mut Reader<'_>) -> Result<NexitConfig, MessageError> {
    use nexit_core::{AcceptRule, ProposalRule, StopPolicy, TurnPolicy};
    if buf.remaining() < 4 + 1 + 8 + 1 + 1 + 8 + 1 + 8 {
        return Err(MessageError::Malformed("config truncated"));
    }
    let pref_range = i32::from_be_bytes(buf.take());
    let turn_tag = u8::from_be_bytes(buf.take());
    let seed = u64::from_be_bytes(buf.take());
    let turn = match turn_tag {
        0 => TurnPolicy::Alternate,
        1 => TurnPolicy::LowerGain,
        2 => TurnPolicy::CoinToss { seed },
        _ => return Err(MessageError::Malformed("bad turn policy")),
    };
    let proposal = match u8::from_be_bytes(buf.take()) {
        0 => ProposalRule::MaxCombined,
        1 => ProposalRule::BestLocalMinHarm,
        _ => return Err(MessageError::Malformed("bad proposal rule")),
    };
    let accept_tag = u8::from_be_bytes(buf.take());
    let credit = i64::from_be_bytes(buf.take());
    let accept = match accept_tag {
        0 => AcceptRule::Always,
        1 => AcceptRule::VetoNegativeCumulative,
        2 => AcceptRule::CreditVeto { credit },
        _ => return Err(MessageError::Malformed("bad accept rule")),
    };
    let stop = match u8::from_be_bytes(buf.take()) {
        0 => StopPolicy::Early,
        1 => StopPolicy::Full,
        2 => StopPolicy::NegotiateAll,
        _ => return Err(MessageError::Malformed("bad stop policy")),
    };
    let frac = f64::from_be_bytes(buf.take());
    Ok(NexitConfig {
        pref_range,
        turn,
        proposal,
        accept,
        stop,
        reassign_interval_frac: if frac.is_nan() { None } else { Some(frac) },
    })
}

/// Append one whole frame of type `msg_type` to `out`; `payload` appends
/// its payload.
fn write_frame(out: &mut Vec<u8>, msg_type: u8, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = begin_frame(out, msg_type);
    payload(out);
    finish_frame(out, start);
}

// The writers narrow to the wire's field widths with `as`; a caller
// holding wider values rules the overflow out first, as the agent does
// at construction (`ProtoError::WireLimit`).

/// Append a `Hello` frame. `name` is at most `u16::MAX` bytes.
pub fn write_hello(
    out: &mut Vec<u8>,
    side: Side,
    name: &str,
    num_alternatives: u16,
    config: &NexitConfig,
) {
    write_frame(out, 1, |out| {
        out.push(side_byte(side));
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&num_alternatives.to_be_bytes());
        put_config(out, config);
    });
}

/// Append a `FlowAnnounce` frame.
pub fn write_flow_announce(out: &mut Vec<u8>, flows: impl ExactSizeIterator<Item = FlowEntry>) {
    let (fixed, each) = FLOW_ANNOUNCE_BYTES;
    out.reserve(FRAME_OVERHEAD + fixed + flows.len() * each);
    write_frame(out, 2, |out| {
        out.extend_from_slice(&(flows.len() as u32).to_be_bytes());
        for e in flows {
            out.extend_from_slice(&e.flow.0.to_be_bytes());
            out.extend_from_slice(&(e.default.0 as u16).to_be_bytes());
            out.extend_from_slice(&e.volume.to_be_bytes());
        }
    });
}

/// Append a `PrefList` frame of `rows × columns` classes, which
/// `classes` yields row by row.
pub fn write_pref_list(
    out: &mut Vec<u8>,
    rows: usize,
    columns: usize,
    classes: impl Iterator<Item = i16>,
) {
    let (fixed, each) = PREF_LIST_BYTES;
    out.reserve(FRAME_OVERHEAD + fixed + rows * columns * each);
    write_frame(out, PREF_LIST, |out| {
        out.extend_from_slice(&(rows as u32).to_be_bytes());
        out.extend_from_slice(&(columns as u16).to_be_bytes());
        for class in classes {
            out.extend_from_slice(&class.to_be_bytes());
        }
    });
}

impl<'a> MessageRef<'a> {
    /// Parse a frame's payload in place. Every length is checked here,
    /// without overflow: a `FlowAnnounce` or `PrefList` body is exactly
    /// as long as its counts say.
    pub fn parse(frame: FrameRef<'a>) -> Result<Self, MessageError> {
        let mut buf = Reader(frame.payload);
        let msg = match frame.msg_type {
            1 => {
                if buf.remaining() < 3 {
                    return Err(MessageError::Malformed("hello truncated"));
                }
                let side = byte_side(u8::from_be_bytes(buf.take()))?;
                let name_len = usize::from(u16::from_be_bytes(buf.take()));
                if buf.remaining() < name_len + 2 {
                    return Err(MessageError::Malformed("hello name truncated"));
                }
                let (name, rest) = buf.0.split_at(name_len);
                buf.0 = rest;
                MessageRef::Hello {
                    side,
                    name: std::str::from_utf8(name)
                        .map_err(|_| MessageError::Malformed("hello name not UTF-8"))?,
                    num_alternatives: u16::from_be_bytes(buf.take()),
                    config: get_config(&mut buf)?,
                }
            }
            2 => {
                if buf.remaining() < FLOW_ANNOUNCE_BYTES.0 {
                    return Err(MessageError::Malformed("announce truncated"));
                }
                let n = u32::from_be_bytes(buf.take()) as usize;
                if n.checked_mul(FLOW_ANNOUNCE_BYTES.1) != Some(buf.remaining()) {
                    return Err(MessageError::Malformed("announce length mismatch"));
                }
                MessageRef::FlowAnnounce { entries: buf.0 }
            }
            PREF_LIST => {
                if buf.remaining() < PREF_LIST_BYTES.0 {
                    return Err(MessageError::Malformed("preflist truncated"));
                }
                let rows = u32::from_be_bytes(buf.take()) as usize;
                let columns = usize::from(u16::from_be_bytes(buf.take()));
                let cells = rows.checked_mul(columns);
                if cells.and_then(|c| c.checked_mul(PREF_LIST_BYTES.1)) != Some(buf.remaining()) {
                    return Err(MessageError::Malformed("preflist length mismatch"));
                }
                // Rows of no columns take no bytes, so the body cannot
                // bound their count; a frame's worth of one-class rows
                // does.
                if rows > MAX_FRAME_PAYLOAD / PREF_LIST_BYTES.1 {
                    return Err(MessageError::Malformed("preflist row count"));
                }
                MessageRef::PrefList {
                    rows,
                    columns,
                    classes: buf.0,
                }
            }
            4 => {
                if buf.remaining() != 4 + 4 + 2 {
                    return Err(MessageError::Malformed("propose length mismatch"));
                }
                MessageRef::Propose {
                    round: u32::from_be_bytes(buf.take()),
                    local_flow: u32::from_be_bytes(buf.take()),
                    alternative: IcxId(u32::from(u16::from_be_bytes(buf.take()))),
                }
            }
            5 => {
                if buf.remaining() != 5 {
                    return Err(MessageError::Malformed("response length mismatch"));
                }
                let round = u32::from_be_bytes(buf.take());
                let accepted = match u8::from_be_bytes(buf.take()) {
                    0 => false,
                    1 => true,
                    _ => return Err(MessageError::Malformed("bad accept byte")),
                };
                MessageRef::Response { round, accepted }
            }
            6 => {
                if buf.remaining() != 1 {
                    return Err(MessageError::Malformed("stop length mismatch"));
                }
                MessageRef::Stop {
                    side: byte_side(u8::from_be_bytes(buf.take()))?,
                }
            }
            7 => {
                if buf.remaining() != 0 {
                    return Err(MessageError::Malformed("bye with payload"));
                }
                MessageRef::Bye
            }
            t => return Err(MessageError::UnknownType(t)),
        };
        Ok(msg)
    }

    /// The entries of a `FlowAnnounce` body, in session (local) order.
    pub fn flows(entries: &'a [u8]) -> impl ExactSizeIterator<Item = FlowEntry> + 'a {
        entries.chunks_exact(FLOW_ANNOUNCE_BYTES.1).map(|entry| {
            let mut entry = Reader(entry);
            FlowEntry {
                flow: FlowId(u32::from_be_bytes(entry.take())),
                default: IcxId(u32::from(u16::from_be_bytes(entry.take()))),
                volume: f64::from_be_bytes(entry.take()),
            }
        })
    }

    /// The classes of a `PrefList` body, row by row.
    pub fn classes(classes: &'a [u8]) -> impl Iterator<Item = i16> + 'a {
        classes
            .chunks_exact(PREF_LIST_BYTES.1)
            .map(|class| i16::from_be_bytes([class[0], class[1]]))
    }

    /// The owned form of this message.
    pub fn to_owned(&self) -> Message {
        match *self {
            MessageRef::Hello {
                side,
                name,
                num_alternatives,
                config,
            } => Message::Hello {
                side,
                name: name.to_owned(),
                num_alternatives,
                config,
            },
            MessageRef::FlowAnnounce { entries } => Message::FlowAnnounce {
                flows: Self::flows(entries).collect(),
            },
            MessageRef::PrefList {
                rows,
                columns,
                classes,
            } => {
                let mut classes = Self::classes(classes);
                let row = |_| classes.by_ref().take(columns).collect();
                Message::PrefList {
                    prefs: (0..rows).map(row).collect(),
                }
            }
            MessageRef::Propose {
                round,
                local_flow,
                alternative,
            } => Message::Propose {
                round,
                local_flow,
                alternative,
            },
            MessageRef::Response { round, accepted } => Message::Response { round, accepted },
            MessageRef::Stop { side } => Message::Stop { side },
            MessageRef::Bye => Message::Bye,
        }
    }

    /// The message's name, for diagnostics.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            MessageRef::Hello { .. } => "Hello",
            MessageRef::FlowAnnounce { .. } => "FlowAnnounce",
            MessageRef::PrefList { .. } => "PrefList",
            MessageRef::Propose { .. } => "Propose",
            MessageRef::Response { .. } => "Response",
            MessageRef::Stop { .. } => "Stop",
            MessageRef::Bye => "Bye",
        }
    }
}

impl Message {
    /// Encode to a complete wire frame (header + payload + CRC).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append this message's wire frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello {
                side,
                name,
                num_alternatives,
                config,
            } => write_hello(out, *side, name, *num_alternatives, config),
            Message::FlowAnnounce { flows } => write_flow_announce(out, flows.iter().copied()),
            Message::PrefList { prefs } => {
                let k = prefs.first().map_or(0, Vec::len);
                debug_assert!(prefs.iter().all(|r| r.len() == k), "ragged preference list");
                write_pref_list(out, prefs.len(), k, prefs.iter().flatten().copied());
            }
            Message::Propose {
                round,
                local_flow,
                alternative,
            } => write_frame(out, 4, |out| {
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&local_flow.to_be_bytes());
                out.extend_from_slice(&(alternative.0 as u16).to_be_bytes());
            }),
            Message::Response { round, accepted } => write_frame(out, 5, |out| {
                out.extend_from_slice(&round.to_be_bytes());
                out.push(u8::from(*accepted));
            }),
            Message::Stop { side } => write_frame(out, 6, |out| out.push(side_byte(*side))),
            Message::Bye => write_frame(out, 7, |_| {}),
        }
    }

    /// Decode from a received frame.
    pub fn decode(frame: &Frame) -> Result<Message, MessageError> {
        let frame = FrameRef {
            msg_type: frame.msg_type,
            payload: &frame.payload,
        };
        MessageRef::parse(frame).map(|msg| msg.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameCodec;

    fn roundtrip(msg: Message) -> Message {
        let wire = msg.encode();
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let frame = codec.next_frame().unwrap().unwrap();
        Message::decode(&frame).unwrap()
    }

    #[test]
    fn hello_all_policies_roundtrip() {
        use nexit_core::{AcceptRule, ProposalRule, StopPolicy, TurnPolicy};
        for turn in [
            TurnPolicy::Alternate,
            TurnPolicy::LowerGain,
            TurnPolicy::CoinToss { seed: 12345 },
        ] {
            for proposal in [ProposalRule::MaxCombined, ProposalRule::BestLocalMinHarm] {
                for accept in [AcceptRule::Always, AcceptRule::VetoNegativeCumulative] {
                    for stop in [
                        StopPolicy::Early,
                        StopPolicy::Full,
                        StopPolicy::NegotiateAll,
                    ] {
                        let msg = Message::Hello {
                            side: Side::A,
                            name: "x".into(),
                            num_alternatives: 2,
                            config: NexitConfig {
                                pref_range: 7,
                                turn,
                                proposal,
                                accept,
                                stop,
                                reassign_interval_frac: Some(0.05),
                            },
                        };
                        assert_eq!(roundtrip(msg.clone()), msg);
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_type() {
        let frame = crate::frame::Frame {
            msg_type: 200,
            payload: vec![],
        };
        assert_eq!(Message::decode(&frame), Err(MessageError::UnknownType(200)));
    }

    #[test]
    fn rejects_truncated_payloads() {
        for (t, payload) in [
            (1u8, vec![0u8]),            // hello with just a side byte
            (2, vec![0, 0, 0, 2, 1]),    // announce claiming 2 entries
            (3, vec![0, 0, 0, 1, 0, 3]), // preflist missing rows
            (4, vec![1, 2, 3]),          // short propose
            (5, vec![]),                 // empty response
            (6, vec![]),                 // empty stop
            (7, vec![1]),                // bye with payload
        ] {
            let frame = crate::frame::Frame {
                msg_type: t,
                payload,
            };
            assert!(
                Message::decode(&frame).is_err(),
                "type {t} should have been rejected"
            );
        }
    }

    /// One of every variant, the table without columns included.
    fn every_variant() -> Vec<Message> {
        vec![
            Message::Hello {
                side: Side::A,
                name: "isp-03 (Wien)".into(),
                num_alternatives: 4,
                config: NexitConfig::win_win_bandwidth(),
            },
            Message::FlowAnnounce { flows: vec![] },
            Message::FlowAnnounce {
                flows: vec![
                    FlowEntry {
                        flow: FlowId(9),
                        default: IcxId(1),
                        volume: 2.5,
                    },
                    FlowEntry {
                        flow: FlowId(17),
                        default: IcxId(0),
                        volume: 0.125,
                    },
                ],
            },
            Message::PrefList { prefs: vec![] },
            Message::PrefList {
                prefs: vec![vec![]; 3],
            },
            Message::PrefList {
                prefs: vec![vec![0, 10, -10], vec![0, -3, 7]],
            },
            Message::Propose {
                round: 42,
                local_flow: 7,
                alternative: IcxId(3),
            },
            Message::Response {
                round: 42,
                accepted: true,
            },
            Message::Response {
                round: 43,
                accepted: false,
            },
            Message::Stop { side: Side::A },
            Message::Stop { side: Side::B },
            Message::Bye,
        ]
    }

    /// The frame at the front of `wire`, borrowed and owned.
    fn both_frames(wire: &[u8]) -> (FrameRef<'_>, Frame) {
        let borrowed = crate::frame::parse_frame(wire).unwrap().expect("a frame");
        let owned = Frame {
            msg_type: borrowed.msg_type,
            payload: borrowed.payload.to_vec(),
        };
        (borrowed, owned)
    }

    #[test]
    fn borrowed_parse_is_the_owned_decode() {
        let mut wires: Vec<Vec<u8>> = every_variant().iter().map(Message::encode).collect();
        // Columns without rows: only the wire can say so.
        let mut no_rows = Vec::new();
        write_pref_list(&mut no_rows, 0, 5, std::iter::empty());
        wires.push(no_rows);
        for wire in &wires {
            let (borrowed, owned) = both_frames(wire);
            assert_eq!(borrowed.wire_len(), wire.len());
            let parsed = MessageRef::parse(borrowed).unwrap();
            assert_eq!(parsed.to_owned(), Message::decode(&owned).unwrap());
            assert_eq!(
                parsed.to_owned().encode()[..7],
                wire[..7],
                "type and length"
            );
        }
        let (borrowed, _) = both_frames(wires.last().unwrap());
        match MessageRef::parse(borrowed).unwrap() {
            MessageRef::PrefList {
                rows,
                columns,
                classes,
            } => assert_eq!((rows, columns, classes), (0, 5, &[][..])),
            other => panic!("expected a PrefList, got {other:?}"),
        }
    }

    #[test]
    fn encode_into_appends_exactly_encode() {
        for msg in every_variant() {
            let mut out = b"an earlier frame".to_vec();
            msg.encode_into(&mut out);
            let (before, appended) = out.split_at(16);
            assert_eq!(before, b"an earlier frame");
            assert_eq!(appended, msg.encode());
            assert_eq!(roundtrip(msg.clone()), msg);
        }
    }

    #[test]
    fn counts_the_body_does_not_back_are_refused() {
        fn parse(msg_type: u8, payload: &[u8]) -> Result<MessageRef<'_>, MessageError> {
            MessageRef::parse(FrameRef { msg_type, payload })
        }
        // 2³² − 1 rows of no columns need no bytes — and would be 96 GB
        // of empty rows in the owned form.
        assert_eq!(
            parse(PREF_LIST, &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0]),
            Err(MessageError::Malformed("preflist row count"))
        );
        assert_eq!(
            parse(PREF_LIST, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF]),
            Err(MessageError::Malformed("preflist length mismatch"))
        );
        assert_eq!(
            parse(2, &[0xFF, 0xFF, 0xFF, 0xFF]),
            Err(MessageError::Malformed("announce length mismatch"))
        );
        // A count one short of the body is as wrong as one beyond it.
        let mut wire = Vec::new();
        write_pref_list(&mut wire, 2, 3, [1i16, 2, 3, 4, 5, 6].into_iter());
        let (frame, _) = both_frames(&wire);
        let mut payload = frame.payload.to_vec();
        payload[3] = 1;
        assert_eq!(
            parse(PREF_LIST, &payload),
            Err(MessageError::Malformed("preflist length mismatch"))
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn preflist_roundtrips(
                prefs in (1usize..5).prop_flat_map(|k| proptest::collection::vec(
                    proptest::collection::vec(-100i16..100, k), 0..30)),
            ) {
                let msg = Message::PrefList { prefs };
                prop_assert_eq!(super::roundtrip(msg.clone()), msg);
            }

            #[test]
            fn decode_never_panics_on_garbage(
                msg_type in 0u8..10,
                payload in proptest::collection::vec(any::<u8>(), 0..128),
            ) {
                let frame = crate::frame::Frame { msg_type, payload };
                let _ = Message::decode(&frame); // must not panic
            }
        }
    }
}
