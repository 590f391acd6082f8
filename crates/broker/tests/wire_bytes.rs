//! The bytes of one benchmark session, pinned.
//!
//! `crates/sim/tests/broker_determinism.rs` pins frame and byte *counts*
//! of whole batches; this pins the *content* of one `synthetic_specs`
//! session (the `broker_*` benchmark workloads' session), so a change to
//! a writer that keeps every length but moves a byte cannot pass.

use nexit_core::Side;
use nexit_proto::crc::crc32;
use nexit_proto::Agent;
use nexit_sim::experiments::broker::{synthetic_specs, ALTS, FLOWS};

#[test]
fn a_synthetic_session_puts_the_recorded_bytes_on_the_wire() {
    let spec = synthetic_specs(1, FLOWS, ALTS, 7).pop().expect("one spec");
    let mut a = Agent::new(
        Side::A,
        "pair0-A",
        spec.input.clone(),
        spec.default_assignment.clone(),
        spec.mapper_a,
        spec.disclosure_a,
        spec.config,
    )
    .expect("valid session");
    let mut b = Agent::new(
        Side::B,
        "pair0-B",
        spec.input,
        spec.default_assignment,
        spec.mapper_b,
        spec.disclosure_b,
        spec.config,
    )
    .expect("valid session");
    let (mut ab, mut ba) = (Vec::new(), Vec::new());
    loop {
        let before = ab.len() + ba.len();
        while let Some(frame) = a.poll_transmit() {
            b.handle_bytes(&frame).expect("clean session");
            ab.extend_from_slice(&frame);
        }
        while let Some(frame) = b.poll_transmit() {
            a.handle_bytes(&frame).expect("clean session");
            ba.extend_from_slice(&frame);
        }
        if ab.len() + ba.len() == before {
            break;
        }
    }
    assert!(a.is_done() && b.is_done());
    // Recorded at the commit before frames were written in place.
    assert_eq!((ab.len(), crc32(&ab)), (746, 0x62C3_7D46), "A→B stream");
    assert_eq!((ba.len(), crc32(&ba)), (507, 0x184E_3DDE), "B→A stream");
}
