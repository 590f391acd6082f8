//! `broker_clean` and `broker_lossy`: whole batches of wire sessions
//! through `Broker::run_pairs`.
//!
//! One op is one batch of 250 sessions of 16 flows × 4 alternatives —
//! the smallest sessions, where per-message cost dominates: the `proto`
//! codec and agent and the `broker` tick do most of the work, `core`
//! little. `broker_clean` uses raw links, so the ARQ layer is bypassed;
//! `broker_lossy` runs the same batches over links that drop 5 % and
//! corrupt 5 % of frames, with reliability and degradation on, so
//! `proto::reliable` and the reliable tick carry every frame. A change
//! to the shared tick or codec must not pay for one with the other.

use super::{mix, Ctx, Values};
use crate::harness::{OpResult, Pass};
use crate::trace::{self, Span};
use nexit_broker::{Broker, BrokerConfig, BrokerRun, PairResult, ReliableConfig, SessionSpec};
use nexit_core::{
    negotiate, DisclosurePolicy, NegotiationOutcome, NexitConfig, Party, SessionInput, Side,
};
use nexit_proto::agent::Agent;
use nexit_proto::channel::{FaultConfig, FaultyLink};
use nexit_proto::driver::run_session;
use nexit_proto::frame::FrameCodec;
use nexit_proto::messages::Message;
use nexit_proto::reliable::run_reliable_session;
use nexit_routing::{Assignment, FlowId};
use nexit_sim::experiments::broker::{synthetic_specs, SeededTableMapper};
use nexit_topology::IcxId;
use std::hint::black_box;
use std::time::Instant;

const FLOWS: usize = 16;
const ALTS: usize = 4;

/// 5 % drop + 5 % corrupt on each link.
const LOSSY: FaultConfig = FaultConfig {
    drop_chance: 0.05,
    corrupt_chance: 0.05,
    ..FaultConfig::RELIABLE
};

/// `(batches, sessions per batch)`.
fn shape(ctx: &Ctx) -> (usize, usize) {
    if ctx.mini {
        (3, 50)
    } else {
        (100, 250)
    }
}

fn broker(lossy: bool) -> Broker {
    let config = BrokerConfig::with_workers(1);
    Broker::new(if lossy {
        config
            .with_reliability(ReliableConfig::default())
            .with_degradation()
    } else {
        config
    })
}

fn batch_seed(ctx: &Ctx, batch: usize) -> u64 {
    mix(ctx.seed, batch as u64)
}

fn batch_specs(ctx: &Ctx, batch: usize, sessions: usize, lossy: bool) -> Vec<SessionSpec<'static>> {
    let seed = batch_seed(ctx, batch);
    let specs = synthetic_specs(sessions, FLOWS, ALTS, seed);
    if !lossy {
        return specs;
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.with_faults(LOSSY, mix(seed, 1 + i as u64)))
        .collect()
}

fn session_input() -> SessionInput {
    SessionInput {
        flow_ids: (0..FLOWS).map(FlowId::new).collect(),
        defaults: vec![IcxId(0); FLOWS],
        volumes: vec![1.0; FLOWS],
        num_alternatives: ALTS,
    }
}

fn default_assignment() -> Assignment {
    Assignment::uniform(FLOWS, IcxId(0))
}

/// The two mappers `synthetic_specs(_, _, _, seed)` gives session `i`.
fn mappers(seed: u64, i: usize) -> (SeededTableMapper, SeededTableMapper) {
    (
        SeededTableMapper::new(FLOWS, ALTS, seed ^ (2 * i as u64)),
        SeededTableMapper::new(FLOWS, ALTS, seed ^ (2 * i as u64 + 1)),
    )
}

/// The in-process engine on session `i` of the batch seeded `seed`.
fn reference(seed: u64, i: usize) -> NegotiationOutcome {
    let (a, b) = mappers(seed, i);
    negotiate(
        &session_input(),
        &default_assignment(),
        &mut Party::honest("A", a),
        &mut Party::honest("B", b),
        &NexitConfig::win_win(),
    )
}

/// Every 25th session must be the in-process engine's outcome, or —
/// over lossy links only — the default assignment it degraded to.
fn verify_batch(seed: u64, run: &BrokerRun) -> OpResult {
    for (i, result) in run.results.iter().enumerate().step_by(25) {
        match result {
            PairResult::Negotiated(out) => {
                let want = reference(seed, i);
                let same = out.a.assignment == want.assignment
                    && out.b.assignment == want.assignment
                    && (out.a.my_gain, out.b.my_gain) == (want.gain_a, want.gain_b)
                    && out.a.termination == want.termination;
                if !same {
                    return Err(format!("session {i} differs from the in-process engine"));
                }
            }
            PairResult::Degraded { assignment, .. } => {
                if *assignment != default_assignment() {
                    return Err(format!("session {i} degraded to a non-default assignment"));
                }
            }
            PairResult::Failed(failure) => {
                return Err(format!("session {i} failed: {:?}", failure.error));
            }
        }
    }
    Ok(())
}

/// One pass: every batch, specs built in set-up.
pub fn pass(ctx: &Ctx, p: &mut Pass<'_>, lossy: bool) -> Values {
    let (batches, sessions) = shape(ctx);
    let broker = p.setup("broker.new", |_| broker(lossy));
    let specs: Vec<Vec<SessionSpec<'static>>> = p.setup("broker.specs", |_| {
        (0..batches)
            .map(|b| batch_specs(ctx, b, sessions, lossy))
            .collect()
    });
    let verify = p.verify;
    let mut counts = Values::new();
    for (b, batch) in specs.into_iter().enumerate() {
        p.op(|tr, digest| {
            let run = tr.span_units("broker.run_pairs", sessions as u64, || {
                broker.run_pairs(batch)
            });
            for result in &run.results {
                match result {
                    PairResult::Negotiated(out) => {
                        digest.assignment(&out.a.assignment);
                        digest.int(out.a.my_gain);
                        digest.int(out.b.my_gain);
                        digest.termination(out.a.termination);
                    }
                    PairResult::Degraded { assignment, .. } => {
                        digest.int(-1);
                        digest.assignment(assignment);
                    }
                    PairResult::Failed(_) => digest.int(-2),
                }
            }
            let s = &run.stats;
            for (name, value) in [
                ("sessions", s.sessions as f64),
                ("completed", s.completed as f64),
                ("recovered", s.recovered as f64),
                ("degraded", s.degraded as f64),
                ("retransmits", s.retransmits as f64),
                ("frames", s.frames as f64),
                ("bytes", s.bytes as f64),
                ("ticks", s.ticks as f64),
                ("parked", s.parked as f64),
            ] {
                *counts.entry(name).or_default() += value;
            }
            let peak = counts.entry("peak_active").or_default();
            *peak = peak.max(s.peak_active as f64);
            if s.completed + s.degraded != s.sessions || s.failed != 0 {
                return Err(format!(
                    "batch {b}: {} completed + {} degraded of {}, {} failed",
                    s.completed, s.degraded, s.sessions, s.failed
                ));
            }
            if verify {
                verify_batch(batch_seed(ctx, b), &run)?;
            }
            Ok(())
        });
    }
    counts
}

/// Layer metrics of a traced pass.
pub fn layer_metrics(spans: &[Span], counts: &Values, out: &mut Values) {
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let run = trace::totals(spans, "broker.run_pairs");
    let sessions = get("sessions");
    out.insert(
        "broker.sessions_per_s",
        trace::ratio(sessions, run.ns as f64 / 1e9),
    );
    out.insert(
        "broker.us_per_session",
        trace::ratio(run.ns as f64 / 1e3, sessions),
    );
    out.insert(
        "broker.ticks_per_session",
        trace::ratio(get("ticks"), sessions),
    );
    out.insert("broker.parked_ticks", get("parked"));
    out.insert("broker.peak_active", get("peak_active"));
    out.insert(
        "broker.degraded_share",
        trace::ratio(get("degraded"), sessions),
    );
    out.insert(
        "proto.frames_per_session",
        trace::ratio(get("frames"), sessions),
    );
    out.insert(
        "proto.bytes_per_session",
        trace::ratio(get("bytes"), sessions),
    );
    out.insert(
        "proto.arq_retransmits_per_session",
        trace::ratio(get("retransmits"), sessions),
    );
    out.insert(
        "proto.arq_recovered_share",
        trace::ratio(get("recovered"), sessions),
    );
}

/// Mean time of `f` over `reps` runs, in ns.
fn mean_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..reps {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

/// Encode → frame-decode → message-decode of one `PrefList`.
fn codec_roundtrip_ns(flows: usize, reps: usize) -> f64 {
    let prefs: Vec<Vec<i16>> = (0..flows)
        .map(|f| {
            (0..ALTS)
                .map(|a| ((f * 7 + a * 3) % 21) as i16 - 10)
                .collect()
        })
        .collect();
    let msg = Message::PrefList { prefs };
    mean_ns(reps, |_| {
        let wire = black_box(&msg).encode();
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let frame = codec
            .next_frame()
            .expect("own encoding decodes")
            .expect("one whole frame");
        black_box(Message::decode(&frame).expect("own encoding decodes"));
    })
}

fn agents(seed: u64, i: usize) -> (Agent<'static>, Agent<'static>) {
    let (a, b) = mappers(seed, i);
    let agent = |side, name, mapper| {
        Agent::new(
            side,
            name,
            session_input(),
            default_assignment(),
            mapper,
            DisclosurePolicy::Truthful,
            NexitConfig::win_win(),
        )
        .expect("synthetic sessions are valid")
    };
    (agent(Side::A, "A", a), agent(Side::B, "B", b))
}

/// Each layer under the broker on the broker's own sessions: the
/// in-process engine, the single-pair drivers, the codec — and the same
/// batches through the other link kind for the lossy ÷ clean ratio.
pub fn probes(ctx: &Ctx, out: &mut Values) {
    let reps = if ctx.mini { 20 } else { 1_000 };
    let seed = batch_seed(ctx, 0);

    let engine_ns = mean_ns(reps, |i| {
        black_box(reference(seed, i));
    });
    out.insert("core.session_16x4_us", engine_ns / 1e3);

    let direct_ns = mean_ns(reps, |i| {
        let (mut a, mut b) = agents(seed, i);
        let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
        black_box(run_session(&mut a, &mut b, &mut ab, &mut ba)).expect("clean session completes");
    });
    out.insert("proto.session_us_direct", direct_ns / 1e3);

    let arq_ns = mean_ns(reps, |i| {
        let (mut a, mut b) = agents(seed, i);
        a.set_replay_tolerance(true);
        b.set_replay_tolerance(true);
        let link_seed = mix(seed, 1 + i as u64);
        let mut ab = FaultyLink::new(LOSSY, link_seed);
        let mut ba = FaultyLink::new(LOSSY, link_seed ^ 1);
        // A session the retry budget cannot save is the broker's
        // degraded case; its cost belongs in the mean all the same.
        let _ = black_box(run_reliable_session(
            &mut a,
            &mut b,
            &mut ab,
            &mut ba,
            ReliableConfig::default(),
            100_000,
        ));
    });
    out.insert("proto.arq_session_us_direct", arq_ns / 1e3);

    out.insert(
        "proto.codec_roundtrip_ns_small",
        codec_roundtrip_ns(FLOWS, reps),
    );
    out.insert(
        "proto.codec_roundtrip_ns_large",
        codec_roundtrip_ns(500, reps / 10),
    );

    let (_, sessions) = shape(ctx);
    let batches = if ctx.mini { 1 } else { 10 };
    let batch_ns = |lossy: bool| {
        let broker = broker(lossy);
        let specs: Vec<_> = (0..batches)
            .map(|b| batch_specs(ctx, b, sessions, lossy))
            .collect();
        let mut specs = specs.into_iter();
        mean_ns(batches, |_| {
            black_box(broker.run_pairs(specs.next().expect("one batch per rep")));
        })
    };
    let (clean, lossy) = (batch_ns(false), batch_ns(true));
    out.insert("broker.lossy_over_clean", lossy / clean);
    out.insert(
        "broker.overhead_share",
        1.0 - engine_ns / (clean / sessions as f64),
    );
}
