//! Broker throughput + equivalence experiment (`experiments broker`).
//!
//! Serves a synthetic batch of negotiation pairs through
//! [`nexit_broker::Broker`] and verifies every outcome byte-identical to
//! the in-process engine ([`nexit_core::negotiate`]) run sequentially on
//! the same sessions, then reports sessions/sec. The synthetic workload
//! (seeded random gain tables) is shared with the `broker/*` benchmark
//! rows so measured numbers and CI gates describe the same sessions.

use nexit_broker::{Broker, BrokerConfig, PairOutcome, SessionSpec};
use nexit_core::{negotiate, GainTable, NexitConfig, Party, PreferenceMapper, SessionInput};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// A mapper reading from a fixed, pre-seeded gain table. Rebuilding it
/// from the same seed reproduces the identical table, which is how the
/// sequential engine reference gets byte-identical inputs.
#[derive(Clone)]
pub struct SeededTableMapper {
    gains: GainTable,
}

impl SeededTableMapper {
    /// Deterministic random gains for `flows` flows × `alts`
    /// alternatives; alternative 0 (the default) always gains zero.
    pub fn new(flows: usize, alts: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gains = GainTable::new(flows, alts);
        for f in 0..flows {
            let row = gains.row_mut(f);
            for cell in row.iter_mut() {
                *cell = rng.gen_range(-50.0..50.0);
            }
            row[0] = 0.0;
        }
        Self { gains }
    }
}

impl PreferenceMapper for SeededTableMapper {
    /// One copy of the whole table: right only while `input` is the
    /// whole session, i.e. under configurations that never reassign
    /// (every caller runs [`NexitConfig::win_win`]). Under one that
    /// does, the machine's shape assert speaks.
    fn gains(&mut self, _input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
        out.copy_from(&self.gains);
    }
}

fn session_input(flows: usize, alts: usize) -> SessionInput {
    SessionInput {
        flow_ids: (0..flows).map(FlowId::new).collect(),
        defaults: vec![IcxId(0); flows],
        volumes: vec![1.0; flows],
        num_alternatives: alts,
    }
}

/// The synthetic broker workload: `pairs` independent sessions of
/// `flows` flows × `alts` alternatives, mappers seeded from `seed`.
/// Shared by `experiments broker` and the `broker/*` bench rows.
pub fn synthetic_specs(
    pairs: usize,
    flows: usize,
    alts: usize,
    seed: u64,
) -> Vec<SessionSpec<'static>> {
    (0..pairs)
        .map(|p| {
            SessionSpec::honest(
                session_input(flows, alts),
                Assignment::uniform(flows, IcxId(0)),
                SeededTableMapper::new(flows, alts, seed ^ (2 * p as u64)),
                SeededTableMapper::new(flows, alts, seed ^ (2 * p as u64 + 1)),
                NexitConfig::win_win(),
            )
        })
        .collect()
}

/// One broker run's measurements.
#[derive(Debug, Clone)]
pub struct BrokerReport {
    /// Sessions submitted.
    pub pairs: usize,
    /// Worker threads requested (0 = all cores).
    pub workers: usize,
    /// Sessions that completed with outcomes.
    pub completed: usize,
    /// Sessions whose outcome differed from the sequential engine.
    pub mismatches: usize,
    /// Wall-clock time of the broker run (excludes the engine replay).
    pub elapsed: Duration,
    /// `completed / elapsed` (the headline number).
    pub sessions_per_sec: f64,
    /// Wire frames moved.
    pub frames: u64,
    /// Wire bytes moved.
    pub bytes: u64,
    /// Session-ticks spent parked on backpressure.
    pub parked: u64,
}

/// Re-run one pair's session through the in-process engine and compare.
fn matches_engine(pair: usize, flows: usize, alts: usize, seed: u64, out: &PairOutcome) -> bool {
    let mut a = Party::honest(
        "A",
        SeededTableMapper::new(flows, alts, seed ^ (2 * pair as u64)),
    );
    let mut b = Party::honest(
        "B",
        SeededTableMapper::new(flows, alts, seed ^ (2 * pair as u64 + 1)),
    );
    let reference = negotiate(
        &session_input(flows, alts),
        &Assignment::uniform(flows, IcxId(0)),
        &mut a,
        &mut b,
        &NexitConfig::win_win(),
    );
    reference.assignment.choices() == out.a.assignment.choices()
        && out.a.assignment == out.b.assignment
        && reference.gain_a == out.a.my_gain
        && reference.gain_b == out.b.my_gain
        && reference.termination == out.a.termination
        && reference.termination == out.b.termination
        && reference.reassignments == out.a.reassignments
}

/// Session shape used by `experiments broker` and the bench rows.
pub const FLOWS: usize = 16;
/// Alternatives per flow for the synthetic workload.
pub const ALTS: usize = 4;

/// Serve `pairs` synthetic sessions on `workers` threads, verify every
/// outcome against the sequential engine, and report throughput.
pub fn run(pairs: usize, workers: usize, seed: u64) -> BrokerReport {
    let specs = synthetic_specs(pairs, FLOWS, ALTS, seed);
    let broker = Broker::new(BrokerConfig::with_workers(workers));
    let start = Instant::now();
    let run = broker.run_pairs(specs);
    let elapsed = start.elapsed();

    let mut mismatches = 0usize;
    for (p, result) in run.results.iter().enumerate() {
        match result.outcome() {
            Some(out) if matches_engine(p, FLOWS, ALTS, seed, out) => {}
            _ => mismatches += 1,
        }
    }
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    BrokerReport {
        pairs,
        workers,
        completed: run.stats.completed,
        mismatches,
        elapsed,
        sessions_per_sec: run.stats.completed as f64 / secs,
        frames: run.stats.frames,
        bytes: run.stats.bytes,
        parked: run.stats.parked,
    }
}

/// Print one report row.
pub fn report(r: &BrokerReport) {
    println!(
        "broker: {} pairs on {} worker(s): {} completed, {} mismatches vs engine, \
         {:.1} sessions/sec ({:.3}s; {} frames, {} bytes, {} parked ticks)",
        r.pairs,
        if r.workers == 0 {
            nexit_core::parallel::resolve_threads(0)
        } else {
            r.workers
        },
        r.completed,
        r.mismatches,
        r.sessions_per_sec,
        r.elapsed.as_secs_f64(),
        r.frames,
        r.bytes,
        r.parked,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_batch_matches_engine_exactly() {
        let r = run(64, 1, 7);
        assert_eq!(r.completed, 64);
        assert_eq!(r.mismatches, 0);
    }

    #[test]
    fn synthetic_specs_are_reproducible() {
        // Same seed twice → same broker outcomes (specs are pure).
        let broker = Broker::new(BrokerConfig::with_workers(1));
        let a = broker.run_pairs(synthetic_specs(8, FLOWS, ALTS, 3));
        let b = broker.run_pairs(synthetic_specs(8, FLOWS, ALTS, 3));
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            let (x, y) = (x.outcome().unwrap(), y.outcome().unwrap());
            assert_eq!(x.a.assignment, y.a.assignment);
            assert_eq!(x.a.my_gain, y.a.my_gain);
        }
    }
}
