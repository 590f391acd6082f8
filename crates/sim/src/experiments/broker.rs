//! The synthetic broker workload: seeded random gain tables, one pair of
//! mappers per session. The benchmark's `broker_*` workloads, the
//! allocation budget and the pinned wire bytes all serve these sessions.

use nexit_broker::SessionSpec;
use nexit_core::{GainTable, NexitConfig, PreferenceMapper, SessionInput};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::IcxId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Flows per session of the synthetic workload.
pub const FLOWS: usize = 16;
/// Alternatives per flow for the synthetic workload.
pub const ALTS: usize = 4;
