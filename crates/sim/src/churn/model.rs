//! The event model: what a feed says ([`ChurnEvent`]), the static
//! per-pair data it plays over ([`ChurnPair`]), the logical state it
//! evolves ([`LogicalState`]) and the seeded feed generator. Shared by
//! the incremental driver, the cold rebuild and the sweep, so all three
//! agree on event semantics.

use crate::pairdata::PairData;
use nexit_core::{
    negotiate_in, BandwidthMapper, DistanceMapper, NexitConfig, Party, SessionInput, Side,
    TableArena, Termination,
};
use nexit_routing::{Assignment, FlowId};
use nexit_topology::{IcxId, Universe};
use nexit_workload::{assign_capacities, link_loads, CapacityModel, WorkloadModel};

/// States whose optimal-MEL baseline LP would exceed this many
/// variables skip the baseline.
const MAX_LP_VARIABLES: usize = 6_000;

/// What one churn event does to a pair's live state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnKind {
    /// A flow joins the negotiation table (it was background traffic).
    FlowAdd(FlowId),
    /// A flow leaves the table and reverts to its default route.
    FlowRemove(FlowId),
    /// Background (non-negotiated) traffic drifts to `factor` times its
    /// nominal volume — one step of the growth sweep's ladder, applied
    /// online as an rhs-only warm LP re-solve.
    LoadDelta {
        /// New absolute background scale.
        factor: f64,
    },
    /// An interconnection fails: negotiation moves to the reduced pair.
    LinkFail(IcxId),
    /// The failed interconnection heals: back to the full pair.
    LinkRestore,
}

/// One timestamped event of a pair's feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEvent {
    /// Event time in ticks (strictly increasing within a feed).
    pub tick: u64,
    /// What happened.
    pub kind: ChurnKind,
}

/// Which ISP-internal objective the churn driver negotiates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// §5.1 distance gains — geometry-static per variant, so no load
    /// move can touch a negotiated outcome.
    #[default]
    Distance,
    /// §5.2 overload avoidance over quantized utilization classes —
    /// load-dependent: an outcome stands until a class moves.
    Bandwidth,
}

impl Objective {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Distance => "distance",
            Objective::Bandwidth => "bandwidth",
        }
    }
}

/// Driver configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnConfig {
    /// The negotiation objective.
    pub objective: Objective,
}

/// Static per-pair data the churn state machine switches between: the
/// full pair plus one reduced variant per failable interconnection,
/// and the capacity model fixed from pre-churn loads.
pub struct ChurnPair<'u> {
    /// Topology variants; index 0 is the full pair, the rest reduced.
    pub variants: Vec<PairData<'u>>,
    /// Which interconnection each variant lacks (`None` for the full
    /// pair), parallel to `variants`.
    pub variant_failed: Vec<Option<IcxId>>,
    /// Upstream link capacities (assigned from pre-churn default loads).
    pub caps_up: Vec<f64>,
    /// Downstream link capacities.
    pub caps_down: Vec<f64>,
}

impl<'u> ChurnPair<'u> {
    /// Prepare one pair: build the full dataset, capacitate its links
    /// from the default (pre-churn) loads, and prebuild up to
    /// `max_failures` reduced variants (reusing the full pair's
    /// shortest-path matrices).
    pub fn build(universe: &'u Universe, pair_idx: usize, max_failures: usize) -> Self {
        let pair = &universe.pairs[pair_idx];
        let a = &universe.isps[pair.isp_a.index()];
        let b = &universe.isps[pair.isp_b.index()];
        let full = PairData::build(a, b, pair.clone(), WorkloadModel::Identical);

        let pre_loads = link_loads(&full.view(), &full.paths, &full.flows, &full.default);
        let caps_up = assign_capacities(&CapacityModel::default(), &pre_loads.up);
        let caps_down = assign_capacities(&CapacityModel::default(), &pre_loads.down);

        let mut variants = vec![];
        let mut variant_failed = vec![None];
        let mut reduced = Vec::new();
        for failed in 0..full.pair.num_interconnections() {
            if reduced.len() >= max_failures {
                break;
            }
            let failed_icx = IcxId::new(failed);
            let (reduced_pair, _mapping) = full.pair.without_interconnection(failed_icx);
            if reduced_pair.num_interconnections() < 2 {
                continue; // nothing left to negotiate over
            }
            reduced.push(full.build_reduced(reduced_pair, WorkloadModel::Identical));
            variant_failed.push(Some(failed_icx));
        }
        variants.push(full);
        variants.extend(reduced);
        Self {
            variants,
            variant_failed,
            caps_up,
            caps_down,
        }
    }

    /// Flows of the pair (identical across variants).
    pub fn num_flows(&self) -> usize {
        self.variants[0].flows.len()
    }

    /// Interconnections that can fail (those with a prepared variant).
    pub fn failable(&self) -> Vec<IcxId> {
        self.variant_failed.iter().filter_map(|f| *f).collect()
    }

    /// Link capacities as `[side A (upstream), side B (downstream)]`.
    pub(super) fn caps(&self) -> [&[f64]; 2] {
        [&self.caps_up, &self.caps_down]
    }

    /// Variant index for a failure state.
    fn variant_for(&self, failed: Option<IcxId>) -> usize {
        self.variant_failed
            .iter()
            .position(|f| *f == failed)
            .expect("failure state has a prepared variant")
    }
}

/// The logical (pre-negotiation) state an event feed evolves: which
/// flows are on the table, the background scale, and the topology
/// variant.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalState {
    /// Table membership per pair flow.
    pub active: Vec<bool>,
    /// Number of active flows.
    pub num_active: usize,
    /// Background traffic scale (1.0 = nominal).
    pub scale: f64,
    /// Current topology variant (index into [`ChurnPair::variants`]).
    pub variant: usize,
}

impl LogicalState {
    /// Initial state: the given table membership, nominal load, full
    /// topology.
    pub fn new(active: Vec<bool>) -> Self {
        let num_active = active.iter().filter(|&&on| on).count();
        Self {
            active,
            num_active,
            scale: 1.0,
            variant: 0,
        }
    }

    /// The flows on the table, in flow order.
    pub(super) fn active_flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        let on_table = self.active.iter().enumerate().filter(|(_, &on)| on);
        on_table.map(|(i, _)| FlowId::new(i))
    }

    /// Apply one event.
    pub fn apply(&mut self, pair: &ChurnPair<'_>, kind: ChurnKind) {
        match kind {
            ChurnKind::LoadDelta { factor } => self.scale = factor,
            ChurnKind::FlowAdd(f) => {
                assert!(!self.active[f.index()], "FlowAdd of an active flow");
                self.active[f.index()] = true;
                self.num_active += 1;
            }
            ChurnKind::FlowRemove(f) => {
                assert!(self.active[f.index()], "FlowRemove of an inactive flow");
                self.active[f.index()] = false;
                self.num_active -= 1;
            }
            ChurnKind::LinkFail(icx) => {
                assert_eq!(self.variant, 0, "LinkFail while already failed");
                self.variant = pair.variant_for(Some(icx));
            }
            ChurnKind::LinkRestore => {
                assert_ne!(self.variant, 0, "LinkRestore without a failure");
                self.variant = 0;
            }
        }
    }
}

/// Whether `state`'s optimal-MEL baseline LP — one variable per active
/// flow and interconnection of the live variant — fits the size budget.
/// The driver asks per event and the cold rebuild per state, so both
/// evaluate the baseline on exactly the same states.
pub(super) fn lp_fits(pair: &ChurnPair<'_>, state: &LogicalState) -> bool {
    let k = pair.variants[state.variant].pair.num_interconnections();
    state.num_active * k <= MAX_LP_VARIABLES
}

/// Negotiated state snapshot, for incremental-vs-cold comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct NegotiatedState {
    /// Full-pair assignment (active flows negotiated, the rest on the
    /// current variant's defaults).
    pub assignment: Assignment,
    /// Side A's true cumulative gain.
    pub gain_a: i64,
    /// Side B's true cumulative gain.
    pub gain_b: i64,
    /// How the session ended.
    pub termination: Termination,
    /// Reassignments performed in the session.
    pub reassignments: usize,
    /// Optimal-MEL baseline objective (`None` when the LP is skipped
    /// for size).
    pub opt_t: Option<f64>,
}

/// The session-input projection of a logical state on one variant.
fn session_input(data: &PairData<'_>, state: &LogicalState) -> SessionInput {
    let mut flow_ids = Vec::new();
    let mut defaults = Vec::new();
    let mut volumes = Vec::new();
    for fid in state.active_flows() {
        flow_ids.push(fid);
        defaults.push(data.default.choice(fid));
        volumes.push(data.flows.flows[fid.index()].volume);
    }
    SessionInput {
        flow_ids,
        defaults,
        volumes,
        num_alternatives: data.pair.num_interconnections(),
    }
}

/// One negotiation of `state`'s table on its variant, both parties on
/// the plain mappers: distance when `classes` is `None` (its gain rows
/// read no loads), otherwise the quantized bandwidth objective over the
/// given `[side A, side B]` utilization classes. The live driver and the
/// cold rebuild both run exactly this, so what the replay check compares
/// is what the callers differ in — maintained vs freshly aggregated
/// classes, a recycled vs a fresh arena. Returns the negotiated state
/// (baseline not evaluated) and the session's deterministic work units:
/// one per gain cell filled plus one per round.
pub(super) fn run_session(
    pair: &ChurnPair<'_>,
    state: &LogicalState,
    classes: Option<[&[u32]; 2]>,
    arena: &mut TableArena,
) -> (NegotiatedState, u64) {
    let data = &pair.variants[state.variant];
    let input = session_input(data, state);
    let sides = [(0, Side::A, "A"), (1, Side::B, "B")];
    let [mut party_a, mut party_b] = sides.map(|(i, side, name)| match classes {
        None => Party::honest(name, DistanceMapper::new(side, &data.flows)),
        Some(classes) => Party::honest(
            name,
            BandwidthMapper::new(side, &data.flows, &data.paths, pair.caps()[i])
                .with_classes(classes[i]),
        ),
    });
    let outcome = negotiate_in(
        arena,
        &input,
        &data.default,
        &mut party_a,
        &mut party_b,
        &NexitConfig::win_win(),
    );
    let cells = 2 * (input.len() * input.num_alternatives) as u64;
    let work = cells + outcome.transcript.len() as u64;
    (
        NegotiatedState {
            assignment: outcome.assignment,
            gain_a: outcome.gain_a,
            gain_b: outcome.gain_b,
            termination: outcome.termination,
            reassignments: outcome.reassignments,
            opt_t: None,
        },
        work,
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded initial table membership: roughly 60% of flows active, never
/// fewer than two.
pub fn initial_active(pair: &ChurnPair<'_>, seed: u64) -> Vec<bool> {
    let mut rng = seed ^ 0xA076_1D64_78BD_642F;
    let mut active: Vec<bool> = (0..pair.num_flows())
        .map(|_| splitmix64(&mut rng) % 100 < 60)
        .collect();
    if active.iter().filter(|&&on| on).count() < 2 {
        let second = 1 % active.len();
        active[0] = true;
        active[second] = true;
    }
    active
}

/// Generate a deterministic event feed for one pair: dominated by load
/// drift (~3/4, the growth ladder batched into online steps — traffic
/// shifts far more often than the flow set does), with flow
/// arrivals/departures (~20%) and rare interconnection failures that
/// heal within a few events. Every emitted event is valid for the state
/// it arrives in.
pub fn generate_trace(
    pair: &ChurnPair<'_>,
    initial: &[bool],
    num_events: usize,
    seed: u64,
) -> Vec<ChurnEvent> {
    let failable = pair.failable();
    let mut rng = seed ^ 0x9E6C_63D0_876A_3F6B;
    let mut state = LogicalState::new(initial.to_vec());
    let mut tick = 0u64;
    let mut trace = Vec::with_capacity(num_events);
    for _ in 0..num_events {
        tick += 1 + splitmix64(&mut rng) % 3;
        let roll = splitmix64(&mut rng) % 100;
        let n = state.active.len();
        let kind = if state.variant != 0 && roll < 25 {
            ChurnKind::LinkRestore
        } else if state.variant == 0 && !failable.is_empty() && roll < 4 {
            ChurnKind::LinkFail(failable[(splitmix64(&mut rng) as usize) % failable.len()])
        } else if roll < 80 {
            // 0.70..=1.49 × nominal background.
            ChurnKind::LoadDelta {
                factor: 0.70 + (splitmix64(&mut rng) % 80) as f64 / 100.0,
            }
        } else if roll < 90 {
            // Add a random inactive flow (fall back to drift if full).
            let start = (splitmix64(&mut rng) as usize) % n;
            match (0..n).map(|o| (start + o) % n).find(|&i| !state.active[i]) {
                Some(i) => ChurnKind::FlowAdd(FlowId::new(i)),
                None => ChurnKind::LoadDelta { factor: 1.0 },
            }
        } else {
            // Remove a random active flow, keeping at least two live.
            let start = (splitmix64(&mut rng) as usize) % n;
            match (0..n)
                .map(|o| (start + o) % n)
                .find(|&i| state.active[i])
                .filter(|_| state.num_active > 2)
            {
                Some(i) => ChurnKind::FlowRemove(FlowId::new(i)),
                None => ChurnKind::LoadDelta { factor: 1.0 },
            }
        };
        state.apply(pair, kind);
        trace.push(ChurnEvent { tick, kind });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::universe;

    #[test]
    fn traces_are_seed_deterministic() {
        let u = universe();
        let idx = u.eligible_pairs(3, false)[0];
        let pair = ChurnPair::build(&u, idx, 2);
        let initial = initial_active(&pair, 5);
        let t1 = generate_trace(&pair, &initial, 40, 5);
        let t2 = generate_trace(&pair, &initial, 40, 5);
        assert_eq!(t1, t2);
        let t3 = generate_trace(&pair, &initial, 40, 6);
        assert_ne!(t1, t3, "different seeds should differ");
        assert!(t1.windows(2).all(|w| w[0].tick < w[1].tick));
    }
}
