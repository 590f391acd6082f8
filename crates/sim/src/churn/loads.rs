//! Per-link load state for an objective whose gain rows read loads (the
//! bandwidth objective): the one module that knows how loads are
//! layered and quantized, and whether an event moved a class.
//!
//! Active and background volumes are accumulated separately per side;
//! the effective load on link `l` is `active[l] + scale * background[l]`,
//! quantized into utilization classes (`nexit_core::utilization_classes`,
//! width 1/16) that make every gain row a pure function of the per-link
//! class vector. A flow event moves one flow's volume between the two
//! layers along its default paths in O(links touched); a load delta
//! changes only `scale`. Either way the classes are re-quantized, and
//! [`LoadTracker::refresh`] reports whether any of them moved: with none
//! moved every gain row — and so the negotiated outcome — is provably
//! what it was. Volumes are exact units (`nexit_workload::exact_volume`),
//! so the maintained layers equal a cold [`aggregate`] bit for bit.

use super::model::{ChurnPair, LogicalState};
use nexit_core::utilization_classes;
use nexit_routing::FlowId;
use nexit_workload::exact_volume;

/// One side's per-link loads on one variant, in two layers, plus the
/// utilization classes they quantize to.
pub(super) struct SideLayers {
    /// Active flows' volumes on their default paths.
    active: Vec<f64>,
    /// Background (inactive) volumes, at nominal scale.
    background: Vec<f64>,
    classes: Vec<u32>,
}

impl SideLayers {
    /// Quantize the effective loads into `out` (`eff` is scratch).
    fn quantize(&self, scale: f64, caps: &[f64], eff: &mut Vec<f64>, out: &mut Vec<u32>) {
        eff.clear();
        eff.extend(
            self.active
                .iter()
                .zip(&self.background)
                .map(|(&a, &b)| a + scale * b),
        );
        utilization_classes(eff, caps, out);
    }

    /// The layer a flow's volume rides in.
    fn layer(&mut self, active: bool) -> &mut [f64] {
        if active {
            &mut self.active
        } else {
            &mut self.background
        }
    }
}

/// The `[side A, side B]` utilization classes of a load state.
pub(super) fn classes(sides: &[SideLayers; 2]) -> [&[u32]; 2] {
    sides.each_ref().map(|side| side.classes.as_slice())
}

/// From-scratch load state of `state`'s variant, `[side A, side B]`:
/// each layer aggregated over the variant's own defaults in flow order,
/// then quantized. The driver builds its tracker through this at
/// bring-up and on every topology flap, and the cold rebuild calls it
/// per event — so what the replay check compares against it is the
/// tracker's *incremental* maintenance ([`LoadTracker::refresh`]).
pub(super) fn aggregate(pair: &ChurnPair<'_>, state: &LogicalState) -> [SideLayers; 2] {
    let data = &pair.variants[state.variant];
    let mut sides = pair.caps().map(|caps| SideLayers {
        active: vec![0.0; caps.len()],
        background: vec![0.0; caps.len()],
        classes: Vec::new(),
    });
    // The default-path moves of the flows whose activity is `on`.
    let moves = |on: bool| {
        (0..state.active.len())
            .filter(move |&i| state.active[i] == on)
            .map(move |i| {
                let (f, volume) = (FlowId::new(i), exact_volume(data.flows.flows[i].volume));
                (f, data.default.choice(f), volume)
            })
    };
    for (side, upstream) in sides.iter_mut().zip([true, false]) {
        let paths = &data.paths;
        paths.add_loads(upstream, moves(true), &mut side.active);
        paths.add_loads(upstream, moves(false), &mut side.background);
    }
    let mut eff = Vec::new();
    for (side, caps) in sides.iter_mut().zip(pair.caps()) {
        let mut classes = Vec::new();
        side.quantize(state.scale, caps, &mut eff, &mut classes);
        side.classes = classes;
    }
    sides
}

/// The live variant's load state, maintained incrementally, and the
/// scratch its refresh step needs.
pub(super) struct LoadTracker {
    sides: [SideLayers; 2],
    /// Effective loads and fresh classes of one side.
    eff: Vec<f64>,
    fresh: Vec<u32>,
}

impl LoadTracker {
    pub(super) fn new(pair: &ChurnPair<'_>, state: &LogicalState) -> Self {
        Self {
            sides: aggregate(pair, state),
            eff: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// The live variant changed: its defaults (what both layers
    /// accumulate over) are different, so start over from scratch.
    pub(super) fn rebuild(&mut self, pair: &ChurnPair<'_>, state: &LogicalState) {
        self.sides = aggregate(pair, state);
    }

    /// Current `[side A, side B]` utilization classes.
    pub(super) fn classes(&self) -> [&[u32]; 2] {
        classes(&self.sides)
    }

    /// A flow or load event on the live variant (`state` already has it
    /// applied): move the churned flow's volume to the layer it now
    /// rides in and re-quantize. Returns whether any link's utilization
    /// class moved on either side; `false` means every gain row is
    /// provably bit-identical to a fresh fill against the new loads.
    pub(super) fn refresh(
        &mut self,
        pair: &ChurnPair<'_>,
        state: &LogicalState,
        churned: Option<FlowId>,
    ) -> bool {
        if let Some(f) = churned {
            let data = &pair.variants[state.variant];
            let (paths, d) = (&data.paths, data.default.choice(f));
            let volume = exact_volume(data.flows.flows[f.index()].volume);
            let now_active = state.active[f.index()];
            for (side, upstream) in self.sides.iter_mut().zip([true, false]) {
                paths.add_loads(upstream, [(f, d, -volume)], side.layer(!now_active));
                paths.add_loads(upstream, [(f, d, volume)], side.layer(now_active));
            }
        }
        let mut moved = false;
        for (side, caps) in self.sides.iter_mut().zip(pair.caps()) {
            side.quantize(state.scale, caps, &mut self.eff, &mut self.fresh);
            if self.fresh != side.classes {
                std::mem::swap(&mut self.fresh, &mut side.classes);
                moved = true;
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{
        cold_rebuild, divergence, generate_trace, initial_active, universe, ChurnConfig,
        ChurnDriver, ChurnEvent, ChurnKind, Objective,
    };

    /// After a seeded run of flow events, both maintained layers equal a
    /// cold aggregate bit for bit. The feed's pairs carry identical
    /// volumes (1.0, whose sums are exact in any order), so the flows get
    /// fractional volumes here.
    #[test]
    fn refreshed_layers_equal_a_cold_aggregate_bit_for_bit() {
        let u = universe();
        let idx = u.eligible_pairs(3, false)[0];
        let mut pair = ChurnPair::build(&u, idx, 2);
        for data in &mut pair.variants {
            for (i, flow) in data.flows.flows.iter_mut().enumerate() {
                flow.volume = 0.1 + (i % 13) as f64 * 0.37;
            }
        }
        let initial = initial_active(&pair, 7);
        let mut state = LogicalState::new(initial.clone());
        let mut tracker = LoadTracker::new(&pair, &state);
        let mut flow_events = 0;
        for event in generate_trace(&pair, &initial, 400, 7) {
            let (ChurnKind::FlowAdd(f) | ChurnKind::FlowRemove(f)) = event.kind else {
                continue;
            };
            state.apply(&pair, event.kind);
            tracker.refresh(&pair, &state, Some(f));
            flow_events += 1;
        }
        assert!(flow_events >= 40, "{flow_events} flow events");
        let bits = |loads: &[f64]| loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        for (kept, cold) in tracker.sides.iter().zip(&aggregate(&pair, &state)) {
            assert_eq!(bits(&kept.active), bits(&cold.active));
            assert_eq!(bits(&kept.background), bits(&cold.background));
        }
    }

    /// The outcome cache's key is "did a class move on either side":
    /// re-asserting the nominal scale must hit, a load delta that moves
    /// a class on exactly one side must miss and renegotiate into what a
    /// cold rebuild gives, and repeating it must hit again.
    #[test]
    fn a_class_move_on_one_side_is_a_miss_and_no_move_a_hit() {
        let u = universe();
        let idx = u.eligible_pairs(3, false)[0];
        let pair = ChurnPair::build(&u, idx, 2);
        let initial = initial_active(&pair, 3);
        let mut state = LogicalState::new(initial.clone());
        let nominal = aggregate(&pair, &state);
        // The feed generator's ladder, nearest to nominal first.
        let factor = (1..=49)
            .flat_map(|step| [1.0 + step as f64 / 100.0, 1.0 - step as f64 / 100.0])
            .find(|&factor| {
                state.scale = factor;
                let scaled = aggregate(&pair, &state);
                let (was, now) = (classes(&nominal), classes(&scaled));
                (was[0] != now[0]) != (was[1] != now[1])
            })
            .expect("some background scale moves a class on one side only");

        let cfg = ChurnConfig {
            objective: Objective::Bandwidth,
        };
        let mut driver = ChurnDriver::new(&pair, initial, cfg);
        let steps = [(1.0, (1, 0)), (factor, (1, 1)), (factor, (2, 1))];
        for (tick, (factor, (hits, misses))) in (1..).zip(steps) {
            let kind = ChurnKind::LoadDelta { factor };
            driver.apply(&ChurnEvent { tick, kind });
            let signature = (driver.signature_hits, driver.signature_misses);
            assert_eq!(signature, (hits, misses), "tick {tick}");
            assert_eq!(driver.incremental_sessions, misses);
            assert_eq!(driver.cached_outcomes, hits);
            let (cold, _) = cold_rebuild(&pair, driver.state(), &cfg);
            assert_eq!(divergence(driver.negotiated(), &cold), None, "tick {tick}");
        }
    }
}
