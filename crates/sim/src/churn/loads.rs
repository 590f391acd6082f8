//! Per-link load state for an objective whose gain rows read loads (the
//! bandwidth objective): the one module that knows how loads are
//! layered, quantized, and how a load move invalidates cached rows.
//!
//! Active and background volumes are accumulated separately per side;
//! the effective load on link `l` is `active[l] + scale * background[l]`,
//! quantized into utilization classes (`nexit_core::utilization_classes`,
//! width 1/16) that make every gain row a pure function of the per-link
//! class vector. A flow event moves one flow's volume between the two
//! layers along its default paths in O(links touched); a load delta
//! changes only `scale`. Either way the classes are re-quantized and
//! exactly the cached rows whose footprint intersects a link whose class
//! moved are dropped ([`GainCache::bump_load_epoch`]).

use super::model::{ChurnPair, LogicalState};
use crate::pairdata::PairData;
use nexit_core::{utilization_classes, GainCache, LinkSet, SideLoads};
use nexit_routing::FlowId;
use nexit_topology::LinkId;

/// One side's per-link loads on one variant, in two layers, plus the
/// utilization classes of the current load epoch.
pub(super) struct SideLayers {
    /// Active flows' volumes on their default paths.
    active: SideLoads,
    /// Background (inactive) volumes, at nominal scale.
    background: SideLoads,
    classes: Vec<u32>,
}

impl SideLayers {
    /// Utilization classes of the current load epoch.
    pub(super) fn classes(&self) -> &[u32] {
        &self.classes
    }

    /// Quantize the effective loads into `out` (`eff` is scratch).
    fn quantize(&self, scale: f64, caps: &[f64], eff: &mut Vec<f64>, out: &mut Vec<u32>) {
        eff.clear();
        eff.extend(
            self.active
                .loads()
                .iter()
                .zip(self.background.loads())
                .map(|(&a, &b)| a + scale * b),
        );
        utilization_classes(eff, caps, out);
    }

    /// The layer a flow's volume rides in.
    fn layer(&mut self, active: bool) -> &mut SideLoads {
        if active {
            &mut self.active
        } else {
            &mut self.background
        }
    }
}

/// Flow `f`'s default paths on `data` as `[side A, side B]` links.
fn default_paths<'d>(data: &'d PairData<'_>, f: FlowId) -> [&'d [LinkId]; 2] {
    let d = data.default.choice(f);
    [data.paths.up_links(f, d), data.paths.down_links(f, d)]
}

/// From-scratch load state of `state`'s variant, `[side A, side B]`:
/// both layers aggregated over the variant's own defaults in flow order,
/// then quantized. The driver builds its tracker through this at
/// bring-up and on every topology flap, and the cold rebuild calls it
/// per event — so what the replay check compares against it is the
/// tracker's *incremental* maintenance ([`LoadTracker::refresh`]).
pub(super) fn aggregate(pair: &ChurnPair<'_>, state: &LogicalState) -> [SideLayers; 2] {
    let data = &pair.variants[state.variant];
    let mut sides = pair.caps().map(|caps| SideLayers {
        active: SideLoads::zero(caps.len()),
        background: SideLoads::zero(caps.len()),
        classes: Vec::new(),
    });
    for (i, &on) in state.active.iter().enumerate() {
        let f = FlowId::new(i);
        let volume = data.flows.flows[i].volume;
        for (side, links) in sides.iter_mut().zip(default_paths(data, f)) {
            side.layer(on).add_path(links, volume);
        }
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
    /// Links whose utilization class the last refresh moved, per side.
    moved: [LinkSet; 2],
    /// Effective loads and fresh classes of one side.
    eff: Vec<f64>,
    fresh: Vec<u32>,
    /// Distinct flows whose cached rows the last refresh dropped.
    dropped: Vec<bool>,
    dropped_list: Vec<usize>,
}

impl LoadTracker {
    pub(super) fn new(pair: &ChurnPair<'_>, state: &LogicalState) -> Self {
        Self {
            sides: aggregate(pair, state),
            moved: pair.caps().map(|caps| LinkSet::new(caps.len())),
            eff: Vec::new(),
            fresh: Vec::new(),
            dropped: vec![false; pair.num_flows()],
            dropped_list: Vec::new(),
        }
    }

    /// The live variant changed: its defaults (what both layers
    /// accumulate over) are different, so start over from scratch.
    pub(super) fn rebuild(&mut self, pair: &ChurnPair<'_>, state: &LogicalState) {
        self.sides = aggregate(pair, state);
    }

    /// Current `[side A, side B]` load state.
    pub(super) fn sides(&self) -> &[SideLayers; 2] {
        &self.sides
    }

    /// Whether the last [`LoadTracker::refresh`] dropped `f`'s row.
    pub(super) fn dropped(&self, f: FlowId) -> bool {
        self.dropped[f.index()]
    }

    /// A flow or load event on the live variant (`state` already has it
    /// applied): move the churned flow's volume to the layer it now
    /// rides in, re-quantize, advance both side caches' load epochs and
    /// drop every cached row whose footprint intersects a moved class.
    /// Returns the number of distinct **active** flows among the dropped
    /// rows (inactive rows are dropped too but do not impact the
    /// session); zero means the gain tables are provably bit-identical
    /// to a fresh fill against the new snapshot.
    pub(super) fn refresh(
        &mut self,
        pair: &ChurnPair<'_>,
        state: &LogicalState,
        churned: Option<FlowId>,
        caches: &mut (GainCache, GainCache),
    ) -> usize {
        if let Some(f) = churned {
            let data = &pair.variants[state.variant];
            let volume = data.flows.flows[f.index()].volume;
            let now_active = state.active[f.index()];
            for (side, links) in self.sides.iter_mut().zip(default_paths(data, f)) {
                side.layer(!now_active).add_path(links, -volume);
                side.layer(now_active).add_path(links, volume);
            }
        }
        let sides = self.sides.iter_mut().zip(&mut self.moved);
        for ((side, moved), caps) in sides.zip(pair.caps()) {
            side.quantize(state.scale, caps, &mut self.eff, &mut self.fresh);
            moved.clear();
            for (l, (&new, old)) in self.fresh.iter().zip(&mut side.classes).enumerate() {
                if new != *old {
                    *old = new;
                    moved.insert(LinkId::new(l));
                }
            }
        }
        for &f in &self.dropped_list {
            self.dropped[f] = false;
        }
        self.dropped_list.clear();
        let (dropped, dropped_list) = (&mut self.dropped, &mut self.dropped_list);
        let mut count = 0usize;
        let mut mark = |f: usize| {
            if !dropped[f] {
                dropped[f] = true;
                dropped_list.push(f);
                if state.active[f] {
                    count += 1;
                }
            }
        };
        caches.0.bump_load_epoch(&self.moved[0], &mut mark);
        caches.1.bump_load_epoch(&self.moved[1], &mut mark);
        count
    }
}
