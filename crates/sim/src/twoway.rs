//! Two-direction (combined) negotiation sessions.
//!
//! The paper's §5.1 distance experiments put *all* traffic between the
//! two ISPs on the table at once — "each with traffic flows going in both
//! directions" — because mutual compromises often pair a concession on an
//! A→B flow with a gain on a B→A flow. This module builds a combined
//! session over both directed flow sets and provides the distance mapper
//! that scores each ISP's own-side kilometres across both directions.
//!
//! Combined flow numbering: indices `0..n_fwd` are the A→B flows,
//! `n_fwd..n_fwd+n_rev` are the B→A flows (each in its own direction's
//! row-major order). A combined [`Assignment`] spans both ranges.

use crate::pairdata::PairData;
use nexit_core::{GainTable, PreferenceMapper, SessionInput, Side};
use nexit_routing::{Assignment, FlowId, PairFlows};

/// A combined two-direction session: input plus the stitched default
/// assignment.
pub struct TwoWaySession {
    /// Engine session input over the combined index space.
    pub input: SessionInput,
    /// Combined default assignment (fwd defaults then rev defaults).
    pub default: Assignment,
    /// Number of forward (A→B) flows.
    pub n_fwd: usize,
}

impl TwoWaySession {
    /// Build from the two directed datasets of one pair.
    pub fn build(fwd: &PairData<'_>, rev: &PairData<'_>) -> Self {
        let n_fwd = fwd.flows.len();
        let n_rev = rev.flows.len();
        let k = fwd.pair.num_interconnections();
        assert_eq!(k, rev.pair.num_interconnections());

        let mut flow_ids = Vec::with_capacity(n_fwd + n_rev);
        let mut defaults = Vec::with_capacity(n_fwd + n_rev);
        let mut volumes = Vec::with_capacity(n_fwd + n_rev);
        let mut choices = Vec::with_capacity(n_fwd + n_rev);
        for i in 0..n_fwd {
            flow_ids.push(FlowId::new(i));
            defaults.push(fwd.default.choice(FlowId::new(i)));
            volumes.push(fwd.flows.flows[i].volume);
            choices.push(fwd.default.choice(FlowId::new(i)));
        }
        for i in 0..n_rev {
            flow_ids.push(FlowId::new(n_fwd + i));
            defaults.push(rev.default.choice(FlowId::new(i)));
            volumes.push(rev.flows.flows[i].volume);
            choices.push(rev.default.choice(FlowId::new(i)));
        }
        Self {
            input: SessionInput {
                flow_ids,
                defaults,
                volumes,
                num_alternatives: k,
            },
            default: Assignment::from_choices(choices),
            n_fwd,
        }
    }

    /// Split a combined assignment back into per-direction assignments
    /// `(fwd, rev)`.
    pub fn split(&self, combined: &Assignment) -> (Assignment, Assignment) {
        let choices = combined.choices();
        (
            Assignment::from_choices(choices[..self.n_fwd].to_vec()),
            Assignment::from_choices(choices[self.n_fwd..].to_vec()),
        )
    }
}

/// Distance objective over both directions for one ISP.
///
/// For the ISP on `side` of the *forward* view: forward flows traverse it
/// as the upstream, reverse flows as the downstream.
pub struct TwoWayDistanceMapper<'a> {
    side: Side,
    fwd: &'a PairFlows,
    rev: &'a PairFlows,
    n_fwd: usize,
}

impl<'a> TwoWayDistanceMapper<'a> {
    /// Mapper for one ISP of the combined session.
    pub fn new(side: Side, fwd: &'a PairFlows, rev: &'a PairFlows, n_fwd: usize) -> Self {
        Self {
            side,
            fwd,
            rev,
            n_fwd,
        }
    }
}

impl PreferenceMapper for TwoWayDistanceMapper<'_> {
    fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
        for (i, (&fid, &default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            // Which direction does this combined index belong to, and
            // which side of that direction's view are we?
            let (metrics, upstream_here) = if fid.index() < self.n_fwd {
                (self.fwd.metrics(fid), self.side == Side::A)
            } else {
                (
                    self.rev.metrics(FlowId::new(fid.index() - self.n_fwd)),
                    self.side == Side::B,
                )
            };
            let km = |alt: usize| {
                if upstream_here {
                    metrics.up_km[alt]
                } else {
                    metrics.down_km[alt]
                }
            };
            let base = km(default.index());
            for (alt, cell) in out.row_mut(i).iter_mut().enumerate() {
                *cell = base - km(alt);
            }
        }
    }
}

/// Side distance of one ISP across both directions under per-direction
/// assignments. `side` is relative to the forward view.
pub fn twoway_side_distance(
    side: Side,
    fwd: &PairFlows,
    rev: &PairFlows,
    fwd_asg: &Assignment,
    rev_asg: &Assignment,
) -> f64 {
    let fwd_km = nexit_routing::assignment::side_distance_km(fwd, fwd_asg, side == Side::A);
    let rev_km = nexit_routing::assignment::side_distance_km(rev, rev_asg, side == Side::B);
    fwd_km + rev_km
}

/// Total two-direction distance under per-direction assignments.
pub fn twoway_total_distance(
    fwd: &PairFlows,
    rev: &PairFlows,
    fwd_asg: &Assignment,
    rev_asg: &Assignment,
) -> f64 {
    nexit_routing::assignment::total_distance_km(fwd, fwd_asg)
        + nexit_routing::assignment::total_distance_km(rev, rev_asg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairdata::ExpConfig;
    use nexit_topology::{GeneratorConfig, TopologyGenerator};
    use nexit_workload::WorkloadModel;

    fn setup() -> nexit_topology::Universe {
        TopologyGenerator::new(GeneratorConfig {
            num_isps: 10,
            num_mesh_isps: 0,
            seed: 5,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn combined_session_covers_both_directions() {
        let u = setup();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let a = &u.isps[pair.isp_a.index()];
        let b = &u.isps[pair.isp_b.index()];
        let cfg = ExpConfig::default();
        let fwd = PairData::build(a, b, pair.clone(), cfg.workload);
        let rev = PairData::build(b, a, fwd.mirrored_pair(), cfg.workload);
        let session = TwoWaySession::build(&fwd, &rev);
        assert_eq!(session.input.len(), fwd.flows.len() + rev.flows.len());
        let (f_asg, r_asg) = session.split(&session.default);
        assert_eq!(f_asg.choices(), fwd.default.choices());
        assert_eq!(r_asg.choices(), rev.default.choices());
        let _ = WorkloadModel::Gravity;
    }

    #[test]
    fn twoway_mapper_defaults_are_zero() {
        let u = setup();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let a = &u.isps[pair.isp_a.index()];
        let b = &u.isps[pair.isp_b.index()];
        let fwd = PairData::build(a, b, pair.clone(), WorkloadModel::Gravity);
        let rev = PairData::build(b, a, fwd.mirrored_pair(), WorkloadModel::Gravity);
        let session = TwoWaySession::build(&fwd, &rev);
        for side in [Side::A, Side::B] {
            let mut mapper = TwoWayDistanceMapper::new(side, &fwd.flows, &rev.flows, session.n_fwd);
            let mut gains = GainTable::new(session.input.len(), session.input.num_alternatives);
            mapper.gains(&session.input, &session.default, &mut gains);
            for i in 0..gains.num_flows() {
                assert_eq!(
                    gains.get(i, session.input.defaults[i].index()),
                    0.0,
                    "default column must be zero"
                );
            }
        }
    }
}
