//! Destination-based negotiation (the paper's footnote 2).
//!
//! The paper evaluates source-destination routing (each flow picked
//! independently) but notes Nexit "can be extended to destination-based
//! routing" — the granularity plain BGP offers, where every flow headed
//! to the same destination PoP must use the same interconnection — and
//! that "empirical evaluation with destination-based routing yields
//! results similar" to the headline numbers.
//!
//! The extension is purely a re-aggregation: one negotiated *unit* per
//! destination PoP, whose volume is the sum of its member flows and
//! whose metric gain for an alternative is the sum of member-flow gains.
//! The engine is unchanged; the unit's decision fans back out to every
//! member flow.

use crate::cdf::Cdf;
use crate::experiments::sweep::{sweep_pairs, Pairs, Rows, WinWinGate};
use crate::pairdata::{ExpConfig, PairData};
use nexit_core::{
    negotiate_in, DistanceMapper, GainTable, NexitConfig, Party, PreferenceMapper, SessionInput,
    Side,
};
use nexit_metrics::percent_gain;
use nexit_routing::assignment::total_distance_km;
use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::{IcxId, Universe};

/// A destination-granularity view of one directed flow set.
pub struct DestinationSession {
    /// Engine input: one entry per destination PoP (local index =
    /// destination PoP index).
    pub input: SessionInput,
    /// Member flows of each destination, in destination order.
    pub members: Vec<Vec<FlowId>>,
}

impl DestinationSession {
    /// Aggregate a directed pair's flows by destination PoP. The unit's
    /// default is the *volume-majority* default of its members (BGP
    /// would impose one; the heaviest-volume choice loses the least when
    /// imposed on everyone).
    pub fn build(data: &PairData<'_>) -> Self {
        let num_dsts = data.b.num_pops();
        let k = data.pair.num_interconnections();
        let mut members: Vec<Vec<FlowId>> = vec![Vec::new(); num_dsts];
        for (id, flow, _) in data.flows.iter() {
            members[flow.dst.index()].push(id);
        }
        let mut defaults = Vec::with_capacity(num_dsts);
        let mut volumes = Vec::with_capacity(num_dsts);
        for flows_of_dst in &members {
            let mut vol_by_alt = vec![0.0; k];
            let mut total = 0.0;
            for &f in flows_of_dst {
                let v = data.flows.flows[f.index()].volume;
                vol_by_alt[data.default.choice(f).index()] += v;
                total += v;
            }
            let majority = vol_by_alt
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite volumes"))
                .map(|(i, _)| i)
                .unwrap_or(0);
            defaults.push(IcxId::new(majority));
            volumes.push(total);
        }
        Self {
            input: SessionInput {
                flow_ids: (0..num_dsts).map(FlowId::new).collect(),
                defaults,
                volumes,
                num_alternatives: k,
            },
            members,
        }
    }

    /// The per-destination default assignment *fanned out* to flows (what
    /// destination-based BGP routing would actually do — this differs
    /// from the per-flow early-exit default!).
    pub fn fanned_default(&self, num_flows: usize) -> Assignment {
        let mut asg = Assignment::uniform(num_flows, IcxId::new(0));
        for (dst, flows) in self.members.iter().enumerate() {
            for &f in flows {
                asg.set(f, self.input.defaults[dst]);
            }
        }
        asg
    }

    /// Fan a destination-level outcome back out to per-flow choices.
    pub fn fan_out(&self, dst_assignment: &Assignment, num_flows: usize) -> Assignment {
        let mut asg = Assignment::uniform(num_flows, IcxId::new(0));
        for (dst, flows) in self.members.iter().enumerate() {
            let choice = dst_assignment.choice(FlowId::new(dst));
            for &f in flows {
                asg.set(f, choice);
            }
        }
        asg
    }
}

/// Distance mapper at destination granularity: the gain of moving a
/// destination to an alternative is the summed own-side gain of all its
/// member flows.
pub struct DestinationDistanceMapper<'a> {
    side: Side,
    flows: &'a PairFlows,
    members: Vec<Vec<FlowId>>,
}

impl<'a> DestinationDistanceMapper<'a> {
    /// Mapper over a destination session's member table.
    pub fn new(side: Side, flows: &'a PairFlows, session: &DestinationSession) -> Self {
        Self {
            side,
            flows,
            members: session.members.clone(),
        }
    }
}

impl PreferenceMapper for DestinationDistanceMapper<'_> {
    fn gains(&mut self, input: &SessionInput, _current: &Assignment, out: &mut GainTable) {
        let side = self.side;
        let flows = self.flows;
        for (i, (&dst_unit, &default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            let member_flows = &self.members[dst_unit.index()];
            for (alt, cell) in out.row_mut(i).iter_mut().enumerate() {
                *cell = member_flows
                    .iter()
                    .map(|&f| {
                        let m = flows.metrics(f);
                        let v = flows.flows[f.index()].volume;
                        let km = |a: usize| match side {
                            Side::A => m.up_km[a],
                            Side::B => m.down_km[a],
                        };
                        v * (km(default.index()) - km(alt))
                    })
                    .sum();
            }
        }
    }
}

/// Run destination-granularity negotiation across the distance pairs.
/// Per pair, the row is `(destination %, per-flow %)`: the total-distance
/// reduction of destination-granularity negotiation over the
/// destination-based (BGP-granularity) default, and that of per-flow
/// negotiation (the finer granularity the paper evaluates headline)
/// against the same baseline. Both sessions are gated.
pub fn run(universe: &Universe, cfg: &ExpConfig) -> Rows<(f64, f64)> {
    sweep_pairs(universe, cfg, Pairs::Distance, None, |arena, _, idx| {
        let pair = &universe.pairs[idx];
        let data = PairData::build(
            &universe.isps[pair.isp_a.index()],
            &universe.isps[pair.isp_b.index()],
            pair.clone(),
            cfg.workload,
        );
        let session = DestinationSession::build(&data);
        let config = NexitConfig::win_win();

        // Destination-granularity negotiation.
        let mut a = Party::honest(
            "A",
            DestinationDistanceMapper::new(Side::A, &data.flows, &session),
        );
        let mut b = Party::honest(
            "B",
            DestinationDistanceMapper::new(Side::B, &data.flows, &session),
        );
        let dst_default = Assignment::from_choices(session.input.defaults.clone());
        let outcome = negotiate_in(arena, &session.input, &dst_default, &mut a, &mut b, &config);
        let base = total_distance_km(&data.flows, &session.fanned_default(data.flows.len()));
        let negotiated = session.fan_out(&outcome.assignment, data.flows.len());

        // Per-flow negotiation on the same pair for the granularity gap.
        let flow_input = SessionInput {
            flow_ids: (0..data.flows.len()).map(FlowId::new).collect(),
            defaults: data.default.choices().to_vec(),
            volumes: data.flows.flows.iter().map(|f| f.volume).collect(),
            num_alternatives: data.pair.num_interconnections(),
        };
        let mut a = Party::honest("A", DistanceMapper::new(Side::A, &data.flows));
        let mut b = Party::honest("B", DistanceMapper::new(Side::B, &data.flows));
        let flow_out = negotiate_in(arena, &flow_input, &data.default, &mut a, &mut b, &config);
        let gains = (
            percent_gain(base, total_distance_km(&data.flows, &negotiated)),
            percent_gain(base, total_distance_km(&data.flows, &flow_out.assignment)),
        );
        (gains, WinWinGate::of(&outcome) + WinWinGate::of(&flow_out))
    })
}

/// Print the destination-granularity report.
pub fn report(results: &Rows<(f64, f64)>) {
    let rows = &results.rows;
    println!(
        "== Footnote 2: destination-granularity negotiation ({} pairs) ==",
        rows.len()
    );
    results.gate.print("");
    let destination = rows.iter().map(|r| r.0).collect::<Cdf>();
    destination.print("destination-negotiated (% vs BGP default)");
    let per_flow = rows.iter().map(|r| r.1).collect::<Cdf>();
    per_flow.print("per-flow negotiated (same baseline)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairdata::PairData;
    use nexit_core::{negotiate, NexitConfig, Party};
    use nexit_routing::assignment::total_distance_km;
    use nexit_topology::{GeneratorConfig, TopologyGenerator};
    use nexit_workload::WorkloadModel;

    fn setup() -> nexit_topology::Universe {
        TopologyGenerator::new(GeneratorConfig {
            num_isps: 12,
            num_mesh_isps: 0,
            seed: 21,
            ..GeneratorConfig::default()
        })
        .generate()
    }

    #[test]
    fn aggregation_covers_all_flows_once() {
        let u = setup();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let data = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Gravity,
        );
        let session = DestinationSession::build(&data);
        let total_members: usize = session.members.iter().map(Vec::len).sum();
        assert_eq!(total_members, data.flows.len());
        assert_eq!(session.input.len(), data.b.num_pops());
        // Unit volumes conserve total traffic.
        let unit_total: f64 = session.input.volumes.iter().sum();
        assert!((unit_total - data.flows.total_volume()).abs() < 1e-9);
    }

    #[test]
    fn fan_out_is_consistent_with_unit_choices() {
        let u = setup();
        let idx = u.eligible_pairs(2, true)[0];
        let pair = &u.pairs[idx];
        let data = PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WorkloadModel::Identical,
        );
        let session = DestinationSession::build(&data);
        let dst_default = Assignment::from_choices(session.input.defaults.clone());
        let fanned = session.fan_out(&dst_default, data.flows.len());
        for (dst, flows) in session.members.iter().enumerate() {
            for &f in flows {
                assert_eq!(fanned.choice(f), session.input.defaults[dst]);
            }
        }
        assert_eq!(fanned, session.fanned_default(data.flows.len()));
    }

    #[test]
    fn destination_negotiation_yields_similar_results() {
        // The footnote-2 claim: destination-granularity negotiation gains
        // are similar to (and necessarily no better than) per-flow gains.
        let u = setup();
        let mut flow_total = 0.0;
        let mut dst_total = 0.0;
        let mut base_total = 0.0;
        for &idx in u.eligible_pairs(2, true).iter().take(4) {
            let pair = &u.pairs[idx];
            let data = PairData::build(
                &u.isps[pair.isp_a.index()],
                &u.isps[pair.isp_b.index()],
                pair.clone(),
                WorkloadModel::Identical,
            );
            let session = DestinationSession::build(&data);
            // Destination-based *default*: BGP-granularity baseline.
            let base = session.fanned_default(data.flows.len());
            let mut a = Party::honest(
                "A",
                DestinationDistanceMapper::new(Side::A, &data.flows, &session),
            );
            let mut b = Party::honest(
                "B",
                DestinationDistanceMapper::new(Side::B, &data.flows, &session),
            );
            let dst_default = Assignment::from_choices(session.input.defaults.clone());
            let out = negotiate(
                &session.input,
                &dst_default,
                &mut a,
                &mut b,
                &NexitConfig::win_win(),
            );
            let negotiated = session.fan_out(&out.assignment, data.flows.len());

            // Per-flow negotiation on the same pair, same baseline.
            use nexit_core::DistanceMapper;
            let flow_input = SessionInput {
                flow_ids: (0..data.flows.len()).map(FlowId::new).collect(),
                defaults: data.default.choices().to_vec(),
                volumes: data.flows.flows.iter().map(|f| f.volume).collect(),
                num_alternatives: data.pair.num_interconnections(),
            };
            let mut a = Party::honest("A", DistanceMapper::new(Side::A, &data.flows));
            let mut b = Party::honest("B", DistanceMapper::new(Side::B, &data.flows));
            let flow_out = negotiate(
                &flow_input,
                &data.default,
                &mut a,
                &mut b,
                &NexitConfig::win_win(),
            );

            base_total += total_distance_km(&data.flows, &base);
            dst_total += total_distance_km(&data.flows, &negotiated);
            flow_total += total_distance_km(&data.flows, &flow_out.assignment);
        }
        // Destination-based negotiation improves on its own baseline...
        assert!(dst_total <= base_total + 1e-6);
        // ...and per-flow routing (finer granularity) is at least as good
        // as destination-based overall.
        assert!(flow_total <= dst_total * 1.05 + 1e-6);
    }
}
