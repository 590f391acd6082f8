//! Unilateral upstream optimization (Figure 8).
//!
//! The paper's hypothesis check: *"what happens if, instead of negotiating
//! with the downstream, the upstream unilaterally load balances outgoing
//! traffic?"* The upstream greedily re-routes impacted flows to minimize
//! the maximum load-to-capacity ratio inside *its own* network, blind to
//! the downstream. Figure 8 shows the downstream impact is unpredictable
//! and often harmful.

use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::{IcxId, PairView};
use nexit_workload::PathTable;

/// Greedy upstream-only optimization of the impacted flows.
///
/// Flows are processed in descending volume order (biggest levers first);
/// each picks the interconnection minimizing the maximum post-move
/// load-to-capacity ratio along its upstream path, given the loads of all
/// previous decisions. Ties break to the lower interconnection id.
pub fn unilateral_upstream(
    view: &PairView<'_>,
    paths: &PathTable,
    flows: &PairFlows,
    impacted: &[FlowId],
    default_assignment: &Assignment,
    up_capacities: &[f64],
) -> Assignment {
    let k = view.num_interconnections();
    let mut assignment = default_assignment.clone();

    // Current upstream loads under the default assignment.
    let mut loads = vec![0.0; up_capacities.len()];
    let routed = flows
        .iter()
        .map(|(fid, flow, _)| (fid, assignment.choice(fid), flow.volume));
    paths.add_loads(true, routed, &mut loads);

    let mut order: Vec<FlowId> = impacted.to_vec();
    // The comparator is a total order (volume desc, flow id asc), so the
    // unstable sort is deterministic and skips the stable sort's scratch
    // allocation — this runs once per failure scenario in the bandwidth
    // sweeps.
    order.sort_unstable_by(|x, y| {
        let vx = flows.flows[x.index()].volume;
        let vy = flows.flows[y.index()].volume;
        vy.partial_cmp(&vx)
            .expect("volumes are finite")
            .then(x.cmp(y))
    });

    for fid in order {
        let volume = flows.flows[fid.index()].volume;
        let cur = assignment.choice(fid);
        // Remove the flow from its current path, then evaluate each
        // alternative on the emptied state.
        paths.add_loads(true, [(fid, cur, -volume)], &mut loads);
        let mut best = IcxId::new(0);
        let mut best_cost = f64::INFINITY;
        for alt in 0..k {
            let alt_id = IcxId::new(alt);
            let cost = paths
                .up_links(fid, alt_id)
                .iter()
                .map(|&l| (loads[l.index()] + volume) / up_capacities[l.index()])
                .fold(0.0_f64, f64::max);
            if cost < best_cost {
                best_cost = cost;
                best = alt_id;
            }
        }
        paths.add_loads(true, [(fid, best, volume)], &mut loads);
        assignment.set(fid, best);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_metrics::mel;
    use nexit_routing::ShortestPaths;
    use nexit_topology::{
        GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, Pop, PopId,
    };
    use nexit_workload::link_loads;

    fn pop(city: &str, lon: f64) -> Pop {
        Pop {
            city: city.into(),
            geo: GeoPoint::new(0.0, lon),
            weight: 1.0,
        }
    }

    fn line(id: u32, n: usize) -> IspTopology {
        let pops = (0..n).map(|i| pop(&format!("c{i}"), i as f64)).collect();
        let links = (0..n - 1)
            .map(|i| Link {
                a: PopId::new(i),
                b: PopId::new(i + 1),
                weight: 100.0,
                length_km: 100.0,
            })
            .collect();
        IspTopology::new(IspId(id), format!("L{id}"), pops, links, false).unwrap()
    }

    #[test]
    fn upstream_mel_improves_or_holds() {
        let a = line(0, 3);
        let b = line(1, 3);
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 0.0,
                },
                Interconnection {
                    pop_a: PopId(2),
                    pop_b: PopId(2),
                    length_km: 0.0,
                },
            ],
        )
        .unwrap();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |s, d| {
            1.0 + (s.index() + d.index()) as f64
        });
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps = vec![3.0; a.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted: Vec<FlowId> = (0..flows.len()).map(FlowId::new).collect();
        let uni = unilateral_upstream(&view, &paths, &flows, &impacted, &default, &caps);

        let before = link_loads(&view, &paths, &flows, &default);
        let after = link_loads(&view, &paths, &flows, &uni);
        assert!(
            mel(&after.up, &caps) <= mel(&before.up, &caps) + 1e-9,
            "greedy must not worsen the upstream"
        );
    }

    #[test]
    fn untouched_flows_keep_their_assignment() {
        let a = line(0, 3);
        let b = line(1, 3);
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 0.0,
                },
                Interconnection {
                    pop_a: PopId(2),
                    pop_b: PopId(2),
                    length_km: 0.0,
                },
            ],
        )
        .unwrap();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let paths = PathTable::build(&view, &sp_a, &sp_b, &flows);
        let caps = vec![3.0; a.num_links()];
        let default = Assignment::uniform(flows.len(), IcxId(0));
        let impacted = vec![FlowId::new(4)];
        let uni = unilateral_upstream(&view, &paths, &flows, &impacted, &default, &caps);
        for (id, choice) in uni.iter() {
            if id != FlowId::new(4) {
                assert_eq!(choice, default.choice(id));
            }
        }
    }
}
