//! Globally optimal distance routing.
//!
//! With the distance metric, flows are independent: the globally optimal
//! routing "uses the interconnection that minimizes the total distance for
//! each flow" (§5.1). No LP needed — a per-flow argmin.

use nexit_routing::{Assignment, PairFlows};
use nexit_topology::IcxId;

/// The assignment minimizing each flow's total end-to-end distance.
/// Ties break to the lower interconnection id, deterministically.
pub fn optimal_distance(flows: &PairFlows) -> Assignment {
    let choices = flows
        .iter()
        .map(|(_, _, m)| {
            let mut best = IcxId::new(0);
            let mut best_km = m.total_km(best);
            for alt in 1..m.num_alternatives() {
                let id = IcxId::new(alt);
                let km = m.total_km(id);
                if km < best_km {
                    best = id;
                    best_km = km;
                }
            }
            best
        })
        .collect();
    Assignment::from_choices(choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_routing::{assignment, ShortestPaths};
    use nexit_topology::{
        GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, PairView, Pop, PopId,
    };

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
    fn picks_total_minimum_per_flow() {
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
        let opt = optimal_distance(&flows);
        // Flow a0->b0 (id 0): icx0 total 0 vs icx1 total 400 -> icx0.
        assert_eq!(opt.choice(nexit_routing::FlowId(0)), IcxId(0));
        // Flow a2->b2 (id 8): icx1 total 0.
        assert_eq!(opt.choice(nexit_routing::FlowId(8)), IcxId(1));
        // Flow a0->b2 (id 2): 200 either way; tie -> icx0.
        assert_eq!(opt.choice(nexit_routing::FlowId(2)), IcxId(0));
    }

    #[test]
    fn optimal_never_worse_than_any_assignment() {
        let a = line(0, 4);
        let b = line(1, 4);
        let pair = IspPair::new(
            &a,
            &b,
            vec![
                Interconnection {
                    pop_a: PopId(0),
                    pop_b: PopId(0),
                    length_km: 3.0,
                },
                Interconnection {
                    pop_a: PopId(3),
                    pop_b: PopId(3),
                    length_km: 3.0,
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
        let opt = optimal_distance(&flows);
        let opt_total = assignment::total_distance_km(&flows, &opt);
        for icx in 0..2 {
            let uniform = Assignment::uniform(flows.len(), IcxId::new(icx));
            assert!(opt_total <= assignment::total_distance_km(&flows, &uniform) + 1e-9);
        }
        let early = Assignment::early_exit(&view, &sp_a, &flows);
        assert!(opt_total <= assignment::total_distance_km(&flows, &early) + 1e-9);
    }
}
