//! Flow-to-interconnection assignments.
//!
//! Every routing method in the workspace — default (early-exit), globally
//! optimal, negotiated, filtered, unilateral — produces the same output
//! type: an [`Assignment`] mapping each flow of a [`crate::PairFlows`] set
//! to the interconnection it uses. Metrics and comparisons all operate on
//! assignments, so methods are interchangeable everywhere.

use crate::dijkstra::ShortestPaths;
use crate::exits::early_exit;
use crate::flowpath::{FlowId, PairFlows};
use nexit_topology::{IcxId, PairView, PopId};

/// A complete mapping of flows to interconnections.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    choices: Vec<IcxId>,
}

impl Assignment {
    /// An assignment where every flow uses `icx`.
    pub fn uniform(num_flows: usize, icx: IcxId) -> Self {
        Self {
            choices: vec![icx; num_flows],
        }
    }

    /// Build from an explicit choice vector.
    pub fn from_choices(choices: Vec<IcxId>) -> Self {
        Self { choices }
    }

    /// The early-exit (default BGP) assignment for a flow set.
    pub fn early_exit(view: &PairView<'_>, sp_up: &ShortestPaths, flows: &PairFlows) -> Self {
        // Early exit depends only on the source PoP; memoize per source.
        let mut cache: Vec<Option<IcxId>> = vec![None; view.a.num_pops()];
        let choices = flows
            .flows
            .iter()
            .map(|f| *cache[f.src.index()].get_or_insert_with(|| early_exit(view, sp_up, f.src)))
            .collect();
        Self { choices }
    }

    /// The interconnection assigned to `flow`.
    #[inline]
    pub fn choice(&self, flow: FlowId) -> IcxId {
        self.choices[flow.index()]
    }

    /// Reassign one flow.
    #[inline]
    pub fn set(&mut self, flow: FlowId, icx: IcxId) {
        self.choices[flow.index()] = icx;
    }

    /// Number of flows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// True when the assignment covers no flows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Iterator over `(FlowId, IcxId)`.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, IcxId)> + '_ {
        self.choices
            .iter()
            .enumerate()
            .map(|(i, &c)| (FlowId::new(i), c))
    }

    /// Raw choice slice.
    pub fn choices(&self) -> &[IcxId] {
        &self.choices
    }

    /// Flows whose choice differs from `other` (the "non-default routed"
    /// flows of the paper's flow-fraction analysis).
    pub fn diff(&self, other: &Assignment) -> Vec<FlowId> {
        assert_eq!(
            self.len(),
            other.len(),
            "assignments cover different flow sets"
        );
        self.choices
            .iter()
            .zip(&other.choices)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| FlowId::new(i))
            .collect()
    }

    /// Translate an assignment made against a reduced pair (after an
    /// interconnection failure renumbered ids) back to the original pair's
    /// id space, using the mapping from
    /// [`nexit_topology::IspPair::without_interconnection`].
    ///
    /// `mapping[old] = Some(new)`; this function inverts it.
    pub fn translate_to_original(&self, mapping: &[Option<IcxId>]) -> Assignment {
        let mut inverse = vec![None; mapping.len()];
        for (old, new) in mapping.iter().enumerate() {
            if let Some(new) = new {
                inverse[new.index()] = Some(IcxId::new(old));
            }
        }
        Assignment {
            choices: self
                .choices
                .iter()
                .map(|c| inverse[c.index()].expect("choice not present in mapping"))
                .collect(),
        }
    }
}

/// Total end-to-end geographic distance (volume-weighted) of an assignment:
/// the paper's steady-state quality metric ("sum of path lengths of all
/// flows", §5.1).
pub fn total_distance_km(flows: &PairFlows, assignment: &Assignment) -> f64 {
    flows
        .iter()
        .map(|(id, f, m)| f.volume * m.total_km(assignment.choice(id)))
        .sum()
}

/// Distance inside one side only (upstream if `upstream` is true),
/// volume-weighted — the per-ISP view used for individual gains.
pub fn side_distance_km(flows: &PairFlows, assignment: &Assignment, upstream: bool) -> f64 {
    flows
        .iter()
        .map(|(id, f, m)| {
            let icx = assignment.choice(id);
            let side = if upstream {
                m.up_km[icx.index()]
            } else {
                m.down_km[icx.index()]
            };
            f.volume * side
        })
        .sum()
}

/// Convenience: the early-exit source PoP → interconnection table for a
/// pair (exposed for tests and the protocol agents).
pub fn early_exit_table(view: &PairView<'_>, sp_up: &ShortestPaths) -> Vec<IcxId> {
    (0..view.a.num_pops())
        .map(|s| early_exit(view, sp_up, PopId::new(s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_topology::{GeoPoint, Interconnection, IspId, IspPair, IspTopology, Link, Pop};

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

    fn setup() -> (IspTopology, IspTopology, IspPair) {
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
        (a, b, pair)
    }

    #[test]
    fn early_exit_assignment_matches_per_flow_exits() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let asg = Assignment::early_exit(&view, &sp_a, &flows);
        for (id, f, _) in flows.iter() {
            assert_eq!(asg.choice(id), early_exit(&view, &sp_a, f.src));
        }
    }

    #[test]
    fn total_distance_counts_all_segments() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        // All flows through icx 0: upstream distance = 100*src, downstream
        // distance = 100*dst.
        let asg = Assignment::uniform(flows.len(), IcxId(0));
        let expect: f64 = flows
            .flows
            .iter()
            .map(|f| 100.0 * (f.src.index() + f.dst.index()) as f64)
            .sum();
        assert!((total_distance_km(&flows, &asg) - expect).abs() < 1e-9);
        // Side views sum to the total minus icx length (0 here).
        let up = side_distance_km(&flows, &asg, true);
        let down = side_distance_km(&flows, &asg, false);
        assert!((up + down - expect).abs() < 1e-9);
    }

    #[test]
    fn diff_finds_changed_flows() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let flows = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let base = Assignment::uniform(flows.len(), IcxId(0));
        let mut other = base.clone();
        other.set(FlowId(3), IcxId(1));
        other.set(FlowId(7), IcxId(1));
        assert_eq!(base.diff(&other), vec![FlowId(3), FlowId(7)]);
        assert!(base.diff(&base).is_empty());
    }

    #[test]
    fn translate_assignment_back_after_failure() {
        let (a, b, pair) = setup();
        let (reduced, mapping) = pair.without_interconnection(nexit_topology::IcxId(0));
        assert_eq!(reduced.num_interconnections(), 1);
        // Assignment on the reduced pair: everything on (new) icx 0, which
        // is original icx 1.
        let asg = Assignment::uniform(4, IcxId(0));
        let orig = asg.translate_to_original(&mapping);
        assert!(orig.iter().all(|(_, c)| c == IcxId(1)));
        let _ = (a, b);
    }

    #[test]
    fn volume_weighting_matters() {
        let (a, b, pair) = setup();
        let view = PairView::new(&a, &b, &pair);
        let sp_a = ShortestPaths::compute(&a);
        let sp_b = ShortestPaths::compute(&b);
        let heavy = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 2.0);
        let light = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let asg = Assignment::uniform(heavy.len(), IcxId(0));
        assert!(
            (total_distance_km(&heavy, &asg) - 2.0 * total_distance_km(&light, &asg)).abs() < 1e-9
        );
    }
}
