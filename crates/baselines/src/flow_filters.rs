//! Flow-Pareto and flow-both-better strategies (Figure 5).
//!
//! The paper's "seemingly reasonable" non-negotiation alternatives: for
//! each pair of *opposite* flows (a→b and b→a between the same PoPs),
//! discard the candidate interconnection combinations that are obviously
//! bad, then pick one of the survivors at random:
//!
//! * **flow-Pareto** rejects combinations worse than the default for
//!   *both* ISPs,
//! * **flow-both-better** rejects combinations worse for *any one* ISP.
//!
//! Both avoid obvious flow-level waste yet capture almost none of the
//! negotiation gain — the paper's point that gains require trading across
//! the whole flow set.

use nexit_routing::{Assignment, FlowId, PairFlows};
use nexit_topology::IcxId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which rejection rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Filter {
    Pareto,
    BothBetter,
}

/// Inputs shared by both strategies: the two directed flow sets of one
/// pair and their default assignments.
///
/// `fwd` is the A→B direction (A upstream); `rev` is B→A built on the
/// reversed [`nexit_topology::PairView`]. Flow `(i, j)` of `fwd` (source
/// PoP `i` of A, destination PoP `j` of B, row-major) pairs with flow
/// `(j, i)` of `rev`.
pub struct OppositeFlows<'a> {
    /// A→B flows.
    pub fwd: &'a PairFlows,
    /// B→A flows (on the reversed view).
    pub rev: &'a PairFlows,
    /// Default (early-exit) assignment for `fwd`.
    pub fwd_default: &'a Assignment,
    /// Default (early-exit) assignment for `rev`.
    pub rev_default: &'a Assignment,
    /// Number of PoPs in ISP A (to pair opposite flows).
    pub num_pops_a: usize,
    /// Number of PoPs in ISP B.
    pub num_pops_b: usize,
}

/// The flow-Pareto strategy: among combinations not worse for both ISPs,
/// pick one at random (seeded). Returns assignments for both directions.
pub fn flow_pareto(input: &OppositeFlows<'_>, seed: u64) -> (Assignment, Assignment) {
    run_filter(input, Filter::Pareto, seed)
}

/// The flow-both-better strategy: among combinations worse for neither
/// ISP, pick one at random (seeded).
pub fn flow_both_better(input: &OppositeFlows<'_>, seed: u64) -> (Assignment, Assignment) {
    run_filter(input, Filter::BothBetter, seed)
}

fn run_filter(input: &OppositeFlows<'_>, filter: Filter, seed: u64) -> (Assignment, Assignment) {
    let k = input
        .fwd
        .iter()
        .next()
        .map_or(0, |(_, _, m)| m.num_alternatives());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fwd_asg = input.fwd_default.clone();
    let mut rev_asg = input.rev_default.clone();

    for i in 0..input.num_pops_a {
        for j in 0..input.num_pops_b {
            let f_fwd = FlowId::new(i * input.num_pops_b + j);
            let f_rev = FlowId::new(j * input.num_pops_a + i);
            let mf = input.fwd.metrics(f_fwd);
            let mr = input.rev.metrics(f_rev);
            let fd = input.fwd_default.choice(f_fwd);
            let rd = input.rev_default.choice(f_rev);

            // ISP A's distance for this opposite-flow pair: the forward
            // flow inside A (upstream side of fwd) plus the reverse flow
            // inside A (downstream side of rev). Mirror for B.
            let delta_a = |x: IcxId, y: IcxId| {
                (mf.up_km[x.index()] - mf.up_km[fd.index()])
                    + (mr.down_km[y.index()] - mr.down_km[rd.index()])
            };
            let delta_b = |x: IcxId, y: IcxId| {
                (mf.down_km[x.index()] - mf.down_km[fd.index()])
                    + (mr.up_km[y.index()] - mr.up_km[rd.index()])
            };

            let mut candidates: Vec<(IcxId, IcxId)> = Vec::with_capacity(k * k);
            for x in 0..k {
                for y in 0..k {
                    let (x, y) = (IcxId::new(x), IcxId::new(y));
                    let (da, db) = (delta_a(x, y), delta_b(x, y));
                    let keep = match filter {
                        // Reject only when worse for both.
                        Filter::Pareto => !(da > 0.0 && db > 0.0),
                        // Reject when worse for any one.
                        Filter::BothBetter => da <= 0.0 && db <= 0.0,
                    };
                    if keep {
                        candidates.push((x, y));
                    }
                }
            }
            // The default combination always qualifies under both rules,
            // so candidates is never empty.
            debug_assert!(!candidates.is_empty());
            let (x, y) = candidates[rng.gen_range(0..candidates.len())];
            fwd_asg.set(f_fwd, x);
            rev_asg.set(f_rev, y);
        }
    }
    (fwd_asg, rev_asg)
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

    struct Fx {
        a: IspTopology,
        b: IspTopology,
        pair: IspPair,
    }

    fn fixture() -> Fx {
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
        Fx { a, b, pair }
    }

    fn build(fx: &Fx) -> (PairFlows, PairFlows, Assignment, Assignment) {
        let view = PairView::new(&fx.a, &fx.b, &fx.pair);
        let sp_a = ShortestPaths::compute(&fx.a);
        let sp_b = ShortestPaths::compute(&fx.b);
        let fwd = PairFlows::build(&view, &sp_a, &sp_b, |_, _| 1.0);
        let fwd_default = Assignment::early_exit(&view, &sp_a, &fwd);
        let mut scratch = None;
        let rev_view = view.reversed(&mut scratch);
        let rev = PairFlows::build(&rev_view, &sp_b, &sp_a, |_, _| 1.0);
        let rev_default = Assignment::early_exit(&rev_view, &sp_b, &rev);
        (fwd, rev, fwd_default, rev_default)
    }

    #[test]
    fn both_better_never_hurts_either_isp() {
        let fx = fixture();
        let (fwd, rev, fwd_d, rev_d) = build(&fx);
        let input = OppositeFlows {
            fwd: &fwd,
            rev: &rev,
            fwd_default: &fwd_d,
            rev_default: &rev_d,
            num_pops_a: 3,
            num_pops_b: 3,
        };
        let (fa, ra) = flow_both_better(&input, 7);
        // ISP A's total distance (fwd upstream + rev downstream) must not
        // increase vs default; same for B.
        let a_dist = assignment::side_distance_km(&fwd, &fa, true)
            + assignment::side_distance_km(&rev, &ra, false);
        let a_dist_default = assignment::side_distance_km(&fwd, &fwd_d, true)
            + assignment::side_distance_km(&rev, &rev_d, false);
        assert!(a_dist <= a_dist_default + 1e-9);
        let b_dist = assignment::side_distance_km(&fwd, &fa, false)
            + assignment::side_distance_km(&rev, &ra, true);
        let b_dist_default = assignment::side_distance_km(&fwd, &fwd_d, false)
            + assignment::side_distance_km(&rev, &rev_d, true);
        assert!(b_dist <= b_dist_default + 1e-9);
    }

    #[test]
    fn strategies_are_seed_deterministic() {
        let fx = fixture();
        let (fwd, rev, fwd_d, rev_d) = build(&fx);
        let input = OppositeFlows {
            fwd: &fwd,
            rev: &rev,
            fwd_default: &fwd_d,
            rev_default: &rev_d,
            num_pops_a: 3,
            num_pops_b: 3,
        };
        let (f1, r1) = flow_pareto(&input, 42);
        let (f2, r2) = flow_pareto(&input, 42);
        assert_eq!(f1, f2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn pareto_superset_of_both_better() {
        // Every both-better candidate is also flow-Pareto; with a seed
        // where both pick defaults, results coincide. Structural check:
        // running both never panics and outputs valid ids.
        let fx = fixture();
        let (fwd, rev, fwd_d, rev_d) = build(&fx);
        let input = OppositeFlows {
            fwd: &fwd,
            rev: &rev,
            fwd_default: &fwd_d,
            rev_default: &rev_d,
            num_pops_a: 3,
            num_pops_b: 3,
        };
        for seed in 0..5 {
            let (fa, ra) = flow_pareto(&input, seed);
            let (fb, rb) = flow_both_better(&input, seed);
            for asg in [&fa, &fb] {
                assert!(asg.iter().all(|(_, c)| c.index() < 2));
            }
            for asg in [&ra, &rb] {
                assert!(asg.iter().all(|(_, c)| c.index() < 2));
            }
        }
    }
}
