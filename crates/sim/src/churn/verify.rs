//! The reference every event prefix is replayed against: a from-scratch
//! rebuild of the negotiated state, and the comparison that decides
//! whether the live state diverged from it.

use super::loads::{aggregate, classes};
use super::model::{
    lp_fits, run_session, ChurnConfig, ChurnPair, LogicalState, NegotiatedState, Objective,
};
use nexit_baselines::{BandwidthLp, OptimalBandwidthError};
use nexit_core::TableArena;
use nexit_routing::FlowId;
use nexit_topology::IcxId;

/// From-scratch rebuild of the negotiated state for a logical state:
/// fresh load aggregation, fresh tables, fresh machines, fresh LP
/// skeleton, cold solve. This is the reference every event prefix is
/// replayed against, and the cold twin the work medians compare to.
/// Returns the state and the deterministic work units spent.
pub fn cold_rebuild(
    pair: &ChurnPair<'_>,
    state: &LogicalState,
    cfg: &ChurnConfig,
) -> (NegotiatedState, u64) {
    let data = &pair.variants[state.variant];
    // Bandwidth only: fresh two-layer load aggregation and a fresh class
    // snapshot — the reference the driver's incrementally maintained
    // snapshot must reproduce bit-for-bit.
    let loads = match cfg.objective {
        Objective::Distance => None,
        Objective::Bandwidth => Some(aggregate(pair, state)),
    };
    let (mut negotiated, mut work) = run_session(
        pair,
        state,
        loads.as_ref().map(classes),
        &mut TableArena::new(),
    );

    if lp_fits(pair, state) {
        let mut lp = BandwidthLp::new();
        let view = data.view();
        let impacted: Vec<FlowId> = state.active_flows().collect();
        lp.add_scenario(
            IcxId::new(state.variant),
            &view,
            &data.paths,
            &data.flows,
            &impacted,
            &data.default,
            &pair.caps_up,
            &pair.caps_down,
        );
        let solved: Result<_, OptimalBandwidthError> =
            lp.solve_failure_scaled(IcxId::new(state.variant), state.scale);
        if let Ok(opt) = solved {
            negotiated.opt_t = Some(opt.t);
        }
        let stats = lp.warm_stats();
        work += (stats.eta_pivots + stats.refactorizations) as u64;
    }
    (negotiated, work + 1)
}

/// Compare incremental and cold states; `None` means identical
/// (byte-identical assignments, identical gains and bookkeeping, LP
/// objective within 1e-6).
pub fn divergence(incremental: &NegotiatedState, cold: &NegotiatedState) -> Option<String> {
    if incremental.assignment.choices() != cold.assignment.choices() {
        let first = incremental
            .assignment
            .choices()
            .iter()
            .zip(cold.assignment.choices())
            .position(|(a, b)| a != b)
            .unwrap_or(0);
        return Some(format!("assignment diverged (first at flow {first})"));
    }
    if (incremental.gain_a, incremental.gain_b) != (cold.gain_a, cold.gain_b) {
        return Some("gains diverged".into());
    }
    if incremental.termination != cold.termination
        || incremental.reassignments != cold.reassignments
    {
        return Some("termination/reassignment bookkeeping diverged".into());
    }
    match (incremental.opt_t, cold.opt_t) {
        (Some(w), Some(c)) if (w - c).abs() > 1e-6 => {
            Some(format!("warm LP t {w} vs cold {c} beyond 1e-6"))
        }
        (Some(_), None) | (None, Some(_)) => Some("LP evaluated on one path only".into()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{
        generate_trace, initial_active, universe, ChurnDriver, ChurnEvent, ChurnKind,
    };
    use nexit_routing::FlowId;

    #[test]
    fn every_prefix_matches_the_cold_rebuild() {
        for objective in [Objective::Distance, Objective::Bandwidth] {
            let u = universe();
            let idx = u.eligible_pairs(3, false)[0];
            let pair = ChurnPair::build(&u, idx, 2);
            let initial = initial_active(&pair, 21);
            let trace = generate_trace(&pair, &initial, 25, 21);
            let cfg = ChurnConfig { objective };
            let mut driver = ChurnDriver::new(&pair, initial, cfg);
            for event in &trace {
                driver.apply(event);
                let (cold, _) = cold_rebuild(&pair, driver.state(), &cfg);
                assert_eq!(
                    divergence(driver.negotiated(), &cold),
                    None,
                    "[{}] prefix diverged at {event:?}",
                    objective.name()
                );
            }
        }
    }

    /// The size cap is asked of the live state by the driver and the
    /// cold rebuild alike: a feed that crosses it — a flap to a variant
    /// with one exit fewer, a flow leaving an over-cap table — must not
    /// leave the baseline evaluated on one path only.
    #[test]
    fn crossing_the_lp_size_cap_keeps_both_paths_in_step() {
        let u = universe();
        let pair = u
            .eligible_pairs(3, false)
            .into_iter()
            .map(|idx| ChurnPair::build(&u, idx, 2))
            .find(|pair| !lp_fits(pair, &LogicalState::new(vec![true; pair.num_flows()])))
            .expect("a pair whose full table exceeds the cap");
        // The smallest over-cap table: one flow more than fits.
        let mut table = LogicalState::new(vec![false; pair.num_flows()]);
        while lp_fits(&pair, &table) {
            table.apply(&pair, ChurnKind::FlowAdd(FlowId::new(table.num_active)));
        }
        let cfg = ChurnConfig::default();
        let mut driver = ChurnDriver::new(&pair, table.active, cfg);
        assert_eq!(driver.negotiated().opt_t, None, "over the cap at bring-up");
        let kinds = [
            (ChurnKind::LinkFail(pair.failable()[0]), true),
            (ChurnKind::LinkRestore, false),
            (ChurnKind::FlowRemove(FlowId::new(0)), true),
        ];
        for (tick, &(kind, fits)) in (1..).zip(&kinds) {
            driver.apply(&ChurnEvent { tick, kind });
            assert_eq!(lp_fits(&pair, driver.state()), fits, "{kind:?}");
            assert_eq!(driver.negotiated().opt_t.is_some(), fits, "{kind:?}");
            let (cold, _) = cold_rebuild(&pair, driver.state(), &cfg);
            assert_eq!(divergence(driver.negotiated(), &cold), None, "{kind:?}");
        }
        assert!(driver.lp_errors.is_empty(), "{:?}", driver.lp_errors);
    }

    /// A topology flap changes the defaults every flow rides, on the
    /// table or not: with nothing left to negotiate it must still
    /// renegotiate (and count as a flap), not serve the stale variant's
    /// state from cache. So must the flow removal that empties the table.
    #[test]
    fn a_flap_on_an_empty_table_still_falls_back_cold() {
        for objective in [Objective::Distance, Objective::Bandwidth] {
            let u = universe();
            let idx = u.eligible_pairs(3, false)[0];
            let pair = ChurnPair::build(&u, idx, 2);
            let cfg = ChurnConfig { objective };
            let mut initial = vec![false; pair.num_flows()];
            initial[0] = true;
            let mut driver = ChurnDriver::new(&pair, initial, cfg);
            let kinds = [
                (ChurnKind::FlowRemove(FlowId::new(0)), (1, 0)),
                (ChurnKind::LinkFail(pair.failable()[0]), (0, 1)),
                (ChurnKind::LinkRestore, (0, 1)),
            ];
            for (tick, &(kind, (incremental, fallback))) in (1..).zip(&kinds) {
                let before = (driver.incremental_sessions, driver.fallback_sessions);
                driver.apply(&ChurnEvent { tick, kind });
                let (cold, _) = cold_rebuild(&pair, driver.state(), &cfg);
                assert_eq!(
                    divergence(driver.negotiated(), &cold),
                    None,
                    "[{}] diverged at {kind:?}",
                    objective.name()
                );
                assert_eq!(
                    (driver.incremental_sessions, driver.fallback_sessions),
                    (before.0 + incremental, before.1 + fallback),
                    "{kind:?}"
                );
            }
            assert_eq!(driver.state().num_active, 0);
        }
    }
}
