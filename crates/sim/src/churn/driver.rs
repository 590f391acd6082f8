//! The live incremental state machine: one event pipeline for every
//! objective.

use super::loads::LoadTracker;
use super::model::{
    lp_fits, run_session, ChurnConfig, ChurnEvent, ChurnKind, ChurnPair, LogicalState,
    NegotiatedState, Objective,
};
use nexit_baselines::BandwidthLp;
use nexit_core::{TableArena, Termination};
use nexit_lp::WarmStats;
use nexit_routing::FlowId;
use nexit_topology::IcxId;

/// Which path events took and how many gain rows they filled: every
/// counter that must be identical across reruns and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnCounters {
    /// Events where the negotiated outcome was provably untouched.
    pub cached_outcomes: u64,
    /// Sessions re-entered on the live variant (flow events, and load
    /// deltas that moved a utilization class).
    pub incremental_sessions: u64,
    /// Topology flaps: the variant switches and the loads are
    /// re-aggregated from scratch before the session.
    pub fallback_sessions: u64,
    /// Load deltas that moved no utilization class on either side.
    pub signature_hits: u64,
    /// Load deltas that moved at least one class.
    pub signature_misses: u64,
    /// Gain rows filled, both sides, bring-up session included.
    pub rows_refreshed: u64,
}

impl ChurnCounters {
    /// Add `other`'s counts to these.
    pub fn absorb(&mut self, other: ChurnCounters) {
        self.cached_outcomes += other.cached_outcomes;
        self.incremental_sessions += other.incremental_sessions;
        self.fallback_sessions += other.fallback_sessions;
        self.signature_hits += other.signature_hits;
        self.signature_misses += other.signature_misses;
        self.rows_refreshed += other.rows_refreshed;
    }
}

/// The live incremental state machine for one pair.
pub struct ChurnDriver<'u> {
    pair: &'u ChurnPair<'u>,
    state: LogicalState,
    negotiated: NegotiatedState,
    /// Per-link loads of the live variant — the only objective seam:
    /// `None` under an objective whose gain rows never read a load.
    loads: Option<LoadTracker>,
    /// Table/index buffers recycled across every re-entered session.
    arena: TableArena,
    /// One retained LP scenario per variant, keyed by variant index.
    lp: BandwidthLp<'u>,
    /// Bumps when the active set changes; variants rebuild lazily.
    lp_epoch: u64,
    lp_variant_epoch: Vec<u64>,
    /// Events where the negotiated state was provably untouched.
    pub cached_outcomes: u64,
    /// Sessions re-entered on the live variant: every flow event, and
    /// every load delta that moved a utilization class.
    pub incremental_sessions: u64,
    /// Topology flaps: the variant switches and the loads are
    /// re-aggregated from scratch before the session.
    pub fallback_sessions: u64,
    /// Load deltas that moved no utilization class on either side (a
    /// provable outcome-cache hit).
    pub signature_hits: u64,
    /// Load deltas that moved at least one class.
    pub signature_misses: u64,
    /// Gain rows filled across all sessions, both sides.
    rows_filled: u64,
    /// Deterministic work units spent by the last event.
    last_work: u64,
    /// LP failures (iteration cap / numerical trouble) — hard errors.
    pub lp_errors: Vec<String>,
}

impl<'u> ChurnDriver<'u> {
    /// Bring a pair live: one initial session (not counted on any path
    /// — it is not churn) plus the baseline LP's first (cold) solve.
    pub fn new(pair: &'u ChurnPair<'u>, initial_active: Vec<bool>, cfg: ChurnConfig) -> Self {
        assert_eq!(initial_active.len(), pair.num_flows());
        let state = LogicalState::new(initial_active);
        let loads = match cfg.objective {
            Objective::Distance => None,
            Objective::Bandwidth => Some(LoadTracker::new(pair, &state)),
        };
        let mut driver = Self {
            pair,
            state,
            negotiated: NegotiatedState {
                assignment: pair.variants[0].default.clone(),
                gain_a: 0,
                gain_b: 0,
                termination: Termination::Exhausted,
                reassignments: 0,
                opt_t: None,
            },
            loads,
            arena: TableArena::new(),
            lp: BandwidthLp::new(),
            lp_epoch: 0,
            lp_variant_epoch: vec![u64::MAX; pair.variants.len()],
            cached_outcomes: 0,
            incremental_sessions: 0,
            fallback_sessions: 0,
            signature_hits: 0,
            signature_misses: 0,
            rows_filled: 0,
            last_work: 0,
            lp_errors: Vec::new(),
        };
        driver.renegotiate();
        driver.resolve_baseline();
        driver
    }

    /// The live logical state.
    pub fn state(&self) -> &LogicalState {
        &self.state
    }

    /// The live negotiated state.
    pub fn negotiated(&self) -> &NegotiatedState {
        &self.negotiated
    }

    /// Deterministic work units (gain cells filled + rounds + LP pivots)
    /// spent by the most recent [`ChurnDriver::apply`].
    pub fn last_work(&self) -> u64 {
        self.last_work
    }

    /// Aggregate warm/cold counters across the retained LP workspaces.
    pub fn lp_stats(&self) -> WarmStats {
        self.lp.warm_stats()
    }

    /// `(gain rows filled, 0, 0)`. The two zeros were the rows a per-row
    /// memo served and dropped; every session now fills its rows, and
    /// the shape stays because the benchmark of record reads it.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (self.rows_filled, 0, 0)
    }

    /// The path and row counters as one value.
    pub fn counters(&self) -> ChurnCounters {
        ChurnCounters {
            cached_outcomes: self.cached_outcomes,
            incremental_sessions: self.incremental_sessions,
            fallback_sessions: self.fallback_sessions,
            signature_hits: self.signature_hits,
            signature_misses: self.signature_misses,
            rows_refreshed: self.rows_filled,
        }
    }

    /// Process one event: apply → bring the loads up to date → decide
    /// whether the outcome can have changed → renegotiate if so →
    /// re-solve the baseline.
    ///
    /// A topology flap or a flow event changes the table itself, so it
    /// always renegotiates. A load delta reaches the outcome only through
    /// the utilization classes the gain rows read: without a load tracker
    /// it provably cannot, and with one it does exactly when a class
    /// moved on either side.
    pub fn apply(&mut self, event: &ChurnEvent) {
        self.state.apply(self.pair, event.kind);
        let (pair, state) = (self.pair, &self.state);
        let load_delta = matches!(event.kind, ChurnKind::LoadDelta { .. });
        let session = match event.kind {
            ChurnKind::LinkFail(_) | ChurnKind::LinkRestore => {
                // Variant switch: every row's alternative set (and the
                // defaults the load layers accumulate over) changed.
                if let Some(loads) = &mut self.loads {
                    loads.rebuild(pair, state);
                }
                self.fallback_sessions += 1;
                true
            }
            ChurnKind::FlowAdd(f) | ChurnKind::FlowRemove(f) => {
                if let Some(loads) = &mut self.loads {
                    loads.refresh(pair, state, Some(f));
                }
                self.incremental_sessions += 1;
                true
            }
            ChurnKind::LoadDelta { .. } => match &mut self.loads {
                None => false,
                Some(loads) => {
                    let moved = loads.refresh(pair, state, None);
                    if moved {
                        self.signature_misses += 1;
                        self.incremental_sessions += 1;
                    } else {
                        self.signature_hits += 1;
                    }
                    moved
                }
            },
        };
        let mut work = if session {
            self.renegotiate()
        } else {
            // Only the baseline needs an (rhs-only) re-solve.
            self.cached_outcomes += 1;
            0
        };
        if !load_delta {
            self.lp_epoch += 1;
        }
        work += self.resolve_baseline();
        self.last_work = work + 1;
    }

    /// Re-enter the negotiation machine on the live variant: the session
    /// a from-scratch build would run, on the maintained classes and the
    /// recycled arena. Leaves the baseline for
    /// [`ChurnDriver::resolve_baseline`], which every caller runs next.
    fn renegotiate(&mut self) -> u64 {
        let classes = self.loads.as_ref().map(LoadTracker::classes);
        let (negotiated, work) = run_session(self.pair, &self.state, classes, &mut self.arena);
        self.negotiated = negotiated;
        self.rows_filled += 2 * self.state.num_active as u64;
        work
    }

    /// Re-solve the optimal-MEL baseline through the retained
    /// workspaces, when the live state's program fits the size budget
    /// (asked per event: a feed may cross it either way). Load drift
    /// re-enters via the rhs (dual simplex). After a flow-set change the
    /// variant's program is rebuilt and solved cold from the default
    /// routing's vertex; its workspace is kept, so the scenario's
    /// counters accumulate. A variant switch with no flow change since
    /// that variant was last live finds its program unchanged and
    /// re-enters its own retained basis by rhs.
    fn resolve_baseline(&mut self) -> u64 {
        if !lp_fits(self.pair, &self.state) {
            self.negotiated.opt_t = None;
            return 0;
        }
        let pair = self.pair;
        let variant = self.state.variant;
        let data = &pair.variants[variant];
        let key = IcxId::new(variant);
        let before = self.lp.warm_stats();
        if self.lp_variant_epoch[variant] != self.lp_epoch {
            let impacted: Vec<FlowId> = self.state.active_flows().collect();
            let view = data.view();
            self.lp.update_scenario(
                key,
                &view,
                &data.paths,
                &data.flows,
                &impacted,
                &data.default,
                &pair.caps_up,
                &pair.caps_down,
            );
            self.lp_variant_epoch[variant] = self.lp_epoch;
        }
        match self.lp.solve_failure_scaled(key, self.state.scale) {
            Ok(opt) => self.negotiated.opt_t = Some(opt.t),
            Err(e) => {
                self.negotiated.opt_t = None;
                self.lp_errors.push(format!("baseline LP failed: {e}"));
            }
        }
        let after = self.lp.warm_stats();
        (after.eta_pivots - before.eta_pivots + after.refactorizations - before.refactorizations)
            as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{initial_active, universe};

    #[test]
    fn unmoved_classes_are_a_signature_hit() {
        let u = universe();
        let idx = u.eligible_pairs(3, false)[0];
        let pair = ChurnPair::build(&u, idx, 2);
        let initial = initial_active(&pair, 3);
        let cfg = ChurnConfig {
            objective: Objective::Bandwidth,
        };
        let mut driver = ChurnDriver::new(&pair, initial, cfg);
        // Re-asserting the current background scale moves no effective
        // load, so no utilization class moves and the outcome cache
        // answers without renegotiating.
        driver.apply(&ChurnEvent {
            tick: 1,
            kind: ChurnKind::LoadDelta { factor: 1.0 },
        });
        assert_eq!(driver.signature_hits, 1);
        assert_eq!(driver.signature_misses, 0);
        assert_eq!(driver.cached_outcomes, 1);
        assert_eq!(driver.incremental_sessions, 0);
    }

    #[test]
    fn link_failures_force_the_cold_fallback() {
        let u = universe();
        let idx = u.eligible_pairs(3, false)[0];
        let pair = ChurnPair::build(&u, idx, 2);
        let failable = pair.failable();
        assert!(!failable.is_empty());
        let initial = initial_active(&pair, 3);
        let mut driver = ChurnDriver::new(&pair, initial, ChurnConfig::default());
        let before = driver.fallback_sessions;
        driver.apply(&ChurnEvent {
            tick: 1,
            kind: ChurnKind::LinkFail(failable[0]),
        });
        assert_eq!(driver.fallback_sessions, before + 1);
        assert_ne!(driver.state().variant, 0);
        driver.apply(&ChurnEvent {
            tick: 2,
            kind: ChurnKind::LinkRestore,
        });
        assert_eq!(driver.state().variant, 0);
    }
}
