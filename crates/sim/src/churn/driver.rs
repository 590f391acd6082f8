//! The live incremental state machine: one event pipeline for every
//! objective.

use super::loads::LoadTracker;
use super::model::{
    lp_fits, session_input, ChurnConfig, ChurnEvent, ChurnKind, ChurnPair, LogicalState,
    NegotiatedState, Objective,
};
use nexit_baselines::BandwidthLp;
use nexit_core::{
    negotiate_in, CachedBandwidthMapper, CachedDistanceMapper, GainCache, NexitConfig, Party, Side,
    TableArena, Termination,
};
use nexit_lp::WarmStats;
use nexit_routing::FlowId;
use nexit_topology::IcxId;

/// Impacted fraction of the active set above which an event runs a full
/// cold session instead of the delta path (the `reassignment_5pct`
/// pacing generalized).
const IMPACT_THRESHOLD: f64 = 0.05;

/// Which path events took and what the gain caches did: every counter
/// that must be identical across reruns and worker counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChurnCounters {
    /// Events where the negotiated outcome was provably untouched.
    pub cached_outcomes: u64,
    /// Delta-path re-negotiations (cache-served rows).
    pub incremental_sessions: u64,
    /// Full cold sessions: topology flaps and threshold-forced ones.
    pub fallback_sessions: u64,
    /// Load deltas that left every cached row valid.
    pub signature_hits: u64,
    /// Load deltas whose moved classes invalidated at least one row.
    pub signature_misses: u64,
    /// Gain rows (re)computed across all caches.
    pub rows_refreshed: u64,
    /// Gain rows served from the memo without recomputation.
    pub rows_served: u64,
    /// Gain rows dropped by footprint-keyed load invalidation.
    pub rows_load_invalidated: u64,
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
        self.rows_served += other.rows_served;
        self.rows_load_invalidated += other.rows_load_invalidated;
    }
}

/// The live incremental state machine for one pair.
pub struct ChurnDriver<'u> {
    pair: &'u ChurnPair<'u>,
    state: LogicalState,
    negotiated: NegotiatedState,
    /// Per-variant (side A, side B) gain-row memo tables, built lazily.
    caches: Vec<Option<(GainCache, GainCache)>>,
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
    /// Re-negotiations on the delta path (cache-served rows).
    pub incremental_sessions: u64,
    /// Full cold sessions: every topology flap, and every event whose
    /// impacted fraction exceeded the threshold.
    pub fallback_sessions: u64,
    /// Load events whose quantized class signature was unchanged on
    /// every cached footprint (provable outcome-cache hit).
    pub signature_hits: u64,
    /// Load events that moved at least one cached row's class bucket.
    pub signature_misses: u64,
    /// Deterministic work units spent by the last event.
    last_work: u64,
    /// LP failures (iteration cap / numerical trouble) — hard errors.
    pub lp_errors: Vec<String>,
}

impl<'u> ChurnDriver<'u> {
    /// Bring a pair live: one initial cold session (not counted as a
    /// fallback — it is not churn) plus the baseline LP's first (cold)
    /// solve.
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
            caches: pair.variants.iter().map(|_| None).collect(),
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
            last_work: 0,
            lp_errors: Vec::new(),
        };
        driver.renegotiate(true);
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

    /// Deterministic work units (rows refreshed + rounds + LP pivots)
    /// spent by the most recent [`ChurnDriver::apply`].
    pub fn last_work(&self) -> u64 {
        self.last_work
    }

    /// Aggregate warm/cold counters across the retained LP workspaces.
    pub fn lp_stats(&self) -> WarmStats {
        self.lp.warm_stats()
    }

    /// Aggregate gain-cache counters across all variant caches:
    /// `(rows refreshed, rows served, rows footprint-invalidated)`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.caches
            .iter()
            .flatten()
            .fold((0, 0, 0), |(r, s, i), (a, b)| {
                (
                    r + a.refreshed() + b.refreshed(),
                    s + a.served() + b.served(),
                    i + a.load_invalidated() + b.load_invalidated(),
                )
            })
    }

    /// The path and cache counters as one value.
    pub fn counters(&self) -> ChurnCounters {
        let (rows_refreshed, rows_served, rows_load_invalidated) = self.cache_stats();
        ChurnCounters {
            cached_outcomes: self.cached_outcomes,
            incremental_sessions: self.incremental_sessions,
            fallback_sessions: self.fallback_sessions,
            signature_hits: self.signature_hits,
            signature_misses: self.signature_misses,
            rows_refreshed,
            rows_served,
            rows_load_invalidated,
        }
    }

    /// Process one event incrementally: apply → invalidate → count
    /// impacted → threshold → renegotiate → re-solve the baseline.
    ///
    /// The impacted set is the distinct *active* flows whose cached rows
    /// the event dropped, plus the churned flow itself for a membership
    /// change. Without a load tracker no row can be dropped (rows are
    /// geometry-static per variant), so a load delta provably leaves the
    /// outcome untouched and a flow event impacts exactly one row.
    pub fn apply(&mut self, event: &ChurnEvent) {
        self.state.apply(self.pair, event.kind);
        let (flap, churned) = match event.kind {
            ChurnKind::LinkFail(_) | ChurnKind::LinkRestore => (true, None),
            ChurnKind::FlowAdd(f) | ChurnKind::FlowRemove(f) => (false, Some(f)),
            ChurnKind::LoadDelta { .. } => (false, None),
        };
        let load_delta = !flap && churned.is_none();
        // `None`: the negotiated outcome is provably current.
        let session = if flap {
            // Variant switch: every row's alternative set (and the
            // defaults the load layers accumulate over) changed — a full
            // cold session, whatever is on the table.
            if let Some(loads) = &mut self.loads {
                loads.rebuild(self.pair, &self.state);
            }
            Some(true)
        } else {
            let mut impacted = 0;
            let mut churned_counted = false;
            if let Some(loads) = &mut self.loads {
                let caches = self.caches[self.state.variant]
                    .as_mut()
                    .expect("the live variant was negotiated on at bring-up or its flap");
                impacted = loads.refresh(self.pair, &self.state, churned, caches);
                if load_delta {
                    if impacted == 0 {
                        self.signature_hits += 1;
                    } else {
                        self.signature_misses += 1;
                    }
                }
                churned_counted =
                    churned.is_some_and(|f| self.state.active[f.index()] && loads.dropped(f));
            }
            // The churned flow impacts the session through its table
            // membership even when no class moved; count it once.
            impacted += usize::from(churned.is_some() && !churned_counted);
            let fraction = impacted as f64 / self.state.num_active.max(1) as f64;
            (impacted > 0).then_some(fraction > IMPACT_THRESHOLD)
        };
        let mut work = match session {
            // Only the baseline needs an (rhs-only) re-solve.
            None => {
                self.cached_outcomes += 1;
                0
            }
            Some(fallback) => {
                if fallback {
                    self.fallback_sessions += 1;
                } else {
                    self.incremental_sessions += 1;
                }
                self.renegotiate(fallback)
            }
        };
        if !load_delta {
            self.lp_epoch += 1;
        }
        work += self.resolve_baseline();
        self.last_work = work + 1;
    }

    /// Re-enter the negotiation machine on the current variant. With
    /// `fallback` the variant's caches are invalidated wholesale (a
    /// full cold session); otherwise rows are served from the memo and
    /// only missing/invalidated rows recompute. Either way the machine
    /// sees bit-identical inputs to a from-scratch build, so the
    /// outcome is byte-identical by construction.
    fn renegotiate(&mut self, fallback: bool) -> u64 {
        let pair = self.pair;
        let data = &pair.variants[self.state.variant];
        let (n, k) = (data.flows.len(), data.pair.num_interconnections());
        let loads = self.loads.as_ref().map(LoadTracker::sides);
        let arena = &mut self.arena;
        let (cache_a, cache_b) = self.caches[self.state.variant].get_or_insert_with(|| {
            let [a, b] = pair.caps().map(|caps| {
                let cache = GainCache::new_in(arena, n, k);
                // Only rows that read loads carry a load footprint.
                match loads {
                    None => cache,
                    Some(_) => cache.with_footprints(caps.len()),
                }
            });
            (a, b)
        });
        if fallback {
            cache_a.invalidate_all();
            cache_b.invalidate_all();
        }
        let rows_before = cache_a.refreshed() + cache_b.refreshed();
        let input = session_input(data, &self.state.active);
        let outcome = {
            let parties = [
                (0, Side::A, "A", &mut *cache_a),
                (1, Side::B, "B", &mut *cache_b),
            ];
            let [mut party_a, mut party_b] = parties.map(|(i, side, name, cache)| match loads {
                None => Party::honest(name, CachedDistanceMapper::new(side, &data.flows, cache)),
                Some(loads) => Party::honest(
                    name,
                    CachedBandwidthMapper::new(
                        side,
                        &data.flows,
                        &data.paths,
                        pair.caps()[i],
                        loads[i].classes(),
                        cache,
                    ),
                ),
            });
            negotiate_in(
                arena,
                &input,
                &data.default,
                &mut party_a,
                &mut party_b,
                &NexitConfig::win_win(),
            )
        };
        let rounds = outcome.transcript.len() as u64;
        self.negotiated.assignment = outcome.assignment;
        self.negotiated.gain_a = outcome.gain_a;
        self.negotiated.gain_b = outcome.gain_b;
        self.negotiated.termination = outcome.termination;
        self.negotiated.reassignments = outcome.reassignments;
        let rows = cache_a.refreshed() + cache_b.refreshed() - rows_before;
        rows * k as u64 + rounds
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
            let impacted: Vec<FlowId> = self
                .state
                .active
                .iter()
                .enumerate()
                .filter(|(_, &on)| on)
                .map(|(i, _)| FlowId::new(i))
                .collect();
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
        // load, so no utilization class moves, no row is invalidated,
        // and the outcome cache answers without renegotiating.
        driver.apply(&ChurnEvent {
            tick: 1,
            kind: ChurnKind::LoadDelta { factor: 1.0 },
        });
        assert_eq!(driver.signature_hits, 1);
        assert_eq!(driver.signature_misses, 0);
        assert_eq!(driver.cached_outcomes, 1);
        let (_, _, load_invalidated) = driver.cache_stats();
        assert_eq!(load_invalidated, 0);
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
