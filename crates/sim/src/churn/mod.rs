//! Streaming churn driver (`experiments churn`): re-negotiation under
//! live traffic.
//!
//! Every other experiment is batch — build a universe, negotiate once,
//! sweep. This module is the online path: a deterministic, seeded feed
//! of timestamped [`ChurnEvent`]s (flow arrivals/departures, background
//! load drift, interconnection failures and restorations) drives a
//! [`ChurnDriver`] that keeps one live negotiated state per pair and
//! decides, per event, **whether the outcome can have changed** — and
//! keeps warm what a re-negotiation needs when it has.
//!
//! There is **one event pipeline** ([`ChurnDriver::apply`]): apply the
//! event → bring the loads up to date → renegotiate unless the outcome
//! provably stands → re-solve the baseline. An ISP's objective is
//! private and reaches the negotiation only as preference classes, so
//! the pipeline does not know which one is in use; the only seam is
//! whether the driver tracks per-link loads (the `loads` module), which
//! it does exactly when the objective's gain rows read them.
//!
//! * the flow set defines the negotiation table: active flows are
//!   negotiated, inactive flows ride their defaults as background
//!   traffic — exactly the impacted/residual split of the optimal-MEL
//!   LP, so the two layers share one state model;
//! * a session is a session: the driver and the cold rebuild run the
//!   same function (`model::run_session`) on the plain
//!   `DistanceMapper` / `BandwidthMapper::with_classes`, and every
//!   session fills its own gain rows. Gain rows are not memoised across
//!   events, on measurement: a per-row memo with link-footprint
//!   invalidation served 12 % of a bandwidth session's rows on the
//!   benchmark of record, a memoised distance row is `k` copies in place
//!   of `k` subtractions, and bandwidth events ran 9 % faster at p50
//!   without it (README, "What was deleted, and on what evidence");
//! * the **outcome cache** is what skips work. Its key is what the
//!   outcome is a function of: the table, the variant, and — only for an
//!   objective that reads loads — the per-link utilization classes
//!   (`nexit_core::utilization_classes`, width 1/16, which make every
//!   **bandwidth** gain row a pure function of the class vector).
//!   **Distance** gains are geometry-static per variant, so a load delta
//!   cannot touch the outcome; under bandwidth it does exactly when a
//!   class moved on either side, which is one vector compare
//!   (`LoadTracker::refresh`). Flow events and topology flaps change the
//!   table and always renegotiate;
//! * per-link loads are maintained incrementally (one buffer per side and
//!   traffic layer, moved by `nexit_workload::PathTable::add_loads` in
//!   O(links touched) per flow event),
//!   re-aggregated only when a topology flap changes the defaults they
//!   accumulate over; sessions draw their tables from one recycled
//!   `TableArena`;
//! * the optimal-MEL baseline re-solves through the retained
//!   `BandwidthLp` workspaces: a load delta is an rhs-only patch
//!   (dual-simplex re-entry — the growth sweep's ladder, folded in as
//!   batched load events), a flow event rebuilds the variant's program
//!   and solves it cold from the default routing's vertex, and a
//!   topology flap re-enters the flapped variant's own retained basis
//!   when its program is unchanged.
//!
//! [`ChurnCounters`] names the three paths by what happened, not by what
//! it cost: `cached_outcomes` (outcome stands), `incremental_sessions`
//! (a session re-entered on the live variant) and `fallback_sessions`
//! (a topology flap: the variant switches and the loads are re-aggregated
//! from scratch). Every event bumps exactly one.
//!
//! Correctness is replay-checked: after every event the driver's state
//! is compared ([`divergence`]) against a from-scratch negotiation of
//! the same prefix state ([`cold_rebuild`]: fresh load aggregation,
//! fresh tables, fresh machines, cold LP). Since both run the same
//! session function, what the comparison tests is what differs:
//! maintained vs fresh classes, retained vs fresh LP, and the outcome
//! cache's decision to skip. Assignments must be **byte-identical**, and
//! any divergence is a hard violation that exits the binary non-zero,
//! making `churn --smoke` a CI gate. Determinism is pinned the same way:
//! the sweep reruns at 1/2/4 workers and must reproduce identical
//! assignments, identical per-event work series and identical
//! [`ChurnCounters`].
//!
//! Cost is reported as a deterministic *work* meter per event (gain
//! cells filled + negotiation rounds + LP pivots, incremental vs cold
//! twin) whose series is reproducible across runs and thread counts, so
//! the whole report is too. "Incremental work p50 under cold" is gated
//! under distance, where the median event is a cached outcome; under
//! bandwidth the median event renegotiates at the cold twin's price by
//! construction and the two medians are printed. Wall-clock time is the
//! benchmark of record's business (`perfbench`'s `churn_*` workloads).

mod driver;
mod loads;
mod model;
mod sweep;
mod verify;

pub use driver::{ChurnCounters, ChurnDriver};
pub use model::{
    generate_trace, initial_active, ChurnConfig, ChurnEvent, ChurnKind, ChurnPair, LogicalState,
    NegotiatedState, Objective,
};
pub use sweep::{report, run, universe, ChurnReport};
pub use verify::{cold_rebuild, divergence};
