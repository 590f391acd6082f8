//! Streaming churn driver (`experiments churn`): incremental
//! re-negotiation under live traffic.
//!
//! Every other experiment is batch — build a universe, negotiate once,
//! sweep. This module is the online path: a deterministic, seeded feed
//! of timestamped [`ChurnEvent`]s (flow arrivals/departures, background
//! load drift, interconnection failures and restorations) drives a
//! [`ChurnDriver`] that keeps one live negotiated state per pair and
//! re-derives, per event, **only what the event invalidated**.
//!
//! There is **one event pipeline** ([`ChurnDriver::apply`]): apply the
//! event → invalidate → count the impacted flows → threshold →
//! renegotiate → re-solve the baseline. An ISP's objective is private
//! and reaches the negotiation only as preference classes, so the
//! pipeline does not know which one is in use; the only seam is whether
//! the driver tracks per-link loads (the `loads` module), which it does
//! exactly when the objective's gain rows read them.
//!
//! * the flow set defines the negotiation table: active flows are
//!   negotiated, inactive flows ride their defaults as background
//!   traffic — exactly the impacted/residual split of the optimal-MEL
//!   LP, so the two layers share one state model;
//! * gain rows live in per-(variant, side) `GainCache`s (arena-backed
//!   memo tables from `nexit_core::delta`): a flow event refreshes one
//!   row, everything else is served bit-identically from the cache, so
//!   the re-entered negotiation machine is byte-for-byte the session a
//!   cold build would run;
//! * the driver negotiates with either [`Objective`]: **distance** gains
//!   are geometry-static per variant (caching is pure memoization, no
//!   loads tracked), while **bandwidth** gains read the shared link
//!   loads. The bandwidth objective scores quantized utilization classes
//!   (`nexit_core::utilization_classes`, width 1/16), making every gain
//!   row a pure function of the per-link class vector; each cached row
//!   carries the *load footprint* of links it read, and a load move
//!   invalidates exactly the rows whose footprint intersects links whose
//!   class moved (`GainCache::bump_load_epoch`) — the outcome-cache key
//!   is effectively (flow set, variant, footprint-restricted class
//!   signature): a factor that leaves every footprint bucket unchanged
//!   is a provable hit, a class move misses precisely the touched rows.
//!   Per-link loads are maintained incrementally (`nexit_core::SideLoads`
//!   accumulators per traffic layer, O(links touched) per flow event),
//!   re-aggregated only when a topology flap changes the defaults they
//!   accumulate over;
//! * the optimal-MEL baseline re-solves through the retained
//!   `BandwidthLp` workspaces: a load delta is an rhs-only patch
//!   (dual-simplex re-entry — the growth sweep's ladder, folded in as
//!   batched load events), a flow event rebuilds the variant's program
//!   and solves it cold from the default routing's vertex, and a
//!   topology flap re-enters the flapped variant's own retained basis
//!   when its program is unchanged;
//! * when an event's impacted set exceeds 5% of the active set (a
//!   constant: the `reassignment_5pct` pacing generalized), the driver
//!   falls back to a full cold session: caches invalidated wholesale,
//!   every row recomputed. Interconnection failures always take this
//!   path, whatever is on the table — they change every row's
//!   alternative set and every flow's default.
//!
//! Correctness is replay-checked: after every event the driver's state
//! is compared ([`divergence`]) against a from-scratch cold negotiation
//! of the same prefix state ([`cold_rebuild`]: fresh mappers, fresh
//! tables, fresh machines, cold LP). Assignments must be
//! **byte-identical** — the cache layer may never perturb a negotiation
//! decision — and any divergence is a hard violation that exits the
//! binary non-zero, making `churn --smoke` a CI gate. Determinism is
//! pinned the same way: the sweep reruns at 1/2/4 workers and must
//! reproduce identical assignments, identical per-event work series and
//! identical [`ChurnCounters`].
//!
//! Latency is reported two ways: wall-clock per-event re-negotiation
//! latency (p50/p99 `StreamingCdf`s, incremental vs cold twin — the
//! headline claim) and a deterministic *work* meter (gain rows
//! refreshed + negotiation rounds + LP pivots) whose series is
//! reproducible across runs and thread counts, used by the determinism
//! tests where wall-clock cannot be.

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
