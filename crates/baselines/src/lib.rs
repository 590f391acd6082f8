//! Baseline and reference routing strategies.
//!
//! Everything the paper's evaluation compares Nexit against:
//!
//! * **default** — early-exit routing (lives in [`nexit_routing::exits`];
//!   re-exported here for discoverability),
//! * [`optimal_distance()`](optimal_distance::optimal_distance) — the globally optimal distance routing: each
//!   flow independently uses the total-distance-minimizing
//!   interconnection (§5.1),
//! * [`optimal_bandwidth()`](optimal_bandwidth::optimal_bandwidth) — the globally optimal overload routing: the
//!   fractional LP that minimizes the maximum post-failure link-load
//!   ratio across both ISPs (§5.2); an upper bound on unsplittable
//!   routing quality, exactly as in the paper. Failure sweeps hold a
//!   [`BandwidthLp`] session instead:
//!   per-scenario skeletons built once, re-solves warm-started,
//! * [`flow_filters`] — the flow-Pareto and flow-both-better strategies
//!   of Figure 5, which discard obviously bad paths per opposite-flow
//!   pair but do not negotiate,
//! * [`grouped`] — negotiation restricted to separate flow groups (the
//!   §5.1 scope-of-negotiation ablation),
//! * [`unilateral`] — upstream-centric optimization without consulting
//!   the downstream (Figure 8).

pub mod flow_filters;
pub mod grouped;
pub mod optimal_bandwidth;
pub mod optimal_distance;
pub mod unilateral;

pub use flow_filters::{flow_both_better, flow_pareto};
pub use grouped::negotiate_in_groups;
pub use optimal_bandwidth::{
    optimal_bandwidth, BandwidthLp, BandwidthOptimum, OptimalBandwidthError,
};
pub use optimal_distance::optimal_distance;
pub use unilateral::unilateral_upstream;
