//! Intradomain routing substrate and cross-ISP flow paths.
//!
//! The paper assumes each ISP routes internally along shortest paths over
//! its IGP link weights, and that a *flow* (source PoP in one ISP →
//! destination PoP in the other) crosses exactly one interconnection. A
//! flow's end-to-end path is therefore three segments:
//!
//! ```text
//! src --(shortest path in upstream)--> exit PoP ==icx==> entry PoP --(shortest path in downstream)--> dst
//! ```
//!
//! This crate provides:
//!
//! * [`ShortestPaths`] — all-pairs shortest paths for one ISP, computed by
//!   repeated Dijkstra with deterministic tie-breaking, with distance
//!   lookups and path (link-sequence) extraction,
//! * [`exits`] — the upstream-local **early-exit** and downstream-local
//!   **late-exit** interconnection choices that BGP produces today,
//! * [`flowpath`] — assembled per-flow, per-interconnection paths with
//!   their distance decomposition, the object every optimizer and the
//!   negotiation engine consume,
//! * [`Assignment`] — a complete mapping of flows to interconnections,
//!   the output format shared by default, optimal and negotiated routing.

#![forbid(unsafe_code)]

pub mod assignment;
pub mod dijkstra;
pub mod exits;
pub mod flowpath;

pub use assignment::Assignment;
pub use dijkstra::ShortestPaths;
pub use exits::{early_exit, late_exit};
pub use flowpath::{flow_links, flow_links_into, Flow, FlowId, FlowMetrics, PairFlows};
