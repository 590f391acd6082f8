//! Traffic workloads and link-capacity models.
//!
//! The paper's bandwidth experiments need three modeled inputs that are not
//! part of the topology itself (§5.2 "Methodology"):
//!
//! 1. **A traffic matrix** — how much traffic each (source PoP,
//!    destination PoP) flow carries. The headline model is a *gravity
//!    model*: flow volume proportional to the product of the city
//!    populations of its endpoints. Alternate models (identical weights,
//!    uniform-random weights) are provided for the robustness ablation.
//! 2. **Per-link loads** — the traffic each intra-ISP link carries given a
//!    flow-to-interconnection assignment, including the *background* load
//!    from the ISP's purely internal traffic and from traffic in the other
//!    direction; we model the negotiation-relevant portion (the directed
//!    inter-ISP flows) exactly as the paper does.
//! 3. **Link capacities** — proportional to pre-failure load, with the
//!    paper's backup-link rule (unused links get the median capacity of
//!    used links) and thin-link upgrade (links below the median are raised
//!    to the median). A power-of-two discretization is provided for the
//!    ablation.

#![forbid(unsafe_code)]

pub mod capacity;
pub mod gravity;
pub mod loads;

pub use capacity::{assign_capacities, BackupRule, CapacityModel};
pub use gravity::{volume_fn, WorkloadModel};
pub use loads::{exact_volume, link_loads, LinkLoads, PathRow, PathTable, EXACT_LOAD_LIMIT};
