//! # Nexit — negotiation-based routing between neighboring ISPs
//!
//! A comprehensive reproduction of *"Negotiation-Based Routing Between
//! Neighboring ISPs"* (Mahajan, Wetherall, Anderson — NSDI 2005) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! member crate; depend on it for the one-stop experience or on
//! individual crates for narrower builds.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`topology`] | PoP-level ISP topologies, Rocketfuel-like synthesis, ISP pairs |
//! | [`routing`] | intradomain shortest paths, early/late exit, flows, assignments |
//! | [`workload`] | gravity traffic matrices, link loads, capacity models |
//! | [`metrics`] | distance gains, MEL, Fortz–Thorup cost |
//! | [`lp`] | dense two-phase simplex (substrate for the bandwidth optimum) |
//! | [`baselines`] | global optima, flow filters, grouped & unilateral strategies |
//! | [`core`] | **the Nexit negotiation core**: the sans-IO `NegotiationMachine`, the in-process driver, preferences, policies, cheating |
//! | [`proto`] | wire protocol + sans-io negotiation agents (codec shells around the same machine) |
//! | [`broker`] | multiplexed session broker: thousands of concurrent wire negotiations on M workers |
//! | [`sim`] | the full experiment harness reproducing every paper figure |
//!
//! Every turn/propose/accept/stop decision lives in exactly one place —
//! [`core::machine::NegotiationMachine`]. The in-process driver
//! ([`core::negotiate`] / [`core::SessionBuilder`]) and the wire agents
//! ([`proto::Agent`]) are thin shells around it, so simulated and
//! deployed negotiations agree by construction.
//!
//! ## Quickstart
//!
//! ```
//! use nexit::topology::{GeneratorConfig, TopologyGenerator};
//! use nexit::sim::PairData;
//! use nexit::sim::twoway::{TwoWayDistanceMapper, TwoWaySession};
//! use nexit::core::{NexitConfig, Party, SessionBuilder, Side};
//! use nexit::workload::WorkloadModel;
//!
//! // Generate a small universe and pick a peering pair.
//! let universe = TopologyGenerator::new(GeneratorConfig {
//!     num_isps: 10,
//!     num_mesh_isps: 0,
//!     seed: 42,
//!     ..GeneratorConfig::default()
//! })
//! .generate();
//! let idx = universe.eligible_pairs(2, true)[0];
//! let pair = &universe.pairs[idx];
//! let a = &universe.isps[pair.isp_a.index()];
//! let b = &universe.isps[pair.isp_b.index()];
//!
//! // Build both directions and a combined negotiation session.
//! let fwd = PairData::build(a, b, pair.clone(), WorkloadModel::Identical);
//! let rev = PairData::build(b, a, fwd.mirrored_pair(), WorkloadModel::Identical);
//! let session = TwoWaySession::build(&fwd, &rev);
//!
//! // Negotiate with the distance objective on both sides.
//! let outcome = SessionBuilder::new()
//!     .input(session.input.clone())
//!     .default_assignment(session.default.clone())
//!     .config(NexitConfig::win_win())
//!     .party_a(Party::honest(
//!         "ISP-A",
//!         TwoWayDistanceMapper::new(Side::A, &fwd.flows, &rev.flows, session.n_fwd),
//!     ))
//!     .party_b(Party::honest(
//!         "ISP-B",
//!         TwoWayDistanceMapper::new(Side::B, &fwd.flows, &rev.flows, session.n_fwd),
//!     ))
//!     .run()
//!     .expect("structurally valid session");
//! assert!(outcome.gain_a >= 0 && outcome.gain_b >= 0, "win-win");
//! ```

#![forbid(unsafe_code)]

pub use nexit_baselines as baselines;
pub use nexit_broker as broker;
pub use nexit_core as core;
pub use nexit_lp as lp;
pub use nexit_metrics as metrics;
pub use nexit_proto as proto;
pub use nexit_routing as routing;
pub use nexit_sim as sim;
pub use nexit_topology as topology;
pub use nexit_workload as workload;
