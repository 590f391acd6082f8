//! Nexit's benchmark of record.
//!
//! Six seeded workloads drive only public functions of the product
//! crates — single-threaded, closed loop with one caller, every link in
//! memory — and report five end-to-end metrics each, measured in passes
//! and normalised to a fixed reference speed ([`harness`]). A separate
//! traced run ([`trace`]) attributes the time to layers. `README.md`
//! beside this crate defines every metric and workload and says which
//! layer metric should move which end-to-end metric on which workload.

pub mod digest;
pub mod harness;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
