//! Experiment drivers, one module per paper figure group.

pub mod ablation;
pub mod bandwidth;
pub mod broker;
pub mod cheating;
pub mod distance;
pub mod diverse;
pub mod faults;
pub mod filters;
pub mod sweep;
