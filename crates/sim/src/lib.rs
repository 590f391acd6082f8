//! Experiment harness: reproduces every figure of the paper's evaluation.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`experiments::distance`] | Fig. 4a/4b (distance gains), Fig. 6 (flow-level view), §5.1 fraction claim |
//! | [`experiments::filters`] | Fig. 5 (flow-Pareto / flow-both-better) |
//! | [`experiments::bandwidth`] | Fig. 7 (MEL ratios), Fig. 8 (unilateral upstream) |
//! | [`experiments::diverse`] | Fig. 9 (different optimization criteria) |
//! | [`experiments::cheating`] | Fig. 10 (distance cheating), Fig. 11 (bandwidth cheating) |
//! | [`experiments::ablation`] | §5 robustness: preference-range sweep, group sweep, workload/capacity models |
//! | [`experiments::sweep`] | the one pair selector, fan-out, failure-scenario loop and win-win gate of every figure |
//! | [`scenarios`] | Fig. 1 / Fig. 2 motivating topologies, Fig. 3 walk-through |
//! | [`destination`] | footnote-2 extension: destination-granularity negotiation |
//! | [`churn`] | beyond the paper: incremental re-negotiation under a live event feed |
//!
//! The `experiments` binary (`cargo run --release -p nexit-sim --bin
//! experiments -- all`) regenerates everything and prints the CDF series
//! the paper plots.

#![forbid(unsafe_code)]

pub mod cdf;
pub mod churn;
pub mod destination;
pub mod experiments;
pub mod pairdata;
pub mod parallel;
pub mod scenarios;
pub mod twoway;

pub use cdf::Cdf;
pub use pairdata::{ExpConfig, PairData};
pub use parallel::par_map;
