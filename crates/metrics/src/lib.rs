//! Routing-quality metrics.
//!
//! Three families, matching the paper's evaluation:
//!
//! * [`distance`] — percentage distance gains relative to default routing
//!   (Figures 4, 5, 6, 9b, 10),
//! * [`mel`](mod@mel) — Maximum Excess Load, the paper's overload metric: the
//!   maximum ratio of post-failure offered load to capacity across the
//!   links of a topology (Figures 7, 8, 9a, 11),
//! * [`fortz`] — the Fortz–Thorup piecewise-linear link cost, the paper's
//!   LP-based alternate ISP objective for the robustness ablation.

#![forbid(unsafe_code)]

pub mod distance;
pub mod fortz;
pub mod mel;

pub use distance::{flow_gains, percent_gain, DistanceGains};
pub use fortz::{fortz_cost, fortz_link_cost};
pub use mel::{mel, side_mels};
