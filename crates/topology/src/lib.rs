//! PoP-level ISP topology model and synthetic topology generation.
//!
//! The NSDI 2005 Nexit evaluation uses a measured dataset of 65 PoP-level
//! ISP topologies (Rocketfuel) with geographic PoP coordinates and inferred
//! intra-ISP link weights. That dataset is not redistributable, so this
//! crate provides:
//!
//! * the **data model** — [`IspTopology`], [`Pop`], [`Link`],
//!   [`Interconnection`], [`IspPair`] — able to represent either measured or
//!   synthetic topologies,
//! * a **deterministic generator** ([`generator::TopologyGenerator`]) that
//!   synthesizes a Rocketfuel-like universe of ISPs: heavy-tailed PoP
//!   counts, geographically embedded PoPs drawn from a built-in table of
//!   real world cities, spanning-tree-plus-Waxman intra-ISP connectivity,
//!   and interconnections wherever two ISPs are present in the same city,
//! * **JSON import/export** ([`serde_io`]) so users with access to the real
//!   measured data can substitute it directly.
//!
//! All coordinates are WGS-84 latitude/longitude and all distances are
//! great-circle kilometres ([`geo::GeoPoint::distance_km`]).

#![forbid(unsafe_code)]

pub mod city;
pub mod generator;
pub mod geo;
pub mod ids;
pub mod isp;
pub mod pair;
pub mod serde_io;

pub use city::{builtin_cities, City};
pub use generator::{GeneratorConfig, TopologyGenerator, Universe};
pub use geo::GeoPoint;
pub use ids::{IcxId, IspId, LinkId, PopId};
pub use isp::{IspTopology, Link, Pop};
pub use pair::{Interconnection, IspPair, PairView};

/// Errors produced while constructing or validating topologies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references a PoP index that does not exist in the ISP.
    DanglingLink { link: usize, pop: usize },
    /// The intra-ISP graph is not connected; the payload is an unreachable PoP.
    Disconnected { pop: usize },
    /// An ISP must have at least one PoP.
    EmptyIsp,
    /// A link connects a PoP to itself.
    SelfLoop { link: usize },
    /// An interconnection references a missing PoP on one side.
    BadInterconnection { icx: usize },
    /// A serialized topology failed validation on load.
    InvalidSerialized(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::DanglingLink { link, pop } => {
                write!(f, "link {link} references nonexistent pop {pop}")
            }
            TopologyError::Disconnected { pop } => {
                write!(f, "intra-ISP graph is disconnected: pop {pop} unreachable")
            }
            TopologyError::EmptyIsp => write!(f, "ISP topology has no PoPs"),
            TopologyError::SelfLoop { link } => write!(f, "link {link} is a self-loop"),
            TopologyError::BadInterconnection { icx } => {
                write!(f, "interconnection {icx} references a nonexistent pop")
            }
            TopologyError::InvalidSerialized(msg) => {
                write!(f, "invalid serialized topology: {msg}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}
