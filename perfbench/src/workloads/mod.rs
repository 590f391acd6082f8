//! The six workloads. Each stresses different layers, and every
//! mechanism gets one workload that exercises it and one that bypasses
//! it (see the README for the pairings and the "why" of each).
//!
//! A workload is a *pass function*: it builds its state from the seed
//! through [`Pass::setup`] and runs its fixed op sequence through
//! [`Pass::op`]. The product receives only generated inputs. Every seed
//! must run the same *amount* of work, or ten seeds measure the draw and
//! not the code. So topologies are pinned (seed 11, like the paper's one
//! measured dataset), and the seed drives what can vary at a steady
//! volume: traffic matrices, preference tables and link faults where
//! thousands of draws average out, the order of arrival where a single
//! draw (a churn feed, a growth ladder) would decide the run.

pub mod broker;
pub mod churn;
pub mod failure_sweep;
pub mod pair_pipeline;

use crate::harness::Pass;
use crate::stats;
use crate::trace::{Span, Tracer};
use nexit_core::{GainTable, PreferenceMapper, SessionInput};
use nexit_lp::WarmStats;
use nexit_routing::{Assignment, FlowId};
use nexit_sim::PairData;
use nexit_topology::Universe;
use std::collections::BTreeMap;

/// Seed of every generated topology.
pub const TOPOLOGY_SEED: u64 = 11;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Miniature pass content: the unit tests' fast variant. Metrics of
    /// a miniature run mean nothing; its output check means the same.
    pub mini: bool,
}

/// Counts read from the product's public stats structs during a pass,
/// and layer metrics derived from them, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 per-pair pipeline minus the LP.
    PairPipeline,
    /// Broker batches over clean links.
    BrokerClean,
    /// The same batches over lossy links through the ARQ layer.
    BrokerLossy,
    /// Churn events under the distance objective.
    ChurnDistance,
    /// The same feeds under the bandwidth objective.
    ChurnBandwidth,
    /// The failure × growth LP sweep.
    FailureSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 6] = [
        Workload::PairPipeline,
        Workload::BrokerClean,
        Workload::BrokerLossy,
        Workload::ChurnDistance,
        Workload::ChurnBandwidth,
        Workload::FailureSweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairPipeline => "pair_pipeline",
            Workload::BrokerClean => "broker_clean",
            Workload::BrokerLossy => "broker_lossy",
            Workload::ChurnDistance => "churn_distance",
            Workload::ChurnBandwidth => "churn_bandwidth",
            Workload::FailureSweep => "failure_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run one pass; returns the counts the layer metrics are built on.
    pub fn pass(self, ctx: &Ctx, p: &mut Pass<'_>) -> Values {
        match self {
            Workload::PairPipeline => pair_pipeline::pass(ctx, p),
            Workload::BrokerClean => broker::pass(ctx, p, false),
            Workload::BrokerLossy => broker::pass(ctx, p, true),
            Workload::ChurnDistance => churn::pass(ctx, p, nexit_sim::churn::Objective::Distance),
            Workload::ChurnBandwidth => churn::pass(ctx, p, nexit_sim::churn::Objective::Bandwidth),
            Workload::FailureSweep => failure_sweep::pass(ctx, p),
        }
    }

    /// Layer metrics of a traced pass, from its spans and counts.
    pub fn layer_metrics(self, spans: &[Span], counts: &Values, out: &mut Values) {
        match self {
            Workload::PairPipeline => pair_pipeline::layer_metrics(spans, out),
            Workload::BrokerClean | Workload::BrokerLossy => {
                broker::layer_metrics(spans, counts, out)
            }
            Workload::ChurnDistance | Workload::ChurnBandwidth => {
                churn::layer_metrics(spans, counts, out)
            }
            Workload::FailureSweep => failure_sweep::layer_metrics(spans, counts, out),
        }
    }

    /// Micro-measurements of single layers on this workload's own
    /// inputs, taken once per traced run outside the passes.
    pub fn probes(self, ctx: &Ctx, out: &mut Values) {
        match self {
            Workload::PairPipeline => pair_pipeline::probes(ctx, out),
            Workload::BrokerClean | Workload::BrokerLossy => broker::probes(ctx, out),
            _ => {}
        }
    }
}

/// SplitMix64 finaliser: derives independent sub-seeds (batch, link,
/// feed) from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
}

/// Flows of pair `idx`: every PoP of one ISP to every PoP of the other.
pub fn pair_flows(universe: &Universe, idx: usize) -> usize {
    let pair = &universe.pairs[idx];
    universe.isps[pair.isp_a.index()].num_pops() * universe.isps[pair.isp_b.index()].num_pops()
}

/// Median of a sample that may be empty (0 then: the path never ran).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Add one LP session's counters to a pass's counts (sums, and peaks
/// for the two peak fields).
pub fn add_lp_counts(lp: WarmStats, counts: &mut Values) {
    for (name, value) in [
        ("lp_solves", lp.total_solves()),
        ("lp_warm", lp.warm_reentries()),
        ("lp_warm_attempts", lp.warm_solves + lp.warm_fallbacks),
        ("lp_warm_fallbacks", lp.warm_fallbacks),
        ("lp_refactorizations", lp.refactorizations),
        ("lp_eta_pivots", lp.eta_pivots),
        ("lp_pricing_fallbacks", lp.pricing_fallbacks),
    ] {
        *counts.entry(name).or_default() += value as f64;
    }
    for (name, value) in [
        ("lp_max_eta_chain", lp.max_eta_chain),
        ("lp_lu_fill_nnz", lp.lu_fill_nnz),
    ] {
        let peak = counts.entry(name).or_default();
        *peak = peak.max(value as f64);
    }
}

/// The `lp.*` count metrics every workload with an LP shares.
pub fn lp_count_metrics(counts: &Values, out: &mut Values) {
    use crate::trace::ratio;
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let solves = get("lp_solves");
    out.insert(
        "lp.warm_fallback_share",
        ratio(get("lp_warm_fallbacks"), get("lp_warm_attempts")),
    );
    out.insert(
        "lp.refactorizations_per_solve",
        ratio(get("lp_refactorizations"), solves),
    );
    out.insert(
        "lp.eta_pivots_per_solve",
        ratio(get("lp_eta_pivots"), solves),
    );
    out.insert("lp.max_eta_chain", get("lp_max_eta_chain"));
    out.insert("lp.lu_fill_nnz_peak", get("lp_lu_fill_nnz"));
    out.insert("lp.pricing_fallbacks", get("lp_pricing_fallbacks"));
}

/// A session over every flow of a pair, on its early-exit defaults.
pub fn whole_pair_input(data: &PairData<'_>) -> SessionInput {
    SessionInput {
        flow_ids: (0..data.flows.len()).map(FlowId::new).collect(),
        defaults: data.default.choices().to_vec(),
        volumes: data.flows.flows.iter().map(|f| f.volume).collect(),
        num_alternatives: data.pair.num_interconnections(),
    }
}

/// A mapper that records each gain fill as a span with the cells filled
/// as units — the benchmark's view of the `core::mapping` boundary from
/// inside a negotiation.
pub struct TracedMapper<'t, M> {
    tr: &'t Tracer,
    name: &'static str,
    inner: M,
}

impl<'t, M> TracedMapper<'t, M> {
    /// Wrap `inner`; fills are recorded under `name`.
    pub fn new(tr: &'t Tracer, name: &'static str, inner: M) -> Self {
        Self { tr, name, inner }
    }
}

impl<M: PreferenceMapper> PreferenceMapper for TracedMapper<'_, M> {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        let open = self.tr.begin(self.name);
        self.inner.gains(input, current, out);
        self.tr
            .end(open, "", (input.len() * input.num_alternatives) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Calibrator;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_ne!(mix(11, 0), mix(11, 1));
        assert_ne!(mix(11, 0), mix(12, 0));
    }

    #[test]
    fn shuffle_permutes_by_seed() {
        let sorted: Vec<usize> = (0..100).collect();
        let shuffled = |seed| {
            let mut items = sorted.clone();
            shuffle(&mut items, seed);
            items
        };
        assert_eq!(shuffled(11), shuffled(11));
        assert_ne!(shuffled(11), shuffled(12));
        assert_ne!(shuffled(11), sorted);
        let mut back = shuffled(11);
        back.sort_unstable();
        assert_eq!(back, sorted);
    }

    /// A one-pass miniature of every workload must pass its output
    /// check, run the same ops from the same seed, and differ across
    /// seeds.
    #[test]
    fn miniatures_pass_their_output_checks() {
        let tr = Tracer::new(false);
        let mut calibrator = Calibrator::default();
        for w in Workload::ALL {
            let run = |seed: u64, calibrator: &mut Calibrator| {
                let mut p = Pass::new(&tr, calibrator, true);
                w.pass(&Ctx { seed, mini: true }, &mut p);
                p.finish()
            };
            let first = run(11, &mut calibrator);
            assert!(
                first.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                first.failures
            );
            let again = run(11, &mut calibrator);
            assert_eq!(first.digest, again.digest, "{} digest moved", w.name());
            assert_eq!(first.op_ms.len(), again.op_ms.len());
            let other = run(12, &mut calibrator);
            assert!(
                other.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                other.failures
            );
            assert_eq!(
                first.op_ms.len(),
                other.op_ms.len(),
                "{} op count",
                w.name()
            );
            assert_ne!(first.digest, other.digest, "{} ignores its seed", w.name());
        }
    }

    /// A traced miniature reports spans that explain the op time.
    #[test]
    fn traced_miniatures_explain_their_ops() {
        let mut calibrator = Calibrator::default();
        for w in Workload::ALL {
            let tr = Tracer::new(true);
            let mut p = Pass::new(&tr, &mut calibrator, false);
            let counts = w.pass(
                &Ctx {
                    seed: 11,
                    mini: true,
                },
                &mut p,
            );
            let untraced_digest = {
                let off = Tracer::new(false);
                let mut calibrator = Calibrator::default();
                let mut q = Pass::new(&off, &mut calibrator, false);
                w.pass(
                    &Ctx {
                        seed: 11,
                        mini: true,
                    },
                    &mut q,
                );
                q.finish().digest
            };
            assert_eq!(
                p.finish().digest,
                untraced_digest,
                "{}: the traced path must compute what the timed path does",
                w.name()
            );
            let spans = tr.take();
            let mut out = Values::new();
            w.layer_metrics(&spans, &counts, &mut out);
            assert!(!out.is_empty(), "{} has no layer metrics", w.name());
            for name in out.keys() {
                assert!(
                    crate::metrics::PER_LAYER.iter().any(|m| m.name == *name),
                    "{name} is not in the per-layer table"
                );
            }
        }
    }
}
