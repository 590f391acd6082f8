//! The metric tables: what `BENCHMARK.json` declares, in the order it
//! declares it. The unit tests hold the two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Whether `higher` or `lower` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// What a user of the system sees; the same five on every workload.
pub const END_TO_END: &[Metric] = &[
    m("ops_per_s", "1/s", "higher"),
    m("latency_ms_p50", "ms", "lower"),
    m("latency_ms_tail", "ms", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from the traced run. A workload that does not
/// exercise a layer reports 0 for it: no time spent, nothing counted.
pub const PER_LAYER: &[Metric] = &[
    m("topology.generate_ms", "ms", "lower"),
    m("routing.shortest_paths_ms_per_isp", "ms", "lower"),
    m("routing.pair_tables_ms_per_pair", "ms", "lower"),
    m("workload.loads_caps_ms_per_pair", "ms", "lower"),
    m("core.gain_fill_distance_ns_per_cell", "ns", "lower"),
    m("core.quantize_ns_per_cell", "ns", "lower"),
    m("core.index_build_ns_per_cell", "ns", "lower"),
    m("core.negotiate_distance_ms_per_session", "ms", "lower"),
    m("core.gain_fill_bandwidth_ns_per_cell", "ns", "lower"),
    m("core.negotiate_bandwidth_ms_per_session", "ms", "lower"),
    m("core.reassignments_per_session", "count", "lower"),
    m("core.rounds_per_session", "count", "lower"),
    m("core.us_per_round", "us", "lower"),
    m("core.session_16x4_us", "us", "lower"),
    m("proto.codec_roundtrip_ns_small", "ns", "lower"),
    m("proto.codec_roundtrip_ns_large", "ns", "lower"),
    m("proto.frames_per_session", "count", "lower"),
    m("proto.bytes_per_session", "B", "lower"),
    m("proto.session_us_direct", "us", "lower"),
    m("proto.arq_retransmits_per_session", "count", "lower"),
    m("proto.arq_recovered_share", "share", "higher"),
    m("proto.arq_session_us_direct", "us", "lower"),
    m("broker.sessions_per_s", "1/s", "higher"),
    m("broker.us_per_session", "us", "lower"),
    m("broker.ticks_per_session", "count", "lower"),
    m("broker.parked_ticks", "count", "lower"),
    m("broker.peak_active", "count", "lower"),
    m("broker.overhead_share", "share", "lower"),
    m("broker.lossy_over_clean", "ratio", "lower"),
    m("broker.degraded_share", "share", "lower"),
    m("lp.cold_solve_ms_p50", "ms", "lower"),
    m("lp.warm_rhs_solve_ms_p50", "ms", "lower"),
    m("lp.warm_over_cold", "ratio", "lower"),
    m("lp.warm_fallback_share", "share", "lower"),
    m("lp.refactorizations_per_solve", "count", "lower"),
    m("lp.eta_pivots_per_solve", "count", "lower"),
    m("lp.max_eta_chain", "count", "lower"),
    m("lp.lu_fill_nnz_peak", "count", "lower"),
    m("lp.pricing_fallbacks", "count", "lower"),
    m("lp.size_skipped", "count", "lower"),
    m("baselines.lp_session_build_ms", "ms", "lower"),
    m("churn.pair_build_ms", "ms", "lower"),
    m("churn.driver_new_ms_per_pair", "ms", "lower"),
    m("churn.event_ms_p50.load_delta", "ms", "lower"),
    m("churn.event_ms_p50.flow", "ms", "lower"),
    m("churn.event_ms_p50.topology", "ms", "lower"),
    m("churn.event_ms_p50.cached", "ms", "lower"),
    m("churn.event_ms_p50.incremental", "ms", "lower"),
    m("churn.event_ms_p50.fallback", "ms", "lower"),
    m("churn.cached_share", "share", "higher"),
    m("churn.incremental_share", "share", "higher"),
    m("churn.fallback_share", "share", "lower"),
    m("churn.signature_hit_share", "share", "higher"),
    m("churn.rows_refreshed_per_event", "count", "lower"),
    m("churn.rows_served_per_event", "count", "higher"),
    m("churn.rows_load_invalidated_per_event", "count", "lower"),
    m("churn.work_units_per_event", "count", "lower"),
    m("churn.lp_warm_share", "share", "higher"),
    m("churn.cold_rebuild_ms_p50", "ms", "lower"),
    m("churn.incremental_over_cold_p50", "ratio", "lower"),
    m("churn.incremental_over_cold_tail", "ratio", "lower"),
    m("bench.calib_ms_median", "ms", "lower"),
    m("bench.calib_spread", "ratio", "lower"),
    m("bench.raw_ops_per_s", "1/s", "higher"),
    m("bench.raw_latency_ms_p50", "ms", "lower"),
    m("bench.pass_spread", "ratio", "lower"),
    m("bench.trace_overhead_share", "share", "lower"),
    m("bench.unexplained_share", "share", "lower"),
    m("bench.failed_share", "share", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        v.get_field(name)
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e:?}"))
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn list(v: &Value) -> &[Value] {
        match v {
            Value::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_declares_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&json).expect("BENCHMARK.json parses");

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(&str, &str, &str)> = list(field(&doc, key))
                .iter()
                .map(|e| {
                    (
                        text(field(e, "name")),
                        text(field(e, "unit")),
                        text(field(e, "better")),
                    )
                })
                .collect();
            let ours: Vec<(&str, &str, &str)> =
                table.iter().map(|m| (m.name, m.unit, m.better)).collect();
            assert_eq!(declared, ours, "{key} out of step");
        }
        let workloads: Vec<&str> = list(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(metric.name, "_.-", 64), "{}", metric.name);
            assert!(ok(metric.unit, "_/%.-", 16), "{}", metric.unit);
            assert!(matches!(metric.better, "higher" | "lower"));
            assert!(seen.insert(metric.name), "{} declared twice", metric.name);
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
