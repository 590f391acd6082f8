//! One run of one workload: timed passes and the output check, or the
//! separate traced run.

use crate::harness::{self, Calibrator, Pass, PassRecord, Summary, CALIB_REF_MS};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::workloads::{Ctx, Values, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fewest passes a timed run reports from, however short `--seconds`.
pub const MIN_PASSES: usize = 5;

/// Fewest set-ups a timed run reports `setup_s` from: where the passes
/// are fewer, passes that only set up make up the number.
pub const MIN_SETUPS: usize = 15;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed and pass content.
    pub ctx: Ctx,
    /// How long to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or timed run (end-to-end ones).
    pub trace: bool,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub trace_dir: Option<PathBuf>,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Ops executed, by every pass of the run.
    pub attempted: u64,
    /// Those of them that failed or whose output check failed.
    pub failed: u64,
    /// Every declared metric of this kind of run, in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Ops per pass, passes, tail percentile, of the measured passes.
    pub summary: Summary,
    /// Digest of every op's outcome (the same on every pass).
    pub result_digest: u64,
    /// Why ops failed (first few).
    pub failures: Vec<String>,
}

fn one_pass(
    opts: &Options,
    tr: &Tracer,
    calibrator: &mut Calibrator,
    verify: bool,
) -> (PassRecord, Values) {
    let mut pass = Pass::new(tr, calibrator, verify);
    let counts = opts.workload.pass(&opts.ctx, &mut pass);
    (pass.finish(), counts)
}

/// Fold one pass's ops, failures and digest into the run's.
#[derive(Default)]
struct Outcome {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, what: &str, record: &PassRecord) {
        self.attempted += record.op_ms.len() as u64;
        self.failed += record.failures.len() as u64;
        for (op, why) in record.failures.iter().take(3) {
            self.failures.push(format!("{what}, op {op}: {why}"));
        }
        let digest = record.digest.value();
        if *self.digest.get_or_insert(digest) != digest {
            self.failed += 1;
            self.failures
                .push(format!("{what}: result digest differs from the first pass"));
        }
    }
}

/// Run it.
pub fn run(opts: &Options) -> Report {
    let mut calibrator = Calibrator::default();
    let mut outcome = Outcome::default();
    let off = Tracer::new(false);
    let mut timed = Vec::new();
    let mut traced: Vec<(PassRecord, Values, Vec<Span>)> = Vec::new();

    // Caches fill and the allocator settles during the first pass; no
    // later process start pays that per op, so it is not measured.
    let (warm_up, _) = one_pass(opts, &off, &mut calibrator, false);
    outcome.absorb("warm-up pass", &warm_up);

    // Passes until the next one would not end within `--seconds`.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min_passes = if opts.trace { 1 } else { MIN_PASSES };
    let mut last = Duration::ZERO;
    while timed.len() < min_passes || Instant::now() + last <= deadline {
        let start = Instant::now();
        let (record, _) = one_pass(opts, &off, &mut calibrator, false);
        outcome.absorb("timed pass", &record);
        timed.push(record);
        if opts.trace {
            let on = Tracer::new(true);
            let (record, counts) = one_pass(opts, &on, &mut calibrator, false);
            outcome.absorb("traced pass", &record);
            traced.push((record, counts, on.take()));
        }
        last = start.elapsed();
    }
    let setups = if opts.trace { 0 } else { MIN_SETUPS };
    let setup_only: Vec<PassRecord> = (timed.len()..setups)
        .map(|_| {
            let mut pass = Pass::setup_only(&off, &mut calibrator);
            opts.workload.pass(&opts.ctx, &mut pass);
            pass.finish()
        })
        .collect();
    let summary = harness::summarise(&timed, &setup_only);
    for (i, pass) in timed.iter().enumerate() {
        let raw_ms: f64 = pass.op_ms.iter().sum();
        eprintln!(
            "pass {i}: ops {raw_ms:.1} ms raw, {:.1} ms at reference speed, set-up {:.2} ms raw",
            pass.op_ms_normalised().iter().sum::<f64>(),
            pass.setup_s * 1e3
        );
    }

    // Memory is what the measured passes need, so it is read before the
    // output check: one more pass that also verifies.
    let peak_rss_mb = harness::peak_rss_mb();
    let (check, _) = one_pass(opts, &off, &mut calibrator, true);
    outcome.absorb("check pass", &check);

    let metrics = if opts.trace {
        let mut values = layer_values(opts, &mut calibrator, &traced, &summary);
        values.insert(
            "bench.failed_share",
            outcome.failed as f64 / outcome.attempted as f64,
        );
        PER_LAYER
            .iter()
            .map(|&m| (m, values.remove(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        let values = [
            summary.ops_per_s,
            summary.latency_ms_p50,
            summary.latency_ms_tail,
            summary.setup_s,
            peak_rss_mb,
        ];
        END_TO_END.iter().copied().zip(values).collect()
    };

    Report {
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        summary,
        result_digest: outcome.digest.expect("at least one pass ran"),
        failures: outcome.failures,
    }
}

fn is_time(unit: &str) -> bool {
    matches!(unit, "ns" | "us" | "ms" | "s")
}

/// The per-layer values of a traced run: each traced pass's spans are
/// brought to reference speed and reduced to layer metrics, the median
/// over passes is reported; probes and `bench.*` are added once.
fn layer_values(
    opts: &Options,
    calibrator: &mut Calibrator,
    traced: &[(PassRecord, Values, Vec<Span>)],
    summary: &Summary,
) -> Values {
    let mut per_pass: Vec<Values> = Vec::new();
    let mut unexplained = Vec::new();
    for (record, counts, spans) in traced {
        let factor = record.factor();
        let scaled: Vec<Span> = spans
            .iter()
            .map(|s| Span {
                start_ns: (s.start_ns as f64 * factor) as u64,
                end_ns: (s.end_ns as f64 * factor) as u64,
                ..s.clone()
            })
            .collect();
        let mut values = Values::new();
        opts.workload.layer_metrics(&scaled, counts, &mut values);
        per_pass.push(values);
        unexplained.push(trace::unexplained_share(&scaled));
    }
    let mut values = Values::new();
    for name in per_pass[0].keys() {
        let column: Vec<f64> = per_pass.iter().map(|v| v[name]).collect();
        values.insert(name, stats::median(&column));
    }

    let before = calibrator.sample_ms();
    let mut probed = Values::new();
    opts.workload.probes(&opts.ctx, &mut probed);
    let factor = CALIB_REF_MS / ((before + calibrator.sample_ms()) / 2.0);
    for (name, value) in probed {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        values.insert(name, if is_time(unit) { value * factor } else { value });
    }

    // Both kinds of pass reduced the same way, so the two throughputs
    // differ by what tracing costs.
    let traced_records: Vec<PassRecord> = traced.iter().map(|(r, ..)| r.clone()).collect();
    values.insert(
        "bench.trace_overhead_share",
        summary.ops_per_s / harness::summarise(&traced_records, &[]).ops_per_s - 1.0,
    );
    values.insert("bench.unexplained_share", stats::median(&unexplained));
    values.insert("bench.calib_ms_median", summary.calib_ms_median);
    values.insert("bench.calib_spread", summary.calib_spread);
    values.insert("bench.raw_ops_per_s", summary.raw_ops_per_s);
    values.insert("bench.raw_latency_ms_p50", summary.raw_latency_ms_p50);
    values.insert("bench.pass_spread", summary.pass_spread);

    if let (Some(dir), Some((_, _, spans))) = (&opts.trace_dir, traced.last()) {
        let path = dir.join(format!("trace-{}.json", opts.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(spans)));
        match written {
            Ok(()) => eprintln!("trace: {} spans in {}", spans.len(), path.display()),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(workload: Workload, trace: bool) -> Options {
        Options {
            workload,
            ctx: Ctx {
                seed: 11,
                mini: true,
            },
            seconds: 0.0,
            trace,
            trace_dir: None,
        }
    }

    #[test]
    fn a_timed_miniature_run_reports_every_end_to_end_metric() {
        let report = run(&options(Workload::BrokerLossy, false));
        assert!(report.correct, "{:?}", report.failures);
        assert_eq!(report.failed, 0);
        assert_eq!(report.summary.passes, MIN_PASSES);
        assert_eq!(report.summary.setups, MIN_SETUPS);
        // Warm-up, timed and check passes.
        assert_eq!(
            report.attempted,
            ((MIN_PASSES + 2) * report.summary.ops) as u64
        );
        let names: Vec<&str> = report.metrics.iter().map(|(m, _)| m.name).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert!(report.metrics.iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn a_traced_miniature_run_reports_every_per_layer_metric() {
        for workload in [Workload::ChurnBandwidth, Workload::PairPipeline] {
            let report = run(&options(workload, true));
            assert!(report.correct, "{:?}", report.failures);
            assert_eq!(report.metrics.len(), PER_LAYER.len());
            let value = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|(m, _)| m.name == name)
                    .map(|(_, v)| *v)
                    .expect("declared metric")
            };
            assert!(value("bench.calib_ms_median") > 0.0);
            assert!(value("bench.unexplained_share") < 0.5);
            assert_eq!(
                value("proto.frames_per_session"),
                0.0,
                "layer not exercised"
            );
        }
    }
}
