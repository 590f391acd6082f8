//! Passes, reference normalisation and op-aligned quartiles.
//!
//! The host this runs on drifts between speed phases that last seconds:
//! back-to-back runs of identical code differ by 5–24 % in raw
//! throughput, and a fixed CPU kernel timed beside the ops drifts by the
//! same factor. So a run is a number of identical *passes*; each pass
//! rebuilds its state from the seed (timed: set-up) and executes the
//! same deterministic op sequence, timing every op; a fixed calibration
//! kernel runs before set-up, after set-up, whenever 20 ms of op time has
//! accumulated and after the last op, and every timing is multiplied by
//! `CALIB_REF_MS / mean(the calibration samples next to it in time)`:
//! the host also changes speed within a pass, so the samples around an op
//! say more about it than the pass's median does. Reported times are
//! therefore "at reference speed"; raw values are kept as `bench.*` layer
//! metrics. Latency of op index *i* is the first quartile over passes of
//! its normalised time (what disturbs an op only adds to it), and
//! throughput is ops ÷ the sum of those latencies.

use crate::digest::Digest;
use crate::stats;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;

/// The calibration kernel's time at reference speed, ms. Together with
/// [`Calibrator`] this defines the unit every reported time is in;
/// change neither outside a change that redefines the benchmark.
pub const CALIB_REF_MS: f64 = 0.300;

/// Op time between calibrations, ns.
const CALIB_EVERY_NS: u64 = 20_000_000;

/// Steps of the calibration walk (≈ 0.3 ms on the reference host).
const CALIB_STEPS: u32 = 40_000;

/// Words of the calibration buffer (512 KiB).
const CALIB_WORDS: usize = 128 * 1024;

/// Calibration samples on each side of an op that normalise it.
const CALIB_NEAR: usize = 2;

/// The fixed calibration kernel: a dependent xorshift walk over a
/// 512 KiB buffer, mixing arithmetic with cache-resident loads the way
/// the product's table scans do.
pub struct Calibrator {
    buf: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        let mut x = 0x9E37_79B9u32;
        let buf = (0..CALIB_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Self { buf }
    }
}

impl Calibrator {
    /// One kernel run, in ms.
    fn kernel_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_F491u32;
        for _ in 0..CALIB_STEPS {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let slot = (x as usize) % CALIB_WORDS;
            x = x.wrapping_add(self.buf[slot]);
            self.buf[slot] = x;
        }
        black_box(x);
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One calibration sample: the median of three kernel runs.
    pub fn sample_ms(&mut self) -> f64 {
        let mut runs = [self.kernel_ms(), self.kernel_ms(), self.kernel_ms()];
        stats::sort(&mut runs);
        runs[1]
    }
}

/// What one op reports besides its time: `Err` marks the op failed.
pub type OpResult = Result<(), String>;

/// Timings and outcomes of one pass.
#[derive(Debug, Clone, Default)]
pub struct PassRecord {
    /// Raw set-up time, s.
    pub setup_s: f64,
    /// Raw time of every op, ms.
    pub op_ms: Vec<f64>,
    /// Calibration samples in the order taken, each with the number of
    /// ops run before it: one before set-up, one after it, one whenever
    /// 20 ms of op time has accumulated, one after the last op.
    pub calib: Vec<(usize, f64)>,
    /// Digest over every op's outcome.
    pub digest: Digest,
    /// Failed ops, with the reason.
    pub failures: Vec<(usize, String)>,
}

impl PassRecord {
    /// The factor that brings the pass as a whole to reference speed
    /// (what a traced pass's spans are scaled by).
    pub fn factor(&self) -> f64 {
        let samples: Vec<f64> = self.calib.iter().map(|&(_, ms)| ms).collect();
        CALIB_REF_MS / stats::median(&samples)
    }

    /// Set-up time at reference speed, s: scaled by the samples taken
    /// right before and right after it.
    pub fn setup_s_normalised(&self) -> f64 {
        self.setup_s * CALIB_REF_MS / ((self.calib[0].1 + self.calib[1].1) / 2.0)
    }

    /// Every op's time at reference speed, ms: scaled by the mean of the
    /// `CALIB_NEAR` samples taken before it and the `CALIB_NEAR` after.
    pub fn op_ms_normalised(&self) -> Vec<f64> {
        // The sample before set-up is not next to any op.
        let samples = &self.calib[1..];
        let mut taken_before = 0; // samples taken before op `i` started
        self.op_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| {
                while taken_before < samples.len() && samples[taken_before].0 <= i {
                    taken_before += 1;
                }
                let near = &samples[taken_before.saturating_sub(CALIB_NEAR)
                    ..(taken_before + CALIB_NEAR).min(samples.len())];
                let mean = near.iter().map(|&(_, ms)| ms).sum::<f64>() / near.len() as f64;
                ms * CALIB_REF_MS / mean
            })
            .collect()
    }
}

/// One pass in progress. A workload's pass function calls
/// [`Pass::setup`] for everything a fresh process pays before its first
/// op and [`Pass::op`] for every op.
pub struct Pass<'a> {
    /// Span recorder (disabled on timed runs).
    pub tr: &'a Tracer,
    /// Whether ops must also verify their outputs (the check pass).
    pub verify: bool,
    calibrator: &'a mut Calibrator,
    record: PassRecord,
    since_calib_ns: u64,
    in_ops: bool,
    setup_only: bool,
}

impl<'a> Pass<'a> {
    /// Start a pass: takes the pre-set-up calibration sample.
    pub fn new(tr: &'a Tracer, calibrator: &'a mut Calibrator, verify: bool) -> Self {
        let mut pass = Self {
            tr,
            verify,
            calibrator,
            record: PassRecord::default(),
            since_calib_ns: 0,
            in_ops: false,
            setup_only: false,
        };
        pass.calibrate();
        pass
    }

    /// Start a pass that only sets up: its ops are skipped. Set-up is
    /// short, so a run times it more often than it has passes.
    pub fn setup_only(tr: &'a Tracer, calibrator: &'a mut Calibrator) -> Self {
        Self {
            setup_only: true,
            ..Self::new(tr, calibrator, false)
        }
    }

    fn calibrate(&mut self) {
        let sample = self.calibrator.sample_ms();
        self.record.calib.push((self.record.op_ms.len(), sample));
        self.since_calib_ns = 0;
    }

    /// Time one stage of set-up (stages add up).
    pub fn setup<T>(&mut self, name: &'static str, f: impl FnOnce(&Tracer) -> T) -> T {
        assert!(!self.in_ops, "set-up after the first op");
        let open = self.tr.begin(name);
        let start = Instant::now();
        let out = f(self.tr);
        self.record.setup_s += start.elapsed().as_secs_f64();
        self.tr.end(open, "", 0);
        out
    }

    /// Time one op. The closure writes the op's outcome into the digest.
    pub fn op(&mut self, f: impl FnOnce(&Tracer, &mut Digest) -> OpResult) {
        if !self.in_ops || self.since_calib_ns >= CALIB_EVERY_NS {
            self.in_ops = true;
            self.calibrate();
        }
        if self.setup_only {
            return;
        }
        let index = self.record.op_ms.len();
        let open = self.tr.begin_op(index as u32);
        let start = Instant::now();
        let result = f(self.tr, &mut self.record.digest);
        let ns = start.elapsed().as_nanos() as u64;
        self.tr.end_op(open);
        self.since_calib_ns += ns;
        self.record.op_ms.push(ns as f64 / 1e6);
        if let Err(why) = result {
            self.record.failures.push((index, why));
        }
    }

    /// Mark the most recent op failed: for outputs that can only be
    /// checked once a run of ops has completed.
    pub fn fail_last(&mut self, why: String) {
        let index = self.record.op_ms.len().saturating_sub(1);
        self.record.failures.push((index, why));
    }

    /// Finish the pass: takes the closing calibration sample.
    pub fn finish(mut self) -> PassRecord {
        assert!(self.in_ops, "a pass must run ops");
        if !self.setup_only {
            self.calibrate();
        }
        self.record
    }
}

/// What a run reports, from its passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Ops per pass.
    pub ops: usize,
    /// Passes measured.
    pub passes: usize,
    /// Ops per pass ÷ the sum of the op-aligned normalised latencies
    /// (each op's first quartile over passes).
    pub ops_per_s: f64,
    /// Median over op indices of the op-aligned normalised latency, ms.
    pub latency_ms_p50: f64,
    /// The tail percentile of the same, ms.
    pub latency_ms_tail: f64,
    /// Which percentile the tail is (see [`stats::tail_percentile`]).
    pub tail_percentile: f64,
    /// Median normalised set-up time, s.
    pub setup_s: f64,
    /// Set-ups timed: one a pass and the set-up-only ones.
    pub setups: usize,
    /// Median calibration sample over the run, ms.
    pub calib_ms_median: f64,
    /// p90 ÷ p10 of the calibration samples: how much the host drifted.
    pub calib_spread: f64,
    /// `ops_per_s` without normalisation.
    pub raw_ops_per_s: f64,
    /// `latency_ms_p50` without normalisation.
    pub raw_latency_ms_p50: f64,
    /// Max ÷ min of the normalised pass times.
    pub pass_spread: f64,
}

/// Reduce a run's passes, and the passes that only set up, to its
/// summary.
pub fn summarise(passes: &[PassRecord], setup_only: &[PassRecord]) -> Summary {
    assert!(!passes.is_empty(), "a run needs a pass");
    let ops = passes[0].op_ms.len();
    let per_op: Vec<Vec<f64>> = passes.iter().map(PassRecord::op_ms_normalised).collect();
    let raw_per_op: Vec<Vec<f64>> = passes.iter().map(|p| p.op_ms.clone()).collect();
    let pass_ms: Vec<f64> = per_op.iter().map(|ops| ops.iter().sum()).collect();

    let mut latency = stats::op_aligned_quartile(&per_op);
    let mut raw_latency = stats::op_aligned_quartile(&raw_per_op);
    let per_s = |latency: &[f64]| ops as f64 / (latency.iter().sum::<f64>() / 1e3);
    let (ops_per_s, raw_ops_per_s) = (per_s(&latency), per_s(&raw_latency));
    stats::sort(&mut latency);
    stats::sort(&mut raw_latency);
    // Fewer than 100 ops leave no percentile with ten samples beyond
    // it; report the p90 rather than nothing (miniature runs only).
    let tail_percentile = stats::tail_percentile(ops).unwrap_or(90.0);

    let setups: Vec<f64> = passes
        .iter()
        .chain(setup_only)
        .map(PassRecord::setup_s_normalised)
        .collect();
    let mut calib: Vec<f64> = passes
        .iter()
        .chain(setup_only)
        .flat_map(|p| p.calib.iter().map(|&(_, ms)| ms))
        .collect();
    stats::sort(&mut calib);
    let fastest = pass_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = pass_ms.iter().copied().fold(0.0, f64::max);

    Summary {
        ops,
        passes: passes.len(),
        ops_per_s,
        latency_ms_p50: stats::percentile(&latency, 50.0),
        latency_ms_tail: stats::percentile(&latency, tail_percentile),
        tail_percentile,
        setup_s: stats::median(&setups),
        setups: setups.len(),
        calib_ms_median: stats::percentile(&calib, 50.0),
        calib_spread: stats::percentile(&calib, 90.0) / stats::percentile(&calib, 10.0),
        raw_ops_per_s,
        raw_latency_ms_p50: stats::percentile(&raw_latency, 50.0),
        pass_spread: slowest / fastest,
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass whose host ran `slowdown` times slower than reference:
    /// 120 ops, a calibration sample every 40.
    fn synthetic(slowdown: f64) -> PassRecord {
        PassRecord {
            setup_s: 0.5 * slowdown,
            op_ms: (1..=120).map(|i| f64::from(i) * slowdown).collect(),
            calib: [0, 0, 40, 80, 120]
                .map(|at| (at, CALIB_REF_MS * slowdown))
                .to_vec(),
            ..PassRecord::default()
        }
    }

    #[test]
    fn normaliser_removes_an_injected_slow_pass() {
        let steady: Vec<PassRecord> = (0..5).map(|_| synthetic(1.0)).collect();
        let mut drifting = steady.clone();
        drifting[2] = synthetic(1.4);
        let (a, b) = (summarise(&steady, &[]), summarise(&drifting, &[]));
        assert!((a.ops_per_s - b.ops_per_s).abs() / a.ops_per_s < 1e-9);
        assert!((a.latency_ms_p50 - b.latency_ms_p50).abs() < 1e-9);
        assert!((a.latency_ms_tail - b.latency_ms_tail).abs() < 1e-9);
        assert!((a.setup_s - b.setup_s).abs() < 1e-9);
        assert!(
            (b.pass_spread - 1.0).abs() < 1e-9,
            "normalised passes agree"
        );
        assert!(b.calib_spread > 1.3, "the drift is visible in bench.*");
        // 120 ops of 1..=120 ms: 7260 ms a pass.
        assert!((a.ops_per_s - 120.0 / 7.26).abs() < 1e-9);
        assert_eq!(a.tail_percentile, 90.0);
        assert!((a.setup_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_wholly_slow_host_reads_as_reference_speed() {
        let slow: Vec<PassRecord> = (0..5).map(|_| synthetic(1.4)).collect();
        let s = summarise(&slow, &[]);
        assert!((s.ops_per_s - 120.0 / 7.26).abs() < 1e-9);
        assert!((s.raw_ops_per_s - 120.0 / 7.26 / 1.4).abs() < 1e-9);
        assert!((s.raw_latency_ms_p50 - 60.5 * 1.4).abs() < 1e-9);
    }

    /// The host slows down by 1.4 halfway through a pass: the samples
    /// next to each op follow it, the pass's median would not.
    #[test]
    fn ops_are_normalised_by_the_samples_next_to_them() {
        let slow_from = 60;
        let speed = |op: usize| if op < slow_from { 1.0 } else { 1.4 };
        let pass = PassRecord {
            setup_s: 0.5,
            op_ms: (0..120).map(|op| 2.0 * speed(op)).collect(),
            calib: [0, 0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120]
                .map(|at| (at, CALIB_REF_MS * speed(at)))
                .to_vec(),
            ..PassRecord::default()
        };
        let normalised = pass.op_ms_normalised();
        for op in (0..40).chain(80..120) {
            assert!((normalised[op] - 2.0).abs() < 1e-9, "op {op}");
        }
        // Within two samples of the change the mean mixes both speeds.
        assert!(normalised[40..80].iter().all(|ms| (1.6..2.4).contains(ms)));
        assert!((pass.setup_s_normalised() - 0.5).abs() < 1e-12);
    }

    /// Set-up-only passes add set-up samples and nothing else.
    #[test]
    fn setup_only_passes_count_towards_setup() {
        let passes: Vec<PassRecord> = (0..5).map(|_| synthetic(1.0)).collect();
        let extra: Vec<PassRecord> = (0..6)
            .map(|_| PassRecord {
                setup_s: 0.7,
                calib: vec![(0, CALIB_REF_MS); 2],
                ..PassRecord::default()
            })
            .collect();
        let (without, with) = (summarise(&passes, &[]), summarise(&passes, &extra));
        assert_eq!((without.setups, with.setups), (5, 11));
        assert!((with.setup_s - 0.7).abs() < 1e-12);
        assert_eq!(without.ops_per_s, with.ops_per_s);
    }

    #[test]
    fn pass_times_ops_and_counts_failures() {
        let tr = Tracer::new(false);
        let mut calibrator = Calibrator::default();
        let mut pass = Pass::new(&tr, &mut calibrator, false);
        let v = pass.setup("stage", |_| 41) + 1;
        pass.op(|_, d| {
            d.int(v);
            Ok(())
        });
        pass.op(|_, _| Err("boom".into()));
        let rec = pass.finish();
        assert_eq!(rec.op_ms.len(), 2);
        assert_eq!(rec.failures, vec![(1, "boom".to_string())]);
        let taken_at: Vec<usize> = rec.calib.iter().map(|&(at, _)| at).collect();
        assert_eq!(
            taken_at,
            [0, 0, 2],
            "before set-up, before the first op, after the last"
        );
        assert!(rec.factor() > 0.0);
        assert_ne!(rec.digest, Digest::default());
        assert!(peak_rss_mb() > 0.0);

        let mut pass = Pass::setup_only(&tr, &mut calibrator);
        pass.setup("stage", |_| ());
        pass.op(|_, _| unreachable!("a set-up-only pass skips its ops"));
        let rec = pass.finish();
        assert!(rec.op_ms.is_empty());
        assert_eq!(rec.calib.len(), 2);
        assert!(rec.setup_s_normalised() >= 0.0);
    }
}
