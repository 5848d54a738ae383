//! The training path: `train_schedule` for end-to-end figures,
//! `train_schedule_traced` for per-pass figures, `train_reference` for the
//! correctness check.

use std::time::{Duration, Instant};

use vp_runtime::{DataSource, SyntheticCorpus, TinyConfig, TraceLog, TrainReport};
use vp_schedule::pass::Schedule;
use vp_tensor::alloc;

use crate::metrics::Metrics;
use crate::stats::{median, percentile, Percentile};

/// Iterations per `train_schedule` call. The first of each call is its
/// warm-up; the rest are the steady iterations `iter_ms_p50` reports.
pub const ITERS_PER_CALL: usize = 16;
/// Leading iterations compared against the single-device reference.
pub const CHECK_ITERS: usize = 3;

/// The training corpus of a model: the synthetic stream seeded like the
/// model, exactly what `train_reference` trains on.
pub fn corpus(model: &TinyConfig) -> DataSource {
    DataSource::Synthetic(SyntheticCorpus::new(model.vocab, model.seq_len, model.seed))
}

/// What the timed calls of one run recorded.
#[derive(Debug, Default)]
pub struct TrainSamples {
    /// Per call: call wall time minus the summed iteration walls, seconds.
    pub setup_s: Vec<f64>,
    /// Per call: trained tokens over the call's wall time.
    pub tokens_per_s: Vec<f64>,
    /// Steady iteration walls, seconds.
    pub steady_iter_s: Vec<f64>,
    /// Iterations attempted.
    pub attempted: u64,
    /// Iterations errored, non-finite, or not bitwise equal to the first
    /// call's trajectory.
    pub failed: u64,
    /// The first call's loss trajectory.
    pub losses: Vec<f64>,
    /// The last traced call's report and trace (traced runs only).
    pub traced: Option<(TrainReport, TraceLog)>,
}

impl TrainSamples {
    /// Per-token time of each steady iteration, milliseconds.
    fn per_token_ms(&self, model: &TinyConfig) -> Vec<f64> {
        let tokens = (model.microbatches * model.seq_len) as f64;
        self.steady_iter_s
            .iter()
            .map(|s| s * 1e3 / tokens)
            .collect()
    }

    /// The end-to-end figures of the run (all but `peak_rss_mb`).
    pub fn end_to_end(&self, model: &TinyConfig, m: &mut Metrics) -> Option<Percentile> {
        m.set("setup_s", median(&self.setup_s));
        m.set("tokens_per_s", median(&self.tokens_per_s));
        let iter_ms: Vec<f64> = self.steady_iter_s.iter().map(|s| s * 1e3).collect();
        m.set("iter_ms_p50", median(&iter_ms));
        let per_token = self.per_token_ms(model);
        m.set("tpot_ms_p50", median(&per_token));
        let p90 = percentile(&per_token, 0.9);
        m.set("tpot_ms_p90", p90.map_or(f64::NAN, |p| p.value));
        p90
    }
}

/// Runs `train_schedule` (or its traced twin) in calls of
/// [`ITERS_PER_CALL`] iterations until `budget` would be exceeded, after
/// one untimed warm-up call.
pub fn measure(
    model: &TinyConfig,
    schedule: &Schedule,
    budget: Duration,
    traced: bool,
) -> TrainSamples {
    let data = corpus(model);
    let mut s = TrainSamples::default();
    // Warm-up: fills the buffer arena and the kernel pool.
    if vp_runtime::train_schedule(model, schedule, 1, &data).is_err() {
        s.attempted = 1;
        s.failed = 1;
        return s;
    }
    let tokens = (ITERS_PER_CALL * model.microbatches * model.seq_len) as f64;
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while s.attempted == 0 || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        let result = if traced {
            vp_runtime::train_schedule_traced(model, schedule, ITERS_PER_CALL, &data)
                .map(|(r, log)| (r, Some(log)))
        } else {
            vp_runtime::train_schedule(model, schedule, ITERS_PER_CALL, &data).map(|r| (r, None))
        };
        last = t0.elapsed();
        s.attempted += ITERS_PER_CALL as u64;
        let Ok((report, log)) = result else {
            s.failed += ITERS_PER_CALL as u64;
            break;
        };
        let wall = last.as_secs_f64();
        s.setup_s.push(wall - report.iter_wall.iter().sum::<f64>());
        s.tokens_per_s.push(tokens / wall);
        s.steady_iter_s.extend_from_slice(&report.iter_wall[1..]);
        if s.losses.is_empty() {
            s.losses.clone_from(&report.losses);
        }
        s.failed += report
            .losses
            .iter()
            .zip(&s.losses)
            .filter(|(l, first)| !l.is_finite() || l.to_bits() != first.to_bits())
            .count() as u64;
        if let Some(log) = log {
            s.traced = Some((report, log));
        }
    }
    s
}

/// Leading iterations of `losses` that differ from the single-device
/// reference by more than `1e-3·(1 + |r|)`; every checked iteration
/// counts as failed when the reference itself errors.
pub fn reference_mismatches(model: &TinyConfig, losses: &[f64]) -> u64 {
    let n = CHECK_ITERS.min(losses.len());
    match vp_runtime::train_reference(model, n) {
        Ok(reference) => losses
            .iter()
            .zip(&reference)
            .filter(|(l, r)| {
                !l.is_finite() || !r.is_finite() || (*l - *r).abs() > 1e-3 * (1.0 + r.abs())
            })
            .count() as u64,
        Err(_) => n as u64,
    }
}

/// Per-pass figures of one traced iteration: the trace's per-kind
/// totals (summed over devices), its wait and stream tracks, and the
/// schedule figures of the report. Returns the closure ratio of the
/// per-pass sums against `ExecReport.busy` and its base in ms.
pub fn pass_metrics(report: &TrainReport, log: &TraceLog, m: &mut Metrics) -> (f64, f64) {
    let tl = log.report();
    let ms = |name: &str| {
        tl.time_by_name
            .get(name)
            .map_or(0.0, |k| k.total_ns as f64 / 1e6)
    };
    m.set("core.S_ms", ms("S"));
    m.set("core.T_ms", ms("T"));
    m.set("core.InputF_ms", ms("InputF"));
    m.set("core.InputB_ms", ms("InputB"));
    m.set("model.F_ms", ms("F"));
    m.set("model.B_ms", ms("B"));
    let wait: u64 = tl.devices.iter().map(|d| d.wait_ns).sum();
    let stream: u64 = tl.devices.iter().map(|d| d.stream_ns).sum();
    m.set("collectives.p2p_wait_ms", wait as f64 / 1e6);
    m.set("collectives.stream_ms", stream as f64 / 1e6);
    m.set("collectives.comm_overlap", tl.mean_comm_overlap());
    let exec = &report.exec;
    let busy_mean = exec.busy.iter().sum::<f64>() / exec.busy.len() as f64;
    let busy_max = exec.busy.iter().copied().fold(0.0, f64::max);
    m.set("schedule.bubble_frac", exec.mean_bubble_fraction());
    m.set("schedule.stage_imbalance", busy_max / busy_mean);
    let peak = exec
        .peak_resident_microbatches
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    m.set("schedule.peak_resident_microbatches_max", peak as f64);
    let pass_sum: u64 = tl.time_by_name.values().map(|k| k.total_ns).sum();
    let busy_ms = exec.busy.iter().sum::<f64>() * 1e3;
    (pass_sum as f64 / 1e6 / busy_ms, busy_ms)
}

/// Arena counters over one steady call on a warmed arena: reuse ratio and
/// fresh allocations per iteration.
pub fn arena_metrics(model: &TinyConfig, schedule: &Schedule, m: &mut Metrics) -> bool {
    let data = corpus(model);
    let iters = 2;
    if vp_runtime::train_schedule(model, schedule, 1, &data).is_err() {
        return false;
    }
    alloc::reset_counters();
    let ok = vp_runtime::train_schedule(model, schedule, iters, &data).is_ok();
    let stats = alloc::stats();
    m.set("tensor.arena_reuse_ratio", stats.reuse_ratio());
    m.set(
        "tensor.arena_fresh_per_iter",
        stats.fresh as f64 / iters as f64,
    );
    ok
}
