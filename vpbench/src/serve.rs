//! The serving path: `ServeEngine::start`, `serve` and `shutdown` over
//! one closed-loop stream, checked against `reference_decode`.

use std::time::{Duration, Instant};

use vp_runtime::serve::{Request, ServeConfig, ServeEngine, ServeRun};
use vp_tensor::init::seeded_rng;
use vp_tensor::rng::Rng;
use vp_trace::{Tracer, Track, NO_MICROBATCH};

use crate::metrics::Metrics;
use crate::stats::{median, percentile, Percentile};

/// Requests of the stream re-decoded by the single-device reference.
pub const CHECK_REQUESTS: usize = 4;
/// Requests the untimed warm-up pass serves.
const WARM_REQUESTS: usize = 4;

/// What the timed passes of one run recorded.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Per pass: `ServeEngine::start` wall time, seconds.
    pub setup_s: Vec<f64>,
    /// Per pass: generated tokens over the `serve` wall time.
    pub tokens_per_s: Vec<f64>,
    /// Per pass: `serve` wall time over decode steps, seconds.
    pub step_s: Vec<f64>,
    /// Per pass: the median and p90 of `ServeRun.latency` (the wall time
    /// of the step that produced each generated token), milliseconds.
    pub tpot_p50_ms: Vec<f64>,
    /// See `tpot_p50_ms`.
    pub tpot_p90_ms: Vec<Percentile>,
    /// Requests attempted over all passes.
    pub attempted: u64,
    /// Requests dropped, errored, or decoded differently from the first
    /// pass.
    pub failed: u64,
    /// The first pass's tokens, indexed by request id.
    pub tokens: Vec<Option<Vec<usize>>>,
}

impl ServeSamples {
    /// The end-to-end figures of the run (all but `peak_rss_mb`): medians
    /// over passes, so a stretch of slow passes moves them only once it is
    /// half the run. Returns the pass p90 with the fewest samples beyond it.
    pub fn end_to_end(&self, m: &mut Metrics) -> Option<Percentile> {
        let step_ms: Vec<f64> = self.step_s.iter().map(|s| s * 1e3).collect();
        let p90: Vec<f64> = self.tpot_p90_ms.iter().map(|p| p.value).collect();
        m.set("setup_s", median(&self.setup_s));
        m.set("tokens_per_s", median(&self.tokens_per_s));
        m.set("iter_ms_p50", median(&step_ms));
        m.set("tpot_ms_p50", median(&self.tpot_p50_ms));
        m.set("tpot_ms_p90", median(&p90));
        self.tpot_p90_ms.iter().copied().min_by_key(|p| p.tail)
    }

    /// Records one pass: counts dropped requests and token streams that
    /// differ from the first pass's.
    fn record(&mut self, stream: &[Request], run: ServeRun) {
        self.attempted += stream.len() as u64;
        let tokens = tokens_by_id(&run, stream.len());
        if self.tokens.is_empty() {
            self.tokens.clone_from(&tokens);
        }
        self.failed += differing(&tokens, &self.tokens);
        self.tokens_per_s.push(run.tokens_per_sec());
        self.step_s
            .push(run.wall.as_secs_f64() / run.steps.max(1) as f64);
        let ms: Vec<f64> = run.latency.iter().map(|s| s * 1e3).collect();
        self.tpot_p50_ms.push(median(&ms));
        self.tpot_p90_ms.extend(percentile(&ms, 0.9));
    }
}

/// Each request's generated tokens, indexed by id; `None` when the run
/// dropped it.
pub fn tokens_by_id(run: &ServeRun, requests: usize) -> Vec<Option<Vec<usize>>> {
    let mut tokens = vec![None; requests];
    for c in &run.completions {
        if let Some(slot) = tokens.get_mut(c.id) {
            *slot = Some(c.tokens.clone());
        }
    }
    tokens
}

/// Requests dropped from `a` or decoded differently from `b`.
pub fn differing(a: &[Option<Vec<usize>>], b: &[Option<Vec<usize>>]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_none() || x != y)
        .count() as u64
}

/// Times `f` as a span named `name` on `tracer` (a no-op when it is off).
fn spanned<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = tracer.span(Track::Compute, name, NO_MICROBATCH, 0);
    f()
}

/// Serves `stream` in passes — start an engine, serve every request,
/// shut it down — until `budget` would be exceeded, after one untimed
/// warm-up pass over the stream's first requests. With an armed `tracer`
/// each call is recorded as a span.
pub fn measure(
    config: &ServeConfig,
    stream: &[Request],
    budget: Duration,
    tracer: &Tracer,
) -> ServeSamples {
    let mut s = ServeSamples::default();
    if let Ok(mut engine) = ServeEngine::start(config.clone()) {
        engine.serve(&stream[..WARM_REQUESTS.min(stream.len())]);
        engine.shutdown();
    }
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while s.attempted == 0 || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        let engine = spanned(tracer, "ServeEngine::start", || {
            ServeEngine::start(config.clone())
        });
        let setup = t0.elapsed();
        let Ok(mut engine) = engine else {
            s.attempted += stream.len() as u64;
            s.failed += stream.len() as u64;
            break;
        };
        let run = spanned(tracer, "ServeEngine::serve", || engine.serve(stream));
        spanned(tracer, "ServeEngine::shutdown", || engine.shutdown());
        last = t0.elapsed();
        s.setup_s.push(setup.as_secs_f64());
        s.record(stream, run);
    }
    s
}

/// Indices of the requests the reference re-decodes: a seeded sample
/// without repeats.
pub fn check_sample(requests: usize, seed: u64) -> Vec<usize> {
    let mut rng = seeded_rng(seed ^ 0x5eed_c4ec);
    let mut ids: Vec<usize> = (0..requests).collect();
    for i in 0..CHECK_REQUESTS.min(requests) {
        let j = rng.gen_range(i..requests);
        ids.swap(i, j);
    }
    ids.truncate(CHECK_REQUESTS.min(requests));
    ids
}

/// Sampled requests whose served tokens are not bitwise equal to
/// `reference_decode`'s greedy stream.
pub fn reference_mismatches(
    config: &ServeConfig,
    stream: &[Request],
    served: &[Option<Vec<usize>>],
    seed: u64,
) -> u64 {
    check_sample(stream.len(), seed)
        .into_iter()
        .filter(|&i| {
            let r = &stream[i];
            match vp_runtime::reference_decode(&config.model, &r.prompt, r.output_len) {
                Ok(expected) => served[i].as_ref() != Some(&expected),
                Err(_) => true,
            }
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_sample_is_seeded_and_distinct() {
        let a = check_sample(32, 9);
        assert_eq!(a, check_sample(32, 9));
        assert_eq!(a.len(), CHECK_REQUESTS);
        let mut d = a.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), a.len());
        assert!(a.iter().all(|&i| i < 32));
        assert_eq!(check_sample(2, 9).len(), 2);
    }
}
