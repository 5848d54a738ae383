//! Per-layer replay of a serving stream.
//!
//! The engine's device threads carry no spans, so the decode layers are
//! timed from here: the benchmark builds the same shards as the engine
//! through the public constructors, times each call at the workload's
//! shapes (recording a span per call on the benchmark's own trace), and
//! multiplies the times by the call counts of the closed-loop plan
//! ([`crate::workload::plan_steps`]), which fixes those counts exactly.

use std::hint::black_box;
use std::time::Instant;

use vp_check::check_decode;
use vp_collectives::{CollectiveGroup, P2pNetwork, Packet};
use vp_core::{merge_decode, InputShard, OutputShard};
use vp_model::partition::VocabPartition;
use vp_runtime::serve::{Request, ServeConfig};
use vp_runtime::FullModel;
use vp_schedule::generators::{decode_pipeline, decode_pipeline_overlap};
use vp_schedule::pass::Schedule;
use vp_tensor::nn::{KvBlockPool, KvCache};
use vp_tensor::{pool, Tensor};
use vp_trace::{TraceLog, Tracer, Track, NO_MICROBATCH};

use crate::metrics::Metrics;
use crate::stats::median;
use crate::workload::PlannedEntry;

/// Upper bound on the samples one call site takes.
const MAX_SAMPLES: usize = 400;
/// Time budget of one call site's sampling, seconds.
const SITE_BUDGET_S: f64 = 0.25;
/// Passes over the context window per chunk size.
const FD_PASSES: usize = 7;

/// Times `f` on `tracer` as a span named `name`; returns its result and
/// duration in seconds.
fn timed<T>(tracer: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = tracer.now_ns();
    let out = black_box(f());
    let t1 = tracer.now_ns();
    tracer.record(Track::Compute, name, NO_MICROBATCH, 0, t0, t1);
    (out, (t1 - t0) as f64 * 1e-9)
}

/// Median duration of `f`, sampled until [`MAX_SAMPLES`] calls or
/// [`SITE_BUDGET_S`] seconds (at least five calls).
fn sample<T>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    let mut s = Vec::new();
    while s.len() < 5 || (s.len() < MAX_SAMPLES && start.elapsed().as_secs_f64() < SITE_BUDGET_S) {
        s.push(timed(tracer, name, &mut f).1);
    }
    median(&s)
}

/// Per-call costs of the decode layers at one workload's shapes, seconds.
#[derive(Debug, Clone)]
pub struct DecodeCosts {
    /// `fd[c - 1][i]`: one block's `forward_decode` of a `c`-row chunk at
    /// context `i·c`.
    pub fd: Vec<Vec<f64>>,
    /// `KvCache::append` of one K/V row pair.
    pub kv_append: f64,
    /// `KvCache::release` of a cache filled to the context window.
    pub kv_release: f64,
    /// `OutputShard::s_pass_decode` of one row on shard 0.
    pub s_pass: f64,
    /// Its `matmul_nt` against the shard weight alone.
    pub gemv: f64,
    /// `merge_decode` of both shards' one-row payloads.
    pub merge: f64,
    /// `InputShard::forward_local` on shard 0, by chunk size.
    pub input_local: Vec<f64>,
    /// Two-rank `all_gather` of the decode payload, rank 0's view.
    pub all_gather: f64,
    /// One-way p2p send/receive of one hidden row.
    pub p2p_row: f64,
}

impl DecodeCosts {
    /// One block's `forward_decode` of a `chunk`-row input at context
    /// `pos`, interpolated between the measured positions.
    pub fn forward_decode(&self, chunk: usize, pos: usize) -> f64 {
        let row = &self.fd[chunk - 1];
        let x = pos as f64 / chunk as f64;
        let i = (x.floor() as usize).min(row.len() - 1);
        let j = (i + 1).min(row.len() - 1);
        let frac = (x - i as f64).clamp(0.0, 1.0);
        row[i] + (row[j] - row[i]) * frac
    }

    /// Replayed per-device cost of one planned decode step: every slot's
    /// input lookup, this device's share of the blocks, its S pass, the
    /// sampling all-gather and merge, and two p2p hops (activation to the
    /// next stage, final row back to every shard).
    pub fn step(&self, entries: &[PlannedEntry], layers_per_device: usize) -> f64 {
        entries
            .iter()
            .map(|e| {
                self.input_local[e.chunk - 1]
                    + layers_per_device as f64 * self.forward_decode(e.chunk, e.pos0)
                    + self.s_pass
                    + self.all_gather
                    + self.merge
                    + 2.0 * self.p2p_row
            })
            .sum()
    }
}

/// Shares of the replayed plan's total cost spent in S passes and in
/// block forwards: which layer dominates a step.
pub fn replay_shares(
    costs: &DecodeCosts,
    steps: &[Vec<PlannedEntry>],
    per_device: usize,
) -> (f64, f64) {
    let total: f64 = steps.iter().map(|s| costs.step(s, per_device)).sum();
    let rows = steps.iter().map(Vec::len).sum::<usize>() as f64;
    let blocks: f64 = steps
        .iter()
        .flatten()
        .map(|e| per_device as f64 * costs.forward_decode(e.chunk, e.pos0))
        .sum();
    (rows * costs.s_pass / total, blocks / total)
}

/// Times every decode layer at `config`'s shapes. Spans land on device 0
/// of `log` (device 1 records the collective partner).
pub fn decode_costs(
    config: &ServeConfig,
    full: &FullModel,
    stream: &[Request],
    log: &TraceLog,
) -> DecodeCosts {
    let tr = log.tracer(0);
    let model = &config.model;
    let h = model.hidden;
    let p = config.devices;
    let k = config.top_k;
    let partition = VocabPartition::new(model.vocab, p);
    let block = &full.blocks[0];
    let window = model.seq_len;
    let pool = KvBlockPool::bounded(h, config.kv_block, window.div_ceil(config.kv_block) * 2);

    let mut fd = Vec::new();
    let mut releases = Vec::new();
    for chunk in 1..=config.prefill_chunk {
        let x = full
            .pos_weight
            .slice_rows(0, chunk)
            .expect("chunk fits the window");
        let positions = window / chunk;
        let mut samples = vec![Vec::with_capacity(FD_PASSES); positions];
        for _ in 0..FD_PASSES {
            let mut cache = KvCache::with_pool(&pool);
            for s in samples.iter_mut() {
                let (out, dt) = timed(&tr, "TransformerBlock::forward_decode", || {
                    block.forward_decode(&x, &mut cache)
                });
                out.expect("decode fits the bounded pool");
                s.push(dt);
            }
            releases.push(timed(&tr, "KvCache::release", || cache.release()).1);
        }
        fd.push(samples.iter().map(|s| median(s)).collect());
    }

    let row = full.pos_weight.row(0).to_vec();
    let appends: Vec<f64> = (0..FD_PASSES)
        .map(|_| {
            let mut cache = KvCache::with_pool(&pool);
            let (_, dt) = timed(&tr, "KvCache::append", || {
                for _ in 0..window {
                    cache.append(&row, &row).expect("window fits the pool");
                }
            });
            cache.release();
            dt / window as f64
        })
        .collect();

    let shards: Vec<OutputShard> = (0..p)
        .map(|r| OutputShard::from_full(&full.output_weight, partition, r).expect("shard fits"))
        .collect();
    let x = Tensor::from_vec(1, h, row.clone()).expect("one hidden row");
    let s_pass = sample(&tr, "OutputShard::s_pass_decode", || {
        shards[0].s_pass_decode(&x, k)
    });
    let gemv = sample(&tr, "Tensor::matmul_nt", || {
        x.matmul_nt(shards[0].weight().value())
    });
    let payloads: Vec<Vec<f32>> = shards
        .iter()
        .map(|s| s.s_pass_decode(&x, k).expect("decode S pass").payload())
        .collect();
    let merge = sample(&tr, "merge_decode", || merge_decode(&payloads, 1, k));

    let input = InputShard::from_full(&full.input_weight, partition, 0).expect("shard fits");
    let tokens: Vec<usize> = stream
        .iter()
        .flat_map(|r| r.prompt.iter().copied())
        .collect();
    let input_local = (1..=config.prefill_chunk)
        .map(|c| {
            let mut at = 0;
            sample(&tr, "InputShard::forward_local", || {
                at = (at + c) % (tokens.len() - c);
                input.forward_local(&tokens[at..at + c])
            })
        })
        .collect();

    let all_gather = all_gather_cost(log, &payloads[0]);
    let p2p_row = p2p_row_cost(log, &row);
    DecodeCosts {
        fd,
        kv_append: median(&appends),
        kv_release: median(&releases),
        s_pass,
        gemv,
        merge,
        input_local,
        all_gather,
        p2p_row,
    }
}

/// Rank 0's median `all_gather` of `payload` between two threads.
fn all_gather_cost(log: &TraceLog, payload: &[f32]) -> f64 {
    let calls = MAX_SAMPLES;
    let times: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let joins: Vec<_> = CollectiveGroup::new(2)
            .into_iter()
            .map(|comm| {
                let tr = log.tracer(comm.rank());
                scope.spawn(move || {
                    (0..calls)
                        .map(|_| {
                            timed(&tr, "Collective::all_gather", || comm.all_gather(payload)).1
                        })
                        .collect()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("gather rank"))
            .collect()
    });
    median(&times[0])
}

/// Half the median round trip of one hidden row between two endpoints.
fn p2p_row_cost(log: &TraceLog, row: &[f32]) -> f64 {
    let calls = MAX_SAMPLES;
    let packet = |tag: u64| Packet::new(tag, 1, row.len(), row.to_vec());
    let mut endpoints = P2pNetwork::new(2);
    let mut echo = endpoints.pop().expect("rank 1");
    let mut origin = endpoints.pop().expect("rank 0");
    let tr = log.tracer(0);
    std::thread::scope(|scope| {
        let partner = scope.spawn(move || {
            for i in 0..calls as u64 {
                let got = echo.recv(0).expect("ping arrives");
                echo.send(0, packet(got.tag)).expect("pong sends");
                assert_eq!(got.tag, i, "pings arrive in order");
            }
        });
        let rtts: Vec<f64> = (0..calls as u64)
            .map(|i| {
                timed(&tr, "P2pEndpoint::send+recv", || {
                    origin.send(1, packet(i)).expect("ping sends");
                    origin.recv(1).expect("pong arrives")
                })
                .1
            })
            .collect();
        partner.join().expect("echo rank");
        median(&rtts) / 2.0
    })
}

/// Share of the plan's GEMM calls that take a threaded kernel path:
/// per slot and layer the Q/K/V/O projections, the per-head score and
/// context products over the causal horizon and the two MLP products;
/// per slot and shard the S-pass GEMV. The GEMM driver threads row chunks
/// or column panels once the work clears the pool's floor; the
/// column-panel split has no row floor, so the pool is asked with an
/// unbounded row count.
pub fn threaded_dispatch_share(config: &ServeConfig, steps: &[Vec<PlannedEntry>]) -> f64 {
    let m = &config.model;
    let (h, hd, f) = (m.hidden, m.hidden / m.heads, m.hidden * m.ffn_mult);
    let shard = m.vocab.div_ceil(config.devices);
    let (mut calls, mut threaded) = (0usize, 0usize);
    let mut count = |n_calls: usize, mm: usize, kk: usize, nn: usize| {
        calls += n_calls;
        if pool::would_parallelize(usize::MAX, mm * kk * nn) {
            threaded += n_calls;
        }
    };
    for e in steps.iter().flatten() {
        let c = e.chunk;
        count(4 * m.layers, c, h, h);
        count(m.layers, c, h, f);
        count(m.layers, c, f, h);
        for i in 0..c {
            let horizon = e.pos0 + i + 1;
            count(m.layers * m.heads, 1, hd, horizon);
            count(m.layers * m.heads, 1, horizon, hd);
        }
        count(config.devices, 1, h, shard);
    }
    threaded as f64 / calls.max(1) as f64
}

/// Wall time of the static checks an engine start runs: `check_decode`
/// over both decode families at every batch size, milliseconds.
pub fn check_decode_ms(config: &ServeConfig, tr: &Tracer) -> f64 {
    let p = config.devices;
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            timed(tr, "check_decode", || {
                (1..=config.max_batch as u32).all(|m| {
                    check_decode(&decode_pipeline(p, m)).is_clean()
                        && check_decode(&decode_pipeline_overlap(p, m)).is_clean()
                })
            })
            .1
        })
        .collect();
    median(&reps) * 1e3
}

/// Median `deps::validate` wall time of `schedule`, milliseconds.
pub fn validate_ms(schedule: &Schedule, tr: &Tracer) -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            timed(tr, "deps::validate", || {
                vp_schedule::deps::validate(schedule).is_ok()
            })
            .1
        })
        .collect();
    median(&reps) * 1e3
}

/// Median `FullModel::build` wall time, milliseconds; returns a model.
pub fn model_build(config: &vp_runtime::TinyConfig, tr: &Tracer) -> (FullModel, f64) {
    let mut built = Vec::new();
    let mut reps = Vec::new();
    for _ in 0..3 {
        let (model, dt) = timed(tr, "FullModel::build", || FullModel::build(config));
        built.push(model);
        reps.push(dt);
    }
    (built.pop().expect("three builds"), median(&reps) * 1e3)
}

/// Per-layer decode figures from the costs and the plan: per-call times,
/// the chunk-4 and one-row block costs averaged over the plan's context
/// positions, the useful S-row share, and the dispatch share. Returns the
/// replayed per-device cost of each generated token's step, seconds.
pub fn decode_metrics(
    config: &ServeConfig,
    costs: &DecodeCosts,
    steps: &[Vec<PlannedEntry>],
    m: &mut Metrics,
) -> Vec<f64> {
    let mean_fd = |chunk: usize| {
        let at: Vec<f64> = steps
            .iter()
            .flatten()
            .filter(|e| e.chunk == chunk)
            .map(|e| costs.forward_decode(chunk, e.pos0))
            .collect();
        at.iter().sum::<f64>() / at.len().max(1) as f64
    };
    m.set(
        "model.forward_decode_us.prefill",
        mean_fd(config.prefill_chunk) * 1e6,
    );
    m.set("model.forward_decode_us.decode", mean_fd(1) * 1e6);
    m.set("tensor.kv_append_us", costs.kv_append * 1e6);
    m.set("tensor.kv_release_us", costs.kv_release * 1e6);
    m.set("core.s_pass_decode_us", costs.s_pass * 1e6);
    m.set("tensor.gemv_us", costs.gemv * 1e6);
    m.set("core.topk_us", (costs.s_pass - costs.gemv) * 1e6);
    m.set("core.merge_decode_us", costs.merge * 1e6);
    m.set(
        "core.input_forward_local_us",
        costs.input_local[config.prefill_chunk - 1] * 1e6,
    );
    m.set("collectives.all_gather_us", costs.all_gather * 1e6);
    m.set("collectives.p2p_row_us", costs.p2p_row * 1e6);
    m.set(
        "tensor.threaded_dispatch_share",
        threaded_dispatch_share(config, steps),
    );
    m.set(
        "core.s_rows_useful_ratio",
        crate::workload::s_rows_useful_ratio(steps),
    );
    let per_device = config.model.layers / config.devices;
    steps
        .iter()
        .flat_map(|s| {
            let cost = costs.step(s, per_device);
            std::iter::repeat_n(cost, s.iter().filter(|e| e.emits).count())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> DecodeCosts {
        DecodeCosts {
            fd: vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0]],
            kv_append: 0.0,
            kv_release: 0.0,
            s_pass: 100.0,
            gemv: 60.0,
            merge: 1000.0,
            input_local: vec![0.5, 0.25],
            all_gather: 10000.0,
            p2p_row: 100000.0,
        }
    }

    #[test]
    fn forward_decode_interpolates_between_measured_positions() {
        let c = costs();
        assert_eq!(c.forward_decode(1, 0), 1.0);
        assert_eq!(c.forward_decode(1, 2), 3.0);
        assert_eq!(c.forward_decode(2, 1), 15.0);
        // Past the last measured position the last cost holds.
        assert_eq!(c.forward_decode(1, 9), 3.0);
    }

    #[test]
    fn step_cost_counts_each_call_once_per_slot() {
        let c = costs();
        let entries = [
            PlannedEntry {
                chunk: 2,
                pos0: 0,
                emits: false,
            },
            PlannedEntry {
                chunk: 1,
                pos0: 1,
                emits: true,
            },
        ];
        // Two blocks per device.
        let expect =
            (0.25 + 2.0 * 10.0) + (0.5 + 2.0 * 2.0) + 2.0 * (100.0 + 10000.0 + 1000.0 + 200000.0);
        assert_eq!(c.step(&entries, 2), expect);
    }
}
