//! The benchmark's workloads and the inputs generated from a seed.
//!
//! Every workload has one model shape and derives from the seed argument
//! alone: the model weights and training corpus (`TinyConfig::seed`), and
//! one closed-loop request stream that every serving pass of the run
//! replays. Nothing else reaches the program.

use vp_runtime::serve::{Request, ServeConfig, WorkloadSpec};
use vp_runtime::TinyConfig;
use vp_schedule::block::PassTimes;
use vp_schedule::generators;
use vp_schedule::pass::{Schedule, VocabVariant};
use vp_tensor::nn::DEFAULT_BLOCK_TOKENS;

/// Pipeline depth of every workload (one device thread per core on the
/// two-core reference box).
pub const DEVICES: usize = 2;
/// Candidates each shard contributes to the sampling merge.
pub const TOP_K: usize = 4;
/// Prompt tokens fed per request per decode step.
pub const PREFILL_CHUNK: usize = 4;

/// Which path a workload's end-to-end figures come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `train_schedule` over the Vocab-2 1F1B schedule.
    Train,
    /// `ServeEngine` over a closed-loop offline batch.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Training at vocab 32768: the paper's regime, output layer dominant.
    TrainV32k,
    /// Serving at vocab 97: transformer decode and the driver dominate.
    ServeV97,
    /// Serving at vocab 32768: the decode S pass dominates.
    ServeV32k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::TrainV32k, Workload::ServeV97, Workload::ServeV32k];

    /// The name the `--workload` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainV32k => "train-v32k",
            Workload::ServeV97 => "serve-v97",
            Workload::ServeV32k => "serve-v32k",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Which path the end-to-end figures measure.
    pub fn kind(self) -> Kind {
        match self {
            Workload::TrainV32k => Kind::Train,
            Workload::ServeV97 | Workload::ServeV32k => Kind::Serve,
        }
    }

    /// The model, seeded from the run's seed.
    pub fn model(self, seed: u64) -> TinyConfig {
        match self {
            Workload::TrainV32k => TinyConfig {
                layers: 4,
                hidden: 64,
                seq_len: 32,
                vocab: 32768,
                microbatches: 8,
                seed,
                ..TinyConfig::default()
            },
            Workload::ServeV97 | Workload::ServeV32k => TinyConfig {
                layers: 8,
                hidden: 128,
                seq_len: 128,
                vocab: if self == Workload::ServeV97 {
                    97
                } else {
                    32768
                },
                microbatches: 4,
                seed,
                ..TinyConfig::default()
            },
        }
    }

    /// The training schedule at this model: Vocab-2 1F1B with the sharded
    /// input layer, one microbatch per `model.microbatches`.
    pub fn schedule(self, model: &TinyConfig) -> Schedule {
        generators::vocab_1f1b(
            DEVICES,
            model.microbatches as u32,
            VocabVariant::Alg2,
            PassTimes::default(),
            true,
        )
    }

    /// The serving engine configuration at this model. Its slot count is
    /// the microbatch count for the training workload's probe.
    pub fn serve_config(self, model: &TinyConfig) -> ServeConfig {
        ServeConfig {
            model: model.clone(),
            devices: DEVICES,
            max_batch: match self.kind() {
                Kind::Train => model.microbatches,
                Kind::Serve => 16,
            },
            top_k: TOP_K,
            kv_block: DEFAULT_BLOCK_TOKENS,
            kv_capacity_blocks: None,
            prefill_chunk: PREFILL_CHUNK,
            overlap: false,
        }
    }

    /// The closed-loop request stream of a run: every request queued at
    /// `t = 0`, lengths drawn from the workload's mix.
    pub fn stream(self, model: &TinyConfig, seed: u64) -> Vec<Request> {
        let (requests, prompt_len, output_len) = match self.kind() {
            // Fits the 32-token training context.
            Kind::Train => (16, (4, 16), (2, 8)),
            Kind::Serve => (32, (8, 48), (4, 16)),
        };
        WorkloadSpec {
            requests,
            rate: None,
            prompt_len,
            output_len,
            seed,
        }
        .generate(model.vocab, model.seq_len)
    }
}

/// One slot's work in a planned decode step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedEntry {
    /// Tokens fed (a prompt chunk, or the one previous sample).
    pub chunk: usize,
    /// Context position of the chunk's first token.
    pub pos0: usize,
    /// Whether the step's sample is kept (the chunk reaches the end of
    /// the prompt, or the request is generating).
    pub emits: bool,
}

/// The decode steps a closed-loop stream runs, derived exactly as the
/// serving driver admits and feeds it: FIFO admission into free slots in
/// slot order, chunked prefill, retirement after the last token. With
/// every arrival at zero and the exact-fit KV pool, nothing else affects
/// the plan, so its counts are exact.
pub fn plan_steps(
    requests: &[Request],
    slots: usize,
    prefill_chunk: usize,
) -> Vec<Vec<PlannedEntry>> {
    struct Slot {
        prompt: usize,
        output: usize,
        fed: usize,
        emitted: usize,
    }
    let mut pending = requests.iter();
    let mut active: Vec<Option<Slot>> = (0..slots).map(|_| None).collect();
    let mut steps = Vec::new();
    loop {
        for slot in active.iter_mut().filter(|s| s.is_none()) {
            if let Some(r) = pending.next() {
                *slot = Some(Slot {
                    prompt: r.prompt.len(),
                    output: r.output_len,
                    fed: 0,
                    emitted: 0,
                });
            }
        }
        if active.iter().all(Option::is_none) {
            return steps;
        }
        let mut entries = Vec::new();
        for slot in active.iter_mut() {
            let Some(a) = slot else { continue };
            let chunk = if a.fed < a.prompt {
                prefill_chunk.min(a.prompt - a.fed)
            } else {
                1
            };
            let pos0 = a.fed;
            a.fed += chunk;
            let emits = a.fed >= a.prompt;
            if emits {
                a.emitted += 1;
            }
            entries.push(PlannedEntry { chunk, pos0, emits });
            if a.emitted >= a.output {
                *slot = None;
            }
        }
        steps.push(entries);
    }
}

/// Share of computed S rows whose sample is kept: each request computes
/// one S row per step it is in a slot, `⌈P/chunk⌉ + O − 1` of them, and
/// keeps `O`.
pub fn s_rows_useful_ratio(steps: &[Vec<PlannedEntry>]) -> f64 {
    let rows: usize = steps.iter().map(Vec::len).sum();
    let kept = steps.iter().flatten().filter(|e| e.emits).count();
    kept as f64 / rows.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn request(id: usize, prompt: usize, output: usize) -> Request {
        Request {
            id,
            prompt: vec![1; prompt],
            output_len: output,
            arrival: Duration::ZERO,
        }
    }

    #[test]
    fn useful_ratio_matches_the_closed_form_on_a_hand_built_stream() {
        // P=8 at chunk 4: 2 prefill rows (the second emits) + 3 decode
        // rows = 5 rows, 4 kept. P=1, O=1: one row, kept. P=6, O=2:
        // ⌈6/4⌉ + 2 − 1 = 3 rows, 2 kept.
        let stream = [request(0, 8, 4), request(1, 1, 1), request(2, 6, 2)];
        let steps = plan_steps(&stream, 2, 4);
        let ratio = s_rows_useful_ratio(&steps);
        assert!((ratio - 7.0 / 9.0).abs() < 1e-12, "ratio {ratio}");
        assert_eq!(steps.iter().map(Vec::len).sum::<usize>(), 9);
    }

    #[test]
    fn plan_admits_fifo_into_freed_slots() {
        // One slot: requests run back to back, positions restart at zero.
        let stream = [request(0, 5, 2), request(1, 2, 1)];
        let steps = plan_steps(&stream, 1, 4);
        let flat: Vec<(usize, usize, bool)> = steps
            .iter()
            .map(|s| (s[0].chunk, s[0].pos0, s[0].emits))
            .collect();
        assert_eq!(
            flat,
            vec![(4, 0, false), (1, 4, true), (1, 5, true), (2, 0, true)]
        );
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let model = w.model(7);
            let a = w.stream(&model, 7);
            let b = w.stream(&model, 7);
            let c = w.stream(&model, 8);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.prompt == y.prompt && x.output_len == y.output_len));
            assert!(a.iter().zip(&c).any(|(x, y)| x.prompt != y.prompt));
            assert!(a
                .iter()
                .all(|r| r.prompt.len() + r.output_len <= model.seq_len));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
