//! The forward-only decode engine: persistent per-device threads walking
//! validated decode pass lists, with continuous batching driven from a
//! central admission loop.
//!
//! Each "device" thread hosts its pipeline stage's transformer blocks
//! (with one paged, arena-backed [`KvCache`] per slot per hosted layer,
//! all drawing blocks from a single bounded per-device [`KvBlockPool`]),
//! its vocabulary shard of the input embedding (Appendix C) and its shard
//! of the output layer. A decode step walks the forward-only §4.2 pass
//! structure for the active slots:
//!
//! * `InputF k` — every shard that owns at least one token of the slot's
//!   chunk embeds its owned tokens (packed, in chunk order) and hands the
//!   rows to stage 0 (the `TAG_INPART` fan-in training uses);
//! * `F k` — stage 0 reassembles the chunk from the per-owner packets,
//!   adds the positional rows, every stage runs its blocks through
//!   [`TransformerBlock::forward_decode`] against the slot's KV caches
//!   and forwards the activation (`TAG_ACT`); the last stage broadcasts
//!   the final token's hidden row to every shard (`C0`);
//! * `S k` — every shard computes its sharded logits, local softmax stats
//!   and local top-k (Algorithm 2's single-barrier decode). Inline mode
//!   completes the merge immediately ([`OutputShard::barrier_decode`]);
//!   overlap mode only *submits* the `all_gather` to the device's
//!   [`CommStream`] and keeps computing (§6.1's stream trick);
//! * `T k` — overlap mode only: joins the stream job for microbatch `k`
//!   and runs the deterministic merge ([`merge_decode`]) on the gathered
//!   payloads. The merge is bitwise identical to the inline path — only
//!   *when* the barrier resolves moves.
//!
//! **Chunked prefill**: prompts are admitted in chunks of at most
//! [`ServeConfig::prefill_chunk`] tokens per step, so a long prompt never
//! monopolises a whole decode step and tail latency of concurrently
//! decoding requests stays bounded. Mid-prefill samples are computed (the
//! schedule shape is batch-size-only) and discarded by the driver.
//!
//! **Admission backpressure**: the driver reserves KV blocks for a
//! request's whole context before admitting it and releases them at
//! retirement; a request that does not fit waits in the queue instead of
//! exhausting a device's [`KvBlockPool`] mid-flight.
//!
//! The pass lists are the same ones [`vp_check::check_decode`] verifies at
//! engine start, so the executed communication pattern is statically known
//! deadlock- and race-free before the first request arrives.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vp_collectives::{Collective, CollectiveGroup, CommStream, JobHandle, P2pEndpoint, P2pNetwork};
use vp_core::{merge_decode, InputShard, OutputShard, TokenChoice};
use vp_model::block::TransformerBlock;
use vp_model::partition::VocabPartition;
use vp_schedule::generators::{decode_pipeline, decode_pipeline_overlap};
use vp_schedule::pass::PassKind;
use vp_schedule::Schedule;
use vp_tensor::nn::{KvBlockPool, KvCache, DEFAULT_BLOCK_TOKENS};
use vp_tensor::{Result, Tensor, TensorError};

use crate::comm::{stage_tag, to_packet, TAG_ACT, TAG_C0, TAG_INPART};
use crate::model::{FullModel, TinyConfig};
use crate::serve::workload::Request;

/// Configuration of the serving engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The model to serve. `seq_len` bounds the context window
    /// (prompt + generated tokens per request).
    pub model: TinyConfig,
    /// Pipeline devices (must divide `model.layers`).
    pub devices: usize,
    /// Continuous-batching slot count: requests concurrently in flight.
    pub max_batch: usize,
    /// Candidates each shard contributes to the sampling merge.
    pub top_k: usize,
    /// Tokens per paged-KV block ([`DEFAULT_BLOCK_TOKENS`] by default).
    pub kv_block: usize,
    /// Per-device KV block-pool capacity. `None` derives the exact-fit
    /// capacity `max_batch · layers_per_device · ⌈seq_len / kv_block⌉`,
    /// which can never reject a full batch; a smaller explicit value
    /// turns into admission backpressure, never a mid-flight panic.
    pub kv_capacity_blocks: Option<usize>,
    /// Maximum prompt tokens fed per request per decode step during
    /// prefill (chunked prefill; decode steps always feed one token).
    pub prefill_chunk: usize,
    /// Overlap the sampling `all_gather` with transformer compute by
    /// splitting each step's S pass from its merge (T pass) and running
    /// the collective on a per-device communication stream.
    pub overlap: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            model: TinyConfig::default(),
            devices: 2,
            max_batch: 4,
            top_k: 4,
            kv_block: DEFAULT_BLOCK_TOKENS,
            kv_capacity_blocks: None,
            prefill_chunk: 4,
            overlap: false,
        }
    }
}

/// One slot's work in a decode step.
#[derive(Debug, Clone)]
struct StepSlot {
    /// Slot index (selects the KV caches).
    slot: usize,
    /// Tokens fed at this step: a prompt chunk during prefill (at most
    /// `prefill_chunk` of them), the single previous sample during
    /// generation. Never empty.
    tokens: Vec<usize>,
    /// Position of `tokens[0]` in the slot's context; the chunk occupies
    /// consecutive positions from there.
    pos0: usize,
}

/// One decode step's plan, broadcast to every device thread.
#[derive(Debug, Clone)]
struct StepPlan {
    /// Slots whose caches must be released before the step runs (their
    /// request retired after the previous step).
    retire: Vec<usize>,
    /// Active entries; index = the schedule's microbatch id.
    entries: Vec<StepSlot>,
}

enum Cmd {
    Step(StepPlan),
    Stop,
}

/// A finished request: the tokens it generated and their log-probs.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's id.
    pub id: usize,
    /// Greedy-decoded tokens, `output_len` of them.
    pub tokens: Vec<usize>,
    /// Per-token log-probabilities under the global softmax.
    pub logprobs: Vec<f32>,
}

/// Measurements of one [`ServeEngine::serve`] run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Every finished request, in completion order.
    pub completions: Vec<Completion>,
    /// Decode steps executed.
    pub steps: usize,
    /// Wall time of the whole run.
    pub wall: Duration,
    /// Wall time of the decode step that produced each generated token,
    /// in seconds (the per-token latency distribution).
    pub latency: Vec<f64>,
    /// Sum over steps of `active slots / max_batch`; divide by `steps`
    /// for mean batch occupancy.
    pub occupancy_sum: f64,
}

impl ServeRun {
    /// Total generated tokens.
    pub fn tokens(&self) -> usize {
        self.completions.iter().map(|c| c.tokens.len()).sum()
    }

    /// Generated tokens per wall-clock second.
    pub fn tokens_per_sec(&self) -> f64 {
        self.tokens() as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Mean batch occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.occupancy_sum / self.steps as f64
        }
    }

    /// The `q`-quantile (0..=1) of the per-token latency in seconds, by
    /// the nearest-rank method; `0.0` when no tokens were generated.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.latency.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latency.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// A request occupying a slot.
struct Active {
    id: usize,
    prompt: Vec<usize>,
    output_len: usize,
    /// Tokens fed so far (prompt progress + generated count).
    fed: usize,
    tokens: Vec<usize>,
    logprobs: Vec<f32>,
    /// Per-device KV blocks reserved at admission, released at retire.
    reserved_blocks: usize,
}

impl Active {
    /// The token chunk to feed next and the position of its first token.
    fn next_feed(&self, prefill_chunk: usize) -> (Vec<usize>, usize) {
        if self.fed < self.prompt.len() {
            let c = prefill_chunk.min(self.prompt.len() - self.fed);
            (self.prompt[self.fed..self.fed + c].to_vec(), self.fed)
        } else {
            let tok = *self.tokens.last().expect("past prefill ⇒ generated ≥ 1");
            (vec![tok], self.fed)
        }
    }

    fn done(&self) -> bool {
        self.tokens.len() >= self.output_len
    }
}

/// The serving engine: `p` persistent device threads plus this driver.
pub struct ServeEngine {
    config: ServeConfig,
    /// Per-device KV block-pool capacity (all devices host the same layer
    /// count, so one scalar models every pool).
    per_device_blocks: usize,
    cmds: Vec<Sender<Cmd>>,
    results: Receiver<Vec<TokenChoice>>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Builds the sharded model, statically verifies the decode pass list
    /// for every possible batch size (both the inline and the overlapped
    /// family), and spawns the device threads.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on an invalid
    /// configuration (zero devices/slots/chunk/block sizes, indivisible
    /// layers, a decode schedule that fails [`vp_check::check_decode`]).
    ///
    /// # Panics
    ///
    /// Panics if a device thread dies (a bug, not an input condition).
    pub fn start(config: ServeConfig) -> Result<Self> {
        let p = config.devices;
        if p == 0 || config.max_batch == 0 || config.top_k == 0 {
            return Err(TensorError::InvalidArgument(
                "devices, max_batch and top_k must all be nonzero".into(),
            ));
        }
        if config.kv_block == 0 || config.prefill_chunk == 0 {
            return Err(TensorError::InvalidArgument(
                "kv_block and prefill_chunk must both be nonzero".into(),
            ));
        }
        if !config.model.layers.is_multiple_of(p) {
            return Err(TensorError::InvalidArgument(format!(
                "{} layers do not divide over {p} devices",
                config.model.layers
            )));
        }
        // Every batch size the driver can submit must be statically clean,
        // for both pass-list families the engine can walk.
        for m in 1..=config.max_batch {
            let families: [(&str, Schedule); 2] = [
                ("decode-pipeline", decode_pipeline(p, m as u32)),
                (
                    "decode-pipeline-overlap",
                    decode_pipeline_overlap(p, m as u32),
                ),
            ];
            for (name, sched) in families {
                let report = vp_check::check_decode(&sched);
                if !report.is_clean() {
                    return Err(TensorError::InvalidArgument(format!(
                        "{name} schedule (p={p}, m={m}) failed vp-check: {:?}",
                        report.codes()
                    )));
                }
            }
        }
        let layers_per_dev = config.model.layers / p;
        let per_device_blocks = config.kv_capacity_blocks.unwrap_or(
            config.max_batch * layers_per_dev * config.model.seq_len.div_ceil(config.kv_block),
        );
        if per_device_blocks == 0 {
            return Err(TensorError::InvalidArgument(
                "kv_capacity_blocks must be nonzero".into(),
            ));
        }
        let full = FullModel::build(&config.model);
        let partition = VocabPartition::new(config.model.vocab, p);
        let endpoints = P2pNetwork::new(p);
        let comms = CollectiveGroup::new(p);
        let (res_tx, res_rx) = channel();
        let mut cmds = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (endpoint, comm) in endpoints.into_iter().zip(comms) {
            let rank = comm.rank();
            let (tx, rx) = channel();
            cmds.push(tx);
            let (b0, b1) = full.stage_blocks(rank, p);
            let pool =
                KvBlockPool::bounded(config.model.hidden, config.kv_block, per_device_blocks);
            let device = DeviceState {
                rank,
                world: p,
                blocks: full.blocks[b0..b1].to_vec(),
                input: InputShard::from_full(&full.input_weight, partition, rank)
                    .expect("partition matches the weight"),
                output: OutputShard::from_full(&full.output_weight, partition, rank)
                    .expect("partition matches the weight"),
                pos: (rank == 0).then(|| full.pos_weight.clone()),
                partition,
                kv: (0..config.max_batch)
                    .map(|_| (0..b1 - b0).map(|_| KvCache::with_pool(&pool)).collect())
                    .collect(),
                top_k: config.top_k,
                overlap: config.overlap,
                endpoint,
                comm: Arc::new(comm),
                stream: CommStream::new(),
            };
            let res_tx = res_tx.clone();
            handles.push(std::thread::spawn(move || device.run(&rx, &res_tx)));
        }
        Ok(ServeEngine {
            config,
            per_device_blocks,
            cmds,
            results: res_rx,
            handles,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Per-device KV blocks a request reserves for its whole lifetime
    /// (context rounded up to blocks, once per hosted layer).
    fn block_need(&self, prompt_len: usize, output_len: usize) -> usize {
        let layers_per_dev = self.config.model.layers / self.config.devices;
        (prompt_len + output_len).div_ceil(self.config.kv_block) * layers_per_dev
    }

    /// Serves a request stream with continuous batching and returns the
    /// run's completions and measurements.
    ///
    /// Requests are admitted into free slots once their arrival time has
    /// passed *and* their whole context fits the unreserved remainder of
    /// the per-device KV block pools (open-loop; closed-loop streams have
    /// all arrivals at zero and admission is limited only by free slots
    /// and free blocks). Prefill feeds prompt chunks of at most
    /// `prefill_chunk` tokens through the same decode path, interleaved
    /// with single-token decode steps of the other slots; retired
    /// requests release their KV blocks back to the pool (and the pool's
    /// backing arena) before the next step touches the slot.
    ///
    /// # Panics
    ///
    /// Panics if a request's context exceeds the model's `seq_len` or the
    /// KV pool capacity, or if a device thread died.
    pub fn serve(&mut self, requests: &[Request]) -> ServeRun {
        let seq_len = self.config.model.seq_len;
        for r in requests {
            assert!(
                r.prompt.len() + r.output_len <= seq_len,
                "request {} needs {} positions, model has {seq_len}",
                r.id,
                r.prompt.len() + r.output_len
            );
            assert!(!r.prompt.is_empty(), "request {} has an empty prompt", r.id);
            let need = self.block_need(r.prompt.len(), r.output_len);
            assert!(
                need <= self.per_device_blocks,
                "request {} needs {need} KV blocks per device, pool holds {}",
                r.id,
                self.per_device_blocks
            );
        }
        let prefill_chunk = self.config.prefill_chunk;
        let mut pending: VecDeque<&Request> = requests.iter().collect();
        let mut slots: Vec<Option<Active>> = (0..self.config.max_batch).map(|_| None).collect();
        let mut retire: Vec<usize> = Vec::new();
        // KV blocks currently reserved per device by in-flight requests.
        let mut reserved = 0usize;
        let mut run = ServeRun {
            completions: Vec::new(),
            steps: 0,
            wall: Duration::ZERO,
            latency: Vec::new(),
            occupancy_sum: 0.0,
        };
        let start = Instant::now();
        loop {
            // Admission: next arrived-and-fitting request into each free
            // slot (FIFO — a too-big head of queue waits rather than
            // being overtaken, so admission cannot starve it).
            let now = start.elapsed();
            for slot in slots.iter_mut() {
                if slot.is_none() {
                    let Some(r) = pending.front() else { continue };
                    if r.arrival > now {
                        continue;
                    }
                    let need = self.block_need(r.prompt.len(), r.output_len);
                    if reserved + need > self.per_device_blocks {
                        continue;
                    }
                    let r = pending.pop_front().expect("front just checked");
                    reserved += need;
                    *slot = Some(Active {
                        id: r.id,
                        prompt: r.prompt.clone(),
                        output_len: r.output_len,
                        fed: 0,
                        tokens: Vec::new(),
                        logprobs: Vec::new(),
                        reserved_blocks: need,
                    });
                }
            }
            let active: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
            if active.is_empty() {
                match pending.front() {
                    None => break,
                    Some(r) => {
                        // Open-loop idle: nothing active, wait for the
                        // next arrival. (With nothing active, reserved is
                        // zero and the head of queue always fits.)
                        let now = start.elapsed();
                        if r.arrival > now {
                            std::thread::sleep(r.arrival - now);
                        }
                        continue;
                    }
                }
            }
            // Build and broadcast the step plan.
            let entries: Vec<StepSlot> = active
                .iter()
                .map(|&s| {
                    let a = slots[s].as_ref().expect("slot is active");
                    let (tokens, pos0) = a.next_feed(prefill_chunk);
                    StepSlot {
                        slot: s,
                        tokens,
                        pos0,
                    }
                })
                .collect();
            let fed_now: Vec<usize> = entries.iter().map(|e| e.tokens.len()).collect();
            let plan = StepPlan {
                retire: std::mem::take(&mut retire),
                entries,
            };
            let step_start = Instant::now();
            for tx in &self.cmds {
                tx.send(Cmd::Step(plan.clone()))
                    .expect("device thread alive");
            }
            let choices = self.results.recv().expect("device thread alive");
            let step_dt = step_start.elapsed().as_secs_f64();
            run.steps += 1;
            run.occupancy_sum += active.len() as f64 / slots.len() as f64;
            // Account results: prefill steps (before the last prompt
            // token) discard the sample; from the step consuming the last
            // prompt token on, every step emits one generated token.
            for (k, &s) in active.iter().enumerate() {
                let a = slots[s].as_mut().expect("slot is active");
                a.fed += fed_now[k];
                if a.fed >= a.prompt.len() {
                    a.tokens.push(choices[k].token);
                    a.logprobs.push(choices[k].logprob);
                    run.latency.push(step_dt);
                }
                if a.done() {
                    let a = slots[s].take().expect("slot is active");
                    reserved -= a.reserved_blocks;
                    run.completions.push(Completion {
                        id: a.id,
                        tokens: a.tokens,
                        logprobs: a.logprobs,
                    });
                    retire.push(s);
                }
            }
        }
        // Release the last retirees' caches without running a step. A
        // retire-only plan is acked by *every* device, so when this
        // returns all ranks are quiescent and every KV block is back in
        // its pool (the arena counters are stable for callers to read).
        if !retire.is_empty() {
            let plan = StepPlan {
                retire,
                entries: Vec::new(),
            };
            for tx in &self.cmds {
                tx.send(Cmd::Step(plan.clone()))
                    .expect("device thread alive");
            }
            for _ in &self.cmds {
                let _ = self.results.recv().expect("device thread alive");
            }
        }
        run.wall = start.elapsed();
        run
    }

    /// Stops the device threads and joins them.
    ///
    /// # Panics
    ///
    /// Panics if a device thread panicked.
    pub fn shutdown(self) {
        for tx in &self.cmds {
            let _ = tx.send(Cmd::Stop);
        }
        for h in self.handles {
            h.join().expect("device thread panicked");
        }
    }
}

/// Everything one device thread owns.
struct DeviceState {
    rank: usize,
    world: usize,
    blocks: Vec<TransformerBlock>,
    input: InputShard,
    output: OutputShard,
    /// Positional embedding, stage 0 only (§6.4).
    pos: Option<Tensor>,
    partition: VocabPartition,
    /// `kv[slot][local_layer]`, all paging from one per-device pool.
    kv: Vec<Vec<KvCache>>,
    top_k: usize,
    /// Walk [`decode_pipeline_overlap`] (S submits, T merges) instead of
    /// [`decode_pipeline`] (S merges inline).
    overlap: bool,
    endpoint: P2pEndpoint,
    comm: Arc<Collective>,
    /// Communication stream for overlapped sampling barriers (§6.1).
    stream: CommStream,
}

impl DeviceState {
    fn run(mut self, rx: &Receiver<Cmd>, results: &Sender<Vec<TokenChoice>>) {
        // Kernels on this thread use only its share of the cores: every
        // stage decodes at once, so no core is idle for pool tasks.
        let _device = vp_tensor::pool::register_device_thread();
        while let Ok(Cmd::Step(plan)) = rx.recv() {
            let choices = self.step(&plan).expect("decode step failed");
            // Every rank merged identically; one report suffices — except
            // for retire-only plans, where each rank acks so the driver
            // can wait for full quiescence.
            if self.rank == 0 || plan.entries.is_empty() {
                let _ = results.send(choices);
            }
        }
    }

    /// Executes one decode step by walking this device's pass list of the
    /// validated forward-only schedule.
    fn step(&mut self, plan: &StepPlan) -> Result<Vec<TokenChoice>> {
        for &slot in &plan.retire {
            for kv in &mut self.kv[slot] {
                kv.release();
            }
        }
        let m = plan.entries.len();
        let mut choices = vec![
            TokenChoice {
                token: 0,
                logprob: 0.0,
            };
            m
        ];
        if m == 0 {
            // Retire-only plan; rank 0 still reports (empty) so the
            // driver's step/result pairing stays intact.
            return Ok(choices);
        }
        let schedule = if self.overlap {
            decode_pipeline_overlap(self.world, m as u32)
        } else {
            decode_pipeline(self.world, m as u32)
        };
        // Last-stage F outputs waiting for their S pass (this device only).
        let mut final_hidden: Vec<Option<Tensor>> = vec![None; m];
        // Stage-0 embedding rows owned locally, waiting for F.
        let mut local_embed: Vec<Option<Tensor>> = vec![None; m];
        // Overlap mode: in-flight sampling all_gathers, joined by T.
        let mut pending: Vec<Option<JobHandle<Vec<Vec<f32>>>>> = (0..m).map(|_| None).collect();
        let last = self.world - 1;
        for pass in schedule.passes(self.rank).to_vec() {
            let k = pass.microbatch as usize;
            let entry = &plan.entries[k];
            match pass.kind {
                PassKind::InputF => {
                    // Every shard owning tokens of the chunk embeds them
                    // (packed, in chunk order) and hands the rows to
                    // stage 0 (the TAG_INPART fan-in).
                    let owned: Vec<usize> = entry
                        .tokens
                        .iter()
                        .copied()
                        .filter(|&t| self.partition.owner_of(t) == Some(self.rank))
                        .collect();
                    if !owned.is_empty() {
                        let rows = self.input.forward_local(&owned)?;
                        if self.rank == 0 {
                            local_embed[k] = Some(rows);
                        } else {
                            self.endpoint
                                .send(
                                    0,
                                    to_packet(stage_tag(TAG_INPART, 0, pass.microbatch), &rows),
                                )
                                .map_err(|e| p2p_err(&e))?;
                        }
                    }
                }
                PassKind::F => {
                    let x = if self.rank == 0 {
                        self.assemble_chunk(entry, pass.microbatch, local_embed[k].take())?
                    } else {
                        crate::comm::from_packet(
                            &self
                                .endpoint
                                .recv_tag(
                                    self.rank - 1,
                                    stage_tag(TAG_ACT, self.rank, pass.microbatch),
                                )
                                .map_err(|e| p2p_err(&e))?,
                        )
                    };
                    let mut h = x;
                    for (li, block) in self.blocks.iter().enumerate() {
                        h = block.forward_decode(&h, &mut self.kv[entry.slot][li])?;
                    }
                    if self.rank < last {
                        self.endpoint
                            .send(
                                self.rank + 1,
                                to_packet(stage_tag(TAG_ACT, self.rank + 1, pass.microbatch), &h),
                            )
                            .map_err(|e| p2p_err(&e))?;
                    } else {
                        // Only the chunk's final token is sampled; C0 fans
                        // its hidden row out to every shard.
                        let tail = h.slice_rows(h.rows() - 1, h.rows())?;
                        for dst in 0..self.world {
                            if dst != self.rank {
                                self.endpoint
                                    .send(
                                        dst,
                                        to_packet(stage_tag(TAG_C0, 0, pass.microbatch), &tail),
                                    )
                                    .map_err(|e| p2p_err(&e))?;
                            }
                        }
                        final_hidden[k] = Some(tail);
                    }
                }
                PassKind::S => {
                    let h = match final_hidden[k].take() {
                        Some(h) => h,
                        None => crate::comm::from_packet(
                            &self
                                .endpoint
                                .recv_tag(last, stage_tag(TAG_C0, 0, pass.microbatch))
                                .map_err(|e| p2p_err(&e))?,
                        ),
                    };
                    let state = self.output.s_pass_decode(&h, self.top_k)?;
                    if self.overlap {
                        // Submit the single Algorithm-2 barrier to the
                        // communication stream and keep computing; the
                        // matching T pass joins it. Streams run jobs in
                        // submission order and every device's S passes
                        // ascend in k, so the per-rank collective calls
                        // stay aligned.
                        let payload = state.payload();
                        let comm = Arc::clone(&self.comm);
                        pending[k] = Some(self.stream.submit(move || comm.all_gather(&payload)));
                    } else {
                        let merged = self.output.barrier_decode(&self.comm, &state)?;
                        choices[k] = merged[0];
                    }
                }
                PassKind::T => {
                    // Overlap mode's deferred merge: join the stream job
                    // and run the deterministic merge every rank computes
                    // identically — bitwise the same as the inline path.
                    let gathered = pending[k]
                        .take()
                        .expect("schedule orders T after its own S")
                        .wait();
                    let merged = merge_decode(&gathered, 1, self.top_k)?;
                    choices[k] = merged[0];
                }
                other => unreachable!("decode schedule contains {other:?}"),
            }
        }
        Ok(choices)
    }

    /// Stage 0: reassembles a chunk's embedding rows from the per-owner
    /// `TAG_INPART` packets (receiving each distinct remote owner's packet
    /// lazily, once) and adds the positional rows.
    fn assemble_chunk(
        &mut self,
        entry: &StepSlot,
        microbatch: u32,
        local: Option<Tensor>,
    ) -> Result<Tensor> {
        let c = entry.tokens.len();
        let mut x = Tensor::zeros(c, self.input.hidden());
        // Per-owner packed rows with a cursor over rows already consumed.
        let mut packed: Vec<Option<(Tensor, usize)>> = (0..self.world).map(|_| None).collect();
        packed[0] = local.map(|rows| (rows, 0));
        for (r, &tok) in entry.tokens.iter().enumerate() {
            let owner = self
                .partition
                .owner_of(tok)
                .expect("token is in-vocabulary");
            if packed[owner].is_none() {
                let rows = crate::comm::from_packet(
                    &self
                        .endpoint
                        .recv_tag(owner, stage_tag(TAG_INPART, 0, microbatch))
                        .map_err(|e| p2p_err(&e))?,
                );
                packed[owner] = Some((rows, 0));
            }
            let (rows, cursor) = packed[owner].as_mut().expect("owner packet present");
            x.row_mut(r).copy_from_slice(rows.row(*cursor));
            *cursor += 1;
        }
        let pos = self.pos.as_ref().expect("stage 0 holds the positions");
        x.add(&pos.slice_rows(entry.pos0, entry.pos0 + c)?)
    }
}

fn p2p_err(e: &vp_collectives::P2pError) -> TensorError {
    TensorError::InvalidArgument(format!("p2p failed: {e}"))
}
