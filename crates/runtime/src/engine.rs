//! The generic schedule interpreter (pass-VM): one thread per device walks
//! its `vp_schedule::pass::Schedule` pass list in order and dispatches
//! purely on [`PassKind`] — `F`/`B`/`W` transformer passes here, the
//! vocabulary `S`/`T` and sharded input passes in `crate::vocab`. The
//! engine contains **no** schedule-family special cases: any validated
//! schedule whose kind maps to a supported [`Mode`] (plain → baseline,
//! Vocab-1/2 → Vocabulary Parallelism) executes numerically, which is how
//! the zero-bubble and interleaved extensions train without new runtime
//! code.
//!
//! [`train_schedule`] is the metrics-out entry point: it returns the loss
//! trajectory together with a real-timing
//! [`ExecReport`] (wall-clock pass spans of
//! the final iteration plus observed activation peaks), so the simulator's
//! Chrome-trace export and [`ScheduleAnalysis`] work unchanged on measured
//! data.

use crate::comm::{
    from_packet, stage_tag, to_packet, StageMap, TAG_ACT, TAG_C0, TAG_C2, TAG_GRAD, TAG_INGRAD,
};
use crate::data::{DataSource, Microbatch};
use crate::model::{FullModel, TinyConfig};
use crate::reference::{backward_blocks, forward_blocks};
use crate::state::{ActivationStore, MbState, WGradStash};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use vp_collectives::{Collective, CollectiveGroup, CommStream, P2pEndpoint, P2pNetwork};
use vp_core::output::OutputShard;
use vp_core::{InputShard, TiedShard, VocabAlgo};
use vp_model::block::TransformerBlock;
use vp_model::partition::VocabPartition;
use vp_model::tp::{TpBlockCache, TpPartition, TpReduce, TpTransformerBlock};
use vp_model::TpSyncStyle;
use vp_schedule::analysis::ScheduleAnalysis;
use vp_schedule::exec::ExecReport;
use vp_schedule::pass::{PassKind, Schedule, ScheduleKind, VocabVariant};
use vp_schedule::trace::to_chrome_trace;
use vp_tensor::nn::{softmax_cross_entropy, Embedding};
use vp_tensor::optim::{Adam, Optimizer, Param};
use vp_tensor::{Result, Tensor, TensorError};
use vp_trace::{TraceLog, Tracer, Track};

/// How the vocabulary layers are placed and executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Megatron-style: full input layer with the first virtual stage, full
    /// output layer with the last (in V-Half, both on device 0).
    Baseline,
    /// Vocabulary Parallelism with Algorithm 1 or 2 (the naive 3-barrier
    /// grouping is only supported by the fused verification path in
    /// `vp-core`, not by the streamed runtime).
    Vocab(VocabAlgo),
}

/// Derives the runtime [`Mode`] from a schedule's kind — the single point
/// where schedule families meet the numerics.
///
/// # Errors
///
/// Returns an error for kinds the streamed runtime does not execute (the
/// naive 3-barrier grouping and the interlaced TP-style baseline).
pub fn mode_of_schedule(schedule: &Schedule) -> Result<Mode> {
    match schedule.kind() {
        ScheduleKind::Plain => Ok(Mode::Baseline),
        ScheduleKind::Vocab(VocabVariant::Alg1) => Ok(Mode::Vocab(VocabAlgo::Alg1)),
        ScheduleKind::Vocab(VocabVariant::Alg2) => Ok(Mode::Vocab(VocabAlgo::Alg2)),
        ScheduleKind::Vocab(VocabVariant::Naive) => Err(TensorError::InvalidArgument(
            "the streamed runtime supports Algorithms 1 and 2; use vp-core's fused naive path"
                .into(),
        )),
        ScheduleKind::Interlaced => Err(TensorError::InvalidArgument(
            "interlaced schedules run synchronous TP-style vocabulary layers; the runtime \
             executes pipeline schedules (plain or vocabulary-parallel)"
                .into(),
        )),
    }
}

/// Validates a `(config, schedule)` pair for numeric execution and returns
/// the derived [`Mode`]: the schedule must pass the §5.1 dependency
/// validation, its microbatch count must match the config, the layer count
/// must split evenly over the virtual stages, and tied embeddings require
/// Vocabulary Parallelism.
pub(crate) fn check_schedule(config: &TinyConfig, schedule: &Schedule) -> Result<Mode> {
    let mode = mode_of_schedule(schedule)?;
    let virtual_stages = schedule.virtual_stages();
    if !config.layers.is_multiple_of(virtual_stages) {
        return Err(TensorError::InvalidArgument(format!(
            "{} layers not divisible by {} virtual stages",
            config.layers, virtual_stages
        )));
    }
    if schedule.num_microbatches() as usize != config.microbatches {
        return Err(TensorError::InvalidArgument(format!(
            "schedule runs {} microbatches, config expects {}",
            schedule.num_microbatches(),
            config.microbatches
        )));
    }
    if config.tied && mode == Mode::Baseline {
        return Err(TensorError::InvalidArgument(
            "tied embeddings require Vocabulary Parallelism (the naive baseline would need a \
             cross-stage gradient synchronization — the very cost §6.1 removes)"
                .into(),
        ));
    }
    vp_schedule::deps::validate(schedule)
        .map_err(|e| TensorError::InvalidArgument(format!("schedule invalid: {e}")))?;
    Ok(mode)
}

/// Tensor-parallel execution context of one device thread: its position on
/// the grid's TP axis and the row communicator the sharded blocks
/// rendezvous in. [`TpEnv::solo`] is the degenerate 1D context every
/// pre-grid entry point runs with — `tp == 1`, no communicator, and every
/// code path bitwise identical to the flat pipeline.
pub(crate) struct TpEnv {
    /// TP width (grid-row size); 1 on flat pipelines.
    pub(crate) tp: usize,
    /// This device's rank on the TP axis.
    pub(crate) tp_rank: usize,
    /// Row communicator (`None` exactly when `tp == 1`).
    pub(crate) comm: Option<Arc<Collective>>,
    /// How the Megatron `f`/`g` conjugate pair is realized: one all-reduce,
    /// or the PSA reduce-scatter + all-gather decomposition.
    pub(crate) sync: TpSyncStyle,
}

impl TpEnv {
    /// The flat-pipeline context: a one-entry row with no communicator.
    pub(crate) fn solo() -> Self {
        TpEnv {
            tp: 1,
            tp_rank: 0,
            comm: None,
            sync: TpSyncStyle::AllReduce,
        }
    }

    /// Whether transformer blocks are TP-sharded on this device.
    pub(crate) fn active(&self) -> bool {
        self.tp > 1
    }
}

/// Applies the TP cross-rank reduction to a partial block output: a plain
/// sum all-reduce (Megatron's `g` collective), or reduce-scatter followed
/// by all-gather (the PSA decomposition). Both sum the ranks' contributions
/// in rank order, so the two styles are bitwise identical here — which the
/// grid tests pin.
fn tp_reduce(comm: &Collective, sync: TpSyncStyle, t: &mut Tensor) -> Result<()> {
    match sync {
        TpSyncStyle::AllReduce => comm
            .all_reduce(t.data_mut(), vp_collectives::ReduceOp::Sum)
            .map_err(|e| TensorError::InvalidArgument(format!("tp all-reduce failed: {e}"))),
        TpSyncStyle::Psa => {
            let shard = comm
                .reduce_scatter(t.data(), vp_collectives::ReduceOp::Sum)
                .map_err(|e| {
                    TensorError::InvalidArgument(format!("tp reduce-scatter failed: {e}"))
                })?;
            let parts = comm.all_gather(&shard);
            let data = t.data_mut();
            let mut at = 0;
            for part in parts {
                data[at..at + part.len()].copy_from_slice(&part);
                at += part.len();
            }
            debug_assert_eq!(at, data.len(), "gathered shards must tile the tensor");
            Ok(())
        }
    }
}

/// Forward through a slice of TP-sharded blocks, collecting caches (the
/// sharded analogue of [`forward_blocks`]).
fn forward_tp_blocks(
    blocks: &[TpTransformerBlock],
    x: &Tensor,
    reduce: &mut TpReduce<'_>,
) -> Result<(Tensor, Vec<TpBlockCache>)> {
    let mut h = x.clone();
    let mut caches = Vec::with_capacity(blocks.len());
    for block in blocks {
        let (next, cache) = block.forward(&h, reduce)?;
        h = next;
        caches.push(cache);
    }
    Ok((h, caches))
}

/// Backward through a slice of TP-sharded blocks in reverse order (the
/// sharded analogue of [`backward_blocks`]).
fn backward_tp_blocks(
    blocks: &mut [TpTransformerBlock],
    caches: &[TpBlockCache],
    dy: &Tensor,
    reduce: &mut TpReduce<'_>,
) -> Result<Tensor> {
    let mut grad = dy.clone();
    for (block, cache) in blocks.iter_mut().rev().zip(caches.iter().rev()) {
        grad = block.backward(cache, &grad, reduce)?;
    }
    Ok(grad)
}

/// The rank whose per-microbatch losses form the reported trajectory:
/// the last virtual stage's host in baseline mode (it computes the loss),
/// rank 0 in vocab mode (every rank sees the all-reduced loss; one
/// reports).
pub(crate) fn loss_reporter_rank(mode: Mode, map: &StageMap) -> usize {
    match mode {
        Mode::Baseline => map.device_of(map.last_vs()).0,
        Mode::Vocab(_) => 0,
    }
}

/// One pipeline device of the interpreter: the model slices it hosts, its
/// communication endpoints and the per-microbatch stores the passes flow
/// through. Fields are `pub(crate)` so the vocabulary pass handlers in
/// [`crate::vocab`] share the state without accessors.
pub(crate) struct Device {
    pub(crate) rank: usize,
    pub(crate) mode: Mode,
    pub(crate) config: TinyConfig,
    pub(crate) map: StageMap,
    /// Transformer blocks per chunk hosted by this device (empty when the
    /// blocks are TP-sharded).
    pub(crate) blocks_by_chunk: Vec<Vec<TransformerBlock>>,
    /// TP-sharded transformer blocks per chunk (empty when `tp == 1`).
    pub(crate) tp_blocks_by_chunk: Vec<Vec<TpTransformerBlock>>,
    /// Tensor-parallel context: grid-row position and communicator.
    pub(crate) tp: TpEnv,
    /// Whether this device's pass list splits `B`/`W` zero-bubble style.
    pub(crate) has_w: bool,
    pub(crate) pos: Option<Param>,
    pub(crate) full_input: Option<Embedding>,
    pub(crate) full_output: Option<Param>,
    pub(crate) input_shard: Option<InputShard>,
    pub(crate) output_shard: Option<OutputShard>,
    /// Tied-embedding shard (§6.1): replaces both `input_shard` and
    /// `output_shard` when `config.tied` is set.
    pub(crate) tied_shard: Option<TiedShard>,
    pub(crate) p2p: P2pEndpoint,
    pub(crate) c1_comm: Arc<Collective>,
    pub(crate) c1_stream: CommStream,
    /// Resident block-activation caches per (microbatch, chunk).
    pub(crate) acts: ActivationStore,
    /// Resident TP-sharded caches (the sharded analogue of `acts`).
    pub(crate) tp_acts: ActivationStore<TpBlockCache>,
    /// Deferred weight gradients between `B` and `W`.
    pub(crate) w_stash: WGradStash,
    pub(crate) states: HashMap<u32, MbState>,
    pub(crate) losses: Vec<f64>,
}

impl Device {
    pub(crate) fn state(&mut self, k: u32) -> &mut MbState {
        self.states.entry(k).or_default()
    }

    pub(crate) fn algo(&self) -> VocabAlgo {
        match self.mode {
            Mode::Vocab(a) => a,
            Mode::Baseline => VocabAlgo::Alg1,
        }
    }

    pub(crate) fn c0_root(&self) -> usize {
        self.map.device_of(self.map.last_vs()).0
    }

    /// Translates a pipeline rank into the global p2p address of that
    /// stage's device in *this device's* TP column — stage-boundary and
    /// vocabulary traffic never crosses columns. The identity on flat
    /// pipelines (`tp == 1`).
    pub(crate) fn peer(&self, pp_rank: usize) -> usize {
        pp_rank * self.tp.tp + self.tp.tp_rank
    }

    pub(crate) fn recv(&mut self, src: usize, tag: u64) -> Result<Tensor> {
        let src = self.peer(src);
        let packet = self
            .p2p
            .recv_tag(src, tag)
            .map_err(|e| TensorError::InvalidArgument(format!("p2p recv failed: {e}")))?;
        Ok(from_packet(&packet))
    }

    pub(crate) fn send(&self, dst: usize, tag: u64, t: &Tensor) -> Result<()> {
        let dst = self.peer(dst);
        self.p2p
            .send(dst, to_packet(tag, t))
            .map_err(|e| TensorError::InvalidArgument(format!("p2p send failed: {e}")))
    }

    /// The interpreter's instruction dispatch: every pass kind a validated
    /// pipeline schedule can contain maps to one handler, with no
    /// schedule-family cases.
    pub(crate) fn run_pass(
        &mut self,
        kind: PassKind,
        k: u32,
        chunk: u8,
        mb: &Microbatch,
    ) -> Result<()> {
        match kind {
            PassKind::InputF => self.input_f(k, mb),
            PassKind::F => self.forward(k, chunk, mb),
            PassKind::S => self.s_pass(k, mb),
            PassKind::T => self.t_pass(k),
            PassKind::B => self.backward(k, chunk, mb),
            PassKind::W => self.w_pass(k, chunk),
            PassKind::InputB => self.input_b(k, mb),
            PassKind::S2 | PassKind::OutputF | PassKind::OutputB => Err(
                TensorError::InvalidArgument(format!("runtime does not execute {kind:?} passes")),
            ),
        }
    }

    fn forward(&mut self, k: u32, chunk: u8, mb: &Microbatch) -> Result<()> {
        let vs = self.map.vs_of(self.rank, chunk);
        let x0 = if vs == 0 {
            self.embed_input(k, mb)?
        } else {
            let (src, _) = self.map.device_of(vs - 1);
            self.recv(src, stage_tag(TAG_ACT, vs, k))?
        };
        let h = if self.tp.active() {
            let comm = Arc::clone(
                self.tp
                    .comm
                    .as_ref()
                    .expect("tp > 1 has a row communicator"),
            );
            let sync = self.tp.sync;
            let mut reduce = |t: &mut Tensor| tp_reduce(&comm, sync, t);
            let (h, caches) =
                forward_tp_blocks(&self.tp_blocks_by_chunk[chunk as usize], &x0, &mut reduce)?;
            self.tp_acts.insert(k, chunk, caches);
            h
        } else {
            let (h, caches) = forward_blocks(&self.blocks_by_chunk[chunk as usize], &x0)?;
            self.acts.insert(k, chunk, caches);
            h
        };
        if vs < self.map.last_vs() {
            let (dst, _) = self.map.device_of(vs + 1);
            self.send(dst, stage_tag(TAG_ACT, vs + 1, k), &h)?;
        } else {
            match self.mode {
                Mode::Baseline => {
                    let w = self
                        .full_output
                        .as_ref()
                        .expect("baseline hosts the output layer");
                    let logits = h.matmul_nt(w.value())?;
                    let (out, grad) = softmax_cross_entropy(&logits, &mb.labels)?;
                    self.losses.push(out.loss);
                    let st = self.state(k);
                    st.h_last = Some(h);
                    st.out_grad = Some(grad);
                }
                Mode::Vocab(_) => {
                    // C0: fan the last transformer output out to every
                    // vocabulary shard (including ourselves).
                    for dst in 0..self.map.devices {
                        self.send(dst, TAG_C0 | k as u64, &h)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn backward(&mut self, k: u32, chunk: u8, mb: &Microbatch) -> Result<()> {
        let vs = self.map.vs_of(self.rank, chunk);
        let dy = if vs == self.map.last_vs() {
            match self.mode {
                Mode::Baseline => {
                    let st = self.states.get_mut(&k).expect("B after F");
                    let grad = st
                        .out_grad
                        .take()
                        .expect("last stage stored the loss gradient");
                    let h = st.h_last.take().expect("last stage stored its output");
                    let w = self.full_output.as_mut().expect("baseline output layer");
                    let dw = grad.dlogits.matmul_tn(&h)?;
                    w.accumulate(&dw)?;
                    grad.dlogits.matmul(w.value())?
                }
                Mode::Vocab(VocabAlgo::Alg2) => self
                    .states
                    .get_mut(&k)
                    .expect("B after S")
                    .barrier
                    .take_dx()?,
                Mode::Vocab(VocabAlgo::Alg1) => {
                    // C2: sum the p partial ∇X contributions.
                    let mut acc = Tensor::zeros(mb.labels.len(), self.config.hidden);
                    for src in 0..self.map.devices {
                        let part = self.recv(src, TAG_C2 | k as u64)?;
                        acc.add_assign(&part)?;
                    }
                    acc
                }
                Mode::Vocab(VocabAlgo::Naive) => unreachable!("rejected at construction"),
            }
        } else {
            let (src, _) = self.map.device_of(vs + 1);
            self.recv(src, stage_tag(TAG_GRAD, vs, k))?
        };
        let dx0 = if self.tp.active() {
            let caches = self.tp_acts.remove(k, chunk).expect("F stored caches");
            let comm = Arc::clone(
                self.tp
                    .comm
                    .as_ref()
                    .expect("tp > 1 has a row communicator"),
            );
            let sync = self.tp.sync;
            let mut reduce = |t: &mut Tensor| tp_reduce(&comm, sync, t);
            if self.has_w {
                // Zero-bubble split, TP-sharded: the shadow backward still
                // enters the row's f-conjugate collectives (every row peer
                // runs the same pass list, so the rendezvous stays aligned);
                // only the weight-gradient fold is deferred.
                let mut shadow = self.tp_blocks_by_chunk[chunk as usize].clone();
                for block in &mut shadow {
                    for p in block.params_mut() {
                        p.zero_grad();
                    }
                }
                let dx0 = backward_tp_blocks(&mut shadow, &caches, &dy, &mut reduce)?;
                let grads: Vec<Tensor> = shadow
                    .iter_mut()
                    .flat_map(|b| b.params_mut().into_iter().map(|p| p.grad().clone()))
                    .collect();
                self.w_stash.insert(k, chunk, grads);
                dx0
            } else {
                backward_tp_blocks(
                    &mut self.tp_blocks_by_chunk[chunk as usize],
                    &caches,
                    &dy,
                    &mut reduce,
                )?
            }
        } else {
            let caches = self.acts.remove(k, chunk).expect("F stored caches");
            if self.has_w {
                // Zero-bubble split: compute ∇X on a gradient-free clone and
                // stash its weight gradients for the deferred W pass.
                let mut shadow = self.blocks_by_chunk[chunk as usize].clone();
                for block in &mut shadow {
                    for p in block.params_mut() {
                        p.zero_grad();
                    }
                }
                let dx0 = backward_blocks(&mut shadow, &caches, &dy)?;
                let grads: Vec<Tensor> = shadow
                    .iter_mut()
                    .flat_map(|b| b.params_mut().into_iter().map(|p| p.grad().clone()))
                    .collect();
                self.w_stash.insert(k, chunk, grads);
                dx0
            } else {
                backward_blocks(&mut self.blocks_by_chunk[chunk as usize], &caches, &dy)?
            }
        };
        if vs > 0 {
            let (dst, _) = self.map.device_of(vs - 1);
            self.send(dst, stage_tag(TAG_GRAD, vs - 1, k), &dx0)?;
        } else {
            self.pos
                .as_mut()
                .expect("first-stage device owns pos")
                .accumulate(&dx0)?;
            match self.mode {
                Mode::Baseline => {
                    let cache = self
                        .states
                        .get_mut(&k)
                        .expect("B after F")
                        .emb_cache
                        .take()
                        .expect("F cached ids");
                    self.full_input
                        .as_mut()
                        .expect("baseline input layer")
                        .backward(&cache, &dx0)?;
                }
                Mode::Vocab(_) => {
                    // Broadcast the embedding gradient to every input shard.
                    for dst in 0..self.map.devices {
                        self.send(dst, TAG_INGRAD | k as u64, &dx0)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Deferred weight-gradient pass (zero-bubble `W`): folds the stash
    /// produced by the matching `B` into the real parameters, in the same
    /// deterministic parameter order.
    fn w_pass(&mut self, k: u32, chunk: u8) -> Result<()> {
        let grads = self
            .w_stash
            .remove(k, chunk)
            .expect("B stashed the weight gradients");
        let mut it = grads.iter();
        if self.tp.active() {
            for block in &mut self.tp_blocks_by_chunk[chunk as usize] {
                for p in block.params_mut() {
                    let g = it
                        .next()
                        .expect("stash matches the chunk's parameter count");
                    p.accumulate(g)?;
                }
            }
        } else {
            for block in &mut self.blocks_by_chunk[chunk as usize] {
                for p in block.params_mut() {
                    let g = it
                        .next()
                        .expect("stash matches the chunk's parameter count");
                    p.accumulate(g)?;
                }
            }
        }
        debug_assert!(
            it.next().is_none(),
            "stash matches the chunk's parameter count"
        );
        Ok(())
    }

    /// All trainable parameters on this device, in a deterministic order
    /// (shared by the optimizer step and data-parallel gradient sync).
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params: Vec<&mut Param> = Vec::new();
        for blocks in &mut self.blocks_by_chunk {
            for block in blocks {
                params.extend(block.params_mut());
            }
        }
        for blocks in &mut self.tp_blocks_by_chunk {
            for block in blocks {
                params.extend(block.params_mut());
            }
        }
        if let Some(p) = &mut self.pos {
            params.push(p);
        }
        if let Some(e) = &mut self.full_input {
            params.extend(e.params_mut());
        }
        if let Some(w) = &mut self.full_output {
            params.push(w);
        }
        if let Some(s) = &mut self.input_shard {
            params.push(s.weight_mut());
        }
        if let Some(s) = &mut self.output_shard {
            params.push(s.weight_mut());
        }
        if let Some(s) = &mut self.tied_shard {
            params.push(s.weight_mut());
        }
        params
    }

    /// Data-parallel gradient synchronization: sum-all-reduce every
    /// parameter gradient across this stage's replicas.
    fn sync_grads(&mut self, comm: &Collective) -> Result<()> {
        for p in self.params_mut() {
            comm.all_reduce(p.grad_mut().data_mut(), vp_collectives::ReduceOp::Sum)
                .map_err(|e| TensorError::InvalidArgument(format!("gradient sync failed: {e}")))?;
        }
        Ok(())
    }

    fn optimizer_step(&mut self, adam: &mut Adam) -> Result<()> {
        for p in self.params_mut() {
            adam.step(p)?;
        }
        adam.next_iteration();
        Ok(())
    }

    /// Serializes this device's parameter state (values + Adam moments) in
    /// the deterministic `params_mut` order — one shard of a distributed
    /// checkpoint.
    fn save_state(&mut self, adam_timestep: i32) -> Vec<u8> {
        use vp_tensor::io::{write_param, write_u32};
        let mut buf = Vec::new();
        write_u32(&mut buf, adam_timestep as u32);
        let params = self.params_mut();
        write_u32(&mut buf, params.len() as u32);
        for p in params {
            write_param(&mut buf, p);
        }
        buf
    }

    /// Restores this device's parameter state from a shard produced by
    /// [`Self::save_state`]. Returns the Adam timestep to resume from.
    fn load_state(&mut self, blob: &[u8]) -> Result<i32> {
        use vp_tensor::io::{read_param, read_u32};
        let mut input = blob;
        let timestep = read_u32(&mut input)? as i32;
        let n = read_u32(&mut input)? as usize;
        let params = self.params_mut();
        if params.len() != n {
            return Err(TensorError::InvalidArgument(format!(
                "checkpoint shard has {n} parameters, device expects {}",
                params.len()
            )));
        }
        for p in params {
            let loaded = read_param(&mut input)?;
            if loaded.value().shape() != p.value().shape() {
                return Err(TensorError::InvalidArgument(
                    "checkpoint shard shape mismatch".into(),
                ));
            }
            *p = loaded;
        }
        Ok(timestep)
    }
}

/// What one device thread hands back: its loss trajectory (empty off the
/// reporter rank), checkpoint shard, the wall-clock span of every pass in
/// the final iteration, and the observed activation peak.
pub(crate) struct DeviceOutcome {
    pub(crate) losses: Vec<f64>,
    pub(crate) shard: Vec<u8>,
    /// Per-pass `(start, end)` wall-clock seconds relative to the shared
    /// epoch, indexed like `schedule.passes(rank)` (final iteration).
    pub(crate) spans: Vec<(f64, f64)>,
    /// Per-iteration `(start, end)` wall-clock seconds relative to the
    /// shared epoch — the pass loop plus gradient sync, optimizer step and
    /// buffer recycling, one entry per executed iteration.
    pub(crate) iter_spans: Vec<(f64, f64)>,
    /// Peak simultaneously-resident microbatch-chunk activations.
    pub(crate) peak_resident: usize,
}

/// The per-device interpreter loop, shared by every entry point
/// (single-pipeline, data-parallel, checkpointed). Walks the validated
/// schedule's pass list for `rank`, dispatching on [`PassKind`] only.
///
/// `dp` carries the stage's gradient-sync collective and the replica count
/// when data parallelism is active; `select` yields this replica's
/// microbatches for an iteration; `restore` resumes from a checkpoint
/// shard; `epoch` anchors the wall-clock pass spans across devices.
///
/// `tracer` is this device's measured-run recording handle
/// ([`Tracer::off`] when the caller wants no trace): the loop disarms it
/// for warm-up iterations and arms it for the final one, so a trace
/// captures exactly one steady iteration — the same slice of the run the
/// `spans` report covers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn device_loop(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    rank: usize,
    endpoint: P2pEndpoint,
    c1: Collective,
    tp_env: TpEnv,
    dp: Option<&(Collective, usize)>,
    select: &dyn Fn(u64, usize) -> Vec<Microbatch>,
    restore: Option<(&[u8], u64)>,
    tracer: &Tracer,
    epoch: Instant,
) -> Result<DeviceOutcome> {
    let mode = check_schedule(config, schedule)?;
    let chunks = schedule.chunks();
    let virtual_stages = schedule.virtual_stages();
    let map = StageMap {
        devices: schedule.devices(),
        chunks,
        placement: schedule.placement(),
    };
    let full = FullModel::build(config);
    let part = VocabPartition::new(config.vocab, map.devices);
    let reporter = loss_reporter_rank(mode, &map);
    let first_dev = map.device_of(0).0;
    let last_dev = map.device_of(map.last_vs()).0;
    let per_stage = config.layers / virtual_stages;
    let blocks_by_chunk: Vec<Vec<TransformerBlock>> = (0..chunks)
        .map(|c| {
            let vs = map.vs_of(rank, c);
            full.blocks[vs * per_stage..(vs + 1) * per_stage].to_vec()
        })
        .collect();
    // On a grid, slice each full block into this device's TP shard and
    // drop the full copies: the sharded set *replaces* the full set, so a
    // device holds 1/tp of the matmul weights (plus the replicated
    // LayerNorms and biases), exactly as the §5.2 grid estimator counts.
    let (blocks_by_chunk, tp_blocks_by_chunk) = if tp_env.active() {
        let part = TpPartition::new(
            tp_env.tp,
            tp_env.tp_rank,
            config.heads,
            config.hidden,
            config.hidden * config.ffn_mult,
        );
        let sharded = blocks_by_chunk
            .iter()
            .map(|blocks| {
                blocks
                    .iter()
                    .map(|b| TpTransformerBlock::from_full(b, &part))
                    .collect()
            })
            .collect();
        (vec![Vec::new(); chunks as usize], sharded)
    } else {
        (blocks_by_chunk, Vec::new())
    };
    // The device thread, its p2p endpoint and its communication stream all
    // write the same per-device timeline: blocking receives show up as
    // comm-wait spans, overlapped barrier jobs as comm-stream spans.
    let mut endpoint = endpoint;
    endpoint.set_tracer(tracer.clone());
    let mut c1_stream = CommStream::new();
    c1_stream.set_tracer(tracer.clone());
    let mut device = Device {
        rank,
        mode,
        config: config.clone(),
        map,
        blocks_by_chunk,
        tp_blocks_by_chunk,
        tp: tp_env,
        has_w: schedule.count_kind(rank, PassKind::W) > 0,
        pos: (rank == first_dev).then(|| Param::new(full.pos_weight.clone())),
        full_input: (mode == Mode::Baseline && rank == first_dev)
            .then(|| Embedding::from_weight(full.input_weight.clone())),
        full_output: (mode == Mode::Baseline && rank == last_dev)
            .then(|| Param::new(full.output_weight.clone())),
        input_shard: (matches!(mode, Mode::Vocab(_)) && !config.tied)
            .then(|| InputShard::from_full(&full.input_weight, part, rank))
            .transpose()?,
        output_shard: (matches!(mode, Mode::Vocab(_)) && !config.tied)
            .then(|| OutputShard::from_full(&full.output_weight, part, rank))
            .transpose()?,
        tied_shard: (matches!(mode, Mode::Vocab(_)) && config.tied)
            .then(|| TiedShard::from_full(&full.output_weight, part, rank))
            .transpose()?,
        p2p: endpoint,
        c1_comm: Arc::new(c1),
        c1_stream,
        acts: ActivationStore::default(),
        tp_acts: ActivationStore::default(),
        w_stash: WGradStash::default(),
        states: HashMap::new(),
        losses: Vec::new(),
    };
    let mut adam = Adam::new(config.lr);
    let mut start_iter = 0u64;
    if let Some((blob, done)) = restore {
        let timestep = device.load_state(blob)?;
        adam.set_timestep(timestep);
        start_iter = done;
    }
    let mut iteration_losses = Vec::with_capacity(iterations);
    let mut spans = vec![(0.0, 0.0); schedule.passes(rank).len()];
    let mut iter_spans = Vec::with_capacity(iterations);
    let trace = std::env::var_os("VP_RUNTIME_TRACE").is_some();
    let replicas = dp.map(|(_, n)| *n).unwrap_or(1);
    for iter in start_iter..start_iter + iterations as u64 {
        // Warm-up iterations are disarmed; the trace captures the final
        // (steady-state) iteration, matching the `spans` report below.
        if iter + 1 == start_iter + iterations as u64 {
            tracer.arm();
        } else {
            tracer.disarm();
        }
        let it0 = epoch.elapsed().as_secs_f64();
        let mbs = select(iter, config.microbatches);
        for (i, pass) in schedule.passes(rank).iter().enumerate() {
            if trace {
                eprintln!("[iter {iter}] rank {rank}: {pass}");
            }
            // Spans include any blocking wait on upstream data, so the
            // measured report shows communication-inclusive pass times
            // (bubbles appear as stretched passes, not gaps). The tracer's
            // comm-wait track separates the wait out again.
            let pass_span = tracer.span(
                Track::Compute,
                pass.kind.name(),
                pass.microbatch,
                pass.chunk,
            );
            let t0 = epoch.elapsed().as_secs_f64();
            device.run_pass(
                pass.kind,
                pass.microbatch,
                pass.chunk,
                &mbs[pass.microbatch as usize],
            )?;
            spans[i] = (t0, epoch.elapsed().as_secs_f64());
            pass_span.end();
        }
        // Wait for deferred barriers still in flight before touching
        // gradients or weights.
        device.c1_stream.synchronize();
        if let Some((dp_comm, _)) = dp {
            device.sync_grads(dp_comm)?;
        }
        device.optimizer_step(&mut adam)?;
        if device.rank == reporter && device.tp.tp_rank == 0 {
            let mut total: f64 = device.losses.drain(..).sum();
            if let Some((dp_comm, _)) = dp {
                // Sum the replicas' loss contributions (all reporter-stage
                // devices participate, in the same position of the group's
                // op sequence).
                let mut buf = [total as f32];
                dp_comm
                    .all_reduce(&mut buf, vp_collectives::ReduceOp::Sum)
                    .map_err(|e| TensorError::InvalidArgument(format!("loss sync failed: {e}")))?;
                total = buf[0] as f64;
            }
            iteration_losses.push(total / (config.microbatches * replicas) as f64);
        } else {
            device.losses.clear();
        }
        // Per-iteration cleanup releases every microbatch-keyed buffer back
        // to the tensor arena, so the next iteration's F/B/S/T passes are
        // served from the pool instead of the system allocator.
        device.states.clear();
        device.acts.clear();
        device.w_stash.clear();
        iter_spans.push((it0, epoch.elapsed().as_secs_f64()));
    }
    let shard = device.save_state(adam.timestep());
    Ok(DeviceOutcome {
        losses: if rank == reporter && device.tp.tp_rank == 0 {
            iteration_losses
        } else {
            Vec::new()
        },
        shard,
        spans,
        iter_spans,
        peak_resident: device
            .acts
            .peak_resident()
            .max(device.tp_acts.peak_resident()),
    })
}

/// What a [`train_schedule`] run reports: the per-iteration mean loss
/// trajectory plus a real-timing execution report in the simulator's
/// [`ExecReport`] shape, so the Chrome-trace exporter and
/// [`ScheduleAnalysis`] consume measured data exactly as they consume
/// simulated data.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-iteration mean loss over the global batch.
    pub losses: Vec<f64>,
    /// Wall-clock pass spans (final iteration) and observed activation
    /// peaks, indexed like the schedule's pass lists. Pass durations
    /// include blocking waits on upstream data.
    pub exec: ExecReport,
    /// Wall-clock seconds per training iteration, measured across all
    /// device threads (earliest iteration start to latest iteration end,
    /// including gradient sync and the optimizer step). Later entries are
    /// the steady-state iterations `repro trainbench` reports on.
    pub iter_wall: Vec<f64>,
}

impl TrainReport {
    /// Renders the measured execution as a Chrome trace (`chrome://tracing`
    /// / Perfetto JSON), reusing the simulator's exporter on real timings.
    pub fn chrome_trace(&self, schedule: &Schedule) -> String {
        // Timings are seconds; the exporter expects microseconds per unit.
        to_chrome_trace(schedule, &self.exec, 1e6)
    }

    /// Analyzes the measured execution (bubble decomposition, per-kind
    /// time budgets) with the simulator's [`ScheduleAnalysis`].
    pub fn analysis(&self, schedule: &Schedule) -> ScheduleAnalysis {
        ScheduleAnalysis::new(schedule, &self.exec)
    }
}

/// Trains the tiny model by interpreting an arbitrary validated pipeline
/// [`Schedule`] numerically — the generic metrics-out entry point the
/// family-specific wrappers in [`crate::pipeline`] delegate to.
///
/// The schedule's kind selects the vocabulary placement (plain → Megatron
/// baseline, Vocab-1/2 → Vocabulary Parallelism); devices, chunks and the
/// chunk placement all come from the schedule itself. With identical
/// `config`, the loss trajectory matches
/// [`crate::reference::train_reference`] up to `f32` accumulation-order
/// noise (the Appendix E claim) for every supported schedule.
///
/// # Errors
///
/// Returns an error for invalid configurations (layer count not divisible
/// by the virtual stage count, microbatch mismatch, unsupported schedule
/// kind, failed dependency validation) or if any shard fails numerically.
///
/// # Panics
///
/// Panics if a device thread panics.
pub fn train_schedule(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
) -> Result<TrainReport> {
    run_schedule(config, schedule, iterations, corpus, None)
}

/// [`train_schedule`] with measured-run tracing: returns the report plus a
/// [`TraceLog`] holding per-device events (`F`/`B`/`W`/`S`/`T` pass spans,
/// blocking p2p waits, overlapped communication-stream jobs) of the final
/// iteration. `log.chrome_trace()` renders it for `chrome://tracing`;
/// `log.report()` computes bubble and communication-overlap fractions.
///
/// # Errors
///
/// As [`train_schedule`].
///
/// # Panics
///
/// Panics if a device thread panics.
pub fn train_schedule_traced(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
) -> Result<(TrainReport, TraceLog)> {
    let log = TraceLog::new(schedule.devices());
    let report = run_schedule(config, schedule, iterations, corpus, Some(&log))?;
    Ok((report, log))
}

/// The shared runner behind [`train_schedule`] / [`train_schedule_traced`]:
/// spawns one interpreter thread per device, handing each its [`Tracer`]
/// from `log` (or the free disabled handle when no trace is wanted).
fn run_schedule(
    config: &TinyConfig,
    schedule: &Schedule,
    iterations: usize,
    corpus: &DataSource,
    log: Option<&TraceLog>,
) -> Result<TrainReport> {
    check_schedule(config, schedule)?;
    let devices = schedule.devices();
    let endpoints = P2pNetwork::new(devices);
    let c1_comms = CollectiveGroup::new(devices);
    let epoch = Instant::now();
    let results: Vec<Result<DeviceOutcome>> = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for (endpoint, comm) in endpoints.into_iter().zip(c1_comms) {
            let rank = endpoint.rank();
            let corpus = corpus.clone();
            let tracer = log.map(|l| l.tracer(rank)).unwrap_or_else(Tracer::off);
            joins.push(scope.spawn(move || {
                let select =
                    move |iter: u64, m: usize| -> Vec<Microbatch> { corpus.iteration(iter, m) };
                device_loop(
                    config,
                    schedule,
                    iterations,
                    rank,
                    endpoint,
                    comm,
                    TpEnv::solo(),
                    None,
                    &select,
                    None,
                    &tracer,
                    epoch,
                )
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("device thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::with_capacity(devices);
    for r in results {
        outcomes.push(r?);
    }
    let mut losses = Vec::new();
    for o in &outcomes {
        if !o.losses.is_empty() {
            losses = o.losses.clone();
        }
    }
    let refs: Vec<&DeviceOutcome> = outcomes.iter().collect();
    Ok(TrainReport {
        losses,
        exec: assemble_report(schedule, &refs),
        iter_wall: assemble_iter_wall(&refs),
    })
}

/// Collapses the devices' per-iteration spans into one wall time per
/// iteration: earliest start to latest end across all device threads.
pub(crate) fn assemble_iter_wall(outcomes: &[&DeviceOutcome]) -> Vec<f64> {
    let iterations = outcomes
        .iter()
        .map(|o| o.iter_spans.len())
        .max()
        .unwrap_or(0);
    (0..iterations)
        .map(|i| {
            let start = outcomes
                .iter()
                .filter_map(|o| o.iter_spans.get(i))
                .map(|&(s, _)| s)
                .fold(f64::INFINITY, f64::min);
            let end = outcomes
                .iter()
                .filter_map(|o| o.iter_spans.get(i))
                .map(|&(_, e)| e)
                .fold(f64::NEG_INFINITY, f64::max);
            (end - start).max(0.0)
        })
        .collect()
}

/// Assembles the simulator-shaped [`ExecReport`] from the devices' raw
/// wall-clock spans: times are re-anchored so the earliest pass starts at
/// zero, and the observed activation peaks fill the memory fields
/// (activation units weigh each resident microbatch `1/chunks`, matching
/// [`vp_schedule::exec::UnitCosts`]).
pub(crate) fn assemble_report(schedule: &Schedule, outcomes: &[&DeviceOutcome]) -> ExecReport {
    let t0 = outcomes
        .iter()
        .flat_map(|o| o.spans.iter().map(|&(s, _)| s))
        .fold(f64::INFINITY, f64::min);
    let t0 = if t0.is_finite() { t0 } else { 0.0 };
    let mut start = Vec::with_capacity(outcomes.len());
    let mut end = Vec::with_capacity(outcomes.len());
    let mut busy = Vec::with_capacity(outcomes.len());
    let mut peak_units = Vec::with_capacity(outcomes.len());
    let mut peak_resident = Vec::with_capacity(outcomes.len());
    let chunks = schedule.chunks().max(1) as f64;
    for o in outcomes {
        start.push(o.spans.iter().map(|&(s, _)| s - t0).collect::<Vec<_>>());
        end.push(o.spans.iter().map(|&(_, e)| e - t0).collect::<Vec<_>>());
        busy.push(o.spans.iter().map(|&(s, e)| e - s).sum());
        peak_units.push(o.peak_resident as f64 / chunks);
        peak_resident.push(o.peak_resident);
    }
    let makespan = end.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
    ExecReport {
        start,
        end,
        busy,
        makespan,
        peak_activation_units: peak_units,
        peak_resident_microbatches: peak_resident,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticCorpus;
    use crate::reference::train_reference;
    use vp_schedule::block::PassTimes;
    use vp_schedule::generators;

    fn source(config: &TinyConfig) -> DataSource {
        DataSource::Synthetic(SyntheticCorpus::new(
            config.vocab,
            config.seq_len,
            config.seed,
        ))
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + x.abs()),
                "iteration {i}: {x} vs {y} (full: {a:?} vs {b:?})"
            );
        }
    }

    /// The tentpole's generality proof, part 1: zero-bubble vocabulary
    /// schedules (B/W split + deferred T) train numerically and match the
    /// single-device reference within the Figure 17 tolerance — with no
    /// zero-bubble-specific runtime code.
    #[test]
    fn zb_vocab_schedules_train_to_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 6).unwrap();
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let schedule =
                generators::zb_vocab_1f1b(4, config.microbatches as u32, variant, times, true);
            let report =
                train_schedule(&config, &schedule, 6, &source(&config)).unwrap_or_else(|e| {
                    panic!("{variant:?}: {e}");
                });
            assert_close(&reference, &report.losses, 1e-3);
        }
    }

    /// The tentpole's generality proof, part 2: interleaved (round-robin
    /// multi-chunk) vocabulary schedules train numerically and match the
    /// reference.
    #[test]
    fn interleaved_vocab_schedules_train_to_reference() {
        let config = TinyConfig {
            layers: 8,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 5).unwrap();
        let times = PassTimes {
            f: 0.5,
            b: 1.0,
            ..PassTimes::default()
        };
        for variant in [VocabVariant::Alg1, VocabVariant::Alg2] {
            let schedule = generators::interleaved_vocab_1f1b(
                4,
                2,
                config.microbatches as u32,
                variant,
                times,
                true,
            );
            let report =
                train_schedule(&config, &schedule, 5, &source(&config)).unwrap_or_else(|e| {
                    panic!("{variant:?}: {e}");
                });
            assert_close(&reference, &report.losses, 1e-3);
        }
    }

    /// Plain zero-bubble 1F1B (baseline vocabulary placement, B/W split)
    /// also matches the reference: the W pass handler is
    /// placement-agnostic.
    #[test]
    fn zb_baseline_schedule_trains_to_reference() {
        let config = TinyConfig::default();
        let reference = train_reference(&config, 5).unwrap();
        let times = PassTimes {
            f: 1.0,
            b: 1.0,
            w: 1.0,
            ..PassTimes::default()
        };
        let schedule = generators::zb_1f1b(4, config.microbatches as u32, times);
        let report = train_schedule(&config, &schedule, 5, &source(&config)).unwrap();
        assert_close(&reference, &report.losses, 1e-3);
    }

    /// Plain interleaved 1F1B with the Megatron-style baseline placement.
    #[test]
    fn interleaved_baseline_schedule_trains_to_reference() {
        let config = TinyConfig {
            layers: 8,
            ..TinyConfig::default()
        };
        let reference = train_reference(&config, 4).unwrap();
        let times = PassTimes {
            f: 0.5,
            b: 1.0,
            ..PassTimes::default()
        };
        let schedule = generators::interleaved_1f1b(4, 2, config.microbatches as u32, times);
        let report = train_schedule(&config, &schedule, 4, &source(&config)).unwrap();
        assert_close(&reference, &report.losses, 1e-3);
    }

    #[test]
    fn train_schedule_fills_a_real_timing_report() {
        let config = TinyConfig::default();
        let schedule = generators::vocab_1f1b(
            2,
            config.microbatches as u32,
            VocabVariant::Alg2,
            PassTimes::default(),
            true,
        );
        let report = train_schedule(&config, &schedule, 2, &source(&config)).unwrap();
        assert_eq!(report.exec.start.len(), 2);
        // One wall-time entry per iteration, each positive and at least as
        // long as the slowest device's busy pass time for that iteration.
        assert_eq!(report.iter_wall.len(), 2);
        for &w in &report.iter_wall {
            assert!(w > 0.0);
        }
        for d in 0..2 {
            assert_eq!(report.exec.start[d].len(), schedule.passes(d).len());
            assert!(report.exec.busy[d] > 0.0);
            // Pass spans are well-formed and inside the makespan.
            for i in 0..schedule.passes(d).len() {
                assert!(report.exec.start[d][i] >= 0.0);
                assert!(report.exec.end[d][i] >= report.exec.start[d][i]);
                assert!(report.exec.end[d][i] <= report.exec.makespan + 1e-12);
            }
        }
        // The simulator's consumers work on the measured report.
        let analysis = report.analysis(&schedule);
        assert!(analysis.makespan > 0.0);
        assert!(analysis.render().contains("mean bubble"));
        let trace = report.chrome_trace(&schedule);
        assert!(trace.contains("traceEvents"));
        assert!(trace.contains("\"S\"") || trace.contains("S0"));
    }

    #[test]
    fn mismatched_microbatches_are_rejected() {
        let config = TinyConfig::default(); // 4 microbatches
        let schedule = generators::one_f_one_b(2, 8, PassTimes::default());
        let err = train_schedule(&config, &schedule, 1, &source(&config)).unwrap_err();
        assert!(err.to_string().contains("microbatch"));
    }

    #[test]
    fn interlaced_schedules_are_rejected() {
        let config = TinyConfig::default();
        let schedule =
            generators::interlaced_1f1b(2, config.microbatches as u32, PassTimes::default());
        let err = train_schedule(&config, &schedule, 1, &source(&config)).unwrap_err();
        assert!(err.to_string().contains("interlaced"));
    }
}
