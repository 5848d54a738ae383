//! The partitioned output layer (§4): logits, safe softmax and
//! cross-entropy over one `V/p` vocabulary shard, grouped into pipeline
//! passes with 3 (naive), 2 (Algorithm 1) or 1 (Algorithm 2) communication
//! barriers.
//!
//! Notation follows the paper: `X ∈ [N, h]` is the last transformer
//! layer's output for one microbatch (`N = b·s` tokens), `W ∈ [V, h]` the
//! output embedding, `Y = XWᵀ` the logits, `G` the one-hot labels, and
//!
//! ```text
//! softmax(Y)_ij = softmax'(Y)_ij · sum'_i · e^{m'_i − m_i} / sum_i   (Eq. 5)
//! ∇X = (softmax(Y) − G)·W        ∇W = (softmax(Y) − G)ᵀ·X
//! ```
//!
//! Gradients use *mean* reduction over the `N` tokens, matching the
//! reference [`vp_tensor::nn::softmax_cross_entropy`].

use vp_collectives::{Collective, ReduceOp};
use vp_model::cost::VocabAlgo;
use vp_model::partition::VocabPartition;
use vp_tensor::ops::{local_softmax, softmax_correction, SoftmaxStats};
use vp_tensor::optim::Param;
use vp_tensor::{PackedNt, Result, Tensor, TensorError};

use std::sync::OnceLock;

/// One device's shard of the output vocabulary layer.
///
/// The shard stores only its *real* (unpadded) vocabulary rows; the paper's
/// `2p` padding affects memory alignment, not numerics, and is accounted
/// for by the cost model.
///
/// # Example
///
/// A single shard (`p = 1`) degenerates to the full output layer:
///
/// ```
/// use vp_collectives::CollectiveGroup;
/// use vp_core::{OutputShard, VocabAlgo};
/// use vp_model::partition::VocabPartition;
/// use vp_tensor::init::{normal, seeded_rng};
///
/// # fn main() -> vp_tensor::Result<()> {
/// let mut rng = seeded_rng(0);
/// let weight = normal(&mut rng, 16, 4, 0.5); // [V, h]
/// let x = normal(&mut rng, 3, 4, 1.0);       // [b·s, h]
/// let part = VocabPartition::new(16, 1);
/// let mut shard = OutputShard::from_full(&weight, part, 0)?;
/// let comm = CollectiveGroup::new(1).pop().expect("one rank");
/// let (loss, dx) = shard.forward_backward(VocabAlgo::Alg2, &comm, &x, &[1, 5, 9])?;
/// assert!(loss.is_finite() && dx.shape() == (3, 4));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OutputShard {
    weight: Param,
    /// The weight packed for the decode GEMV, built by the first
    /// [`OutputShard::s_pass_decode`] and dropped by
    /// [`OutputShard::weight_mut`], so it never outlives the value it
    /// was packed from.
    packed: OnceLock<PackedNt>,
    partition: VocabPartition,
    rank: usize,
}

/// State carried between the `S` pass, the communication barrier(s) and
/// the `T` pass for one microbatch.
///
/// After the barrier, `softmax` holds the *globally rescaled* softmax of
/// the shard's columns and `correction` the per-row factor of Eq. 5.
#[derive(Debug, Clone)]
pub struct SState {
    /// Locally-normalized softmax (`softmax'` before the barrier, the
    /// global softmax after rescaling).
    softmax: Tensor,
    /// Local statistics `(m', sum')`.
    stats: SoftmaxStats,
    /// Labels of the microbatch (global token ids).
    labels: Vec<usize>,
    /// This shard's label logits (`Y_{i,g_i}` for owned rows, 0 elsewhere),
    /// captured exactly in the `S` pass for the loss computation.
    label_logit: Vec<f32>,
    /// Algorithm 2 only: `A = softmax'(Y)·W`, pre-computed before the
    /// barrier.
    a: Option<Tensor>,
    /// Algorithm 2 only: `B = G·W / N` (a row gather of `W`).
    b: Option<Tensor>,
    /// Whether the barrier has run (softmax is globally rescaled).
    rescaled: bool,
    /// Global vocabulary index of this shard's first column.
    shard_start: usize,
}

impl SState {
    /// Approximate bytes held by this state (the transient vocabulary
    /// buffer the schedules budget between `S` and `T`).
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let mut total = self.softmax.len() * f + 2 * self.stats.max.len() * f;
        if let Some(a) = &self.a {
            total += a.len() * f;
        }
        if let Some(b) = &self.b {
            total += b.len() * f;
        }
        total
    }
}

impl SState {
    /// `(row, local column)` pairs of labels owned by this shard.
    fn local_labels(&self) -> Vec<(usize, usize)> {
        let width = self.softmax.cols();
        let start = self.shard_start;
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_row, &label)| label >= start && label < start + width)
            .map(|(row, &label)| (row, label - start))
            .collect()
    }

    /// All-reduces the softmax statistics (`m`, then `sum`) and computes
    /// the global mean loss. Returns `(global_max, global_sum, loss)`.
    fn reduce_stats(&self, comm: &Collective) -> Result<(Vec<f32>, Vec<f32>, f64)> {
        let n = self.labels.len();
        let mut gmax = self.stats.max.clone();
        comm.all_reduce(&mut gmax, ReduceOp::Max)
            .map_err(|e| comm_err(&e))?;
        let mut gsum: Vec<f32> = (0..n)
            .map(|i| {
                if self.stats.sum[i] == 0.0 {
                    0.0
                } else {
                    self.stats.sum[i] * (self.stats.max[i] - gmax[i]).exp()
                }
            })
            .collect();
        comm.all_reduce(&mut gsum, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        // Loss: mean_i (m_i + ln(sum_i) − y_{i,label}), with the label
        // logit captured exactly during the S pass.
        let mut label_logit = self.label_logit.clone();
        comm.all_reduce(&mut label_logit, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        let loss = (0..n)
            .map(|i| (gmax[i] + gsum[i].ln() - label_logit[i]) as f64)
            .sum::<f64>()
            / n as f64;
        Ok((gmax, gsum, loss))
    }

    fn rescale(&mut self, gmax: &[f32], gsum: &[f32]) -> Result<()> {
        vp_tensor::ops::rescale_softmax(&mut self.softmax, &self.stats, gmax, gsum)?;
        self.rescaled = true;
        Ok(())
    }

    /// Algorithm 1's `C1` barrier, self-contained (runs anywhere a
    /// [`Collective`] handle for the barrier group is available — e.g. on a
    /// per-device communication stream, as the paper overlaps it).
    ///
    /// # Errors
    ///
    /// Returns an error if a collective fails.
    pub fn barrier_alg1(&mut self, comm: &Collective) -> Result<BarrierOutput> {
        let (gmax, gsum, loss) = self.reduce_stats(comm)?;
        self.rescale(&gmax, &gsum)?;
        Ok(BarrierOutput { loss, dx: None })
    }

    /// Completes the barrier phase *without* communication, treating the
    /// local statistics as global — correct only on a single shard
    /// (`p = 1`) and used by single-thread kernel benchmarking, where the
    /// collective cost is excluded as the paper excludes overlapped
    /// communication (§6.5).
    pub fn barrier_local(&mut self) {
        let gmax = self.stats.max.clone();
        let gsum = self.stats.sum.clone();
        self.rescale(&gmax, &gsum)
            .expect("matching lengths by construction");
    }

    /// Algorithm 2's single `C1` barrier, self-contained (see
    /// [`Self::barrier_alg1`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the state was not
    /// produced by an Algorithm-2 `S` pass, or a collective error.
    pub fn barrier_alg2(&mut self, comm: &Collective) -> Result<BarrierOutput> {
        if self.a.is_none() || self.b.is_none() {
            return Err(TensorError::InvalidArgument(
                "barrier_alg2 requires an Algorithm-2 S state".into(),
            ));
        }
        let (gmax, gsum, loss) = self.reduce_stats(comm)?;
        let (a, b) = (
            self.a.as_ref().expect("checked"),
            self.b.as_ref().expect("checked"),
        );
        let n = self.labels.len() as f32;
        let mut dx = Tensor::zeros(a.rows(), a.cols());
        for row in 0..a.rows() {
            // ∇X_row = corr·A_row/N − B_row (Eq. 6, with B pre-divided by N).
            let corr = softmax_correction(
                self.stats.max[row],
                self.stats.sum[row],
                gmax[row],
                gsum[row],
            ) / n;
            for ((o, &av), &bv) in dx.row_mut(row).iter_mut().zip(a.row(row)).zip(b.row(row)) {
                *o = corr * av - bv;
            }
        }
        comm.all_reduce(dx.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        self.rescale(&gmax, &gsum)?;
        Ok(BarrierOutput { loss, dx: Some(dx) })
    }
}

/// Result of completing the barrier phase: the global mean loss and, for
/// Algorithm 2 and the naive path, the fully-reduced input gradient.
#[derive(Debug, Clone)]
pub struct BarrierOutput {
    /// Mean cross-entropy over the microbatch (identical on every rank).
    pub loss: f64,
    /// `∇X`, present when the algorithm produces it in this phase
    /// (Algorithm 2's single barrier; naive's final reduce).
    pub dx: Option<Tensor>,
}

impl OutputShard {
    /// Creates a shard from this rank's slice of the full `[V, h]` weight.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the slice's row count
    /// does not equal the partition's real width for `rank`.
    pub fn new(weight: Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        if weight.rows() != partition.real_width(rank) {
            return Err(TensorError::InvalidArgument(format!(
                "shard weight has {} rows, partition expects {}",
                weight.rows(),
                partition.real_width(rank)
            )));
        }
        Ok(OutputShard {
            weight: Param::new(weight),
            packed: OnceLock::new(),
            partition,
            rank,
        })
    }

    /// Slices this rank's shard out of the full `[V, h]` weight matrix.
    ///
    /// # Errors
    ///
    /// Propagates slicing errors if `full` has fewer than `V` rows.
    pub fn from_full(full: &Tensor, partition: VocabPartition, rank: usize) -> Result<Self> {
        let (start, end) = partition.shard_range(rank);
        let end = end.min(partition.vocab());
        let start = start.min(end);
        let weight = full.slice_rows(start, end)?;
        OutputShard::new(weight, partition, rank)
    }

    /// This rank's shard of the partition.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The vocabulary partition.
    pub fn partition(&self) -> VocabPartition {
        self.partition
    }

    /// The shard's weight parameter (rows = this shard's vocabulary ids).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter (for the optimizer step).
    /// Drops the decode pack, which the next decode S pass rebuilds from
    /// the updated value.
    pub fn weight_mut(&mut self) -> &mut Param {
        self.packed = OnceLock::new();
        &mut self.weight
    }

    /// Global start index of this shard's vocabulary range.
    fn shard_start(&self) -> usize {
        self.partition.shard_range(self.rank).0
    }

    /// One-hot rows of `G` restricted to this shard, as
    /// `(row, local column)` pairs.
    fn local_labels(&self, labels: &[usize]) -> Vec<(usize, usize)> {
        let start = self.shard_start();
        let width = self.weight.value().rows();
        labels
            .iter()
            .enumerate()
            .filter(|&(_row, &label)| label >= start && label < start + width)
            .map(|(row, &label)| (row, label - start))
            .collect()
    }

    // ---------------------------------------------------------------------
    // S pass
    // ---------------------------------------------------------------------

    /// The `S` pass: logits + local softmax (and, for Algorithm 2, the
    /// pre-barrier matmuls `A = softmax'(Y)·W` and `B = G·W/N`).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the weight's hidden
    /// width, or [`TensorError::OutOfBounds`] for an out-of-vocabulary
    /// label.
    pub fn s_pass(&self, algo: VocabAlgo, x: &Tensor, labels: &[usize]) -> Result<SState> {
        if labels.len() != x.rows() {
            return Err(TensorError::InvalidArgument(format!(
                "{} labels for {} rows",
                labels.len(),
                x.rows()
            )));
        }
        for &l in labels {
            if l >= self.partition.vocab() {
                return Err(TensorError::OutOfBounds {
                    op: "output_s_pass",
                    index: l,
                    bound: self.partition.vocab(),
                });
            }
        }
        let y = x.matmul_nt(self.weight.value())?;
        let mut label_logit = vec![0.0f32; labels.len()];
        for (row, local) in self.local_labels(labels) {
            label_logit[row] = y.at(row, local);
        }
        let (softmax, stats) = local_softmax(&y);
        let (a, b) = match algo {
            VocabAlgo::Naive | VocabAlgo::Alg1 => (None, None),
            VocabAlgo::Alg2 => {
                let a = softmax.matmul(self.weight.value())?;
                let n = labels.len() as f32;
                let mut bg = Tensor::zeros(x.rows(), x.cols());
                for (row, local) in self.local_labels(labels) {
                    let w_row = self.weight.value().row(local).to_vec();
                    for (dst, src) in bg.row_mut(row).iter_mut().zip(w_row) {
                        *dst = src / n;
                    }
                }
                (Some(a), Some(bg))
            }
        };
        Ok(SState {
            softmax,
            stats,
            labels: labels.to_vec(),
            label_logit,
            a,
            b,
            rescaled: false,
            shard_start: self.shard_start(),
        })
    }

    // ---------------------------------------------------------------------
    // Barriers (delegating to [`SState`], which owns all the data the
    // barrier needs so it can run on a communication-stream thread)
    // ---------------------------------------------------------------------

    /// The single barrier of Algorithm 2 (`C1`): all-reduces the softmax
    /// statistics, assembles `∇X` from the pre-computed matmuls
    /// (`∇X = corr·A − B`, Eq. 6) and all-reduces it; rescales the stored
    /// softmax for the deferred `T` pass.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the state was not
    /// produced by an Algorithm-2 `S` pass or a collective fails.
    pub fn barrier_alg2(&self, comm: &Collective, state: &mut SState) -> Result<BarrierOutput> {
        state.barrier_alg2(comm)
    }

    /// Algorithm 1's first barrier (`C1`): all-reduces the statistics and
    /// rescales the stored softmax to the global softmax.
    ///
    /// # Errors
    ///
    /// Returns an error if a collective fails.
    pub fn barrier_alg1(&self, comm: &Collective, state: &mut SState) -> Result<BarrierOutput> {
        state.barrier_alg1(comm)
    }

    /// Algorithm 1's second barrier (`C2`): all-reduces the partial input
    /// gradients produced by [`Self::t_pass_alg1`].
    ///
    /// # Errors
    ///
    /// Returns an error if the collective fails.
    pub fn barrier_c2(&self, comm: &Collective, mut dx_partial: Tensor) -> Result<Tensor> {
        comm.all_reduce(dx_partial.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        Ok(dx_partial)
    }

    // ---------------------------------------------------------------------
    // T pass
    // ---------------------------------------------------------------------

    /// Builds `(softmax − G)/N` for this shard from a rescaled state.
    fn dy(&self, state: &SState) -> Result<Tensor> {
        if !state.rescaled {
            return Err(TensorError::InvalidArgument(
                "T pass requires the barrier to have rescaled the softmax".into(),
            ));
        }
        let n = state.labels.len() as f32;
        let mut dy = state.softmax.scale(1.0 / n);
        for (row, local) in state.local_labels() {
            *dy.at_mut(row, local) -= 1.0 / n;
        }
        Ok(dy)
    }

    /// Algorithm 1's `T` pass: computes the partial input gradient
    /// `∇X′ = (softmax − G)/N · W` (to be reduced by `C2`) and accumulates
    /// the weight gradient `∇W = ((softmax − G)/N)ᵀ · X`.
    ///
    /// # Errors
    ///
    /// Returns an error if the barrier has not rescaled the state or `x`
    /// has the wrong shape.
    pub fn t_pass_alg1(&mut self, state: &SState, x: &Tensor) -> Result<Tensor> {
        let dy = self.dy(state)?;
        let dx_partial = dy.matmul(self.weight.value())?;
        let dw = dy.matmul_tn(x)?;
        self.weight.accumulate(&dw)?;
        Ok(dx_partial)
    }

    /// Algorithm 2's deferred `T` pass: only the weight gradient — no
    /// other pass depends on it, so schedules may run it arbitrarily late
    /// (the zero-bubble affinity noted in §4.4).
    ///
    /// # Errors
    ///
    /// Returns an error if the barrier has not rescaled the state or `x`
    /// has the wrong shape.
    pub fn t_pass_alg2(&mut self, state: &SState, x: &Tensor) -> Result<()> {
        let dy = self.dy(state)?;
        let dw = dy.matmul_tn(x)?;
        self.weight.accumulate(&dw)
    }

    // ---------------------------------------------------------------------
    // Naive path and convenience wrapper
    // ---------------------------------------------------------------------

    /// The naive §4.1 grouping with its three inline barriers: all-reduce
    /// of the maxima (`F1`), all-reduce of the exponential sums (`F2`),
    /// then the backward matmuls and the `∇X` reduce (`B`).
    ///
    /// # Errors
    ///
    /// Returns shape/label errors as in [`Self::s_pass`].
    pub fn forward_backward_naive(
        &mut self,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f64, Tensor)> {
        // F1: logits and global max.
        let y = x.matmul_nt(self.weight.value())?;
        let mut gmax = vp_tensor::ops::row_max(&y);
        comm.all_reduce(&mut gmax, ReduceOp::Max)
            .map_err(|e| comm_err(&e))?;
        // F2: shifted exponentials and global sum.
        let mut softmax = Tensor::zeros(y.rows(), y.cols());
        let mut local_sum = vec![0.0f32; y.rows()];
        for r in 0..y.rows() {
            let mut acc = 0.0f32;
            for (o, &v) in softmax.row_mut(r).iter_mut().zip(y.row(r)) {
                let e = (v - gmax[r]).exp();
                *o = e;
                acc += e;
            }
            local_sum[r] = acc;
        }
        let mut gsum = local_sum.clone();
        comm.all_reduce(&mut gsum, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        #[allow(clippy::needless_range_loop)] // r indexes softmax rows and gsum together
        for r in 0..y.rows() {
            if gsum[r] > 0.0 {
                let inv = 1.0 / gsum[r];
                for v in softmax.row_mut(r) {
                    *v *= inv;
                }
            }
        }
        // Loss.
        let n = labels.len();
        let mut label_logit = vec![0.0f32; n];
        for (row, local) in self.local_labels(labels) {
            label_logit[row] = y.at(row, local);
        }
        comm.all_reduce(&mut label_logit, ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        let loss = (0..n)
            .map(|i| (gmax[i] + gsum[i].ln() - label_logit[i]) as f64)
            .sum::<f64>()
            / n as f64;
        // B: gradients and the final reduce.
        let mut dy = softmax.scale(1.0 / n as f32);
        for (row, local) in self.local_labels(labels) {
            *dy.at_mut(row, local) -= 1.0 / n as f32;
        }
        let mut dx = dy.matmul(self.weight.value())?;
        let dw = dy.matmul_tn(x)?;
        self.weight.accumulate(&dw)?;
        comm.all_reduce(dx.data_mut(), ReduceOp::Sum)
            .map_err(|e| comm_err(&e))?;
        Ok((loss, dx))
    }

    /// Runs the full forward + backward for one microbatch with the chosen
    /// algorithm, returning the global loss and `∇X`. This is the
    /// pass-fused convenience path used by tests and the verification
    /// harness; the pipeline runtime drives the pass-level API instead.
    ///
    /// # Errors
    ///
    /// Propagates any shape, label or collective error.
    pub fn forward_backward(
        &mut self,
        algo: VocabAlgo,
        comm: &Collective,
        x: &Tensor,
        labels: &[usize],
    ) -> Result<(f64, Tensor)> {
        match algo {
            VocabAlgo::Naive => self.forward_backward_naive(comm, x, labels),
            VocabAlgo::Alg1 => {
                let mut state = self.s_pass(VocabAlgo::Alg1, x, labels)?;
                let out = self.barrier_alg1(comm, &mut state)?;
                let dx_partial = self.t_pass_alg1(&state, x)?;
                let dx = self.barrier_c2(comm, dx_partial)?;
                Ok((out.loss, dx))
            }
            VocabAlgo::Alg2 => {
                let mut state = self.s_pass(VocabAlgo::Alg2, x, labels)?;
                let out = self.barrier_alg2(comm, &mut state)?;
                self.t_pass_alg2(&state, x)?;
                Ok((out.loss, out.dx.expect("alg2 barrier produces dx")))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Forward-only (decode) output layer: sharded logits → local top-k/softmax
// stats → single-barrier merge → sampling
// ---------------------------------------------------------------------------

/// Decode-time `S`-pass state: per row, the shard's local softmax
/// statistics `(m', sum')` and its top-`k` logit candidates. This is
/// Algorithm 2's pre-barrier phase with the gradient matmuls deleted —
/// the single `C1` barrier then merges statistics *and* candidates in one
/// rendezvous ([`OutputShard::barrier_decode`]).
#[derive(Debug, Clone)]
pub struct DecodeSState {
    /// Per-row local max `m'`.
    max: Vec<f32>,
    /// Per-row local `sum' = Σ exp(y − m')`.
    sum: Vec<f32>,
    /// Per-row top-`k` `(logit, global token id)`, best first. Padded with
    /// `(−∞, 0)` when the shard has fewer than `k` columns.
    topk: Vec<Vec<(f32, usize)>>,
    /// Candidates per row (identical on every rank).
    k: usize,
}

impl DecodeSState {
    /// Rows (tokens being sampled) in this state.
    pub fn rows(&self) -> usize {
        self.max.len()
    }

    /// Candidates per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serializes the state into the flat all-gather payload: per row
    /// `[m', sum', (logit, id)×k]` — `2 + 2k` floats. This is the wire
    /// format [`merge_decode`] consumes; an overlapping engine builds the
    /// payload on the device thread, submits the all-gather to its
    /// communication stream, and merges when the handle resolves.
    pub fn payload(&self) -> Vec<f32> {
        let n = self.max.len();
        let stride = 2 + 2 * self.k;
        let mut payload = Vec::with_capacity(n * stride);
        for r in 0..n {
            payload.push(self.max[r]);
            payload.push(self.sum[r]);
            for &(logit, id) in &self.topk[r] {
                payload.push(logit);
                // Token ids are exact in f32 for any realistic vocabulary
                // (< 2^24); debug-checked below.
                debug_assert!(id < (1 << 24), "token id {id} not exact in f32");
                payload.push(id as f32);
            }
        }
        payload
    }
}

/// One sampled token and its log-probability under the *global* softmax
/// (identical on every rank after the barrier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenChoice {
    /// The sampled (greedy) token id.
    pub token: usize,
    /// `log softmax(Y)[token]` — a serving metric; unlike the token choice
    /// itself it is not bitwise-pinned across shard counts (the global
    /// `Σ sum'·e^{m'−m}` reduction order follows the rank order).
    pub logprob: f32,
}

/// `true` when candidate `(logit_a, id_a)` beats `(logit_b, id_b)` under
/// greedy decoding: strictly larger logit, ties to the lowest token id —
/// exactly [`vp_tensor::ops::argmax_rows`]'s first-maximum rule, so the
/// merged pick is bitwise the single-device argmax.
fn beats(a: (f32, usize), b: (f32, usize)) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// The row's `k` best `(logit, global id)` candidates, best first under
/// [`beats`], padded with `(−∞, 0)` when fewer than `k` qualify; `start`
/// is the global id of the row's first column. This is exactly the first
/// `k` entries of the row fully sorted by `beats`: ties go to the lowest
/// id and `−∞` logits are ranked like any other value. A `NaN` logit
/// never enters — it beats nothing, just as the strict `>` of
/// [`vp_tensor::ops::argmax_rows`] never moves its pick onto one.
///
/// The row streams through `k` slots: once they are full, a candidate
/// costs one comparison against the worst slot.
fn top_k(row: &[f32], start: usize, k: usize) -> Vec<(f32, usize)> {
    let mut best = Vec::with_capacity(k);
    for (c, &v) in row.iter().enumerate() {
        let cand = (v, start + c);
        if v.is_nan() {
            continue;
        }
        if best.len() == k {
            if !beats(cand, best[k - 1]) {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|&b| beats(b, cand));
        best.insert(at, cand);
    }
    best.resize(k, (f32::NEG_INFINITY, 0));
    best
}

impl OutputShard {
    /// The forward-only `S` pass: sharded logits `y = X·Wᵀ` plus local
    /// softmax statistics and the shard's top-`k` candidates. No labels,
    /// no gradients — this is the decode half of §4.2's `S` pass.
    ///
    /// The logits come from the weight packed once ([`Tensor::pack_nt`],
    /// cached until [`Self::weight_mut`]), so a step reads the shard in one
    /// stream instead of re-packing it — bitwise the same logits as
    /// `matmul_nt`. Each row then takes its max and exp-sum and streams
    /// through `k` candidate slots: the first `k` of the row sorted by
    /// logit (ties to the lowest id), padded with `(−∞, 0)`; a `NaN` logit
    /// never enters.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x` does not match the weight's hidden
    /// width, or [`TensorError::InvalidArgument`] if `k == 0`.
    pub fn s_pass_decode(&self, x: &Tensor, k: usize) -> Result<DecodeSState> {
        if k == 0 {
            return Err(TensorError::InvalidArgument(
                "decode needs at least one candidate per shard".into(),
            ));
        }
        let packed = self.packed.get_or_init(|| self.weight.value().pack_nt());
        let y = x.matmul_nt_packed(packed)?;
        let start = self.shard_start();
        let n = y.rows();
        let mut max = Vec::with_capacity(n);
        let mut sum = Vec::with_capacity(n);
        let mut topk = Vec::with_capacity(n);
        for r in 0..n {
            let row = y.row(r);
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            // The stats feed only the logprob metric, so plain `exp` is
            // fine here; the token choice below never touches them.
            let s: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            max.push(m);
            sum.push(s);
            topk.push(top_k(row, start, k));
        }
        Ok(DecodeSState { max, sum, topk, k })
    }

    /// Algorithm 2's **single** decode barrier: one `all_gather` carries
    /// every rank's `(m', sum')` statistics *and* top-`k` candidates;
    /// every rank then merges them identically — global max/sum by the
    /// standard safe-softmax combination, the greedy token as the best
    /// candidate under [`vp_tensor::ops::argmax_rows`]'s tie rule — so no
    /// second communication round is needed to agree on the sample.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the gathered payloads
    /// disagree in shape (ranks ran different step plans).
    pub fn barrier_decode(
        &self,
        comm: &Collective,
        state: &DecodeSState,
    ) -> Result<Vec<TokenChoice>> {
        let gathered = comm.all_gather(&state.payload());
        merge_decode(&gathered, state.rows(), state.k)
    }
}

/// The post-gather half of the decode barrier: merges every rank's
/// [`DecodeSState::payload`] identically — global max/sum by the standard
/// safe-softmax combination, the greedy token as the best candidate under
/// [`vp_tensor::ops::argmax_rows`]'s tie rule. Pure function of the
/// gathered shards, so the overlapping engine can run it in a `T` pass
/// long after the `S` pass that submitted the all-gather.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the gathered payloads
/// disagree in shape (ranks ran different step plans) or carry no
/// candidates.
pub fn merge_decode(gathered: &[Vec<f32>], rows: usize, k: usize) -> Result<Vec<TokenChoice>> {
    let stride = 2 + 2 * k;
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let mut gmax = f32::NEG_INFINITY;
        for shard in gathered {
            if shard.len() != rows * stride {
                return Err(TensorError::InvalidArgument(format!(
                    "decode barrier payload mismatch: {} vs {} floats",
                    shard.len(),
                    rows * stride
                )));
            }
            gmax = gmax.max(shard[r * stride]);
        }
        let mut gsum = 0.0f32;
        let mut best: Option<(f32, usize)> = None;
        for shard in gathered {
            let base = r * stride;
            let (m, s) = (shard[base], shard[base + 1]);
            gsum += s * (m - gmax).exp();
            for c in 0..k {
                let logit = shard[base + 2 + 2 * c];
                if logit == f32::NEG_INFINITY {
                    continue;
                }
                let id = shard[base + 2 + 2 * c + 1] as usize;
                if best.is_none() || beats((logit, id), best.expect("just checked")) {
                    best = Some((logit, id));
                }
            }
        }
        let (logit, token) = best.ok_or_else(|| {
            TensorError::InvalidArgument("decode barrier saw no candidates".into())
        })?;
        out.push(TokenChoice {
            token,
            logprob: logit - gmax - gsum.ln(),
        });
    }
    Ok(out)
}

fn comm_err(e: &vp_collectives::CollectiveError) -> TensorError {
    TensorError::InvalidArgument(format!("collective failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vp_collectives::CollectiveGroup;
    use vp_tensor::init::{normal, seeded_rng};
    use vp_tensor::nn::softmax_cross_entropy;

    /// Runs `algo` on `p` sharded threads and returns (loss, dx, dw-parts).
    fn run_sharded(
        algo: VocabAlgo,
        p: usize,
        full_w: &Tensor,
        x: &Tensor,
        labels: &[usize],
    ) -> (f64, Tensor, Vec<Tensor>) {
        let part = VocabPartition::new(full_w.rows(), p);
        let comms = CollectiveGroup::new(p);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for comm in comms {
                let rank = comm.rank();
                joins.push(scope.spawn(move || {
                    let mut shard = OutputShard::from_full(full_w, part, rank).unwrap();
                    let (loss, dx) = shard.forward_backward(algo, &comm, x, labels).unwrap();
                    (rank, loss, dx, shard.weight().grad().clone())
                }));
            }
            let mut results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            results.sort_by_key(|r| r.0);
            let loss = results[0].1;
            let dx = results[0].2.clone();
            // All ranks agree on loss and dx.
            for r in &results {
                assert!((r.1 - loss).abs() < 1e-5);
                assert!(r.2.max_abs_diff(&dx).unwrap() < 1e-5);
            }
            let dws = results.into_iter().map(|r| r.3).collect();
            (loss, dx, dws)
        })
    }

    fn reference(full_w: &Tensor, x: &Tensor, labels: &[usize]) -> (f64, Tensor, Tensor) {
        let logits = x.matmul_nt(full_w).unwrap();
        let (out, grad) = softmax_cross_entropy(&logits, labels).unwrap();
        let dx = grad.dlogits.matmul(full_w).unwrap();
        let dw = grad.dlogits.matmul_tn(x).unwrap();
        (out.loss, dx, dw)
    }

    fn check_algo(algo: VocabAlgo, p: usize, vocab: usize, seed: u64) {
        let (n, h) = (6, 8);
        let mut rng = seeded_rng(seed);
        let full_w = normal(&mut rng, vocab, h, 0.5);
        let x = normal(&mut rng, n, h, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| (i * 7 + seed as usize) % vocab).collect();
        let (ref_loss, ref_dx, ref_dw) = reference(&full_w, &x, &labels);
        let (loss, dx, dws) = run_sharded(algo, p, &full_w, &x, &labels);
        assert!(
            (loss - ref_loss).abs() < 1e-4,
            "{algo:?}: loss {loss} vs {ref_loss}"
        );
        assert!(
            dx.max_abs_diff(&ref_dx).unwrap() < 1e-4,
            "{algo:?}: dx mismatch"
        );
        // Stitch shard weight gradients back together.
        let part = VocabPartition::new(vocab, p);
        for (rank, dw) in dws.iter().enumerate() {
            let (start, _) = part.shard_range(rank);
            let end = (start + dw.rows()).min(vocab);
            let expected = ref_dw.slice_rows(start.min(end), end).unwrap();
            assert!(
                dw.max_abs_diff(&expected).unwrap() < 1e-4,
                "{algo:?}: dW mismatch on rank {rank}"
            );
        }
    }

    #[test]
    fn naive_matches_reference() {
        check_algo(VocabAlgo::Naive, 4, 32, 1);
    }

    #[test]
    fn alg1_matches_reference() {
        check_algo(VocabAlgo::Alg1, 4, 32, 2);
    }

    #[test]
    fn alg2_matches_reference() {
        check_algo(VocabAlgo::Alg2, 4, 32, 3);
    }

    #[test]
    fn uneven_shards_and_padding() {
        // 33 entries over 4 devices: padded to 40, shard width 10, the last
        // shard holds only 3 real rows.
        for algo in [VocabAlgo::Naive, VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 4, 33, 7);
        }
    }

    #[test]
    fn single_device_degenerates_to_reference() {
        for algo in [VocabAlgo::Naive, VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 1, 16, 11);
        }
    }

    #[test]
    fn many_devices_small_vocab() {
        // More devices than a comfortable split: some shards are tiny.
        for algo in [VocabAlgo::Alg1, VocabAlgo::Alg2] {
            check_algo(algo, 8, 19, 13);
        }
    }

    #[test]
    fn s_pass_validates_labels() {
        let part = VocabPartition::new(16, 2);
        let w = Tensor::zeros(8, 4);
        let shard = OutputShard::new(w, part, 0).unwrap();
        let x = Tensor::zeros(2, 4);
        assert!(shard.s_pass(VocabAlgo::Alg1, &x, &[0, 16]).is_err());
        assert!(shard.s_pass(VocabAlgo::Alg1, &x, &[0]).is_err());
    }

    #[test]
    fn t_pass_requires_barrier() {
        let part = VocabPartition::new(8, 1);
        let mut rng = seeded_rng(5);
        let w = normal(&mut rng, 8, 4, 1.0);
        let mut shard = OutputShard::new(w, part, 0).unwrap();
        let x = normal(&mut rng, 2, 4, 1.0);
        let state = shard.s_pass(VocabAlgo::Alg1, &x, &[0, 1]).unwrap();
        assert!(shard.t_pass_alg1(&state, &x).is_err());
    }

    #[test]
    fn wrong_shard_shape_is_rejected() {
        let part = VocabPartition::new(16, 2);
        assert!(OutputShard::new(Tensor::zeros(7, 4), part, 0).is_err());
    }

    /// Runs the decode S pass + single barrier on `p` sharded threads and
    /// returns every rank's merged choices (they must agree exactly).
    fn run_decode_sharded(p: usize, full_w: &Tensor, x: &Tensor, k: usize) -> Vec<TokenChoice> {
        let part = VocabPartition::new(full_w.rows(), p);
        let comms = CollectiveGroup::new(p);
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for comm in comms {
                let rank = comm.rank();
                joins.push(scope.spawn(move || {
                    let shard = OutputShard::from_full(full_w, part, rank).unwrap();
                    let state = shard.s_pass_decode(x, k).unwrap();
                    (rank, shard.barrier_decode(&comm, &state).unwrap())
                }));
            }
            let mut results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            results.sort_by_key(|r| r.0);
            for r in &results[1..] {
                assert_eq!(r.1, results[0].1, "ranks disagree on the merge");
            }
            results.swap_remove(0).1
        })
    }

    #[test]
    fn decode_merge_equals_single_device_argmax() {
        use vp_tensor::ops::{argmax_rows, softmax_rows};
        let (n, h, vocab) = (5, 8, 23);
        let mut rng = seeded_rng(91);
        let full_w = normal(&mut rng, vocab, h, 0.7);
        let x = normal(&mut rng, n, h, 1.0);
        let logits = x.matmul_nt(&full_w).unwrap();
        let expected = argmax_rows(&logits);
        let probs = softmax_rows(&logits);
        for p in [1, 2, 3, 4] {
            for k in [1, 4] {
                let choices = run_decode_sharded(p, &full_w, &x, k);
                let tokens: Vec<usize> = choices.iter().map(|c| c.token).collect();
                assert_eq!(tokens, expected, "p={p} k={k}");
                for (r, c) in choices.iter().enumerate() {
                    let want = probs.at(r, c.token).ln();
                    assert!(
                        (c.logprob - want).abs() < 1e-4,
                        "p={p} row {r}: logprob {} vs {want}",
                        c.logprob
                    );
                }
            }
        }
    }

    #[test]
    fn decode_tie_breaks_to_the_lowest_token_id_like_argmax() {
        // Identical weight rows ⇒ identical logits for several tokens;
        // argmax_rows keeps the first, so must the merge — including when
        // the tied ids live on different shards.
        let h = 4;
        let mut rng = seeded_rng(92);
        let row = normal(&mut rng, 1, h, 1.0);
        let mut w = Tensor::zeros(6, h);
        for r in 0..6 {
            w.row_mut(r).copy_from_slice(row.row(0));
        }
        let x = normal(&mut rng, 3, h, 1.0);
        let expected = vp_tensor::ops::argmax_rows(&x.matmul_nt(&w).unwrap());
        assert!(expected.iter().all(|&t| t == 0));
        for p in [1, 2, 3] {
            let tokens: Vec<usize> = run_decode_sharded(p, &w, &x, 2)
                .iter()
                .map(|c| c.token)
                .collect();
            assert_eq!(tokens, expected, "p={p}");
        }
    }

    /// The top-`k` the decode S pass used to build: the whole row sorted
    /// by [`beats`], truncated, then padded with `(−∞, 0)`.
    fn full_sort_topk(row: &[f32], start: usize, k: usize) -> Vec<(f32, usize)> {
        let mut cands: Vec<(f32, usize)> = row
            .iter()
            .enumerate()
            .map(|(c, &v)| (v, start + c))
            .collect();
        cands.sort_by(|a, b| {
            if beats(*a, *b) {
                std::cmp::Ordering::Less
            } else if beats(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        cands.truncate(k);
        cands.resize(k, (f32::NEG_INFINITY, 0));
        cands
    }

    fn bits(cands: &[(f32, usize)]) -> Vec<(u32, usize)> {
        cands.iter().map(|&(v, id)| (v.to_bits(), id)).collect()
    }

    #[test]
    fn streaming_topk_equals_the_full_sort() {
        let mut rng = seeded_rng(94);
        for trial in 0..200 {
            let width = 1 + trial % 37;
            // Coarse values repeat often; every fifth entry is −∞.
            let row: Vec<f32> = normal(&mut rng, 1, width, 2.0)
                .data()
                .iter()
                .enumerate()
                .map(|(c, &v)| {
                    if (c + trial) % 5 == 0 {
                        f32::NEG_INFINITY
                    } else {
                        (v * 2.0).round() * 0.5
                    }
                })
                .collect();
            let start = 1000 * trial;
            for k in [1, 2, 4, width, width + 3] {
                assert_eq!(
                    bits(&top_k(&row, start, k)),
                    bits(&full_sort_topk(&row, start, k)),
                    "trial {trial} width {width} k {k}: {row:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_topk_breaks_ties_to_the_lowest_id_and_pads() {
        let row = [1.0, 3.0, f32::NEG_INFINITY, 3.0, 1.0, 3.0];
        assert_eq!(top_k(&row, 10, 1), vec![(3.0, 11)]);
        assert_eq!(
            top_k(&row, 10, 4),
            vec![(3.0, 11), (3.0, 13), (3.0, 15), (1.0, 10)]
        );
        // k past the shard width: the −∞ entry keeps its id, then padding.
        assert_eq!(
            bits(&top_k(&row, 10, 8)),
            bits(&[
                (3.0, 11),
                (3.0, 13),
                (3.0, 15),
                (1.0, 10),
                (1.0, 14),
                (f32::NEG_INFINITY, 12),
                (f32::NEG_INFINITY, 0),
                (f32::NEG_INFINITY, 0),
            ])
        );
    }

    #[test]
    fn nan_logits_never_enter_the_topk() {
        // argmax_rows never picks a NaN (its `>` is false against one), so
        // the decode top-k skips NaN entries: it is the full sort of the
        // row with the NaNs removed, even when that leaves padding.
        let row = [-1.0, f32::NAN, 2.0, f32::NAN, 2.0, f32::NAN];
        let clean: Vec<f32> = row.iter().copied().filter(|v| !v.is_nan()).collect();
        let clean_ids = [0, 2, 4];
        for k in [1, 2, 3, 5] {
            let got = top_k(&row, 0, k);
            assert!(got.iter().all(|c| !c.0.is_nan()), "k {k}: {got:?}");
            let want: Vec<(f32, usize)> = full_sort_topk(&clean, 0, k)
                .into_iter()
                .map(|(v, c)| {
                    if v == f32::NEG_INFINITY {
                        (v, c)
                    } else {
                        (v, clean_ids[c])
                    }
                })
                .collect();
            assert_eq!(bits(&got), bits(&want), "k {k}");
        }
        let argmax = vp_tensor::ops::argmax_rows(&Tensor::from_vec(1, 6, row.to_vec()).unwrap());
        assert_eq!(argmax, vec![top_k(&row, 0, 1)[0].1]);
        // An all-NaN shard row offers no candidate: only padding.
        let nan_row = [f32::NAN; 3];
        assert_eq!(
            bits(&top_k(&nan_row, 0, 2)),
            bits(&[(f32::NEG_INFINITY, 0); 2])
        );
    }

    #[test]
    fn decode_topk_matches_the_full_sort_of_the_logits() {
        let (n, h, vocab, p) = (4, 8, 45, 2);
        let mut rng = seeded_rng(95);
        let full_w = normal(&mut rng, vocab, h, 0.7);
        let x = normal(&mut rng, n, h, 1.0);
        let part = VocabPartition::new(vocab, p);
        for rank in 0..p {
            let shard = OutputShard::from_full(&full_w, part, rank).unwrap();
            let logits = x.matmul_nt(shard.weight().value()).unwrap();
            for k in [1, 3, 40] {
                let state = shard.s_pass_decode(&x, k).unwrap();
                for r in 0..n {
                    assert_eq!(
                        bits(&state.topk[r]),
                        bits(&full_sort_topk(logits.row(r), shard.shard_start(), k)),
                        "rank {rank} k {k} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn stepped_shard_decodes_like_a_fresh_one() {
        use vp_tensor::optim::{Adam, Optimizer};
        let (h, vocab) = (8, 40);
        let mut rng = seeded_rng(96);
        let full_w = normal(&mut rng, vocab, h, 0.7);
        let x = normal(&mut rng, 3, h, 1.0);
        let part = VocabPartition::new(vocab, 2);
        let mut shard = OutputShard::from_full(&full_w, part, 1).unwrap();
        // Build the decode pack, then step the weight under it.
        let before = shard.s_pass_decode(&x, 4).unwrap().payload();
        let grad = normal(&mut rng, shard.weight().value().rows(), h, 1.0);
        shard.weight_mut().accumulate(&grad).unwrap();
        Adam::new(0.5).step(shard.weight_mut()).unwrap();
        let after = shard.s_pass_decode(&x, 4).unwrap().payload();
        let fresh = OutputShard::new(shard.weight().value().clone(), part, 1)
            .unwrap()
            .s_pass_decode(&x, 4)
            .unwrap()
            .payload();
        let to_bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&after), to_bits(&fresh));
        assert_ne!(
            to_bits(&after),
            to_bits(&before),
            "the step moved the logits"
        );
    }

    #[test]
    fn decode_rejects_zero_candidates() {
        let part = VocabPartition::new(8, 1);
        let mut rng = seeded_rng(93);
        let w = normal(&mut rng, 8, 4, 1.0);
        let shard = OutputShard::new(w, part, 0).unwrap();
        let x = normal(&mut rng, 2, 4, 1.0);
        assert!(shard.s_pass_decode(&x, 0).is_err());
    }
}
