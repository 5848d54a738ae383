//! Packed, register-blocked GEMM kernels shared by every matmul layout.
//!
//! The three matmul layouts (`nn`: `A·B`, `nt`: `A·Bᵀ`, `tn`: `Aᵀ·B`) all
//! reduce over the shared dimension `k` with `p` strictly ascending per
//! output element. This module gives them one BLIS-style inner kernel:
//!
//! * **Packing.** For each `KC × NC` panel of the right operand, the driver
//!   copies the panel into a contiguous scratch buffer laid out in
//!   `NR`-wide column tiles (`panel[tile][p · NR + j]`). For `nt` this is
//!   the transposing copy that turns the layout's strided `Bᵀ` reads — the
//!   4.4× serial penalty the kernel bench used to show — into unit-stride
//!   streams. The left operand packs per `MC × KC` block into `MR`-row
//!   tiles (`apanel[p · MR + i]`; for `tn` this untransposes the
//!   column-major reads), packed **once per k-panel** and reused across
//!   every `NR` tile of the column panel — the old per-`MR`-tile repacking
//!   copied `A` `n/NC` times more than necessary. Both pack buffers draw
//!   from the buffer arena ([`crate::alloc`]), so steady-state GEMMs
//!   allocate nothing.
//! * **Packed once.** A right operand that outlives many products — the
//!   output layer's vocabulary shard, read by every decode step — can be
//!   packed ahead of time by [`pack_nt`] into the very tile layout `pack_b`
//!   produces, every `k` panel over all `n` columns (`Rhs::Packed`). The
//!   driver then reads each panel in place instead of re-packing it, so a
//!   one-row decode product is a single streaming read of the operand.
//!   Because the microkernel sees the same tile bytes either way, the
//!   packed and per-call paths are the same kernel and agree bitwise.
//! * **Microkernel.** [`microkernel`] accumulates an arch-tuned `MR × NR`
//!   register tile over one `k` panel: the tile is loaded from the output,
//!   every `p` term is added directly to its running element total, and the
//!   tile is stored once per panel — `k/KC` output round-trips instead of
//!   `k`. Only the tile's live rows are accumulated, so a one-row GEMV
//!   does one row of work rather than `MR`. The tile shape is chosen per
//!   target at compile time (the workspace builds with
//!   `target-cpu=native`): 8×32 with AVX-512 (16 accumulator registers of
//!   16 lanes), 6×16 with AVX2 (12 of 8), and the portable 4×8 otherwise.
//!   The `j` lanes are fully independent, so the compiler vectorizes them
//!   without reassociating anything.
//!
//! # Determinism contract
//!
//! Packing and register blocking are pure *data-movement* changes: each
//! output element still accumulates `a·b` terms one at a time in strictly
//! ascending `p` order starting from `0.0`, exactly the order of the plain
//! `i-k-j` triple loop. Results are therefore bitwise identical to the
//! unpacked kernels, for every layout, tile shape, tile remainder, thread
//! count and split direction (row chunks or column panels; see
//! [`crate::pool`]) — a column panel is just an independent subproblem over
//! the same `A`. Zero padding in edge tiles only ever feeds lanes whose
//! results are discarded, so `NaN`/`∞` propagation is untouched. As in the
//! unpacked kernels there is no `a == 0.0` fast path: `0·NaN` must stay
//! `NaN`. There is also no FMA: rustc never contracts `mul` + `add`, so
//! wider SIMD lanes cannot change a single bit of any output.
//!
//! The optional fused bias epilogue adds `bias[j]` to an output strip
//! immediately after the strip's final `k` panel — per element this is the
//! same `(Σₚ aₚ·bₚ) + bias` order as a separate full-output pass, so the
//! fused and unfused paths are bitwise identical too (while the strip is
//! still cache-hot, which is the point of fusing).

use crate::alloc;

/// Cache-block depth over the shared (`k`) dimension: one packed panel of
/// the right operand covers `KC` consecutive `p` values.
pub(crate) const KC: usize = 128;

/// Cache-block width over output columns: the packed right-operand panel
/// covers `NC` consecutive output columns (`NC` is a multiple of `NR`).
pub(crate) const NC: usize = 512;

/// Cache-block height over output rows: the packed left-operand block
/// covers `MC` consecutive rows and lives in L2 across the whole column
/// panel.
pub(crate) const MC: usize = 128;

/// Arch-tuned register tile: AVX-512 has 32 vector registers, so an 8×32
/// tile keeps 16 accumulators plus the two `b` vectors and the broadcast
/// resident.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 8;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 32;
}

/// Arch-tuned register tile: AVX2's 16 ymm registers fit a 6×16 tile (12
/// accumulators plus the two `b` vectors and the broadcast).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    not(target_feature = "avx512f")
))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 6;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 16;
}

/// Portable register tile for targets without wide x86 vectors (SSE2,
/// NEON, …).
#[cfg(not(any(
    all(target_arch = "x86_64", target_feature = "avx512f"),
    all(
        target_arch = "x86_64",
        target_feature = "avx2",
        not(target_feature = "avx512f")
    )
)))]
mod tile {
    /// Microkernel tile height (output rows held in registers).
    pub const MR: usize = 4;
    /// Microkernel tile width (a multiple of the f32 SIMD width).
    pub const NR: usize = 8;
}

pub(crate) use tile::{MR, NR};

/// How the operands of [`gemm_chunk`] are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `a: [m, k]` row-major, `b: [k, n]` row-major.
    Nn,
    /// `a: [m, k]` row-major, `b: [n, k]` row-major (used as `Bᵀ`).
    Nt,
    /// `a: [k, m]` row-major (used as `Aᵀ`, column reads), `b: [k, n]`.
    Tn,
}

/// The right operand of a [`Gemm`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rhs<'a> {
    /// Row-major in the problem's [`Layout`]; [`gemm_chunk`] packs every
    /// panel it visits into arena scratch.
    Plain(&'a [f32]),
    /// The whole operand already in packed tile layout ([`pack_nt`]);
    /// [`gemm_chunk`] reads its panels in place.
    Packed(&'a [f32]),
}

/// One GEMM problem: `out[i, j] += Σₚ A'[i, p] · B'[p, j]` where `A'`/`B'`
/// are the layout-adjusted views of `a` and `b`.
pub(crate) struct Gemm<'a> {
    pub a: &'a [f32],
    pub b: Rhs<'a>,
    /// Shared dimension.
    pub k: usize,
    /// Output columns of the *full* problem (the stride of `b`'s rows for
    /// `Nn`/`Tn`; column-panel runs compute a sub-range of these).
    pub n: usize,
    /// Output rows of the *full* problem (`Tn` needs it to stride `a`).
    pub m: usize,
    pub layout: Layout,
}

/// Write access to the output rows of one GEMM run.
///
/// The row-chunk split hands the kernel a contiguous `rows × width`
/// buffer ([`ContigRows`]); the column-panel split hands it a strided
/// panel ([`crate::pool::ColPanelMut`]). Either way `row_mut(r)` is the
/// `width`-wide output slice of chunk-local row `r`.
pub(crate) trait OutRows {
    /// Mutable output slice of chunk-local row `r`.
    fn row_mut(&mut self, r: usize) -> &mut [f32];
}

/// Contiguous row-major output rows (the row-chunk and serial paths).
pub(crate) struct ContigRows<'a> {
    pub buf: &'a mut [f32],
    pub width: usize,
}

impl OutRows for ContigRows<'_> {
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.buf[r * self.width..(r + 1) * self.width]
    }
}

impl OutRows for crate::pool::ColPanelMut<'_> {
    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f32] {
        crate::pool::ColPanelMut::row_mut(self, r)
    }
}

/// Accumulates the first `mr` rows of one `MR × NR` register tile over a
/// packed `k` panel.
///
/// `apanel` is `pc × MR` (`p`-major), `btile` is `pc × NR` (`p`-major).
/// Every `c[i][j]` element receives its `pc` terms one at a time in
/// ascending `p` order — the bitwise-identity invariant lives here. Rows
/// at or past `mr` are zero padding whose results the caller discards, so
/// they are skipped: a ragged tile (a decode GEMV has `mr = 1`) costs its
/// live rows only.
///
/// The row loop is outermost on purpose: each row's `NR`-wide accumulator
/// is a local that stays live across the whole `p` loop, so the compiler
/// holds it in vector registers and vectorizes along the contiguous `j`
/// axis (unit-stride `b` loads, broadcast `a`). With the `p` loop outside,
/// LLVM instead vectorized across the *row* axis and emitted
/// gather/scatter for every column of `c` — a 5× slowdown. Looping rows
/// first re-reads `btile` `mr` times, but the tile lives in L1 by
/// construction.
#[inline]
fn microkernel(apanel: &[f32], btile: &[f32], c: &mut [[f32; NR]; MR], mr: usize) {
    for (ir, crow) in c.iter_mut().enumerate().take(mr) {
        let mut acc = *crow;
        for (a, b) in apanel.chunks_exact(MR).zip(btile.chunks_exact(NR)) {
            // Fixed-size views: no bounds checks, full unroll of the width.
            let a: &[f32; MR] = a.try_into().unwrap();
            let b: &[f32; NR] = b.try_into().unwrap();
            let av = a[ir];
            for (cv, &bv) in acc.iter_mut().zip(b) {
                *cv += av * bv;
            }
        }
        *crow = acc;
    }
}

/// Packs the `pc × jc` panel of the layout-adjusted right operand `b`
/// starting at global column `j_abs`, `k` range `[p0, p0+pc)`, into
/// `NR`-wide column tiles. Ragged tile columns are zero-padded (their
/// microkernel lanes are discarded on write-back).
fn pack_b(
    g: &Gemm<'_>,
    b: &[f32],
    p0: usize,
    pc: usize,
    j_abs: usize,
    jc: usize,
    panel: &mut [f32],
) {
    let jtiles = jc.div_ceil(NR);
    for jt in 0..jtiles {
        let jbase = j_abs + jt * NR;
        let w = NR.min(j_abs + jc - jbase);
        let tile = &mut panel[jt * pc * NR..(jt + 1) * pc * NR];
        match g.layout {
            Layout::Nn | Layout::Tn => {
                // b is [k, n]: rows of the panel are contiguous slices.
                for (p, dst) in tile.chunks_exact_mut(NR).enumerate() {
                    let src = &b[(p0 + p) * g.n + jbase..(p0 + p) * g.n + jbase + w];
                    dst[..w].copy_from_slice(src);
                    dst[w..].fill(0.0);
                }
            }
            Layout::Nt => {
                // b is [n, k] used as Bᵀ: read each of the `w` rows of b
                // contiguously, scattering into the p-major tile — this is
                // the transposing copy that de-strides the nt layout.
                for jr in 0..w {
                    let src = &b[(jbase + jr) * g.k + p0..(jbase + jr) * g.k + p0 + pc];
                    for (p, &v) in src.iter().enumerate() {
                        tile[p * NR + jr] = v;
                    }
                }
                for jr in w..NR {
                    for p in 0..pc {
                        tile[p * NR + jr] = 0.0;
                    }
                }
            }
        }
    }
}

/// Packs the whole `nt` right operand `b: [n, k]` (used as `Bᵀ`) once, in
/// the tile layout [`gemm_chunk`] would otherwise build per call: for each
/// `KC` panel in ascending `p`, all `⌈n/NR⌉` column tiles of `pc × NR`.
/// Panel `p0` thus starts at `p0 · ⌈n/NR⌉ · NR` and tile `t` of it
/// `t · pc · NR` further on ([`packed_tiles`]). The buffer comes from the
/// arena, like every other tensor backing store, so a pack released by a
/// dropped engine serves the next engine's pack of the same shape.
pub(crate) fn pack_nt(b: &[f32], n: usize, k: usize) -> Vec<f32> {
    let ntiles = n.div_ceil(NR);
    let mut packed = alloc::take_zeroed(ntiles * NR * k);
    let g = Gemm {
        a: &[],
        b: Rhs::Plain(b),
        k,
        n,
        m: 0,
        layout: Layout::Nt,
    };
    for p0 in (0..k).step_by(KC) {
        let pc = KC.min(k - p0);
        let panel = &mut packed[p0 * ntiles * NR..][..ntiles * pc * NR];
        pack_b(&g, b, p0, pc, 0, n, panel);
    }
    packed
}

/// The `jtiles` packed tiles of panel `[p0, p0+pc)` starting at global
/// column `j_abs` (a multiple of `NR`) of an operand built by [`pack_nt`]
/// with `n` columns — exactly the buffer `pack_b` would have filled.
fn packed_tiles(
    packed: &[f32],
    n: usize,
    p0: usize,
    pc: usize,
    j_abs: usize,
    jtiles: usize,
) -> &[f32] {
    debug_assert_eq!(j_abs % NR, 0, "column panels start on a tile");
    let base = p0 * n.div_ceil(NR) * NR + (j_abs / NR) * pc * NR;
    &packed[base..base + jtiles * pc * NR]
}

/// Packs the `mc`-row block of the layout-adjusted left operand starting at
/// global row `row0`, `k` range `[p0, p0+pc)`, into consecutive `p`-major
/// `MR`-row tiles (`block[tile][p · MR + i]`). Ragged tile rows are
/// zero-padded (results discarded on write-back).
fn pack_a_block(g: &Gemm<'_>, row0: usize, mc: usize, p0: usize, pc: usize, block: &mut [f32]) {
    let mtiles = mc.div_ceil(MR);
    for mt in 0..mtiles {
        let rbase = row0 + mt * MR;
        let mr = MR.min(row0 + mc - rbase);
        let apanel = &mut block[mt * pc * MR..(mt + 1) * pc * MR];
        match g.layout {
            Layout::Nn | Layout::Nt => {
                // a is [m, k]: each tile row is a contiguous slice of a.
                for ir in 0..mr {
                    let src = &g.a[(rbase + ir) * g.k + p0..(rbase + ir) * g.k + p0 + pc];
                    for (p, &v) in src.iter().enumerate() {
                        apanel[p * MR + ir] = v;
                    }
                }
                for ir in mr..MR {
                    for p in 0..pc {
                        apanel[p * MR + ir] = 0.0;
                    }
                }
            }
            Layout::Tn => {
                // a is [k, m] used as Aᵀ: each p supplies a contiguous row
                // fragment — packing untransposes the column-major reads.
                for (p, dst) in apanel.chunks_exact_mut(MR).enumerate().take(pc) {
                    let src = &g.a[(p0 + p) * g.m + rbase..(p0 + p) * g.m + rbase + mr];
                    dst[..mr].copy_from_slice(src);
                    dst[mr..].fill(0.0);
                }
            }
        }
    }
}

/// Runs the packed GEMM over output rows `[i0, i0 + rows)` and the global
/// column window `[j_off, j_off + jcols)`, writing through `out` (whose
/// chunk-local rows are `jcols` wide). `bias`, when present, is indexed by
/// *global* column and fused into each output strip after its final `k`
/// panel.
///
/// This is the per-task kernel both pool splits dispatch: the row split
/// passes `j_off = 0, jcols = g.n` with a contiguous chunk, the column
/// split passes its panel's window over all rows. With one thread it runs
/// the whole output.
pub(crate) fn gemm_chunk<O: OutRows>(
    g: &Gemm<'_>,
    i0: usize,
    rows: usize,
    j_off: usize,
    jcols: usize,
    out: &mut O,
    bias: Option<&[f32]>,
) {
    if jcols == 0 || rows == 0 {
        return;
    }
    // Pack scratch comes from the arena, recycled across calls (and across
    // threads' independent chunks — each task takes its own buffers). A
    // pre-packed right operand needs no B scratch at all.
    let mut bpanel = match g.b {
        Rhs::Plain(_) => alloc::take_zeroed(KC * NC.min(jcols.next_multiple_of(NR))),
        Rhs::Packed(_) => Vec::new(),
    };
    let mut ablock = alloc::take_zeroed(KC * MC.min(rows).next_multiple_of(MR));
    for j0 in (0..jcols).step_by(NC) {
        let jc = NC.min(jcols - j0);
        let jtiles = jc.div_ceil(NR);
        for p0 in (0..g.k).step_by(KC) {
            let pc = KC.min(g.k - p0);
            let btiles: &[f32] = match g.b {
                Rhs::Plain(b) => {
                    let panel = &mut bpanel[..jtiles * pc * NR];
                    pack_b(g, b, p0, pc, j_off + j0, jc, panel);
                    panel
                }
                Rhs::Packed(packed) => packed_tiles(packed, g.n, p0, pc, j_off + j0, jtiles),
            };
            for ib in (0..rows).step_by(MC) {
                let mc = MC.min(rows - ib);
                let mtiles = mc.div_ceil(MR);
                // One A pack per (k-panel, row block), reused across every
                // NR tile of the column panel.
                pack_a_block(g, i0 + ib, mc, p0, pc, &mut ablock[..mtiles * pc * MR]);
                for mt in 0..mtiles {
                    let r0 = ib + mt * MR;
                    // Clamp to the packed block, not the whole chunk: when
                    // MC % MR != 0 (the 6-row AVX2 tile) the last tile of a
                    // non-final block would otherwise spill into the next
                    // block's rows, adding `0·b` terms from the zero padding
                    // (x + 0·∞ = NaN, -0.0 + 0.0 = +0.0) before those rows'
                    // own block runs.
                    let mr = MR.min(ib + mc - r0);
                    let apanel = &ablock[mt * pc * MR..(mt + 1) * pc * MR];
                    for jt in 0..jtiles {
                        let jbase = j0 + jt * NR;
                        let w = NR.min(j0 + jc - jbase);
                        let mut c = [[0.0f32; NR]; MR];
                        for (ir, crow) in c.iter_mut().enumerate().take(mr) {
                            let src = &out.row_mut(r0 + ir)[jbase..jbase + w];
                            crow[..w].copy_from_slice(src);
                        }
                        microkernel(apanel, &btiles[jt * pc * NR..][..pc * NR], &mut c, mr);
                        for (ir, crow) in c.iter().enumerate().take(mr) {
                            let dst = &mut out.row_mut(r0 + ir)[jbase..jbase + w];
                            dst.copy_from_slice(&crow[..w]);
                        }
                    }
                }
            }
        }
        if let Some(bias) = bias {
            // Fused epilogue: the strip's k-accumulation just finished, so
            // per element this is exactly `matmul-result + bias` — bitwise
            // equal to the unfused second pass, but while the strip is hot.
            let brow = &bias[j_off + j0..j_off + j0 + jc];
            for r in 0..rows {
                let dst = &mut out.row_mut(r)[j0..j0 + jc];
                for (o, &bv) in dst.iter_mut().zip(brow) {
                    *o += bv;
                }
            }
        }
    }
    alloc::release(bpanel);
    alloc::release(ablock);
}
