//! Integration tests of the buffer arena's recycling and its numerics
//! contract: pooled outputs are **bitwise identical** to fresh-alloc
//! outputs, and steady-state repetition of the same computation is served
//! from the pool (reuse > 0, fresh ≈ 0 after warm-up).

use std::sync::{Mutex, MutexGuard, OnceLock};
use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::nn::{Gelu, LayerNorm, Linear};
use vp_tensor::{alloc, Tensor};

/// Serializes tests that toggle the process-global arena switch.
fn arena_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A small representative workload: linear + layer-norm + GELU forward and
/// a couple of matmul layouts, returning every output tensor.
fn workload(seed: u64) -> Vec<Tensor> {
    let mut rng = seeded_rng(seed);
    let x = normal(&mut rng, 33, 48, 1.0);
    let layer = Linear::new(&mut rng, 48, 32, true);
    let ln = LayerNorm::new(48);
    let gelu = Gelu::new();
    let (y, _) = layer.forward(&x).unwrap();
    let (normed, _) = ln.forward(&x).unwrap();
    let (act, cache) = gelu.forward(&x);
    let dact = gelu.backward(&cache, &normed).unwrap();
    let nt = y.matmul_nt(&y).unwrap();
    let tn = x.matmul_tn(&x).unwrap();
    vec![y, normed, act, dact, nt, tn]
}

fn assert_all_bits_eq(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (i, (ta, tb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ta.shape(), tb.shape(), "output {i} shape");
        for (x, y) in ta.data().iter().zip(tb.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "output {i} diverged");
        }
    }
}

#[test]
fn pooled_outputs_are_bitwise_identical_to_fresh() {
    let _guard = arena_lock();
    // Fresh: arena bypassed, every Vec comes from the system allocator.
    alloc::set_enabled(false);
    let fresh = workload(1234);
    // Pooled: run twice so the second pass reads recycled buffers.
    alloc::set_enabled(true);
    let warm = workload(1234);
    let pooled = workload(1234);
    assert_all_bits_eq(&fresh, &warm);
    assert_all_bits_eq(&fresh, &pooled);
}

#[test]
fn second_iteration_is_served_from_the_pool() {
    let _guard = arena_lock();
    alloc::set_enabled(true);
    // Warm-up: populate the pool with every shape the workload uses.
    drop(workload(77));
    alloc::reset_counters();
    let outputs = workload(77);
    let stats = alloc::stats();
    assert!(
        stats.reuse > 0,
        "second iteration must recycle buffers: {stats:?}"
    );
    // The live outputs themselves may have taken fresh buffers only if the
    // pool genuinely ran dry; with an identical warm-up iteration it must
    // not have.
    assert_eq!(
        stats.fresh, 0,
        "steady-state iteration must allocate nothing new: {stats:?}"
    );
    assert!(stats.reuse_ratio() > 0.99, "{stats:?}");
    drop(outputs);
}

#[test]
fn disabling_mid_run_still_produces_identical_results() {
    let _guard = arena_lock();
    alloc::set_enabled(true);
    let pooled = workload(5);
    alloc::set_enabled(false);
    let fresh = workload(5);
    alloc::set_enabled(true);
    assert_all_bits_eq(&pooled, &fresh);
}

#[test]
fn outstanding_tracks_live_tensors() {
    let _guard = arena_lock();
    alloc::set_enabled(true);
    let before = alloc::stats().outstanding;
    let t = Tensor::zeros(64, 64);
    let live = alloc::stats().outstanding;
    assert!(live > before, "taking a buffer must raise outstanding");
    drop(t);
    assert!(
        alloc::stats().outstanding < live,
        "dropping the tensor must release its buffer"
    );
}

#[test]
fn dropped_pack_returns_its_buffer_for_the_next_pack() {
    let _guard = arena_lock();
    alloc::set_enabled(true);
    let weight = normal(&mut seeded_rng(9), 300, 96, 1.0);
    let packed = weight.pack_nt();
    let live = alloc::stats().outstanding;
    drop(packed);
    assert_eq!(
        alloc::stats().outstanding,
        live - 1,
        "dropping a pack must release its buffer to the arena"
    );
    alloc::reset_counters();
    let again = weight.pack_nt();
    let stats = alloc::stats();
    assert_eq!(
        (stats.fresh, stats.reuse),
        (0, 1),
        "a pack of the same shape must reuse the released buffer: {stats:?}"
    );
    let copy = again.clone();
    let stats = alloc::stats();
    assert_eq!(stats.fresh + stats.reuse, 2, "a clone draws from the arena");
    assert_eq!(copy.shape(), again.shape());
}
