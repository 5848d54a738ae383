//! Property tests of the pool's determinism contract: every threaded kernel
//! must be **bitwise identical** to its serial (`VP_THREADS=1`) counterpart
//! for all matmul layouts, edge shapes and thread counts — parallelism is
//! across independent output rows only, so no per-element reduction order
//! ever changes.

use std::sync::{Mutex, MutexGuard, OnceLock};
use vp_tensor::init::{normal, seeded_rng};
use vp_tensor::nn::{Gelu, LayerNorm};
use vp_tensor::ops::{local_softmax, row_max, softmax_rows};
use vp_tensor::{num_threads, pool, set_num_threads, Tensor};

/// Thread counts exercised against the serial reference.
const THREAD_COUNTS: &[usize] = &[1, 2, 7];

/// `(m, k, n)` shapes: empty, degenerate single-row/col, non-tile-multiple
/// and tile-aligned dimensions.
const SHAPES: &[(usize, usize, usize)] = &[
    (0, 5, 3),
    (5, 0, 3),
    (5, 3, 0),
    (1, 1, 1),
    (1, 37, 11),
    (37, 1, 11),
    (11, 37, 1),
    (17, 33, 29),
    (64, 64, 64),
    (65, 130, 31),
];

/// Serializes tests that reconfigure the process-global thread count, and
/// pretends the machine has plenty of cores for the duration: the dispatch
/// heuristic otherwise falls back to serial on a 1-core CI box, which would
/// make these threaded-vs-serial comparisons vacuous.
struct ConfigGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for ConfigGuard {
    fn drop(&mut self) {
        pool::set_assumed_cores(0);
    }
}

fn config_lock() -> ConfigGuard {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    pool::set_assumed_cores(16);
    ConfigGuard { _lock: guard }
}

/// Bitwise tensor equality (distinguishes `-0.0` from `0.0` and compares
/// NaN payloads exactly, unlike `PartialEq` on `f32`).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert!(bits_eq(a, b), "{what}: threaded result differs from serial");
}

#[test]
fn matmul_layouts_are_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(42);
    for &(m, k, n) in SHAPES {
        let a = normal(&mut rng, m, k, 1.0);
        let b = normal(&mut rng, k, n, 1.0);
        let b_t = normal(&mut rng, n, k, 1.0);
        let a_t = normal(&mut rng, k, m, 1.0);
        set_num_threads(1);
        let nn_ref = a.matmul(&b).unwrap();
        let nt_ref = a.matmul_nt(&b_t).unwrap();
        let tn_ref = a_t.matmul_tn(&b).unwrap();
        for &t in THREAD_COUNTS {
            set_num_threads(t);
            assert_bits_eq(
                &a.matmul(&b).unwrap(),
                &nn_ref,
                &format!("nn {m}x{k}x{n} t={t}"),
            );
            assert_bits_eq(
                &a.matmul_nt(&b_t).unwrap(),
                &nt_ref,
                &format!("nt {m}x{k}x{n} t={t}"),
            );
            assert_bits_eq(
                &a_t.matmul_tn(&b).unwrap(),
                &tn_ref,
                &format!("tn {m}x{k}x{n} t={t}"),
            );
        }
    }
    set_num_threads(before);
}

#[test]
fn matmul_with_nan_and_inf_is_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(7);
    let (m, k, n) = (33, 17, 29);
    let mut a = normal(&mut rng, m, k, 1.0);
    let b = normal(&mut rng, k, n, 1.0);
    *a.at_mut(3, 5) = f32::NAN;
    *a.at_mut(20, 0) = f32::INFINITY;
    *a.at_mut(7, 2) = 0.0;
    set_num_threads(1);
    let reference = a.matmul(&b).unwrap();
    for &t in THREAD_COUNTS {
        set_num_threads(t);
        assert_bits_eq(&a.matmul(&b).unwrap(), &reference, &format!("nn-nan t={t}"));
    }
    set_num_threads(before);
}

#[test]
fn softmax_family_is_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(11);
    for &(rows, cols) in &[(0usize, 4usize), (3, 0), (1, 129), (65, 1), (37, 257)] {
        let mut t = normal(&mut rng, rows, cols, 3.0);
        if rows > 2 && cols > 1 {
            // Exercise the fully-masked-row path too.
            for v in t.row_mut(1) {
                *v = f32::NEG_INFINITY;
            }
        }
        set_num_threads(1);
        let max_ref = row_max(&t);
        let sm_ref = softmax_rows(&t);
        let (local_ref, stats_ref) = local_softmax(&t);
        for &n in THREAD_COUNTS {
            set_num_threads(n);
            assert_eq!(
                row_max(&t).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                max_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row_max {rows}x{cols} t={n}"
            );
            assert_bits_eq(
                &softmax_rows(&t),
                &sm_ref,
                &format!("softmax {rows}x{cols} t={n}"),
            );
            let (local, stats) = local_softmax(&t);
            assert_bits_eq(
                &local,
                &local_ref,
                &format!("local_softmax {rows}x{cols} t={n}"),
            );
            assert_eq!(
                stats.sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stats_ref
                    .sum
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "local_softmax sums {rows}x{cols} t={n}"
            );
        }
    }
    set_num_threads(before);
}

#[test]
fn both_accuracy_policies_keep_threaded_bitwise_identical_to_serial() {
    // The determinism contract is policy-independent: whichever exp/tanh
    // the kernels use (libm reference or the fast polynomials), threading
    // splits only independent rows / column panels, so serial and threaded
    // outputs must match bit for bit under *either* policy.
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(29);
    let x = normal(&mut rng, 67, 96, 2.5);
    let logits = normal(&mut rng, 67, 96, 4.0);
    let gelu = Gelu::new();
    for policy in [false, true] {
        vp_tensor::mathx::set_fast_math(Some(policy));
        set_num_threads(1);
        let (gelu_ref, _) = gelu.forward(&x);
        let (sm_ref, stats_ref) = local_softmax(&logits);
        for &t in THREAD_COUNTS {
            set_num_threads(t);
            let (g, _) = gelu.forward(&x);
            assert_bits_eq(&g, &gelu_ref, &format!("gelu fast={policy} t={t}"));
            let (sm, stats) = local_softmax(&logits);
            assert_bits_eq(&sm, &sm_ref, &format!("softmax fast={policy} t={t}"));
            assert_eq!(
                stats.sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                stats_ref
                    .sum
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "softmax sums fast={policy} t={t}"
            );
        }
    }
    vp_tensor::mathx::set_fast_math(None);
    set_num_threads(before);
}

#[test]
fn layer_norm_and_gelu_are_bitwise_identical_across_thread_counts() {
    let _guard = config_lock();
    let before = num_threads();
    let mut rng = seeded_rng(13);
    for &(rows, dim) in &[(1usize, 64usize), (33, 48), (130, 96)] {
        let x = normal(&mut rng, rows, dim, 2.0);
        let dy = normal(&mut rng, rows, dim, 1.0);
        let ln = LayerNorm::new(dim);
        let gelu = Gelu::new();
        set_num_threads(1);
        let (ln_ref, _) = ln.forward(&x).unwrap();
        let (gelu_ref, cache_ref) = gelu.forward(&x);
        let dx_ref = gelu.backward(&cache_ref, &dy).unwrap();
        for &t in THREAD_COUNTS {
            set_num_threads(t);
            let (y, _) = ln.forward(&x).unwrap();
            assert_bits_eq(&y, &ln_ref, &format!("layernorm {rows}x{dim} t={t}"));
            let (g, cache) = gelu.forward(&x);
            assert_bits_eq(&g, &gelu_ref, &format!("gelu {rows}x{dim} t={t}"));
            let dx = gelu.backward(&cache, &dy).unwrap();
            assert_bits_eq(&dx, &dx_ref, &format!("gelu_bwd {rows}x{dim} t={t}"));
        }
    }
    set_num_threads(before);
}

/// Holds a device-thread registration on a helper thread until the
/// returned sender is dropped, so a test can run as one of two device
/// threads.
fn hold_device_thread() -> (std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        let _device = pool::register_device_thread();
        ready_tx.send(()).unwrap();
        let _ = release_rx.recv();
    });
    ready_rx.recv().unwrap();
    (release_tx, handle)
}

/// Kernel parallelism as seen from a fresh, unregistered thread.
fn unregistered_parallelism() -> usize {
    std::thread::spawn(pool::effective_parallelism)
        .join()
        .unwrap()
}

#[test]
fn core_share_divides_the_cores_among_device_threads() {
    assert_eq!(pool::core_share(2, 2), 1);
    assert_eq!(pool::core_share(8, 2), 4);
    assert_eq!(pool::core_share(1, 4), 1);
    assert_eq!(pool::core_share(3, 2), 1);
    assert_eq!(pool::core_share(4, 0), 4, "no device threads: all cores");
}

#[test]
fn core_share_caps_only_registered_threads_and_ends_with_the_guard() {
    let _guard = config_lock();
    let before = num_threads();
    set_num_threads(8);
    pool::set_assumed_cores(4);
    assert_eq!(pool::effective_parallelism(), 4);
    let (release, other) = hold_device_thread();
    let device = pool::register_device_thread();
    assert_eq!(
        pool::effective_parallelism(),
        2,
        "4 cores / 2 device threads"
    );
    assert_eq!(unregistered_parallelism(), 4, "the cap must not leak");
    drop(device);
    assert_eq!(
        pool::effective_parallelism(),
        4,
        "the cap ends with the guard"
    );
    drop(release);
    other.join().unwrap();
    set_num_threads(before);
}

#[test]
fn single_thread_config_stays_serial_on_a_device_thread() {
    let _guard = config_lock();
    let before = num_threads();
    set_num_threads(1);
    let device = pool::register_device_thread();
    assert_eq!(pool::effective_parallelism(), 1);
    assert!(!pool::would_parallelize(usize::MAX / 2, usize::MAX));
    drop(device);
    set_num_threads(before);
}

#[test]
fn device_thread_gemm_runs_serially_and_matches_the_threaded_result() {
    let _guard = config_lock();
    let before = num_threads();
    let (m, k, n) = (32, 64, 16384);
    let mut rng = seeded_rng(21);
    let a = normal(&mut rng, m, k, 1.0);
    let b = normal(&mut rng, k, n, 1.0);
    set_num_threads(4);
    assert!(pool::would_parallelize(m, m * k * n), "16 assumed cores");
    let threaded = a.matmul(&b).unwrap();

    pool::set_assumed_cores(2);
    let (release, other) = hold_device_thread();
    let device = pool::register_device_thread();
    assert_eq!(pool::effective_parallelism(), 1);
    assert!(
        !pool::would_parallelize(m, m * k * n),
        "2 cores shared by 2 device threads must run inline"
    );
    let shared = a.matmul(&b).unwrap();
    drop(device);
    drop(release);
    other.join().unwrap();
    assert_bits_eq(&shared, &threaded, "32x64x16384 at core share 1");
    set_num_threads(before);
}
