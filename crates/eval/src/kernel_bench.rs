//! Micro-benchmarks for the linalg kernels under the streaming hot path.
//!
//! Each point times one kernel at one shape and reports achieved GFLOP/s
//! — the machine-readable companion to the end-to-end throughput sweep,
//! so a kernel regression is attributable without re-deriving it from
//! items/second. Every `m x k x n` shape runs three products: `matmul`
//! (`m x k` by `k x n`), `matmul_transa` (`(m x k)^T` by `m x n`, a
//! weight gradient over `m` rows) and `matmul_transb` (`m x k` by
//! `(n x k)^T`, a backprop `delta · W^T`). The shapes: StreamingLR's
//! 2-class head over 10 features (`256x10x2`); a wide and a deep layer
//! (`256x10x64`, `256x64x2`); the learner-drift MLP-32 on NSL-KDD's 20
//! features and 5 classes — hidden layer `256x20x32`, head `256x32x5`,
//! and `256x5x32`, whose transb is the head's backprop; and a square
//! block past the cache tiles (`128x128x128`). Narrow heads sit beside
//! wide layers on purpose: a kernel that falls off its register tiles at
//! some width shows as a GFLOP/s cliff between neighbouring shapes.
//!
//! `kmeans_fit` times one whole k-means fit at CEC's shapes on fixed
//! clustered inputs: NSL-KDD's 512 points (256 guidance + 256 batch
//! rows) of 20 features at k = 20, and Covertype's 512 x 10 at k = 28.
//! Its flop figure counts the textbook fit's distance arithmetic — a
//! subtract, a multiply and an add per point, centroid and dimension, for
//! the k seeds and for every assignment step including the final one,
//! `3·n·k·d·(iterations + 2)` — not the work the pruned fit does, and not
//! the update steps. So its GFLOP/s rises when pruning skips more, and a
//! k-means regression shows here beside the GEMM points. It is reported,
//! not gated; the k-means tests gate the pruning itself.
//!
//! Two points time the learner-drift long model's work whole, on NSL-KDD
//! batches: `mlp_gradient`, one weighted MLP gradient at `256x20>32>5`
//! (forward with its fused bias and ReLU, softmax, backward), and
//! `window_completion`, one window completion of that model (four
//! 256-row subsets, two epochs, each a weighted merge of the subsets'
//! gradients and one SGD step, as the bank runs it). Their flop figure
//! counts only the GEMMs: `2·rows·(20·32 + 32·5)` forward and
//! `2·rows·(20·32 + 2·32·5)` backward per gradient. bench_throughput
//! prints them beside [`freeway_linalg::lanes::BACKEND`], the register
//! form the kernels were built for.

use freeway_cluster::KMeans;
use freeway_linalg::{vector, Matrix};
use freeway_ml::{ModelSpec, PrecomputeAccumulator, Sgd, Trainer};
use freeway_streams::StreamGenerator;
use serde::Serialize;
use std::time::Instant;

/// One (kernel, shape) measurement.
#[derive(Clone, Debug, Serialize)]
pub struct KernelBenchPoint {
    /// Kernel name (`dot`, `axpy`, `matmul`, `matmul_transa`,
    /// `matmul_transb`, `softmax_rows`, `kmeans_fit`, `mlp_gradient`,
    /// `window_completion`).
    pub kernel: String,
    /// Shape tag, `m x k x n` for matmuls, `n x d kK` for `kmeans_fit`,
    /// `rows x features>hidden>classes` for the MLP points (prefixed by
    /// the subset count, and suffixed by the epochs, for
    /// `window_completion`), element count otherwise.
    pub shape: String,
    /// Floating-point operations per call (the conventional count, e.g.
    /// `2mkn` for matmul).
    pub flops_per_call: u64,
    /// Mean wall time per call in nanoseconds.
    pub ns_per_call: f64,
    /// Achieved throughput in GFLOP/s.
    pub gflops: f64,
}

/// Deterministic pseudo-random fill (no RNG dependency; value range keeps
/// softmax away from overflow).
fn fill(buf: &mut [f64], salt: u64) {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    }
}

/// `n` points of `d` features around `k` overlapping blob centres, taken
/// in turn; the overlap keeps Lloyd running about as many iterations as
/// CEC's fits (9–11 at the two shapes here).
fn clustered(n: usize, d: usize, k: usize, salt: u64) -> Matrix {
    let (mut centres, mut noise) = (vec![0.0; k * d], vec![0.0; n * d]);
    fill(&mut centres, salt);
    fill(&mut noise, salt + 1);
    let value = |i: usize| 3.0 * centres[(i / d) % k * d + i % d] + 2.0 * noise[i];
    Matrix::from_vec(n, d, (0..n * d).map(value).collect())
}

fn time_calls(flops_per_call: u64, mut call: impl FnMut() -> f64) -> (f64, f64) {
    // Warm up, then scale the repeat count so each measurement runs long
    // enough to dominate timer noise.
    let mut sink = 0.0;
    for _ in 0..3 {
        sink += call();
    }
    let probe = Instant::now();
    sink += call();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.02 / once) as usize).clamp(5, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        sink += call();
    }
    let total = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let ns_per_call = total * 1e9 / reps as f64;
    let gflops = flops_per_call as f64 * reps as f64 / total / 1e9;
    (ns_per_call, gflops)
}

/// Runs the full kernel sweep. Cheap enough for `--quick` CI runs
/// (tens of milliseconds per point).
pub fn run() -> Vec<KernelBenchPoint> {
    let mut points = Vec::new();

    // Vector kernels at the reduction lengths the models use.
    for &len in &[64usize, 1024] {
        let mut a = vec![0.0; len];
        let mut b = vec![0.0; len];
        fill(&mut a, 1);
        fill(&mut b, 2);
        let flops = 2 * len as u64;
        let (ns, gf) = time_calls(flops, || vector::dot(&a, &b));
        points.push(KernelBenchPoint {
            kernel: "dot".into(),
            shape: format!("{len}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
        let (ns, gf) = time_calls(flops, || {
            vector::axpy(&mut a, 1.000000001, &b);
            a[0]
        });
        points.push(KernelBenchPoint {
            kernel: "axpy".into(),
            shape: format!("{len}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
        fill(&mut a, 1);
    }

    // Matmul shapes (see the module doc): LR head, wide and deep layers,
    // the learner-drift MLP's layers, and a square block that exercises
    // the cache tiling.
    let matmul_shapes: [(usize, usize, usize); 7] = [
        (256, 10, 2),
        (256, 10, 64),
        (256, 64, 2),
        (256, 20, 32),
        (256, 32, 5),
        (256, 5, 32),
        (128, 128, 128),
    ];
    for &(m, k, n) in &matmul_shapes {
        let mut a = Matrix::zeros(m, k);
        let mut b = Matrix::zeros(k, n);
        fill(a.as_mut_slice(), 3);
        fill(b.as_mut_slice(), 4);
        let mut out = Matrix::zeros(0, 0);
        let flops = 2 * (m * k * n) as u64;
        let (ns, gf) = time_calls(flops, || {
            a.matmul_into(&b, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });

        // A^T B with A sized so the output matches the gradient shapes
        // (`features x classes` from `batch x features` and
        // `batch x classes`).
        let mut at = Matrix::zeros(m, k);
        let mut bt = Matrix::zeros(m, n);
        fill(at.as_mut_slice(), 5);
        fill(bt.as_mut_slice(), 6);
        let (ns, gf) = time_calls(flops, || {
            at.matmul_transa_into(&bt, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul_transa".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });

        let mut bb = Matrix::zeros(n, k);
        fill(bb.as_mut_slice(), 7);
        let (ns, gf) = time_calls(flops, || {
            a.matmul_transb_into(&bb, &mut out);
            out.as_slice()[0]
        });
        points.push(KernelBenchPoint {
            kernel: "matmul_transb".into(),
            shape: format!("{m}x{k}x{n}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
    }

    // Softmax at the LR head shape (exp-bound; counted as 5 flops per
    // element to make regressions visible, the constant is nominal).
    let mut logits = Matrix::zeros(256, 2);
    fill(logits.as_mut_slice(), 8);
    let base = logits.clone();
    let flops = 5 * 256 * 2;
    let (ns, gf) = time_calls(flops, || {
        logits.as_mut_slice().copy_from_slice(base.as_slice());
        freeway_ml::loss::softmax_rows(&mut logits);
        logits.as_slice()[0]
    });
    points.push(KernelBenchPoint {
        kernel: "softmax_rows".into(),
        shape: "256x2".into(),
        flops_per_call: flops,
        ns_per_call: ns,
        gflops: gf,
    });

    // CEC's k-means at its NSL-KDD and Covertype shapes (see the module
    // doc for what the flop figure counts).
    for &(n, d, k) in &[(512usize, 20usize, 20usize), (512, 10, 28)] {
        let data = clustered(n, d, k, 9);
        let km = KMeans::new(k, 7);
        let iterations = km.fit(&data).iterations;
        let flops = 3 * (n * k * d * (iterations + 2)) as u64;
        let (ns, gf) = time_calls(flops, || km.fit(&data).inertia);
        points.push(KernelBenchPoint {
            kernel: "kmeans_fit".into(),
            shape: format!("{n}x{d} k{k}"),
            flops_per_call: flops,
            ns_per_call: ns,
            gflops: gf,
        });
    }

    points.extend(learner_drift_long_model());
    points
}

/// The learner-drift long model's gradient and window completion (see the
/// module doc).
fn learner_drift_long_model() -> [KernelBenchPoint; 2] {
    const ROWS: usize = 256;
    const SUBSETS: usize = 4;
    const EPOCHS: usize = 2;
    let (features, hidden, classes) = (20, 32, 5);
    let mut generator = freeway_streams::datasets::nslkdd(7);
    let window: Vec<_> = (0..SUBSETS).map(|_| generator.next_batch(ROWS)).collect();
    let weights: Vec<f64> = (0..ROWS).map(|i| 0.5 + (i % 7) as f64 / 14.0).collect();
    let spec = ModelSpec::mlp(features, vec![hidden], classes);
    let mut trainer = Trainer::new(spec.build(0), Box::new(Sgd::new(0.05)));
    let gemm = 2 * ROWS * (features * hidden + hidden * classes)
        + 2 * ROWS * (features * hidden + 2 * hidden * classes);
    let flops = gemm as u64;
    let (x, y) = (&window[0].x, window[0].labels());
    let mut grad = Vec::new();
    let (ns, gf) = time_calls(flops, || {
        trainer.gradient_into(x, y, Some(&weights), &mut grad);
        grad[0]
    });
    let gradient = KernelBenchPoint {
        kernel: "mlp_gradient".into(),
        shape: format!("{ROWS}x{features}>{hidden}>{classes}"),
        flops_per_call: flops,
        ns_per_call: ns,
        gflops: gf,
    };
    let mut acc = PrecomputeAccumulator::new();
    let weight: f64 = weights.iter().sum();
    let flops = flops * (SUBSETS * EPOCHS) as u64;
    let (ns, gf) = time_calls(flops, || {
        for _ in 0..EPOCHS {
            for batch in &window {
                trainer.accumulate_gradient(&batch.x, batch.labels(), &weights, weight, &mut acc);
            }
            trainer.apply_merged(&mut acc);
        }
        acc.total_weight()
    });
    let completion = KernelBenchPoint {
        kernel: "window_completion".into(),
        shape: format!("{SUBSETS}x{ROWS}x{features}>{hidden}>{classes} {EPOCHS}ep"),
        flops_per_call: flops,
        ns_per_call: ns,
        gflops: gf,
    };
    [gradient, completion]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_reports_positive_rates() {
        let points = run();
        assert!(points.len() >= 10, "expected a full sweep, got {}", points.len());
        for p in &points {
            assert!(p.gflops > 0.0, "{p:?}");
            assert!(p.ns_per_call > 0.0, "{p:?}");
            assert!(p.flops_per_call > 0, "{p:?}");
        }
        // Every kernel family shows up.
        for kernel in [
            "dot",
            "axpy",
            "matmul",
            "matmul_transa",
            "matmul_transb",
            "softmax_rows",
            "kmeans_fit",
            "mlp_gradient",
            "window_completion",
        ] {
            assert!(points.iter().any(|p| p.kernel == kernel), "missing {kernel}");
        }
    }
}
