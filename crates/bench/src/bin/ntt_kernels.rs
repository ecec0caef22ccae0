//! `ntt_kernels` — machine-readable kernel face-off: widening (the
//! ground-truth kernel) vs Shoup-lazy (the one tuned scalar kernel,
//! [`NttPlan::forward`]) vs lane-batched forward NTT, per
//! `N ∈ {256, 1024, 4096, 8192}` and per modulus, written to
//! `BENCH_ntt.json` so the perf trajectory is tracked across PRs.
//!
//! The lane-batched column (`lanes8`) times a whole
//! [`LANE_BATCH`]-polynomial batch through [`NttPlan::forward_batch`] and
//! reports the amortized per-transform cost — the number a batch-rich
//! serving workload actually pays.
//!
//! At each grid point the three kernels are timed in rotation
//! ([`time_interleaved`]), so a change in machine speed while the point
//! runs reaches all three alike instead of biasing their ratios.
//!
//! Modes:
//!
//! * default — time every kernel on every valid `(N, q)` grid point
//!   (`--reps R` grid passes, default 3, min-merged per point) and
//!   write the JSON report (`--out PATH`, default `BENCH_ntt.json`).
//! * `--check` — after writing the report, exit non-zero unless (a) the
//!   Shoup-lazy kernel beats the widening kernel on every measured
//!   point, (b) Shoup-lazy reaches `--min-flagship-speedup` (default
//!   4.0) on the flagship point `N=4096, q=8380417`, and (c) the
//!   lane-batched kernel reaches `--min-lane-speedup` (default 1.5)
//!   over Shoup-lazy at every point with `N >= 1024`. This is the CI
//!   perf gate.
//! * `--smoke` — no timing: run one small lazy transform against the
//!   naive DFT, a negacyclic roundtrip, and a lane-batched batch
//!   (forward, inverse, polymul, ragged tail) against the scalar
//!   kernels, then exit. Run under the debug profile this executes
//!   every `debug_assert` bound check of both the scalar and the
//!   lane-batched lazy datapaths.

use modmath::bitrev::bitrev_permute;
use modmath::prime::NttField;
use ntt_pim_bench::pseudo_poly;
use ntt_ref::plan::NttPlan;
use std::hint::black_box;
use std::time::Instant;

const LENGTHS: [usize; 4] = [256, 1024, 4096, 8192];
const MODULI: [u64; 4] = [7681, 12289, 8_380_417, 2_013_265_921];
/// The acceptance point: Dilithium's modulus at its largest length.
const FLAGSHIP: (usize, u64) = (4096, 8_380_417);
/// Batch size for the lane-batched column: two full lane groups, the
/// serving layer's default micro-batch territory.
const LANE_BATCH: usize = 16;

#[derive(Debug, Clone)]
struct Point {
    n: usize,
    q: u64,
    kernel: &'static str,
    ns_per_transform: f64,
}

/// Best-case ns per call of each kernel (in-place transforms). Each
/// kernel's inner loop is calibrated once to ~2 ms per sample; then 7
/// rounds time every kernel once in turn, and each keeps its minimum.
/// The minimum — not the median — estimates a kernel's true cost on a
/// shared machine: interference only ever *adds* time, so the smallest
/// sample is the least-perturbed one. Taking the samples in rotation
/// spreads a slow period over every kernel rather than over whichever
/// one was being sampled. `--reps` min-merges whole grid passes on top
/// for longer-lived noise.
fn time_interleaved<const K: usize>(mut kernels: [&mut dyn FnMut(); K]) -> [f64; K] {
    const SAMPLES: usize = 7;
    let inner = kernels.each_mut().map(|f| {
        let t0 = Instant::now();
        f();
        let once = t0.elapsed().as_nanos().max(100) as f64;
        ((2.0e6 / once) as u64).clamp(1, 1_000_000)
    });
    let mut best = [f64::INFINITY; K];
    for _ in 0..SAMPLES {
        for ((f, &inner), best) in kernels.iter_mut().zip(&inner).zip(&mut best) {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            *best = best.min(t0.elapsed().as_nanos() as f64 / inner as f64);
        }
    }
    best
}

fn measure_grid() -> Vec<Point> {
    let mut points = Vec::new();
    for &n in &LENGTHS {
        for &q in &MODULI {
            // Skip grid points without a 2N-th root of unity (the same
            // capability rule the engine layer applies).
            if (q - 1) % (2 * n as u64) != 0 {
                continue;
            }
            let field = NttField::new(n, q).expect("validated grid point");
            let plan = NttPlan::new(field);
            assert!(plan.uses_lazy(), "all grid moduli are inside 2^62");

            // In-place forward transforms: output is reduced mod q, so it
            // is a valid input for the next iteration — no clone in the
            // timed region. Lane-batched: a whole LANE_BATCH through the
            // SoA kernel, amortized per transform; its batch feeds itself
            // across iterations the same way.
            let mut wide = pseudo_poly(n, q, n as u64 ^ q);
            let mut lazy = wide.clone();
            let mut batch: Vec<Vec<u64>> = (0..LANE_BATCH as u64)
                .map(|i| pseudo_poly(n, q, (n as u64 ^ q).wrapping_add(i)))
                .collect();
            let [widening, shoup, lanes] = time_interleaved([
                &mut || {
                    bitrev_permute(black_box(&mut wide));
                    ntt_ref::iterative::dit_from_bitrev_widening(&plan, &mut wide, false);
                },
                &mut || plan.forward(black_box(&mut lazy)),
                &mut || {
                    plan.forward_batch(black_box(&mut batch));
                },
            ]);
            for (kernel, ns_per_transform) in [
                ("widening", widening),
                ("shoup-lazy", shoup),
                (ntt_ref::lanes::kernel_label(), lanes / LANE_BATCH as f64),
            ] {
                points.push(Point {
                    n,
                    q,
                    kernel,
                    ns_per_transform,
                });
            }
        }
    }
    points
}

fn kernel_ns(points: &[Point], n: usize, q: u64, kernel: &str) -> Option<f64> {
    points
        .iter()
        .find(|p| p.n == n && p.q == q && p.kernel == kernel)
        .map(|p| p.ns_per_transform)
}

fn speedup(points: &[Point], n: usize, q: u64) -> Option<f64> {
    Some(kernel_ns(points, n, q, "widening")? / kernel_ns(points, n, q, "shoup-lazy")?)
}

/// Amortized lane-batched speedup over the scalar Shoup-lazy kernel.
fn lane_speedup(points: &[Point], n: usize, q: u64) -> Option<f64> {
    let lanes = kernel_ns(points, n, q, ntt_ref::lanes::kernel_label())?;
    Some(kernel_ns(points, n, q, "shoup-lazy")? / lanes)
}

fn render_json(points: &[Point]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"ntt_kernels\",\n");
    out.push_str("  \"unit\": \"ns_per_transform\",\n");
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"n\": {}, \"q\": {}, \"kernel\": \"{}\", \"ns_per_transform\": {:.1}, \"transforms_per_sec\": {:.0}}}{}\n",
            p.n,
            p.q,
            p.kernel,
            p.ns_per_transform,
            1.0e9 / p.ns_per_transform,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups_shoup_vs_widening\": [\n");
    let mut pairs: Vec<(usize, u64)> = Vec::new();
    for p in points {
        if !pairs.contains(&(p.n, p.q)) {
            pairs.push((p.n, p.q));
        }
    }
    for (i, &(n, q)) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"n\": {}, \"q\": {}, \"speedup\": {:.2}}}{}\n",
            n,
            q,
            speedup(points, n, q).expect("both kernels measured"),
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"lane_kernel\": \"{}\",\n  \"lane_batch\": {},\n",
        ntt_ref::lanes::kernel_label(),
        LANE_BATCH
    ));
    out.push_str("  \"speedups_lanes_vs_shoup\": [\n");
    for (i, &(n, q)) in pairs.iter().enumerate() {
        let sep = if i + 1 == pairs.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"n\": {}, \"q\": {}, \"speedup\": {:.2}}}{}\n",
            n,
            q,
            lane_speedup(points, n, q).expect("both kernels measured"),
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"flagship\": {{\"n\": {}, \"q\": {}, \"speedup\": {:.2}}},\n",
        FLAGSHIP.0,
        FLAGSHIP.1,
        speedup(points, FLAGSHIP.0, FLAGSHIP.1).expect("flagship point measured")
    ));
    out.push_str(&format!(
        "  \"lane_flagship\": {{\"n\": {}, \"q\": {}, \"speedup\": {:.2}}}\n",
        FLAGSHIP.0,
        FLAGSHIP.1,
        lane_speedup(points, FLAGSHIP.0, FLAGSHIP.1).expect("flagship point measured")
    ));
    out.push_str("}\n");
    out
}

/// One small lazy transform with every `debug_assert` bound check of the
/// lazy datapath executing (when compiled under the debug profile).
fn smoke() {
    let field = NttField::new(256, 12289).expect("NewHope field");
    let plan = NttPlan::new(field);
    assert!(plan.uses_lazy());
    let q = plan.modulus();
    let x = pseudo_poly(256, q, 7);
    let expect = ntt_ref::naive::ntt(plan.field(), &x);
    let mut got = x.clone();
    plan.forward(&mut got);
    assert_eq!(got, expect, "lazy forward matches the naive DFT");
    let mut v = x.clone();
    plan.forward_negacyclic(&mut v);
    plan.inverse_negacyclic(&mut v);
    assert_eq!(v, x, "negacyclic roundtrip");

    // Lane-batched kernel: bit-identical to the scalar path including
    // the ragged tail, with the SoA lazy-bound debug_asserts active.
    let polys: Vec<Vec<u64>> = (0..11).map(|i| pseudo_poly(256, q, 100 + i)).collect();
    let mut batch = polys.clone();
    assert_eq!(
        plan.forward_batch(&mut batch),
        ntt_ref::lanes::LANE_WIDTH,
        "one full lane group rides the lane kernel"
    );
    for (i, (b, p)) in batch.iter().zip(&polys).enumerate() {
        let mut expect = p.clone();
        plan.forward(&mut expect);
        assert_eq!(*b, expect, "lane-batched forward poly {i}");
    }
    assert_eq!(plan.inverse_batch(&mut batch), ntt_ref::lanes::LANE_WIDTH);
    assert_eq!(batch, polys, "lane-batched roundtrip");
    let rhs: Vec<Vec<u64>> = (0..11).map(|i| pseudo_poly(256, q, 200 + i)).collect();
    let mut lhs = polys.clone();
    plan.negacyclic_polymul_batch(&mut lhs, &rhs);
    for (i, ((got, a), b)) in lhs.iter().zip(&polys).zip(&rhs).enumerate() {
        let expect = ntt_ref::poly::mul_negacyclic(&plan, a, b);
        assert_eq!(*got, expect, "lane-batched polymul poly {i}");
    }

    println!(
        "smoke ok: lazy + lane-batched ({}) kernels match the scalar reference at N=256 \
         (debug_asserts active: {})",
        ntt_ref::lanes::kernel_label(),
        cfg!(debug_assertions)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let mut out_path = String::from("BENCH_ntt.json");
    let mut check = false;
    let mut min_flagship = 4.0f64;
    let mut min_lane = 1.5f64;
    let mut reps = 3usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            "--min-flagship-speedup" => {
                min_flagship = it
                    .next()
                    .expect("--min-flagship-speedup needs a value")
                    .parse()
                    .expect("numeric speedup");
            }
            "--min-lane-speedup" => {
                min_lane = it
                    .next()
                    .expect("--min-lane-speedup needs a value")
                    .parse()
                    .expect("numeric speedup");
            }
            "--reps" => {
                reps = it
                    .next()
                    .expect("--reps needs a count")
                    .parse()
                    .expect("numeric rep count");
                assert!(reps >= 1, "--reps must be at least 1");
            }
            other => panic!("unknown flag {other}"),
        }
    }

    // Min-merge whole grid passes: each point keeps its fastest rep, so
    // a noise burst during one pass cannot distort any ratio.
    let mut points = measure_grid();
    for _ in 1..reps {
        for (p, fresh) in points.iter_mut().zip(measure_grid()) {
            debug_assert!((p.n, p.q, p.kernel) == (fresh.n, fresh.q, fresh.kernel));
            p.ns_per_transform = p.ns_per_transform.min(fresh.ns_per_transform);
        }
    }
    for p in &points {
        println!(
            "N={:>5} q={:>8} {:<11} {:>10.1} ns/transform ({:>12.0} transforms/s)",
            p.n,
            p.q,
            p.kernel,
            p.ns_per_transform,
            1.0e9 / p.ns_per_transform
        );
    }
    let json = render_json(&points);
    std::fs::write(&out_path, &json).expect("write BENCH_ntt.json");
    println!("wrote {out_path}");

    let flagship = speedup(&points, FLAGSHIP.0, FLAGSHIP.1).expect("flagship measured");
    println!(
        "flagship speedup (shoup-lazy vs widening, N={}, q={}): {flagship:.2}x",
        FLAGSHIP.0, FLAGSHIP.1
    );
    let lane_flagship = lane_speedup(&points, FLAGSHIP.0, FLAGSHIP.1).expect("flagship measured");
    println!(
        "lane-batched speedup ({} vs shoup-lazy, N={}, q={}): {lane_flagship:.2}x",
        ntt_ref::lanes::kernel_label(),
        FLAGSHIP.0,
        FLAGSHIP.1
    );
    if check {
        let mut failed = false;
        for p in &points {
            if p.kernel != "widening" {
                continue;
            }
            let s = speedup(&points, p.n, p.q).expect("pair measured");
            if s <= 1.0 {
                eprintln!(
                    "FAIL: shoup-lazy does not beat widening at N={} q={} ({s:.2}x)",
                    p.n, p.q
                );
                failed = true;
            }
            // The lane kernel's twiddle-amortization gate. Small
            // transforms (N < 1024) are pack/unpack-bound and exempt —
            // the win there is real but noise-sized.
            if p.n >= 1024 {
                let s = lane_speedup(&points, p.n, p.q).expect("pair measured");
                if s < min_lane {
                    eprintln!(
                        "FAIL: lane-batched speedup {s:.2}x below the {min_lane:.1}x gate \
                         at N={} q={}",
                        p.n, p.q
                    );
                    failed = true;
                }
            }
        }
        if flagship < min_flagship {
            eprintln!("FAIL: flagship speedup {flagship:.2}x below the {min_flagship:.1}x gate");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: shoup-lazy beats widening everywhere, flagship >= {min_flagship:.1}x, \
             lane-batched >= {min_lane:.1}x at N >= 1024"
        );
    }
}
