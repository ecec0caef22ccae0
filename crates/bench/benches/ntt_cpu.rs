//! Criterion benches of the CPU reference NTTs — the measured "x86
//! software" baseline of Figs. 7–8 / Table III (`NttPlan::forward`), next
//! to the self-sorting Stockham dataflow of §II.B and the four-step
//! decomposition, so the choice of iterative Cooley–Tukey for the
//! baseline is itself justified by data.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use modmath::prime::NttField;
use ntt_ref::plan::NttPlan;
use std::hint::black_box;

fn plans() -> Vec<(usize, NttPlan)> {
    [256usize, 1024, 4096]
        .iter()
        .map(|&n| {
            (
                n,
                NttPlan::new(NttField::with_bits(n, 31).expect("prime exists")),
            )
        })
        .collect()
}

fn bench_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_ntt_forward");
    for (n, plan) in plans() {
        let q = plan.modulus();
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 5) % q).collect();
        group.bench_with_input(BenchmarkId::new("iterative_dit", n), &plan, |b, p| {
            b.iter(|| {
                let mut v = data.clone();
                p.forward(black_box(&mut v));
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("stockham", n), &plan, |b, p| {
            b.iter(|| {
                let mut v = data.clone();
                ntt_ref::stockham::forward(p, black_box(&mut v));
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("four_step", n), &plan, |b, p| {
            b.iter(|| {
                let mut v = data.clone();
                let split = ntt_ref::four_step::plan_split(n, 1).expect("bench lengths split");
                ntt_ref::four_step::forward(p, black_box(&mut v), split.rows);
                v
            })
        });
    }
    group.finish();
}

/// The four-step step-2 kernel in isolation: scaling one row by the
/// powers of a fixed `ω^r`. `widening` is the old per-element
/// 128-bit-remainder loop; `shoup_otf` is the on-the-fly Shoup constant
/// datapath (`modmath::shoup::scale_geometric`): one quotient precompute
/// per row, one Shoup-lazy multiply per element.
fn bench_four_step_twiddle(c: &mut Criterion) {
    use modmath::arith::mul_mod;
    let mut group = c.benchmark_group("four_step_twiddle");
    for n in [1024usize, 4096] {
        let q = 8_380_417u64; // Dilithium's modulus, the bench-grid narrow case
        let w = 1753u64; // any reduced step: the kernel cost is data-independent
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 5) % q).collect();
        group.bench_with_input(BenchmarkId::new("widening", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                let mut tw = 1u64;
                for x in v.iter_mut() {
                    *x = mul_mod(*x, tw, q);
                    tw = mul_mod(tw, w, q);
                }
                v
            })
        });
        group.bench_with_input(BenchmarkId::new("shoup_otf", n), &n, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                modmath::shoup::scale_geometric(black_box(&mut v), w, q);
                v
            })
        });
    }
    group.finish();
}

fn bench_polymul(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_polymul_negacyclic");
    for (n, plan) in plans() {
        let q = plan.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 11 + 3) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 7) % q).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &plan, |bench, p| {
            bench.iter(|| ntt_ref::poly::mul_negacyclic(p, black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_forward,
    bench_four_step_twiddle,
    bench_polymul
);
criterion_main!(benches);
