//! Criterion benches of the scalar arithmetic kernels — the software
//! analogue of the CU datapath choice (§VI.B uses Montgomery reduction;
//! this quantifies the CU's 32-bit Montgomery vs the host's Shoup-lazy
//! vs 128-bit widening ground truth on the host).

use criterion::{criterion_group, criterion_main, Criterion};
use modmath::montgomery::Montgomery32;
use modmath::shoup;
use std::hint::black_box;

const Q32: u32 = 2_013_265_921;

fn bench_mul(c: &mut Criterion) {
    let mut group = c.benchmark_group("modmul");
    let m32 = Montgomery32::new(Q32).unwrap();
    let (x32, y32) = (m32.to_mont(123_456_789), m32.to_mont(987_654_321));

    group.bench_function("montgomery32", |b| {
        b.iter(|| m32.mul(black_box(x32), black_box(y32)))
    });
    group.bench_function("widening128", |b| {
        b.iter(|| {
            modmath::arith::mul_mod(
                black_box(123_456_789u64),
                black_box(987_654_321u64),
                Q32 as u64,
            )
        })
    });
    let w = 987_654_321u64;
    let ws = shoup::precompute(w, Q32 as u64);
    group.bench_function("shoup_lazy", |b| {
        b.iter(|| shoup::mul_lazy(black_box(123_456_789u64), w, ws, Q32 as u64))
    });
    group.finish();
}

fn bench_butterfly(c: &mut Criterion) {
    // One CT butterfly through each reduction scheme — the per-BU cost the
    // CU pipelines at 1200 MHz.
    let mut group = c.benchmark_group("butterfly");
    let m32 = Montgomery32::new(Q32).unwrap();
    let w = m32.to_mont(3);
    group.bench_function("ct_montgomery32", |b| {
        b.iter(|| {
            let (a, x) = (black_box(1_000_001u32), black_box(2_000_003u32));
            let t = m32.redc(x as u64 * w as u64);
            (m32.add(a, t), m32.sub(a, t))
        })
    });
    group.bench_function("ct_widening", |b| {
        b.iter(|| {
            let (a, x) = (black_box(1_000_001u64), black_box(2_000_003u64));
            let t = modmath::arith::mul_mod(x, 3, Q32 as u64);
            (
                modmath::arith::add_mod(a, t, Q32 as u64),
                modmath::arith::sub_mod(a, t, Q32 as u64),
            )
        })
    });
    let q = Q32 as u64;
    let ws = shoup::precompute(3, q);
    group.bench_function("ct_shoup_lazy", |b| {
        b.iter(|| {
            // The Harvey butterfly as the NTT kernels run it: one lazy
            // multiply, unreduced add/sub legs.
            let (a, x) = (black_box(1_000_001u64), black_box(2_000_003u64));
            let u = shoup::reduce_twice(a, q);
            let t = shoup::mul_lazy(x, 3, ws, q);
            (shoup::add_lazy(u, t, q), shoup::sub_lazy(u, t, q))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mul, bench_butterfly);
criterion_main!(benches);
