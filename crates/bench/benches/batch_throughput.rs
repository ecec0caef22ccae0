//! Throughput of batched, bank-parallel NTT execution:
//! `BatchExecutor` fanning a fixed 16-job batch
//! across 1, 4, and 16 banks; the LPT schedule of a skewed mixed-size
//! batch; and the sequential CPU yardstick, each job alone on the golden
//! `CpuNttEngine`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_pim_core::config::PimConfig;

const Q: u64 = 12289;
const JOBS: usize = 16;

fn jobs(n: usize) -> Vec<NttJob> {
    (0..JOBS as u64)
        .map(|j| {
            NttJob::new(
                (0..n as u64)
                    .map(|i| (i.wrapping_mul(2654435761) ^ j) % Q)
                    .collect(),
                Q,
            )
        })
        .collect()
}

/// The ISSUE's skewed RNS-style batch: 12 jobs alternating N=256 and
/// N=4096 (q supports both: 2^13 | q-1).
fn skewed_jobs() -> Vec<NttJob> {
    const QS: u64 = 8_380_417;
    (0..12u64)
        .map(|j| {
            let n = if j % 2 == 0 { 256u64 } else { 4096 };
            NttJob::new(
                (0..n)
                    .map(|i| (i.wrapping_mul(2654435761) ^ j) % QS)
                    .collect(),
                QS,
            )
        })
        .collect()
}

fn bench_batch_across_banks(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput/16_jobs_n1024");
    group.sample_size(10);
    let batch = jobs(1024);
    for banks in [1u32, 4, 16] {
        // Device allocation stays outside the timed loop; runs overwrite
        // bank state, so one executor serves every iteration.
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(banks)).unwrap();
        group.bench_with_input(BenchmarkId::new("banks", banks), &banks, |b, _| {
            b.iter(|| {
                let out = exec.run(&batch).unwrap();
                assert_eq!(out.spectra.len(), JOBS);
                out.latency_ns
            })
        });
    }
    group.finish();
}

/// The LPT schedule of the skewed batch (12 jobs, N ∈ {256, 4096}, 4
/// banks). Criterion times the host-side simulation; the *simulated*
/// batch latency is printed once. Its comparison against a round-robin
/// deal drained in barrier-separated waves is the regression test
/// `tests/batch_scheduler.rs::lpt_async_drain_beats_round_robin_waves_on_skewed_batch`.
fn bench_skewed_lpt_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput/skewed_12jobs_n256_n4096_4banks");
    group.sample_size(10);
    let batch = skewed_jobs();
    let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
    let modeled = exec.run(&batch).unwrap();
    println!(
        "skewed batch, lpt: simulated latency {:>9.2} µs, {} waves",
        modeled.latency_us(),
        modeled.queue_report.depth()
    );
    group.bench_with_input(BenchmarkId::new("policy", "lpt"), &(), |b, ()| {
        b.iter(|| exec.run(&batch).unwrap().latency_ns)
    });
    group.finish();
}

fn bench_sequential_cpu_yardstick(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput/sequential_cpu");
    group.sample_size(10);
    for n in [256usize, 1024] {
        let batch = jobs(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &batch, |b, batch| {
            b.iter(|| {
                let cpu = CpuNttEngine::golden();
                batch
                    .iter()
                    .map(|job| {
                        let mut data = job.coeffs.clone();
                        cpu.forward(&mut data, job.q).unwrap();
                        data
                    })
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_batch_across_banks,
    bench_skewed_lpt_schedule,
    bench_sequential_cpu_yardstick
);
criterion_main!(benches);
