//! Topology integration tests: sharding the device across channels and
//! ranks changes *timing only* — values stay bit-identical to the
//! single-rank device and the CPU golden model — and adding channels is
//! a strict latency win on the batch workload the sharding exists for.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim::engine::CpuNttEngine;

const Q: u64 = 8_380_417; // 2^13 | q-1: supports every length used here

fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

/// The 64-job mixed-size batch of the scaling story (kept to moderate
/// lengths so the functional simulation stays fast under the test
/// profile; the `scaling` bench bin runs the full-size variant).
fn mixed_batch() -> Vec<NttJob> {
    (0..64)
        .map(|j| {
            let n = [256usize, 512, 1024, 512][j % 4];
            NttJob::new(poly(n, Q, 4000 + j as u64), Q)
        })
        .collect()
}

fn run_on(topology: Topology, jobs: &[NttJob]) -> ntt_pim::engine::batch::BatchOutcome {
    let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_topology(topology)).unwrap();
    exec.run(jobs).unwrap()
}

#[test]
fn sharded_device_is_bit_identical_to_single_rank_and_cpu_golden() {
    // Mixed kinds across a 2×2×2 topology vs the flat 8-bank device.
    let a = poly(256, Q, 1);
    let b = poly(256, Q, 2);
    let mut jobs: Vec<NttJob> = (0..6)
        .map(|j| NttJob::new(poly(512, Q, 10 + j), Q))
        .collect();
    jobs.push(NttJob::inverse(poly(256, Q, 20), Q));
    jobs.push(NttJob::negacyclic_polymul(a.clone(), b.clone(), Q));

    let sharded = run_on(Topology::new(2, 2, 2), &jobs);
    let flat = run_on(Topology::single_rank(8), &jobs);
    assert_eq!(
        sharded.spectra, flat.spectra,
        "topology must never change values"
    );

    // And both match the CPU golden engine job by job.
    let cpu = CpuNttEngine::golden();
    for (i, job) in jobs.iter().enumerate() {
        let mut expect = job.coeffs.clone();
        match &job.kind {
            ntt_pim::engine::batch::JobKind::Forward
            | ntt_pim::engine::batch::JobKind::SplitLarge => {
                cpu.forward(&mut expect, job.q).unwrap();
            }
            ntt_pim::engine::batch::JobKind::Inverse => {
                cpu.inverse(&mut expect, job.q).unwrap();
            }
            ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } => {
                cpu.negacyclic_polymul(&mut expect, rhs, job.q).unwrap();
            }
        }
        assert_eq!(sharded.spectra[i], expect, "job {i} vs CPU golden");
    }
}

#[test]
fn two_channels_strictly_beat_one_on_the_64_job_batch() {
    let jobs = mixed_batch();
    // Same 16-bank budget, reshaped: one shared bus/rank vs two private
    // buses with two private activation windows each.
    let flat = run_on(Topology::single_rank(16), &jobs);
    let sharded = run_on(Topology::new(2, 2, 4), &jobs);
    assert_eq!(flat.spectra, sharded.spectra, "same values either way");
    assert!(
        sharded.latency_ns < flat.latency_ns,
        "2x2x4 ({:.1} µs) must strictly beat 1x1x16 ({:.1} µs)",
        sharded.latency_ns / 1000.0,
        flat.latency_ns / 1000.0
    );
    // The win comes from splitting contention, not from doing less work.
    assert_eq!(sharded.bus_slots, flat.bus_slots);
    assert_eq!(sharded.queue_report.rank_acts, flat.queue_report.rank_acts);
    // Both channels carry real traffic (hierarchical LPT balances them).
    let per_channel = &sharded.queue_report.per_channel_bus_slots;
    assert_eq!(per_channel.len(), 2);
    for (ch, &slots) in per_channel.iter().enumerate() {
        assert!(slots > 0, "channel {ch} idle");
    }
    let imbalance = per_channel[0].abs_diff(per_channel[1]);
    assert!(
        (imbalance as f64) < 0.2 * sharded.bus_slots as f64,
        "channel loads should be roughly balanced: {per_channel:?}"
    );
}

#[test]
fn channel_scaling_is_monotone_on_the_64_job_batch() {
    // Scale-out axis: doubling the channel count (8 banks per channel
    // either way) must strictly help the 64-job batch.
    let jobs = mixed_batch();
    let one = run_on(Topology::new(1, 1, 8), &jobs);
    let two = run_on(Topology::new(2, 1, 8), &jobs);
    assert!(
        two.latency_ns < one.latency_ns,
        "2 channels {:.1} µs !< 1 channel {:.1} µs",
        two.latency_ns / 1000.0,
        one.latency_ns / 1000.0
    );
    assert_eq!(one.spectra, two.spectra);
}
