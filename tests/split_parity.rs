//! Split-vs-golden parity for the large-transform datapath: a
//! [`JobKind::SplitLarge`] job — column NTTs fanned across banks, the
//! twiddle+transpose stage, row NTTs fanned back — must be
//! **bit-identical** to the golden CPU forward NTT of the whole length,
//! for every length, modulus, and topology drawn.
//!
//! A note on the modulus grid: the issue's headline lengths are
//! N ∈ {8192, 16384, 32768}. Dilithium's q = 8380417 has
//! q−1 = 2¹³·1023, so `2N | q−1` holds only up to N = 4096 — no
//! 2N-th root of unity exists beyond that, for *any* implementation.
//! The large lengths therefore run on q = 2013265921 (= 15·2²⁷+1,
//! the NTT-friendly 31-bit prime, window N ≤ 2²⁶), and q = 8380417 is
//! exercised at the top of its own window (N = 4096) plus a negative
//! test proving the executor rejects it beyond the window instead of
//! producing garbage.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim::engine::CpuNttEngine;
use proptest::prelude::*;

/// 15·2²⁷ + 1: covers every headline length with room to spare.
const Q_LARGE: u64 = 2_013_265_921;
/// Dilithium's modulus: window capped at N = 4096 by 2N | q−1.
const Q_DILITHIUM: u64 = 8_380_417;

fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

fn executor(topology: (u32, u32, u32)) -> BatchExecutor {
    let config =
        PimConfig::hbm2e(2).with_topology(Topology::new(topology.0, topology.1, topology.2));
    config.validate().expect("valid config");
    BatchExecutor::new(config).expect("executor")
}

fn golden_forward(coeffs: &[u64], q: u64) -> Vec<u64> {
    let mut expect = coeffs.to_vec();
    CpuNttEngine::golden()
        .forward(&mut expect, q)
        .expect("golden forward");
    expect
}

/// One split job through the device, compared bit-for-bit.
fn check_split(n: usize, q: u64, topology: (u32, u32, u32), seed: u64) {
    let job = NttJob::split_large(poly(n, q, seed), q);
    let expect = golden_forward(&job.coeffs, q);
    let out = executor(topology).run(std::slice::from_ref(&job)).unwrap();
    assert_eq!(out.spectra[0], expect, "N={n} q={q} topology={topology:?}");
    assert_eq!(out.splits.len(), 1);
    assert_eq!(out.splits[0].rows * out.splits[0].cols, n);
}

proptest! {
    // Each case simulates a full large transform on the device model;
    // a handful of cases per run keeps the suite inside tier-1 budget
    // while the deterministic stream still walks the grid across runs.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn split_large_is_bit_identical_to_golden(
        n in prop::sample::select(vec![8192usize, 16384, 32768]),
        topology in prop::sample::select(vec![
            (1u32, 1u32, 4u32),
            (2, 2, 2),
            (4, 2, 2),
            (2, 1, 8),
        ]),
        seed in 1u64..1_000_000,
    ) {
        check_split(n, Q_LARGE, topology, seed);
    }

    #[test]
    fn split_co_packs_with_mixed_traffic_bit_identically(
        small_lengths in prop::collection::vec(
            prop::sample::select(vec![256usize, 1024, 2048]),
            2..6,
        ),
        topology in prop::sample::select(vec![
            (1u32, 1u32, 4u32),
            (2, 2, 2),
            (2, 1, 8),
        ]),
        seed in 1u64..1_000_000,
    ) {
        // One large split job rides with ordinary Dilithium-modulus
        // jobs (mixed moduli in one batch, the RNS traffic shape).
        let mut jobs = vec![NttJob::split_large(poly(8192, Q_LARGE, seed), Q_LARGE)];
        for (i, &n) in small_lengths.iter().enumerate() {
            jobs.push(NttJob::new(poly(n, Q_DILITHIUM, seed ^ (i as u64 + 1)), Q_DILITHIUM));
        }
        let out = executor(topology).run(&jobs).unwrap();
        for (i, job) in jobs.iter().enumerate() {
            prop_assert_eq!(
                &out.spectra[i],
                &golden_forward(&job.coeffs, job.q),
                "job {} (N={})", i, job.n()
            );
        }
        // Report consistency: the batch drains when its last job does,
        // and the split's stages are ordered (columns before the
        // barrier, rows after, completion last).
        let slowest = out.job_latency_ns.iter().cloned().fold(0.0f64, f64::max);
        prop_assert!((out.latency_ns - slowest).abs() < 1e-6);
        prop_assert!(out.splits[0].column_stage_ns < out.splits[0].latency_ns);
        prop_assert!((out.job_latency_ns[0] - out.splits[0].latency_ns).abs() < 1e-6);
    }
}

#[test]
fn small_jobs_are_never_starved_by_a_split() {
    // Row sub-jobs sort to the back of every bank queue, so an ordinary
    // job sharing a bank with the split's row stage always drains first.
    // With 64 row sub-jobs LPT-spread over 4 equal banks, every bank
    // hosts rows — each small job must complete strictly before the
    // split does.
    let mut jobs = vec![NttJob::split_large(poly(8192, Q_LARGE, 42), Q_LARGE)];
    for i in 0..4u64 {
        jobs.push(NttJob::new(poly(256, Q_DILITHIUM, i + 1), Q_DILITHIUM));
    }
    let out = executor((1, 1, 4)).run(&jobs).unwrap();
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(
            out.spectra[i],
            golden_forward(&job.coeffs, job.q),
            "job {i}"
        );
    }
    let split_done = out.splits[0].latency_ns;
    for (i, lat) in out.job_latency_ns.iter().enumerate().skip(1) {
        assert!(
            *lat < split_done,
            "ordinary job {i} ({lat} ns) starved past the split ({split_done} ns)"
        );
    }
}

#[test]
fn dilithium_modulus_splits_inside_its_window() {
    // The top of q = 8380417's window: N = 4096 is the largest length
    // with a 2N-th root of unity (q−1 = 2¹³·1023).
    for topology in [(1u32, 1u32, 4u32), (2, 2, 2), (4, 2, 2)] {
        check_split(4096, Q_DILITHIUM, topology, 0xD1C3);
    }
}

#[test]
fn dilithium_modulus_is_rejected_beyond_its_window() {
    // N = 8192 with q = 8380417 is mathematically impossible (no
    // 16384-th root of unity mod q); the executor must refuse it with
    // a typed shape error, never compute a wrong spectrum.
    let job = NttJob::split_large(poly(8192, Q_DILITHIUM, 7), Q_DILITHIUM);
    let err = executor((2, 2, 2))
        .run(std::slice::from_ref(&job))
        .unwrap_err();
    assert!(
        err.to_string().contains("2N-th root"),
        "error must name the 2N | q-1 window: {err}"
    );
}
