//! Cross-layer tests of the cost-model-driven batch scheduler: the
//! acceptance scenario (LPT + async drain strictly beats a round-robin
//! deal drained in barrier-separated waves on a skewed mixed-size
//! batch) and property tests over random mixed-(N, q, kind) batches —
//! every job assigned exactly once, bank loads within the greedy LPT
//! bound, and results bit-identical to the CPU golden engine (which runs
//! the Shoup-lazy kernel for every modulus drawn here — all are inside
//! the `q < 2⁶²` lazy bound).

use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::{NttDirection, PimDevice, StoredOrder};
use ntt_pim::core::mapper::Program;
use ntt_pim::engine::batch::{BatchExecutor, JobKind, NttJob};
use ntt_pim::engine::CpuNttEngine;
use proptest::prelude::*;

fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

/// Golden-model result of one job.
fn golden(job: &NttJob) -> Vec<u64> {
    let cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        // A split large job is bit-identical to the whole forward NTT.
        JobKind::Forward | JobKind::SplitLarge => cpu.forward(&mut data, job.q).unwrap(),
        JobKind::Inverse => cpu.inverse(&mut data, job.q).unwrap(),
        JobKind::NegacyclicPolymul { rhs } => {
            cpu.negacyclic_polymul(&mut data, rhs, job.q).unwrap()
        }
    };
    data
}

/// The acceptance scenario: 12 jobs with skewed sizes (N ∈ {256, 4096})
/// on 4 banks. The baseline deals job i to bank i % 4 and drains the
/// queues in waves (queue position w on every bank) with a full-chip
/// barrier after each, so every wave pays for its slowest job; it is
/// built here from device primitives. The executor's LPT + async-drain
/// schedule must report clearly lower latency while producing
/// bit-identical spectra.
#[test]
fn lpt_async_drain_beats_round_robin_waves_on_skewed_batch() {
    const Q: u64 = 8_380_417; // 2^13 | q-1: covers N = 256 and 4096
    const BANKS: usize = 4;
    let jobs: Vec<NttJob> = (0..12)
        .map(|j| {
            let n = if j % 2 == 0 { 256 } else { 4096 };
            NttJob::new(poly(n, Q, 900 + j as u64), Q)
        })
        .collect();
    let config = PimConfig::hbm2e(2).with_banks(BANKS as u32);
    let out_lpt = BatchExecutor::new(config).unwrap().run(&jobs).unwrap();
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(out_lpt.spectra[i], golden(job), "job {i}");
    }

    // The wave baseline: each job mapped on its round-robin bank and
    // executed there (the values must agree with the executor's too).
    let mut dev = PimDevice::new(config).unwrap();
    let mut queues: Vec<Vec<Program>> = vec![Vec::new(); BANKS];
    for (i, job) in jobs.iter().enumerate() {
        let bank = i % BANKS;
        let coeffs: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
        let mut h = dev
            .load_in_bank(bank, 0, &coeffs, Q as u32, StoredOrder::BitReversed)
            .unwrap();
        let program = dev.build_ntt_program(&h, NttDirection::Forward).unwrap();
        dev.execute_program(bank, &program).unwrap();
        h.assume_order(StoredOrder::Natural);
        let got: Vec<u64> = dev
            .read_polynomial(&h)
            .unwrap()
            .into_iter()
            .map(u64::from)
            .collect();
        assert_eq!(got, out_lpt.spectra[i], "job {i} on its round-robin bank");
        queues[bank].push(program);
    }
    let waves = queues.iter().map(Vec::len).max().unwrap();
    assert_eq!(waves, 3, "12 jobs round-robin over 4 banks");
    // Each wave is timed alone; the barriers make the batch pay their sum.
    let waves_ns: f64 = (0..waves)
        .map(|w| {
            let wave: Vec<Vec<Program>> = queues
                .iter()
                .map(|queue| queue.get(w).cloned().into_iter().collect())
                .collect();
            dev.schedule_queues(&wave).unwrap().latency_ns
        })
        .sum();

    // The headline claim: strictly lower simulated batch latency.
    assert!(
        out_lpt.latency_ns < waves_ns,
        "LPT {:.0} ns must beat round-robin waves {:.0} ns on the skewed batch",
        out_lpt.latency_ns,
        waves_ns
    );
    // And not marginally: every wave is dominated by an N=4096 job; LPT
    // packs the six big jobs two-deep at worst.
    assert!(
        out_lpt.latency_ns < 0.9 * waves_ns,
        "expected a clear win, got {:.2}x",
        waves_ns / out_lpt.latency_ns
    );
}

/// Mixed job kinds flow through the batch path and the per-job latency
/// accounting covers every job.
#[test]
fn mixed_kind_batch_accounts_every_job() {
    const Q: u64 = 12289;
    let jobs = vec![
        NttJob::forward(poly(256, Q, 1), Q),
        NttJob::inverse(poly(1024, Q, 2), Q),
        NttJob::negacyclic_polymul(poly(256, Q, 3), poly(256, Q, 4), Q),
        NttJob::forward(poly(1024, Q, 5), Q),
    ];
    let mut exec = BatchExecutor::new(PimConfig::hbm2e(4).with_banks(3)).unwrap();
    let out = exec.run(&jobs).unwrap();
    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(out.spectra[i], golden(job), "job {i}");
    }
    assert!(out.job_latency_ns.iter().all(|&l| l > 0.0));
    let mut assigned: Vec<usize> = out.assignment.iter().flatten().copied().collect();
    assigned.sort_unstable();
    assert_eq!(assigned, vec![0, 1, 2, 3]);
}

/// Job pools compatible with each transform length (every q is prime
/// with 2N | q-1 and fits the 32-bit datapath).
fn moduli_for(n: usize) -> Vec<u64> {
    match n {
        64 | 128 | 256 => vec![12289, 7681, 8_380_417],
        1024 => vec![12289, 8_380_417],
        _ => vec![2_013_265_921],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn scheduler_properties_hold_on_random_mixed_batches(
        banks in prop::sample::select(vec![2usize, 3, 4]),
        specs in prop::collection::vec(
            (
                prop::sample::select(vec![64usize, 128, 256, 1024]),
                0u64..3,   // kind selector
                1u64..1_000_000,
            ),
            1..7,
        ),
    ) {
        let jobs: Vec<NttJob> = specs
            .iter()
            .enumerate()
            .map(|(i, &(n, kind, seed))| {
                let qs = moduli_for(n);
                let q = qs[(seed as usize + i) % qs.len()];
                match kind {
                    0 => NttJob::forward(poly(n, q, seed), q),
                    1 => NttJob::inverse(poly(n, q, seed ^ 0xabc), q),
                    _ => NttJob::negacyclic_polymul(
                        poly(n, q, seed ^ 0x123),
                        poly(n, q, seed ^ 0x456),
                        q,
                    ),
                }
            })
            .collect();
        let mut exec =
            BatchExecutor::new(PimConfig::hbm2e(2).with_banks(banks as u32)).unwrap();

        // --- Assignment properties (plan only, nothing executed) ------
        let plan = exec.plan(&jobs).unwrap();
        let mut assigned: Vec<usize> = plan.queues.iter().flatten().copied().collect();
        assigned.sort_unstable();
        let expect: Vec<usize> = (0..jobs.len()).collect();
        prop_assert_eq!(&assigned, &expect, "every job assigned exactly once");

        // Greedy-LPT bound: the heaviest bank carries at most the mean
        // load plus one maximal job — within one job of optimal.
        let loads: Vec<f64> = plan
            .queues
            .iter()
            .map(|q| q.iter().map(|&j| plan.costs[j]).sum())
            .collect();
        let max_load = loads.iter().cloned().fold(0.0, f64::max);
        let total: f64 = plan.costs.iter().sum();
        let max_cost = plan.costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(
            max_load <= total / banks as f64 + max_cost + 1e-6,
            "LPT bound violated: max {max_load}, total {total}, banks {banks}"
        );

        // --- Execution: bit-identical to the CPU golden engine --------
        let out = exec.run(&jobs).unwrap();
        for (i, job) in jobs.iter().enumerate() {
            prop_assert_eq!(&out.spectra[i], &golden(job), "job {}", i);
        }
        prop_assert!(out.latency_ns > 0.0);
    }
}
