//! The batch executor's memo is invisible: mapped programs and LPT
//! queue reports are reused only where they are exactly what a fresh
//! mapping and schedule would produce.
//!
//! The proptest runs random batches (forward, inverse and negacyclic
//! jobs at N = 4…8192 over four moduli wherever they have the roots,
//! plus split transforms where the topology admits them) on random
//! topologies up to 4×2×4 with 1, 2, 4 or 6 atom buffers, same-row
//! grouping and refresh on and off, three times each: on a fresh
//! executor, again on the same executor (a memo hit), and on an executor
//! warmed by same-shaped batches with other values and by an unrelated
//! batch. The fresh run must match the golden model — forward, inverse
//! and product units, the column (DIT) and row (DIF) sub-jobs of a
//! split — and every `BatchOutcome` field must agree. The deterministic
//! tests pin the key: new mapper options, another modulus, and an
//! unreduced coefficient in a memoized shape.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::core::mapper::MapperOptions;
use ntt_pim::engine::batch::{
    validate_job, BatchExecutor, BatchOutcome, MemoStats, NttJob, BATCH_MEMO_CAP_UNITS,
    PROGRAM_MEMO_CAP_COMMANDS,
};
use ntt_pim::engine::{CpuNttEngine, EngineError};
use proptest::prelude::*;

/// The moduli the repository benchmark draws from.
const MODULI: [u64; 2] = [8_380_417, 2_013_265_921];

/// The moduli the proptest draws from: the benchmark's, plus 7681
/// (N ≤ 256) and 12289 (N ≤ 2048); a job whose modulus lacks the roots
/// is dropped by admission.
const GOLDEN_MODULI: [u64; 4] = [7681, 12289, 8_380_417, 2_013_265_921];

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

/// A job of kind `kind % 4` (forward, inverse, negacyclic product,
/// split) and length `2^log_n`.
fn job(kind: u8, log_n: u32, q: u64, seed: u64) -> NttJob {
    let n = 1usize << log_n;
    let coeffs = poly(n, q, seed);
    match kind % 4 {
        0 => NttJob::forward(coeffs, q),
        1 => NttJob::inverse(coeffs, q),
        2 => NttJob::negacyclic_polymul(coeffs, poly(n, q, seed ^ 0x5a5a), q),
        _ => NttJob::split_large(coeffs, q),
    }
}

/// The jobs of `spec` the device admits (each `(kind, log_n, q index,
/// seed)`), values drawn from `salt`. The single-buffer strawman has no
/// operand pair for a pointwise product and, at ten commands a
/// butterfly, runs lengths up to 1024 only.
fn batch(config: &PimConfig, spec: &[(u8, u32, usize, u64)], salt: u64) -> Vec<NttJob> {
    spec.iter()
        .filter(|&&(kind, log_n, _, _)| config.n_bufs > 1 || (kind % 4 != 2 && log_n <= 10))
        .map(|&(kind, log_n, qi, seed)| job(kind, log_n, GOLDEN_MODULI[qi % 4], seed ^ salt))
        .filter(|j| validate_job(config, j).is_ok())
        .collect()
}

/// Same shapes as `jobs`, other values.
fn revalued(jobs: &[NttJob], salt: u64) -> Vec<NttJob> {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| {
            let mut other = j.clone();
            other.coeffs = poly(j.n(), j.q, salt ^ i as u64);
            if let ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } = &mut other.kind {
                *rhs = poly(j.n(), j.q, salt ^ !(i as u64));
            }
            other
        })
        .collect()
}

/// Every field of two outcomes agrees (simulated numbers bit for bit).
fn assert_same(a: &BatchOutcome, b: &BatchOutcome, what: &str) {
    assert_eq!(a.spectra, b.spectra, "{what}: spectra");
    let (qa, qb) = (&a.queue_report, &b.queue_report);
    assert_eq!(qa.per_bank_ns, qb.per_bank_ns, "{what}: per_bank_ns");
    assert_eq!(
        qa.per_bank_energy_nj, qb.per_bank_energy_nj,
        "{what}: energy"
    );
    assert_eq!(qa.job_end_ns, qb.job_end_ns, "{what}: job_end_ns");
    assert_eq!(qa.latency_ns, qb.latency_ns, "{what}: latency");
    assert_eq!(qa.energy_nj, qb.energy_nj, "{what}: energy_nj");
    assert_eq!(qa.bus_slots, qb.bus_slots, "{what}: bus_slots");
    assert_eq!(qa.rank_acts, qb.rank_acts, "{what}: rank_acts");
    assert_eq!(
        qa.per_channel_bus_slots, qb.per_channel_bus_slots,
        "{what}: per_channel_bus_slots"
    );
    assert_eq!(qa.per_rank_acts, qb.per_rank_acts, "{what}: per_rank_acts");
    assert_eq!(qa.barrier_ns, qb.barrier_ns, "{what}: barrier_ns");
    assert_eq!(a.job_latency_ns, b.job_latency_ns, "{what}: job latency");
    assert_eq!(a.splits.len(), b.splits.len(), "{what}: splits");
    for (sa, sb) in a.splits.iter().zip(&b.splits) {
        assert_eq!(
            (sa.job, sa.rows, sa.cols, sa.column_stage_ns, sa.latency_ns),
            (sb.job, sb.rows, sb.cols, sb.column_stage_ns, sb.latency_ns),
            "{what}: split report"
        );
    }
    assert_eq!(a.assignment, b.assignment, "{what}: assignment");
    assert_eq!(a.latency_ns, b.latency_ns, "{what}: summary latency");
    assert_eq!(a.energy_nj, b.energy_nj, "{what}: summary energy");
    assert_eq!(a.bus_slots, b.bus_slots, "{what}: summary bus slots");
}

fn golden(job: &NttJob) -> Vec<u64> {
    let cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        ntt_pim::engine::batch::JobKind::Inverse => cpu.inverse(&mut data, job.q),
        ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } => {
            cpu.negacyclic_polymul(&mut data, rhs, job.q)
        }
        _ => cpu.forward(&mut data, job.q),
    }
    .expect("golden transform");
    data
}

fn assert_within_caps(exec: &BatchExecutor) {
    let stats = exec.memo_stats();
    assert!(
        stats.program_commands <= PROGRAM_MEMO_CAP_COMMANDS,
        "{stats:?}"
    );
    assert!(stats.batch_units <= BATCH_MEMO_CAP_UNITS, "{stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoized_runs_match_fresh_runs(
        channels in 1u32..=4,
        ranks in 1u32..=2,
        banks in 1u32..=4,
        nb in prop::sample::select(vec![1usize, 2, 4, 6]),
        grouping in any::<bool>(),
        refresh in any::<bool>(),
        spec in prop::collection::vec(
            (0u8..4, 2u32..=13, 0usize..4, any::<u64>()),
            1..6,
        ),
        other in prop::collection::vec(
            (0u8..4, 2u32..=10, 0usize..4, any::<u64>()),
            1..4,
        ),
    ) {
        let config = PimConfig::hbm2e(nb)
            .with_topology(Topology::new(channels, ranks, banks))
            .with_refresh(refresh);
        let opts = MapperOptions {
            group_same_row: grouping,
            ..MapperOptions::default()
        };
        let executor = || {
            let mut exec = BatchExecutor::new(config).unwrap();
            exec.device_mut().set_mapper_options(opts);
            exec
        };
        let jobs = batch(&config, &spec, 0);
        prop_assume!(!jobs.is_empty());

        let mut exec = executor();
        let fresh = exec.run(&jobs).unwrap();
        for (j, got) in jobs.iter().zip(&fresh.spectra) {
            prop_assert_eq!(got, &golden(j));
        }
        let before = exec.memo_stats();
        let again = exec.run(&jobs).unwrap();
        prop_assert_eq!(exec.memo_stats().batch_hits, before.batch_hits + 1);
        assert_same(&fresh, &again, "repeat on the same executor");

        let mut warmed = executor();
        warmed.run(&revalued(&jobs, 0xfeed)).unwrap();
        let unrelated = batch(&config, &other, 1);
        if !unrelated.is_empty() {
            warmed.run(&unrelated).unwrap();
        }
        let late = warmed.run(&jobs).unwrap();
        assert_same(&fresh, &late, "executor warmed by other batches");
        assert_within_caps(&exec);
        assert_within_caps(&warmed);
    }
}

/// The repository benchmark's replay topologies.
const BENCH_TOPOLOGIES: [(u32, u32, u32); 3] = [(1, 1, 16), (2, 2, 4), (4, 2, 2)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random mixed batches on the benchmark's topologies: forward,
    /// inverse and product jobs over the benchmark's moduli, with split
    /// transforms among them, each batch run on a fresh executor and
    /// then, with other values, as a memo hit. Both runs match golden:
    /// the words every unit loads, the split's memoized roots and row
    /// twiddles, and the read-back into the spectra.
    #[test]
    fn mixed_batches_match_golden_on_the_benchmark_topologies(
        spec in prop::collection::vec(
            (0u8..4, 6u32..=11, 0usize..2, any::<u64>()),
            1..7,
        ),
        salt in any::<u64>(),
    ) {
        for (c, r, b) in BENCH_TOPOLOGIES {
            let config = PimConfig::hbm2e(2).with_topology(Topology::new(c, r, b));
            // A split runs over the benchmark's split modulus, at 1024 or
            // 4096.
            let jobs: Vec<NttJob> = spec
                .iter()
                .map(|&(kind, log_n, qi, seed)| match kind {
                    3 => job(3, 10 + 2 * (log_n % 2), MODULI[1], seed),
                    _ => job(kind, log_n, MODULI[qi], seed),
                })
                .filter(|j| validate_job(&config, j).is_ok())
                .collect();
            let mut exec = BatchExecutor::new(config).unwrap();
            for (round, batch) in [jobs.clone(), revalued(&jobs, salt)].iter().enumerate() {
                let out = exec.run(batch).unwrap();
                for (i, (j, got)) in batch.iter().zip(&out.spectra).enumerate() {
                    prop_assert_eq!(got, &golden(j), "{}x{}x{} round {} job {}", c, r, b, round, i);
                }
            }
            prop_assert_eq!(exec.memo_stats().batch_hits, 1);
        }
    }
}

/// Validation's pass over a whole job's coefficients is also the pass that
/// lays them out for the bank, and it keeps the separate checks' errors:
/// the first offending job in job order is named, with the reason
/// `validate_job` gives, and a rejected batch moves no memo counter and
/// writes no bank.
#[test]
fn fused_validation_names_the_first_offending_job() {
    let config = PimConfig::hbm2e(2).with_banks(4);
    let [q1, q2] = MODULI;
    let mut exec = BatchExecutor::new(config).unwrap();
    let good = mixed(30);
    exec.run(&good).unwrap();
    let stats = exec.memo_stats();
    let window = |exec: &mut BatchExecutor| -> Vec<Vec<u32>> {
        let dev = exec.device_mut();
        (0..4)
            .map(|bank| {
                let all = dev
                    .operand(
                        bank,
                        0,
                        vec![0; 2048],
                        2,
                        ntt_pim::core::device::StoredOrder::Natural,
                    )
                    .unwrap();
                dev.read_polynomial(all.handle()).unwrap()
            })
            .collect()
    };
    let cells = window(&mut exec);
    let reject = |exec: &mut BatchExecutor, jobs: &[NttJob], want: &str| {
        let err = exec.run(jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason == want),
            "want {want:?}, got {err}"
        );
    };

    // An unreduced coefficient in job 1 and a bad length in job 3: job 1.
    let mut jobs = revalued(&good, 1);
    jobs[1].coeffs[17] = q2;
    jobs[3] = NttJob::split_large(vec![1; 48], q2);
    reject(&mut exec, &jobs, "job 1: coefficients not reduced modulo q");
    // Only the bad length left: job 3.
    jobs[1] = good[1].clone();
    reject(
        &mut exec,
        &jobs,
        "job 3: length 48 is not a power of two >= 4",
    );
    // An unreduced second operand of a product.
    let mut jobs = revalued(&good, 2);
    if let ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } = &mut jobs[2].kind {
        rhs[127] = q1 + 5;
    }
    reject(
        &mut exec,
        &jobs,
        "job 2: rhs coefficients not reduced modulo q",
    );
    // An unreduced word of a split transform's input, which its column
    // sub-jobs gather.
    let mut jobs = revalued(&good, 3);
    jobs[3].coeffs[1023] = u64::MAX;
    reject(&mut exec, &jobs, "job 3: coefficients not reduced modulo q");
    // The last word of a bit-reversed (forward) operand.
    let mut jobs = revalued(&good, 4);
    jobs[4].coeffs[255] = q1;
    reject(&mut exec, &jobs, "job 4: coefficients not reduced modulo q");

    assert_eq!(
        exec.memo_stats(),
        stats,
        "a rejected batch moved a memo counter"
    );
    assert_eq!(window(&mut exec), cells, "a rejected batch wrote a bank");
    // The memoized shape still serves the next valid batch.
    let next = revalued(&good, 5);
    let out = exec.run(&next).unwrap();
    for (i, j) in next.iter().enumerate() {
        assert_eq!(out.spectra[i], golden(j), "job {i}");
    }
}

/// Every way one job can be malformed, through the executor's fused
/// validation and through `validate_job`, reports the same reason — the
/// first check `validate_job` makes that fails.
#[test]
fn fused_validation_keeps_validate_job_reasons() {
    let mut config = PimConfig::hbm2e(2).with_banks(2);
    config.geometry.rows_per_bank = 8;
    let q = 12289u64;
    let q_big = ntt_pim::math::prime::find_ntt_prime(512, 35).unwrap();
    let unreduced = |mut coeffs: Vec<u64>, q: u64| {
        coeffs[3] = q;
        coeffs
    };
    let cases = vec![
        NttJob::forward(vec![1; 12], q),
        NttJob::forward(vec![1; 64], 65535),
        NttJob::forward(poly(4096, 7681, 1), 7681),
        NttJob::forward(unreduced(poly(64, q, 2), q), q),
        NttJob::inverse(unreduced(poly(64, q, 3), q), q),
        NttJob::negacyclic_polymul(poly(64, q, 4), poly(32, q, 5), q),
        NttJob::negacyclic_polymul(poly(64, q, 4), unreduced(poly(64, q, 5), q), q),
        NttJob::negacyclic_polymul(unreduced(poly(64, q, 4), q), poly(32, q, 5), q),
        NttJob::forward(poly(256, q_big, 6), q_big),
        NttJob::forward(unreduced(poly(256, q_big, 6), q_big), q_big),
        // Past the shrunken bank of 2048 words, alone and unreduced.
        NttJob::forward(poly(4096, 2_013_265_921, 7), 2_013_265_921),
        NttJob::forward(
            unreduced(poly(4096, 2_013_265_921, 7), 2_013_265_921),
            2_013_265_921,
        ),
        NttJob::negacyclic_polymul(poly(2048, q, 8), poly(2048, q, 9), q),
        NttJob::split_large(unreduced(poly(1024, q, 10), q), q),
    ];
    let mut exec = BatchExecutor::new(config).unwrap();
    for (i, job) in cases.iter().enumerate() {
        let want = match validate_job(&config, job) {
            Err(EngineError::Shape { reason }) => reason,
            other => panic!("case {i} must be malformed: {other:?}"),
        };
        let got = exec.run(std::slice::from_ref(job)).unwrap_err();
        assert!(
            matches!(&got, EngineError::Shape { reason } if *reason == format!("job 0: {want}")),
            "case {i}: {got} vs {want}"
        );
    }
    assert_eq!(exec.memo_stats(), MemoStats::default());
}

/// A small mixed batch: every kind, both moduli, and a split transform
/// (N = 1024 on 4 banks factors 32 × 32).
fn mixed(salt: u64) -> Vec<NttJob> {
    let [q1, q2] = MODULI;
    vec![
        NttJob::forward(poly(256, q1, salt), q1),
        NttJob::inverse(poly(512, q2, salt + 1), q2),
        NttJob::negacyclic_polymul(poly(128, q1, salt + 2), poly(128, q1, salt + 3), q1),
        NttJob::split_large(poly(1024, q2, salt + 4), q2),
        NttJob::forward(poly(256, q1, salt + 5), q1),
    ]
}

#[test]
fn new_mapper_options_never_reuse_stale_artifacts() {
    // Same-row grouping needs four buffers to change the command order
    // (and so the timing) of a mapped program.
    let config = PimConfig::hbm2e(4).with_banks(4);
    let ungrouped = MapperOptions {
        group_same_row: false,
        ..MapperOptions::default()
    };
    let jobs = mixed(10);
    let mut exec = BatchExecutor::new(config).unwrap();
    let grouped = exec.run(&jobs).unwrap();
    exec.device_mut().set_mapper_options(ungrouped);
    let switched = exec.run(&jobs).unwrap();

    let mut fresh = BatchExecutor::new(config).unwrap();
    fresh.device_mut().set_mapper_options(ungrouped);
    assert_same(
        &fresh.run(&jobs).unwrap(),
        &switched,
        "after set_mapper_options",
    );
    assert_ne!(
        grouped.queue_report.rank_acts, switched.queue_report.rank_acts,
        "the options must change the schedule for this test to mean anything"
    );

    // Back to the defaults: the first artifacts apply again.
    exec.device_mut()
        .set_mapper_options(MapperOptions::default());
    assert_same(&grouped, &exec.run(&jobs).unwrap(), "options restored");
}

#[test]
fn same_shape_under_another_modulus_maps_afresh() {
    let config = PimConfig::hbm2e(2).with_banks(2);
    let [q1, q2] = MODULI;
    let mut exec = BatchExecutor::new(config).unwrap();
    for q in [q1, q2, q1] {
        let jobs: Vec<NttJob> = (0..3)
            .map(|i| NttJob::forward(poly(1024, q, 40 + i), q))
            .chain([NttJob::inverse(poly(1024, q, 50), q)])
            .collect();
        let out = exec.run(&jobs).unwrap();
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(out.spectra[i], golden(j), "q={q} job {i}");
        }
        let mut fresh = BatchExecutor::new(config).unwrap();
        assert_same(&fresh.run(&jobs).unwrap(), &out, "another modulus");
    }
}

#[test]
fn memoized_shape_still_validates_every_job() {
    let config = PimConfig::hbm2e(2).with_banks(4);
    let mut exec = BatchExecutor::new(config).unwrap();
    let jobs = mixed(20);
    exec.run(&jobs).unwrap();
    let hits = exec.memo_stats().batch_hits;

    let mut bad = revalued(&jobs, 7);
    bad[2].coeffs[5] = bad[2].q;
    let err = exec.run(&bad).unwrap_err();
    assert!(
        matches!(&err, EngineError::Shape { reason }
            if reason.contains("job 2") && reason.contains("not reduced")),
        "{err}"
    );
    assert_eq!(exec.memo_stats().batch_hits, hits, "validation runs first");

    // The memoized shape still serves a valid batch with new values.
    let good = revalued(&jobs, 8);
    let out = exec.run(&good).unwrap();
    assert_eq!(exec.memo_stats().batch_hits, hits + 1);
    for (i, j) in good.iter().enumerate() {
        assert_eq!(out.spectra[i], golden(j), "job {i}");
    }
}

#[test]
fn one_job_on_one_bank_reports_the_paper_path_latency() {
    // The batch path and the paper's single-transform path run one
    // scheduler under one issue rule: one forward N = 4096 job on a
    // 1x1x1 device takes exactly what `PimDevice::ntt` reports, on a
    // fresh executor and on a memo hit.
    let [q, _] = MODULI;
    let config = PimConfig::hbm2e(2);
    let coeffs = poly(4096, q, 30);
    let mut dev = PimDevice::new(config).unwrap();
    let words: Vec<u32> = coeffs.iter().map(|&c| c as u32).collect();
    let h = dev.load_polynomial_bitrev(0, &words, q as u32).unwrap();
    let paper = dev.ntt(&h, NttDirection::Forward).unwrap().latency_ns();
    assert_eq!(format!("{:.2}", paper / 1e3), "181.76");

    let mut exec = BatchExecutor::new(config).unwrap();
    let jobs = [NttJob::forward(coeffs, q)];
    let fresh = exec.run(&jobs).unwrap();
    assert_eq!(fresh.latency_ns, paper, "fresh executor");
    let hits = exec.memo_stats().batch_hits;
    let again = exec.run(&revalued(&jobs, 31)).unwrap();
    assert_eq!(exec.memo_stats().batch_hits, hits + 1);
    assert_eq!(again.latency_ns, paper, "memo hit");
}
