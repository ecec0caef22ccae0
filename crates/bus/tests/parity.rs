//! Cross-backend parity over one backend of every `BackendSpec` kind
//! (PIM, CPU lanes, and both published models): random shapes, moduli,
//! and kinds — every backend that admits a job returns results
//! bit-identical to the golden CPU model, and every rejection is a typed
//! capability-window error, never a panic. Malformed jobs (bad lengths
//! and moduli, unreduced or short operands, undersized splits) get the
//! same treatment from admission, execution and the cost quote. Each
//! batch is described once: an outcome's summary figures are its queue
//! report's, and a non-PIM backend's cost quote is the latency it
//! reports, bit for bit. The deterministic N × q grid over the same
//! backends is `tests/engine_parity.rs` at the repository root.

use ntt_bus::{
    BackendKind, BackendSpec, BatchOutcome, CpuLanesBackend, EngineError, NttBackend, NttJob,
    SchedulePolicy,
};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::JobKind;
use ntt_pim::engine::CpuNttEngine;
use ntt_pim::math::prime::find_ntt_prime;
use proptest::prelude::*;

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

/// The length menu (64..4096 spans every backend's max-N boundary).
const LENGTHS: [usize; 5] = [64, 256, 1024, 2048, 4096];
/// Moduli with different 2-adic budgets (7681 caps n at 256; 12289 at
/// 2048; Dilithium's 8380417 at 4096).
const MODULI: [u64; 3] = [12289, 7681, 8_380_417];

fn job_for(n: usize, q: u64, kind: u8, seed: u64) -> NttJob {
    match kind % 3 {
        0 => NttJob::forward(poly(n, q, seed), q),
        1 => NttJob::inverse(poly(n, q, seed), q),
        _ => NttJob::negacyclic_polymul(poly(n, q, seed), poly(n, q, seed ^ 0xabc), q),
    }
}

fn golden(job: &NttJob) -> Vec<u64> {
    let cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        JobKind::Forward | JobKind::SplitLarge => cpu.forward(&mut data, job.q),
        JobKind::Inverse => cpu.inverse(&mut data, job.q),
        JobKind::NegacyclicPolymul { rhs } => cpu.negacyclic_polymul(&mut data, rhs, job.q),
    }
    .unwrap();
    data
}

/// One backend of every kind, in fleet-description order.
fn every_backend() -> Vec<Box<dyn NttBackend>> {
    BackendSpec::parse_list("pim,cpu-lanes,mentt,bp-ntt")
        .unwrap()
        .iter()
        .map(|spec| spec.build(SchedulePolicy::Lpt, None).unwrap())
        .collect()
}

/// Lengths no backend transforms: empty, below the device minimum of
/// 4, or not a power of two.
const BAD_LENGTHS: [usize; 7] = [0, 1, 2, 3, 5, 6, 12];

/// [`every_backend`] plus PIM devices at the smallest (1×1×1) and a
/// sharded (2×2×2) topology, where split planning differs.
fn fuzz_backends() -> Vec<Box<dyn NttBackend>> {
    let mut backends = every_backend();
    for topology in [Topology::new(1, 1, 1), Topology::new(2, 2, 2)] {
        let spec = BackendSpec::Pim(PimConfig::hbm2e(2).with_topology(topology));
        backends.push(spec.build(SchedulePolicy::Lpt, None).unwrap());
    }
    backends
}

/// A length-`n` job (`n` a power of two, 4..=64) over q = 12289 with
/// one defect, chosen by `defect`; `pick < BAD_LENGTHS.len()` selects
/// among the defect's variants. Defects 4 (a prime `q ≥ 2³²`) and 9 (a split at or below
/// the 4×4 sub-job floor) fall inside some backend's window; the rest
/// fall inside none.
fn malformed_job(defect: u8, n: usize, pick: usize, kind: u8, seed: u64) -> NttJob {
    const Q: u64 = 12289;
    let unreduced = [Q, Q + 1, u64::MAX][pick % 3];
    match defect {
        0 => job_for(BAD_LENGTHS[pick], Q, kind, seed),
        // Even, composite, and prime without a 2N-th root of unity.
        1 => job_for(n, [2, Q - 1, 1 << 20][pick % 3], kind, seed),
        2 => job_for(n, [Q * 7681, 65_535, 561][pick % 3], kind, seed),
        3 => job_for(n, [3, 5, (1 << 31) - 1][pick % 3], kind, seed),
        4 => job_for(n, find_ntt_prime(2 * n as u64, 35).unwrap(), kind, seed),
        5 => job_for(n, find_ntt_prime(2 * n as u64, 63).unwrap(), kind, seed),
        6 => {
            let mut job = job_for(n, Q, kind, seed);
            job.coeffs[pick % n] = unreduced;
            job
        }
        7 => {
            let mut rhs = poly(n, Q, seed ^ 0xabc);
            rhs[pick % n] = unreduced;
            NttJob::negacyclic_polymul(poly(n, Q, seed), rhs, Q)
        }
        8 => NttJob::negacyclic_polymul(poly(n, Q, seed), poly(n - 1, Q, seed ^ 0xabc), Q),
        _ => {
            let m = [4, 8, 16][pick % 3];
            NttJob::split_large(poly(m, Q, seed), Q)
        }
    }
}

/// The one-description invariants of a batch's outcome on `backend`:
/// the summary figures are the queue report's bit for bit, every job
/// has a latency, and a non-PIM backend's quote is its reported latency.
fn check_one_description(backend: &dyn NttBackend, jobs: &[NttJob], out: &BatchOutcome) {
    let qr = &out.queue_report;
    let label = backend.label();
    assert_eq!(out.latency_ns.to_bits(), qr.latency_ns.to_bits(), "{label}");
    assert_eq!(out.energy_nj.to_bits(), qr.energy_nj.to_bits(), "{label}");
    assert_eq!(out.bus_slots, qr.bus_slots, "{label}");
    assert_eq!(out.job_latency_ns.len(), jobs.len(), "{label}");
    if backend.kind() != BackendKind::Pim {
        let quote = backend.cost_model().batch_makespan_ns(jobs);
        assert_eq!(out.latency_ns.to_bits(), quote.to_bits(), "{label}");
    }
}

fn by_label<'a>(backends: &'a mut [Box<dyn NttBackend>], label: &str) -> &'a mut dyn NttBackend {
    backends
        .iter_mut()
        .find(|b| b.label() == label)
        .unwrap_or_else(|| panic!("no {label} backend"))
        .as_mut()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single jobs of every shape against every backend: admitted jobs
    /// are bit-identical to golden; rejected jobs fail with a typed
    /// window/shape error.
    #[test]
    fn every_admitted_job_is_bit_identical_to_golden(
        n_sel in 0usize..LENGTHS.len(),
        q_sel in 0usize..MODULI.len(),
        kind in 0u8..3,
        seed in 1u64..1_000_000,
    ) {
        let n = LENGTHS[n_sel];
        let q = MODULI[q_sel];
        let job = job_for(n, q, kind, seed);
        let shape_valid = (q - 1) % (2 * n as u64) == 0;
        let mut admitted_somewhere = false;
        for backend in &mut every_backend() {
            match backend.admit(&job) {
                Ok(()) => {
                    admitted_somewhere = true;
                    // Cost metadata is queryable for anything admitted.
                    let quote = backend.cost_model().job_cost(&job);
                    prop_assert!(
                        quote.is_finite() && quote > 0.0,
                        "{}: bad quote {quote}",
                        backend.label()
                    );
                    let out = backend.run(std::slice::from_ref(&job)).unwrap();
                    prop_assert_eq!(
                        &out.spectra[0],
                        &golden(&job),
                        "backend {} diverged on n={} q={} kind={}",
                        backend.label(), n, q, kind % 3
                    );
                }
                Err(EngineError::Shape { .. } | EngineError::Unsupported { .. }) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "{}: rejection must be a typed window/shape error, got {other:?}",
                        backend.label()
                    )));
                }
            }
        }
        // The CPU backend's window is the widest (62-bit, unbounded N):
        // every shape-valid job is admissible somewhere.
        prop_assert_eq!(
            admitted_somewhere,
            shape_valid,
            "n={} q={}: a valid shape must land somewhere, an invalid one nowhere",
            n, q
        );
    }

    /// Whole batches (mixed kinds, one shared shape so every backend
    /// with the shape in-window can take the batch): each backend's
    /// spectra all match golden, in order.
    #[test]
    fn admitted_batches_stay_ordered_and_bit_identical(
        specs in prop::collection::vec((0u8..3, 1u64..1_000_000), 1..10),
        n_sel in 0usize..3,
    ) {
        let n = [256usize, 512, 1024][n_sel];
        let q = 12289u64;
        let jobs: Vec<NttJob> = specs
            .iter()
            .map(|&(kind, seed)| job_for(n, q, kind, seed))
            .collect();
        for backend in &mut every_backend() {
            if jobs.iter().any(|j| backend.admit(j).is_err()) {
                continue;
            }
            let out = backend.run(&jobs).unwrap();
            prop_assert_eq!(out.spectra.len(), jobs.len());
            check_one_description(backend.as_ref(), &jobs, &out);
            for (i, job) in jobs.iter().enumerate() {
                prop_assert_eq!(
                    &out.spectra[i],
                    &golden(job),
                    "backend {} diverged on batch job {}",
                    backend.label(), i
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Malformed jobs through every backend's admission, execution and
    /// cost quote: admission and execution agree, a rejection is a
    /// typed shape/window error, an admitted job returns golden spectra,
    /// and no call panics.
    #[test]
    fn malformed_jobs_fail_typed_on_every_backend(
        defect in 0u8..10,
        log_n in 2u32..7,
        pick in 0usize..BAD_LENGTHS.len(),
        kind in 0u8..3,
        seed in 1u64..1_000_000,
    ) {
        let job = malformed_job(defect, 1 << log_n, pick, kind, seed);
        let in_some_window = matches!(defect, 4 | 9);
        for backend in &mut fuzz_backends() {
            // The quote is value-free arithmetic on the shape; any number
            // will do, as long as computing it returns.
            let _ = backend.cost_model().job_cost(&job);
            let admitted = backend.admit(&job);
            let ran = backend.run(std::slice::from_ref(&job));
            match (admitted, ran) {
                (Ok(()), Ok(out)) => {
                    prop_assert!(in_some_window, "{} admitted defect {defect}", backend.label());
                    prop_assert_eq!(
                        &out.spectra[0],
                        &golden(&job),
                        "backend {} diverged on defect {}",
                        backend.label(), defect
                    );
                }
                (
                    Err(EngineError::Shape { .. } | EngineError::Unsupported { .. }),
                    Err(EngineError::Shape { .. } | EngineError::Unsupported { .. }),
                ) => {}
                (admitted, ran) => {
                    return Err(TestCaseError::fail(format!(
                        "{} on defect {defect}: admit {admitted:?}, run {:?}",
                        backend.label(),
                        ran.map(|out| out.spectra.len())
                    )));
                }
            }
        }
    }
}

/// 48 same-shape jobs on the CPU lanes run as six 8-wide waves: the
/// reported latency, its queue report and the router's quote are one
/// figure, the six waves summed in order.
#[test]
fn cpu_lanes_quote_is_the_reported_latency_of_48_jobs() {
    let q = 12289;
    let jobs: Vec<NttJob> = (0..48)
        .map(|seed| NttJob::forward(poly(256, q, seed + 1), q))
        .collect();
    let mut backend = CpuLanesBackend::new();
    let out = backend.run(&jobs).unwrap();
    check_one_description(&backend, &jobs, &out);
    let wave = backend.cost_model().job_cost(&jobs[0]);
    assert_eq!(out.queue_report.depth(), 6);
    assert_eq!(
        out.latency_ns.to_bits(),
        (0..6).fold(0.0, |t, _| t + wave).to_bits()
    );
    for (i, spectrum) in out.spectra.iter().enumerate() {
        assert_eq!(spectrum, &golden(&jobs[i]), "job {i}");
    }
}

/// A job that fails both the shape check and a backend's window reports
/// the shape error: admission checks the shape first on every backend.
#[test]
fn shape_errors_come_before_window_errors() {
    let backends = every_backend();
    // A 35-bit modulus at N = 2048: outside the PIM datapath, outside
    // both fixed-modulus published models, and past MeNTT's lengths.
    let q_big = find_ntt_prime(4096, 35).unwrap();
    let mut job = NttJob::forward(poly(2048, q_big, 11), q_big);
    for backend in &backends {
        let refused = backend.label() != "cpu-lanes";
        assert_eq!(
            matches!(backend.admit(&job), Err(EngineError::Unsupported { .. })),
            refused,
            "{}: the well-formed job",
            backend.label()
        );
    }
    job.coeffs[7] = q_big;
    for backend in &backends {
        let err = backend.admit(&job).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("not reduced")),
            "{}: {err}",
            backend.label()
        );
    }
}

/// Deterministic window pins: each backend's advertised capability
/// window rejects exactly the out-of-range shapes, with typed errors.
#[test]
fn capability_windows_are_honest() {
    let mut backends = every_backend();

    // MeNTT stops at N=1024 and its fixed modulus.
    let n2048 = NttJob::forward(poly(2048, 12289, 7), 12289);
    assert!(matches!(
        by_label(&mut backends, "mentt").admit(&n2048),
        Err(EngineError::Unsupported { .. })
    ));
    assert!(
        by_label(&mut backends, "bp-ntt").admit(&n2048).is_ok(),
        "BP-NTT reaches 4096"
    );

    // Dilithium's 23-bit modulus is outside both fixed-modulus published
    // models even at a length they reach, and inside the device.
    let dilithium = NttJob::forward(poly(256, 8_380_417, 7), 8_380_417);
    for label in ["mentt", "bp-ntt"] {
        assert!(matches!(
            by_label(&mut backends, label).admit(&dilithium),
            Err(EngineError::Unsupported { .. })
        ));
    }
    assert!(by_label(&mut backends, "pim").admit(&dilithium).is_ok());

    // A >32-bit modulus is outside the PIM datapath but inside the
    // CPU's 62-bit window — and the CPU result still matches golden.
    let q_big = ntt_pim::math::prime::find_ntt_prime(512, 35).unwrap();
    assert!(q_big > u64::from(u32::MAX));
    let wide = NttJob::forward(poly(256, q_big, 9), q_big);
    assert!(by_label(&mut backends, "pim").admit(&wide).is_err());
    let cpu = by_label(&mut backends, "cpu-lanes");
    assert!(cpu.admit(&wide).is_ok());
    let out = cpu.run(std::slice::from_ref(&wide)).unwrap();
    assert_eq!(out.spectra[0], golden(&wide));

    // Malformed jobs are Shape errors on every backend — never panics.
    let bad = NttJob::forward(vec![1; 100], 12289);
    for backend in &backends {
        assert!(matches!(
            backend.admit(&bad),
            Err(EngineError::Shape { .. })
        ));
    }
}
