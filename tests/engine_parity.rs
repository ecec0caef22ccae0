//! Cross-backend parity on the deterministic grid N ∈ {256, 1024, 4096}
//! × q ∈ {7681, 12289, 8380417} (Kyber-ish, NewHope, and Dilithium
//! moduli). One backend of every `BackendSpec` kind (PIM, CPU lanes, and
//! both published models) must produce the *identical* forward NTT
//! wherever its capability window admits the request, and must bring
//! the inverse back; grid points outside a backend's window are skipped
//! by its own admission check, never by hand-maintained lists. The
//! paper-path device (`load_polynomial_bitrev` → `ntt_in_place` →
//! `read_polynomial`) meets the golden engine directly. Random shapes and
//! batches run as proptests in `crates/bus/tests/parity.rs`.
//!
//! The golden comparisons run on the Shoup/Harvey **lazy-reduction**
//! kernel: every grid modulus is inside the lazy bound (`q < 2⁶²`), so
//! `CpuNttEngine`'s plans take the lazy datapath by default (asserted
//! below) — parity across the PIM device, the CPU lanes, and the
//! published models therefore proves the lazy kernel against all of
//! them at once.

use ntt_bus::{BackendSpec, EngineError, NttBackend, NttJob, SchedulePolicy};
use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::engine::{cpu_kernel_label, CpuNttEngine};
use ntt_pim::reference::{cache::PlanCache, four_step};

const LENGTHS: [usize; 3] = [256, 1024, 4096];
const MODULI: [u64; 3] = [7681, 12289, 8_380_417];

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

/// One backend of every kind, in fleet-description order.
fn every_backend() -> Vec<Box<dyn NttBackend>> {
    BackendSpec::parse_list("pim,cpu-lanes,mentt,bp-ntt")
        .unwrap()
        .iter()
        .map(|spec| spec.build(SchedulePolicy::Lpt, None).unwrap())
        .collect()
}

/// Runs one job on `backend` and returns its single spectrum.
fn run_one(backend: &mut dyn NttBackend, job: NttJob) -> Vec<u64> {
    backend.run(&[job]).unwrap().spectra.remove(0)
}

#[test]
fn golden_grid_runs_the_lazy_kernel() {
    // Guard for the parity suite's premise: every modulus in the grid is
    // served by the Shoup-lazy datapath, so the golden comparisons below
    // exercise the lazy kernel, not the widening fallback.
    for &q in &MODULI {
        assert_eq!(cpu_kernel_label(q), "shoup-lazy", "q={q}");
    }
}

#[test]
fn every_backend_matches_the_golden_transform() {
    let golden = CpuNttEngine::golden();
    let mut backends = every_backend();
    let mut covered = 0usize;
    for &n in &LENGTHS {
        for &q in &MODULI {
            if (q - 1) % (2 * n as u64) != 0 {
                continue; // grid point without a 2N-th root of unity
            }
            let input = poly(n, q, n as u64 ^ q);
            let mut expect = input.clone();
            golden.forward(&mut expect, q).unwrap();
            for backend in &mut backends {
                let job = NttJob::forward(input.clone(), q);
                if backend.admit(&job).is_err() {
                    continue;
                }
                let got = run_one(backend.as_mut(), job);
                assert_eq!(
                    got,
                    expect,
                    "{} disagrees with golden at N={n}, q={q}",
                    backend.label()
                );
                if backend.label() == "pim" {
                    // The PIM backend against the four-step dataflow directly.
                    let plan = PlanCache::global().get_or_build(n, q).unwrap();
                    let split = four_step::plan_split(n, 1).unwrap();
                    let mut by_four_step = input.clone();
                    four_step::forward(&plan, &mut by_four_step, split.rows);
                    assert_eq!(got, by_four_step, "pim vs four-step at N={n}, q={q}");
                }
                covered += 1;
            }
        }
    }
    // Six shape-valid grid points on the PIM and CPU backends, two
    // (q = 12289, N ≤ 1024) on each published model.
    assert_eq!(covered, 16, "grid coverage");
}

#[test]
fn pim_device_matches_every_golden_engine_where_supported() {
    let mut device = PimDevice::new(PimConfig::hbm2e(2)).expect("device");
    let golden = CpuNttEngine::golden();
    let mut checked = 0usize;
    for &n in &LENGTHS {
        for &q in &MODULI {
            if (q - 1) % (2 * n as u64) != 0 {
                continue; // grid point without a 2N-th root of unity
            }
            let input = poly(n, q, 0xA5A5 ^ n as u64 ^ q);
            let words: Vec<u32> = input.iter().map(|&c| c as u32).collect();
            let mut h = device.load_polynomial_bitrev(0, &words, q as u32).unwrap();
            device.ntt_in_place(&mut h, NttDirection::Forward).unwrap();
            let device_out: Vec<u64> = device
                .read_polynomial(&h)
                .unwrap()
                .into_iter()
                .map(u64::from)
                .collect();
            let mut expect = input.clone();
            golden.forward(&mut expect, q).unwrap();
            assert_eq!(device_out, expect, "golden vs device at N={n} q={q}");
            checked += 1;
        }
    }
    assert_eq!(checked, 6, "device covered only {checked} grid points");
}

#[test]
fn inverse_roundtrips_through_every_backend() {
    let mut backends = every_backend();
    // Every backend kind covers 256/12289, so each one roundtrips there;
    // the rest of the grid roundtrips wherever a backend admits it.
    for backend in &backends {
        let job = NttJob::forward(poly(256, 12289, 77), 12289);
        assert!(
            backend.admit(&job).is_ok(),
            "{} should cover 256/12289",
            backend.label()
        );
    }
    let mut covered = 0usize;
    for &n in &LENGTHS {
        for &q in &MODULI {
            let input = poly(n, q, 77 ^ n as u64 ^ q);
            for backend in &mut backends {
                let job = NttJob::forward(input.clone(), q);
                if backend.admit(&job).is_err() {
                    continue;
                }
                let spectrum = run_one(backend.as_mut(), job);
                let back = run_one(backend.as_mut(), NttJob::inverse(spectrum, q));
                assert_eq!(back, input, "{} roundtrip at N={n}, q={q}", backend.label());
                covered += 1;
            }
        }
    }
    assert_eq!(covered, 16, "roundtrip coverage");
}

#[test]
fn capability_windows_differ_meaningfully_across_backends() {
    let backends = every_backend();
    // Dilithium's 23-bit modulus at N=4096 must be outside both
    // narrow-datapath published models but inside the device and CPU,
    // and every rejection is a typed window error.
    let dilithium = NttJob::forward(poly(4096, 8_380_417, 5), 8_380_417);
    let mut supported = Vec::new();
    for backend in &backends {
        match backend.admit(&dilithium) {
            Ok(()) => supported.push(backend.label()),
            Err(e) => assert!(
                matches!(e, EngineError::Unsupported { .. }),
                "{}: {e}",
                backend.label()
            ),
        }
    }
    assert_eq!(supported, ["pim", "cpu-lanes"]);
    assert_eq!(
        backends.len() - supported.len(),
        2,
        "narrow models drop out"
    );
}
