//! Cross-crate integration tests: the full stack from host request to
//! verified memory contents, exercised through the facade crate exactly
//! as a downstream user would.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::engine::batch::{BatchExecutor, BatchOutcome, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_pim::fhe::params::RlweParams;
use ntt_pim::fhe::rns::RnsPoly;
use ntt_pim::fhe::sampler;
use ntt_pim::math::prime::{find_ntt_prime, root_of_unity, NttField};
use ntt_pim::reference::plan::NttPlan;

fn poly(n: usize, q: u32, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % q as u64) as u32
        })
        .collect()
}

#[test]
fn forward_ntt_matches_software_across_sizes_and_moduli() {
    for (n, bits) in [(16usize, 13u32), (256, 17), (1024, 25), (4096, 31)] {
        let q = find_ntt_prime(2 * n as u64, bits).expect("prime exists") as u32;
        let mut dev = PimDevice::new(PimConfig::hbm2e(4)).expect("valid config");
        let x = poly(n, q, n as u64);
        let mut h = dev.load_polynomial_bitrev(0, &x, q).expect("load");
        dev.ntt_in_place(&mut h, NttDirection::Forward)
            .expect("ntt");
        let got = dev.read_polynomial(&h).expect("read");

        // Software reference through the same ω-derivation path.
        let omega = root_of_unity(n as u64, q as u64).expect("root");
        let psi = root_of_unity(2 * n as u64, q as u64).expect("2N root");
        let field = NttField::with_psi(n, q as u64, psi).expect("field");
        assert_eq!(field.root_of_unity(), omega, "derivations agree");
        let plan = NttPlan::new(field);
        let mut expect: Vec<u64> = x.iter().map(|&c| c as u64).collect();
        plan.forward(&mut expect);
        assert!(
            got.iter().zip(&expect).all(|(&g, &e)| g as u64 == e),
            "n={n} q={q}"
        );
    }
}

#[test]
fn every_buffer_count_roundtrips() {
    let n = 512;
    let q = find_ntt_prime(2 * n as u64, 29).unwrap() as u32;
    let x = poly(n, q, 9);
    for nb in [1usize, 2, 3, 4, 6, 8] {
        // Nb=1 is slow but must still be *correct*.
        if nb == 1 && n > 512 {
            continue;
        }
        let mut dev = PimDevice::new(PimConfig::hbm2e(nb)).unwrap();
        let mut h = dev.load_polynomial_bitrev(0, &x, q).unwrap();
        dev.ntt_in_place(&mut h, NttDirection::Forward)
            .unwrap_or_else(|e| panic!("nb={nb}: {e}"));
        dev.ntt_in_place(&mut h, NttDirection::Inverse).unwrap();
        assert_eq!(dev.read_polynomial(&h).unwrap(), x, "nb={nb}");
    }
}

#[test]
fn on_device_polymul_equals_cpu_polymul() {
    let n = 512;
    let q = find_ntt_prime(2 * n as u64, 30).unwrap() as u32;
    let a = poly(n, q, 1);
    let b = poly(n, q, 2);

    // Device path.
    let mut dev = PimDevice::new(PimConfig::hbm2e(6)).unwrap();
    let ha = dev.load_polynomial(0, &a, q).unwrap();
    let hb = dev.load_polynomial(n, &b, q).unwrap();
    dev.polymul_negacyclic(&ha, &hb).unwrap();
    let got = dev.read_polynomial(&ha).unwrap();

    // CPU path via the reference library.
    let psi = root_of_unity(2 * n as u64, q as u64).unwrap();
    let field = NttField::with_psi(n, q as u64, psi).unwrap();
    let plan = NttPlan::new(field);
    let a64: Vec<u64> = a.iter().map(|&v| v as u64).collect();
    let b64: Vec<u64> = b.iter().map(|&v| v as u64).collect();
    let expect = ntt_pim::reference::poly::mul_negacyclic(&plan, &a64, &b64);
    assert!(got.iter().zip(&expect).all(|(&g, &e)| g as u64 == e));
}

#[test]
fn two_polynomials_in_one_bank_do_not_interfere() {
    let n = 256;
    let q = find_ntt_prime(2 * n as u64, 28).unwrap() as u32;
    let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
    let x = poly(n, q, 3);
    let y = poly(n, q, 4);
    let mut hx = dev.load_polynomial_bitrev(0, &x, q).unwrap();
    let hy = dev.load_polynomial_bitrev(2 * n, &y, q).unwrap();
    dev.ntt_in_place(&mut hx, NttDirection::Forward).unwrap();
    // y's region is untouched by x's transform.
    assert_eq!(dev.read_polynomial(&hy).unwrap(), y);
}

#[test]
fn batch_results_match_individual_transforms() {
    let n = 256;
    let banks = 4;
    // Different modulus per job — the RNS pattern.
    let jobs: Vec<NttJob> = (0..banks)
        .map(|b| {
            let q = find_ntt_prime(2 * n as u64, 28 + b).unwrap();
            let x = poly(n, q as u32, 100 + u64::from(b));
            NttJob::forward(x.into_iter().map(u64::from).collect(), q)
        })
        .collect();
    let config = PimConfig::hbm2e(2).with_banks(banks);
    let out = BatchExecutor::new(config).unwrap().run(&jobs).unwrap();
    // Equal lengths cost the same, so LPT deals one job to each bank.
    let per_bank = &out.queue_report.job_end_ns;
    assert!(per_bank.iter().all(|ends| ends.len() == 1), "{per_bank:?}");
    for (b, job) in jobs.iter().enumerate() {
        let mut single = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let words: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
        let mut h = single
            .load_polynomial_bitrev(0, &words, job.q as u32)
            .unwrap();
        let one_ns = single
            .ntt_in_place(&mut h, NttDirection::Forward)
            .unwrap()
            .latency_ns();
        let expect: Vec<u64> = single
            .read_polynomial(&h)
            .unwrap()
            .into_iter()
            .map(u64::from)
            .collect();
        assert_eq!(out.spectra[b], expect, "bank {b}");
        // Four banks work concurrently: far less than four NTTs back to
        // back.
        assert!(
            out.latency_ns < 2.5 * one_ns,
            "{} ns vs one NTT {one_ns} ns",
            out.latency_ns
        );
    }
}

/// A random RNS polynomial, component `i` drawn with seed `seed + i`.
fn random_rns(params: &RlweParams, seed: u64) -> RnsPoly {
    let mut poly = RnsPoly::zero(params);
    for (i, &q) in params.moduli().iter().enumerate() {
        poly.set_residues(i, sampler::uniform(params.n(), q, seed + i as u64));
    }
    poly
}

/// Runs one forward NTT per RNS component of `poly` in one batch, checks
/// every spectrum against the golden CPU transform, and returns the
/// batch's speedup over the same transforms one at a time on the paper
/// path of a one-bank device.
fn offload_speedup(params: &RlweParams, poly: &RnsPoly, config: PimConfig) -> f64 {
    let jobs: Vec<NttJob> = params
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, &q)| NttJob::forward(poly.residues(i).to_vec(), q))
        .collect();
    let out = BatchExecutor::new(config).unwrap().run(&jobs).unwrap();
    assert_eq!(out.spectra.len(), jobs.len());
    let mut sequential_ns = 0.0;
    for (job, spectrum) in jobs.iter().zip(&out.spectra) {
        let mut expect = job.coeffs.clone();
        CpuNttEngine::golden().forward(&mut expect, job.q).unwrap();
        assert_eq!(spectrum, &expect, "q = {}", job.q);
        let mut dev = PimDevice::new(config.with_topology(Topology::single_rank(1))).unwrap();
        let words: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
        let h = dev.load_polynomial_bitrev(0, &words, job.q as u32).unwrap();
        sequential_ns += dev.ntt(&h, NttDirection::Forward).unwrap().latency_ns();
    }
    sequential_ns / out.latency_ns
}

#[test]
fn fhe_pipeline_runs_on_simulated_device() {
    let params = RlweParams::new(512, 2, 16).unwrap();
    let rns = random_rns(&params, 5);
    let speedup = offload_speedup(&params, &rns, PimConfig::hbm2e(2).with_banks(2));
    assert!(speedup > 1.5, "{speedup:.2}x");
}

#[test]
fn batched_offload_is_faster_than_sequential() {
    let params = RlweParams::new(256, 3, 16).unwrap();
    let poly = random_rns(&params, 42);
    let speedup = offload_speedup(&params, &poly, PimConfig::hbm2e(2).with_banks(4));
    assert!(
        speedup > 2.0,
        "3 banks should be >2x sequential, got {speedup:.2}"
    );
}

/// The RNS product `a · b`, one negacyclic product per modulus in one
/// batch.
fn multiply_components(
    params: &RlweParams,
    a: &RnsPoly,
    b: &RnsPoly,
    config: PimConfig,
) -> (RnsPoly, BatchOutcome) {
    let jobs: Vec<NttJob> = params
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            NttJob::negacyclic_polymul(a.residues(i).to_vec(), b.residues(i).to_vec(), q)
        })
        .collect();
    let out = BatchExecutor::new(config).unwrap().run(&jobs).unwrap();
    let mut product = RnsPoly::zero(params);
    for (i, residues) in out.spectra.iter().enumerate() {
        product.set_residues(i, residues.clone());
    }
    (product, out)
}

#[test]
fn on_device_rns_multiplication_matches_cpu() {
    let params = RlweParams::new(256, 3, 16).unwrap();
    let (a, b) = (random_rns(&params, 1), random_rns(&params, 9));
    let config = PimConfig::hbm2e(4).with_banks(3);
    let (got, out) = multiply_components(&params, &a, &b, config);
    assert!(out.latency_ns > 0.0);
    assert_eq!(got, a.mul(&b, &params).unwrap());
    // Three products on three banks take much less than three back to
    // back: under 2x one product on the paper path.
    let mut dev = PimDevice::new(PimConfig::hbm2e(4)).unwrap();
    let words = |v: &[u64]| v.iter().map(|&c| c as u32).collect::<Vec<u32>>();
    let (n, q) = (params.n(), params.moduli()[0] as u32);
    let ha = dev.load_polynomial(0, &words(a.residues(0)), q).unwrap();
    let hb = dev
        .load_polynomial(config.polymul_rhs_base(n), &words(b.residues(0)), q)
        .unwrap();
    let single = dev.polymul_negacyclic(&ha, &hb).unwrap().latency_ns();
    assert!(
        out.latency_ns < 2.0 * single,
        "{} ns vs one product {single} ns",
        out.latency_ns
    );
}

#[test]
fn more_components_than_banks_queue_up() {
    // 5 RNS components on a 2-bank device: the executor packs 3+2 and
    // still matches the CPU product exactly.
    let params = RlweParams::new(128, 5, 16).unwrap();
    let (a, b) = (random_rns(&params, 3), random_rns(&params, 11));
    let config = PimConfig::hbm2e(4).with_banks(2);
    let (got, out) = multiply_components(&params, &a, &b, config);
    assert_eq!(got, a.mul(&b, &params).unwrap());
    let report = &out.queue_report;
    assert_eq!(report.job_end_ns[0].len(), 3);
    assert_eq!(report.job_end_ns[1].len(), 2);
    // Asynchronous drain: the deeper queue finishes later, and the
    // batch ends with the slowest bank.
    assert!(report.per_bank_ns[0] > report.per_bank_ns[1]);
    assert!((out.latency_ns - report.per_bank_ns[0]).abs() < 1e-9);
}
