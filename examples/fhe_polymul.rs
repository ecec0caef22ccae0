//! FHE-style workload: on-device negacyclic polynomial multiplication and
//! a toy BFV pipeline whose NTTs run on the PIM model.
//!
//! The paper's motivation (§I): FHE's hottest kernel is the NTT inside
//! `a∗b = NTT⁻¹(NTT(a) ⊙ NTT(b))`. This example runs that product
//! entirely on the device — ψ-weighting, forward DIF NTTs, pointwise
//! multiply, inverse DIT NTT, unweighting — then shows the same ring
//! arithmetic inside a BFV encrypt/add/decrypt round.
//!
//! ```sh
//! cargo run --release --example fhe_polymul
//! ```

use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::PimDevice;
use ntt_pim::fhe::{bfv, params::RlweParams, sampler};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // --- Part 1: one negacyclic product fully on-device ------------------
    let n = 1024usize;
    let q = ntt_pim::math::prime::find_ntt_prime(2 * n as u64, 31)? as u32;
    let mut device = PimDevice::new(PimConfig::hbm2e(4))?;

    let a: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 1) % q).collect();
    let b: Vec<u32> = (0..n as u32).map(|i| (i * i + 3) % q).collect();
    let ha = device.load_polynomial(0, &a, q)?;
    let hb = device.load_polynomial(n, &b, q)?;

    let report = device.polymul_negacyclic(&ha, &hb)?;
    println!("on-device negacyclic polymul, N={n}, q={q}:");
    println!(
        "  latency     : {:>10.2} µs (3 NTTs + scales + pointwise)",
        report.latency_us()
    );
    println!("  activations : {:>10}", report.activations());
    println!("  energy      : {:>10.2} nJ", report.energy.total_nj);

    // Verify against the schoolbook product.
    let got = device.read_polynomial(&ha)?;
    let a64: Vec<u64> = a.iter().map(|&v| v as u64).collect();
    let b64: Vec<u64> = b.iter().map(|&v| v as u64).collect();
    let expect = ntt_pim::reference::naive::negacyclic_convolution(&a64, &b64, q as u64);
    assert!(
        got.iter().zip(&expect).all(|(&x, &y)| x as u64 == y),
        "device product matches schoolbook negacyclic convolution"
    );
    println!("  verification: OK (matches schoolbook)");

    // --- Part 2: the BFV pipeline that generates such products -----------
    let params = RlweParams::new(256, 2, 16)?;
    println!(
        "\ntoy BFV: N={}, t={}, RNS moduli {:?}",
        params.n(),
        params.t(),
        params.moduli()
    );
    let (sk, pk) = bfv::keygen(&params, 0xC0FFEE)?;
    let m1 = sampler::plaintext(params.n(), params.t(), 1);
    let m2 = sampler::plaintext(params.n(), params.t(), 2);
    let ct1 = bfv::encrypt(&params, &pk, &m1, 11)?;
    let ct2 = bfv::encrypt(&params, &pk, &m2, 12)?;
    let sum = bfv::add(&params, &ct1, &ct2)?;
    let dec = bfv::decrypt(&params, &sk, &sum)?;
    let ok = dec
        .iter()
        .zip(m1.iter().zip(&m2))
        .all(|(&d, (&x, &y))| d == (x + y) % params.t());
    assert!(ok, "homomorphic addition decrypts correctly");
    println!("  Enc(m1) + Enc(m2) decrypts to m1 + m2 : OK");

    // Each encrypt runs 2 polynomial products per RNS modulus; with k
    // moduli that is 2k independent NTT pipelines — the bank-level
    // parallelism workload (see the bank_parallel example).
    println!(
        "  NTT workload per encrypt: {} independent negacyclic products",
        2 * params.moduli().len()
    );

    // --- Part 3: a full RNS ring multiplication offloaded to PIM ---------
    use ntt_pim::engine::batch::{BatchExecutor, NttJob};
    use ntt_pim::fhe::rns::RnsPoly;
    let mut ra = RnsPoly::zero(&params);
    let mut rb = RnsPoly::zero(&params);
    for i in 0..params.moduli().len() {
        ra.set_residues(
            i,
            sampler::uniform(params.n(), params.moduli()[i], 31 + i as u64),
        );
        rb.set_residues(
            i,
            sampler::uniform(params.n(), params.moduli()[i], 47 + i as u64),
        );
    }
    // One negacyclic product per modulus, one bank per component.
    let jobs: Vec<NttJob> = params
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            NttJob::negacyclic_polymul(ra.residues(i).to_vec(), rb.residues(i).to_vec(), q)
        })
        .collect();
    let config = PimConfig::hbm2e(4).with_banks(params.moduli().len() as u32);
    let out = BatchExecutor::new(config)?.run(&jobs)?;
    let mut product = RnsPoly::zero(&params);
    for (i, residues) in out.spectra.into_iter().enumerate() {
        product.set_residues(i, residues);
    }
    assert_eq!(product, ra.mul(&rb, &params)?, "PIM product matches CPU");
    println!(
        "\nfull RNS ring multiplication on PIM ({} banks): {:.2} µs, {:.1} nJ",
        params.moduli().len(),
        out.latency_ns / 1000.0,
        out.energy_nj
    );

    // --- Part 4: noise budget across homomorphic operations --------------
    use ntt_pim::fhe::noise;
    let fresh = noise::measure(&params, &sk, &ct1, &m1)?;
    let m_sum: Vec<u64> = m1
        .iter()
        .zip(&m2)
        .map(|(&x, &y)| (x + y) % params.t())
        .collect();
    let after = noise::measure(&params, &sk, &sum, &m_sum)?;
    println!(
        "noise budget: fresh {:.1} bits → after add {:.1} bits (bound survives: {})",
        fresh.budget_bits,
        after.budget_bits,
        after.decryptable()
    );
    Ok(())
}
