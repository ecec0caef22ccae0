//! Bank-level parallelism: run the RNS components of an FHE polynomial as
//! concurrent NTTs in separate banks over the shared command bus — the
//! paper's §VI.A note ("FHE applications can naturally run multiple NTT
//! functions using multiple banks") and its conclusion's near-linear
//! scaling expectation.
//!
//! ```sh
//! cargo run --release --example bank_parallel
//! ```

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_pim::fhe::params::RlweParams;
use ntt_pim::fhe::rns::RnsPoly;
use ntt_pim::fhe::sampler;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let n = 1024usize;
    println!("RNS NTT batches, N={n}, Nb=2 per bank:\n");
    println!(
        "{:>6} {:>14} {:>16} {:>9}",
        "banks", "batch (µs)", "sequential (µs)", "speedup"
    );
    for k in [1usize, 2, 4, 8] {
        let params = RlweParams::new(n, k, 16)?;
        let mut poly = RnsPoly::zero(&params);
        for i in 0..k {
            poly.set_residues(i, sampler::uniform(n, params.moduli()[i], 7 + i as u64));
        }
        // One forward NTT per residue, one bank per component.
        let jobs: Vec<NttJob> = (0..k)
            .map(|i| NttJob::forward(poly.residues(i).to_vec(), params.moduli()[i]))
            .collect();
        let config = PimConfig::hbm2e(2).with_banks(k as u32);
        let batch = BatchExecutor::new(config)?.run(&jobs)?;
        // The sequential yardstick: the same transforms one at a time on
        // the paper path of a one-bank device.
        let mut sequential_ns = 0.0;
        for (job, spectrum) in jobs.iter().zip(&batch.spectra) {
            let mut expect = job.coeffs.clone();
            CpuNttEngine::golden().forward(&mut expect, job.q)?;
            assert_eq!(spectrum, &expect, "PIM spectrum matches the CPU NTT");
            let mut single = PimDevice::new(config.with_topology(Topology::single_rank(1)))?;
            let words: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
            let h = single.load_polynomial_bitrev(0, &words, job.q as u32)?;
            sequential_ns += single.ntt(&h, NttDirection::Forward)?.latency_ns();
        }
        println!(
            "{:>6} {:>14.2} {:>16.2} {:>8.2}x",
            k,
            batch.latency_ns / 1000.0,
            sequential_ns / 1000.0,
            sequential_ns / batch.latency_ns
        );
    }
    println!("\nSpeedup stays near-linear until the shared command bus and the");
    println!("single memory controller stream serialize issue slots — the");
    println!("system-level investigation the paper leaves as future work.");

    // --- BatchExecutor: 16 independent NTTs over 16 banks ----------------
    // The executor packs jobs onto per-bank queues (cost-model LPT by
    // default) and drains them concurrently over the shared command bus.
    // Aggregate latency for a 16-job batch must land well under 2x a
    // single NTT — the bank-level scaling the paper's conclusion
    // projects.
    let n = 1024usize;
    let q = 12289u64;
    let jobs: Vec<NttJob> = (0..16u64)
        .map(|j| {
            NttJob::new(
                (0..n as u64)
                    .map(|i| (i.wrapping_mul(2654435761) ^ j) % q)
                    .collect(),
                q,
            )
        })
        .collect();
    // One NTT alone on the paper path is the yardstick.
    let mut device = PimDevice::new(PimConfig::hbm2e(2))?;
    let words: Vec<u32> = jobs[0].coeffs.iter().map(|&c| c as u32).collect();
    let mut h = device.load_polynomial_bitrev(0, &words, q as u32)?;
    let single_ns = device
        .ntt_in_place(&mut h, NttDirection::Forward)?
        .latency_ns();
    let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(16))?;
    let out = exec.run(&jobs)?;
    let ratio = out.latency_ns / single_ns;
    println!("\nBatchExecutor: 16 independent N={n} NTTs on 16 banks");
    println!("  single NTT      : {:>10.2} µs", single_ns / 1000.0);
    println!(
        "  16-job batch    : {:>10.2} µs ({:.2}x one NTT)",
        out.latency_us(),
        ratio
    );
    println!("  throughput gain : {:>9.2}x over sequential", 16.0 / ratio);
    println!(
        "  bus slots {} | rank ACTs {} | energy {:.1} nJ | {} wave(s)",
        out.bus_slots,
        out.queue_report.rank_acts,
        out.energy_nj,
        out.queue_report.depth()
    );
    assert!(
        ratio < 2.0,
        "16-NTT batch on 16 banks should stay under 2x one NTT (got {ratio:.2}x)"
    );
    println!("  scaling check   : OK (batch < 2x a single NTT)");
    Ok(())
}
