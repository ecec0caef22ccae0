//! End-to-end accounting — what the paper's measurement boundary leaves
//! out, quantified.
//!
//! The paper reports NTT-kernel latency "except the bit reversal, which is
//! common in all the compared works" (§I), and assumes input data is
//! already resident in the PIM bank (§IV.A). Both assumptions are
//! reasonable for FHE pipelines (data stays in NTT-friendly layout across
//! many operations), but a user should see the full story: this binary
//! adds measured host bit-reversal time and a parameterized DMA model,
//! then reports kernel-level vs end-to-end speedups against the measured
//! CPU NTT.

use ntt_pim_bench::{fmt_sig, print_table, simulate_default, FIG7_LENGTHS};
use std::time::Instant;

/// Effective host↔HBM copy bandwidth for the DMA model (one pseudo-channel
/// of HBM2E ≈ 25.6 GB/s; a model input, printed with the results).
const DMA_GBPS: f64 = 25.6;

fn measured_bitrev_ns(n: usize) -> f64 {
    let mut data: Vec<u32> = (0..n as u32).collect();
    // Warm up, then best of 9.
    modmath::bitrev::bitrev_permute(&mut data);
    let mut best = f64::INFINITY;
    for _ in 0..9 {
        let t0 = Instant::now();
        modmath::bitrev::bitrev_permute(&mut data);
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

fn dma_ns(n: usize) -> f64 {
    let bytes = (n * 4) as f64;
    bytes / (DMA_GBPS * 1e9) * 1e9
}

fn main() {
    println!("End-to-end model: DMA at {DMA_GBPS} GB/s; bit reversal measured on this host.\n");
    let mut rows = Vec::new();
    for &n in &FIG7_LENGTHS {
        let pim = simulate_default(2, n).expect("simulation").latency_ns;
        let bitrev = measured_bitrev_ns(n);
        let dma = 2.0 * dma_ns(n); // in + out
        let total = pim + bitrev + dma;
        let cpu = ntt_ref::baseline::measure_forward(n, 9).best_ns() as f64;
        rows.push(vec![
            n.to_string(),
            fmt_sig(pim / 1000.0),
            fmt_sig(bitrev / 1000.0),
            fmt_sig(dma / 1000.0),
            fmt_sig(total / 1000.0),
            fmt_sig(cpu / 1000.0),
            format!("{:.2}x", cpu / pim),
            format!("{:.2}x", cpu / total),
        ]);
    }
    print_table(
        "Kernel vs end-to-end latency (µs), Nb = 2",
        &[
            "N".into(),
            "PIM NTT".into(),
            "+bitrev".into(),
            "+DMA".into(),
            "total".into(),
            "CPU (shoup-lazy)".into(),
            "kernel speedup".into(),
            "e2e speedup".into(),
        ],
        &rows,
    );
    println!();
    println!("Notes:");
    println!("- In FHE pipelines the DMA is amortized over many in-memory ops and");
    println!("  the bit reversal disappears entirely with the DIF/DIT pairing (see");
    println!("  PimDevice::polymul_negacyclic), so the kernel column is the one the");
    println!("  paper argues from — but the end-to-end column keeps us honest about");
    println!("  one-shot transforms on a modern CPU.");
}
