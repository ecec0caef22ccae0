//! Regenerates **Fig. 7: Sensitivity to Nb** — NTT latency vs polynomial
//! length for Nb = 1/2/4/6, next to the x86 baselines (the paper's
//! published numbers and a live measurement on this machine).

use ntt_pim_bench::{fmt_sig, print_table, simulate_default, FIG7_LENGTHS};
use pim_baselines::{NttAccelerator, X86PaperModel};

fn main() {
    let mut rows = Vec::new();
    for &n in &FIG7_LENGTHS {
        let mut row = vec![n.to_string()];
        for nb in [1usize, 2, 4, 6] {
            // The single-buffer strawman is mapped with scalar µ-commands;
            // cap it at N ≤ 2048 to keep the run quick (its trend is
            // established well before that).
            if nb == 1 && n > 2048 {
                row.push("(>1e4)".into());
                continue;
            }
            let p = simulate_default(nb, n).expect("simulation");
            row.push(fmt_sig(p.latency_ns / 1000.0));
        }
        row.push(
            X86PaperModel
                .latency_ns(n)
                .map_or("-".into(), |l| fmt_sig(l / 1000.0)),
        );
        let cpu = ntt_ref::baseline::measure_forward(n, 9);
        row.push(fmt_sig(cpu.best_ns() as f64 / 1000.0));
        rows.push(row);
    }
    print_table(
        "Fig. 7: NTT latency (µs) vs polynomial length and buffer count",
        &[
            "N".into(),
            "Nb=1".into(),
            "Nb=2".into(),
            "Nb=4".into(),
            "Nb=6".into(),
            "x86 (paper)".into(),
            "x86 (measured, shoup-lazy)".into(),
        ],
        &rows,
    );

    println!();
    println!("Shape checks (the paper's claims):");
    let p1 = simulate_default(1, 1024).unwrap().latency_ns;
    let p2 = simulate_default(2, 1024).unwrap().latency_ns;
    let p6 = simulate_default(6, 1024).unwrap().latency_ns;
    println!(
        "  one auxiliary buffer buys ~an order of magnitude: Nb=1/Nb=2 = {:.1}x",
        p1 / p2
    );
    println!(
        "  more buffers add 1.5~2.5x: Nb=2/Nb=6 = {:.2}x at N=1024",
        p2 / p6
    );
    let s2 = simulate_default(2, 8192).unwrap().latency_ns;
    let s6 = simulate_default(6, 8192).unwrap().latency_ns;
    println!(
        "  the gain grows with N (more inter-row work): Nb=2/Nb=6 = {:.2}x at N=8192",
        s2 / s6
    );
}
