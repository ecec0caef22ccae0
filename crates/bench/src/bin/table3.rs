//! Regenerates **Table III: Comparison with Previous Work** — simulated
//! NTT-PIM (Nb = 2/4/6) against the published MeNTT / CryptoPIM / x86 /
//! FPGA points, plus a live-measured CPU baseline on this machine, plus
//! the paper's own NTT-PIM numbers for calibration.

use ntt_pim_bench::{fmt_sig, print_table, simulate_default, TABLE3_LENGTHS};
use pim_baselines::{all_models, paper_ntt_pim_nb2, paper_ntt_pim_nb4};

fn main() {
    let models = all_models();

    // --- Latency table (µs) ---------------------------------------------
    let mut headers: Vec<String> = vec!["N".into()];
    for nb in [2usize, 4, 6] {
        headers.push(format!("NTT-PIM Nb={nb} (sim)"));
    }
    headers.push("paper Nb=2".into());
    for m in &models {
        headers.push(m.name().into());
    }
    headers.push("x86 measured".into());

    let paper2 = paper_ntt_pim_nb2();
    let mut rows = Vec::new();
    for &n in &TABLE3_LENGTHS {
        let mut row = vec![n.to_string()];
        for nb in [2usize, 4, 6] {
            let p = simulate_default(nb, n).expect("simulation");
            row.push(fmt_sig(p.latency_ns / 1000.0));
        }
        row.push(
            paper2
                .iter()
                .find(|&&(pn, _, _)| pn == n)
                .map_or("-".into(), |&(_, l, _)| fmt_sig(l / 1000.0)),
        );
        for m in &models {
            row.push(m.latency_ns(n).map_or("-".into(), |l| fmt_sig(l / 1000.0)));
        }
        let cpu = ntt_ref::baseline::measure_forward(n, 9);
        row.push(fmt_sig(cpu.best_ns() as f64 / 1000.0));
        rows.push(row);
    }
    print_table("Table III (a): NTT latency (µs)", &headers, &rows);

    // --- Energy table (nJ) ------------------------------------------------
    println!();
    let mut eheaders: Vec<String> = vec![
        "N".into(),
        "NTT-PIM Nb=2 (sim)".into(),
        "NTT-PIM Nb=4 (sim)".into(),
        "paper Nb=2".into(),
        "paper Nb=4".into(),
    ];
    for m in &models {
        eheaders.push(m.name().into());
    }
    let paper4 = paper_ntt_pim_nb4();
    let mut erows = Vec::new();
    for &n in &TABLE3_LENGTHS {
        let mut row = vec![n.to_string()];
        for nb in [2usize, 4] {
            let p = simulate_default(nb, n).expect("simulation");
            row.push(fmt_sig(p.energy_nj));
        }
        for paper in [&paper2, &paper4] {
            row.push(
                paper
                    .iter()
                    .find(|&&(pn, _, _)| pn == n)
                    .map_or("-".into(), |&(_, _, e)| fmt_sig(e)),
            );
        }
        for m in &models {
            row.push(m.energy_nj(n).map_or("-".into(), fmt_sig));
        }
        erows.push(row);
    }
    print_table("Table III (b): NTT energy (nJ)", &eheaders, &erows);

    // --- Flexibility + headline speedups ---------------------------------
    println!();
    let mut frows = vec![vec![
        "NTT-PIM".to_string(),
        "32-bit, modulus arbitrary, max N unbounded".to_string(),
    ]];
    for m in &models {
        frows.push(vec![m.name().into(), m.flexibility().to_string()]);
    }
    print_table(
        "Flexibility (paper §VI.E)",
        &["design".into(), "restrictions".into()],
        &frows,
    );

    println!();
    println!("Speedup of simulated NTT-PIM (Nb=6) over the best published competitor:");
    for &n in &TABLE3_LENGTHS {
        let ours = simulate_default(6, n).expect("simulation").latency_ns;
        let best = models
            .iter()
            .filter_map(|m| m.latency_ns(n))
            .fold(f64::INFINITY, f64::min);
        println!("  N={n:>5}: {:.1}x (paper claims 1.7x ~ 17x)", best / ours);
    }
}
