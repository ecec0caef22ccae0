//! `split` — large-transform splitting gate: one N = 32768 forward NTT
//! executed as a four-step split DAG (column sub-NTTs fanned across the
//! topology, a twiddle+transpose barrier, row sub-NTTs fanned back) on
//! a ladder of device shapes, against the same transform run whole on a
//! single bank. Written to `BENCH_split.json` so the split trajectory
//! is tracked across PRs.
//!
//! The modulus is 2013265921 (= 15·2²⁷ + 1): Dilithium's 8380417 has
//! `q−1 = 2¹³·1023`, so no 2N-th root of unity exists past N = 4096 —
//! the headline length needs the 31-bit NTT prime.
//!
//! Modes:
//!
//! * default — run the ladder and write the JSON report (`--out PATH`,
//!   default `BENCH_split.json`).
//! * `--check` — exit non-zero unless the split transform on the
//!   headline 4 × 2 × 2 topology beats the single-bank whole transform
//!   by at least [`HEADLINE_MIN_SPEEDUP`]. This is the CI split gate.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_bench::pseudo_poly;

/// The headline transform length (the issue's target).
const N: usize = 32768;
/// 15·2²⁷ + 1 — the smallest NTT-friendly prime covering N = 32768.
const Q: u64 = 2_013_265_921;
/// The headline split topology (16 banks across 4 channels × 2 ranks).
const HEADLINE: Topology = Topology {
    channels: 4,
    ranks: 2,
    banks: 2,
};
/// The committed gate: split-on-16-banks must beat one bank by ≥ 4×.
const HEADLINE_MIN_SPEEDUP: f64 = 4.0;

#[derive(Debug, Clone)]
struct Point {
    topology: Topology,
    rows: usize,
    cols: usize,
    latency_ns: f64,
    column_stage_ns: f64,
    energy_nj: f64,
    bus_slots: u64,
}

/// The whole transform on one bank: the datapath a split must beat.
fn run_single_bank(job: &NttJob) -> f64 {
    let config = PimConfig::hbm2e(2);
    let mut exec = BatchExecutor::new(config).expect("valid config");
    let whole = NttJob::new(job.coeffs.clone(), job.q);
    let out = exec.run(std::slice::from_ref(&whole)).expect("single bank");
    out.latency_ns
}

fn run_split(topology: Topology, job: &NttJob) -> Point {
    let config = PimConfig::hbm2e(2).with_topology(topology);
    let mut exec = BatchExecutor::new(config).expect("valid split config");
    let out = exec
        .run(std::slice::from_ref(job))
        .expect("valid split job");
    let sr = &out.splits[0];
    Point {
        topology,
        rows: sr.rows,
        cols: sr.cols,
        latency_ns: out.latency_ns,
        column_stage_ns: sr.column_stage_ns,
        energy_nj: out.energy_nj,
        bus_slots: out.bus_slots,
    }
}

fn render_json(points: &[Point], single_ns: f64) -> String {
    let headline = points
        .iter()
        .find(|p| p.topology == HEADLINE)
        .expect("headline");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"split\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"n\": {N}, \"q\": {Q}, \"kind\": \"split-large forward\"}},\n"
    ));
    out.push_str(&format!(
        "  \"single_bank_us\": {:.2},\n",
        single_ns / 1000.0
    ));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"total_banks\": {}, \"split\": \"{}x{}\", \
             \"latency_us\": {:.2}, \"column_stage_us\": {:.2}, \"energy_nj\": {:.1}, \
             \"bus_slots\": {}, \"speedup_vs_single_bank\": {:.3}}}{}\n",
            p.topology,
            p.topology.total_banks(),
            p.rows,
            p.cols,
            p.latency_ns / 1000.0,
            p.column_stage_ns / 1000.0,
            p.energy_nj,
            p.bus_slots,
            single_ns / p.latency_ns,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"headline\": {{\"topology\": \"{}\", \"split\": \"{}x{}\", \"split_us\": {:.2}, \
         \"single_bank_us\": {:.2}, \"speedup\": {:.3}, \"min_speedup\": {HEADLINE_MIN_SPEEDUP}}}\n",
        HEADLINE,
        headline.rows,
        headline.cols,
        headline.latency_ns / 1000.0,
        single_ns / 1000.0,
        single_ns / headline.latency_ns
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_split.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let job = NttJob::split_large(pseudo_poly(N, Q, 0xB1A5), Q);
    let single_ns = run_single_bank(&job);
    println!(
        "N={N} q={Q} whole transform on one bank: {:.2} µs",
        single_ns / 1000.0
    );

    // Scale-up ladder: 4 banks flat, 8 banks, the 16-bank headline, and
    // a wider 32-bank point.
    let ladder = [
        Topology::new(1, 1, 4),
        Topology::new(2, 1, 4),
        HEADLINE,
        Topology::new(4, 2, 4),
    ];
    let points: Vec<Point> = ladder.iter().map(|&t| run_split(t, &job)).collect();
    for p in &points {
        println!(
            "split {:>6} ({:>2} banks, {:>4}x{:<4}): {:>9.2} µs  \
             column stage {:>8.2} µs  bus slots {:>8}  ({:>5.2}x vs one bank)",
            p.topology.to_string(),
            p.topology.total_banks(),
            p.rows,
            p.cols,
            p.latency_ns / 1000.0,
            p.column_stage_ns / 1000.0,
            p.bus_slots,
            single_ns / p.latency_ns,
        );
    }

    let json = render_json(&points, single_ns);
    std::fs::write(&out_path, &json).expect("write BENCH_split.json");
    println!("wrote {out_path}");

    let headline = points
        .iter()
        .find(|p| p.topology == HEADLINE)
        .expect("headline");
    let speedup = single_ns / headline.latency_ns;
    println!(
        "headline: split {}x{} on {} {:.2} µs vs one bank {:.2} µs ({:.2}x, gate {:.1}x)",
        headline.rows,
        headline.cols,
        HEADLINE,
        headline.latency_ns / 1000.0,
        single_ns / 1000.0,
        speedup,
        HEADLINE_MIN_SPEEDUP
    );
    if check {
        if speedup < HEADLINE_MIN_SPEEDUP {
            eprintln!(
                "FAIL: split N={N} on {HEADLINE} ({:.2} µs) is only {speedup:.2}x over one \
                 bank ({:.2} µs); the gate requires {HEADLINE_MIN_SPEEDUP:.1}x",
                headline.latency_ns / 1000.0,
                single_ns / 1000.0
            );
            std::process::exit(1);
        }
        println!(
            "check ok: split N={N} on {HEADLINE} beats the single bank by {speedup:.2}x \
             (>= {HEADLINE_MIN_SPEEDUP:.1}x)"
        );
    }
}
