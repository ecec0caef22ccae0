//! `scaling` — topology scaling sweep: a fixed 64-job mixed-size NTT
//! batch executed on every device shape of a 16-bank budget (and a few
//! scale-down points), written to `BENCH_scaling.json` so the scaling
//! trajectory is tracked across PRs.
//!
//! The sweep answers the sharding question the single-chip paper leaves
//! open: with the bank count held constant, how much latency does
//! splitting the device into independent channels (private command bus
//! each) and multiple ranks (private tRRD/tFAW activation window each)
//! recover from bus contention and activation throttling?
//!
//! Modes:
//!
//! * default — run the sweep and write the JSON report (`--out PATH`,
//!   default `BENCH_scaling.json`).
//! * `--check` — exit non-zero unless the headline sharded topology
//!   (2 channels × 2 ranks × 4 banks) reports *strictly* lower latency
//!   than the flat 1 × 1 × 16 single-rank device on the same batch.
//!   This is the CI scaling gate.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_bench::pseudo_poly;

/// 64 independent jobs with RNS-style mixed lengths.
const JOBS: usize = 64;
/// Job lengths, cycled over the batch (all supported by `Q`).
const LENGTHS: [usize; 4] = [256, 1024, 2048, 4096];
/// Dilithium's modulus: `2N | q-1` for every length above.
const Q: u64 = 8_380_417;
/// The flat single-rank comparison point.
const FLAT: Topology = Topology {
    channels: 1,
    ranks: 1,
    banks: 16,
};
/// The headline sharded topology (same 16-bank budget).
const SHARDED: Topology = Topology {
    channels: 2,
    ranks: 2,
    banks: 4,
};

#[derive(Debug, Clone)]
struct Point {
    topology: Topology,
    latency_ns: f64,
    energy_nj: f64,
    bus_slots: u64,
    rank_acts: u64,
    throughput_jobs_per_s: f64,
}

fn batch() -> Vec<NttJob> {
    (0..JOBS)
        .map(|j| {
            let n = LENGTHS[j % LENGTHS.len()];
            NttJob::new(pseudo_poly(n, Q, 1000 + j as u64), Q)
        })
        .collect()
}

fn run_topology(topology: Topology, jobs: &[NttJob]) -> Point {
    let config = PimConfig::hbm2e(2).with_topology(topology);
    let mut exec = BatchExecutor::new(config).expect("valid sweep config");
    let out = exec.run(jobs).expect("valid sweep batch");
    Point {
        topology,
        latency_ns: out.latency_ns,
        energy_nj: out.energy_nj,
        bus_slots: out.bus_slots,
        rank_acts: out.queue_report.rank_acts,
        throughput_jobs_per_s: out.throughput_jobs_per_s(),
    }
}

fn render_json(points: &[Point], sequential_ns: f64) -> String {
    let flat = points.iter().find(|p| p.topology == FLAT).expect("flat");
    let sharded = points
        .iter()
        .find(|p| p.topology == SHARDED)
        .expect("sharded");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scaling\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"jobs\": {JOBS}, \"lengths\": [256, 1024, 2048, 4096], \"q\": {Q}}},\n"
    ));
    out.push_str(&format!(
        "  \"sequential_single_bank_us\": {:.1},\n",
        sequential_ns / 1000.0
    ));
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"topology\": \"{}\", \"channels\": {}, \"ranks\": {}, \"banks\": {}, \
             \"total_banks\": {}, \"latency_us\": {:.2}, \"energy_nj\": {:.1}, \
             \"bus_slots\": {}, \"rank_acts\": {}, \"jobs_per_sec\": {:.0}, \
             \"speedup_vs_flat16\": {:.3}}}{}\n",
            p.topology,
            p.topology.channels,
            p.topology.ranks,
            p.topology.banks,
            p.topology.total_banks(),
            p.latency_ns / 1000.0,
            p.energy_nj,
            p.bus_slots,
            p.rank_acts,
            p.throughput_jobs_per_s,
            flat.latency_ns / p.latency_ns,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"headline\": {{\"flat\": \"{}\", \"flat_us\": {:.2}, \"sharded\": \"{}\", \
         \"sharded_us\": {:.2}, \"speedup\": {:.3}}}\n",
        FLAT,
        flat.latency_ns / 1000.0,
        SHARDED,
        sharded.latency_ns / 1000.0,
        flat.latency_ns / sharded.latency_ns
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_scaling.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let jobs = batch();
    // Single-bank sequential yardstick from the scheduler's own cost
    // model (what one bank would pay running the 64 jobs back to back).
    let sequential_ns: f64 = BatchExecutor::new(PimConfig::hbm2e(2))
        .expect("valid config")
        .plan(&jobs)
        .expect("valid batch")
        .costs
        .iter()
        .sum();

    // The 16-bank budget reshaped across the hierarchy, plus two
    // scale-down points showing where the flat chip saturates.
    let sweep = [
        Topology::new(1, 1, 4),
        Topology::new(1, 1, 8),
        FLAT,
        Topology::new(1, 2, 8),
        Topology::new(2, 1, 8),
        SHARDED,
        Topology::new(4, 2, 2),
        Topology::new(4, 4, 1),
    ];
    let points: Vec<Point> = sweep.iter().map(|&t| run_topology(t, &jobs)).collect();

    println!(
        "{} jobs, lengths cycling {:?}, q={} (sequential single bank: {:.1} µs)",
        JOBS,
        LENGTHS,
        Q,
        sequential_ns / 1000.0
    );
    let flat = points.iter().find(|p| p.topology == FLAT).expect("flat");
    for p in &points {
        println!(
            "topology {:>7} ({:>2} banks): {:>9.2} µs  {:>9.0} jobs/s  \
             bus slots {:>8}  rank ACTs {:>6}  ({:>5.2}x vs {})",
            p.topology.to_string(),
            p.topology.total_banks(),
            p.latency_ns / 1000.0,
            p.throughput_jobs_per_s,
            p.bus_slots,
            p.rank_acts,
            flat.latency_ns / p.latency_ns,
            FLAT,
        );
    }
    let json = render_json(&points, sequential_ns);
    std::fs::write(&out_path, &json).expect("write BENCH_scaling.json");
    println!("wrote {out_path}");

    let sharded = points
        .iter()
        .find(|p| p.topology == SHARDED)
        .expect("sharded");
    println!(
        "headline: {} {:.2} µs vs {} {:.2} µs ({:.2}x)",
        FLAT,
        flat.latency_ns / 1000.0,
        SHARDED,
        sharded.latency_ns / 1000.0,
        flat.latency_ns / sharded.latency_ns
    );
    if check {
        if sharded.latency_ns >= flat.latency_ns {
            eprintln!(
                "FAIL: sharded {} ({:.2} µs) does not strictly beat flat {} ({:.2} µs)",
                SHARDED,
                sharded.latency_ns / 1000.0,
                FLAT,
                flat.latency_ns / 1000.0
            );
            std::process::exit(1);
        }
        println!("check ok: {SHARDED} strictly beats {FLAT} on the 64-job batch");
    }
}
