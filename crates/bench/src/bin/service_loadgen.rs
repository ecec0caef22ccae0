//! `service_loadgen` — closed-loop load generator for the concurrent
//! serving layer (`ntt-service`), written to `BENCH_service.json` so the
//! serving-throughput trajectory is tracked across PRs.
//!
//! The question this answers: when independent concurrent requests
//! arrive one at a time (the serving traffic shape), how much simulated
//! device throughput does dynamic micro-batching recover versus serving
//! each request alone ("serial per-request"), and what does the request
//! pay in latency? Each offered-concurrency point spawns that many
//! client threads, releases them on a barrier, and lets the dispatcher
//! micro-batch whatever interleaving the OS produces; results are
//! checked bit-identical against the serial run, request by request.
//!
//! Modes:
//!
//! * default — run the sweep and write the JSON report (`--out PATH`,
//!   default `BENCH_service.json`).
//! * `--check` — exit non-zero unless (a) the batched service strictly
//!   beats serial per-request execution at every offered concurrency
//!   ≥ 16 and (b) the headline 64-concurrency point reaches ≥ 1.3×.
//!   This is the CI serving gate (deterministic headroom: the measured
//!   speedup is simulated device time, not wall clock, and sits far
//!   above the threshold even if batches split under scheduler noise).

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_bench::pseudo_poly;
use ntt_service::{NttService, ServiceConfig, ServiceError};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// Request lengths, cycled over the request ids (the RNS traffic mix).
const LENGTHS: [usize; 4] = [256, 1024, 2048, 4096];
/// Dilithium's modulus: `2N | q-1` for every length above.
const Q: u64 = 8_380_417;
/// The serving topology (the scaling bench's headline shard shape).
const TOPOLOGY: Topology = Topology {
    channels: 2,
    ranks: 2,
    banks: 4,
};
/// Offered-concurrency sweep; the last entry is the headline point.
const CONCURRENCY: [usize; 3] = [16, 32, 64];
/// Headline acceptance threshold at the top concurrency.
const HEADLINE_MIN_SPEEDUP: f64 = 1.3;
/// The large transform embedded in the mixed-traffic tail-latency
/// point (every 8th request).
const LARGE_N: usize = 16384;
/// 15·2²⁷ + 1 — [`LARGE_N`] is outside Dilithium's `2N | q-1` window.
const Q_LARGE: u64 = 2_013_265_921;

fn request_jobs(count: usize) -> Vec<NttJob> {
    (0..count)
        .map(|j| {
            let n = LENGTHS[j % LENGTHS.len()];
            NttJob::new(pseudo_poly(n, Q, 2000 + j as u64), Q)
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Point {
    concurrency: usize,
    serial_ns: f64,
    service_sim_ns: f64,
    speedup: f64,
    mean_occupancy: f64,
    batches: u64,
    p50_wall_us: f64,
    p99_wall_us: f64,
    busy_rejections: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
}

/// Serial per-request baseline: the same requests served one at a time
/// on the same device (each request alone on the chip — what a
/// batching-free front-end would deliver), each on the paper path:
/// bit-reversed load, one write request, readback. Returns summed
/// simulated latency and the per-request outputs.
fn run_serial(jobs: &[NttJob]) -> (f64, Vec<Vec<u64>>) {
    let mut device =
        PimDevice::new(PimConfig::hbm2e(2).with_topology(TOPOLOGY)).expect("valid serial config");
    let mut total_ns = 0.0;
    let mut outputs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let words: Vec<u32> = job.coeffs.iter().map(|&c| c as u32).collect();
        let mut h = device
            .load_polynomial_bitrev(0, &words, job.q as u32)
            .expect("valid serial job");
        let report = device
            .ntt_in_place(&mut h, NttDirection::Forward)
            .expect("valid serial job");
        total_ns += report.latency_ns();
        let out = device.read_polynomial(&h).expect("valid serial job");
        outputs.push(out.into_iter().map(u64::from).collect());
    }
    (total_ns, outputs)
}

fn run_point(concurrency: usize) -> Point {
    let jobs = request_jobs(concurrency);
    let (serial_ns, serial_outputs) = run_serial(&jobs);

    let service = NttService::start(
        ServiceConfig::new(PimConfig::hbm2e(2).with_topology(TOPOLOGY))
            // A generous window relative to the submission burst, so the
            // flush-on-size path dominates (the latency-throughput knob a
            // deployment would tune down under light load).
            .with_max_wait(Duration::from_millis(10))
            .with_queue_depth(2 * concurrency),
    )
    .expect("valid service config");

    let barrier = Barrier::new(concurrency);
    let wall_ns: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(concurrency));
    let busy = Mutex::new(0u64);
    let outputs: Mutex<Vec<Option<Vec<u64>>>> = Mutex::new(vec![None; concurrency]);
    std::thread::scope(|scope| {
        for (i, job) in jobs.iter().enumerate() {
            let client = service.client();
            let (barrier, wall_ns, busy, outputs) = (&barrier, &wall_ns, &busy, &outputs);
            let job = job.clone();
            scope.spawn(move || {
                barrier.wait();
                let ticket = loop {
                    match client.submit(format!("tenant-{}", i % 8), job.clone()) {
                        Ok(ticket) => break ticket,
                        Err(ServiceError::Busy { .. }) => {
                            *busy.lock().unwrap() += 1;
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        Err(e) => panic!("submission failed: {e}"),
                    }
                };
                let response = ticket.wait().expect("request served");
                wall_ns
                    .lock()
                    .unwrap()
                    .push(response.wall.as_nanos() as f64);
                outputs.lock().unwrap()[i] = Some(response.result);
            });
        }
    });
    let stats = service.shutdown();

    // Bit-identical outputs, request by request, versus the serial run.
    let outputs = outputs.into_inner().unwrap();
    for (i, (got, expect)) in outputs.iter().zip(&serial_outputs).enumerate() {
        let got = got.as_ref().expect("request answered");
        assert_eq!(got, expect, "request {i} not bit-identical to serial");
    }
    assert_eq!(stats.completed, concurrency as u64, "nothing lost");

    let mut wall = wall_ns.into_inner().unwrap();
    wall.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let pct = |p: usize| ntt_service::percentile(&wall, p) / 1000.0;
    Point {
        concurrency,
        serial_ns,
        service_sim_ns: stats.sim_busy_ns,
        speedup: serial_ns / stats.sim_busy_ns,
        mean_occupancy: stats.mean_occupancy(),
        batches: stats.batches,
        p50_wall_us: pct(50),
        p99_wall_us: pct(99),
        busy_rejections: stats.rejected_busy,
        plan_cache_hits: stats.plan_cache.hits,
        plan_cache_misses: stats.plan_cache.misses,
    }
}

/// The mixed-traffic tail-latency point: p99 when large transforms ride
/// along, whole versus split.
#[derive(Debug, Clone)]
struct SplitTraffic {
    whole_p99_us: f64,
    split_p99_us: f64,
    whole_p50_us: f64,
    split_p50_us: f64,
    improvement: f64,
}

/// The 32-request RNS mix with every 8th request a [`LARGE_N`]
/// transform, either whole ([`NttJob::new`]) or split across the
/// topology ([`NttJob::split_large`]).
fn mixed_large_jobs(split: bool) -> Vec<NttJob> {
    (0..32)
        .map(|j| {
            if j % 8 == 7 {
                let coeffs = pseudo_poly(LARGE_N, Q_LARGE, 3000 + j as u64);
                if split {
                    NttJob::split_large(coeffs, Q_LARGE)
                } else {
                    NttJob::new(coeffs, Q_LARGE)
                }
            } else {
                let n = LENGTHS[j % LENGTHS.len()];
                NttJob::new(pseudo_poly(n, Q, 3000 + j as u64), Q)
            }
        })
        .collect()
}

/// Mixed-traffic tail latency, whole vs split large transforms: the
/// full-occupancy micro-batch the dispatcher forms at concurrency 32,
/// executed deterministically through the same [`BatchExecutor`] the
/// service runs on (no thread-interleaving noise in the gate). A whole
/// large transform monopolizes one bank for its entire duration and
/// dominates the batch's p99; splitting it into column/row sub-jobs
/// fans that work across every bank.
fn run_split_traffic() -> SplitTraffic {
    let run = |split: bool| {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_topology(TOPOLOGY))
            .expect("valid split-traffic config");
        let out = exec
            .run(&mixed_large_jobs(split))
            .expect("valid mixed batch");
        (out.spectra, out.job_latency_ns)
    };
    let (whole_spectra, whole_lat) = run(false);
    let (split_spectra, split_lat) = run(true);
    // The split path's correctness contract, restated on this workload:
    // same requests, bit-identical spectra.
    assert_eq!(whole_spectra, split_spectra, "split not bit-identical");
    let pct = |lat: &[f64], p: usize| {
        let mut sorted = lat.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ntt_service::percentile(&sorted, p) / 1000.0
    };
    SplitTraffic {
        whole_p99_us: pct(&whole_lat, 99),
        split_p99_us: pct(&split_lat, 99),
        whole_p50_us: pct(&whole_lat, 50),
        split_p50_us: pct(&split_lat, 50),
        improvement: pct(&whole_lat, 99) / pct(&split_lat, 99),
    }
}

fn render_json(points: &[Point], split: &SplitTraffic) -> String {
    let headline = points.last().expect("sweep is non-empty");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"service_loadgen\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"lengths\": [256, 1024, 2048, 4096], \"q\": {Q}, \
         \"topology\": \"{TOPOLOGY}\", \"total_banks\": {}}},\n",
        TOPOLOGY.total_banks()
    ));
    out.push_str(
        "  \"comparison\": \"batched micro-batches vs serial per-request, simulated device time, bit-identical outputs\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"concurrency\": {}, \"serial_us\": {:.2}, \"service_sim_us\": {:.2}, \
             \"speedup\": {:.3}, \"mean_occupancy\": {:.2}, \"batches\": {}, \
             \"p50_wall_us\": {:.1}, \"p99_wall_us\": {:.1}, \"busy_rejections\": {}, \
             \"plan_cache\": {{\"hits\": {}, \"misses\": {}}}}}{}\n",
            p.concurrency,
            p.serial_ns / 1000.0,
            p.service_sim_ns / 1000.0,
            p.speedup,
            p.mean_occupancy,
            p.batches,
            p.p50_wall_us,
            p.p99_wall_us,
            p.busy_rejections,
            p.plan_cache_hits,
            p.plan_cache_misses,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"split_mixed_traffic\": {{\"large_n\": {LARGE_N}, \"large_q\": {Q_LARGE}, \
         \"whole_p99_us\": {:.2}, \"split_p99_us\": {:.2}, \"whole_p50_us\": {:.2}, \
         \"split_p50_us\": {:.2}, \"p99_improvement\": {:.3}}},\n",
        split.whole_p99_us,
        split.split_p99_us,
        split.whole_p50_us,
        split.split_p50_us,
        split.improvement
    ));
    out.push_str(&format!(
        "  \"headline\": {{\"concurrency\": {}, \"serial_us\": {:.2}, \"service_sim_us\": {:.2}, \
         \"speedup\": {:.3}, \"min_required\": {HEADLINE_MIN_SPEEDUP}}}\n",
        headline.concurrency,
        headline.serial_ns / 1000.0,
        headline.service_sim_ns / 1000.0,
        headline.speedup
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_service.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    println!(
        "serving layer on {TOPOLOGY} ({} lanes), lengths cycling {LENGTHS:?}, q={Q}",
        TOPOLOGY.total_banks()
    );
    let points: Vec<Point> = CONCURRENCY.iter().map(|&c| run_point(c)).collect();
    for p in &points {
        println!(
            "concurrency {:>3}: serial {:>9.2} µs  batched {:>8.2} µs  speedup {:>5.2}x  \
             occupancy {:>5.2}  batches {:>2}  p50/p99 wall {:>7.1}/{:>7.1} µs",
            p.concurrency,
            p.serial_ns / 1000.0,
            p.service_sim_ns / 1000.0,
            p.speedup,
            p.mean_occupancy,
            p.batches,
            p.p50_wall_us,
            p.p99_wall_us,
        );
    }
    let split = run_split_traffic();
    println!(
        "mixed traffic + N={LARGE_N}: p99 {:.1} µs whole -> {:.1} µs split ({:.2}x), \
         p50 {:.1} -> {:.1} µs",
        split.whole_p99_us,
        split.split_p99_us,
        split.improvement,
        split.whole_p50_us,
        split.split_p50_us
    );
    let json = render_json(&points, &split);
    std::fs::write(&out_path, &json).expect("write BENCH_service.json");
    println!("wrote {out_path}");

    let headline = points.last().expect("sweep is non-empty");
    println!(
        "headline: {} concurrent requests, {:.2}x over serial per-request (bit-identical)",
        headline.concurrency, headline.speedup
    );
    if check {
        let mut failed = false;
        for p in &points {
            if p.concurrency >= 16 && p.speedup <= 1.0 {
                eprintln!(
                    "FAIL: concurrency {} speedup {:.3}x does not strictly beat serial",
                    p.concurrency, p.speedup
                );
                failed = true;
            }
        }
        if headline.speedup < HEADLINE_MIN_SPEEDUP {
            eprintln!(
                "FAIL: headline speedup {:.3}x below the {HEADLINE_MIN_SPEEDUP}x acceptance bar",
                headline.speedup
            );
            failed = true;
        }
        if split.split_p99_us >= split.whole_p99_us {
            eprintln!(
                "FAIL: splitting the embedded N={LARGE_N} transform does not improve mixed-traffic \
                 p99 ({:.1} µs whole vs {:.1} µs split)",
                split.whole_p99_us, split.split_p99_us
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: batched serving strictly beats serial at every concurrency >= 16, \
             headline >= {HEADLINE_MIN_SPEEDUP}x, split p99 strictly under whole p99"
        );
    }
}
