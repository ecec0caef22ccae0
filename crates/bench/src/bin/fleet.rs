//! `fleet` — multi-device scaling bench for the fleet tier, written to
//! `BENCH_fleet.json` so the fleet-throughput trajectory is tracked
//! across PRs.
//!
//! The question this answers: when the serving layer shards traffic
//! across N simulated PIM devices through [`FleetRouter`], how close to
//! linear does simulated fleet throughput scale? The sweep is **weak
//! scaling**: every point offers one job per fleet lane (16·N jobs for
//! N devices of 2×2×4), so per-device batch density stays constant and
//! the only variable is the router's ability to spread the burst. Each
//! point routes one burst, executes every placement deterministically on
//! that device's own [`BatchExecutor`], takes the fleet makespan as the
//! busiest device's total simulated time, and checks every output
//! bit-identical against a single-device run of the same jobs.
//!
//! A threaded smoke point then runs the real [`NttService`] fleet (4
//! devices, 32 concurrent clients) end to end, so the bench also
//! exercises the router/worker/steal machinery under OS interleaving,
//! not just the routing math. Every request must complete and every
//! device stay healthy. The JSON keeps only the smoke's fields that do
//! not depend on thread timing (devices, clients, completed requests),
//! so the file regenerates byte for byte; how the run happened to batch,
//! steal and spread the work is printed instead.
//!
//! Modes:
//!
//! * default — run the sweep and write the JSON report (`--out PATH`,
//!   default `BENCH_fleet.json`).
//! * `--check` — exit non-zero unless throughput is strictly monotone
//!   over the 1 → 4 → 16 device sweep and the 4-device point reaches
//!   ≥ 3× the single-device throughput. This is the CI fleet gate
//!   (deterministic headroom: the sweep is simulated device time routed
//!   by a deterministic greedy policy, so the measured speedup sits far
//!   above the threshold).

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_bench::pseudo_poly;
use ntt_service::{BackendSpec, FleetRouter, NttService, ServiceConfig, ServiceError};
use std::sync::{Barrier, Mutex};
use std::time::Duration;

/// Request lengths, cycled over the job ids (the RNS traffic mix).
const LENGTHS: [usize; 4] = [256, 1024, 2048, 4096];
/// Dilithium's modulus: `2N | q-1` for every length above.
const Q: u64 = 8_380_417;
/// Every fleet device's shard shape (16 lanes).
const TOPOLOGY: Topology = Topology {
    channels: 2,
    ranks: 2,
    banks: 4,
};
/// Device-count sweep; 4 is the headline acceptance point.
const DEVICES: [usize; 3] = [1, 4, 16];
/// Jobs offered per fleet lane (weak scaling: the burst grows with the
/// fleet so per-device density stays constant).
const JOBS_PER_LANE: usize = 1;
/// Required speedup of the 4-device point over single-device.
const HEADLINE_MIN_SPEEDUP: f64 = 3.0;
/// Clients in the threaded service smoke (the ISSUE's concurrency bar).
const SMOKE_CONCURRENCY: usize = 32;
/// Devices in the threaded service smoke.
const SMOKE_DEVICES: usize = 4;

fn burst(count: usize) -> Vec<NttJob> {
    (0..count)
        .map(|j| {
            let n = LENGTHS[j % LENGTHS.len()];
            NttJob::new(pseudo_poly(n, Q, 5000 + j as u64), Q)
        })
        .collect()
}

#[derive(Debug, Clone)]
struct Point {
    devices: usize,
    jobs: usize,
    makespan_ns: f64,
    busy_sum_ns: f64,
    jobs_per_s: f64,
    speedup: f64,
    efficiency: f64,
    min_device_jobs: usize,
    max_device_jobs: usize,
}

/// Routes one weak-scaling burst across an N-device fleet and executes
/// every placement on its device's own executor. Outputs are checked
/// bit-identical, job by job, against `golden` (the single-device run of
/// the same burst — batching and placement must never change results).
fn run_point(devices: usize, jobs: &[NttJob], golden: &[Vec<u64>]) -> Point {
    let configs: Vec<PimConfig> = (0..devices)
        .map(|_| PimConfig::hbm2e(2).with_topology(TOPOLOGY))
        .collect();
    // Threshold 0: spread every multi-job burst across the whole fleet.
    let mut router = FleetRouter::new(&configs, 0.0).expect("valid fleet config");
    let routing = router.route(jobs);
    assert!(routing.unroutable.is_empty(), "burst is valid everywhere");
    let placed: usize = routing.placements.iter().map(|p| p.jobs.len()).sum();
    assert_eq!(placed, jobs.len(), "router lost or duplicated jobs");

    let mut busy_ns = vec![0.0f64; devices];
    let mut device_jobs = vec![0usize; devices];
    for placement in &routing.placements {
        let group: Vec<NttJob> = placement.jobs.iter().map(|&j| jobs[j].clone()).collect();
        let mut exec = BatchExecutor::new(configs[placement.device]).expect("valid device config");
        let out = exec.run(&group).expect("valid placed group");
        busy_ns[placement.device] += out.latency_ns;
        device_jobs[placement.device] += group.len();
        for (slot, &j) in placement.jobs.iter().enumerate() {
            assert_eq!(
                out.spectra[slot], golden[j],
                "job {j} on device {} not bit-identical to single-device run",
                placement.device
            );
        }
    }
    let makespan_ns = busy_ns.iter().fold(0.0f64, |a, &b| a.max(b));
    let busy_sum_ns: f64 = busy_ns.iter().sum();
    Point {
        devices,
        jobs: jobs.len(),
        makespan_ns,
        busy_sum_ns,
        jobs_per_s: jobs.len() as f64 / (makespan_ns * 1e-9),
        speedup: 0.0,    // filled against the 1-device point below
        efficiency: 0.0, // likewise
        min_device_jobs: device_jobs.iter().copied().min().unwrap_or(0),
        max_device_jobs: device_jobs.iter().copied().max().unwrap_or(0),
    }
}

/// The threaded smoke: the real service fleet under concurrent clients.
#[derive(Debug, Clone)]
struct Smoke {
    devices: usize,
    concurrency: usize,
    completed: u64,
    batches: u64,
    steals: u64,
    fleet_jobs_per_s: f64,
    idle_devices: usize,
}

fn run_smoke() -> Smoke {
    let jobs = burst(SMOKE_CONCURRENCY);
    let pim = PimConfig::hbm2e(2).with_topology(TOPOLOGY);
    let service = NttService::start(
        ServiceConfig::new(pim)
            .with_backends(vec![BackendSpec::Pim(pim); SMOKE_DEVICES])
            .with_max_wait(Duration::from_millis(10))
            .with_queue_depth(2 * SMOKE_CONCURRENCY),
    )
    .expect("valid fleet service config");
    let barrier = Barrier::new(SMOKE_CONCURRENCY);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (i, job) in jobs.iter().enumerate() {
            let client = service.client();
            let (barrier, failures) = (&barrier, &failures);
            let job = job.clone();
            scope.spawn(move || {
                barrier.wait();
                let ticket = loop {
                    match client.submit(format!("tenant-{}", i % 8), job.clone()) {
                        Ok(ticket) => break ticket,
                        Err(ServiceError::Busy { .. }) => {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        Err(e) => panic!("submission failed: {e}"),
                    }
                };
                if let Err(e) = ticket.wait() {
                    failures.lock().unwrap().push(format!("request {i}: {e}"));
                }
            });
        }
    });
    let stats = service.shutdown();
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "smoke requests failed: {failures:?}");
    assert_eq!(stats.completed, SMOKE_CONCURRENCY as u64, "nothing lost");
    assert_eq!(stats.devices.len(), SMOKE_DEVICES);
    assert!(stats.devices.iter().all(|d| d.healthy));
    Smoke {
        devices: SMOKE_DEVICES,
        concurrency: SMOKE_CONCURRENCY,
        completed: stats.completed,
        batches: stats.batches,
        steals: stats.devices.iter().map(|d| d.steals).sum(),
        fleet_jobs_per_s: stats.fleet_jobs_per_s(),
        idle_devices: stats.devices.iter().filter(|d| d.jobs == 0).count(),
    }
}

fn render_json(points: &[Point], smoke: &Smoke) -> String {
    let headline = points
        .iter()
        .find(|p| p.devices == 4)
        .expect("sweep contains the 4-device point");
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"fleet\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"lengths\": [256, 1024, 2048, 4096], \"q\": {Q}, \
         \"device_topology\": \"{TOPOLOGY}\", \"lanes_per_device\": {}, \
         \"jobs_per_lane\": {JOBS_PER_LANE}}},\n",
        TOPOLOGY.total_banks()
    ));
    out.push_str(
        "  \"comparison\": \"weak scaling: fleet makespan vs single device, same per-device density, bit-identical outputs\",\n",
    );
    out.push_str("  \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"devices\": {}, \"jobs\": {}, \"makespan_us\": {:.2}, \
             \"busy_sum_us\": {:.2}, \"jobs_per_s\": {:.0}, \"speedup\": {:.3}, \
             \"efficiency\": {:.3}, \"device_jobs_min\": {}, \"device_jobs_max\": {}}}{}\n",
            p.devices,
            p.jobs,
            p.makespan_ns / 1000.0,
            p.busy_sum_ns / 1000.0,
            p.jobs_per_s,
            p.speedup,
            p.efficiency,
            p.min_device_jobs,
            p.max_device_jobs,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"service_smoke\": {{\"devices\": {}, \"concurrency\": {}, \"completed\": {}}},\n",
        smoke.devices, smoke.concurrency, smoke.completed
    ));
    out.push_str(&format!(
        "  \"headline\": {{\"devices\": {}, \"speedup\": {:.3}, \
         \"min_required\": {HEADLINE_MIN_SPEEDUP}}}\n",
        headline.devices, headline.speedup
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_fleet.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let lanes = TOPOLOGY.total_banks();
    println!(
        "fleet weak scaling on {TOPOLOGY} devices ({lanes} lanes each), \
         {JOBS_PER_LANE} job/lane, lengths cycling {LENGTHS:?}, q={Q}"
    );

    // One golden table per sweep point would recompute shared prefixes;
    // the largest burst's single-device outputs cover every smaller
    // burst because burst(n) is a prefix of burst(m) for n <= m.
    let max_jobs = DEVICES.iter().max().unwrap() * lanes * JOBS_PER_LANE;
    let all_jobs = burst(max_jobs);
    let golden = {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_topology(TOPOLOGY))
            .expect("valid golden config");
        let mut spectra = Vec::with_capacity(max_jobs);
        // One lane-count batch at a time, matching the single-device
        // point's density (the golden path is about values, not time).
        for chunk in all_jobs.chunks(lanes * JOBS_PER_LANE) {
            spectra.extend(exec.run(chunk).expect("valid golden batch").spectra);
        }
        spectra
    };

    let mut points: Vec<Point> = DEVICES
        .iter()
        .map(|&n| run_point(n, &all_jobs[..n * lanes * JOBS_PER_LANE], &golden))
        .collect();
    let base = points[0].jobs_per_s;
    for p in &mut points {
        p.speedup = p.jobs_per_s / base;
        p.efficiency = p.speedup / p.devices as f64;
    }
    for p in &points {
        println!(
            "devices {:>2}: {:>3} jobs  makespan {:>9.2} µs  {:>9.0} jobs/s  \
             speedup {:>6.2}x  efficiency {:>4.2}  per-device jobs {}..{}",
            p.devices,
            p.jobs,
            p.makespan_ns / 1000.0,
            p.jobs_per_s,
            p.speedup,
            p.efficiency,
            p.min_device_jobs,
            p.max_device_jobs,
        );
    }

    let smoke = run_smoke();
    println!(
        "service smoke: {} devices x {} clients -> {} completed, {} batches, \
         {} steals, {:.0} jobs/s fleet, {} idle devices",
        smoke.devices,
        smoke.concurrency,
        smoke.completed,
        smoke.batches,
        smoke.steals,
        smoke.fleet_jobs_per_s,
        smoke.idle_devices
    );

    let json = render_json(&points, &smoke);
    std::fs::write(&out_path, &json).expect("write BENCH_fleet.json");
    println!("wrote {out_path}");

    let headline = points
        .iter()
        .find(|p| p.devices == 4)
        .expect("sweep contains the 4-device point");
    println!(
        "headline: {} devices, {:.2}x over single device (bit-identical)",
        headline.devices, headline.speedup
    );
    if check {
        let mut failed = false;
        for pair in points.windows(2) {
            if pair[1].jobs_per_s <= pair[0].jobs_per_s {
                eprintln!(
                    "FAIL: throughput not strictly monotone: {} devices {:.0} jobs/s vs {} devices {:.0} jobs/s",
                    pair[0].devices, pair[0].jobs_per_s, pair[1].devices, pair[1].jobs_per_s
                );
                failed = true;
            }
        }
        if headline.speedup < HEADLINE_MIN_SPEEDUP {
            eprintln!(
                "FAIL: 4-device speedup {:.3}x below the {HEADLINE_MIN_SPEEDUP}x acceptance bar",
                headline.speedup
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: throughput strictly monotone over {DEVICES:?} devices, \
             4-device speedup >= {HEADLINE_MIN_SPEEDUP}x, outputs bit-identical"
        );
    }
}
