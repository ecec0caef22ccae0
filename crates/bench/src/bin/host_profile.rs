//! `host_profile` — host wall time of one PIM batch, layer by layer:
//! sixteen forward N = 4096 transforms (q = 8380417) on a 1 × 1 × 16
//! device, the batch `serve_saturate` drives. Each layer is timed through
//! the public `PimDevice` call that performs it, as the minimum of
//! [`REPS`] runs:
//!
//! * map — `build_ntt_program` for every job,
//! * decode — `decode_program` for every job: the functional
//!   simulator's one pass of buffer and address checks, which a memo
//!   miss pays,
//! * execute — `run_decoded` for every job: the functional simulation
//!   itself, which a memo hit pays,
//! * schedule — one `schedule_queues` over the sixteen bank queues.
//!
//! It also reports host nanoseconds per simulated command-bus slot, the
//! unit the repository benchmark's `host_ns_per_sim_cmd` uses, and the
//! whole batch through `BatchExecutor::run`: once on a fresh executor
//! (cold: it maps, decodes and schedules) and the minimum of [`REPS`]
//! repeats on the same executor (warm: the decoded programs and the queue
//! report come from its memo; validation, functional execution and
//! read-back still run).
//! Written to `BENCH_host.json` (`--out PATH` to override).
//!
//! `--check` applies two gates, each a ratio taken within the run so it
//! does not depend on the runner's speed:
//!
//! * the batch's `schedule_queues` time against sixteen single-bank
//!   `sched::schedule` runs of the same program. Sixteen programs sharing
//!   one bus issue sixteen programs' worth of commands, so a scheduler
//!   whose host cost grows with the commands it issues reads close to
//!   1×. It reads below that (≈0.76× on a 2-vCPU x86-64 VM) because
//!   `sched::schedule` runs the same queue engine with its per-command
//!   log, which the batch path skips. The gate fails above
//!   [`MAX_SCHEDULE_RATIO`].
//! * the warm executor run against the cold one. Without the memo a
//!   repeat costs what the first run did (≈0.95×); with it, what is left
//!   is the functional run, loading and read-back (≈0.13× on a 2-vCPU
//!   x86-64 VM). The gate fails above [`MAX_WARM_RATIO`].

use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_core::config::{PimConfig, Topology};
use ntt_pim_core::device::{NttDirection, PimDevice, PolyHandle, StoredOrder};
use ntt_pim_core::mapper::Program;
use ntt_pim_core::sched::schedule;
use ntt_pim_core::sim::DecodedProgram;
use std::hint::black_box;
use std::time::Instant;

/// Transform length of every job.
const N: usize = 4096;
/// Dilithium's modulus.
const Q: u32 = 8_380_417;
/// Jobs in the batch: one per bank.
const JOBS: usize = 16;
/// Timed repetitions per layer; the minimum is reported.
const REPS: usize = 5;
/// The gate: the batch may cost at most this many times sixteen
/// single-bank schedules of the same program.
const MAX_SCHEDULE_RATIO: f64 = 3.0;
/// The gate: a repeat of the batch on the same executor may cost at most
/// this fraction of its first run.
const MAX_WARM_RATIO: f64 = 0.25;

/// Wall time of `f`, in milliseconds.
fn ms<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// The least of `REPS` timings `run` returns.
fn min_of(run: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(run)
        .take(REPS)
        .fold(f64::INFINITY, f64::min)
}

fn coeffs(job: usize) -> Vec<u32> {
    (0..N as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) ^ job as u32) % Q)
        .collect()
}

fn load_all(dev: &mut PimDevice, inputs: &[Vec<u32>]) -> Vec<PolyHandle> {
    inputs
        .iter()
        .enumerate()
        .map(|(bank, c)| {
            dev.load_in_bank(bank, 0, c, Q, StoredOrder::BitReversed)
                .expect("job fits its bank")
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_host.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let topology = Topology::new(1, 1, JOBS as u32);
    let config = PimConfig::hbm2e(2).with_topology(topology);
    let mut dev = PimDevice::new(config).expect("valid config");
    let inputs: Vec<Vec<u32>> = (0..JOBS).map(coeffs).collect();
    let handles = load_all(&mut dev, &inputs);

    let build = |dev: &PimDevice| -> Vec<Program> {
        handles
            .iter()
            .map(|h| {
                dev.build_ntt_program(h, NttDirection::Forward)
                    .expect("q has the root")
            })
            .collect()
    };
    let map_ms = min_of(|| ms(|| build(&dev)));
    let programs = build(&dev);

    let decode = |dev: &PimDevice| -> Vec<DecodedProgram> {
        programs
            .iter()
            .map(|p| dev.decode_program(p).expect("program decodes"))
            .collect()
    };
    let decode_ms = min_of(|| ms(|| decode(&dev)));
    let decoded = decode(&dev);

    // Each run executes on freshly loaded inputs; loading is not timed.
    let execute_ms = min_of(|| {
        load_all(&mut dev, &inputs);
        ms(|| {
            for (bank, d) in decoded.iter().enumerate() {
                dev.run_decoded(bank, d).expect("program runs");
            }
        })
    });

    let queues: Vec<Vec<Program>> = programs.iter().map(|p| vec![p.clone()]).collect();
    let schedule_ms = min_of(|| ms(|| dev.schedule_queues(&queues).expect("16 queues")));
    let report = dev.schedule_queues(&queues).expect("16 queues");
    let singles_ms = min_of(|| {
        ms(|| {
            for p in &programs {
                black_box(schedule(&config, p).expect("one bank"));
            }
        })
    });

    let jobs: Vec<NttJob> = inputs
        .iter()
        .map(|c| NttJob::forward(c.iter().map(|&v| u64::from(v)).collect(), u64::from(Q)))
        .collect();
    let mut exec = BatchExecutor::new(config).expect("valid config");
    let cold_ms = ms(|| exec.run(&jobs).expect("batch runs"));
    let warm_ms = min_of(|| ms(|| exec.run(&jobs).expect("batch runs")));
    let warm_ratio = warm_ms / cold_ms;

    let total_ms = map_ms + decode_ms + execute_ms + schedule_ms;
    let per_slot = |ms: f64| ms * 1e6 / report.bus_slots as f64;
    let ratio = schedule_ms / singles_ms;
    println!(
        "{JOBS} x N={N} forward, q={Q}, on {topology}: {:.2} µs simulated, {} bus slots",
        report.latency_ns / 1000.0,
        report.bus_slots
    );
    println!("host ms (min of {REPS}):");
    println!("  map      {map_ms:>9.3}");
    println!("  decode   {decode_ms:>9.3}");
    println!("  execute  {execute_ms:>9.3}");
    println!("  schedule {schedule_ms:>9.3}");
    println!("  total    {total_ms:>9.3}");
    println!(
        "host ns per simulated bus slot: schedule {:.1}, total {:.1}",
        per_slot(schedule_ms),
        per_slot(total_ms)
    );
    println!(
        "schedule_queues {schedule_ms:.3} ms vs {JOBS} x sched::schedule {singles_ms:.3} ms: \
         {ratio:.2}x (gate {MAX_SCHEDULE_RATIO:.1}x)"
    );
    println!(
        "BatchExecutor::run cold {cold_ms:.3} ms, warm {warm_ms:.3} ms (min of {REPS}): \
         {warm_ratio:.2}x (gate {MAX_WARM_RATIO:.2}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"host_profile\",\n  \
         \"workload\": {{\"topology\": \"{topology}\", \"jobs\": {JOBS}, \"n\": {N}, \"q\": {Q}, \
         \"kind\": \"forward\", \"stat\": \"min of {REPS}\"}},\n  \
         \"sim\": {{\"latency_us\": {:.2}, \"bus_slots\": {}}},\n  \
         \"host_ms\": {{\"map\": {map_ms:.3}, \"decode\": {decode_ms:.3}, \"execute\": {execute_ms:.3}, \
         \"schedule\": {schedule_ms:.3}, \"total\": {total_ms:.3}}},\n  \
         \"host_ns_per_bus_slot\": {{\"schedule\": {:.1}, \"total\": {:.1}}},\n  \
         \"gate\": {{\"schedule_queues_ms\": {schedule_ms:.3}, \"single_schedules_ms\": {singles_ms:.3}, \
         \"ratio\": {ratio:.3}, \"max_ratio\": {MAX_SCHEDULE_RATIO}}},\n  \
         \"executor_ms\": {{\"cold\": {cold_ms:.3}, \"warm\": {warm_ms:.3}, \
         \"warm_over_cold\": {warm_ratio:.3}, \"max_ratio\": {MAX_WARM_RATIO}}}\n}}\n",
        report.latency_ns / 1000.0,
        report.bus_slots,
        per_slot(schedule_ms),
        per_slot(total_ms),
    );
    std::fs::write(&out_path, json).expect("write BENCH_host.json");
    println!("wrote {out_path}");

    if check {
        let mut failed = false;
        if ratio > MAX_SCHEDULE_RATIO {
            eprintln!(
                "FAIL: schedule_queues over {JOBS} banks costs {ratio:.2}x {JOBS} single-bank \
                 schedules of the same program; the gate allows {MAX_SCHEDULE_RATIO:.1}x"
            );
            failed = true;
        }
        if warm_ratio > MAX_WARM_RATIO {
            eprintln!(
                "FAIL: a repeated BatchExecutor::run costs {warm_ratio:.2}x its first run; \
                 the gate allows {MAX_WARM_RATIO:.2}x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: {ratio:.2}x <= {MAX_SCHEDULE_RATIO:.1}x, \
             {warm_ratio:.2}x <= {MAX_WARM_RATIO:.2}x"
        );
    }
}
