//! `host_profile` — host wall time of one PIM batch, layer by layer:
//! sixteen forward N = 4096 transforms (q = 8380417) on a 1 × 1 × 16
//! device, the batch `serve_saturate` drives. Each layer is timed through
//! the public `PimDevice` call that performs it, as the minimum of
//! [`REPS`] runs ([`EXECUTE_REPS`] for the two execute rows, which
//! alternate):
//!
//! * map — `build_ntt_program` for every job,
//! * decode — `decode_program` for every job: the functional
//!   simulator's one pass of buffer and address checks, which a memo
//!   miss pays,
//! * execute — `run_decoded` for every job, bank by bank on one thread:
//!   the functional simulation itself, which a memo hit pays,
//! * concurrent execute — the same sixteen programs through one
//!   `run_banks` call, which runs the banks on the caller and the
//!   process-wide pool of helper threads (`available_parallelism() − 1`)
//!   as `BatchExecutor::run` does,
//! * schedule — one `schedule_queues` over the sixteen bank queues.
//!
//! It records the size of the N = 4096 program: its mapped commands, the
//! ops it decodes to (each read → compute → write-back of one atom is
//! one in-place op), the entries the run loop dispatches for them (each
//! run of in-place ops of one kind with constant steps is one entry) and
//! the decoded form's heap bytes.
//!
//! It also reports host nanoseconds per simulated command-bus slot, the
//! unit the repository benchmark's `host_ns_per_sim_cmd` uses, and the
//! whole batch through `BatchExecutor::run`: once on a fresh executor
//! (cold: it maps, decodes and schedules) and the minimum of
//! [`EXECUTE_REPS`] repeats on the same executor, in turn with the
//! execute rows (warm: the decoded programs and the queue report come
//! from its memo; validation, loading, functional execution and
//! read-back still run).
//!
//! Every timed run of the execute rows and of the executor gets operands
//! drawn fresh from a seeded generator (loading them is not timed); the
//! warm runs keep the batch's shape, so they still hit the memo. Replaying
//! one set of operands would let the branch predictor learn the
//! residues and time a run no caller sees.
//!
//! The `data_independence` block times two kernels on fresh random
//! operands against all-zero ones, the two sides interleaved, each the
//! minimum of [`EXECUTE_REPS`]: the serial functional run of the sixteen
//! programs, and the lane-batched forward NTT
//! (`ntt_ref::lanes::forward_batch`) of eight N = 4096 polynomials. The
//! modular reductions both run (`Montgomery32` in the CU model, the
//! Shoup legs on the host) subtract `q` without a branch, so their time
//! does not depend on the residues and both ratios read ≈1.0×. A
//! data-dependent `if x >= q` reads ≈2× and ≈1.5×: zeros never take the
//! subtraction, random residues mispredict it.
//!
//! The `cu_datapath` block times the serial functional run of the
//! sixteen programs against sixteen scalar `NttPlan::forward` calls on
//! the same operands, interleaved with it, min of [`EXECUTE_REPS`]: the
//! same sixteen transforms, once through the compute unit's 32-bit
//! Montgomery lanes and once through the host's 64-bit Shoup kernel.
//!
//! Written to `BENCH_host.json` (`--out PATH` to override).
//!
//! `--check` applies five gates, each a ratio taken within the run so it
//! does not depend on the runner's speed:
//!
//! * the batch's `schedule_queues` time against sixteen single-bank
//!   `sched::schedule` runs of the same program. Sixteen programs sharing
//!   one bus issue sixteen programs' worth of commands, so a scheduler
//!   whose host cost grows with the commands it issues reads close to
//!   1×. It reads below that (≈0.6× on a 2-vCPU x86-64 VM) because
//!   `sched::schedule` runs the same queue engine with its per-command
//!   log, which the batch path skips. The gate fails above
//!   [`MAX_SCHEDULE_RATIO`].
//! * the warm executor run against the serial execute of the same
//!   sixteen programs, the two timed in turn in one loop. With the memo,
//!   what a repeat still does is validate, load the operands, execute
//!   through `run_banks` and read back: 1.22–1.33× the serial execute on
//!   a 2-vCPU x86-64 VM giving the process two cores, 1.54–1.66× over 10
//!   runs while it gave one and 1.60–1.80× on one core, once validation
//!   lays the operands out in its one pass and the read-back widens them
//!   into the spectra (1.58–1.99× over 6 runs before, with the helper
//!   pool), against
//!   1.91–2.36× over 5 alternating runs with a helper spawned per call
//!   (1.0–1.9× over 14 runs before Shoup products made the serial execute
//!   cheaper; the high end while the VM runs the process's threads no
//!   faster than one), 1.65–1.7× on one core.
//!   Without the memo it maps, decodes and schedules again (5.9–7.6×).
//!   The gate fails above [`MAX_WARM_OVER_EXECUTE`]. Its yardstick is
//!   work the warm run must still do, so a faster cold path leaves it
//!   where it is; against the cold run the ratio would tighten with
//!   every cold-path gain.
//! * each `data_independence` row, random operands against zeros. The
//!   gate fails above [`MAX_DATA_RATIO`].
//! * the `cu_datapath` row, the serial functional run against
//!   `NttPlan::forward`. With Shoup twiddle products, C2 and Scale as
//!   SSE2 vector code and in-place ops run as runs, the ratio reads
//!   0.31–0.36× over 62 runs on a 2-vCPU x86-64 VM. The gate,
//!   [`MAX_EXECUTE_OVER_PLAN`], pins that codegen: with `c2` left out of
//!   line in the run loop the ratio read 0.42–0.48× over 50 runs, and
//!   fails it. Products written on 32-bit lanes (a wrapping `b·w − q̂·q`
//!   per lane) read 0.29–0.35× over 12 runs, no slower, so no timing
//!   gate can catch them. It read ≈0.41–0.49× with REDC products,
//!   ≈0.6× while every atom moved through a buffer and ≈0.9–1.0× with
//!   `min` corrections, which have no SSE2 vector form.
//! * the concurrent execute against the serial one. Sixteen banks on
//!   two cores read ≈0.5–0.7× on a 2-vCPU x86-64 VM while the control
//!   read ≥ 1.7×; while it read 0.66–0.94×, 0.79–1.10× with the helper
//!   pool and 1.09–1.22× with a helper spawned per call. The gate fails
//!   above [`MAX_CONCURRENT_RATIO`]. It applies only where two threads
//!   can run at once. With one core available no helper starts and the
//!   two rows time the same loop. A shared VM can also, for minutes at a
//!   time, run the process's two threads little or no faster than one
//!   although it reports two cores; a control timed in the same loop, a
//!   memory-free arithmetic loop on one thread and on two, measures
//!   that. Below [`MIN_PROBE_SPEEDUP`] the host is not giving a second
//!   core, and the gate is skipped and says so, as on one core.
//!
//! Whatever the control reads, `--check` also fails when the helper
//! budget allows a thread (`helpers::budget() ≥ 1`) and none ever ran
//! (`helpers::peak() == 0`) after the concurrent execute. That check
//! does not depend on timing: every call with two busy banks queues a
//! task for the pool, a pool thread counts once it starts a task, and
//! the check waits up to 30 s for a queued task to start. The peak is
//! written to `BENCH_host.json` as `helpers_peak`.

use modmath::prime::NttField;
use ntt_pim::engine::batch::{BatchExecutor, NttJob};
use ntt_pim_core::config::{PimConfig, Topology};
use ntt_pim_core::device::{BankStep, NttDirection, PimDevice, PolyHandle, StoredOrder};
use ntt_pim_core::helpers;
use ntt_pim_core::mapper::Program;
use ntt_pim_core::sched::schedule;
use ntt_pim_core::sim::DecodedProgram;
use ntt_ref::lanes::{self, LANE_WIDTH};
use ntt_ref::plan::NttPlan;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transform length of every job.
const N: usize = 4096;
/// Dilithium's modulus.
const Q: u32 = 8_380_417;
/// Jobs in the batch: one per bank.
const JOBS: usize = 16;
/// Timed repetitions per layer; the minimum is reported.
const REPS: usize = 5;
/// Timed repetitions of the serial and concurrent execute: each takes
/// about a millisecond, and their ratio is gated, so they get more.
const EXECUTE_REPS: usize = 20;
/// The gate: the batch may cost at most this many times sixteen
/// single-bank schedules of the same program.
const MAX_SCHEDULE_RATIO: f64 = 3.0;
/// The gate: a repeat of the batch on the same executor may cost at most
/// this many times the serial execute of its sixteen programs.
const MAX_WARM_OVER_EXECUTE: f64 = 2.5;
/// The gate: a kernel may cost at most this many times as much on random
/// operands as on all-zero ones.
const MAX_DATA_RATIO: f64 = 1.25;
/// The gate: the serial functional execute of the sixteen programs may
/// cost at most this fraction of sixteen scalar `NttPlan::forward` calls
/// on the same operands: 15% over the worst of 62 runs (0.36×), below
/// the best run with `c2` out of line (0.42×, rounded; 0.454× the best
/// of the 35 runs recorded to three places).
const MAX_EXECUTE_OVER_PLAN: f64 = 0.42;
/// The gate, on a host with at least two cores: the concurrent execute
/// may cost at most this fraction of the serial one.
const MAX_CONCURRENT_RATIO: f64 = 0.75;
/// The control's two-thread speed-up below which the host is not giving
/// this process a second core, and the concurrent execute gate cannot
/// measure anything. Two free cores read ≈2×. On a 2-vCPU x86-64 VM
/// the concurrent ratio came out near 1.0–1.2 divided by the control's
/// speed-up, so below ≈1.7× a working `run_banks` can sit at the gate
/// itself.
const MIN_PROBE_SPEEDUP: f64 = 1.7;
/// Iterations of the control's arithmetic loop: about a millisecond,
/// like the execute it is timed next to.
const PROBE_SPINS: u64 = 400_000;

/// Wall time of `f`, in milliseconds.
fn ms<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// The control's unit of work: dependent multiply-adds, no memory
/// traffic.
fn spin(seed: u64) -> u64 {
    (0..PROBE_SPINS).fold(seed, |x, i| {
        black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i))
    })
}

/// The least of `REPS` timings `run` returns.
fn min_of(run: impl FnMut() -> f64) -> f64 {
    std::iter::repeat_with(run)
        .take(REPS)
        .fold(f64::INFINITY, f64::min)
}

/// Seeded operands, drawn fresh for every timed run: a 64-bit LCG
/// stream, its high bits reduced mod `Q`.
struct Operands(u64);

impl Operands {
    fn poly(&mut self) -> Vec<u32> {
        (0..N)
            .map(|_| {
                self.0 = self
                    .0
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((self.0 >> 32) % u64::from(Q)) as u32
            })
            .collect()
    }

    /// One operand vector per job.
    fn batch(&mut self) -> Vec<Vec<u32>> {
        (0..JOBS).map(|_| self.poly()).collect()
    }

    /// The batch as executor jobs.
    fn jobs(&mut self) -> Vec<NttJob> {
        self.batch()
            .into_iter()
            .map(|c| NttJob::forward(c.into_iter().map(u64::from).collect(), u64::from(Q)))
            .collect()
    }
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
    let mut operands = Operands(1);
    let handles = load_all(&mut dev, &operands.batch());

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
    let decoded: Vec<Arc<DecodedProgram>> = decode(&dev).into_iter().map(Arc::new).collect();
    let (commands, decoded_ops, dispatched, decoded_heap) = (
        programs[0].len(),
        decoded[0].op_count(),
        decoded[0].dispatch_count(),
        decoded[0].heap_bytes(),
    );

    // The serial execute on random operands and on zeros, and the
    // concurrent execute, interleaved so all see the same host state,
    // each on freshly loaded operands (loading is not timed). The
    // concurrent one hands the same programs to `run_banks`, one bank per
    // helper-thread work item. The control runs two units of arithmetic
    // on one thread, then one on each of two.
    let zeros = vec![vec![0; N]; JOBS];
    let run_serial = |dev: &mut PimDevice| {
        for (bank, d) in decoded.iter().enumerate() {
            dev.run_decoded(bank, d).expect("program runs");
        }
    };
    // The host's scalar transform, timed on the serial execute's operands.
    let plan = NttPlan::new(NttField::new(N, u64::from(Q)).expect("q has the root"));
    let mut plan_ms = f64::INFINITY;
    let (mut execute_ms, mut execute_zero_ms) = (f64::INFINITY, f64::INFINITY);
    let mut concurrent_ms = f64::INFINITY;
    let (mut one_thread_ms, mut two_threads_ms) = (f64::INFINITY, f64::INFINITY);
    // The whole batch through a fresh executor, cold, then warm repeats
    // in the loop beside the serial execute they are gated against.
    let mut exec = BatchExecutor::new(config).expect("valid config");
    let jobs = operands.jobs();
    let cold_ms = ms(|| exec.run(&jobs).expect("batch runs"));
    let mut warm_ms = f64::INFINITY;
    for _ in 0..EXECUTE_REPS {
        one_thread_ms = one_thread_ms.min(ms(|| spin(1) ^ spin(2)));
        two_threads_ms = two_threads_ms.min(ms(|| {
            std::thread::scope(|scope| {
                let other = scope.spawn(|| spin(1));
                spin(2) ^ other.join().expect("control thread ran")
            })
        }));
        let batch = operands.batch();
        load_all(&mut dev, &batch);
        execute_ms = execute_ms.min(ms(|| run_serial(&mut dev)));
        let mut polys: Vec<Vec<u64>> = batch
            .iter()
            .map(|c| c.iter().map(|&x| u64::from(x)).collect())
            .collect();
        plan_ms = plan_ms.min(ms(|| polys.iter_mut().for_each(|p| plan.forward(p))));
        load_all(&mut dev, &zeros);
        execute_zero_ms = execute_zero_ms.min(ms(|| run_serial(&mut dev)));
        load_all(&mut dev, &operands.batch());
        let lists: Vec<Vec<BankStep>> = decoded
            .iter()
            .map(|program| {
                vec![BankStep {
                    loads: Vec::new(),
                    program: Arc::clone(program),
                    read: None,
                }]
            })
            .collect();
        concurrent_ms = concurrent_ms.min(ms(|| dev.run_banks(lists).expect("programs run")));
        let jobs = operands.jobs();
        warm_ms = warm_ms.min(ms(|| exec.run(&jobs).expect("batch runs")));
    }
    let concurrent_ratio = concurrent_ms / execute_ms;
    let cores = helpers::budget() + 1;
    // A helper counts once its queued task starts, which can be after the
    // call that queued it returned.
    let deadline = Instant::now() + Duration::from_secs(30);
    while cores >= 2 && helpers::peak() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let helpers_peak = helpers::peak();
    let probe_speedup = one_thread_ms / two_threads_ms;
    let gated = cores >= 2 && probe_speedup >= MIN_PROBE_SPEEDUP;
    let execute_data_ratio = execute_ms / execute_zero_ms;
    let execute_plan_ratio = execute_ms / plan_ms;

    // One lane group of the host's lane-batched forward NTT, random
    // operands against zeros, interleaved.
    let (mut lanes_ms, mut lanes_zero_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..EXECUTE_REPS {
        let mut polys: Vec<Vec<u64>> = (0..LANE_WIDTH)
            .map(|_| operands.poly().into_iter().map(u64::from).collect())
            .collect();
        lanes_ms = lanes_ms.min(ms(|| lanes::forward_batch(&plan, &mut polys)));
        let mut polys = vec![vec![0; N]; LANE_WIDTH];
        lanes_zero_ms = lanes_zero_ms.min(ms(|| lanes::forward_batch(&plan, &mut polys)));
    }
    let lanes_data_ratio = lanes_ms / lanes_zero_ms;

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

    let warm_ratio = warm_ms / execute_ms;

    let total_ms = map_ms + decode_ms + execute_ms + schedule_ms;
    let per_slot = |ms: f64| ms * 1e6 / report.bus_slots as f64;
    let ratio = schedule_ms / singles_ms;
    println!(
        "{JOBS} x N={N} forward, q={Q}, on {topology}: {:.2} µs simulated, {} bus slots",
        report.latency_ns / 1000.0,
        report.bus_slots
    );
    println!(
        "program: {commands} commands, decoded to {decoded_ops} ops in {dispatched} run-loop \
         entries ({decoded_heap} heap bytes)"
    );
    println!("host ms (min of {REPS}):");
    println!("  map      {map_ms:>9.3}");
    println!("  decode   {decode_ms:>9.3}");
    println!("  execute  {execute_ms:>9.3} (min of {EXECUTE_REPS})");
    println!("  execute concurrently {concurrent_ms:.3} (min of {EXECUTE_REPS}, {cores} cores)");
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
        "BatchExecutor::run cold {cold_ms:.3} ms, warm {warm_ms:.3} ms (min of {EXECUTE_REPS}): \
         {warm_ratio:.2}x the serial execute (gate {MAX_WARM_OVER_EXECUTE:.2}x)"
    );
    println!(
        "run_banks {concurrent_ms:.3} ms vs {JOBS} x run_decoded {execute_ms:.3} ms on {cores} \
         cores: {concurrent_ratio:.2}x (gate {MAX_CONCURRENT_RATIO:.2}x where two threads run \
         at once; control: two threads {probe_speedup:.2}x one); helper threads at once: \
         {helpers_peak} of {}",
        helpers::budget()
    );
    println!(
        "CU datapath (min of {EXECUTE_REPS}, same operands): {JOBS} x run_decoded \
         {execute_ms:.3} ms vs {JOBS} x NttPlan::forward {plan_ms:.3} ms: \
         {execute_plan_ratio:.2}x (gate {MAX_EXECUTE_OVER_PLAN:.2}x)"
    );
    println!(
        "data independence (min of {EXECUTE_REPS}, random vs zero operands, gate \
         {MAX_DATA_RATIO:.2}x): {JOBS} x run_decoded {execute_ms:.3} vs {execute_zero_ms:.3} ms \
         ({execute_data_ratio:.2}x); {LANE_WIDTH} x {} forward {:.1} vs {:.1} µs \
         ({lanes_data_ratio:.2}x)",
        lanes::kernel_label(),
        lanes_ms * 1e3,
        lanes_zero_ms * 1e3
    );

    let json = format!(
        "{{\n  \"bench\": \"host_profile\",\n  \
         \"workload\": {{\"topology\": \"{topology}\", \"jobs\": {JOBS}, \"n\": {N}, \"q\": {Q}, \
         \"kind\": \"forward\", \"stat\": \"min of {REPS}\"}},\n  \
         \"sim\": {{\"latency_us\": {:.2}, \"bus_slots\": {}}},\n  \
         \"program\": {{\"commands\": {commands}, \"decoded_ops\": {decoded_ops}, \
         \"dispatched_entries\": {dispatched}, \"decoded_heap_bytes\": {decoded_heap}}},\n  \
         \"host_ms\": {{\"map\": {map_ms:.3}, \"decode\": {decode_ms:.3}, \"execute\": {execute_ms:.3}, \
         \"execute_concurrent\": {concurrent_ms:.3}, \
         \"schedule\": {schedule_ms:.3}, \"total\": {total_ms:.3}}},\n  \
         \"host_ns_per_bus_slot\": {{\"schedule\": {:.1}, \"total\": {:.1}}},\n  \
         \"gate\": {{\"schedule_queues_ms\": {schedule_ms:.3}, \"single_schedules_ms\": {singles_ms:.3}, \
         \"ratio\": {ratio:.3}, \"max_ratio\": {MAX_SCHEDULE_RATIO}}},\n  \
         \"executor_ms\": {{\"stat\": \"warm: min of {EXECUTE_REPS}\", \"cold\": {cold_ms:.3}, \"warm\": {warm_ms:.3}, \
         \"serial_execute\": {execute_ms:.3}, \"warm_over_serial_execute\": {warm_ratio:.3}, \
         \"max_ratio\": {MAX_WARM_OVER_EXECUTE}}},\n  \
         \"execute_concurrency\": {{\"cores\": {cores}, \"stat\": \"min of {EXECUTE_REPS}\", \
         \"serial_ms\": {execute_ms:.3}, \
         \"concurrent_ms\": {concurrent_ms:.3}, \"concurrent_over_serial\": {concurrent_ratio:.3}, \
         \"two_thread_control_speedup\": {probe_speedup:.3}, \"min_control_speedup\": {MIN_PROBE_SPEEDUP}, \
         \"max_ratio\": {MAX_CONCURRENT_RATIO}, \"gated\": {gated}, \"helpers_peak\": {helpers_peak}}},\n  \
         \"cu_datapath\": {{\"stat\": \"min of {EXECUTE_REPS}\", \"serial_execute_ms\": {execute_ms:.3}, \
         \"plan_forward_ms\": {plan_ms:.3}, \"execute_over_plan\": {execute_plan_ratio:.3}, \
         \"max_ratio\": {MAX_EXECUTE_OVER_PLAN}}},\n  \
         \"data_independence\": {{\"stat\": \"min of {EXECUTE_REPS}\", \"max_ratio\": {MAX_DATA_RATIO}, \
         \"serial_execute\": {{\"random_ms\": {execute_ms:.3}, \"zero_ms\": {execute_zero_ms:.3}, \
         \"random_over_zero\": {execute_data_ratio:.3}}}, \
         \"lanes_forward_batch\": {{\"kernel\": \"{}\", \"polys\": {LANE_WIDTH}, \"n\": {N}, \
         \"random_us\": {:.1}, \"zero_us\": {:.1}, \"random_over_zero\": {lanes_data_ratio:.3}}}}}\n}}\n",
        report.latency_ns / 1000.0,
        report.bus_slots,
        per_slot(schedule_ms),
        per_slot(total_ms),
        lanes::kernel_label(),
        lanes_ms * 1e3,
        lanes_zero_ms * 1e3,
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
        if warm_ratio > MAX_WARM_OVER_EXECUTE {
            eprintln!(
                "FAIL: a repeated BatchExecutor::run costs {warm_ratio:.2}x the serial execute \
                 of its {JOBS} programs; the gate allows {MAX_WARM_OVER_EXECUTE:.2}x"
            );
            failed = true;
        }
        for (what, data_ratio) in [
            (format!("{JOBS} x run_decoded"), execute_data_ratio),
            (
                format!("{LANE_WIDTH} x {} forward", lanes::kernel_label()),
                lanes_data_ratio,
            ),
        ] {
            if data_ratio > MAX_DATA_RATIO {
                eprintln!(
                    "FAIL: {what} costs {data_ratio:.2}x as much on random operands as on \
                     zeros; the gate allows {MAX_DATA_RATIO:.2}x"
                );
                failed = true;
            }
        }
        if execute_plan_ratio > MAX_EXECUTE_OVER_PLAN {
            eprintln!(
                "FAIL: {JOBS} x run_decoded costs {execute_plan_ratio:.2}x {JOBS} scalar \
                 NttPlan::forward on the same operands; the gate allows \
                 {MAX_EXECUTE_OVER_PLAN:.2}x"
            );
            failed = true;
        }
        if cores >= 2 && helpers_peak == 0 {
            eprintln!(
                "FAIL: run_banks over {JOBS} banks started no helper thread although the \
                 budget allows {}",
                helpers::budget()
            );
            failed = true;
        }
        if cores < 2 {
            println!(
                "concurrent execute gate skipped: {cores} core available, so no helper \
                 thread starts"
            );
        } else if !gated {
            println!(
                "concurrent execute gate skipped: the control ran two threads at \
                 {probe_speedup:.2}x one thread's speed (below {MIN_PROBE_SPEEDUP}x), so the \
                 host is not giving this process a second core"
            );
        } else if concurrent_ratio > MAX_CONCURRENT_RATIO {
            eprintln!(
                "FAIL: run_banks over {JOBS} banks on {cores} cores costs {concurrent_ratio:.2}x \
                 running them bank by bank; the gate allows {MAX_CONCURRENT_RATIO:.2}x"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: {ratio:.2}x <= {MAX_SCHEDULE_RATIO:.1}x, \
             warm/execute {warm_ratio:.2}x <= {MAX_WARM_OVER_EXECUTE:.2}x, \
             random/zero {execute_data_ratio:.2}x and {lanes_data_ratio:.2}x <= \
             {MAX_DATA_RATIO:.2}x, execute/NttPlan {execute_plan_ratio:.2}x <= \
             {MAX_EXECUTE_OVER_PLAN:.2}x, concurrent execute {concurrent_ratio:.2}x"
        );
    }
}
