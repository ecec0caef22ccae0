//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it; the binary prints to stdout.

use crate::args::ParsedArgs;
use crate::CliError;
use ntt_bus::{BackendSpec, EngineError, SchedulePolicy, MAX_FLEET_SLOTS};
use ntt_pim::engine::batch::{validate_capacity, BatchExecutor, JobKind, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_pim_core::config::{PimConfig, Topology};
use ntt_pim_core::device::{NttDirection, PimDevice};
use ntt_pim_core::layout::PolyLayout;
use ntt_pim_core::mapper::{map_ntt, MapperOptions, NttParams};
use ntt_pim_core::sched::schedule;
use std::fmt::Write as _;

/// Most jobs one `batch` run generates: every job's coefficients and
/// result are held at once (4096 jobs of N = 8192 hold 512 MiB).
pub const MAX_BATCH_JOBS: usize = 4096;
/// Most requests one `serve` run pre-generates and holds (16384
/// requests of N = 4096 hold 512 MiB of coefficients).
pub const MAX_SERVE_REQUESTS: usize = 16_384;
/// Most `serve` tenants: each drives its requests from its own thread.
pub const MAX_SERVE_TENANTS: usize = 256;

/// Usage text for `help` and errors.
pub const USAGE: &str = "\
ntt-pim — row-centric DRAM-PIM NTT simulator (DAC'23 reproduction)

USAGE:
    ntt-pim <COMMAND> [OPTIONS]

COMMANDS:
    run      simulate one forward NTT and print the report
    sweep    latency table over polynomial lengths and buffer counts
    trace    dump the DRAM command trace of one NTT (textual format)
    verify   functional verification against the software reference
    polymul  on-device negacyclic polynomial product
    batch    schedule --jobs NTTs across --banks banks (per-bank queues)
    serve    closed-loop load test of the concurrent serving layer
    help     show this message

COMMON OPTIONS (run, trace, verify, polymul, batch):
    --n <len>        polynomial length, power of two       [default: 1024]
    --nb <count>     atom buffers incl. primary            [default: 2]
    --clock <mhz>    CU clock in MHz                       [default: 1200]
    --q <modulus>    odd prime with 2N | q-1               [default: auto]
    --refresh        enable tREFI/tRFC refresh modeling
    (run, trace, verify and polymul run on one bank)

SWEEP OPTIONS (with --clock, --q and --refresh):
    --nb <a,b,c>     list of buffer counts                 [default: 1,2,4,6]
    --lengths <...>  list of lengths                       [default: 256..8192]

BATCH OPTIONS:
    --channels <c>   independent channels (private bus each) [default: 1]
    --ranks <r>      ranks per channel (own tRRD/tFAW window) [default: 1]
    --banks <k>      banks per rank                        [default: 16]
    --jobs <k>       number of independent NTT jobs, at most 4096
                                                           [default: 16]
    --lengths <...>  job lengths, cycled over the batch
                     (mixed sizes show the LPT gain)       [default: --n]
    --split          run job 0 as one large length---n NTT split across
                     the whole topology (four-step column/row sub-jobs
                     with a dependency barrier)
    --backend <b>    run the batch through one named backend instead of
                     the raw executor: pim, cpu-lanes, mentt, or bp-ntt
                     (jobs outside the backend's capability window are
                     typed errors; reports its window and cost quote)

SERVE OPTIONS (with --nb, --q, --refresh, --channels, --ranks, --banks):
    --tenants <t>       concurrent closed-loop tenants, at most 256
                                                              [default: 8]
    --requests <r>      total requests across tenants, at most 16384
                                                              [default: 64]
    --max-wait-us <w>   micro-batch flush deadline, µs        [default: 500]
    --queue-depth <d>   admission bound (then Busy)           [default: 256]
    --tenant-inflight <k>  per-tenant in-flight cap (0 = off) [default: 0]
    --lengths <...>     request lengths, cycled               [default: 256,1024,2048,4096]
    --devices <n>       simulated fleet size, at most 256 (replicas of
                        the serve topology, routed by predicted drain) [default: 1]
    --backends <list>   mixed backend fleet, name or name:count entries
                        from pim, cpu-lanes, mentt, bp-ntt (for example
                        pim:2,cpu-lanes:1; at most 256 slots); overrides
                        --devices, routed cost-aware per micro-batch shape
    --steal-threshold-us <t>  fleet imbalance tolerance before
                        batches split / workers steal, µs     [default: 0]
    --smoke             small verified run (CI): golden-check every response
    (serve defaults to the 2x2x4 topology; --channels/--ranks/--banks override;
     --devices > 1 appends a per-device fleet report)

The device topology is channels x ranks x banks: jobs fan across the
product (e.g. --channels 2 --ranks 2 --banks 4 = 16-way), with LPT
balancing channels first, then the banks within each channel.

Each command accepts only the options and flags listed for it, each at
most once; anything else, or a value after a flag, is a usage error
(exit code 2).
";

/// One subcommand: its name, what runs it, and every option (taking a
/// value) and flag it reads. Anything else on its command line is a
/// usage error.
struct Command {
    name: &'static str,
    run: fn(&ParsedArgs) -> Result<String, CliError>,
    options: &'static [&'static str],
    flags: &'static [&'static str],
}

/// The options the single-request commands read: the transform length,
/// the device configuration and the modulus. They run on one bank, so
/// no topology option applies.
const DEVICE_OPTIONS: &[&str] = &["n", "nb", "clock", "q"];

/// Every subcommand.
const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        run,
        options: DEVICE_OPTIONS,
        flags: &["refresh"],
    },
    Command {
        name: "sweep",
        run: sweep,
        options: &["nb", "lengths", "clock", "q"],
        flags: &["refresh"],
    },
    Command {
        name: "trace",
        run: trace,
        options: DEVICE_OPTIONS,
        flags: &["refresh"],
    },
    Command {
        name: "verify",
        run: verify,
        options: DEVICE_OPTIONS,
        flags: &["refresh"],
    },
    Command {
        name: "polymul",
        run: polymul,
        options: DEVICE_OPTIONS,
        flags: &["refresh"],
    },
    Command {
        name: "batch",
        run: batch,
        options: &[
            "n", "nb", "clock", "q", "channels", "ranks", "banks", "jobs", "lengths", "backend",
        ],
        flags: &["refresh", "split"],
    },
    Command {
        name: "serve",
        run: serve,
        options: &[
            "nb",
            "q",
            "channels",
            "ranks",
            "banks",
            "tenants",
            "requests",
            "max-wait-us",
            "queue-depth",
            "tenant-inflight",
            "lengths",
            "devices",
            "backends",
            "steal-threshold-us",
        ],
        flags: &["refresh", "smoke"],
    },
    Command {
        name: "help",
        run: |_| Ok(USAGE.to_string()),
        options: &[],
        flags: &[],
    },
];

/// Checks a parsed command line against its subcommand's options and
/// flags ([`ParsedArgs::expect_only`]) without running anything.
///
/// # Errors
///
/// [`CliError::usage`] for an unknown subcommand, or an option or flag
/// it does not read, a flag given a value, or an option given none.
pub fn check(args: &ParsedArgs) -> Result<(), CliError> {
    command(args)?;
    Ok(())
}

fn command(args: &ParsedArgs) -> Result<&'static Command, CliError> {
    let command = COMMANDS
        .iter()
        .find(|c| c.name == args.command)
        .ok_or_else(|| {
            CliError::usage(format!(
                "unknown command `{}`; try `ntt-pim help`",
                args.command
            ))
        })?;
    args.expect_only(command.options, command.flags)?;
    Ok(command)
}

/// Dispatches a parsed command line.
///
/// # Errors
///
/// [`CliError`] with a usage or runtime classification; every
/// [`check`] failure is a usage error, raised before anything runs.
pub fn dispatch(args: &ParsedArgs) -> Result<String, CliError> {
    (command(args)?.run)(args)
}

/// The one-bank device the single-request commands run on.
fn config_from(args: &ParsedArgs) -> Result<PimConfig, CliError> {
    let nb: usize = args.get_or("nb", 2)?;
    let clock: u32 = args.get_or("clock", 1200)?;
    validated(
        PimConfig::hbm2e(nb)
            .with_cu_clock_mhz(clock)
            .with_refresh(args.has_flag("refresh")),
    )
}

/// `config`, if the device can have it: a configuration
/// [`PimConfig::validate`] rejects comes from bad argument values
/// (`--nb 0`, `--banks 0`, `--clock 0`), so it is a usage error.
fn validated(config: PimConfig) -> Result<PimConfig, CliError> {
    config
        .validate()
        .map_err(|e| CliError::usage(e.to_string()))?;
    Ok(config)
}

/// The modulus of length-`n` transforms: `--q`, which must have a
/// `2n`-th root of unity (a prime with `2n | q − 1`), or else the largest
/// 31-bit prime that has one. Either failing is a usage error.
fn modulus_for(args: &ParsedArgs, n: usize) -> Result<u32, CliError> {
    let order = (n as u64).saturating_mul(2);
    match args.options.get("q") {
        Some(v) => {
            let q: u32 = v.parse().ok().filter(|&q| q >= 2).ok_or_else(|| {
                CliError::usage(format!("bad value for --q: {v} (need a modulus >= 2)"))
            })?;
            modmath::prime::root_of_unity(order, q.into())
                .map_err(|e| CliError::usage(format!("bad value for --q: {e}")))?;
            Ok(q)
        }
        None => modmath::prime::find_ntt_prime(order, 31)
            .map(|q| q as u32)
            .map_err(|e| CliError::usage(format!("no modulus for length {n}: {e}"))),
    }
}

/// Rejects, before any coefficient is allocated, a length `kind` cannot
/// have on `config`'s banks: the capacity rule [`validate_capacity`]
/// (and so every PIM admission) applies.
fn check_capacity(config: &PimConfig, kind: &JobKind, n: usize) -> Result<(), CliError> {
    validate_capacity(config, kind, n).map_err(|e| CliError::usage(format!("length {n}: {e}")))
}

fn test_poly(n: usize, q: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) % q)
        .collect()
}

fn run(args: &ParsedArgs) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 1024)?;
    let config = config_from(args)?;
    check_capacity(&config, &JobKind::Forward, n)?;
    let q = modulus_for(args, n)?;
    let mut dev = PimDevice::new(config)?;
    let mut h = dev.load_polynomial_bitrev(0, &test_poly(n, q), q)?;
    let rep = dev.ntt_in_place(&mut h, NttDirection::Forward)?;
    let mut out = String::new();
    let _ = writeln!(out, "forward NTT  N={n}  q={q}  Nb={}", config.n_bufs);
    let _ = writeln!(out, "  latency      : {:>12.3} µs", rep.latency_us());
    let _ = writeln!(out, "  activations  : {:>12}", rep.activations());
    let _ = writeln!(
        out,
        "  refreshes    : {:>12}",
        rep.timeline.counters.refreshes
    );
    let _ = writeln!(out, "  commands     : {:>12}", rep.logical_commands);
    let _ = writeln!(out, "  C1 / C2      : {:>6} / {}", rep.c1_ops, rep.c2_ops);
    let _ = writeln!(out, "  energy       : {:>12.3} nJ", rep.energy.total_nj);
    let _ = writeln!(
        out,
        "  energy split : act {:.0}%  col {:.0}%  compute {:.0}%",
        rep.energy.act_share * 100.0,
        rep.energy.col_share * 100.0,
        rep.energy.compute_share * 100.0
    );
    Ok(out)
}

fn sweep(args: &ParsedArgs) -> Result<String, CliError> {
    let nbs: Vec<usize> = args.get_list_or("nb", vec![1, 2, 4, 6])?;
    let lengths: Vec<usize> =
        args.get_list_or("lengths", vec![256, 512, 1024, 2048, 4096, 8192])?;
    let clock: u32 = args.get_or("clock", 1200)?;
    let mut out = String::new();
    let _ = write!(out, "{:>7}", "N");
    for nb in &nbs {
        let _ = write!(out, " {:>12}", format!("Nb={nb} (µs)"));
    }
    let _ = writeln!(out);
    for &n in &lengths {
        let _ = write!(out, "{n:>7}");
        let q = modulus_for(args, n)?;
        for &nb in &nbs {
            if nb == 1 && n > 2048 {
                let _ = write!(out, " {:>12}", "-");
                continue;
            }
            let config = validated(
                PimConfig::hbm2e(nb)
                    .with_cu_clock_mhz(clock)
                    .with_refresh(args.has_flag("refresh")),
            )?;
            check_capacity(&config, &JobKind::Forward, n)?;
            let layout = PolyLayout::new(&config, 0, n)?;
            let omega = modmath::prime::root_of_unity(n as u64, q as u64)? as u32;
            let program = map_ntt(
                &config,
                &layout,
                &NttParams { q, omega },
                &MapperOptions::default(),
            )?;
            let tl = schedule(&config, &program)?;
            let _ = write!(out, " {:>12.2}", tl.latency_us());
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn trace(args: &ParsedArgs) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 256)?;
    let config = config_from(args)?;
    check_capacity(&config, &JobKind::Forward, n)?;
    let q = modulus_for(args, n)?;
    let layout = PolyLayout::new(&config, 0, n)?;
    let omega = modmath::prime::root_of_unity(n as u64, q as u64)? as u32;
    let program = map_ntt(
        &config,
        &layout,
        &NttParams { q, omega },
        &MapperOptions::default(),
    )?;
    let tl = schedule(&config, &program)?;
    Ok(dram_sim::trace::to_text(
        &tl.bank_trace(),
        config.timing.resolve().cycle_ps,
    ))
}

fn verify(args: &ParsedArgs) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 1024)?;
    let config = config_from(args)?;
    check_capacity(&config, &JobKind::Forward, n)?;
    let q = modulus_for(args, n)?;
    let mut dev = PimDevice::new(config)?;
    let poly = test_poly(n, q);
    let mut h = dev.load_polynomial_bitrev(0, &poly, q)?;
    dev.ntt_in_place(&mut h, NttDirection::Forward)?;
    let got = dev.read_polynomial(&h)?;

    // Reference through the independent software path.
    let psi = modmath::prime::root_of_unity(2 * n as u64, q as u64)?;
    let field = modmath::prime::NttField::with_psi(n, q as u64, psi)?;
    let plan = ntt_ref::plan::NttPlan::new(field);
    let mut expect: Vec<u64> = poly.iter().map(|&c| c as u64).collect();
    plan.forward(&mut expect);
    let mismatches = got
        .iter()
        .zip(&expect)
        .filter(|(&g, &e)| g as u64 != e)
        .count();
    if mismatches != 0 {
        return Err(CliError::runtime(format!(
            "verification FAILED: {mismatches}/{n} mismatching coefficients"
        )));
    }
    // And back.
    dev.ntt_in_place(&mut h, NttDirection::Inverse)?;
    if dev.read_polynomial(&h)? != poly {
        return Err(CliError::runtime("inverse roundtrip FAILED".to_string()));
    }
    Ok(format!(
        "verification OK: N={n}, q={q}, Nb={} — forward matches the software \
         NTT and inverse(forward(x)) == x\n",
        args.get_or("nb", 2usize)?
    ))
}

fn polymul(args: &ParsedArgs) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 1024)?;
    let config = config_from(args)?;
    // Both operands must fit: the second sits at `polymul_rhs_base(n)`.
    let kind = JobKind::NegacyclicPolymul { rhs: Vec::new() };
    check_capacity(&config, &kind, n)?;
    let q = modulus_for(args, n)?;
    let mut dev = PimDevice::new(config)?;
    let a = test_poly(n, q);
    let b: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % q).collect();
    let ha = dev.load_polynomial(0, &a, q)?;
    let hb = dev.load_polynomial(config.polymul_rhs_base(n), &b, q)?;
    let rep = dev.polymul_negacyclic(&ha, &hb)?;
    // Check against the golden engine's product (an `NttPlan` product
    // on the host, sharing no code with the device).
    let got = dev.read_polynomial(&ha)?;
    let mut expect: Vec<u64> = a.iter().map(|&v| v as u64).collect();
    let b64: Vec<u64> = b.iter().map(|&v| v as u64).collect();
    CpuNttEngine::golden()
        .negacyclic_polymul(&mut expect, &b64, q as u64)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if !got.iter().zip(&expect).all(|(&g, &e)| g as u64 == e) {
        return Err(CliError::runtime("polymul verification FAILED".to_string()));
    }
    Ok(format!(
        "on-device negacyclic polymul OK: N={n}, q={q}\n  latency: {:.2} µs, \
         {} activations, {:.2} nJ\n",
        rep.latency_us(),
        rep.activations(),
        rep.energy.total_nj
    ))
}

fn batch(args: &ParsedArgs) -> Result<String, CliError> {
    let n: usize = args.get_or("n", 1024)?;
    let jobs_n: usize = args.get_or("jobs", 16)?;
    if jobs_n == 0 || jobs_n > MAX_BATCH_JOBS {
        return Err(CliError::usage(format!(
            "--jobs must be between 1 and {MAX_BATCH_JOBS}"
        )));
    }
    let topology = Topology::new(
        args.get_or("channels", 1)?,
        args.get_or("ranks", 1)?,
        args.get_or("banks", 16)?,
    );
    let nb: usize = args.get_or("nb", 2)?;
    let clock: u32 = args.get_or("clock", 1200)?;
    // Mixed-size batches (the RNS workload): job j gets lengths[j % len].
    let lengths: Vec<usize> = args.get_list_or("lengths", vec![n])?;
    if lengths.is_empty() {
        return Err(CliError::usage("--lengths must name at least one length"));
    }
    let config = validated(
        PimConfig::hbm2e(nb)
            .with_cu_clock_mhz(clock)
            .with_topology(topology)
            .with_refresh(args.has_flag("refresh")),
    )?;

    // One job per seed; all independent (the RNS/FHE pattern). With
    // --split, job 0 is the one large transform fanned across the
    // topology; the rest stay ordinary single-bank jobs riding along.
    let split = args.has_flag("split");
    let jobs: Vec<NttJob> = (0..jobs_n)
        .map(|j| {
            let (nj, kind) = if split && j == 0 {
                (n, JobKind::SplitLarge)
            } else {
                (lengths[j % lengths.len()], JobKind::Forward)
            };
            check_capacity(&config, &kind, nj)?;
            let q = modulus_for(args, nj)?;
            let coeffs = (0..nj as u64)
                .map(|i| (i.wrapping_mul(2654435761) ^ j as u64) % q as u64)
                .collect();
            Ok(if split && j == 0 {
                NttJob::split_large(coeffs, q as u64)
            } else {
                NttJob::new(coeffs, q as u64)
            })
        })
        .collect::<Result<_, CliError>>()?;

    // --backend: drive the same jobs through one backend behind the
    // bus trait (what the serving layer routes over) instead of the raw
    // executor.
    if let Some(name) = args.options.get("backend") {
        return batch_on_backend(name, &jobs, config, &lengths);
    }

    let mut exec = BatchExecutor::new(config).map_err(|e| CliError::runtime(e.to_string()))?;
    // Sequential yardstick: the scheduler's own memoized per-job cost
    // estimates (single-bank simulated latency), summed.
    let sequential_ns: f64 = exec
        .plan(&jobs)
        .map_err(|e| CliError::runtime(e.to_string()))?
        .costs
        .iter()
        .sum();
    let out = exec
        .run(&jobs)
        .map_err(|e| CliError::runtime(e.to_string()))?;

    verify_first(&jobs, &out.spectra)?;

    let mut outp = String::new();
    let _ = writeln!(
        outp,
        "batched NTTs  lengths={}  jobs={jobs_n}  topology={topology} \
         ({} banks)  Nb={nb}",
        join(&lengths),
        config.total_banks()
    );
    let qr = &out.queue_report;
    let _ = writeln!(outp, "  waves          : {:>12}", qr.depth());
    let _ = writeln!(outp, "  batch latency  : {:>12.2} µs", out.latency_us());
    let _ = writeln!(
        outp,
        "  sequential     : {:>12.2} µs ({jobs_n} jobs, one bank)",
        sequential_ns / 1000.0
    );
    let _ = writeln!(
        outp,
        "  speedup        : {:>11.2}x",
        sequential_ns / out.latency_ns
    );
    let _ = writeln!(outp, "  energy         : {:>12.2} nJ", out.energy_nj);
    let _ = writeln!(outp, "  bus slots      : {:>12}", out.bus_slots);
    if qr.per_channel_bus_slots.len() > 1 {
        let per_channel = qr
            .per_channel_bus_slots
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" / ");
        let _ = writeln!(outp, "  per channel    : {per_channel:>12}");
    }
    let _ = writeln!(outp, "  rank ACTs      : {:>12}", qr.rank_acts);
    let _ = writeln!(
        outp,
        "  throughput     : {:>12.0} jobs/s",
        out.throughput_jobs_per_s()
    );
    let _ = writeln!(outp, "  per-bank       :       jobs   busy (µs)     nJ");
    for (bank, ends) in qr.job_end_ns.iter().enumerate() {
        let _ = writeln!(
            outp,
            "    bank {bank:>3}     : {:>10} {:>11.2} {:>6.1}",
            ends.len(),
            qr.per_bank_ns[bank] / 1000.0,
            qr.per_bank_energy_nj[bank]
        );
    }
    for sr in &out.splits {
        let _ = writeln!(
            outp,
            "  split job {:>4} : {}x{} sub-jobs, column stage {:.2} µs, \
             done {:.2} µs",
            sr.job,
            sr.rows,
            sr.cols,
            sr.column_stage_ns / 1000.0,
            sr.latency_ns / 1000.0
        );
    }
    let _ = writeln!(
        outp,
        "  verification   : OK (job 0 matches the CPU golden NTT)"
    );
    Ok(outp)
}

/// Checks job 0's result against the golden CPU forward NTT (a split
/// job is bit-identical to the whole transform).
fn verify_first(jobs: &[NttJob], spectra: &[Vec<u64>]) -> Result<(), CliError> {
    let mut expect = jobs[0].coeffs.clone();
    CpuNttEngine::golden()
        .forward(&mut expect, jobs[0].q)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    if spectra[0] != expect {
        return Err(CliError::runtime("batch verification FAILED".to_string()));
    }
    Ok(())
}

fn join(lengths: &[usize]) -> String {
    lengths
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// `batch --backend <name>`: stands up the named backend from its
/// [`BackendSpec`], admits every job through its capability window,
/// prices the batch on its cost model (the quote a router places by),
/// runs it, and verifies job 0 against the golden CPU model.
fn batch_on_backend(
    name: &str,
    jobs: &[NttJob],
    config: PimConfig,
    lengths: &[usize],
) -> Result<String, CliError> {
    let mut spec = BackendSpec::parse(name).map_err(CliError::usage)?;
    if matches!(spec, BackendSpec::Pim(_)) {
        // The PIM slot uses the CLI's --channels/--ranks/--banks shape.
        spec = BackendSpec::Pim(config);
    }
    let runtime = |e: EngineError| CliError::runtime(e.to_string());
    let mut backend = spec
        .build(SchedulePolicy::Lpt, None)
        .map_err(|e| CliError::runtime(e.to_string()))?;
    for job in jobs {
        backend.admit(job).map_err(runtime)?;
    }
    let predicted_ns = backend.cost_model().batch_makespan_ns(jobs);
    let out = backend.run(jobs).map_err(runtime)?;
    verify_first(jobs, &out.spectra)?;

    let window = backend.window();
    let mut outp = String::new();
    let _ = writeln!(
        outp,
        "batched NTTs  lengths={}  jobs={}  backend={} ({} kind, {} lanes)",
        join(lengths),
        jobs.len(),
        backend.label(),
        backend.kind(),
        window.lanes
    );
    let _ = writeln!(outp, "  window         : {window}");
    let _ = writeln!(
        outp,
        "  batch latency  : {:>12.2} µs",
        out.latency_ns / 1000.0
    );
    let _ = writeln!(
        outp,
        "  predicted      : {:>12.2} µs (the batch's cost quote)",
        predicted_ns / 1000.0
    );
    let _ = writeln!(outp, "  energy         : {:>12.2} nJ", out.energy_nj);
    let _ = writeln!(
        outp,
        "  source         : {:>12}",
        format!("{:?}", out.source)
    );
    let _ = writeln!(
        outp,
        "  verification   : OK (job 0 matches the CPU golden NTT)"
    );
    Ok(outp)
}

/// Nearest-rank percentile of an ascending-sorted ns sample, in µs
/// (the shared [`ntt_service::percentile`], unit-converted).
fn percentile_us(sorted_ns: &[f64], p: usize) -> f64 {
    ntt_service::percentile(sorted_ns, p) / 1000.0
}

fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    use ntt_service::{NttService, ServiceConfig, ServiceError};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    let smoke = args.has_flag("smoke");
    let tenants: usize = args.get_or("tenants", if smoke { 4 } else { 8 })?;
    let requests: usize = args.get_or("requests", if smoke { 16 } else { 64 })?;
    if tenants == 0 || tenants > MAX_SERVE_TENANTS {
        return Err(CliError::usage(format!(
            "--tenants must be between 1 and {MAX_SERVE_TENANTS}"
        )));
    }
    if requests == 0 || requests > MAX_SERVE_REQUESTS {
        return Err(CliError::usage(format!(
            "--requests must be between 1 and {MAX_SERVE_REQUESTS}"
        )));
    }
    let max_wait_us: u64 = args.get_or("max-wait-us", 500)?;
    let queue_depth: usize = args.get_or("queue-depth", 256)?;
    let tenant_inflight: usize = args.get_or("tenant-inflight", 0)?;
    let lengths: Vec<usize> = args.get_list_or(
        "lengths",
        if smoke {
            vec![256, 512]
        } else {
            vec![256, 1024, 2048, 4096]
        },
    )?;
    if lengths.is_empty() {
        return Err(CliError::usage("--lengths must name at least one length"));
    }
    let nb: usize = args.get_or("nb", 2)?;
    let topology = Topology::new(
        args.get_or("channels", 2)?,
        args.get_or("ranks", 2)?,
        args.get_or("banks", 4)?,
    );
    let pim = validated(
        PimConfig::hbm2e(nb)
            .with_topology(topology)
            .with_refresh(args.has_flag("refresh")),
    )?;
    let devices: usize = args.get_or("devices", 1)?;
    if devices == 0 || devices > MAX_FLEET_SLOTS {
        return Err(CliError::usage(format!(
            "--devices must be between 1 and {MAX_FLEET_SLOTS}"
        )));
    }
    let steal_threshold_us: u64 = args.get_or("steal-threshold-us", 0)?;
    // --backends: a mixed fleet (overrides --devices); PIM slots take
    // the serve topology.
    let mixed = args.options.get("backends");
    let backend_specs: Vec<BackendSpec> = match mixed {
        Some(list) => BackendSpec::parse_list(list)
            .map_err(CliError::usage)?
            .into_iter()
            .map(|spec| match spec {
                BackendSpec::Pim(_) => BackendSpec::Pim(pim),
                other => other,
            })
            .collect(),
        None => vec![BackendSpec::Pim(pim); devices],
    };

    // One pre-generated job per request (mixed lengths, the RNS/FHE
    // traffic shape); Dilithium's modulus supports every default length.
    // Every length must fit one bank of the serve topology's PIM device,
    // whatever the fleet.
    let jobs: Vec<NttJob> = (0..requests)
        .map(|j| {
            let n = lengths[j % lengths.len()];
            check_capacity(&pim, &JobKind::Forward, n)?;
            let q = modulus_for(args, n)?;
            Ok(NttJob::new(
                (0..n as u64)
                    .map(|i| (i.wrapping_mul(2654435761) ^ (j as u64) << 32) % q as u64)
                    .collect(),
                q as u64,
            ))
        })
        .collect::<Result<_, CliError>>()?;

    let service_config = ServiceConfig::new(pim)
        .with_backends(backend_specs)
        .with_steal_threshold(Duration::from_micros(steal_threshold_us))
        .with_max_wait(Duration::from_micros(max_wait_us))
        .with_queue_depth(queue_depth)
        .with_tenant_inflight(tenant_inflight)
        .with_verify_golden(smoke);
    let service =
        NttService::start(service_config).map_err(|e| CliError::runtime(e.to_string()))?;
    let max_batch = service.max_batch();

    // Closed-loop load: each tenant thread walks its share of the job
    // list (submit → wait → next), retrying briefly on Busy.
    let wall_latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(requests));
    let sim_latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(requests));
    let busy_retries = Mutex::new(0u64);
    let t0 = Instant::now();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut workers = Vec::new();
        for t in 0..tenants {
            let client = service.client();
            let jobs = &jobs;
            let (wall_latencies, sim_latencies, busy_retries) =
                (&wall_latencies, &sim_latencies, &busy_retries);
            workers.push(scope.spawn(move || -> Result<(), CliError> {
                let tenant = format!("tenant-{t}");
                for job in jobs.iter().skip(t).step_by(tenants) {
                    let ticket = loop {
                        match client.submit(tenant.clone(), job.clone()) {
                            Ok(ticket) => break ticket,
                            Err(ServiceError::Busy { .. } | ServiceError::TenantBusy { .. }) => {
                                *busy_retries.lock().unwrap() += 1;
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => return Err(CliError::runtime(e.to_string())),
                        }
                    };
                    let response = ticket
                        .wait()
                        .map_err(|e| CliError::runtime(e.to_string()))?;
                    wall_latencies
                        .lock()
                        .unwrap()
                        .push(response.wall.as_nanos() as f64);
                    sim_latencies.lock().unwrap().push(response.sim_latency_ns);
                }
                Ok(())
            }));
        }
        for worker in workers {
            worker.join().expect("tenant thread panicked")?;
        }
        Ok(())
    })?;
    let elapsed = t0.elapsed();
    let stats = service.shutdown();

    let mut wall = wall_latencies.into_inner().unwrap();
    wall.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let mut sim = sim_latencies.into_inner().unwrap();
    sim.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serving layer  lengths={}  requests={requests}  tenants={tenants}  \
         topology={topology} ({} lanes)  max_batch={max_batch}  max_wait={max_wait_us} µs",
        join(&lengths),
        topology.total_banks(),
    );
    let _ = writeln!(out, "  completed       : {:>12}", stats.completed);
    let _ = writeln!(
        out,
        "  wall latency    : {:>9.2} µs p50 / {:.2} µs p99",
        percentile_us(&wall, 50),
        percentile_us(&wall, 99)
    );
    let _ = writeln!(
        out,
        "  sim latency     : {:>9.2} µs p50 / {:.2} µs p99",
        percentile_us(&sim, 50),
        percentile_us(&sim, 99)
    );
    let _ = writeln!(
        out,
        "  wall throughput : {:>12.0} req/s",
        stats.completed as f64 / elapsed.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  sim throughput  : {:>12.0} jobs/s (device time {:.2} µs over {} batches)",
        stats.sim_jobs_per_s(),
        stats.sim_busy_ns / 1000.0,
        stats.batches
    );
    let _ = writeln!(
        out,
        "  mean occupancy  : {:>12.2} jobs/batch (max {})",
        stats.mean_occupancy(),
        stats.max_batch_seen
    );
    let _ = writeln!(
        out,
        "  rejection rate  : {:>11.1}% ({} busy rejections, {} retries)",
        stats.rejection_rate() * 100.0,
        stats.rejected_busy + stats.rejected_tenant,
        busy_retries.into_inner().unwrap()
    );
    let _ = writeln!(
        out,
        "  plan cache      : {:>6} hits / {} misses / {} entries",
        stats.plan_cache.hits, stats.plan_cache.misses, stats.plan_cache.entries
    );
    let _ = writeln!(
        out,
        "  host kernel     : {:>12} (lane width {})",
        ntt_ref::lanes::kernel_label(),
        ntt_ref::lanes::LANE_WIDTH
    );
    if devices > 1 || mixed.is_some() {
        let _ = writeln!(
            out,
            "  fleet           : {:>12} devices, makespan {:.2} µs, {:.0} jobs/s \
             (steal threshold {steal_threshold_us} µs)",
            stats.devices.len(),
            stats.fleet_makespan_ns() / 1000.0,
            stats.fleet_jobs_per_s()
        );
        for d in &stats.devices {
            let _ = writeln!(
                out,
                "    device {:>2} [{} {}] : {:>5} lanes  {:>4} batches  {:>5} jobs  \
                 occupancy {:>5.2}  utilization {:>4.2}  busy {:>9.2} µs  \
                 steals {:>3}  {}",
                d.device,
                d.backend,
                d.topology,
                d.lanes,
                d.batches,
                d.jobs,
                d.occupancy(),
                d.utilization(),
                d.sim_busy_ns / 1000.0,
                d.steals,
                if d.healthy { "healthy" } else { "RETIRED" }
            );
        }
    }
    if stats.completed != requests as u64 {
        return Err(CliError::runtime(format!(
            "serve lost requests: {}/{requests} completed",
            stats.completed
        )));
    }
    if smoke {
        if stats.verify_failures != 0 {
            return Err(CliError::runtime(format!(
                "serve smoke FAILED: {} golden verification failures",
                stats.verify_failures
            )));
        }
        let _ = writeln!(
            out,
            "  verification    : OK (every response matches the golden CPU NTT; \
             {} of {} verifications rode the lane-batched kernel)",
            stats.verify_lane_jobs, stats.completed
        );
        let _ = writeln!(out, "serve smoke OK");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(s: &str) -> Result<String, CliError> {
        dispatch(&ParsedArgs::parse(s.split_whitespace().map(String::from))?)
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_line("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn run_reports_metrics() {
        let out = run_line("run --n 256 --nb 2").unwrap();
        assert!(out.contains("latency"));
        assert!(out.contains("N=256"));
    }

    #[test]
    fn sweep_emits_table() {
        let out = run_line("sweep --nb 2,4 --lengths 256,512").unwrap();
        assert!(out.contains("Nb=2"));
        assert!(out.lines().count() >= 3);
    }

    #[test]
    fn trace_roundtrips_through_parser() {
        let out = run_line("trace --n 64 --nb 2").unwrap();
        let parsed = dram_sim::trace::from_text(&out, 833).unwrap();
        assert!(parsed.len() > 10);
    }

    #[test]
    fn verify_passes_and_polymul_passes() {
        assert!(run_line("verify --n 256 --nb 4").unwrap().contains("OK"));
        assert!(run_line("polymul --n 256 --nb 4").unwrap().contains("OK"));
    }

    #[test]
    fn batch_reports_merged_metrics_and_verifies() {
        let out = run_line("batch --n 256 --jobs 6 --banks 4 --nb 2").unwrap();
        assert!(
            out.contains("waves          :            2"),
            "6 jobs / 4 banks: {out}"
        );
        assert!(out.contains("speedup"));
        assert!(out.contains("bank   3"));
        assert!(out.contains("verification   : OK"));
        // One job on one bank is the paper path: no speedup over itself.
        let one = run_line("batch --n 4096 --jobs 1 --banks 1").unwrap();
        assert!(one.contains("speedup        :        1.00x"), "{one}");
    }

    #[test]
    fn modulus_below_two_is_a_usage_error() {
        for line in [
            "run --n 256 --q 0",
            "verify --n 256 --q 0",
            "polymul --n 256 --q 0",
            "batch --n 256 --jobs 2 --banks 2 --q 0",
            "run --n 256 --q 1",
        ] {
            let err = run_line(line).unwrap_err();
            assert_eq!(err.exit_code, 2, "{line}: {err}");
            assert!(err.message.contains("--q"), "{line}: {err}");
        }
    }

    #[test]
    fn invalid_argument_values_are_usage_errors() {
        // Each is refused before the device runs: a length that is no
        // power of two, a device configuration `validate` rejects, a
        // modulus without the 2N-th root, and a product whose second
        // operand (at word N) would pass the end of the bank.
        for line in [
            "run --n 1000",
            "verify --n 0",
            "polymul --n 1000",
            "trace --n 3",
            "run --nb 0",
            "batch --n 256 --jobs 1 --banks 0",
            "run --clock 0",
            "sweep --nb 0 --lengths 256",
            "run --n 512 --q 7681",
            "polymul --n 8388608",
            // 2^22 x 2^21 x 2^21 banks: the product wraps a 64-bit
            // count to 0, and must still be refused by its size.
            "batch --n 256 --jobs 1 --channels 4194304 --ranks 2097152 --banks 2097152",
            "serve --smoke --channels 4194304 --ranks 2097152 --banks 2097152",
        ] {
            let e = run_line(line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
    }

    #[test]
    fn batch_rejects_degenerate_requests_without_panicking() {
        assert!(run_line("batch --n 256 --jobs 0 --banks 2").is_err());
        assert!(run_line("batch --n 256 --jobs 2 --banks 0").is_err());
        assert!(run_line("batch --n 1000 --jobs 2 --banks 2").is_err());
        // Counts past the cap are usage errors, never allocations.
        for jobs in ["4097", "4000000000"] {
            let e = run_line(&format!("batch --n 256 --jobs {jobs} --banks 2")).unwrap_err();
            assert_eq!(e.exit_code, 2, "--jobs {jobs}: {e}");
            assert!(e.message.contains("4096"), "{e}");
        }
        // Lengths no bank can hold are usage errors, caught before any
        // coefficient is allocated: whole jobs past the bank, a batch
        // whose second length is too long, and a split whose sub-jobs
        // (2^25 × 2^25 here) would not fit.
        for line in [
            "batch --n 67108864 --q 2013265921 --jobs 16",
            "batch --n 256 --q 2013265921 --jobs 16 --lengths 256,67108864",
            "batch --n 1125899906842624 --q 2013265921 --jobs 2 --banks 2 --split",
        ] {
            let e = run_line(line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
            assert!(e.message.contains("length"), "{line}: {e}");
        }
    }

    #[test]
    fn batch_rejects_the_retired_schedule_option() {
        // Batches have one scheduling rule and no option selects it:
        // `--schedule` is an unknown option whatever its value.
        for policy in ["lpt", "round-robin", "frob"] {
            let line = format!("batch --jobs 4 --banks 2 --lengths 64,256 --schedule {policy}");
            let e = run_line(&line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
        let out = run_line("batch --jobs 4 --banks 2 --lengths 64,256").unwrap();
        assert!(!out.contains("schedule"), "{out}");
        assert!(out.contains("verification   : OK"), "{out}");
    }

    #[test]
    fn batch_defaults_to_lpt_and_cycles_mixed_lengths() {
        let out = run_line("batch --jobs 4 --banks 4 --lengths 64,128").unwrap();
        assert!(out.contains("lengths=64,128"), "{out}");
    }

    #[test]
    fn batch_split_reports_stages_and_verifies() {
        // Job 0 (the split, verified against the golden CPU forward)
        // co-packs with two ordinary N=256 jobs.
        let out = run_line("batch --n 1024 --jobs 3 --banks 4 --lengths 256 --split").unwrap();
        assert!(out.contains("split job    0 : 32x32 sub-jobs"), "{out}");
        assert!(out.contains("column stage"), "{out}");
        assert!(out.contains("verification   : OK"), "{out}");
    }

    #[test]
    fn batch_split_requires_lpt_and_a_splittable_length() {
        // A split always runs under LPT, the one scheduling rule: no
        // option selects another.
        for policy in ["lpt", "round-robin"] {
            let line = format!("batch --n 1024 --jobs 1 --banks 4 --split --schedule {policy}");
            let e = run_line(&line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
        assert!(run_line("batch --n 8 --jobs 1 --banks 4 --split").is_err());
    }

    #[test]
    fn batch_accepts_a_sharded_topology() {
        let out =
            run_line("batch --n 256 --jobs 8 --channels 2 --ranks 2 --banks 2 --nb 2").unwrap();
        assert!(out.contains("topology=2x2x2 (8 banks)"), "{out}");
        assert!(out.contains("per channel"), "{out}");
        assert!(out.contains("bank   7"), "{out}");
        assert!(out.contains("verification   : OK"));
        // Degenerate levels are rejected up front.
        assert!(run_line("batch --n 256 --jobs 2 --channels 0 --banks 2").is_err());
    }

    #[test]
    fn single_bank_commands_reject_topology_options() {
        // run, trace, verify and polymul run on one bank, so they read
        // no topology option: each is a usage error there.
        for command in ["run", "trace", "verify", "polymul"] {
            for option in ["--channels 2", "--ranks 2", "--banks 2"] {
                let line = format!("{command} --n 256 --nb 2 {option}");
                let e = run_line(&line).unwrap_err();
                assert_eq!(e.exit_code, 2, "{line}: {e}");
            }
        }
    }

    #[test]
    fn serve_smoke_reports_and_verifies() {
        let out = run_line(
            "serve --smoke --tenants 2 --requests 8 --channels 1 --ranks 1 --banks 4 \
             --lengths 64,256 --max-wait-us 200",
        )
        .unwrap();
        assert!(out.contains("serve smoke OK"), "{out}");
        assert!(out.contains("verification    : OK"), "{out}");
        assert!(out.contains("completed       :            8"), "{out}");
        assert!(out.contains("mean occupancy"), "{out}");
        assert!(out.contains("plan cache"), "{out}");
        assert!(
            out.contains(ntt_ref::lanes::kernel_label())
                && out.contains(&format!("lane width {}", ntt_ref::lanes::LANE_WIDTH)),
            "serve must name the active host kernel and lane width: {out}"
        );
        assert!(
            out.contains("rode the lane-batched kernel"),
            "serve must report the lane-verified count: {out}"
        );
    }

    #[test]
    fn serve_rejects_degenerate_requests() {
        assert!(run_line("serve --tenants 0 --requests 4").is_err());
        assert!(run_line("serve --tenants 2 --requests 0").is_err());
        // Counts past the caps are usage errors, never allocations or
        // thread storms.
        for line in [
            "serve --smoke --requests 4000000000",
            "serve --smoke --requests 16385",
            "serve --smoke --tenants 257 --requests 4",
            "serve --tenants 4000000000 --requests 4",
        ] {
            let e = run_line(line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
        assert!(run_line("serve --smoke --lengths 100 --requests 2 --tenants 1").is_err());
        // A length no bank can hold is refused before it is allocated.
        for lengths in ["67108864", "256,67108864"] {
            let line = format!("serve --smoke --lengths {lengths} --q 2013265921 --requests 16");
            let e = run_line(&line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
        assert!(run_line("serve --devices 0 --requests 4").is_err());
        // Over-large fleets are usage errors, never allocations.
        for fleet in ["--devices 257", "--devices 18446744073709551615"] {
            let e = run_line(&format!("serve {fleet} --requests 4")).unwrap_err();
            assert_eq!(e.exit_code, 2, "{fleet}: {e}");
        }
        let e = run_line("serve --backends pim:1000000000 --requests 4").unwrap_err();
        assert_eq!(e.exit_code, 2, "{e}");
    }

    #[test]
    fn serve_fleet_appends_per_device_report() {
        let out = run_line(
            "serve --smoke --devices 4 --tenants 4 --requests 32 \
             --channels 1 --ranks 1 --banks 4 --lengths 64,256 --max-wait-us 200",
        )
        .unwrap();
        assert!(out.contains("serve smoke OK"), "{out}");
        assert!(out.contains("fleet           :"), "{out}");
        for d in 0..4 {
            assert!(
                out.contains(&format!("device  {d} [pim 1x1x4]")),
                "missing device {d} row: {out}"
            );
        }
        assert!(out.contains("healthy"), "{out}");
        assert!(!out.contains("RETIRED"), "{out}");
    }

    #[test]
    fn serve_mixed_backends_reports_labeled_fleet() {
        let out = run_line(
            "serve --smoke --backends pim:1,cpu-lanes:1 --tenants 2 --requests 16 \
             --channels 1 --ranks 1 --banks 4 --lengths 64,256 --max-wait-us 200",
        )
        .unwrap();
        assert!(out.contains("serve smoke OK"), "{out}");
        assert!(out.contains("device  0 [pim 1x1x4]"), "{out}");
        assert!(out.contains("device  1 [cpu-lanes 1x1x8]"), "{out}");
        // Malformed fleet descriptions are usage errors.
        assert!(run_line("serve --backends frob --requests 2 --tenants 1").is_err());
        assert!(run_line("serve --backends pim:0 --requests 2 --tenants 1").is_err());
    }

    #[test]
    fn batch_backend_runs_through_the_bus() {
        let out = run_line("batch --n 256 --jobs 6 --backend cpu-lanes").unwrap();
        assert!(
            out.contains("backend=cpu-lanes (cpu-lanes kind, 8 lanes)"),
            "{out}"
        );
        assert!(
            out.contains("window         : 62-bit, modulus arbitrary, max N unbounded"),
            "{out}"
        );
        assert!(out.contains("predicted      :"), "{out}");
        assert!(out.contains("verification   : OK"), "{out}");
        // The printed quote is the batch makespan the router places by,
        // which for the CPU lanes is the batch latency they report.
        let out = run_line("batch --n 256 --jobs 48 --q 12289 --backend cpu-lanes").unwrap();
        assert!(out.contains("batch latency  :         7.37 µs"), "{out}");
        assert!(
            out.contains("predicted      :         7.37 µs (the batch's cost quote)"),
            "{out}"
        );
        let out = run_line("batch --n 1024 --jobs 2 --q 12289 --backend bp-ntt").unwrap();
        assert!(
            out.contains("backend=bp-ntt (published kind, 1 lanes)"),
            "{out}"
        );
        assert!(out.contains("modulus 12289, max N 4096"), "{out}");
        assert!(out.contains("Published"), "{out}");
        assert!(out.contains("verification   : OK"), "{out}");
        let out = run_line("batch --n 256 --jobs 4 --banks 4 --backend pim").unwrap();
        assert!(out.contains("backend=pim (pim kind, 4 lanes)"), "{out}");
        assert!(out.contains("Simulated"), "{out}");
        // Outside the window: typed error, not a panic; unknown names
        // are usage errors.
        assert!(run_line("batch --n 8192 --jobs 1 --backend bp-ntt").is_err());
        assert!(run_line("batch --n 256 --jobs 1 --backend frob").is_err());
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let e = run_line("frobnicate").unwrap_err();
        assert_eq!(e.exit_code, 2);
    }

    #[test]
    fn arguments_no_command_reads_are_usage_errors() {
        for line in [
            "batch --bogus 3",
            "batch --chanels 2",
            "batch --split yes --n 8192 --q 2013265921",
            "batch --n 1024 --n 2048",
            "sweep --banks 4",
            "serve --clock 1000 --smoke",
            "run --split",
            "run --n",
            "help --n 4",
        ] {
            let e = run_line(line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}: {e}");
        }
    }

    #[test]
    fn explicit_modulus_respected() {
        let out = run_line("run --n 256 --nb 2 --q 12289").unwrap();
        assert!(out.contains("q=12289"));
    }

    #[test]
    fn refresh_flag_adds_refreshes() {
        let out = run_line("run --n 8192 --nb 2 --refresh").unwrap();
        let line = out
            .lines()
            .find(|l| l.contains("refreshes"))
            .expect("refresh line");
        let count: u64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(count > 0);
    }
}
