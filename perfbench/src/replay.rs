//! `sim_replay`, and the layer-by-layer decomposition of one PIM batch
//! that every traced replay shares.
//!
//! `sim_replay` runs no service threads: a seeded pass of batches goes
//! through `BatchExecutor::run` on several topologies, the pass repeats
//! until the time is up, and the paper's single-transform sweep runs
//! through `PimDevice::ntt` afterwards. Simulated statistics come from
//! the first pass alone, so they depend on the seed and nothing else.

use crate::gen::{self, Golden, Kind, Rng, Shape};
use crate::report::{ratio, same_report, summarize, Outcome, SimAcc};
use crate::trace::Tracer;
use crate::{fnv, pim_config, Consts, Sampler};
use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::{NttDirection, PimDevice, QueueReport, StoredOrder};
use ntt_pim::core::mapper::Program;
use ntt_pim::core::sched::{self, DagJob};
use ntt_pim::engine::batch::{BatchExecutor, JobKind, NttJob, PlanUnit};
use ntt_pim::math::{arith::pow_mod, prime};
use ntt_pim::reference::four_step::{plan_split, SplitPlan};
use ntt_service::FleetRouter;
use std::collections::BTreeMap;
use std::time::Instant;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// What the decomposition of one batch produced, for comparison with
/// `BatchExecutor::run` on the same jobs.
pub struct Decomposed {
    pub spectra: Vec<Vec<u64>>,
    pub report: QueueReport,
    pub programs: usize,
    pub cmds: usize,
}

struct SplitCtx {
    split: SplitPlan,
    omega: u64,
    col_root: u32,
    row_root: u32,
    barrier: usize,
    matrix: Vec<Vec<u64>>,
}

type Tagged = (Program, Option<usize>, Option<usize>);

/// Runs `jobs` the way `BatchExecutor::run` does under the LPT policy,
/// but through the public entry point of each layer, one span per call:
/// `engine.plan` (`BatchExecutor::plan`), `sim.load`/`sim.execute`/
/// `sim.read` (`PimDevice::load_in_bank`/`execute_program`/
/// `read_polynomial`), `mapper.build` (`PimDevice::build_*_program`,
/// `polymul_program`) and `sched.dag` (`PimDevice::schedule_queues_dag`).
/// The four-step transpose between split stages has no public entry
/// point; its host gathers and scatters are timed as `engine.transpose`.
pub fn decompose(
    exec: &mut BatchExecutor,
    jobs: &[NttJob],
    tr: &mut Tracer,
) -> Result<Decomposed, String> {
    tr.enter("engine.decompose");
    let out = decompose_spans(exec, jobs, tr);
    tr.exit();
    out
}

fn decompose_spans(
    exec: &mut BatchExecutor,
    jobs: &[NttJob],
    tr: &mut Tracer,
) -> Result<Decomposed, String> {
    let plan = tr.time("engine.plan", || exec.plan(jobs)).map_err(err)?;
    let banks = exec.bank_count();
    let mut spectra: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
    let mut ctxs: BTreeMap<usize, SplitCtx> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        if job.kind == JobKind::SplitLarge {
            let split = plan_split(job.n(), banks).map_err(err)?;
            let omega = prime::root_of_unity(job.n() as u64, job.q).map_err(err)?;
            let barrier = ctxs.len();
            ctxs.insert(
                i,
                SplitCtx {
                    split,
                    omega,
                    col_root: pow_mod(omega, split.cols as u64, job.q) as u32,
                    row_root: pow_mod(omega, split.rows as u64, job.q) as u32,
                    barrier,
                    matrix: vec![vec![0u64; split.cols]; split.rows],
                },
            );
            spectra[i] = vec![0u64; job.n()];
        }
    }
    let dev = exec.device_mut();
    let mut programs: Vec<Vec<Tagged>> = vec![Vec::new(); banks];
    // Pass A: whole jobs and split columns, in queue order.
    for (bank, queue) in plan.queues.iter().enumerate() {
        for &ui in queue {
            match plan.units[ui] {
                PlanUnit::Job(ji) => {
                    let (program, out) = run_job(dev, bank, &jobs[ji], tr)?;
                    spectra[ji] = out;
                    programs[bank].push((program, None, None));
                }
                PlanUnit::SplitColumn { job: ji, column } => {
                    let job = &jobs[ji];
                    let ctx = ctxs.get_mut(&ji).ok_or("split context missing")?;
                    let (rows, cols) = (ctx.split.rows, ctx.split.cols);
                    let col: Vec<u32> = tr.time("engine.transpose", || {
                        (0..rows)
                            .map(|r| job.coeffs[r * cols + column] as u32)
                            .collect()
                    });
                    let mut h = tr
                        .time("sim.load", || {
                            dev.load_in_bank(bank, 0, &col, job.q as u32, StoredOrder::BitReversed)
                        })
                        .map_err(err)?;
                    let program = tr
                        .time("mapper.build", || {
                            dev.build_column_program(&h, ctx.col_root)
                        })
                        .map_err(err)?;
                    tr.time("sim.execute", || dev.execute_program(bank, &program))
                        .map_err(err)?;
                    h.assume_order(StoredOrder::Natural);
                    let out = tr
                        .time("sim.read", || dev.read_polynomial(&h))
                        .map_err(err)?;
                    tr.time("engine.transpose", || {
                        for (r, &v) in out.iter().enumerate() {
                            ctx.matrix[r][column] = u64::from(v);
                        }
                    });
                    programs[bank].push((program, None, Some(ctx.barrier)));
                }
                PlanUnit::SplitRow { .. } => {}
            }
        }
    }
    // Pass B: split rows, each after every column has drained.
    for (bank, queue) in plan.queues.iter().enumerate() {
        for &ui in queue {
            let PlanUnit::SplitRow { job: ji, row } = plan.units[ui] else {
                continue;
            };
            let ctx = &ctxs[&ji];
            let q = jobs[ji].q;
            let rows = ctx.split.rows;
            let tw = pow_mod(ctx.omega, row as u64, q) as u32;
            let words: Vec<u32> = tr.time("engine.transpose", || {
                ctx.matrix[row].iter().map(|&c| c as u32).collect()
            });
            let mut h = tr
                .time("sim.load", || {
                    dev.load_in_bank(bank, 0, &words, q as u32, StoredOrder::Natural)
                })
                .map_err(err)?;
            let program = tr
                .time("mapper.build", || {
                    dev.build_twiddle_row_program(&h, ctx.row_root, tw)
                })
                .map_err(err)?;
            tr.time("sim.execute", || dev.execute_program(bank, &program))
                .map_err(err)?;
            h.assume_order(StoredOrder::BitReversed);
            let out = tr
                .time("sim.read", || dev.read_polynomial(&h))
                .map_err(err)?;
            let spectrum = &mut spectra[ji];
            tr.time("engine.transpose", || {
                for (c, &v) in out.iter().enumerate() {
                    spectrum[c * rows + row] = u64::from(v);
                }
            });
            programs[bank].push((program, Some(ctx.barrier), None));
        }
    }
    let dag: Vec<Vec<DagJob<'_>>> = programs
        .iter()
        .map(|queue| {
            queue
                .iter()
                .map(|(program, waits_on, signals)| DagJob {
                    program,
                    waits_on: *waits_on,
                    signals: *signals,
                })
                .collect()
        })
        .collect();
    let report = tr
        .time("sched.dag", || dev.schedule_queues_dag(&dag))
        .map_err(err)?;
    let flat = programs.iter().flatten();
    Ok(Decomposed {
        spectra,
        report,
        programs: flat.clone().count(),
        cmds: flat.map(|(p, _, _)| p.len()).sum(),
    })
}

/// One whole job in one bank: load, map, execute, read back.
fn run_job(
    dev: &mut PimDevice,
    bank: usize,
    job: &NttJob,
    tr: &mut Tracer,
) -> Result<(Program, Vec<u64>), String> {
    let q = job.q as u32;
    let words = |v: &[u64]| v.iter().map(|&c| c as u32).collect::<Vec<u32>>();
    let (program, handle) = match &job.kind {
        JobKind::Forward | JobKind::Inverse => {
            let (stored, dir, after) = if job.kind == JobKind::Forward {
                (
                    StoredOrder::BitReversed,
                    NttDirection::Forward,
                    StoredOrder::Natural,
                )
            } else {
                (
                    StoredOrder::Natural,
                    NttDirection::Inverse,
                    StoredOrder::BitReversed,
                )
            };
            let mut h = tr
                .time("sim.load", || {
                    dev.load_in_bank(bank, 0, &words(&job.coeffs), q, stored)
                })
                .map_err(err)?;
            let program = tr
                .time("mapper.build", || dev.build_ntt_program(&h, dir))
                .map_err(err)?;
            tr.time("sim.execute", || dev.execute_program(bank, &program))
                .map_err(err)?;
            h.assume_order(after);
            (program, h)
        }
        JobKind::NegacyclicPolymul { rhs } => {
            let base = dev.config().polymul_rhs_base(job.n());
            let (ha, hb) = tr
                .time("sim.load", || {
                    let ha =
                        dev.load_in_bank(bank, 0, &words(&job.coeffs), q, StoredOrder::Natural)?;
                    let hb = dev.load_in_bank(bank, base, &words(rhs), q, StoredOrder::Natural)?;
                    Ok::<_, ntt_pim::core::PimError>((ha, hb))
                })
                .map_err(err)?;
            let program = tr
                .time("mapper.build", || dev.polymul_program(&ha, &hb))
                .map_err(err)?;
            tr.time("sim.execute", || dev.execute_program(bank, &program))
                .map_err(err)?;
            (program, ha)
        }
        JobKind::SplitLarge => return Err("split jobs run as column/row units".into()),
    };
    let out = tr
        .time("sim.read", || dev.read_polynomial(&handle))
        .map_err(err)?;
    Ok((program, out.into_iter().map(u64::from).collect()))
}

/// Counts the traced replays gather for the per-layer metrics.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub groups: usize,
    pub jobs: usize,
    /// Jobs of the decomposed (PIM) groups.
    pub pim_jobs: usize,
    pub programs: usize,
    pub cmds: usize,
    /// Mapped commands of the programs `schedule_queues_dag` timed.
    pub dag_cmds: usize,
    /// Summed duration of the reference runs of the decomposed groups.
    pub reference_ns: f64,
    /// Predicted over simulated batch latency, one per PIM group.
    pub pred_over_sim: Vec<f64>,
}

/// The span names of the decomposition's leaves.
const LEAVES: [&str; 7] = [
    "engine.plan",
    "engine.transpose",
    "mapper.build",
    "sim.load",
    "sim.execute",
    "sim.read",
    "sched.dag",
];

/// Reference calls, timed for the bit-identity check and the `*_run`
/// metrics; the layer self-time table leaves them out because the
/// decomposition times the same work layer by layer.
pub const REFERENCES: [&str; 3] = ["bus.pim_run", "engine.run", "sim.paper_ntt"];

/// Fills the per-layer metrics the spans of a traced replay give.
pub fn span_metrics(tr: &Tracer, counts: &ReplayCounts, out: &mut Outcome) {
    let totals = tr.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let durs = |name: &str| {
        totals
            .get(name)
            .map_or_else(Vec::new, |t| t.durs_ns.clone())
    };
    let p50_of = |name: &str, scale: f64| summarize(&durs(name)).p50 / scale;
    let programs = counts.programs as f64;
    let layer = &mut out.layer;
    layer.set("fleet.route_us_p50", p50_of("fleet.route", 1e3));
    layer.set(
        "fleet.pred_over_sim",
        ratio(
            counts.pred_over_sim.iter().sum(),
            counts.pred_over_sim.len() as f64,
        ),
    );
    layer.set("bus.pim_run_ms_p50", p50_of("bus.pim_run", 1e6));
    layer.set("bus.cpu_lanes_run_us_p50", p50_of("bus.cpu_lanes_run", 1e3));
    layer.set("engine.plan_us_p50", p50_of("engine.plan", 1e3));
    let run = if totals.contains_key("engine.run") {
        "engine.run"
    } else {
        "bus.pim_run"
    };
    layer.set("engine.run_ms_p50", p50_of(run, 1e6));
    let leaves: f64 = LEAVES.iter().map(|n| total(n)).sum();
    layer.set(
        "engine.unaccounted_frac",
        if counts.reference_ns > 0.0 {
            1.0 - leaves / counts.reference_ns
        } else {
            0.0
        },
    );
    layer.set(
        "mapper.us_per_program",
        ratio(total("mapper.build"), programs) / 1e3,
    );
    layer.set(
        "mapper.cmds_per_program",
        ratio(counts.cmds as f64, programs),
    );
    layer.set("sched.ms_per_batch_p50", p50_of("sched.dag", 1e6));
    layer.set(
        "sched.ns_per_cmd",
        ratio(total("sched.dag"), counts.dag_cmds as f64),
    );
    let single = totals.get("sched.single");
    layer.set(
        "sched.single_us_per_program",
        single.map_or(0.0, |t| t.total_ns as f64 / t.count as f64 / 1e3),
    );
    layer.set(
        "sim.us_per_program",
        ratio(total("sim.execute"), programs) / 1e3,
    );
    layer.set(
        "sim.load_read_us_per_job",
        ratio(
            total("sim.load") + total("sim.read"),
            counts.pim_jobs as f64,
        ) / 1e3,
    );
    layer.set(
        "verify.us_per_job",
        ratio(total("verify.golden"), counts.jobs as f64) / 1e3,
    );
    for name in [
        "fleet.route",
        "bus.pim_run",
        "bus.cpu_lanes_run",
        "engine.plan",
        "engine.run",
        "sched.dag",
    ] {
        if let Some(t) = totals.get(name) {
            out.timing(
                format!("span {name}"),
                "ms",
                t.durs_ns.iter().map(|d| d / 1e6).collect(),
            );
        }
    }
    out.layer_self_ns = tr.layer_self_ns(&REFERENCES);
    out.spans_json = Some(tr.spans_json());
}

/// One batch of the pass.
struct Batch {
    topo: usize,
    jobs: Vec<NttJob>,
}

/// A first-pass batch kept for the traced replay.
struct Recorded {
    topo: usize,
    jobs: Vec<NttJob>,
    hashes: Vec<u64>,
    report: QueueReport,
}

/// Builds the seeded pass. Per topology there is one batch of every
/// even size up to twice its lanes, and every `split_every`-th size also
/// carries one split large transform, the split lengths taken in turn.
/// The batches' (length, kind) shapes walk the cycle of every pair with
/// a stride longer than one length's run of kinds and coprime to the
/// cycle, so consecutive jobs differ in length and every pair recurs
/// evenly. That mix and each batch's job order are fixed: the
/// seed picks each job's modulus among those its length allows, every
/// value, and the order of the batches. Every seed therefore replays the
/// same work, so host time varies only with the host.
fn make_pass(c: &Consts, lanes: &[usize], rng: &mut Rng) -> Vec<Batch> {
    let cycle: Vec<(Kind, usize)> = c
        .replay_lengths
        .iter()
        .flat_map(|&n| c.mix_kinds.iter().map(move |&k| (k, n)))
        .collect();
    let stride = (c.mix_kinds.len() * 2 + 1..)
        .find(|s| gcd(*s, cycle.len()) == 1)
        .expect("some stride is coprime");
    let split_q = *c.mix_moduli.iter().max().expect("moduli parsed non-empty");
    let every = c.replay_split_every;
    let mut at = 0;
    let mut batches = Vec::new();
    for (topo, &l) in lanes.iter().enumerate() {
        for (i, size) in (1..=l).map(|k| 2 * k).enumerate() {
            let mut jobs: Vec<NttJob> = (0..size)
                .map(|_| {
                    let (kind, n) = cycle[at % cycle.len()];
                    at += stride;
                    let moduli: Vec<u64> = c
                        .mix_moduli
                        .iter()
                        .copied()
                        .filter(|q| (q - 1) % (2 * n as u64) == 0)
                        .collect();
                    let q = moduli[rng.below(moduli.len())];
                    gen::job(rng, Shape { kind, n, q })
                })
                .collect();
            if (i + 1) % every == 0 {
                let n = c.replay_split_lengths[(i / every) % c.replay_split_lengths.len()];
                jobs.push(NttJob::split_large(gen::poly(rng, n, split_q), split_q));
            }
            batches.push(Batch { topo, jobs });
        }
    }
    rng.shuffle(&mut batches);
    batches
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn build_executors(c: &Consts) -> Result<Vec<BatchExecutor>, String> {
    let max_len = c
        .replay_split_lengths
        .iter()
        .chain(&c.replay_lengths)
        .copied()
        .max()
        .unwrap_or(4);
    let mut execs = Vec::new();
    for &topology in &c.replay_topologies {
        let mut exec = BatchExecutor::new(pim_config(topology)).map_err(err)?;
        // Warm the per-length cost memo the LPT planner reads, for every
        // length a job or a split sub-job can have.
        let mut n = 4;
        while n <= max_len {
            exec.cost_model().transform_cost(n);
            n *= 2;
        }
        execs.push(exec);
    }
    Ok(execs)
}

pub fn run(c: &Consts, seed: u64, seconds: f64, tracing: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut execs = Vec::new();
    for _ in 0..c.setup_reps {
        drop(std::mem::take(&mut execs));
        let t = Instant::now();
        execs = build_executors(c)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    out.e2e.set("setup_s", summarize(&setups).p50);
    out.timing("setup", "s", setups);

    let lanes: Vec<usize> = execs.iter().map(BatchExecutor::bank_count).collect();
    let mut rng = Rng::new(seed);
    let pass = make_pass(c, &lanes, &mut rng);
    let golden = Golden::new();
    let mut sim = SimAcc::default();
    let mut hashes: Vec<Vec<u64>> = vec![Vec::new(); pass.len()];
    let mut sampler = Sampler::new(c.trace_groups);
    // Wall time of every run of every batch, ms, by batch.
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); pass.len()];
    let mut pass_bus_slots = 0u64;
    let mut first_pass = true;
    // Whole passes only, so every run times the same set of batches.
    let end = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    while first_pass || Instant::now() < end {
        for (bi, batch) in pass.iter().enumerate() {
            let t = Instant::now();
            let result = execs[batch.topo].run(&batch.jobs);
            let dt = t.elapsed().as_nanos() as f64;
            out.attempted += 1;
            let outcome = match result {
                Ok(o) => o,
                Err(e) => {
                    out.failed += 1;
                    out.error(format!("batch {bi}: {e}"));
                    continue;
                }
            };
            run_ms[bi].push(dt / 1e6);
            let got: Vec<u64> = outcome.spectra.iter().map(|s| fnv(s)).collect();
            if first_pass {
                if !batch
                    .jobs
                    .iter()
                    .zip(&outcome.spectra)
                    .all(|(j, s)| golden.check(j, s))
                {
                    out.failed += 1;
                    out.error(format!("batch {bi}: output differs from golden"));
                }
                pass_bus_slots += outcome.bus_slots;
                sim.add_group(
                    &outcome.queue_report,
                    outcome.energy_nj,
                    batch.jobs.len(),
                    true,
                );
                sim.job_ns.extend(&outcome.job_latency_ns);
                sim.barrier_ns.extend(&outcome.queue_report.barrier_ns);
                if tracing {
                    sampler.offer(Recorded {
                        topo: batch.topo,
                        jobs: batch.jobs.clone(),
                        hashes: got.clone(),
                        report: outcome.queue_report,
                    });
                }
                hashes[bi] = got;
            } else if hashes[bi] != got {
                out.failed += 1;
                out.error(format!("batch {bi}: output changed between passes"));
            }
        }
        first_pass = false;
    }
    // Each batch is the same deterministic work on every pass, so its
    // host time is the fastest of its passes (min-of-runs, as the
    // repository's kernel benchmarks time): interference from other load
    // on the host only ever adds time.
    let per_batch: Vec<f64> = run_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let pass_ms: f64 = per_batch.iter().sum();
    out.e2e.set(
        "wall_req_per_s",
        ratio(per_batch.len() as f64, pass_ms / 1e3),
    );
    out.e2e.set(
        "host_ns_per_sim_cmd",
        ratio(pass_ms * 1e6, pass_bus_slots as f64),
    );
    let mut sorted_batches = per_batch.clone();
    sorted_batches.sort_by(f64::total_cmp);
    out.e2e.set(
        "wall_p50_ms",
        crate::report::percentile(&sorted_batches, 50.0),
    );
    out.e2e.set(
        "wall_p99_ms",
        crate::report::percentile(&sorted_batches, 99.0),
    );
    out.timing(
        "wall per batch, fastest of its passes (BatchExecutor::run)",
        "ms",
        per_batch,
    );
    out.timing(
        "wall per batch run (BatchExecutor::run)",
        "ms",
        run_ms.concat(),
    );
    out.e2e.set("sim_us_per_job", sim.us_per_job());
    out.e2e.set("sim_p99_us", sim.p99_us());
    out.e2e.set("sim_nj_per_job", sim.nj_per_job());
    out.notes.push(format!(
        "pass: {} batches, {} jobs over topologies {:?}",
        pass.len(),
        sim.jobs,
        c.replay_topologies
            .iter()
            .map(|t| format!("{}x{}x{}", t.channels, t.ranks, t.banks))
            .collect::<Vec<_>>()
    ));

    let sweep = sweep_latencies(c, &mut rng, &golden)?;
    out.e2e.set(
        "sim_ntt_geomean_us",
        geomean(&sweep.iter().map(|s| s.1).collect::<Vec<_>>()) / 1e3,
    );
    for (n, ns) in &sweep {
        out.notes
            .push(format!("paper-path NTT N={n}: {:.3} sim_us", ns / 1e3));
    }

    sim.dram_metrics(&mut out.layer);
    // No service, router, backend or load generator runs here.
    for name in [
        "service.submit_us_p50",
        "service.batch_size_mean",
        "service.rejected",
        "fleet.share_pim",
        "fleet.share_cpu_lanes",
        "fleet.steals",
        "verify.lane_share",
        "verify.plan_cache_hit_ratio",
        "loadgen.late_p99_ms",
        "loadgen.offered_per_s",
        "loadgen.achieved_per_s",
    ] {
        out.layer.set(name, 0.0);
    }
    if tracing {
        traced(
            c,
            &mut execs,
            sampler.into_items(),
            &golden,
            &mut rng,
            &mut out,
        )?;
    }
    Ok(out)
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// The device configuration of the paper's single-transform sweep.
fn sweep_config() -> PimConfig {
    PimConfig::hbm2e(2)
}

/// The geomean of the paper-path sweep, sim µs, on inputs that do not
/// depend on the workload seed.
pub fn paper_geomean_us(c: &Consts) -> Result<f64, String> {
    let sweep = sweep_latencies(c, &mut Rng::new(0), &Golden::new())?;
    Ok(geomean(&sweep.iter().map(|s| s.1).collect::<Vec<_>>()) / 1e3)
}

/// The paper-path (`PimDevice::ntt`, single command bus) latency at each
/// sweep length, golden-checked.
fn sweep_latencies(
    c: &Consts,
    rng: &mut Rng,
    golden: &Golden,
) -> Result<Vec<(usize, f64)>, String> {
    let q = *c.mix_moduli.iter().max().expect("moduli parsed non-empty");
    let mut dev = PimDevice::new(sweep_config()).map_err(err)?;
    let mut out = Vec::new();
    for &n in &c.sweep_lengths {
        let coeffs = gen::poly(rng, n, q);
        let words: Vec<u32> = coeffs.iter().map(|&x| x as u32).collect();
        let mut h = dev
            .load_polynomial_bitrev(0, &words, q as u32)
            .map_err(err)?;
        let report = dev
            .ntt_in_place(&mut h, NttDirection::Forward)
            .map_err(err)?;
        let got: Vec<u64> = dev
            .read_polynomial(&h)
            .map_err(err)?
            .into_iter()
            .map(u64::from)
            .collect();
        if !golden.check(&NttJob::forward(coeffs, q), &got) {
            return Err(format!("paper-path NTT N={n} differs from golden"));
        }
        out.push((n, report.latency_ns()));
    }
    Ok(out)
}

/// The traced replay of `sim_replay`: every kept batch, then the sweep.
fn traced(
    c: &Consts,
    execs: &mut [BatchExecutor],
    groups: Vec<Recorded>,
    golden: &Golden,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut routers = c
        .replay_topologies
        .iter()
        .map(|&t| FleetRouter::new(&[pim_config(t)], 0.0).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tr = Tracer::new();
    let mut counts = ReplayCounts::default();
    for (g, rec) in groups.iter().enumerate() {
        tr.set_group(g);
        tr.enter("trace.group");
        let routing = tr.time("fleet.route", || routers[rec.topo].route(&rec.jobs));
        for p in &routing.placements {
            routers[rec.topo].complete(p.device, p.predicted_ns);
        }
        let predicted = routers[rec.topo].batch_cost_ns(0, &rec.jobs);
        let t = Instant::now();
        let reference = tr
            .time("engine.run", || execs[rec.topo].run(&rec.jobs))
            .map_err(err)?;
        counts.reference_ns += t.elapsed().as_nanos() as f64;
        let ref_hashes: Vec<u64> = reference.spectra.iter().map(|s| fnv(s)).collect();
        if ref_hashes != rec.hashes || !same_report(&reference.queue_report, &rec.report) {
            out.error(format!(
                "replayed batch {g}: BatchExecutor::run differs from the untraced run"
            ));
        }
        counts.pred_over_sim.push(predicted / reference.latency_ns);
        let d = decompose(&mut execs[rec.topo], &rec.jobs, &mut tr)?;
        if d.spectra != reference.spectra || !same_report(&d.report, &reference.queue_report) {
            out.error(format!(
                "replayed batch {g}: decomposition differs from BatchExecutor::run"
            ));
        }
        counts.groups += 1;
        counts.jobs += rec.jobs.len();
        counts.pim_jobs += rec.jobs.len();
        counts.programs += d.programs;
        counts.cmds += d.cmds;
        counts.dag_cmds += d.cmds;
        let ok = tr.time("verify.golden", || {
            rec.jobs
                .iter()
                .zip(&d.spectra)
                .all(|(j, s)| golden.check(j, s))
        });
        if !ok {
            out.error(format!("replayed batch {g}: output differs from golden"));
        }
        tr.exit();
    }
    // The paper path, decomposed: map, single-bus schedule, execute.
    tr.set_group(groups.len());
    tr.enter("trace.group");
    let q = *c.mix_moduli.iter().max().expect("moduli parsed non-empty");
    let config = sweep_config();
    let mut dev = PimDevice::new(config).map_err(err)?;
    for &n in &c.sweep_lengths {
        let words: Vec<u32> = gen::poly(rng, n, q).into_iter().map(|x| x as u32).collect();
        let h = dev
            .load_polynomial_bitrev(0, &words, q as u32)
            .map_err(err)?;
        let reference = tr
            .time("sim.paper_ntt", || dev.ntt(&h, NttDirection::Forward))
            .map_err(err)?;
        let h = dev
            .load_polynomial_bitrev(0, &words, q as u32)
            .map_err(err)?;
        let program = tr
            .time("mapper.build", || {
                dev.build_ntt_program(&h, NttDirection::Forward)
            })
            .map_err(err)?;
        let timeline = tr
            .time("sched.single", || sched::schedule(&config, &program))
            .map_err(err)?;
        tr.time("sim.execute", || dev.execute_program(0, &program))
            .map_err(err)?;
        if timeline.latency_ns().to_bits() != reference.latency_ns().to_bits() {
            out.error(format!(
                "paper-path N={n}: sched::schedule differs from PimDevice::ntt"
            ));
        }
        counts.programs += 1;
        counts.cmds += program.len();
    }
    tr.exit();
    out.layer.set("trace.overhead_frac", overhead(&tr));
    span_metrics(&tr, &counts, out);
    out.notes.push(format!(
        "traced replay: {} batches + the paper-path sweep",
        counts.groups
    ));
    Ok(())
}

/// Share of the traced replay's wall time spent recording spans.
pub fn overhead(tr: &Tracer) -> f64 {
    ratio(
        tr.spans().len() as f64 * crate::trace::span_cost_ns(),
        tr.covered_ns() as f64,
    )
}
