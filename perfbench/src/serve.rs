//! `serve_open` and `serve_saturate`: the `ntt-service` `Client`/`Ticket`
//! API driven by one generator thread.
//!
//! `serve_open` is an open loop: seeded Poisson arrivals at a fixed rate,
//! each request timed from when it was due, so a stall also charges the
//! requests queued behind it. `serve_saturate` is a closed loop holding a
//! fixed number of identical requests in flight on one PIM device, so
//! every micro-batch has the same shape and its simulated statistics
//! repeat exactly.

use crate::gen::{self, Golden, Rng, Shape, ShapeStream};
use crate::replay::{decompose, overhead, span_metrics, ReplayCounts};
use crate::report::{ratio, same_report, summarize, Outcome, SimAcc};
use crate::trace::Tracer;
use crate::{fnv, pim_config, Consts, Sampler};
use ntt_bus::{BackendKind, BackendSpec, CpuLanesBackend, NttBackend, PimBackend};
use ntt_pim::engine::batch::NttJob;
use ntt_ref::cache::PlanCache;
use ntt_service::{
    BatchSummary, FleetRouter, NttService, Response, ServiceConfig, ServiceStats, Ticket,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "bench";

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// One submitted request, until its ticket resolves.
struct InFlight {
    seq: u64,
    /// Hash of the golden output, computed before submission.
    expect: u64,
    /// The request itself, kept only for a traced run.
    job: Option<NttJob>,
    ticket: Ticket,
    /// How late the generator submitted it (open loop only).
    late: Duration,
    /// When it was due (open loop) or submitted (closed loop), seconds
    /// into the window.
    t_s: f64,
}

/// One request served and golden-equal.
struct Served {
    t_s: f64,
    latency_ms: f64,
}

/// One served request kept for the traced replay.
struct Member {
    seq: u64,
    job: NttJob,
    hash: u64,
}

/// Responses that share one `BatchSummary` form a group: one executed
/// micro-batch (or the part of one the router placed on one backend).
struct Group {
    summary: Arc<BatchSummary>,
    served: usize,
    /// The served requests, kept only for a traced run.
    members: Vec<Member>,
}

/// What the generator observes while the window runs.
struct Observed {
    attempted: u64,
    refused: u64,
    failed: u64,
    mismatched: u64,
    ok: u64,
    served: Vec<Served>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    sim: SimAcc,
    last_done: Option<Instant>,
    batch_sizes_off: u64,
    expect_batch: Option<usize>,
    /// Groups with responses still outstanding, by `BatchSummary` address
    /// (the `Arc` held here keeps the address from being reused).
    open: HashMap<usize, Group>,
    /// Per fleet slot, an evenly spaced sample of completed groups (a
    /// traced run only): slots serve very different group counts, and
    /// each needs its own sample.
    groups: Option<BTreeMap<usize, Sampler<Group>>>,
    cap: usize,
}

impl Observed {
    fn new(tracing: bool, cap: usize, expect_batch: Option<usize>) -> Self {
        Self {
            attempted: 0,
            refused: 0,
            failed: 0,
            mismatched: 0,
            ok: 0,
            served: Vec::new(),
            late_ms: Vec::new(),
            submit_us: Vec::new(),
            sim: SimAcc::default(),
            last_done: None,
            batch_sizes_off: 0,
            expect_batch,
            open: HashMap::new(),
            groups: tracing.then(BTreeMap::new),
            cap,
        }
    }

    /// Checks one resolved ticket against golden and folds it in.
    fn resolve(&mut self, f: InFlight, result: Result<Response, ntt_service::ServiceError>) {
        self.last_done = Some(Instant::now());
        let response = match result {
            Ok(r) => r,
            Err(_) => {
                self.failed += 1;
                return;
            }
        };
        let hash = fnv(&response.result);
        if hash != f.expect {
            self.mismatched += 1;
            return;
        }
        self.ok += 1;
        let batch = &response.batch;
        self.served.push(Served {
            t_s: f.t_s,
            latency_ms: (f.late + response.wall).as_secs_f64() * 1e3,
        });
        if self.expect_batch.is_some_and(|b| b != batch.size) {
            self.batch_sizes_off += 1;
        }
        self.sim.job_ns.push(response.sim_latency_ns);
        let key = Arc::as_ptr(batch) as usize;
        let group = self.open.entry(key).or_insert_with(|| Group {
            summary: batch.clone(),
            served: 0,
            members: Vec::new(),
        });
        group.served += 1;
        if let Some(job) = f.job {
            group.members.push(Member {
                seq: f.seq,
                hash,
                job,
            });
        }
        if group.served == group.summary.size {
            let done = self.open.remove(&key).expect("group present");
            let s = &done.summary;
            self.sim
                .add_group(&s.queue, s.energy_nj, s.size, s.kind == BackendKind::Pim);
            if let Some(samplers) = &mut self.groups {
                samplers
                    .entry(done.summary.device)
                    .or_insert_with(|| Sampler::new(self.cap))
                    .offer(done);
            }
        }
    }
}

/// Starts the service `reps` times, each time warming it with `warm` in
/// waves of `warm_batch` requests, and keeps the last one. Each start
/// gets a fresh plan cache so every repetition pays the same cold-cache
/// cost.
fn setup(
    config: &ServiceConfig,
    reps: usize,
    warm: &[NttJob],
    warm_batch: usize,
    golden: &Golden,
) -> Result<(NttService, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<NttService> = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let service = NttService::start(config.clone().with_plan_cache(Arc::new(PlanCache::new())))
            .map_err(err)?;
        let client = service.client();
        let results = warm
            .chunks(warm_batch)
            .map(|chunk| {
                let tickets = chunk
                    .iter()
                    .map(|j| client.submit(TENANT, j.clone()))
                    .collect::<Result<Vec<_>, _>>()?;
                tickets
                    .into_iter()
                    .map(Ticket::wait)
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?
            .into_iter()
            .flatten()
            .collect::<Vec<_>>();
        times.push(t.elapsed().as_secs_f64());
        for (job, r) in warm.iter().zip(&results) {
            if !golden.check(job, &r.result) {
                return Err("warm-up response differs from golden".into());
            }
        }
        kept = Some(service);
    }
    Ok((kept.ok_or("no setup repetitions")?, times))
}

fn open_config(c: &Consts) -> ServiceConfig {
    let specs: Vec<BackendSpec> = c
        .open_fleet
        .iter()
        .map(|s| match s {
            BackendSpec::Pim(_) => BackendSpec::Pim(pim_config(c.open_pim_topology)),
            other => *other,
        })
        .collect();
    ServiceConfig::new(pim_config(c.open_pim_topology))
        .with_backends(specs)
        .with_verify_golden(true)
        .with_max_wait(Duration::from_micros(c.open_max_wait_us))
}

fn saturate_config(c: &Consts) -> ServiceConfig {
    ServiceConfig::new(pim_config(c.saturate_topology))
        .with_max_wait(Duration::from_millis(c.saturate_max_wait_ms))
}

pub fn serve_open(c: &Consts, seed: u64, seconds: f64, tracing: bool) -> Result<Outcome, String> {
    let config = open_config(c);
    let grid = gen::grid(&c.mix_kinds, &c.open_lengths, &c.mix_moduli);
    let golden = Golden::new();
    // Warm-up inputs do not depend on the workload seed.
    let mut warm_rng = Rng::new(0);
    let warm: Vec<NttJob> = grid.iter().map(|&s| gen::job(&mut warm_rng, s)).collect();
    for job in &warm {
        golden.expect(job);
    }
    // One warm-up request at a time: with nothing else in flight each
    // lands on the backend the router prices cheapest, the same on every
    // run.
    let (service, setups) = setup(&config, c.setup_reps, &warm, 1, &golden)?;
    let rss_setup = crate::report::peak_rss_mb();
    let before = service.stats();
    let client = service.client();
    let mut rng = Rng::new(seed);
    let mut shapes = ShapeStream::new(grid);
    let mut obs = Observed::new(tracing, c.trace_groups, None);
    let mut inflight: Vec<InFlight> = Vec::new();
    let mut next = shapes.next_job(&mut rng);
    let mut next_expect = fnv(&golden.expect(&next));
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut due = start + Duration::from_secs_f64(rng.exp_gap_s(c.open_rate));
    let mut seq = 0u64;
    let poll = Duration::from_micros(500);
    while due < end || !inflight.is_empty() {
        let now = Instant::now();
        if due < end && now >= due {
            let job = std::mem::replace(&mut next, shapes.next_job(&mut rng));
            let expect = std::mem::replace(&mut next_expect, fnv(&golden.expect(&next)));
            let keep = tracing.then(|| job.clone());
            let s0 = Instant::now();
            let submitted = client.submit(TENANT, job);
            let s1 = Instant::now();
            obs.attempted += 1;
            obs.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            let late = s0 - due;
            obs.late_ms.push(late.as_secs_f64() * 1e3);
            match submitted {
                Ok(ticket) => inflight.push(InFlight {
                    seq,
                    expect,
                    job: keep,
                    ticket,
                    late,
                    t_s: (due - start).as_secs_f64(),
                }),
                Err(_) => obs.refused += 1,
            }
            seq += 1;
            due += Duration::from_secs_f64(rng.exp_gap_s(c.open_rate));
            continue;
        }
        let mut i = 0;
        while i < inflight.len() {
            match inflight[i].ticket.wait_timeout(Duration::ZERO) {
                Some(result) => {
                    let f = inflight.swap_remove(i);
                    obs.resolve(f, result);
                }
                None => i += 1,
            }
        }
        let now = Instant::now();
        let wake = if due < end {
            due.min(now + poll)
        } else {
            now + poll
        };
        if wake > now {
            std::thread::sleep(wake - now);
        }
    }
    let window = obs.last_done.map_or(seconds, |t| (t - start).as_secs_f64());
    let stats = service.shutdown();
    let mut out = finish(
        &config.backends,
        obs,
        &before,
        &stats,
        setups,
        window,
        seconds,
        tracing,
    )?;
    out.notes.push(format!(
        "open loop: Poisson {} req/s offered for {seconds} s; peak RSS after set-up {rss_setup:.1} MiB",
        c.open_rate
    ));
    out.e2e
        .set("host_ns_per_sim_cmd", pim_probe_ns_per_slot(c, &golden)?);
    Ok(out)
}

/// Host ns per simulated bus slot on the open fleet's PIM backend.
///
/// An open loop's window lasts as long as the offered load does, so the
/// window over its bus slots would follow the share of jobs the router
/// and the stealing workers happened to give the PIM backend, not its
/// host cost. This times a fixed probe after the window instead: every
/// shape of the mix alone on a fresh PIM backend of the fleet's
/// topology, each the fastest of `RUNS` runs, on inputs that do not
/// depend on the seed.
fn pim_probe_ns_per_slot(c: &Consts, golden: &Golden) -> Result<f64, String> {
    const RUNS: usize = 5;
    let mut backend = PimBackend::new(pim_config(c.open_pim_topology)).map_err(err)?;
    let mut rng = Rng::new(0);
    let (mut ns, mut slots) = (0.0, 0u64);
    for shape in gen::grid(&c.mix_kinds, &c.open_lengths, &c.mix_moduli) {
        let jobs = [gen::job(&mut rng, shape)];
        let mut fastest = f64::INFINITY;
        let mut job_slots = 0;
        for _ in 0..RUNS {
            let t = Instant::now();
            let outcome = backend.run(&jobs).map_err(err)?;
            fastest = fastest.min(t.elapsed().as_nanos() as f64);
            if !golden.check(&jobs[0], &outcome.spectra[0]) {
                return Err("PIM probe output differs from golden".into());
            }
            job_slots = outcome.bus_slots;
        }
        ns += fastest;
        slots += job_slots;
    }
    Ok(ratio(ns, slots as f64))
}

pub fn serve_saturate(
    c: &Consts,
    seed: u64,
    seconds: f64,
    tracing: bool,
) -> Result<Outcome, String> {
    let config = saturate_config(c);
    let shape = Shape {
        kind: crate::gen::Kind::Forward,
        n: c.saturate_n,
        q: c.saturate_q,
    };
    let lanes = c.saturate_topology.total_banks();
    if !c.saturate_inflight.is_multiple_of(lanes) {
        return Err("the in-flight count must be a multiple of the device's lanes".into());
    }
    let golden = Golden::new();
    let mut warm_rng = Rng::new(0);
    let warm: Vec<NttJob> = (0..lanes).map(|_| gen::job(&mut warm_rng, shape)).collect();
    golden.expect(&warm[0]);
    let (service, setups) = setup(&config, c.setup_reps, &warm, lanes, &golden)?;
    let before = service.stats();
    let client = service.client();
    let mut rng = Rng::new(seed);
    let mut obs = Observed::new(tracing, c.trace_groups, Some(lanes));
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut seq = 0u64;
    let start = Instant::now();
    let mut submit = |obs: &mut Observed, rng: &mut Rng, inflight: &mut VecDeque<InFlight>| {
        let job = gen::job(rng, shape);
        let expect = fnv(&golden.expect(&job));
        let keep = tracing.then(|| job.clone());
        let s0 = Instant::now();
        let submitted = client.submit(TENANT, job);
        obs.submit_us.push(s0.elapsed().as_secs_f64() * 1e6);
        obs.attempted += 1;
        match submitted {
            Ok(ticket) => inflight.push_back(InFlight {
                seq,
                expect,
                job: keep,
                ticket,
                late: Duration::ZERO,
                t_s: (s0 - start).as_secs_f64(),
            }),
            Err(_) => obs.refused += 1,
        }
        seq += 1;
    };
    let end = start + Duration::from_secs_f64(seconds);
    for _ in 0..c.saturate_inflight {
        submit(&mut obs, &mut rng, &mut inflight);
    }
    // Tickets resolve a whole micro-batch at a time; deciding whether to
    // go on only at batch boundaries keeps every batch full to the end.
    let mut answered = 0usize;
    let mut go_on = true;
    // When each batch's first response arrived, and the batch's bus slots.
    let mut batch_done: Vec<(Instant, u64)> = Vec::new();
    while let Some(f) = inflight.pop_front() {
        let result = f
            .ticket
            .wait_timeout(Duration::from_secs(120))
            .unwrap_or(Err(ntt_service::ServiceError::Closed));
        if answered.is_multiple_of(lanes) {
            let done = Instant::now();
            go_on = done < end;
            if let Ok(r) = &result {
                batch_done.push((done, r.batch.queue.bus_slots));
            }
        }
        answered += 1;
        if go_on {
            submit(&mut obs, &mut rng, &mut inflight);
        }
        obs.resolve(f, result);
    }
    let window = obs.last_done.map_or(seconds, |t| (t - start).as_secs_f64());
    let stats = service.shutdown();
    let batches_off = obs.batch_sizes_off;
    let specs = [BackendSpec::Pim(pim_config(c.saturate_topology))];
    let mut out = finish(
        &specs, obs, &before, &stats, setups, window, seconds, tracing,
    )?;
    // Completions come a whole batch at a time, so sub-window counts are
    // coarse; the interval between consecutive batches is not.
    let gaps: Vec<(f64, u64)> = batch_done
        .windows(2)
        .map(|w| ((w[1].0 - w[0].0).as_secs_f64(), w[1].1))
        .collect();
    let gap_s: Vec<f64> = gaps.iter().map(|g| g.0).collect();
    let ns_per_slot: Vec<f64> = gaps
        .iter()
        .map(|&(g, slots)| ratio(g * 1e9, slots as f64))
        .collect();
    out.e2e
        .set("wall_req_per_s", ratio(lanes as f64, summarize(&gap_s).p50));
    out.e2e
        .set("host_ns_per_sim_cmd", summarize(&ns_per_slot).p50);
    out.timing(
        "interval between batch completions",
        "ms",
        gap_s.iter().map(|g| g * 1e3).collect(),
    );
    if batches_off > 0 {
        out.notes.push(format!(
            "WARNING: {batches_off} responses rode a batch of other than {lanes} jobs"
        ));
    }
    out.notes.push(format!(
        "closed loop: {} in flight, N={} q={} on {}x{}x{}",
        c.saturate_inflight,
        c.saturate_n,
        c.saturate_q,
        c.saturate_topology.channels,
        c.saturate_topology.ranks,
        c.saturate_topology.banks
    ));
    Ok(out)
}

/// Counter deltas over the timed window (the warm-up is excluded).
struct Window {
    batches: u64,
    batched_jobs: u64,
    completed: u64,
    rejected: u64,
    verify_lane_jobs: u64,
    steals: u64,
    pim_jobs: u64,
    cpu_lanes_jobs: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn window_stats(before: &ServiceStats, after: &ServiceStats) -> Window {
    let (mut steals, mut pim_jobs, mut cpu_lanes_jobs) = (0, 0, 0);
    for (b, a) in before.devices.iter().zip(&after.devices) {
        match a.kind {
            BackendKind::Pim => pim_jobs += a.jobs - b.jobs,
            BackendKind::CpuLanes => cpu_lanes_jobs += a.jobs - b.jobs,
            BackendKind::Published => {}
        }
        steals += a.steals - b.steals;
    }
    let hits = after.plan_cache.hits - before.plan_cache.hits;
    let misses = after.plan_cache.misses - before.plan_cache.misses;
    Window {
        batches: after.batches - before.batches,
        batched_jobs: after.batched_jobs - before.batched_jobs,
        completed: after.completed - before.completed,
        rejected: (after.rejected_busy + after.rejected_tenant + after.rejected_invalid)
            - (before.rejected_busy + before.rejected_tenant + before.rejected_invalid),
        verify_lane_jobs: after.verify_lane_jobs - before.verify_lane_jobs,
        steals,
        pim_jobs,
        cpu_lanes_jobs,
        cache_hits: hits,
        cache_lookups: hits + misses,
    }
}

#[allow(clippy::too_many_arguments)]
fn finish(
    specs: &[BackendSpec],
    mut obs: Observed,
    before: &ServiceStats,
    after: &ServiceStats,
    setups: Vec<f64>,
    window_s: f64,
    seconds: f64,
    tracing: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome {
        attempted: obs.attempted,
        failed: obs.refused + obs.failed + obs.mismatched,
        ..Outcome::default()
    };
    if obs.mismatched > 0 {
        out.error(format!("{} responses differ from golden", obs.mismatched));
    }
    let w = window_stats(before, after);
    out.e2e.set("setup_s", summarize(&setups).p50);
    out.timing("setup", "s", setups);
    // Only the closed loop expects one batch size.
    let open_loop = obs.expect_batch.is_none();
    let blocks = block_stats(&obs.served, seconds, open_loop);
    out.e2e.set("wall_req_per_s", blocks.rate);
    out.e2e.set("wall_p50_ms", blocks.p50);
    out.e2e.set("wall_p99_ms", blocks.p99);
    out.timing(
        "wall latency per request",
        "ms",
        obs.served.iter().map(|s| s.latency_ms).collect(),
    );
    out.e2e.set("sim_us_per_job", obs.sim.us_per_job());
    out.e2e.set("sim_p99_us", obs.sim.p99_us());
    out.e2e.set("sim_nj_per_job", obs.sim.nj_per_job());

    let layer = &mut out.layer;
    layer.set("service.submit_us_p50", summarize(&obs.submit_us).p50);
    layer.set(
        "service.batch_size_mean",
        ratio(w.batched_jobs as f64, w.batches as f64),
    );
    layer.set("service.rejected", w.rejected as f64);
    let jobs = w.batched_jobs as f64;
    layer.set("fleet.share_pim", ratio(w.pim_jobs as f64, jobs));
    layer.set(
        "fleet.share_cpu_lanes",
        ratio(w.cpu_lanes_jobs as f64, jobs),
    );
    layer.set("fleet.steals", w.steals as f64);
    layer.set(
        "verify.lane_share",
        ratio(w.verify_lane_jobs as f64, w.completed as f64),
    );
    layer.set(
        "verify.plan_cache_hit_ratio",
        ratio(w.cache_hits as f64, w.cache_lookups as f64),
    );
    let mut late = obs.late_ms.clone();
    late.sort_by(f64::total_cmp);
    layer.set(
        "loadgen.late_p99_ms",
        crate::report::percentile(&late, 99.0),
    );
    layer.set("loadgen.offered_per_s", obs.attempted as f64 / seconds);
    layer.set("loadgen.achieved_per_s", ratio(obs.ok as f64, window_s));
    obs.sim.dram_metrics(layer);
    out.timing("Client::submit", "us", std::mem::take(&mut obs.submit_us));
    if !obs.late_ms.is_empty() {
        out.timing("generator lateness", "ms", std::mem::take(&mut obs.late_ms));
    }
    out.notes.push(format!(
        "attempted {} = ok {} + refused {} + failed {} + golden mismatches {}",
        obs.attempted, obs.ok, obs.refused, obs.failed, obs.mismatched
    ));
    if tracing {
        let groups = obs
            .groups
            .take()
            .unwrap_or_default()
            .into_values()
            .flat_map(Sampler::into_items)
            .collect();
        traced(specs, groups, &mut out)?;
    }
    Ok(out)
}

/// Sub-windows a serving run is cut into by due (or submit) time.
const BLOCKS: usize = 15;

/// The wall metrics of a serving run over [`BLOCKS`] equal sub-windows,
/// each the median over the sub-windows, except the open loop's latency
/// percentiles: there the lowest sub-window is kept. Other load on a
/// shared host adds queueing to an open loop, and only ever adds it, so
/// the quietest sub-window is the one that measures the program
/// (min-of-runs, as `sim_replay` and the repository's kernel benchmarks
/// time). A closed loop's latency is set by its own pipeline, in flight
/// over throughput, and every sub-window measures that.
struct BlockStats {
    rate: f64,
    p50: f64,
    p99: f64,
}

fn block_stats(served: &[Served], seconds: f64, open_loop: bool) -> BlockStats {
    let width = seconds / BLOCKS as f64;
    let mut per: Vec<Vec<&Served>> = (0..BLOCKS).map(|_| Vec::new()).collect();
    for s in served {
        per[((s.t_s / width) as usize).min(BLOCKS - 1)].push(s);
    }
    let (mut rate, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for block in &per {
        let mut lat: Vec<f64> = block.iter().map(|s| s.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        rate.push(block.len() as f64 / width);
        if !lat.is_empty() {
            p50.push(crate::report::percentile(&lat, 50.0));
            p99.push(crate::report::percentile(&lat, 99.0));
        }
    }
    // With no latency at all the lowest stays infinite, and the run fails
    // as "not finite" rather than report a latency of zero.
    let pick = |v: &[f64]| {
        if open_loop {
            v.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            summarize(v).p50
        }
    };
    BlockStats {
        rate: summarize(&rate).p50,
        p50: pick(&p50),
        p99: pick(&p99),
    }
}

/// One fleet slot rebuilt for the replay.
enum Slot {
    Pim(Box<PimBackend>),
    Other(Box<dyn NttBackend>),
}

/// The traced replay of the served groups: each group runs again,
/// single-threaded, on a fresh backend of the slot that served it, with a
/// span around every call into a layer; PIM groups are also decomposed.
fn traced(specs: &[BackendSpec], groups: Vec<Group>, out: &mut Outcome) -> Result<(), String> {
    let golden = Golden::new();
    let mut slots = specs
        .iter()
        .map(|s| match s {
            BackendSpec::Pim(config) => PimBackend::new(*config)
                .map(|b| Slot::Pim(Box::new(b)))
                .map_err(err),
            BackendSpec::CpuLanes => Ok(Slot::Other(Box::new(CpuLanesBackend::new()))),
            other => other
                .build(Default::default(), None)
                .map(Slot::Other)
                .map_err(err),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let models = specs
        .iter()
        .map(|s| s.cost_model().map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let mut first_cost = specs[0].cost_model().map_err(err)?;
    let mut router = FleetRouter::with_backends(models, 0.0);
    let mut tr = Tracer::new();
    let mut counts = ReplayCounts::default();
    for (g, mut group) in groups.into_iter().enumerate() {
        group.members.sort_by_key(|m| m.seq);
        let arrival: Vec<usize> = (0..group.members.len()).collect();
        // A micro-batch the router split across backends reaches each
        // backend in the router's LPT order: the first candidate's job
        // cost, largest first, ties in arrival order.
        let mut lpt = arrival.clone();
        let costs: Vec<f64> = group
            .members
            .iter()
            .map(|m| first_cost.job_cost(&m.job))
            .collect();
        lpt.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
        let summary = group.summary.clone();
        let device = summary.device;
        let slot = slots
            .get_mut(device)
            .ok_or("group ran on an unknown device")?;
        let jobs_in = |order: &[usize]| -> Vec<NttJob> {
            order
                .iter()
                .map(|&i| group.members[i].job.clone())
                .collect()
        };
        let matches =
            |order: &[usize], spectra: &[Vec<u64>], report: &ntt_pim::core::device::QueueReport| {
                same_report(report, &summary.queue)
                    && order
                        .iter()
                        .zip(spectra)
                        .all(|(&i, s)| fnv(s) == group.members[i].hash)
            };
        let run = |slot: &mut Slot, jobs: &[NttJob]| match slot {
            Slot::Pim(b) => b.run(jobs),
            Slot::Other(b) => b.run(jobs),
        };
        let order = if lpt == arrival {
            arrival
        } else {
            let probe = run(slot, &jobs_in(&arrival)).map_err(err)?;
            if matches(&arrival, &probe.spectra, &probe.queue_report) {
                arrival
            } else {
                lpt
            }
        };
        let jobs = jobs_in(&order);
        tr.set_group(g);
        tr.enter("trace.group");
        let routing = tr.time("fleet.route", || router.route(&jobs));
        for p in &routing.placements {
            router.complete(p.device, p.predicted_ns);
        }
        let pim = matches!(slot, Slot::Pim(_));
        let name = if pim {
            "bus.pim_run"
        } else {
            "bus.cpu_lanes_run"
        };
        let t = Instant::now();
        let reference = tr.time(name, || run(slot, &jobs)).map_err(err)?;
        let ref_ns = t.elapsed().as_nanos() as f64;
        if !matches(&order, &reference.spectra, &reference.queue_report) {
            out.error(format!(
                "replayed group {g}: {name} differs from the served group"
            ));
        }
        if let Slot::Pim(backend) = slot {
            counts.reference_ns += ref_ns;
            counts
                .pred_over_sim
                .push(router.batch_cost_ns(device, &jobs) / summary.latency_ns);
            let d = decompose(backend.executor_mut(), &jobs, &mut tr)?;
            if d.spectra != reference.spectra || !same_report(&d.report, &reference.queue_report) {
                out.error(format!(
                    "replayed group {g}: decomposition differs from BatchExecutor::run"
                ));
            }
            counts.programs += d.programs;
            counts.cmds += d.cmds;
            counts.dag_cmds += d.cmds;
            counts.pim_jobs += jobs.len();
        }
        counts.groups += 1;
        counts.jobs += jobs.len();
        let ok = tr.time("verify.golden", || {
            jobs.iter()
                .zip(&reference.spectra)
                .all(|(j, s)| golden.check(j, s))
        });
        if !ok {
            out.error(format!("replayed group {g}: output differs from golden"));
        }
        tr.exit();
    }
    out.layer.set("trace.overhead_frac", overhead(&tr));
    span_metrics(&tr, &counts, out);
    out.notes
        .push(format!("traced replay: {} groups", counts.groups));
    Ok(())
}
