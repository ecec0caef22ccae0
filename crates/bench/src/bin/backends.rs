//! `backends` — heterogeneous routing bench for the backend bus,
//! written to `BENCH_backends.json` so the cost-aware routing advantage
//! is tracked across PRs.
//!
//! The question this answers: on a mixed-shape workload over a mixed
//! fleet (one PIM shard, the CPU lane-batched backend, and both
//! published comparator models), how much does *cost-aware* routing —
//! placing each micro-batch on the backend predicted cheapest for its
//! shape — buy over (a) shape-blind round-robin on the same fleet (the
//! old "N identical devices" assumption applied to backends that are
//! anything but identical), (b) each single backend serving alone, and
//! (c) a homogeneous all-PIM fleet of the same slot count? Every routed
//! output is checked bit-identical against the golden CPU model; jobs a
//! backend cannot admit (capability window) never reach it.
//!
//! Modes:
//!
//! * default — run the comparison and write the JSON report
//!   (`--out PATH`, default `BENCH_backends.json`).
//! * `--check` — exit non-zero unless cost-aware routing is ≥
//!   [`MIN_SPEEDUP_VS_WORST_SINGLE`]× faster than the worst
//!   full-coverage single backend, ≥ [`MIN_SPEEDUP_VS_NAIVE`]× faster
//!   than shape-blind routing on the same fleet, all three backend
//!   kinds receive work, and parity is clean. This is the CI
//!   heterogeneous-routing gate (simulated time, deterministic).

use ntt_bus::{BackendKind, BackendSpec, NttBackend, NttJob, PublishedKind, SchedulePolicy};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::JobKind;
use ntt_pim::engine::CpuNttEngine;
use ntt_pim_bench::pseudo_poly;
use ntt_service::FleetRouter;

/// Request lengths, cycled (with 12289 every length keeps `2N | q-1`).
const LENGTHS: [usize; 4] = [256, 512, 1024, 2048];
/// Kyber/Falcon-family modulus: inside every backend's window.
const Q: u64 = 12289;
/// Jobs in the burst (6 waves of the PIM shard's 16 lanes).
const JOBS: usize = 96;
/// Every 8th job is a negacyclic polymul (3 transforms under the hood).
const POLYMUL_EVERY: usize = 8;
/// The PIM slot's shard shape (16 lanes).
const TOPOLOGY: Topology = Topology {
    channels: 2,
    ranks: 2,
    banks: 4,
};
/// Gate: cost-aware routing vs the worst single backend that can serve
/// the whole workload alone.
const MIN_SPEEDUP_VS_WORST_SINGLE: f64 = 1.2;
/// Gate: cost-aware routing vs shape-blind round-robin on the same
/// mixed fleet.
const MIN_SPEEDUP_VS_NAIVE: f64 = 1.2;

fn burst() -> Vec<NttJob> {
    (0..JOBS)
        .map(|j| {
            let n = LENGTHS[j % LENGTHS.len()];
            if j % POLYMUL_EVERY == POLYMUL_EVERY - 1 {
                NttJob::negacyclic_polymul(
                    pseudo_poly(n, Q, 9000 + j as u64),
                    pseudo_poly(n, Q, 9500 + j as u64),
                    Q,
                )
            } else {
                NttJob::new(pseudo_poly(n, Q, 9000 + j as u64), Q)
            }
        })
        .collect()
}

/// The mixed fleet: one PIM shard, the CPU lanes, both published models.
fn mixed_specs() -> Vec<BackendSpec> {
    vec![
        BackendSpec::Pim(PimConfig::hbm2e(2).with_topology(TOPOLOGY)),
        BackendSpec::CpuLanes,
        BackendSpec::Published(PublishedKind::BpNtt),
        BackendSpec::Published(PublishedKind::Mentt),
    ]
}

/// Job-by-job results on the golden engine's scalar kernel — independent
/// of the lane kernel the CPU backend runs.
fn golden(jobs: &[NttJob]) -> Vec<Vec<u64>> {
    let cpu = CpuNttEngine::golden();
    jobs.iter()
        .map(|job| {
            let mut data = job.coeffs.clone();
            match &job.kind {
                JobKind::NegacyclicPolymul { rhs } => cpu.negacyclic_polymul(&mut data, rhs, job.q),
                _ => cpu.forward(&mut data, job.q),
            }
            .expect("golden jobs are valid");
            data
        })
        .collect()
}

fn build(spec: &BackendSpec) -> Box<dyn NttBackend> {
    spec.build(SchedulePolicy::Lpt, None)
        .expect("valid backend spec")
}

/// Executes `assignment[slot] = job indices` on freshly built backends,
/// verifying parity, and returns the fleet makespan (busiest slot).
fn execute(
    specs: &[BackendSpec],
    jobs: &[NttJob],
    expect: &[Vec<u64>],
    assignment: &[Vec<usize>],
) -> (f64, Vec<f64>) {
    let mut busy = vec![0.0f64; specs.len()];
    for (slot, indices) in assignment.iter().enumerate() {
        if indices.is_empty() {
            continue;
        }
        let group: Vec<NttJob> = indices.iter().map(|&j| jobs[j].clone()).collect();
        let out = build(&specs[slot])
            .run(&group)
            .expect("admitted group runs");
        busy[slot] += out.latency_ns;
        for (pos, &j) in indices.iter().enumerate() {
            assert_eq!(
                out.spectra[pos],
                expect[j],
                "job {j} on {} not bit-identical to golden",
                specs[slot].label()
            );
        }
    }
    let makespan = busy.iter().fold(0.0f64, |a, &b| a.max(b));
    (makespan, busy)
}

/// Cost-aware routing on the given fleet: the router's own placements
/// (predicted-drain argmin over each slot's cost model), executed and
/// parity-checked. Returns (makespan_ns, jobs per slot).
fn run_cost_aware(
    specs: &[BackendSpec],
    jobs: &[NttJob],
    expect: &[Vec<u64>],
) -> (f64, Vec<usize>) {
    let models = specs
        .iter()
        .map(|s| s.cost_model().expect("valid spec"))
        .collect();
    let mut router = FleetRouter::with_backends(models, 0.0);
    let routing = router.route(jobs);
    assert!(routing.unroutable.is_empty(), "whole burst is routable");
    let mut assignment = vec![Vec::new(); specs.len()];
    for p in &routing.placements {
        assignment[p.device].extend(p.jobs.iter().copied());
    }
    let placed: usize = assignment.iter().map(Vec::len).sum();
    assert_eq!(placed, jobs.len(), "router lost or duplicated jobs");
    let (makespan, _) = execute(specs, jobs, expect, &assignment);
    (makespan, assignment.iter().map(Vec::len).collect())
}

/// Shape-blind round-robin on the same fleet: jobs cycle the slots,
/// skipping only those whose capability window rejects the job — the
/// router the service had when every device was an identical PIM.
fn run_naive(specs: &[BackendSpec], jobs: &[NttJob], expect: &[Vec<u64>]) -> f64 {
    let backends: Vec<Box<dyn NttBackend>> = specs.iter().map(build).collect();
    let mut assignment = vec![Vec::new(); specs.len()];
    let mut cursor = 0usize;
    for (j, job) in jobs.iter().enumerate() {
        let slot = (0..specs.len())
            .map(|k| (cursor + k) % specs.len())
            .find(|&s| backends[s].admit(job).is_ok())
            .expect("every job is admissible somewhere");
        assignment[slot].push(j);
        cursor = (slot + 1) % specs.len();
    }
    execute(specs, jobs, expect, &assignment).0
}

/// One backend serving alone: takes every job its window admits.
/// Returns (label, makespan_ns, jobs served).
fn run_single(spec: &BackendSpec, jobs: &[NttJob], expect: &[Vec<u64>]) -> (String, f64, usize) {
    let backend = build(spec);
    let admitted: Vec<usize> = (0..jobs.len())
        .filter(|&j| backend.admit(&jobs[j]).is_ok())
        .collect();
    let served = admitted.len();
    let specs = std::slice::from_ref(spec);
    let (makespan, _) = execute(specs, jobs, expect, std::slice::from_ref(&admitted));
    (spec.label().to_string(), makespan, served)
}

struct Report {
    cost_aware_ns: f64,
    per_slot_jobs: Vec<usize>,
    naive_ns: f64,
    homogeneous_ns: f64,
    singles: Vec<(String, f64, usize)>,
}

fn render_json(specs: &[BackendSpec], r: &Report) -> String {
    let worst_single = r
        .singles
        .iter()
        .filter(|s| s.2 == JOBS)
        .map(|s| s.1)
        .fold(0.0f64, f64::max);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"backends\",\n");
    out.push_str(&format!(
        "  \"workload\": {{\"lengths\": [256, 512, 1024, 2048], \"q\": {Q}, \
         \"jobs\": {JOBS}, \"polymul_every\": {POLYMUL_EVERY}}},\n"
    ));
    out.push_str(&format!(
        "  \"fleet\": [{}],\n",
        specs
            .iter()
            .map(|s| format!("\"{}\"", s.label()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(
        "  \"comparison\": \"cost-aware routing vs shape-blind round-robin (same fleet), vs each single backend, vs homogeneous all-PIM; bit-identical outputs\",\n",
    );
    out.push_str(&format!(
        "  \"cost_aware\": {{\"makespan_us\": {:.2}, \"per_slot_jobs\": {:?}}},\n",
        r.cost_aware_ns / 1000.0,
        r.per_slot_jobs
    ));
    out.push_str(&format!(
        "  \"naive_round_robin\": {{\"makespan_us\": {:.2}, \"speedup\": {:.3}}},\n",
        r.naive_ns / 1000.0,
        r.naive_ns / r.cost_aware_ns
    ));
    out.push_str(&format!(
        "  \"homogeneous_pim\": {{\"slots\": {}, \"makespan_us\": {:.2}, \"speedup\": {:.3}}},\n",
        specs.len(),
        r.homogeneous_ns / 1000.0,
        r.homogeneous_ns / r.cost_aware_ns
    ));
    out.push_str("  \"single_backends\": [\n");
    for (i, (label, ns, served)) in r.singles.iter().enumerate() {
        let sep = if i + 1 == r.singles.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"backend\": \"{label}\", \"makespan_us\": {:.2}, \
             \"jobs_served\": {served}, \"full_coverage\": {}}}{sep}\n",
            ns / 1000.0,
            served == &JOBS
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"headline\": {{\"speedup_vs_worst_single\": {:.3}, \
         \"speedup_vs_naive\": {:.3}, \"min_required\": {MIN_SPEEDUP_VS_WORST_SINGLE}}}\n",
        worst_single / r.cost_aware_ns,
        r.naive_ns / r.cost_aware_ns
    ));
    out.push_str("}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_backends.json");
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check = true,
            other => panic!("unknown flag {other}"),
        }
    }

    let specs = mixed_specs();
    let jobs = burst();
    let expect = golden(&jobs);
    println!(
        "heterogeneous routing: {JOBS} jobs cycling {LENGTHS:?} (q={Q}, polymul every \
         {POLYMUL_EVERY}th) over {:?}",
        specs.iter().map(BackendSpec::label).collect::<Vec<_>>()
    );

    let (cost_aware_ns, per_slot_jobs) = run_cost_aware(&specs, &jobs, &expect);
    for (spec, &count) in specs.iter().zip(&per_slot_jobs) {
        println!("  cost-aware: {:>9} took {count:>3} jobs", spec.label());
    }
    let naive_ns = run_naive(&specs, &jobs, &expect);
    let homogeneous: Vec<BackendSpec> = (0..specs.len())
        .map(|_| BackendSpec::Pim(PimConfig::hbm2e(2).with_topology(TOPOLOGY)))
        .collect();
    let (homogeneous_ns, _) = run_cost_aware(&homogeneous, &jobs, &expect);
    let singles: Vec<(String, f64, usize)> = specs
        .iter()
        .map(|s| run_single(s, &jobs, &expect))
        .collect();

    println!(
        "cost-aware {:.2} µs | naive round-robin {:.2} µs ({:.2}x) | homogeneous \
         all-PIM {:.2} µs ({:.2}x)",
        cost_aware_ns / 1000.0,
        naive_ns / 1000.0,
        naive_ns / cost_aware_ns,
        homogeneous_ns / 1000.0,
        homogeneous_ns / cost_aware_ns
    );
    for (label, ns, served) in &singles {
        println!(
            "  single {label:>9}: {:>9.2} µs over {served}/{JOBS} jobs{}",
            ns / 1000.0,
            if *served == JOBS {
                ""
            } else {
                " (partial coverage)"
            }
        );
    }

    let report = Report {
        cost_aware_ns,
        per_slot_jobs: per_slot_jobs.clone(),
        naive_ns,
        homogeneous_ns,
        singles,
    };
    let json = render_json(&specs, &report);
    std::fs::write(&out_path, &json).expect("write BENCH_backends.json");
    println!("wrote {out_path}");

    if check {
        let mut failed = false;
        let worst_single = report
            .singles
            .iter()
            .filter(|s| s.2 == JOBS)
            .map(|s| s.1)
            .fold(0.0f64, f64::max);
        assert!(
            worst_single > 0.0,
            "at least one single backend must cover the whole workload"
        );
        let vs_single = worst_single / cost_aware_ns;
        if vs_single < MIN_SPEEDUP_VS_WORST_SINGLE {
            eprintln!(
                "FAIL: cost-aware {vs_single:.3}x over the worst full-coverage single \
                 backend, below the {MIN_SPEEDUP_VS_WORST_SINGLE}x acceptance bar"
            );
            failed = true;
        }
        let vs_naive = naive_ns / cost_aware_ns;
        if vs_naive < MIN_SPEEDUP_VS_NAIVE {
            eprintln!(
                "FAIL: cost-aware {vs_naive:.3}x over shape-blind routing, below the \
                 {MIN_SPEEDUP_VS_NAIVE}x acceptance bar"
            );
            failed = true;
        }
        // Every backend kind participates in the cost-aware placement.
        for kind in [
            BackendKind::Pim,
            BackendKind::CpuLanes,
            BackendKind::Published,
        ] {
            let jobs_of_kind: usize = specs
                .iter()
                .zip(&per_slot_jobs)
                .filter(|(s, _)| s.kind() == kind)
                .map(|(_, &c)| c)
                .sum();
            if jobs_of_kind == 0 {
                eprintln!("FAIL: no work routed to any {kind} backend");
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "check ok: cost-aware {vs_single:.2}x over worst single backend (>= \
             {MIN_SPEEDUP_VS_WORST_SINGLE}x), {vs_naive:.2}x over shape-blind routing, \
             all three backend kinds served work, outputs bit-identical"
        );
    }
}
