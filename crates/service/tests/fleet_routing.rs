//! Fleet-tier properties: random device counts, topologies, and traffic
//! mixes through the router — nothing lost, duplicated, or cross-wired;
//! results bit-identical to a single-device run; the router never picks
//! a device whose predicted drain exceeds the minimum by more than the
//! steal threshold — plus deterministic fault-injection and starvation
//! pins.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::engine::batch::NttJob;
use ntt_pim::engine::{CpuNttEngine, EngineError};
use ntt_service::{
    BackendKind, BackendSpec, FaultSwitch, FleetRouter, NttService, PublishedKind, ServiceConfig,
    ServiceError,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One slot per submitted request, filled by its client thread.
type SlotResults = Mutex<Vec<Option<Result<Vec<u64>, ServiceError>>>>;

fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

/// NTT-friendly moduli for every length this test draws.
const MODULI: [u64; 3] = [12289, 7681, 8_380_417];

/// The topology menu random fleets draw from (2 to 16 lanes).
const TOPOLOGIES: [(u32, u32, u32); 5] = [(1, 1, 2), (1, 1, 4), (2, 1, 2), (2, 2, 4), (4, 2, 2)];

fn device(topo: (u32, u32, u32)) -> PimConfig {
    PimConfig::hbm2e(2).with_topology(Topology::new(topo.0, topo.1, topo.2))
}

/// A valid job of one of the three ordinary kinds.
fn valid_job(n: usize, kind: u64, qsel: u64, seed: u64) -> NttJob {
    let q = MODULI[qsel as usize % MODULI.len()];
    match kind % 3 {
        0 => NttJob::forward(poly(n, q, seed), q),
        1 => NttJob::inverse(poly(n, q, seed), q),
        _ => NttJob::negacyclic_polymul(poly(n, q, seed), poly(n, q, seed ^ 0xff), q),
    }
}

fn expected(job: &NttJob) -> Vec<u64> {
    let cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        ntt_pim::engine::batch::JobKind::Forward | ntt_pim::engine::batch::JobKind::SplitLarge => {
            cpu.forward(&mut data, job.q).unwrap()
        }
        ntt_pim::engine::batch::JobKind::Inverse => cpu.inverse(&mut data, job.q).unwrap(),
        ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } => {
            cpu.negacyclic_polymul(&mut data, rhs, job.q).unwrap()
        }
    };
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Router-level invariants under random fleets and traffic: every
    /// routed batch is partitioned exactly (no job lost, duplicated, or
    /// left over), every placement decision's predicted drain is within
    /// the steal threshold of the minimum predicted drain among its
    /// alternatives, and a device retired mid-stream never receives
    /// work again.
    #[test]
    fn router_places_exactly_within_the_drain_invariant(
        topo_sel in prop::collection::vec(0usize..TOPOLOGIES.len(), 1..5),
        threshold in prop::sample::select(vec![0.0f64, 500.0, 50_000.0]),
        batches in prop::collection::vec(
            prop::collection::vec(
                (
                    prop::sample::select(vec![64usize, 128, 256]),
                    0u64..3,
                    0u64..3,
                    1u64..1_000_000,
                ),
                1..12,
            ),
            1..6,
        ),
        complete_mod in 1u64..4,
    ) {
        let configs: Vec<PimConfig> =
            topo_sel.iter().map(|&t| device(TOPOLOGIES[t])).collect();
        let mut router = FleetRouter::new(&configs, threshold)
            .unwrap()
            .with_decision_log();
        let retire_at = batches.len() / 2;
        let mut retired: Option<usize> = None;
        let mut outstanding: Vec<(usize, f64)> = Vec::new();
        for (bi, specs) in batches.iter().enumerate() {
            if bi == retire_at && configs.len() > 1 {
                let dev = configs.len() - 1;
                router.mark_unhealthy(dev);
                retired = Some(dev);
            }
            let jobs: Vec<NttJob> = specs
                .iter()
                .enumerate()
                .map(|(i, &(n, kind, qsel, seed))| {
                    valid_job(n, kind, qsel, seed ^ ((i as u64) << 32))
                })
                .collect();
            let routing = router.route(&jobs);
            prop_assert!(
                routing.unroutable.is_empty(),
                "every job here is valid on every device"
            );
            let mut seen = vec![false; jobs.len()];
            for placement in &routing.placements {
                prop_assert!(placement.device < configs.len());
                prop_assert!(
                    Some(placement.device) != retired,
                    "work placed on a retired device"
                );
                prop_assert!(placement.predicted_ns > 0.0);
                for &j in &placement.jobs {
                    prop_assert!(!seen[j], "job {} placed twice", j);
                    seen[j] = true;
                }
                outstanding.push((placement.device, placement.predicted_ns));
            }
            prop_assert!(seen.iter().all(|&s| s), "a routed job was lost");
            for decision in router.take_decisions() {
                prop_assert!(
                    decision.drain_ns <= decision.min_drain_ns + threshold + 1e-6,
                    "picked drain {} exceeds minimum {} by more than the threshold {}",
                    decision.drain_ns,
                    decision.min_drain_ns,
                    threshold
                );
            }
            // Complete a deterministic subset, so later batches route
            // against a mix of drained and still-loaded devices.
            let mut kept = Vec::new();
            for (i, (dev, ns)) in outstanding.drain(..).enumerate() {
                if (i as u64 + bi as u64) % complete_mod == 0 {
                    router.complete(dev, ns);
                } else {
                    kept.push((dev, ns));
                }
            }
            outstanding = kept;
        }
        // Draining everything returns every backlog to (floating-point)
        // zero: the accounting never leaks.
        for (dev, ns) in outstanding {
            router.complete(dev, ns);
        }
        prop_assert!(
            router.queued_ns().iter().all(|&q| q.abs() < 1e-3),
            "backlog accounting leaked: {:?}",
            router.queued_ns()
        );
    }

    /// End-to-end: random fleet sizes and traffic mixes (malformed
    /// requests included) through a live service — nothing lost,
    /// duplicated, or cross-wired, and every result bit-identical to the
    /// golden model (which the single-device suite already pins as the
    /// single-device service's output, so fleet ≡ single-device).
    #[test]
    fn fleet_traffic_is_lossless_and_bit_identical(
        specs in prop::collection::vec(
            (
                prop::sample::select(vec![64usize, 128, 256]),
                0u64..8, // kind selector: `% 4 == 3` (p = 1/4) draws the malformed kind
                0u64..3,
                1u64..1_000_000,
                0u8..4,
            ),
            6..20,
        ),
        devices in 1usize..4,
        threshold_us in prop::sample::select(vec![0u64, 10_000]),
        max_wait_us in prop::sample::select(vec![200u64, 2000]),
    ) {
        let pim = PimConfig::hbm2e(2).with_banks(4);
        let config = ServiceConfig::new(pim)
            .with_backends(vec![BackendSpec::Pim(pim); devices])
            .with_steal_threshold(Duration::from_micros(threshold_us))
            .with_max_wait(Duration::from_micros(max_wait_us));
        let service = NttService::start(config).unwrap();
        let jobs: Vec<NttJob> = specs
            .iter()
            .enumerate()
            .map(|(i, &(n, kind, qsel, seed, _))| {
                if kind % 4 == 3 {
                    NttJob::forward(vec![1; n], 65535)
                } else {
                    valid_job(n, kind % 4, qsel, seed ^ ((i as u64) << 40))
                }
            })
            .collect();
        let results: SlotResults = Mutex::new(vec![None; jobs.len()]);
        std::thread::scope(|scope| {
            for (i, (spec, job)) in specs.iter().zip(&jobs).enumerate() {
                let client = service.client();
                let results = &results;
                let job = job.clone();
                let tenant = format!("tenant-{}", spec.4);
                scope.spawn(move || {
                    let outcome = client
                        .submit(tenant, job)
                        .and_then(|ticket| ticket.wait())
                        .map(|response| response.result);
                    let mut slot = results.lock().unwrap();
                    assert!(slot[i].is_none(), "double response for request {i}");
                    slot[i] = Some(outcome);
                });
            }
        });
        let results = results.into_inner().unwrap();
        for (i, (spec, job)) in specs.iter().zip(&jobs).enumerate() {
            let outcome = results[i]
                .as_ref()
                .expect("request neither served nor rejected");
            if spec.1 % 4 == 3 {
                prop_assert!(
                    matches!(outcome, Err(ServiceError::Invalid { .. })),
                    "malformed request {} must fail Invalid on its own ticket: {:?}",
                    i,
                    outcome
                );
            } else {
                let got = outcome
                    .as_ref()
                    .unwrap_or_else(|e| panic!("valid request {i} failed: {e}"));
                prop_assert_eq!(
                    got,
                    &expected(job),
                    "request {} not bit-identical to the single-device/golden result",
                    i
                );
            }
        }
        let stats = service.shutdown();
        let valid = specs.iter().filter(|s| s.1 % 4 != 3).count() as u64;
        prop_assert_eq!(stats.accepted, specs.len() as u64, "nothing lost at admission");
        prop_assert_eq!(stats.completed, valid, "every valid request served exactly once");
        prop_assert_eq!(stats.rejected_invalid, specs.len() as u64 - valid);
        prop_assert_eq!(stats.batched_jobs, valid, "no duplication through routing/stealing");
        prop_assert_eq!(stats.devices.len(), devices);
        prop_assert_eq!(
            stats.devices.iter().map(|d| d.jobs).sum::<u64>(),
            valid,
            "per-device job counts partition the traffic"
        );
    }
}

/// A device that errors is retired, its work drains onto the healthy
/// fleet, and every ticket still resolves — with the right answer.
#[test]
fn failed_device_drains_onto_healthy_fleet() {
    const Q: u64 = 12289;
    let cfg = device((2, 2, 4));
    let switch = Arc::new(FaultSwitch::new());
    switch.fail_next();
    // A huge steal threshold keeps the batch whole and un-stolen, so it
    // deterministically lands on device 0 (argmin with a low-index
    // tie-break on an idle fleet) and hits the armed fault. Re-admission
    // off: this test pins permanent retirement.
    let config = ServiceConfig::new(cfg)
        .with_backends(vec![BackendSpec::Pim(cfg); 2])
        .with_max_batch(32)
        .with_max_wait(Duration::from_millis(20))
        .with_steal_threshold(Duration::from_secs(10))
        .with_readmission(false)
        .with_device_fault(0, switch);
    let service = NttService::start(config).unwrap();
    let client = service.client();
    let jobs: Vec<NttJob> = (0..32)
        .map(|i| NttJob::new(poly(256, Q, 70 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket
            .wait()
            .expect("a failed device's jobs re-route to the healthy device");
        assert_eq!(response.result, expected(job));
        assert_eq!(response.batch.device, 1, "only device 1 stays healthy");
    }
    let stats = service.shutdown();
    assert_eq!(stats.accepted, 32);
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.exec_failures, 1, "one injected fault, one failure");
    assert_eq!(stats.devices[0].exec_failures, 1);
    assert!(!stats.devices[0].healthy, "the faulty device is retired");
    assert!(stats.devices[1].healthy);
    assert_eq!(
        stats.devices[0].jobs, 0,
        "nothing completed on the faulty device"
    );
    assert_eq!(stats.devices[1].jobs, 32);
}

/// With no healthy device left, affected tickets resolve with a typed
/// error — never a hang.
#[test]
fn failed_single_device_fleet_reports_typed_errors_not_hangs() {
    const Q: u64 = 12289;
    let switch = Arc::new(FaultSwitch::new());
    switch.fail_next();
    let config = ServiceConfig::new(device((1, 1, 4)))
        .with_max_wait(Duration::from_millis(5))
        .with_readmission(false)
        .with_device_fault(0, switch.clone());
    let service = NttService::start(config).unwrap();
    let client = service.client();
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            client
                .submit("t", NttJob::new(poly(64, Q, 80 + i), Q))
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        match ticket.wait() {
            Err(ServiceError::Exec { .. }) => {}
            other => panic!("expected a typed Exec error, got {other:?}"),
        }
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.accepted, 4);
    assert!(stats.exec_failures >= 1);
    assert!(!stats.devices[0].healthy);
}

/// One-shot fault with re-admission on (the default): the faulty device
/// retires, its backlog drains onto the healthy peer, and — because
/// `fail_next` is consumed by the failed batch — a later probe job
/// succeeds and the device rejoins the router and serves again.
#[test]
fn retired_device_rejoins_after_probe_success() {
    const Q: u64 = 12289;
    let cfg = device((2, 2, 4));
    let switch = Arc::new(FaultSwitch::new());
    switch.fail_next();
    let config = ServiceConfig::new(cfg)
        .with_backends(vec![BackendSpec::Pim(cfg); 2])
        .with_max_batch(16)
        .with_max_wait(Duration::from_millis(5))
        .with_steal_threshold(Duration::from_secs(10))
        .with_device_fault(0, switch);
    let service = NttService::start(config).unwrap();
    let client = service.client();
    // First wave: lands on device 0 (idle-fleet argmin tie-break), hits
    // the armed fault, retires the device, and drains onto device 1.
    let jobs: Vec<NttJob> = (0..16)
        .map(|i| NttJob::new(poly(256, Q, 400 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket.wait().expect("drained jobs still resolve");
        assert_eq!(response.result, expected(job));
        assert_eq!(response.batch.device, 1);
    }
    // The idle worker probes the retired device; the one-shot fault was
    // consumed by the failed batch, so the probe passes and the device
    // rejoins. Wait for the re-admission to land in the stats.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !service.stats().devices[0].healthy {
        assert!(
            std::time::Instant::now() < deadline,
            "device 0 never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Second wave: the rejoined device is idle again and wins the
    // tie-break, so it executes work post-re-admission.
    let jobs: Vec<NttJob> = (0..16)
        .map(|i| NttJob::new(poly(256, Q, 500 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.result, expected(job));
        assert_eq!(response.batch.device, 0, "the rejoined device serves");
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.exec_failures, 1);
    assert_eq!(stats.readmissions, 1, "exactly one probe re-admission");
    assert_eq!(stats.devices[0].readmissions, 1);
    assert!(stats.devices[0].healthy);
    assert_eq!(stats.devices[0].jobs, 16);
    assert_eq!(stats.devices[1].jobs, 16);
}

/// A backend that panics mid-batch is retired like a failing one: its
/// group re-routes and every ticket resolves, the one-shot panic clears,
/// the probe re-admits the device, and shutdown returns while a client
/// is still alive. Every wait is bounded, and the service is kept out of
/// reach of unwinding (its `Drop` waits for every admitted ticket), so a
/// panic that killed the worker fails this test instead of hanging it.
#[test]
fn panicking_device_is_retired_and_readmitted_without_hanging() {
    const Q: u64 = 12289;
    let bound = Duration::from_secs(20);
    let cfg = device((2, 2, 4));
    let switch = Arc::new(FaultSwitch::new());
    switch.panic_next();
    // The first wave lands on device 0 (idle-fleet argmin tie-break;
    // the huge steal threshold keeps it whole) and hits the panic.
    let config = ServiceConfig::new(cfg)
        .with_backends(vec![BackendSpec::Pim(cfg); 2])
        .with_max_batch(16)
        .with_max_wait(Duration::from_millis(5))
        .with_steal_threshold(Duration::from_secs(10))
        .with_device_fault(0, switch);
    let service = std::mem::ManuallyDrop::new(NttService::start(config).unwrap());
    let client = service.client();
    let jobs: Vec<NttJob> = (0..16)
        .map(|i| NttJob::new(poly(256, Q, 600 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (i, (job, ticket)) in jobs.iter().zip(&tickets).enumerate() {
        match ticket.wait_timeout(bound) {
            Some(Ok(response)) => assert_eq!(response.result, expected(job), "job {i}"),
            Some(Err(ServiceError::Exec { .. })) => {}
            other => panic!("job {i}: no result or typed error within {bound:?}: {other:?}"),
        }
    }
    let deadline = std::time::Instant::now() + bound;
    while !service.stats().devices[0].healthy {
        assert!(
            std::time::Instant::now() < deadline,
            "device 0 never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = service.stats();
    assert_eq!(stats.devices[0].exec_failures, 1, "the panic retired it");
    assert_eq!(stats.devices[0].readmissions, 1);

    let service = std::mem::ManuallyDrop::into_inner(service);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(service.shutdown());
    });
    let stats = rx
        .recv_timeout(bound)
        .expect("shutdown returns while a client is alive");
    assert_eq!(stats.accepted, 16);
    assert_eq!(stats.completed, 16, "the healthy device served the group");
    drop(client);
}

/// End to end on a mixed fleet (PIM + CPU lanes + a published model):
/// every response is bit-identical to the golden model whichever
/// backend served it, and the stats rows carry each slot's identity.
#[test]
fn mixed_backend_fleet_serves_bit_identically() {
    const Q: u64 = 12289;
    let config = ServiceConfig::new(device((1, 1, 4)))
        .with_backends(vec![
            BackendSpec::default_pim(),
            BackendSpec::CpuLanes,
            BackendSpec::Published(PublishedKind::BpNtt),
        ])
        .with_max_wait(Duration::from_millis(2));
    let service = NttService::start(config).unwrap();
    let client = service.client();
    // Shapes across the crossover: small transforms favor the CPU
    // lanes, mid sizes the published model, and the polymuls the PIM
    // slot — whatever the router picks must be bit-identical.
    let jobs: Vec<NttJob> = (0..48)
        .map(|i| match i % 4 {
            0 => NttJob::forward(poly(256, Q, 600 + i), Q),
            1 => NttJob::inverse(poly(1024, Q, 600 + i), Q),
            2 => NttJob::forward(poly(2048, Q, 600 + i), Q),
            _ => NttJob::negacyclic_polymul(poly(256, Q, 600 + i), poly(256, Q, 700 + i), Q),
        })
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        assert_eq!(
            response.result,
            expected(job),
            "backend {} diverged from golden",
            response.batch.backend
        );
        assert!(!response.batch.backend.is_empty());
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.devices.len(), 3);
    assert_eq!(stats.devices[0].backend, "pim");
    assert_eq!(stats.devices[0].kind, BackendKind::Pim);
    assert_eq!(stats.devices[1].backend, "cpu-lanes");
    assert_eq!(stats.devices[1].kind, BackendKind::CpuLanes);
    assert_eq!(stats.devices[2].backend, "bp-ntt");
    assert_eq!(stats.devices[2].kind, BackendKind::Published);
    assert_eq!(
        stats.devices.iter().map(|d| d.jobs).sum::<u64>(),
        48,
        "per-slot job counts partition the traffic"
    );
}

/// A wall-clock-stalled device must not hang its tickets: its own
/// in-flight work finishes late but finishes, and the rest of the
/// fleet keeps serving around it.
#[test]
fn stalled_device_tickets_still_resolve() {
    const Q: u64 = 12289;
    let cfg = device((1, 1, 4));
    let switch = Arc::new(FaultSwitch::new());
    switch.stall_for(Duration::from_millis(10));
    let config = ServiceConfig::new(cfg)
        .with_backends(vec![BackendSpec::Pim(cfg); 2])
        .with_max_wait(Duration::from_millis(2))
        .with_device_fault(0, switch.clone());
    let service = NttService::start(config).unwrap();
    let client = service.client();
    let jobs: Vec<NttJob> = (0..24)
        .map(|i| NttJob::new(poly(128, Q, 90 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket.wait().expect("stalled device must not hang tickets");
        assert_eq!(response.result, expected(job));
    }
    switch.stall_for(Duration::ZERO);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.accepted, 24);
    assert_eq!(stats.exec_failures, 0, "a stall is slow, not broken");
    assert!(stats.devices.iter().all(|d| d.healthy));
}

/// Deterministic starvation pin, router level: one 1×1×2 device among
/// three 4×2×2 devices still receives work from a single large batch —
/// the cost model hands it proportionally less, never zero.
#[test]
fn skewed_fleet_router_never_writes_off_the_small_device() {
    const Q: u64 = 12289;
    let configs = vec![
        device((4, 2, 2)),
        device((4, 2, 2)),
        device((4, 2, 2)),
        device((1, 1, 2)),
    ];
    let mut router = FleetRouter::new(&configs, 0.0).unwrap();
    let jobs: Vec<NttJob> = (0..96)
        .map(|i| NttJob::new(poly(256, Q, 200 + i), Q))
        .collect();
    let routing = router.route(&jobs);
    assert!(routing.unroutable.is_empty());
    let placed: usize = routing.placements.iter().map(|p| p.jobs.len()).sum();
    assert_eq!(placed, 96, "every job placed exactly once");
    let small = routing
        .placements
        .iter()
        .find(|p| p.device == 3)
        .expect("the small device is not written off");
    assert!(!small.jobs.is_empty());
    let biggest = routing
        .placements
        .iter()
        .filter(|p| p.device < 3)
        .map(|p| p.jobs.len())
        .max()
        .unwrap();
    assert!(
        small.jobs.len() < biggest,
        "the 2-lane device gets proportionally less than a 16-lane one"
    );
}

/// Deterministic starvation pin, end to end: the skewed fleet completes
/// every job and the small device's occupancy is nonzero.
#[test]
fn skewed_fleet_completes_everything_with_small_device_occupancy() {
    const Q: u64 = 12289;
    let big = device((4, 2, 2));
    let small = device((1, 1, 2));
    // Stealing off: a fast 16-lane worker must not be able to grab the
    // small device's group before its worker wakes — the pin is about
    // the *router* not writing the device off.
    let config = ServiceConfig::new(big)
        .with_backends(vec![
            BackendSpec::Pim(big),
            BackendSpec::Pim(big),
            BackendSpec::Pim(big),
            BackendSpec::Pim(small),
        ])
        .with_max_batch(96)
        .with_max_wait(Duration::from_millis(200))
        .with_work_stealing(false);
    let service = NttService::start(config).unwrap();
    let client = service.client();
    let jobs: Vec<NttJob> = (0..96)
        .map(|i| NttJob::new(poly(256, Q, 300 + i), Q))
        .collect();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| client.submit("t", j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.result, expected(job));
    }
    let stats = service.shutdown();
    assert_eq!(stats.completed, 96, "a skewed fleet completes every job");
    assert_eq!(stats.devices[3].lanes, 2);
    assert!(
        stats.devices[3].occupancy() > 0.0,
        "the small device is not starved: it executed {} jobs",
        stats.devices[3].jobs
    );
}

/// The router checks each job's shape once, before any backend's window:
/// a job that fails both is placed nowhere, and admission names its
/// shape error, while the rest of the micro-batch routes as before.
#[test]
fn a_job_failing_shape_and_window_reports_the_shape_error() {
    let config = device((1, 1, 4));
    let mut router = FleetRouter::new(&[config], 0.0).unwrap();
    let q_big = ntt_pim::math::prime::find_ntt_prime(512, 35).unwrap();
    let mut both = NttJob::forward(poly(256, q_big, 5), q_big);
    assert!(matches!(
        router.admit(0, &both),
        Err(EngineError::Unsupported { .. })
    ));
    both.coeffs[3] = q_big;
    let err = router.admit(0, &both).unwrap_err();
    assert!(
        matches!(&err, EngineError::Shape { reason } if reason.contains("not reduced")),
        "{err}"
    );
    let good = NttJob::forward(poly(256, MODULI[0], 6), MODULI[0]);
    let routing = router.route(&[both, good.clone(), good]);
    assert_eq!(routing.unroutable, vec![0]);
    let placed: Vec<usize> = routing
        .placements
        .iter()
        .flat_map(|p| p.jobs.iter().copied())
        .collect();
    assert_eq!(placed, vec![1, 2]);
}
