//! Concurrency properties of the serving layer: under random
//! interleavings of tenants, transform sizes, moduli, and job kinds —
//! with malformed requests mixed in — no request is lost, duplicated, or
//! cross-wired; every result is bit-identical to a direct golden
//! [`CpuNttEngine`] call on the same input; and the bounded queue
//! rejects instead of blocking past capacity.

use ntt_pim::core::config::PimConfig;
use ntt_pim::engine::batch::NttJob;
use ntt_pim::engine::CpuNttEngine;
use ntt_service::{NttService, ServiceConfig, ServiceError};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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

/// NTT-friendly moduli for every length this test draws (all have
/// `2N | q-1` up to N=256).
const MODULI: [u64; 3] = [12289, 7681, 8_380_417];

/// One randomly drawn request: `(n, kind, modulus index, seed, tenant)`.
type Spec = (usize, u64, u64, u64, u8);

/// Per-request outcome slots, keyed by request id.
type Outcomes = Mutex<Vec<Option<Result<Vec<u64>, ServiceError>>>>;

fn job_for(spec: &Spec, id: usize) -> NttJob {
    let &(n, kind, qsel, seed, _) = spec;
    let q = MODULI[qsel as usize % MODULI.len()];
    // Mix the request id into the seed so every request's input is
    // distinct — a cross-wired response cannot masquerade as correct.
    let seed = seed ^ ((id as u64) << 40) ^ 0x5bd1e995;
    match kind % 4 {
        0 => NttJob::forward(poly(n, q, seed), q),
        1 => NttJob::inverse(poly(n, q, seed), q),
        2 => NttJob::negacyclic_polymul(poly(n, q, seed), poly(n, q, seed ^ 0xff), q),
        // A deliberately malformed request (composite modulus): must be
        // rejected on its own ticket without touching its batch-mates.
        _ => NttJob::forward(vec![1; n], 65535),
    }
}

fn is_valid(spec: &Spec) -> bool {
    spec.1 % 4 != 3
}

fn expected(job: &NttJob) -> Vec<u64> {
    let cpu = CpuNttEngine::golden();
    let mut data = job.coeffs.clone();
    match &job.kind {
        // A split large transform answers with the whole forward NTT.
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
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_interleavings_lose_nothing_and_cross_wire_nothing(
        specs in prop::collection::vec(
            (
                prop::sample::select(vec![64usize, 128, 256]),
                0u64..8, // kind selector, `% 4` in job_for: {3, 7} draw the invalid kind (p = 1/4)
                0u64..3,
                1u64..1_000_000,
                0u8..4,
            ),
            6..24,
        ),
        max_wait_us in prop::sample::select(vec![200u64, 1000, 5000]),
        banks in prop::sample::select(vec![2u32, 4]),
    ) {
        let config = ServiceConfig::new(PimConfig::hbm2e(2).with_banks(banks))
            .with_max_wait(Duration::from_micros(max_wait_us))
            .with_tenant_inflight(0);
        let service = NttService::start(config).unwrap();
        let jobs: Vec<NttJob> = specs.iter().enumerate().map(|(i, s)| job_for(s, i)).collect();

        // One thread per request, every tenant interleaving left to the
        // OS scheduler; results land keyed by request id.
        let results: Outcomes = Mutex::new(vec![None; jobs.len()]);
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
            let outcome = results[i].as_ref().expect("request neither served nor rejected");
            if is_valid(spec) {
                let got = outcome.as_ref().unwrap_or_else(|e| {
                    panic!("valid request {i} failed: {e}")
                });
                prop_assert_eq!(
                    got, &expected(job),
                    "request {} not bit-identical to the direct engine call", i
                );
            } else {
                prop_assert!(
                    matches!(outcome, Err(ServiceError::Invalid { .. })),
                    "malformed request {} must fail Invalid on its own ticket: {:?}",
                    i, outcome
                );
            }
        }

        let stats = service.shutdown();
        let valid = specs.iter().filter(|s| is_valid(s)).count() as u64;
        prop_assert_eq!(stats.accepted, specs.len() as u64, "nothing lost at admission");
        prop_assert_eq!(stats.completed, valid, "every valid request served exactly once");
        prop_assert_eq!(stats.rejected_invalid, specs.len() as u64 - valid);
        prop_assert_eq!(stats.batched_jobs, valid, "no duplication through re-batching");
        prop_assert_eq!(stats.rejected_busy, 0);
        prop_assert!(stats.batches >= 1 && stats.batches <= specs.len() as u64);
    }

    #[test]
    fn bounded_queue_rejects_rather_than_blocks(
        queue_depth in prop::sample::select(vec![1usize, 2, 4]),
        overflow in prop::sample::select(vec![1usize, 3]),
        seed in 1u64..1_000_000,
    ) {
        // The dispatcher cannot flush: the window is 30 s and the batch
        // bound exceeds the burst. Admission alone decides.
        let config = ServiceConfig::new(PimConfig::hbm2e(2).with_banks(2))
            .with_max_wait(Duration::from_secs(30))
            .with_max_batch(64)
            .with_queue_depth(queue_depth);
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let mut tickets = Vec::new();
        let t0 = Instant::now();
        for i in 0..queue_depth + overflow {
            match client.submit("t", NttJob::new(poly(64, 12289, seed + i as u64), 12289)) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => prop_assert_eq!(e, ServiceError::Busy { queue_depth }),
            }
        }
        prop_assert!(
            t0.elapsed() < Duration::from_secs(10),
            "submission must never block on the batch window"
        );
        prop_assert_eq!(tickets.len(), queue_depth, "exactly the bound admitted");
        // Shutdown flushes the held batch; every admitted ticket resolves.
        let handle = std::thread::spawn(move || service.shutdown());
        for ticket in tickets {
            prop_assert!(ticket.wait().is_ok());
        }
        let stats = handle.join().unwrap();
        prop_assert_eq!(stats.rejected_busy, overflow as u64);
        prop_assert_eq!(stats.completed, queue_depth as u64);
    }
}
