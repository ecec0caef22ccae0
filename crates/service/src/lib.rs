//! `ntt-service` — an in-process, multi-tenant serving layer that turns
//! independent concurrent NTT requests into the dense, topology-filling
//! micro-batches the sharded PIM device was built to exploit.
//!
//! The paper's throughput result (and MeNTT's / BP-NTT's alike) is about
//! *sustained utilization*: a PIM chip wins when every bank is busy, not
//! when one transform finishes early. Up to this crate, every entry
//! point in the workspace was a single synchronous caller handing a
//! pre-formed batch to [`BatchExecutor`](ntt_pim::engine::batch::BatchExecutor);
//! real serving traffic is the
//! opposite — many independent clients, one small request each. This
//! crate closes that gap:
//!
//! * **[`Client`]/[`Ticket`] submission.** Any thread holding a
//!   cloneable [`Client`] submits a [`NttJob`] (forward, inverse, or
//!   negacyclic polymul) tagged with a tenant id and gets back a
//!   [`Ticket`]; [`Ticket::wait`] blocks until the request's response
//!   arrives with the result, per-request latency, and the micro-batch's
//!   merged device report.
//! * **Dynamic micro-batching.** A dispatcher thread collects queued
//!   requests and flushes when the batch reaches `max_batch` (defaulting
//!   to the fleet's total lanes, [`NttService::parallel_lanes`]) *or*
//!   when the oldest queued request has waited `max_wait` — whichever
//!   comes first. Full batches ride the cost-model LPT scheduler across
//!   the whole `channels × ranks × banks` topology.
//! * **Admission control.** The queue is bounded: past `queue_depth`
//!   in-flight requests, submission fails *fast* with
//!   [`ServiceError::Busy`] instead of blocking the caller (shed load,
//!   don't collapse). Optional per-tenant in-flight caps keep one
//!   chatty tenant from starving the rest.
//! * **Shared plan cache.** All golden-model work (response
//!   verification, and any CPU engines the embedder builds from
//!   [`NttService::plan_cache`]) reads twiddle/Shoup tables through one
//!   thread-safe [`PlanCache`], so tables are built once per `(n, q)`
//!   process-wide; hit/miss counters surface in [`ServiceStats`].
//! * **Fleet tier.** The service drives N co-simulated backends, one
//!   per [`BackendSpec`] slot of [`ServiceConfig::with_backends`] — PIM
//!   replicas, CPU lanes, published models, in any mix: a router thread
//!   places each micro-batch on the backend predicted to drain it
//!   cheapest —
//!   per-slot queued backlog plus the batch's makespan under that
//!   slot's own cost model ([`FleetRouter`]) — re-splitting batches
//!   across slots when one would back up past the configurable
//!   imbalance threshold; per-slot worker threads execute their
//!   queues, steal from backed-up peers, fail over (typed errors,
//!   never hangs) when a backend dies, and probe retired backends back
//!   into the fleet once their fault clears. Per-slot health, identity,
//!   and occupancy roll up in [`ServiceStats::devices`].
//!
//! Transport is `std` threads + `mpsc` — in-process by design, matching
//! this offline environment; the dispatcher/admission structure is the
//! same one a network front-end would wrap.
//!
//! ```
//! use ntt_pim::core::config::{PimConfig, Topology};
//! use ntt_pim::engine::batch::NttJob;
//! use ntt_service::{NttService, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = ServiceConfig::new(
//!     PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4)),
//! );
//! let service = NttService::start(config)?;
//! let client = service.client();
//! let q = 12289u64;
//! // Concurrent tenants submit independent requests...
//! let tickets: Vec<_> = (0..4)
//!     .map(|t| {
//!         let job = NttJob::new((0..256).map(|i| (i * 3 + t) % q).collect(), q);
//!         client.submit(format!("tenant-{t}"), job).unwrap()
//!     })
//!     .collect();
//! // ...and each gets its own result back, batched under the hood.
//! for ticket in tickets {
//!     let response = ticket.wait()?;
//!     assert_eq!(response.result.len(), 256);
//!     assert!(response.batch.size >= 1);
//! }
//! let stats = service.shutdown();
//! assert_eq!(stats.completed, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod dispatch;
pub mod fault;
pub mod fleet;
mod stats;

pub use fault::{FailingDevice, FaultSwitch};
pub use fleet::{DeviceHealth, FleetRouter, Placement, RouteDecision, Routing};
pub use ntt_bus::{BackendKind, BackendSpec, PublishedKind};
pub use stats::{percentile, DeviceStats, ServiceStats};

use ntt_bus::{NttBackend, SchedulePolicy};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::QueueReport;
use ntt_pim::engine::batch::NttJob;
use ntt_pim::engine::EngineError;
use ntt_ref::cache::PlanCache;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The bounded queue is full: the service sheds load instead of
    /// blocking the caller. Retry later (or scale the deployment).
    Busy {
        /// The configured in-flight bound that was hit.
        queue_depth: usize,
    },
    /// This tenant already has its maximum requests in flight; other
    /// tenants' capacity is protected.
    TenantBusy {
        /// The tenant that hit its cap.
        tenant: String,
        /// The per-tenant in-flight cap.
        limit: usize,
    },
    /// The request itself is malformed (bad length/modulus/coefficients).
    /// Rejected on its own ticket; the micro-batch it would have joined
    /// is unaffected.
    Invalid {
        /// What was wrong.
        reason: String,
    },
    /// The device failed executing the micro-batch (should not happen
    /// for requests that passed validation).
    Exec {
        /// The underlying engine error.
        reason: String,
    },
    /// Response verification against the golden CPU model failed
    /// (enabled via [`ServiceConfig::with_verify_golden`]).
    VerifyFailed,
    /// The service is shutting down (or already gone).
    Closed,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Busy { queue_depth } => {
                write!(f, "service busy: {queue_depth} requests already in flight")
            }
            ServiceError::TenantBusy { tenant, limit } => {
                write!(f, "tenant {tenant} at its in-flight cap ({limit})")
            }
            ServiceError::Invalid { reason } => write!(f, "invalid request: {reason}"),
            ServiceError::Exec { reason } => write!(f, "execution failed: {reason}"),
            ServiceError::VerifyFailed => write!(f, "golden verification failed"),
            ServiceError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Serving-layer configuration wrapping the device configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated PIM device micro-batches execute on when
    /// `backends` is empty.
    pub pim: PimConfig,
    /// Flush a micro-batch at this many requests. `0` (the default)
    /// means the device's parallel lane count (total banks), so full
    /// batches exactly fill the topology.
    pub max_batch: usize,
    /// Flush a non-full micro-batch once its oldest request has waited
    /// this long — the latency bound traded against batch density.
    pub max_wait: Duration,
    /// Admission bound: total requests in flight (queued + batching)
    /// before submission fails with [`ServiceError::Busy`].
    pub queue_depth: usize,
    /// Per-tenant in-flight cap (`0` = unlimited): fairness floor so one
    /// tenant cannot occupy the whole queue.
    pub tenant_inflight: usize,
    /// Re-compute every response on the golden CPU model (through the
    /// shared plan cache) and fail the ticket on mismatch. Off by
    /// default; smoke tests and paranoid deployments turn it on.
    pub verify_golden: bool,
    /// The plan cache golden verification reads through. `None` (the
    /// default) uses [`PlanCache::global`].
    pub plan_cache: Option<Arc<PlanCache>>,
    /// The fleet: one backend per slot (PIM devices of any topology, CPU
    /// lanes, published models). Empty (the default) means one PIM slot
    /// built from `pim`; set via [`Self::with_backends`]
    /// ([`BackendSpec::parse_list`] accepts the CLI's
    /// `pim:2,cpu-lanes:1,bp-ntt:1` syntax). PIM slots always schedule
    /// with cost-model LPT.
    pub backends: Vec<BackendSpec>,
    /// Whether a retired backend may rejoin the router after passing a
    /// probe job (on by default). Off makes retirement permanent, the
    /// pre-re-admission behavior.
    pub readmission: bool,
    /// Imbalance threshold for batch re-splitting and work stealing:
    /// a device may be picked (or left un-stolen-from) only while its
    /// predicted drain stays within this much of the fleet minimum.
    /// Zero (the default) spreads every multi-job batch across the
    /// fleet and steals at the first sign of backlog.
    pub steal_threshold: Duration,
    /// Fault-injection switches for test mode, `(device index, switch)`
    /// — see [`FaultSwitch`]. Out-of-range indices are ignored.
    pub faults: Vec<(usize, Arc<FaultSwitch>)>,
    /// Whether idle workers steal queued batches from backed-up peers
    /// (on by default). Turning it off makes placement purely
    /// router-driven — deterministic, at the cost of runtime-skew
    /// resilience.
    pub work_stealing: bool,
}

impl ServiceConfig {
    /// Defaults: `max_batch` = fleet lanes, 200 µs `max_wait`, 256-deep
    /// queue, no tenant caps, verification off, one PIM device, zero
    /// steal threshold.
    pub fn new(pim: PimConfig) -> Self {
        Self {
            pim,
            max_batch: 0,
            max_wait: Duration::from_micros(200),
            queue_depth: 256,
            tenant_inflight: 0,
            verify_golden: false,
            plan_cache: None,
            backends: Vec::new(),
            readmission: true,
            steal_threshold: Duration::ZERO,
            faults: Vec::new(),
            work_stealing: true,
        }
    }

    /// Sets the fleet, one backend per slot. An empty vector falls back
    /// to one PIM device built from `pim`.
    #[must_use]
    pub fn with_backends(mut self, backends: Vec<BackendSpec>) -> Self {
        self.backends = backends;
        self
    }

    /// Enables or disables post-retirement probe re-admission.
    #[must_use]
    pub fn with_readmission(mut self, on: bool) -> Self {
        self.readmission = on;
        self
    }

    /// Enables or disables worker-side work stealing.
    #[must_use]
    pub fn with_work_stealing(mut self, on: bool) -> Self {
        self.work_stealing = on;
        self
    }

    /// Sets the imbalance threshold for re-splitting and stealing.
    #[must_use]
    pub fn with_steal_threshold(mut self, threshold: Duration) -> Self {
        self.steal_threshold = threshold;
        self
    }

    /// Attaches a fault-injection switch to one device (test mode).
    #[must_use]
    pub fn with_device_fault(mut self, device: usize, switch: Arc<FaultSwitch>) -> Self {
        self.faults.push((device, switch));
        self
    }

    /// Sets the micro-batch flush size (`0` = device lanes).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the micro-batch deadline.
    #[must_use]
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the admission bound.
    #[must_use]
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the per-tenant in-flight cap (`0` = unlimited).
    #[must_use]
    pub fn with_tenant_inflight(mut self, cap: usize) -> Self {
        self.tenant_inflight = cap;
        self
    }

    /// Enables golden-model verification of every response.
    #[must_use]
    pub fn with_verify_golden(mut self, on: bool) -> Self {
        self.verify_golden = on;
        self
    }

    /// Uses an explicit plan cache instead of the process-global one.
    #[must_use]
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }
}

/// Device-level accounting of the micro-batch one response rode in,
/// shared (`Arc`) by every response of that batch.
#[derive(Debug)]
pub struct BatchSummary {
    /// Requests the batch carried.
    pub size: usize,
    /// The fleet device that executed it.
    pub device: usize,
    /// The executing backend's routing label (`pim`, `cpu-lanes`, …).
    pub backend: String,
    /// The executing backend's family.
    pub kind: BackendKind,
    /// The executing device's parallel lanes — **device-relative** (its
    /// own topology's total banks), never a fleet-wide constant; in a
    /// heterogeneous fleet different responses report different values.
    pub lanes: usize,
    /// Simulated end-to-end batch latency, ns.
    pub latency_ns: f64,
    /// Simulated batch energy, nJ.
    pub energy_nj: f64,
    /// The device topology it fanned across.
    pub topology: Topology,
    /// The merged device queue report (per-bank completion, per-channel
    /// bus slots, per-rank ACTs).
    pub queue: QueueReport,
}

/// One served request's outcome.
#[derive(Debug)]
pub struct Response {
    /// The transformed coefficients (spectrum, time-domain polynomial,
    /// or product — matching the submitted [`NttJob`]'s kind).
    pub result: Vec<u64>,
    /// This request's simulated device latency, ns: its completion minus
    /// its bank-queue predecessor's completion inside the micro-batch.
    pub sim_latency_ns: f64,
    /// Wall-clock time from submission to response (queueing + batching
    /// + host-side simulation).
    pub wall: Duration,
    /// The micro-batch this request rode in.
    pub batch: Arc<BatchSummary>,
}

/// One queued request, en route to the dispatcher.
pub(crate) struct Pending {
    pub(crate) tenant: String,
    pub(crate) job: NttJob,
    pub(crate) submitted: Instant,
    pub(crate) tx: mpsc::SyncSender<Result<Response, ServiceError>>,
}

/// State shared between clients, the dispatcher, and the service handle.
pub(crate) struct Shared {
    pub(crate) closing: AtomicBool,
    /// Requests in flight (admitted, not yet responded).
    pub(crate) depth: AtomicUsize,
    pub(crate) queue_depth: usize,
    pub(crate) tenant_inflight: usize,
    pub(crate) tenants: Mutex<HashMap<String, usize>>,
    pub(crate) stats: Mutex<stats::StatsInner>,
}

impl Shared {
    /// Releases one admitted request's slots (on response or rejection
    /// after admission).
    pub(crate) fn release(&self, tenant: &str) {
        self.depth.fetch_sub(1, Ordering::AcqRel);
        if self.tenant_inflight > 0 {
            let mut tenants = self.tenants.lock().expect("tenant map poisoned");
            if let Some(count) = tenants.get_mut(tenant) {
                *count -= 1;
                if *count == 0 {
                    tenants.remove(tenant);
                }
            }
        }
    }
}

/// A cloneable submission handle. Any number of threads may hold one.
#[derive(Clone)]
pub struct Client {
    tx: mpsc::Sender<Pending>,
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one request for `tenant`, returning a [`Ticket`] that
    /// resolves to the request's [`Response`].
    ///
    /// Submission never blocks on the dispatcher: past the admission
    /// bound it fails immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Busy`] past `queue_depth` in-flight requests,
    /// [`ServiceError::TenantBusy`] past the tenant's cap,
    /// [`ServiceError::Closed`] once shutdown has begun. (Malformed jobs
    /// are admitted and rejected on their ticket, where the full device
    /// configuration is available to explain why.)
    pub fn submit(&self, tenant: impl Into<String>, job: NttJob) -> Result<Ticket, ServiceError> {
        let tenant = tenant.into();
        if self.shared.closing.load(Ordering::Acquire) {
            return Err(ServiceError::Closed);
        }
        // Admission: global depth first...
        let admitted =
            self.shared
                .depth
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |depth| {
                    (depth < self.shared.queue_depth).then_some(depth + 1)
                });
        if admitted.is_err() {
            self.shared
                .stats
                .lock()
                .expect("stats poisoned")
                .rejected_busy += 1;
            return Err(ServiceError::Busy {
                queue_depth: self.shared.queue_depth,
            });
        }
        // ...then the per-tenant fairness cap.
        if self.shared.tenant_inflight > 0 {
            let mut tenants = self.shared.tenants.lock().expect("tenant map poisoned");
            let count = tenants.entry(tenant.clone()).or_insert(0);
            if *count >= self.shared.tenant_inflight {
                drop(tenants);
                self.shared.depth.fetch_sub(1, Ordering::AcqRel);
                self.shared
                    .stats
                    .lock()
                    .expect("stats poisoned")
                    .rejected_tenant += 1;
                return Err(ServiceError::TenantBusy {
                    tenant,
                    limit: self.shared.tenant_inflight,
                });
            }
            *count += 1;
        }
        let (tx, rx) = mpsc::sync_channel(1);
        let pending = Pending {
            tenant: tenant.clone(),
            job,
            submitted: Instant::now(),
            tx,
        };
        // Count the acceptance *before* the send: the dispatcher may
        // serve (and count as completed) a request the instant it lands,
        // and `completed` must never be observable ahead of `accepted`.
        self.shared.stats.lock().expect("stats poisoned").accepted += 1;
        if self.tx.send(pending).is_err() {
            // Dispatcher gone: roll the admission back. (It cannot be
            // gone while our depth slot is held — see the dispatcher's
            // drain loop — but a plain rollback keeps this path safe
            // regardless.)
            self.shared.stats.lock().expect("stats poisoned").accepted -= 1;
            self.shared.release(&tenant);
            return Err(ServiceError::Closed);
        }
        Ok(Ticket { rx })
    }
}

/// The receipt for one submitted request.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServiceError>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The request's rejection/failure, or [`ServiceError::Closed`] if
    /// the service died before responding.
    pub fn wait(self) -> Result<Response, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Closed))
    }

    /// Like [`Self::wait`] with a bound; `None` when the response has
    /// not arrived in time (the ticket stays valid).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, ServiceError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServiceError::Closed)),
        }
    }
}

/// The serving layer: owns the router thread, one worker thread per
/// fleet device, and the devices they drive. See the crate docs for the
/// architecture.
pub struct NttService {
    shared: Arc<Shared>,
    tx: Option<mpsc::Sender<Pending>>,
    router: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    fleet: Arc<dispatch::FleetState>,
    cache: Arc<PlanCache>,
    max_batch: usize,
    lanes: usize,
}

impl NttService {
    /// Validates the configuration, builds the fleet, and starts the
    /// router and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates device configuration errors.
    pub fn start(config: ServiceConfig) -> Result<Self, EngineError> {
        let specs: Vec<BackendSpec> = if config.backends.is_empty() {
            vec![BackendSpec::Pim(config.pim)]
        } else {
            config.backends.clone()
        };
        let cache = config.plan_cache.unwrap_or_else(PlanCache::global);
        let mut backends: Vec<Box<dyn NttBackend>> = Vec::with_capacity(specs.len());
        let mut models = Vec::with_capacity(specs.len());
        for spec in &specs {
            backends.push(
                spec.build(SchedulePolicy::Lpt, Some(&cache))
                    .map_err(EngineError::from)?,
            );
            models.push(spec.cost_model().map_err(EngineError::from)?);
        }
        let lanes = backends.iter().map(|b| b.lanes()).sum();
        let max_batch = if config.max_batch == 0 {
            lanes
        } else {
            config.max_batch
        };
        let router = FleetRouter::with_backends(models, config.steal_threshold.as_nanos() as f64);
        let slots: Vec<(String, BackendKind, Topology, usize)> = backends
            .iter()
            .map(|b| (b.label().to_string(), b.kind(), b.topology(), b.lanes()))
            .collect();
        let shared = Arc::new(Shared {
            closing: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            queue_depth: config.queue_depth.max(1),
            tenant_inflight: config.tenant_inflight,
            tenants: Mutex::new(HashMap::new()),
            stats: Mutex::new(stats::StatsInner::for_backends(slots)),
        });
        let fleet = Arc::new(dispatch::FleetState::new(
            router,
            config.work_stealing,
            config.readmission,
        ));
        let mut faults: Vec<Option<Arc<FaultSwitch>>> = vec![None; specs.len()];
        for (device, switch) in &config.faults {
            if let Some(slot) = faults.get_mut(*device) {
                *slot = Some(switch.clone());
            }
        }
        let (tx, rx) = mpsc::channel();
        let front = dispatch::Router::new(
            rx,
            shared.clone(),
            fleet.clone(),
            max_batch.max(1),
            config.max_wait,
        );
        let router_handle = thread::Builder::new()
            .name("ntt-service-router".into())
            .spawn(move || front.run())
            .expect("spawn router thread");
        let workers = backends
            .into_iter()
            .zip(faults)
            .enumerate()
            .map(|(id, (backend, fault))| {
                let worker = dispatch::Worker::new(
                    id,
                    backend,
                    fault,
                    shared.clone(),
                    fleet.clone(),
                    config.verify_golden.then(|| cache.clone()),
                );
                thread::Builder::new()
                    .name(format!("ntt-service-worker-{id}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(Self {
            shared,
            tx: Some(tx),
            router: Some(router_handle),
            workers,
            fleet,
            cache,
            max_batch,
            lanes,
        })
    }

    /// A new submission handle.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.as_ref().expect("service running").clone(),
            shared: self.shared.clone(),
        }
    }

    /// The effective micro-batch flush size.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The fleet's parallel lane count (total banks summed across every
    /// device).
    pub fn parallel_lanes(&self) -> usize {
        self.lanes
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.fleet.queues.len()
    }

    /// The shared plan cache (hand it to CPU engines that should reuse
    /// the service's tables).
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// A point-in-time stats snapshot.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.shared.stats.lock().expect("stats poisoned");
        inner.snapshot(self.cache.stats())
    }

    /// Graceful shutdown: stops admitting, serves everything already
    /// admitted, joins the router and every worker, and returns the
    /// final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.closing.store(true, Ordering::Release);
        drop(self.tx.take());
        // The router exits only once every admitted request has been
        // responded to (depth == 0), so by the time it joins, the
        // workers' queues are empty and they can be released.
        if let Some(handle) = self.router.take() {
            let _ = handle.join();
        }
        self.fleet.done.store(true, Ordering::Release);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for NttService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_pim::engine::CpuNttEngine;

    const Q: u64 = 12289;

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

    fn quick_config() -> ServiceConfig {
        ServiceConfig::new(ntt_pim::core::config::PimConfig::hbm2e(2).with_banks(4))
            .with_max_wait(Duration::from_millis(2))
    }

    #[test]
    fn serves_concurrent_requests_bit_identically() {
        let service = NttService::start(quick_config()).unwrap();
        let client = service.client();
        let jobs: Vec<NttJob> = (0..8)
            .map(|i| NttJob::new(poly(256, Q, 100 + i), Q))
            .collect();
        let tickets: Vec<Ticket> = jobs
            .iter()
            .map(|j| client.submit("t", j.clone()).unwrap())
            .collect();
        let cpu = CpuNttEngine::golden();
        for (job, ticket) in jobs.iter().zip(tickets) {
            let response = ticket.wait().unwrap();
            let mut expect = job.coeffs.clone();
            cpu.forward(&mut expect, Q).unwrap();
            assert_eq!(response.result, expect);
            assert!(response.sim_latency_ns > 0.0);
            assert!(response.batch.size >= 1);
            assert!(response.batch.queue.job_count() >= response.batch.size);
        }
        let stats = service.shutdown();
        assert_eq!(stats.accepted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.rejected_busy + stats.rejected_tenant, 0);
        assert!(stats.batches >= 1 && stats.batches <= 8);
        assert!(stats.mean_occupancy() >= 1.0);
    }

    #[test]
    fn mixed_kinds_route_back_to_their_tickets() {
        let service = NttService::start(quick_config()).unwrap();
        let client = service.client();
        let a = poly(256, Q, 1);
        let b = poly(256, Q, 2);
        let fwd = client.submit("t", NttJob::forward(a.clone(), Q)).unwrap();
        let inv = client.submit("t", NttJob::inverse(a.clone(), Q)).unwrap();
        let mul = client
            .submit("t", NttJob::negacyclic_polymul(a.clone(), b.clone(), Q))
            .unwrap();
        let cpu = CpuNttEngine::golden();
        let mut expect_fwd = a.clone();
        cpu.forward(&mut expect_fwd, Q).unwrap();
        assert_eq!(fwd.wait().unwrap().result, expect_fwd);
        let mut expect_inv = a.clone();
        cpu.inverse(&mut expect_inv, Q).unwrap();
        assert_eq!(inv.wait().unwrap().result, expect_inv);
        let mut expect_mul = a;
        cpu.negacyclic_polymul(&mut expect_mul, &b, Q).unwrap();
        assert_eq!(mul.wait().unwrap().result, expect_mul);
        service.shutdown();
    }

    #[test]
    fn bounded_queue_rejects_fast_instead_of_blocking() {
        // max_wait far in the future and max_batch above the burst: the
        // dispatcher holds everything, so admission is exactly the
        // depth bound.
        let config = quick_config()
            .with_max_wait(Duration::from_secs(30))
            .with_max_batch(64)
            .with_queue_depth(3);
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let mut tickets = Vec::new();
        for i in 0..3 {
            tickets.push(client.submit("t", NttJob::new(poly(64, Q, i), Q)).unwrap());
        }
        let t0 = Instant::now();
        let err = client
            .submit("t", NttJob::new(poly(64, Q, 9), Q))
            .unwrap_err();
        assert_eq!(err, ServiceError::Busy { queue_depth: 3 });
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "rejection must not block on the 30 s batch window"
        );
        // Shutdown flushes the held batch; every admitted ticket resolves.
        let handle = std::thread::spawn(move || service.shutdown());
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = handle.join().unwrap();
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn tenant_caps_protect_other_tenants() {
        let config = quick_config()
            .with_max_wait(Duration::from_secs(30))
            .with_max_batch(64)
            .with_tenant_inflight(1);
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let first = client
            .submit("alice", NttJob::new(poly(64, Q, 1), Q))
            .unwrap();
        let err = client
            .submit("alice", NttJob::new(poly(64, Q, 2), Q))
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::TenantBusy { ref tenant, limit: 1 } if tenant == "alice")
        );
        // Another tenant still gets in.
        let bob = client
            .submit("bob", NttJob::new(poly(64, Q, 3), Q))
            .unwrap();
        let handle = std::thread::spawn(move || service.shutdown());
        assert!(first.wait().is_ok());
        assert!(bob.wait().is_ok());
        let stats = handle.join().unwrap();
        assert_eq!(stats.rejected_tenant, 1);
        assert_eq!(stats.completed, 2);
        // The cap releases with the response: the tenant can submit again
        // to a fresh service.
        let service = NttService::start(quick_config().with_tenant_inflight(1)).unwrap();
        let client = service.client();
        for i in 0..3 {
            let t = client
                .submit("alice", NttJob::new(poly(64, Q, 10 + i), Q))
                .unwrap();
            assert!(t.wait().is_ok(), "sequential submits stay under the cap");
        }
        service.shutdown();
    }

    #[test]
    fn invalid_requests_fail_their_own_ticket_only() {
        // Both requests land in the same 30 ms window; the malformed one
        // must not poison its batch-mate.
        let config = quick_config().with_max_wait(Duration::from_millis(30));
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let bad = client.submit("t", NttJob::new(vec![1; 64], 65535)).unwrap();
        let good = client.submit("t", NttJob::new(poly(64, Q, 5), Q)).unwrap();
        match bad.wait() {
            Err(ServiceError::Invalid { reason }) => assert!(reason.contains("not prime")),
            other => panic!("expected Invalid, got {other:?}"),
        }
        let response = good.wait().unwrap();
        let cpu = CpuNttEngine::golden();
        let mut expect = poly(64, Q, 5);
        cpu.forward(&mut expect, Q).unwrap();
        assert_eq!(response.result, expect);
        let stats = service.shutdown();
        assert_eq!(stats.rejected_invalid, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn golden_verification_mode_passes_and_counts_cache_hits() {
        let cache = Arc::new(PlanCache::new());
        let config = quick_config()
            .with_verify_golden(true)
            .with_plan_cache(cache.clone());
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                client
                    .submit("t", NttJob::new(poly(256, Q, 40 + i), Q))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.completed, 6);
        // One (n, q) pair: the twiddle/Shoup tables are built exactly
        // once, however many micro-batches the six jobs split into. The
        // batched verifier fetches the plan once per job group (not per
        // job), so the hit count only reflects the batch split.
        assert_eq!(stats.plan_cache.misses, 1);
    }

    #[test]
    fn golden_verification_rides_the_lane_batched_path() {
        let lane = ntt_ref::lanes::LANE_WIDTH;
        // Hold the window open until exactly one full lane group is
        // admitted, so the flush is deterministic: one micro-batch whose
        // golden verify recomputes every job in a single SoA sweep.
        let config = quick_config()
            .with_verify_golden(true)
            .with_max_wait(Duration::from_secs(30))
            .with_max_batch(lane);
        let service = NttService::start(config).unwrap();
        let client = service.client();
        let tickets: Vec<Ticket> = (0..lane as u64)
            .map(|i| {
                client
                    .submit("t", NttJob::new(poly(256, Q, 60 + i), Q))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.verify_failures, 0);
        assert_eq!(stats.completed, lane as u64);
        assert_eq!(stats.verify_lane_jobs, lane as u64);
    }

    #[test]
    fn shutdown_never_drops_an_admitted_ticket() {
        // Hammer submissions from several threads while the owner shuts
        // down concurrently: any submit that returned Ok(Ticket) was
        // admitted and MUST resolve to a served response — never to
        // Closed (the old race let a request land in the channel just
        // after the dispatcher's final empty try_recv and vanish).
        for round in 0..20u64 {
            let service =
                NttService::start(quick_config().with_max_wait(Duration::from_micros(50))).unwrap();
            let served = std::sync::atomic::AtomicU64::new(0);
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let client = service.client();
                    let served = &served;
                    scope.spawn(move || {
                        for i in 0..50u64 {
                            match client.submit(
                                "t",
                                NttJob::new(poly(64, Q, round * 1000 + t * 100 + i), Q),
                            ) {
                                Ok(ticket) => {
                                    let response = ticket
                                        .wait()
                                        .expect("an admitted ticket must be served, not dropped");
                                    assert_eq!(response.result.len(), 64);
                                    served.fetch_add(1, Ordering::Relaxed);
                                }
                                // The only acceptable refusals are the
                                // documented admission outcomes.
                                Err(ServiceError::Busy { .. } | ServiceError::Closed) => {}
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                    });
                }
                // Shut down mid-flight on half the rounds (the other
                // half exercises the full-drain path).
                if round % 2 == 0 {
                    std::thread::sleep(Duration::from_micros(200 * round));
                }
                let stats = service.shutdown();
                assert_eq!(
                    stats.accepted, stats.completed,
                    "round {round}: every admitted request served"
                );
            });
            let served = served.load(Ordering::Relaxed);
            assert!(served <= 200);
        }
    }

    #[test]
    fn submission_after_shutdown_is_closed() {
        let service = NttService::start(quick_config()).unwrap();
        let client = service.client();
        service.shutdown();
        let err = client
            .submit("t", NttJob::new(poly(64, Q, 1), Q))
            .unwrap_err();
        assert_eq!(err, ServiceError::Closed);
    }

    #[test]
    fn heterogeneous_fleet_reports_device_relative_lanes() {
        use ntt_pim::core::config::Topology;
        let big = ntt_pim::core::config::PimConfig::hbm2e(2).with_topology(Topology::new(4, 2, 2));
        let small =
            ntt_pim::core::config::PimConfig::hbm2e(2).with_topology(Topology::new(1, 1, 2));
        let config = ServiceConfig::new(big)
            .with_backends(vec![BackendSpec::Pim(big), BackendSpec::Pim(small)])
            .with_max_wait(Duration::from_millis(2));
        let service = NttService::start(config).unwrap();
        assert_eq!(service.device_count(), 2);
        // Fleet lanes are the sum of *per-device* lane counts (16 + 2),
        // not device_count × a global constant.
        assert_eq!(service.parallel_lanes(), 18);
        let client = service.client();
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| {
                client
                    .submit("t", NttJob::new(poly(256, Q, 500 + i), Q))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let response = ticket.wait().unwrap();
            // Every response names its executing device and reports that
            // device's own lane count — never a fleet-wide constant.
            let expected_lanes = if response.batch.device == 0 { 16 } else { 2 };
            assert_eq!(response.batch.lanes, expected_lanes);
            assert_eq!(response.batch.topology.total_banks(), expected_lanes);
        }
        let stats = service.shutdown();
        assert_eq!(stats.devices.len(), 2);
        assert_eq!(stats.devices[0].lanes, 16);
        assert_eq!(stats.devices[1].lanes, 2);
        assert!(stats.devices.iter().all(|d| d.healthy));
        assert_eq!(
            stats.devices.iter().map(|d| d.jobs).sum::<u64>(),
            stats.batched_jobs
        );
        // Utilization normalizes occupancy by the device's OWN lanes —
        // a 2-lane device with 2-job batches reports 1.0, not 2/16.
        for device in &stats.devices {
            if device.batches > 0 {
                assert!(
                    (device.utilization() - device.occupancy() / device.lanes as f64).abs() < 1e-12
                );
                assert!(device.utilization() > 0.0);
            }
        }
    }

    #[test]
    fn max_batch_defaults_to_device_lanes() {
        use ntt_pim::core::config::Topology;
        let config = ServiceConfig::new(
            ntt_pim::core::config::PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4)),
        );
        let service = NttService::start(config).unwrap();
        assert_eq!(service.parallel_lanes(), 16);
        assert_eq!(service.max_batch(), 16);
        service.shutdown();
    }
}
