//! The serving datapath: one **router** thread turning the request
//! stream into dense micro-batches and placing them across the fleet,
//! plus one **worker** thread per device executing its queue.
//!
//! Lifecycle of one micro-batch:
//!
//! 1. **Open / fill** (router) — block until a first request arrives,
//!    then keep collecting until the batch holds `max_batch` requests
//!    (the fleet's total lane count by default) or the oldest has waited
//!    `max_wait`. Shutdown closes the window early — nothing admitted is
//!    ever dropped.
//! 2. **Route** (router) — hand the batch to [`FleetRouter::route`]:
//!    argmin over per-device predicted drain time, split across devices
//!    when keeping it whole would breach the imbalance threshold. Jobs
//!    no device can serve are rejected here on their own ticket
//!    (malformed ⇒ [`ServiceError::Invalid`]; valid but the fleet has no
//!    healthy device for them ⇒ [`ServiceError::Exec`]).
//! 3. **Execute** (worker) — each backend's worker pops its queue,
//!    runs the group through its [`FailingDevice`]-wrapped
//!    [`NttBackend`] (a PIM device, the CPU's lane-batched kernels, or
//!    a published model — the bus makes them interchangeable),
//!    optionally re-checks results against the golden CPU model in one
//!    lane-batched sweep, and answers each ticket. An idle worker
//!    **steals** from the most backed-up peer once that peer's predicted
//!    backlog exceeds its own by the steal threshold
//!    ([`fleet::pick_steal_victim`]), re-pricing the stolen group on its
//!    own cost model — provided its backend admits every stolen job. A
//!    worker with neither sleeps until the next push onto any queue
//!    (placement or failover re-route) wakes it, or for at most `POLL`.
//! 4. **Fail over** (worker) — a failed execution retires the backend
//!    ([`FleetRouter::mark_unhealthy`]), re-routes the failed group and
//!    everything still queued on it onto healthy peers, and only
//!    reports a typed [`ServiceError::Exec`] when no healthy backend
//!    remains (or the group has already bounced off every backend).
//!    Tickets always resolve — result or error, never a hang.
//! 5. **Re-admission** (worker) — unless disabled, a retired backend's
//!    idle worker periodically claims the router's probe slot
//!    ([`FleetRouter::request_probe`]), runs one probe job through the
//!    same fault-injected path real batches take, and on success
//!    rejoins the placement set with an empty backlog
//!    ([`FleetRouter::readmit`]); a failed probe doubles the backoff
//!    and retires the backend again. The backoff counts idle ticks: each
//!    `POLL` of idleness is one, and a push that wakes the worker is not.

use crate::fault::{FailingDevice, FaultSwitch};
use crate::fleet::{self, FleetRouter};
use crate::stats::StatsInner;
use crate::{BatchSummary, Pending, Response, ServiceError, Shared};
use ntt_bus::{BatchOutcome, NttBackend};
use ntt_pim::engine::batch::{self, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_ref::cache::PlanCache;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The longest an idle router or worker waits before it re-checks its
/// exit conditions: it bounds shutdown latency. A request wakes the
/// router and a queue push wakes idle workers sooner; a worker's idle
/// timeouts are also the ticks its re-admission probe backs off in.
const POLL: Duration = Duration::from_millis(1);

/// One placed group of requests riding to (or between) workers.
pub(crate) struct RoutedBatch {
    /// Tickets, parallel with `jobs`.
    pub(crate) pending: Vec<Pending>,
    /// The validated jobs of the group.
    pub(crate) jobs: Vec<NttJob>,
    /// Predicted makespan charged to the owning device's backlog — the
    /// amount to release via [`FleetRouter::complete`] when done.
    pub(crate) predicted_ns: f64,
    /// Devices this group has already failed on (bounces the group off
    /// at most every device before giving up with a typed error).
    pub(crate) attempts: usize,
}

/// State shared by the router thread and every worker.
pub(crate) struct FleetState {
    pub(crate) router: Mutex<FleetRouter>,
    /// Per-device work queues, fed by the router (and by failover).
    pub(crate) queues: Vec<Mutex<VecDeque<RoutedBatch>>>,
    /// Pushes onto any queue so far. An idle worker sleeps on `pushed`
    /// only while this still reads what it read before it last looked
    /// for work, so no push goes unseen.
    generation: Mutex<u64>,
    /// Signalled by every push.
    pushed: Condvar,
    /// Set by the service owner after the router thread has drained and
    /// joined: workers exit once this is up and their queue is empty.
    pub(crate) done: AtomicBool,
    /// Whether idle workers steal from backed-up peers.
    pub(crate) work_stealing: bool,
    /// Whether retired backends may probe their way back into the
    /// placement set.
    pub(crate) readmission: bool,
}

impl FleetState {
    pub(crate) fn new(router: FleetRouter, work_stealing: bool, readmission: bool) -> Self {
        let devices = router.device_count();
        Self {
            router: Mutex::new(router),
            queues: (0..devices).map(|_| Mutex::new(VecDeque::new())).collect(),
            generation: Mutex::new(0),
            pushed: Condvar::new(),
            done: AtomicBool::new(false),
            work_stealing,
            readmission,
        }
    }

    fn device_count(&self) -> usize {
        self.queues.len()
    }

    /// Batches waiting (not in flight) per device — the steal policy's
    /// second input.
    fn queue_lens(&self) -> Vec<usize> {
        self.queues
            .iter()
            .map(|q| q.lock().expect("queue poisoned").len())
            .collect()
    }

    /// Queues a group on `device` and wakes every idle worker: the
    /// owner, and any peer that may now steal.
    fn push(&self, device: usize, batch: RoutedBatch) {
        self.queues[device]
            .lock()
            .expect("queue poisoned")
            .push_back(batch);
        *self.generation.lock().expect("generation poisoned") += 1;
        self.pushed.notify_all();
    }

    /// The push count, read before looking for work.
    fn generation(&self) -> u64 {
        *self.generation.lock().expect("generation poisoned")
    }

    /// An idle worker's wait: returns `true` as soon as the push count
    /// differs from `seen` (at once if a push came after it was read),
    /// or `false` once `until` passes without one.
    fn idle(&self, seen: u64, until: Instant) -> bool {
        let generation = self.generation.lock().expect("generation poisoned");
        let timeout = until.saturating_duration_since(Instant::now());
        let (generation, _) = self
            .pushed
            .wait_timeout_while(generation, timeout, |g| *g == seen)
            .expect("generation poisoned");
        *generation != seen
    }

    /// Routes tickets (`pending`, parallel with `jobs`) onto the device
    /// queues, each placed group carrying `attempts`. A ticket no healthy
    /// device can take is answered at once: with `failure` as its
    /// [`ServiceError::Exec`] reason when the tickets are re-placed after
    /// their device failed, or as [`Self::classify_unroutable`] decides
    /// for a fresh batch (`failure: None`).
    fn place(
        &self,
        shared: &Shared,
        pending: Vec<Pending>,
        jobs: Vec<NttJob>,
        attempts: usize,
        failure: Option<&str>,
    ) {
        let routing = self.router.lock().expect("router poisoned").route(&jobs);
        let mut pending: Vec<Option<Pending>> = pending.into_iter().map(Some).collect();
        let mut jobs: Vec<Option<NttJob>> = jobs.into_iter().map(Some).collect();
        for &j in &routing.unroutable {
            let job = jobs[j].take().expect("unroutable job routed twice");
            let p = pending[j].take().expect("unroutable ticket routed twice");
            let error = match failure {
                Some(reason) => ServiceError::Exec {
                    reason: reason.to_string(),
                },
                None => self.classify_unroutable(&job),
            };
            if matches!(error, ServiceError::Invalid { .. }) {
                stat(shared, |s| s.rejected_invalid += 1);
            }
            respond(shared, p, Err(error));
        }
        for placement in routing.placements {
            let group_pending: Vec<Pending> = placement
                .jobs
                .iter()
                .map(|&j| pending[j].take().expect("job placed twice"))
                .collect();
            let group_jobs: Vec<NttJob> = placement
                .jobs
                .iter()
                .map(|&j| jobs[j].take().expect("job placed twice"))
                .collect();
            self.push(
                placement.device,
                RoutedBatch {
                    pending: group_pending,
                    jobs: group_jobs,
                    predicted_ns: placement.predicted_ns,
                    attempts,
                },
            );
        }
    }

    /// Why could no healthy backend take this job? Admitted nowhere
    /// (malformed, or outside every capability window) ⇒ `Invalid`
    /// (with the first backend's typed reason); admitted by some
    /// retired backend ⇒ `Exec`.
    fn classify_unroutable(&self, job: &NttJob) -> ServiceError {
        let router = self.router.lock().expect("router poisoned");
        let mut first_reason = None;
        let mut valid_somewhere = false;
        for d in 0..router.device_count() {
            match router.admit(d, job) {
                Ok(()) => valid_somewhere = true,
                Err(e) => {
                    first_reason.get_or_insert_with(|| e.to_string());
                }
            }
        }
        if valid_somewhere {
            ServiceError::Exec {
                reason: "no healthy device can serve this request".into(),
            }
        } else {
            ServiceError::Invalid {
                reason: first_reason.unwrap_or_else(|| "fleet has no devices".into()),
            }
        }
    }
}

/// Answers one ticket and releases its admission slots. The release
/// happens *before* the send: a caller woken by its response must be
/// able to resubmit immediately without racing its own slot. A dropped
/// ticket (caller gave up) still releases — the send result is
/// irrelevant.
fn respond(shared: &Shared, pending: Pending, result: Result<Response, ServiceError>) {
    shared.release(&pending.tenant);
    let _ = pending.tx.send(result);
}

fn stat(shared: &Shared, update: impl FnOnce(&mut StatsInner)) {
    update(&mut shared.stats.lock().expect("stats poisoned"));
}

/// The front-end thread: collects micro-batches and places them.
pub(crate) struct Router {
    rx: mpsc::Receiver<Pending>,
    shared: Arc<Shared>,
    fleet: Arc<FleetState>,
    max_batch: usize,
    max_wait: Duration,
}

impl Router {
    pub(crate) fn new(
        rx: mpsc::Receiver<Pending>,
        shared: Arc<Shared>,
        fleet: Arc<FleetState>,
        max_batch: usize,
        max_wait: Duration,
    ) -> Self {
        Self {
            rx,
            shared,
            fleet,
            max_batch,
            max_wait,
        }
    }

    pub(crate) fn run(mut self) {
        while let Some(batch) = self.collect() {
            self.place(batch);
        }
    }

    /// Collects the next micro-batch: `None` only when shutting down
    /// with nothing left to serve.
    fn collect(&mut self) -> Option<Vec<Pending>> {
        // Phase 1: wait for the batch opener.
        let opener = loop {
            if self.shared.closing.load(Ordering::Acquire) {
                // Serve the backlog to the last request. An empty channel
                // is not enough to exit: a submitter that passed the
                // closing check may still be between its admission
                // (depth increment) and its channel send — exiting then
                // would drop an admitted request. Only a fully released
                // depth proves nothing is in flight; otherwise fall
                // through to the timed recv to pick the straggler up.
                match self.rx.try_recv() {
                    Ok(pending) => break pending,
                    Err(mpsc::TryRecvError::Disconnected) => return None,
                    Err(mpsc::TryRecvError::Empty) => {
                        if self.shared.depth.load(Ordering::Acquire) == 0 {
                            return None;
                        }
                    }
                }
            }
            match self.rx.recv_timeout(POLL) {
                Ok(pending) => break pending,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return None,
            }
        };
        // Phase 2: fill until full, deadline, or shutdown.
        let deadline = Instant::now() + self.max_wait;
        let mut batch = vec![opener];
        while batch.len() < self.max_batch {
            if self.shared.closing.load(Ordering::Acquire) {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.rx.recv_timeout((deadline - now).min(POLL)) {
                Ok(pending) => batch.push(pending),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        Some(batch)
    }

    /// Routes one micro-batch onto the fleet's queues, rejecting jobs no
    /// device can serve on their own ticket.
    fn place(&self, batch: Vec<Pending>) {
        let mut pending = Vec::with_capacity(batch.len());
        let mut jobs = Vec::with_capacity(batch.len());
        for mut p in batch {
            jobs.push(std::mem::replace(&mut p.job, NttJob::new(Vec::new(), 0)));
            pending.push(p);
        }
        self.fleet.place(&self.shared, pending, jobs, 0, None);
    }
}

/// One backend's executing thread.
pub(crate) struct Worker {
    pub(crate) id: usize,
    pub(crate) device: FailingDevice,
    pub(crate) shared: Arc<Shared>,
    pub(crate) fleet: Arc<FleetState>,
    /// Golden verification engine, reading plans through the shared
    /// cache (present when the service was configured to verify).
    pub(crate) verify: Option<CpuNttEngine>,
    /// Local mirror of this backend's health — only its own worker ever
    /// retires or re-admits it.
    healthy: bool,
    /// Idle ticks to wait before the next re-admission probe (doubling
    /// backoff, capped).
    probe_backoff: u32,
    /// Countdown (in idle ticks) until the next probe attempt.
    probe_wait: u32,
}

impl Worker {
    pub(crate) fn new(
        id: usize,
        backend: Box<dyn NttBackend>,
        fault: Option<Arc<FaultSwitch>>,
        shared: Arc<Shared>,
        fleet: Arc<FleetState>,
        verify_cache: Option<Arc<PlanCache>>,
    ) -> Self {
        Self {
            id,
            device: FailingDevice::new(backend, fault),
            shared,
            fleet,
            verify: verify_cache.map(CpuNttEngine::with_cache),
            healthy: true,
            probe_backoff: 1,
            probe_wait: 0,
        }
    }

    pub(crate) fn run(mut self) {
        // An idle tick is a `POLL` of idleness with no push in it; pushes
        // wake the worker in between without resetting the tick's clock.
        let mut tick = Instant::now() + POLL;
        loop {
            let seen = self.fleet.generation();
            match self.pop_own().or_else(|| self.steal()) {
                Some(batch) => self.process(batch),
                None if self.fleet.done.load(Ordering::Acquire) => break,
                None => {
                    if !self.fleet.idle(seen, tick) {
                        tick = Instant::now() + POLL;
                        if !self.healthy && self.fleet.readmission {
                            self.try_probe();
                        }
                    }
                }
            }
        }
    }

    /// One re-admission attempt: claim the router's probe slot, run the
    /// backend's probe job through the same fault-injected path real
    /// batches take, and rejoin on success. Probes back off
    /// exponentially (in idle ticks) while the fault persists.
    fn try_probe(&mut self) {
        if self.probe_wait > 0 {
            self.probe_wait -= 1;
            return;
        }
        if !self
            .fleet
            .router
            .lock()
            .expect("router poisoned")
            .request_probe(self.id)
        {
            return;
        }
        let probe = self.device.probe_job();
        let passed = match self.device.run(std::slice::from_ref(&probe)) {
            Ok(outcome) => match &self.verify {
                Some(golden) => outcome
                    .spectra
                    .first()
                    .is_some_and(|got| verify_one(golden, &probe, got)),
                None => true,
            },
            Err(_) => false,
        };
        let id = self.id;
        if passed {
            self.fleet
                .router
                .lock()
                .expect("router poisoned")
                .readmit(id);
            self.healthy = true;
            self.probe_backoff = 1;
            self.probe_wait = 0;
            stat(&self.shared, |s| {
                s.readmissions += 1;
                s.devices[id].healthy = true;
                s.devices[id].readmissions += 1;
            });
        } else {
            self.fleet
                .router
                .lock()
                .expect("router poisoned")
                .fail_probe(id);
            self.probe_backoff = (self.probe_backoff * 2).min(1 << 10);
            self.probe_wait = self.probe_backoff;
        }
    }

    fn pop_own(&self) -> Option<RoutedBatch> {
        self.fleet.queues[self.id]
            .lock()
            .expect("queue poisoned")
            .pop_front()
    }

    /// Work stealing: an idle worker relieves the most backed-up peer
    /// once that peer's predicted backlog exceeds its own by more than
    /// the steal threshold, taking the *youngest* queued group (the
    /// victim keeps its oldest work — better latency fairness) and
    /// re-pricing it on its own topology. A group this backend does not
    /// admit in full stays where it is: it never leaves the victim's
    /// queue, so no push is needed to put it back, and no two idle
    /// workers that both refuse it wake each other handing it back.
    fn steal(&mut self) -> Option<RoutedBatch> {
        if !self.healthy || !self.fleet.work_stealing {
            return None;
        }
        let (queued, threshold) = {
            let router = self.fleet.router.lock().expect("router poisoned");
            (router.queued_ns().to_vec(), router.steal_threshold_ns())
        };
        let lens = self.fleet.queue_lens();
        let victim = fleet::pick_steal_victim(&queued, &lens, self.id, threshold)?;
        let mut batch = {
            let mut queue = self.fleet.queues[victim].lock().expect("queue poisoned");
            let youngest = queue.back()?;
            if youngest.jobs.iter().any(|j| self.device.admit(j).is_err()) {
                // This backend cannot take the group (capacity or window).
                return None;
            }
            queue.pop_back()?
        };
        batch.predicted_ns = self.fleet.router.lock().expect("router poisoned").reassign(
            victim,
            self.id,
            batch.predicted_ns,
            &batch.jobs,
        );
        let id = self.id;
        stat(&self.shared, |s| s.devices[id].steals += 1);
        Some(batch)
    }

    fn process(&mut self, batch: RoutedBatch) {
        if !self.healthy {
            // Retired device with leftovers in its queue: drain them onto
            // the healthy fleet (accounting already released at retire
            // time for pre-retirement batches; a freshly routed batch
            // cannot land here because the router skips unhealthy
            // devices).
            self.reroute(batch, "device retired");
            return;
        }
        match self.device.run(&batch.jobs) {
            Ok(outcome) => self.respond_batch(batch, outcome),
            Err(e) => self.retire(batch, &e.to_string()),
        }
    }

    /// A failed execution: retire this device, release its accounting,
    /// and push the failed group plus everything still queued here back
    /// through the router.
    fn retire(&mut self, batch: RoutedBatch, reason: &str) {
        self.healthy = false;
        let id = self.id;
        stat(&self.shared, |s| {
            s.exec_failures += 1;
            s.devices[id].exec_failures += 1;
            s.devices[id].healthy = false;
        });
        let leftovers: Vec<RoutedBatch> = {
            let mut queue = self.fleet.queues[self.id].lock().expect("queue poisoned");
            queue.drain(..).collect()
        };
        {
            let mut router = self.fleet.router.lock().expect("router poisoned");
            router.mark_unhealthy(self.id);
            router.complete(self.id, batch.predicted_ns);
            for b in &leftovers {
                router.complete(self.id, b.predicted_ns);
            }
        }
        self.reroute(batch, reason);
        for b in leftovers {
            self.reroute(b, reason);
        }
    }

    /// Re-places a group whose device went away. The group's queued-ns
    /// accounting must already be released. Gives up with a typed error
    /// once the group has failed on as many devices as the fleet has —
    /// a ticket resolves, it never orbits.
    fn reroute(&self, batch: RoutedBatch, reason: &str) {
        let attempts = batch.attempts + 1;
        if attempts >= self.fleet.device_count() {
            for (pending, _) in batch.pending.into_iter().zip(batch.jobs) {
                respond(
                    &self.shared,
                    pending,
                    Err(ServiceError::Exec {
                        reason: reason.to_string(),
                    }),
                );
            }
            return;
        }
        self.fleet.place(
            &self.shared,
            batch.pending,
            batch.jobs,
            attempts,
            Some(reason),
        );
    }

    /// Verifies (optionally) and answers every ticket of one executed
    /// group, then releases the group's backlog accounting.
    fn respond_batch(&mut self, batch: RoutedBatch, mut outcome: BatchOutcome) {
        let RoutedBatch {
            pending,
            jobs,
            predicted_ns,
            ..
        } = batch;
        // Golden verify recomputes the whole group in one sweep through
        // the lane-batched CPU kernel (same-(kind, n, q) jobs share each
        // twiddle load), falling back to job-by-job scalar verification
        // if the batched path rejects the batch.
        let mut verify_lane_jobs = 0u64;
        let verified: Vec<bool> = match &self.verify {
            Some(golden) => match batch::run_lane_batched(golden, &jobs) {
                Ok((expected, lane_jobs)) => {
                    verify_lane_jobs = lane_jobs as u64;
                    expected
                        .iter()
                        .zip(&outcome.spectra)
                        .map(|(want, got)| want == got)
                        .collect()
                }
                Err(_) => jobs
                    .iter()
                    .zip(&outcome.spectra)
                    .map(|(job, got)| verify_one(golden, job, got))
                    .collect(),
            },
            None => vec![true; jobs.len()],
        };
        let size = pending.len();
        let id = self.id;
        stat(&self.shared, |s| {
            s.batches += 1;
            s.batched_jobs += size as u64;
            s.max_batch_seen = s.max_batch_seen.max(size as u64);
            s.sim_busy_ns += outcome.latency_ns;
            s.energy_nj += outcome.energy_nj;
            s.bus_slots += outcome.bus_slots;
            s.rank_acts += outcome.queue_report.rank_acts;
            s.verify_failures += verified.iter().filter(|&&ok| !ok).count() as u64;
            s.verify_lane_jobs += verify_lane_jobs;
            s.completed += verified.iter().filter(|&&ok| ok).count() as u64;
            s.devices[id].batches += 1;
            s.devices[id].jobs += size as u64;
            s.devices[id].sim_busy_ns += outcome.latency_ns;
        });
        let summary = Arc::new(BatchSummary {
            size,
            device: self.id,
            backend: self.device.label().to_string(),
            kind: self.device.kind(),
            lanes: self.device.lanes(),
            latency_ns: outcome.latency_ns,
            energy_nj: outcome.energy_nj,
            topology: self.device.topology(),
            queue: outcome.queue_report.clone(),
        });
        for (i, p) in pending.into_iter().enumerate() {
            let result = if verified[i] {
                Ok(Response {
                    result: std::mem::take(&mut outcome.spectra[i]),
                    sim_latency_ns: outcome.job_latency_ns[i],
                    wall: p.submitted.elapsed(),
                    batch: summary.clone(),
                })
            } else {
                Err(ServiceError::VerifyFailed)
            };
            respond(&self.shared, p, result);
        }
        self.fleet
            .router
            .lock()
            .expect("router poisoned")
            .complete(self.id, predicted_ns);
    }
}

/// Recomputes one job (a batch of one) on the golden CPU model and
/// compares. A split large transform is checked against the whole
/// forward NTT — that is the device path's correctness contract.
fn verify_one(golden: &CpuNttEngine, job: &NttJob, got: &[u64]) -> bool {
    batch::run_lane_batched(golden, std::slice::from_ref(job))
        .is_ok_and(|(expected, _)| expected[0] == got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetRouter;
    use ntt_pim::core::config::{PimConfig, Topology};

    const Q: u64 = 12289;

    fn poly(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) % Q
            })
            .collect()
    }

    fn shared(devices: &[Topology]) -> Arc<Shared> {
        Arc::new(Shared {
            closing: AtomicBool::new(false),
            depth: std::sync::atomic::AtomicUsize::new(0),
            queue_depth: 64,
            tenant_inflight: 0,
            tenants: Mutex::new(std::collections::HashMap::new()),
            stats: Mutex::new(StatsInner::for_devices(devices)),
        })
    }

    /// A deterministic end-to-end steal: device 0's worker never runs
    /// (a wedged device, the worst-case stall), its queue holds a
    /// routed batch with a large predicted backlog, and device 1's idle
    /// worker must take the work, re-price it, execute it, and resolve
    /// the ticket.
    #[test]
    fn idle_worker_steals_from_a_wedged_peer() {
        let topo = Topology::new(1, 1, 4);
        let configs = vec![
            PimConfig::hbm2e(2).with_topology(topo),
            PimConfig::hbm2e(2).with_topology(topo),
        ];
        let mut router = FleetRouter::new(&configs, 0.0).unwrap();
        let jobs = vec![NttJob::new(poly(256, 7), Q)];
        // Place the batch explicitly on device 0 (mimic the router having
        // chosen it just before the device wedged).
        let predicted = router.batch_cost_ns(0, &jobs);
        let routing = router.route(&jobs);
        assert_eq!(routing.placements.len(), 1);
        let placed = &routing.placements[0];
        let shared = shared(&[topo, topo]);
        let fleet = Arc::new(FleetState::new(router, true, true));
        // Move the placement onto device 0's queue wherever the router
        // put it, adjusting the accounting to match.
        if placed.device != 0 {
            let mut r = fleet.router.lock().unwrap();
            r.complete(placed.device, placed.predicted_ns);
            r.reassign(0, 0, 0.0, &jobs); // charge device 0 instead
        }
        let (tx, rx) = mpsc::sync_channel(1);
        fleet.push(
            0,
            RoutedBatch {
                pending: vec![Pending {
                    tenant: "t".into(),
                    job: NttJob::new(Vec::new(), 0),
                    submitted: Instant::now(),
                    tx,
                }],
                jobs: jobs.clone(),
                predicted_ns: predicted,
                attempts: 0,
            },
        );
        shared.depth.store(1, Ordering::Release);
        let backend = Box::new(ntt_bus::PimBackend::new(configs[1]).unwrap());
        let mut thief = Worker::new(1, backend, None, shared.clone(), fleet.clone(), None);
        let stolen = thief.steal().expect("backlogged peer must be stolen from");
        assert_eq!(stolen.jobs.len(), 1);
        thief.process(stolen);
        let response = rx.recv().unwrap().expect("stolen work still resolves");
        assert_eq!(response.batch.device, 1, "executed by the thief");
        let stats = shared.stats.lock().unwrap();
        assert_eq!(stats.devices[1].steals, 1);
        assert_eq!(stats.devices[1].jobs, 1);
        assert_eq!(stats.devices[0].jobs, 0);
        // Both sides of the accounting returned to zero.
        let router = fleet.router.lock().unwrap();
        assert!(router.queued_ns().iter().all(|&q| q == 0.0));
    }

    /// A push between a worker's read of the push count and its wait
    /// ends the wait at once; with no push, the wait ends at its
    /// deadline and says so.
    #[test]
    fn a_push_after_the_read_ends_the_idle_wait_at_once() {
        let topo = Topology::new(1, 1, 4);
        let router = FleetRouter::new(&[PimConfig::hbm2e(2).with_topology(topo)], 0.0).unwrap();
        let fleet = FleetState::new(router, true, true);
        let seen = fleet.generation();
        assert!(!fleet.idle(seen, Instant::now() + Duration::from_millis(2)));
        let (tx, _rx) = mpsc::sync_channel(1);
        fleet.push(
            0,
            RoutedBatch {
                pending: vec![Pending {
                    tenant: "t".into(),
                    job: NttJob::new(Vec::new(), 0),
                    submitted: Instant::now(),
                    tx,
                }],
                jobs: vec![NttJob::new(poly(256, 3), Q)],
                predicted_ns: 0.0,
                attempts: 0,
            },
        );
        // A day's deadline: only the push can end this wait.
        assert!(fleet.idle(seen, Instant::now() + Duration::from_secs(86_400)));
        assert!(
            fleet.idle(seen, Instant::now()),
            "a moved count never waits"
        );
    }

    /// A worker below the steal threshold leaves the victim alone.
    #[test]
    fn steal_respects_the_threshold() {
        assert_eq!(
            fleet::pick_steal_victim(&[100.0, 0.0], &[1, 0], 1, 200.0),
            None
        );
        assert_eq!(
            fleet::pick_steal_victim(&[100.0, 0.0], &[1, 0], 1, 50.0),
            Some(0)
        );
        // No queued entries ⇒ nothing to steal however imbalanced.
        assert_eq!(
            fleet::pick_steal_victim(&[9999.0, 0.0], &[0, 0], 1, 0.0),
            None
        );
        // The busiest victim wins.
        assert_eq!(
            fleet::pick_steal_victim(&[50.0, 80.0, 0.0], &[1, 1, 0], 2, 0.0),
            Some(1)
        );
    }
}
