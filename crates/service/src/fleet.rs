//! The fleet router: placement of micro-batches across N co-simulated
//! backends by a per-backend extension of the LPT cost model.
//!
//! One [`BatchExecutor`](ntt_pim::engine::batch::BatchExecutor) packs a
//! batch across the banks of *one* PIM device; the fleet tier packs
//! batches across *backends* the same way, one level up — and since the
//! backend bus ([`ntt_bus`]) generalized the fleet from "N identical
//! PIM devices" to "N backends of mixed kinds", those backends may be
//! PIM devices, the host CPU's lane-batched kernels, or published
//! accelerator models. For every healthy backend the router predicts a
//! **drain time** — the simulated nanoseconds until that backend would
//! finish everything already queued on it plus the candidate batch,
//! where the batch's cost is that backend's own model
//! ([`BusCostModel::batch_makespan_ns`]): hierarchical-LPT makespan for
//! PIM, lane-wave timing for the CPU, serial published points for the
//! comparators. Placement is always argmin over predicted drain, so
//! mixed fleets balance naturally: a pile of length-256 jobs quotes
//! cheaper on the CPU's cache-resident lanes than on the PIM bus and
//! routes there; a split 16K transform quotes cheapest on PIM's bank
//! fan-out and stays there.
//!
//! **Capability windows.** Backends are not interchangeable for every
//! job: a published model caps `N` and pins the modulus, the PIM
//! datapath is 32-bit. A job's candidate set is the healthy backends
//! that [`BusCostModel::admit`] it; jobs no healthy backend admits come
//! back as [`Routing::unroutable`], with typed errors owned by the
//! caller.
//!
//! **Re-splitting.** Sending a whole micro-batch to the single cheapest
//! backend maximizes batch density but leaves the rest of the fleet
//! idle. The router splits a batch job-by-job (greedy argmin over
//! per-backend normalized cost, largest jobs first — LPT again)
//! whenever keeping it whole would leave the chosen backend's drain
//! more than the configured *steal threshold* above the least-loaded
//! backend's. Threshold 0 (the default) spreads every multi-job batch
//! across the fleet; a large threshold keeps batches whole until the
//! fleet genuinely backs up.
//!
//! **Invariant** (pinned by `tests/fleet_routing.rs`): the router never
//! places work on a backend whose predicted drain exceeds the minimum
//! predicted drain among its alternatives by more than the steal
//! threshold. Every placement records a [`RouteDecision`] carrying both
//! sides of that comparison when the decision log is enabled.
//!
//! **Health.** A backend that fails an execution is *retired* —
//! removed from the placement set — but retirement is no longer
//! necessarily permanent: [`DeviceHealth`] is a three-state machine
//! (`Healthy → Retired → Probing → Healthy`). A worker that wants its
//! backend back calls [`FleetRouter::request_probe`], runs one probe
//! job *outside* the placement set, and reports
//! [`FleetRouter::readmit`] (backlog reset to zero — it was drained
//! onto the fleet at retirement) or [`FleetRouter::fail_probe`]
//! (back to `Retired`). Probing backends receive no routed work.
//!
//! Accounting is in **simulated** nanoseconds: `queued_ns` rises when
//! work is placed and falls when the owning worker reports completion
//! ([`FleetRouter::complete`]) or a batch is stolen away
//! ([`FleetRouter::reassign`]). A wall-clock-stalled backend therefore
//! keeps its elevated drain prediction until it actually finishes,
//! steering new traffic — and work stealing — around it.

use ntt_bus::{BackendKind, BusCostModel, CapabilityWindow, EngineError, NttJob};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::{DeviceCostModel, ShapeCheck};

/// One group of jobs placed on one backend by [`FleetRouter::route`].
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The backend the group runs on.
    pub device: usize,
    /// Indices into the routed batch, in scheduling order (largest
    /// first when the batch was split).
    pub jobs: Vec<usize>,
    /// Predicted makespan of the group on this backend, ns — the amount
    /// [`FleetRouter::complete`] must return when the group finishes.
    pub predicted_ns: f64,
}

/// The outcome of routing one micro-batch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Routing {
    /// Per-backend job groups (at most one per backend).
    pub placements: Vec<Placement>,
    /// Jobs no healthy backend admits (outside every capability window,
    /// or the fleet has no healthy backends left). The caller owns the
    /// error story for these.
    pub unroutable: Vec<usize>,
}

/// One recorded placement decision: the chosen backend's predicted
/// drain against the best alternative's, the pair the routing invariant
/// is stated over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// The backend picked.
    pub device: usize,
    /// Predicted drain of the picked backend after receiving the work.
    pub drain_ns: f64,
    /// Minimum predicted drain over every candidate backend for the
    /// same work (the picked backend included).
    pub min_drain_ns: f64,
    /// Jobs the decision placed (1 for a split's per-job decisions, the
    /// whole batch otherwise).
    pub jobs: usize,
}

/// Where one backend sits in the retire/re-admit state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceHealth {
    /// In the placement set.
    Healthy,
    /// Out of the placement set after a failed execution; eligible for
    /// a probe.
    Retired,
    /// A worker holds the (single) probe slot and is running the probe
    /// job; still out of the placement set.
    Probing,
}

/// Load-balancing router over a fleet of co-simulated backends. See the
/// module docs for the cost model, capability windows, and invariant.
#[derive(Debug)]
pub struct FleetRouter {
    models: Vec<BusCostModel>,
    /// Predicted simulated backlog per backend: placed, not completed.
    queued_ns: Vec<f64>,
    health: Vec<DeviceHealth>,
    steal_threshold_ns: f64,
    record: bool,
    decisions: Vec<RouteDecision>,
}

impl FleetRouter {
    /// Builds a homogeneous-PIM router, one cost model per device
    /// configuration (the historical constructor; mixed fleets use
    /// [`Self::with_backends`]).
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors (naming no device;
    /// the caller knows which configs it passed).
    pub fn new(configs: &[PimConfig], steal_threshold_ns: f64) -> Result<Self, PimError> {
        let models = configs
            .iter()
            .map(|c| Ok(BusCostModel::Pim(DeviceCostModel::new(*c)?)))
            .collect::<Result<Vec<_>, PimError>>()?;
        Ok(Self::with_backends(models, steal_threshold_ns))
    }

    /// Builds a router over an arbitrary mixed fleet, one
    /// [`BusCostModel`] per backend slot.
    pub fn with_backends(models: Vec<BusCostModel>, steal_threshold_ns: f64) -> Self {
        Self {
            queued_ns: vec![0.0; models.len()],
            health: vec![DeviceHealth::Healthy; models.len()],
            models,
            steal_threshold_ns: steal_threshold_ns.max(0.0),
            record: false,
            decisions: Vec::new(),
        }
    }

    /// Enables the decision log ([`Self::take_decisions`]) — for tests;
    /// the log grows by one entry per placement decision until drained.
    #[must_use]
    pub fn with_decision_log(mut self) -> Self {
        self.record = true;
        self
    }

    /// Number of backends (healthy or not).
    pub fn device_count(&self) -> usize {
        self.models.len()
    }

    /// Parallel lanes of one backend (total banks for PIM, SIMD width
    /// for the CPU, 1 for published models).
    pub fn lanes(&self, device: usize) -> usize {
        self.models[device].lanes()
    }

    /// One backend's (possibly synthetic `1×1×lanes`) topology.
    pub fn topology(&self, device: usize) -> Topology {
        self.models[device].topology()
    }

    /// One backend's routing label.
    pub fn label(&self, device: usize) -> &'static str {
        self.models[device].label()
    }

    /// One backend's family.
    pub fn kind(&self, device: usize) -> BackendKind {
        self.models[device].kind()
    }

    /// One backend's capability window.
    pub fn window(&self, device: usize) -> CapabilityWindow {
        self.models[device].window()
    }

    /// Whether one backend admits one job — typed errors, never panics
    /// on job content.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] or [`EngineError::Unsupported`].
    pub fn admit(&self, device: usize, job: &NttJob) -> Result<(), EngineError> {
        self.models[device].admit(job)
    }

    /// Predicted simulated backlog per backend, ns.
    pub fn queued_ns(&self) -> &[f64] {
        &self.queued_ns
    }

    /// One backend's health state.
    pub fn health(&self, device: usize) -> DeviceHealth {
        self.health[device]
    }

    /// Whether one backend is in the placement set.
    pub fn is_healthy(&self, device: usize) -> bool {
        self.health[device] == DeviceHealth::Healthy
    }

    /// The imbalance threshold, ns (see the module docs).
    pub fn steal_threshold_ns(&self) -> f64 {
        self.steal_threshold_ns
    }

    /// Takes `device` out of the placement set after a failed
    /// execution. The backend may later rejoin via the probe path
    /// ([`Self::request_probe`] → [`Self::readmit`]).
    pub fn mark_unhealthy(&mut self, device: usize) {
        self.health[device] = DeviceHealth::Retired;
    }

    /// Claims the probe slot for a retired backend. Returns `true` when
    /// the caller now owns the probe (state moved `Retired → Probing`);
    /// `false` when the backend is healthy or already being probed.
    pub fn request_probe(&mut self, device: usize) -> bool {
        if self.health[device] == DeviceHealth::Retired {
            self.health[device] = DeviceHealth::Probing;
            true
        } else {
            false
        }
    }

    /// Reports a failed probe: the backend returns to `Retired`.
    pub fn fail_probe(&mut self, device: usize) {
        if self.health[device] == DeviceHealth::Probing {
            self.health[device] = DeviceHealth::Retired;
        }
    }

    /// Re-admits a probed backend to the placement set with an empty
    /// backlog (its queue was drained onto the fleet at retirement).
    pub fn readmit(&mut self, device: usize) {
        self.health[device] = DeviceHealth::Healthy;
        self.queued_ns[device] = 0.0;
    }

    /// Predicted makespan of `jobs` as one batch on `device`, ns.
    pub fn batch_cost_ns(&mut self, device: usize, jobs: &[NttJob]) -> f64 {
        self.models[device].batch_makespan_ns(jobs)
    }

    /// Places one micro-batch. At most one [`Placement`] per backend;
    /// jobs admitted by no healthy backend come back in
    /// [`Routing::unroutable`]. Updates `queued_ns` — every placement
    /// must eventually be paired with [`Self::complete`] (or
    /// [`Self::reassign`]) by whoever executes it.
    pub fn route(&mut self, jobs: &[NttJob]) -> Routing {
        let mut routing = Routing::default();
        if jobs.is_empty() {
            return routing;
        }
        // Candidate backends per job: healthy and inside the capability
        // window (a job can overflow a published model's max N or a
        // small PIM device's banks while fitting the CPU's). The shape
        // does not depend on the backend: each job's is checked once, and
        // each distinct modulus tested for primality once per call.
        let mut shapes = ShapeCheck::new();
        let candidates: Vec<Vec<usize>> = jobs
            .iter()
            .map(|job| {
                if shapes.validate(job).is_err() {
                    return Vec::new();
                }
                (0..self.models.len())
                    .filter(|&d| self.is_healthy(d) && self.models[d].admit_shaped(job).is_ok())
                    .collect()
            })
            .collect();
        let routable: Vec<usize> = (0..jobs.len())
            .filter(|&j| {
                if candidates[j].is_empty() {
                    routing.unroutable.push(j);
                    false
                } else {
                    true
                }
            })
            .collect();
        if routable.is_empty() {
            return routing;
        }
        // Fast path: every job can go everywhere the first one can, so
        // the batch can stay whole. Heterogeneous candidate sets (mixed
        // windows, capacity edge cases) always take the per-job path.
        let common = &candidates[routable[0]];
        let uniform = routable.iter().all(|&j| candidates[j] == *common);
        if uniform {
            let batch = || routable.iter().map(|&j| &jobs[j]);
            let drains: Vec<(usize, f64)> = common
                .iter()
                .map(|&d| {
                    (
                        d,
                        self.queued_ns[d] + self.models[d].batch_makespan_ns(batch()),
                    )
                })
                .collect();
            let &(best, best_drain) = drains
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty candidate set");
            let min_drain = best_drain;
            let min_queued = common
                .iter()
                .map(|&d| self.queued_ns[d])
                .fold(f64::INFINITY, f64::min);
            // Keep the batch whole when splitting buys nothing: one
            // candidate, one job, or the fleet is balanced to within the
            // threshold even with the whole batch on one backend.
            if common.len() == 1
                || routable.len() == 1
                || best_drain <= min_queued + self.steal_threshold_ns
            {
                let predicted = best_drain - self.queued_ns[best];
                self.queued_ns[best] += predicted;
                self.log(RouteDecision {
                    device: best,
                    drain_ns: best_drain,
                    min_drain_ns: min_drain,
                    jobs: routable.len(),
                });
                routing.placements.push(Placement {
                    device: best,
                    jobs: routable,
                    predicted_ns: predicted,
                });
                return routing;
            }
        }
        // Split path: greedy LPT one level up. Largest jobs first, each
        // to the candidate backend with the least predicted drain, where
        // a job's contribution on a backend is its serial cost spread
        // over that backend's lanes (the marginal drain a lane-parallel
        // backend actually pays).
        let mut order = routable;
        order.sort_by(|&a, &b| {
            let ca = self.models[candidates[a][0]].job_cost(&jobs[a]);
            let cb = self.models[candidates[b][0]].job_cost(&jobs[b]);
            cb.total_cmp(&ca).then(a.cmp(&b))
        });
        let mut tentative = self.queued_ns.clone();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.models.len()];
        for &j in &order {
            let (dev, drain, min_drain) = {
                let mut best: Option<(usize, f64)> = None;
                for &d in &candidates[j] {
                    let contrib = self.models[d].job_cost(&jobs[j]) / self.models[d].lanes() as f64;
                    let drain = tentative[d] + contrib;
                    if best.is_none_or(|(_, b)| drain < b) {
                        best = Some((d, drain));
                    }
                }
                let (d, drain) = best.expect("non-empty candidate set");
                (d, drain, drain)
            };
            tentative[dev] = drain;
            groups[dev].push(j);
            self.log(RouteDecision {
                device: dev,
                drain_ns: drain,
                min_drain_ns: min_drain,
                jobs: 1,
            });
        }
        for (device, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let predicted = self.models[device].batch_makespan_ns(group.iter().map(|&j| &jobs[j]));
            self.queued_ns[device] += predicted;
            routing.placements.push(Placement {
                device,
                jobs: group,
                predicted_ns: predicted,
            });
        }
        routing
    }

    /// Reports one placed group finished (or abandoned): releases its
    /// predicted backlog from `device`.
    pub fn complete(&mut self, device: usize, predicted_ns: f64) {
        self.queued_ns[device] = (self.queued_ns[device] - predicted_ns).max(0.0);
    }

    /// Moves a stolen group's accounting from `from` to `to`, re-pricing
    /// it on the thief's cost model. Returns the new predicted makespan
    /// (the amount `to` must later [`Self::complete`]).
    pub fn reassign(&mut self, from: usize, to: usize, predicted_ns: f64, jobs: &[NttJob]) -> f64 {
        self.complete(from, predicted_ns);
        let predicted = self.models[to].batch_makespan_ns(jobs);
        self.queued_ns[to] += predicted;
        predicted
    }

    /// Drains the decision log (empty unless [`Self::with_decision_log`]).
    pub fn take_decisions(&mut self) -> Vec<RouteDecision> {
        std::mem::take(&mut self.decisions)
    }

    fn log(&mut self, decision: RouteDecision) {
        if self.record {
            self.decisions.push(decision);
        }
    }
}

/// Picks the backend a work-starved worker should steal from: the
/// victim with the largest predicted backlog among backends that
/// actually have undrained queue entries, provided its backlog exceeds
/// the thief's by more than the steal threshold. Pure so the policy is
/// unit-testable without threads; `queue_lens` is the per-backend count
/// of batches still waiting in queue (not in flight).
pub fn pick_steal_victim(
    queued_ns: &[f64],
    queue_lens: &[usize],
    thief: usize,
    steal_threshold_ns: f64,
) -> Option<usize> {
    (0..queued_ns.len())
        .filter(|&d| d != thief && queue_lens[d] > 0)
        .filter(|&d| queued_ns[d] > queued_ns[thief] + steal_threshold_ns)
        .max_by(|&a, &b| queued_ns[a].total_cmp(&queued_ns[b]).then(b.cmp(&a)))
}
