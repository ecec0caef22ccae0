//! The [`NttBackend`] trait and the three first-class backends.
//!
//! A backend is one co-simulated device the bus can dispatch a
//! micro-batch to. All backends compute **bit-identical** results for
//! any job they admit — they differ only in which jobs they admit
//! (capability window) and what timing they report (and its
//! provenance, [`BackendOutcome::source`]). That is the contract the
//! cross-backend parity tests pin, and what makes cost-aware routing a
//! pure performance decision.

use crate::cost::{
    kind_factor, kind_factor_tag, BusCostModel, CpuLaneCostModel, PublishedCostModel,
};
use crate::window::{BackendKind, CapabilityWindow};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::QueueReport;
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::{group_jobs, run_lane_batched, BatchExecutor, NttJob};
use ntt_pim::engine::{CpuNttEngine, EngineError, ReportSource};
use ntt_pim::reference::cache::PlanCache;
use ntt_pim::reference::lanes::LANE_WIDTH;
use pim_baselines::NttAccelerator;
use std::fmt;
use std::sync::Arc;

/// Merged result of one batch on one backend: the bus-level analogue of
/// [`ntt_pim::engine::batch::BatchOutcome`], uniform across backend
/// kinds so the serving layer consumes every backend the same way.
#[derive(Debug, Clone)]
pub struct BackendOutcome {
    /// Per-job results in job order (natural coefficient order).
    pub spectra: Vec<Vec<u64>>,
    /// End-to-end batch latency, ns.
    pub latency_ns: f64,
    /// Total energy, nJ (0 when the backend does not model energy).
    pub energy_nj: f64,
    /// Simulated per-job latency, ns, in job order.
    pub job_latency_ns: Vec<f64>,
    /// Shared command-bus slots issued (PIM only; 0 elsewhere).
    pub bus_slots: u64,
    /// Rank-level row activations (PIM only; 0 elsewhere).
    pub rank_acts: u64,
    /// The (possibly synthetic `1×1×lanes`) topology the batch ran on.
    pub topology: Topology,
    /// Per-lane completion/energy accounting; non-PIM backends
    /// synthesize one so fleet accounting stays uniform.
    pub queue_report: QueueReport,
    /// Provenance of the timing numbers.
    pub source: ReportSource,
}

/// One co-simulated device behind the bus.
///
/// Implementations must keep the parity contract: for any job that
/// passes [`Self::admit`], [`Self::run`] returns results bit-identical
/// to [`CpuNttEngine::golden`] on the same input. The window, admission
/// check and topology come from [`Self::cost_model`], so a backend is
/// admitted and priced by the same model the fleet router holds.
pub trait NttBackend: Send {
    /// Short routing label (`"pim"`, `"cpu-lanes"`, `"bp-ntt"`, …).
    fn label(&self) -> &str;

    /// The backend family.
    fn kind(&self) -> BackendKind;

    /// A fresh cost model pricing this backend (the router holds one
    /// per fleet slot).
    fn cost_model(&self) -> BusCostModel;

    /// The honest capability window.
    fn window(&self) -> CapabilityWindow {
        self.cost_model().window()
    }

    /// Independent lanes one batch can fan across.
    fn lanes(&self) -> usize {
        self.window().lanes
    }

    /// The topology fleet accounting files this backend under.
    fn topology(&self) -> Topology {
        self.cost_model().topology()
    }

    /// Whether one job is inside the window — typed errors, never
    /// panics.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] or [`EngineError::Unsupported`].
    fn admit(&self, job: &NttJob) -> Result<(), EngineError> {
        self.cost_model().admit(job)
    }

    /// Runs a whole micro-batch. The batch is validated up front; a
    /// malformed job fails the batch before anything executes.
    ///
    /// # Errors
    ///
    /// Admission errors naming the offending job index, or execution
    /// errors from the underlying device.
    fn run(&mut self, jobs: &[NttJob]) -> Result<BackendOutcome, EngineError>;

    /// A minimal job every healthy backend must serve — used by the
    /// re-admission probe. Length 256 over the NewHope/Falcon modulus
    /// sits inside every shipped window.
    fn probe_job(&self) -> NttJob {
        let q = 12289u64;
        NttJob::forward((0..256).map(|i| i % q).collect(), q)
    }
}

/// Validates every job of a batch through `admit`, tagging errors with
/// the offending index the way [`BatchExecutor`] does.
fn admit_batch(backend: &dyn NttBackend, jobs: &[NttJob]) -> Result<(), EngineError> {
    for (i, job) in jobs.iter().enumerate() {
        backend.admit(job).map_err(|e| match e {
            EngineError::Shape { reason } => EngineError::Shape {
                reason: format!("job {i}: {reason}"),
            },
            other => other,
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// PIM
// ---------------------------------------------------------------------

/// The bank-parallel DRAM PIM device as a bus backend: a thin adapter
/// over [`BatchExecutor`] (cycle-approximate timing, real bus/ACT
/// accounting).
#[derive(Debug)]
pub struct PimBackend {
    exec: BatchExecutor,
}

impl PimBackend {
    /// A PIM backend over a fresh device with `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(config: PimConfig) -> Result<Self, PimError> {
        Ok(Self {
            exec: BatchExecutor::new(config)?,
        })
    }

    /// The underlying executor.
    pub fn executor_mut(&mut self) -> &mut BatchExecutor {
        &mut self.exec
    }

    /// The device configuration.
    pub fn config(&self) -> &PimConfig {
        self.exec.config()
    }
}

impl NttBackend for PimBackend {
    fn label(&self) -> &str {
        "pim"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Pim
    }

    fn cost_model(&self) -> BusCostModel {
        // Built infallibly: the executor's config already validated.
        BusCostModel::Pim(ntt_pim::engine::batch::DeviceCostModel::with_options(
            *self.exec.config(),
            Default::default(),
        ))
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BackendOutcome, EngineError> {
        let out = self.exec.run(jobs)?;
        Ok(BackendOutcome {
            spectra: out.spectra,
            latency_ns: out.latency_ns,
            energy_nj: out.energy_nj,
            job_latency_ns: out.job_latency_ns,
            bus_slots: out.bus_slots,
            rank_acts: out.rank_acts,
            topology: out.topology,
            queue_report: out.queue_report,
            source: ReportSource::Simulated,
        })
    }
}

// ---------------------------------------------------------------------
// CPU lanes
// ---------------------------------------------------------------------

/// The host CPU's lane-batched kernels as a bus backend.
///
/// Results come from the real kernels
/// ([`ntt_pim::engine::batch::run_lane_batched`], AVX2 under the `simd`
/// half) so parity is exact; *timing* comes from the deterministic
/// [`CpuLaneCostModel`] — a co-simulation, not a wall-clock measurement
/// — so routed latencies are reproducible across runs and machines.
pub struct CpuLanesBackend {
    cpu: CpuNttEngine,
    cost: CpuLaneCostModel,
}

impl fmt::Debug for CpuLanesBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuLanesBackend").finish_non_exhaustive()
    }
}

impl CpuLanesBackend {
    /// A backend sharing the process-wide plan cache.
    pub fn new() -> Self {
        Self::with_cache(PlanCache::global())
    }

    /// A backend serving its plans from `cache`.
    pub fn with_cache(cache: Arc<PlanCache>) -> Self {
        Self {
            cpu: CpuNttEngine::with_cache(cache),
            cost: CpuLaneCostModel::new(),
        }
    }
}

impl Default for CpuLanesBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl NttBackend for CpuLanesBackend {
    fn label(&self) -> &str {
        "cpu-lanes"
    }

    fn kind(&self) -> BackendKind {
        BackendKind::CpuLanes
    }

    fn cost_model(&self) -> BusCostModel {
        BusCostModel::CpuLanes(CpuLaneCostModel::new())
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BackendOutcome, EngineError> {
        admit_batch(self, jobs)?;
        let (spectra, _lane_jobs) = run_lane_batched(&self.cpu, jobs)?;
        // Deterministic lane-wave co-simulation: groups run serially,
        // each group in LANE_WIDTH-wide waves, all lanes of a wave
        // finishing together (the SoA kernel's real shape).
        let lanes = LANE_WIDTH;
        let mut queue = QueueReport::empty(lanes, 1, 1);
        let mut job_latency_ns = vec![0.0; jobs.len()];
        let mut now = 0.0f64;
        for group in group_jobs(jobs) {
            let unit = kind_factor_tag(group.tag) * self.cost.transform_cost(group.n);
            for wave in group.indices.chunks(lanes) {
                now += unit;
                for (lane, &i) in wave.iter().enumerate() {
                    queue.job_end_ns[lane].push(now);
                    queue.per_bank_ns[lane] = now;
                    job_latency_ns[i] = unit;
                }
            }
        }
        queue.latency_ns = now;
        Ok(BackendOutcome {
            spectra,
            latency_ns: now,
            energy_nj: 0.0,
            job_latency_ns,
            bus_slots: 0,
            rank_acts: 0,
            topology: self.topology(),
            queue_report: queue,
            source: ReportSource::Simulated,
        })
    }
}

// ---------------------------------------------------------------------
// Published models
// ---------------------------------------------------------------------

/// A published accelerator model as a bus backend: results computed
/// through the golden CPU path (parity holds), timing taken from the
/// published datapoints, serial (one transform at a time — published
/// numbers are single-transform figures).
pub struct PublishedBackend {
    label: &'static str,
    model: Arc<dyn NttAccelerator + Send + Sync>,
    golden: CpuNttEngine,
}

impl fmt::Debug for PublishedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishedBackend")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl PublishedBackend {
    /// Wraps any published model under a short routing label.
    pub fn new(label: &'static str, model: Arc<dyn NttAccelerator + Send + Sync>) -> Self {
        Self {
            label,
            model,
            golden: CpuNttEngine::golden(),
        }
    }
}

impl NttBackend for PublishedBackend {
    fn label(&self) -> &str {
        self.label
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Published
    }

    fn cost_model(&self) -> BusCostModel {
        BusCostModel::Published(PublishedCostModel::new(self.label, Arc::clone(&self.model)))
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BackendOutcome, EngineError> {
        admit_batch(self, jobs)?;
        let (spectra, _lane_jobs) = run_lane_batched(&self.golden, jobs)?;
        let mut queue = QueueReport::empty(1, 1, 1);
        let mut job_latency_ns = Vec::with_capacity(jobs.len());
        let mut energy_nj = 0.0;
        let mut now = 0.0f64;
        for job in jobs {
            let factor = kind_factor(&job.kind);
            // Admission guarantees a published point exists.
            let unit = factor * self.model.latency_ns(job.n()).unwrap_or(0.0);
            energy_nj += factor * self.model.energy_nj(job.n()).unwrap_or(0.0);
            now += unit;
            queue.job_end_ns[0].push(now);
            job_latency_ns.push(unit);
        }
        queue.per_bank_ns[0] = now;
        queue.latency_ns = now;
        Ok(BackendOutcome {
            spectra,
            latency_ns: now,
            energy_nj,
            job_latency_ns,
            bus_slots: 0,
            rank_acts: 0,
            topology: self.topology(),
            queue_report: queue,
            source: ReportSource::Published,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_baselines::MenttModel;

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

    #[test]
    fn published_backend_reports_published_points() {
        let mut mentt = PublishedBackend::new("mentt", Arc::new(MenttModel));
        let job = NttJob::forward(poly(256, 3), Q);
        let out = mentt.run(std::slice::from_ref(&job)).unwrap();
        assert_eq!(out.source, ReportSource::Published);
        assert_eq!(out.latency_ns, 23_000.0);
        let mut expect = job.coeffs.clone();
        CpuNttEngine::golden().forward(&mut expect, Q).unwrap();
        assert_eq!(out.spectra[0], expect, "computed on the golden path");
        // MeNTT caps at 1K: a typed window error, nothing computed.
        let long = NttJob::forward(poly(2048, 4), Q);
        assert!(matches!(
            mentt.admit(&long),
            Err(EngineError::Unsupported { .. })
        ));
        assert!(mentt.run(&[long]).is_err());
    }

    #[test]
    fn published_backend_polymul_validates_the_pair_itself() {
        // A malformed second operand is rejected by the published
        // backend's own admission, naming the job, before the golden
        // path runs.
        let mut mentt = PublishedBackend::new("mentt", Arc::new(MenttModel));
        for rhs in [poly(128, 8), vec![Q; 256]] {
            let job = NttJob::negacyclic_polymul(poly(256, 7), rhs, Q);
            let err = mentt.run(&[job]).unwrap_err();
            assert!(
                matches!(&err, EngineError::Shape { reason } if reason.contains("job 0")),
                "{err}"
            );
        }
        // A valid pair is priced as three published transforms.
        let job = NttJob::negacyclic_polymul(poly(256, 7), poly(256, 8), Q);
        assert_eq!(mentt.run(&[job]).unwrap().latency_ns, 3.0 * 23_000.0);
    }
}
