//! The [`NttBackend`] trait and the three first-class backends.
//!
//! A backend is one co-simulated device the bus can dispatch a
//! micro-batch to. All backends compute **bit-identical** results for
//! any job they admit — they differ only in which jobs they admit
//! (capability window) and what timing they report (and its
//! provenance, [`BatchOutcome::source`]). That is the contract the
//! cross-backend parity tests pin, and what makes cost-aware routing a
//! pure performance decision.

use crate::cost::{BusCostModel, CpuLaneCostModel, PublishedCostModel};
use crate::window::{BackendKind, CapabilityWindow};
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::{run_lane_batched, BatchExecutor, BatchOutcome, NttJob};
use ntt_pim::engine::{CpuNttEngine, EngineError};
use ntt_pim::reference::cache::PlanCache;
use pim_baselines::NttAccelerator;
use std::fmt;
use std::sync::Arc;

/// One co-simulated device behind the bus.
///
/// A backend is described once, by its cost model: its label, kind,
/// window, admission check and topology all come from
/// [`Self::cost_model`], so a backend is named, admitted and priced by
/// the same model the fleet router holds. Implementations must keep the
/// parity contract: for any job that passes [`Self::admit`],
/// [`Self::run`] returns results bit-identical to
/// [`CpuNttEngine::golden`] on the same input.
pub trait NttBackend: Send {
    /// A fresh cost model pricing this backend (the router holds one
    /// per fleet slot).
    fn cost_model(&self) -> BusCostModel;

    /// Short routing label (`"pim"`, `"cpu-lanes"`, `"bp-ntt"`, …).
    fn label(&self) -> &str {
        self.cost_model().label()
    }

    /// The backend family.
    fn kind(&self) -> BackendKind {
        self.cost_model().kind()
    }

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
    fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError>;

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
    fn cost_model(&self) -> BusCostModel {
        // Built infallibly: the executor's config already validated.
        BusCostModel::Pim(ntt_pim::engine::batch::DeviceCostModel::with_options(
            *self.exec.config(),
            Default::default(),
        ))
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError> {
        self.exec.run(jobs)
    }
}

// ---------------------------------------------------------------------
// CPU lanes
// ---------------------------------------------------------------------

/// The host CPU's lane-batched kernels as a bus backend.
///
/// Results come from the real kernels
/// ([`ntt_pim::engine::batch::run_lane_batched`]) so parity is exact;
/// *timing* comes from the deterministic
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
    fn cost_model(&self) -> BusCostModel {
        BusCostModel::CpuLanes(CpuLaneCostModel::new())
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError> {
        admit_batch(self, jobs)?;
        let (spectra, _lane_jobs) = run_lane_batched(&self.cpu, jobs)?;
        Ok(BatchOutcome {
            spectra,
            ..self.cost.batch_outcome(jobs)
        })
    }
}

// ---------------------------------------------------------------------
// Published models
// ---------------------------------------------------------------------

/// A published accelerator model as a bus backend: results computed
/// through the golden CPU path (parity holds), timing and energy taken
/// from the published datapoints, serial (one transform at a time —
/// published numbers are single-transform figures).
pub struct PublishedBackend {
    cost: PublishedCostModel,
    golden: CpuNttEngine,
}

impl fmt::Debug for PublishedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishedBackend")
            .field("label", &self.cost.label())
            .finish_non_exhaustive()
    }
}

impl PublishedBackend {
    /// Wraps any published model under a short routing label.
    pub fn new(label: &'static str, model: Arc<dyn NttAccelerator + Send + Sync>) -> Self {
        Self {
            cost: PublishedCostModel::new(label, model),
            golden: CpuNttEngine::golden(),
        }
    }
}

impl NttBackend for PublishedBackend {
    fn cost_model(&self) -> BusCostModel {
        BusCostModel::Published(self.cost.clone())
    }

    fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError> {
        admit_batch(self, jobs)?;
        let (spectra, _lane_jobs) = run_lane_batched(&self.golden, jobs)?;
        Ok(BatchOutcome {
            spectra,
            ..self.cost.batch_outcome(jobs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_pim::engine::ReportSource;
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
