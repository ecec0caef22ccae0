//! Per-backend cost models: the `(n, q, kind)` metadata the
//! heterogeneous router quotes before placing a micro-batch.
//!
//! Three models, one per backend family, unified behind
//! [`BusCostModel`]:
//!
//! * PIM — the existing [`DeviceCostModel`], driven by the
//!   cycle-approximate device timing.
//! * CPU lanes — [`CpuLaneCostModel`], an analytic `(N/2)·log2 N`
//!   butterfly count scaled by a cache-tier cost per butterfly. The
//!   constants are calibrated so the crossover against the paper's
//!   PIM points lands where the measurements do: small transforms
//!   (cache-resident) beat the PIM bus round-trip, large transforms
//!   lose to bank-parallel fan-out.
//! * Published — [`PublishedCostModel`], the published datapoints and
//!   their `N log N` scaling law, serial (one transform at a time).
//!
//! All three are deterministic and value-free: quoting a cost never
//! touches device or host state, so the router can probe every backend
//! for every batch without perturbing the simulation.

use crate::window::{BackendKind, CapabilityWindow};
use ntt_pim::core::config::Topology;
use ntt_pim::core::device::QueueReport;
use ntt_pim::engine::batch::{
    group_jobs, validate_device, validate_shape, BatchOutcome, DeviceCostModel, JobKind, NttJob,
};
use ntt_pim::engine::{EngineError, ReportSource};
use ntt_pim::reference::lanes::LANE_WIDTH;
use pim_baselines::NttAccelerator;
use std::collections::HashMap;
use std::fmt;

/// Cost per butterfly for transforms that fit in L1/L2, ns. Calibrated
/// against the measured lane-kernel throughput: a length-256 transform
/// (~1024 butterflies) costs ~1.2 µs on one core — well under the
/// published PIM point (3.9 µs) — which is exactly the regime where the
/// CPU should win a routing decision.
const BF_CACHE_NS: f64 = 1.2;
/// Cost per butterfly once the working set spills to L3, ns.
const BF_L3_NS: f64 = 6.0;
/// Cost per butterfly for DRAM-bound transforms, ns.
const BF_DRAM_NS: f64 = 9.0;

/// Analytic cost model of the lane-batched CPU backend.
///
/// A length-`n` transform runs `(n/2)·log2 n` butterflies; the cost per
/// butterfly steps up as the working set leaves cache. Batches of
/// same-shaped jobs ride the [`LANE_WIDTH`]-wide SoA kernel, so a group
/// of `g` jobs costs `ceil(g / LANE_WIDTH)` waves of one transform
/// each — the model the router uses when deciding whether a pile of
/// small jobs is cheaper on the host than on the PIM bus.
#[derive(Debug, Clone, Default)]
pub struct CpuLaneCostModel {
    memo: HashMap<usize, f64>,
}

impl CpuLaneCostModel {
    /// A fresh model (memo empty).
    pub fn new() -> Self {
        Self::default()
    }

    /// SIMD lanes one wave fans across.
    pub fn lanes(&self) -> usize {
        LANE_WIDTH
    }

    /// Predicted single-transform latency at length `n`, ns, memoized.
    pub fn transform_cost(&mut self, n: usize) -> f64 {
        *self.memo.entry(n).or_insert_with(|| {
            let butterflies = (n as f64 / 2.0) * (n as f64).log2();
            let per_bf = if n <= 1024 {
                BF_CACHE_NS
            } else if n <= 8192 {
                BF_L3_NS
            } else {
                BF_DRAM_NS
            };
            butterflies * per_bf
        })
    }

    /// Predicted latency of one job, ns (3× one transform for a
    /// negacyclic product; a split job runs whole on the host).
    pub fn job_cost(&mut self, job: &NttJob) -> f64 {
        kind_factor(&job.kind) * self.transform_cost(job.n())
    }

    /// The timing of a batch on the lanes, as the backend reports it
    /// (no spectra): same-`(kind, n, q)` groups run serially, each in
    /// [`LANE_WIDTH`]-wide waves whose lanes all finish together (the
    /// SoA kernel's shape). The report has one bank per lane and no
    /// energy; every job's latency is its wave's.
    pub fn batch_outcome<'a>(
        &mut self,
        jobs: impl IntoIterator<Item = &'a NttJob>,
    ) -> BatchOutcome {
        let mut queue = QueueReport::empty(LANE_WIDTH, 1, 1);
        let mut assignment = vec![Vec::new(); LANE_WIDTH];
        let groups = group_jobs(jobs);
        let mut job_latency_ns = vec![0.0; groups.iter().map(|g| g.indices.len()).sum()];
        let mut now = 0.0f64;
        for group in groups {
            let unit = kind_factor_tag(group.tag) * self.transform_cost(group.n);
            for wave in group.indices.chunks(LANE_WIDTH) {
                now += unit;
                for (lane, &i) in wave.iter().enumerate() {
                    queue.job_end_ns[lane].push(now);
                    queue.per_bank_ns[lane] = now;
                    assignment[lane].push(i);
                    job_latency_ns[i] = unit;
                }
            }
        }
        queue.latency_ns = now;
        BatchOutcome::timed(queue, job_latency_ns, assignment, ReportSource::Simulated)
    }

    /// Predicted makespan of a batch, ns: the latency
    /// [`Self::batch_outcome`] reports.
    pub fn batch_makespan_ns<'a>(&mut self, jobs: impl IntoIterator<Item = &'a NttJob>) -> f64 {
        self.batch_outcome(jobs).latency_ns
    }
}

/// Cost model of a published accelerator: the datapoints and scaling
/// law of one [`NttAccelerator`], serial execution (published numbers
/// are single-transform figures; no batch fan-out model exists for the
/// comparators).
#[derive(Clone)]
pub struct PublishedCostModel {
    label: &'static str,
    model: std::sync::Arc<dyn NttAccelerator + Send + Sync>,
}

impl fmt::Debug for PublishedCostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublishedCostModel")
            .field("label", &self.label)
            .field("model", &self.model.name())
            .finish()
    }
}

impl PublishedCostModel {
    /// Wraps a published model under a short routing label.
    pub fn new(
        label: &'static str,
        model: std::sync::Arc<dyn NttAccelerator + Send + Sync>,
    ) -> Self {
        Self { label, model }
    }

    /// The short routing label (e.g. `"bp-ntt"`).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The wrapped model.
    pub fn model(&self) -> &dyn NttAccelerator {
        self.model.as_ref()
    }

    /// Published latency of one job, ns; infinite when no published
    /// point covers the length (an admitted job always has one).
    pub fn job_cost(&self, job: &NttJob) -> f64 {
        match self.model.latency_ns(job.n()) {
            Some(ns) => kind_factor(&job.kind) * ns,
            None => f64::INFINITY,
        }
    }

    /// The timing of a batch, as the backend reports it (no spectra):
    /// the jobs run one at a time in job order, each taking its
    /// published latency and energy. The report has one bank.
    pub fn batch_outcome<'a>(&self, jobs: impl IntoIterator<Item = &'a NttJob>) -> BatchOutcome {
        let mut queue = QueueReport::empty(1, 1, 1);
        let mut job_latency_ns = Vec::new();
        let mut now = 0.0f64;
        for job in jobs {
            let unit = self.job_cost(job);
            now += unit;
            queue.energy_nj +=
                kind_factor(&job.kind) * self.model.energy_nj(job.n()).unwrap_or(0.0);
            queue.job_end_ns[0].push(now);
            job_latency_ns.push(unit);
        }
        queue.per_bank_ns[0] = now;
        queue.per_bank_energy_nj[0] = queue.energy_nj;
        queue.latency_ns = now;
        let assignment = vec![(0..job_latency_ns.len()).collect()];
        BatchOutcome::timed(queue, job_latency_ns, assignment, ReportSource::Published)
    }

    /// Serial batch latency, ns: the latency [`Self::batch_outcome`]
    /// reports.
    pub fn batch_makespan_ns<'a>(&self, jobs: impl IntoIterator<Item = &'a NttJob>) -> f64 {
        self.batch_outcome(jobs).latency_ns
    }
}

/// One backend's cost metadata, admission check, and capability window,
/// in the shape the fleet router holds per fleet slot. Value-free:
/// quoting never touches device state.
#[derive(Debug)]
pub enum BusCostModel {
    /// A PIM device slot ([`DeviceCostModel`]).
    Pim(DeviceCostModel),
    /// A lane-batched CPU slot.
    CpuLanes(CpuLaneCostModel),
    /// A published-model slot, with its routing label.
    Published(PublishedCostModel),
}

impl BusCostModel {
    /// The backend family.
    pub fn kind(&self) -> BackendKind {
        match self {
            BusCostModel::Pim(_) => BackendKind::Pim,
            BusCostModel::CpuLanes(_) => BackendKind::CpuLanes,
            BusCostModel::Published(_) => BackendKind::Published,
        }
    }

    /// The short routing label of the backend this model prices.
    pub fn label(&self) -> &'static str {
        match self {
            BusCostModel::Pim(_) => "pim",
            BusCostModel::CpuLanes(_) => "cpu-lanes",
            BusCostModel::Published(p) => p.label(),
        }
    }

    /// The capability window the model's admission enforces.
    pub fn window(&self) -> CapabilityWindow {
        match self {
            BusCostModel::Pim(m) => CapabilityWindow {
                arbitrary_modulus: true,
                native_modulus: None,
                bitwidth: 32,
                max_n: Some(1 << 20),
                lanes: m.lanes(),
            },
            BusCostModel::CpuLanes(m) => CapabilityWindow {
                arbitrary_modulus: true,
                native_modulus: None,
                // The Shoup lazy bound of the CPU kernels.
                bitwidth: 62,
                max_n: None,
                lanes: m.lanes(),
            },
            BusCostModel::Published(p) => {
                let flex = p.model().flexibility();
                CapabilityWindow {
                    arbitrary_modulus: flex.arbitrary_modulus,
                    native_modulus: if flex.arbitrary_modulus {
                        None
                    } else {
                        // Published fixed-modulus evaluations use the
                        // NewHope/Falcon modulus.
                        Some(12289)
                    },
                    bitwidth: flex.bitwidth,
                    max_n: flex.max_n,
                    lanes: 1,
                }
            }
        }
    }

    /// Independent lanes a batch can fan across on this backend.
    pub fn lanes(&self) -> usize {
        self.window().lanes
    }

    /// The topology the backend schedules over (synthetic `1×1×lanes`
    /// for non-PIM backends, so fleet accounting stays uniform).
    pub fn topology(&self) -> Topology {
        match self {
            BusCostModel::Pim(m) => m.config().topology,
            other => Topology::new(1, 1, other.lanes() as u32),
        }
    }

    /// Full admission check for one job: shape first (typed
    /// [`EngineError::Shape`]), then [`Self::admit_shaped`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] or [`EngineError::Unsupported`]; never
    /// panics.
    pub fn admit(&self, job: &NttJob) -> Result<(), EngineError> {
        validate_shape(job)?;
        self.admit_shaped(job)
    }

    /// [`Self::admit`] of a job whose shape [`validate_shape`] accepted:
    /// the capability window (typed [`EngineError::Unsupported`]), then,
    /// for PIM slots, what the device checks past the shape
    /// ([`validate_device`]: the 32-bit modulus, bank capacity and split
    /// planning). A caller admitting one job on many backends checks its
    /// shape once.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] or [`EngineError::Unsupported`]; never
    /// panics.
    pub fn admit_shaped(&self, job: &NttJob) -> Result<(), EngineError> {
        self.window().admits(self.label(), job)?;
        match self {
            BusCostModel::Pim(m) => validate_device(m.config(), job),
            BusCostModel::CpuLanes(_) => Ok(()),
            BusCostModel::Published(p) => {
                if p.model().latency_ns(job.n()).is_none() {
                    return Err(EngineError::Unsupported {
                        engine: p.label().to_string(),
                        n: job.n(),
                        q: job.q,
                        reason: "no published point covers this length".into(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Predicted latency of one job on this backend, ns.
    pub fn job_cost(&mut self, job: &NttJob) -> f64 {
        match self {
            BusCostModel::Pim(m) => m.job_cost(job),
            BusCostModel::CpuLanes(m) => m.job_cost(job),
            BusCostModel::Published(p) => p.job_cost(job),
        }
    }

    /// Predicted makespan of a whole batch on this backend, ns.
    pub fn batch_makespan_ns<'a>(&mut self, jobs: impl IntoIterator<Item = &'a NttJob>) -> f64 {
        match self {
            BusCostModel::Pim(m) => m.batch_makespan_ns(jobs),
            BusCostModel::CpuLanes(m) => m.batch_makespan_ns(jobs),
            BusCostModel::Published(p) => p.batch_makespan_ns(jobs),
        }
    }
}

/// Latency multiplier of a job kind over one transform (a negacyclic
/// product runs three transforms plus element-wise passes).
pub(crate) fn kind_factor(kind: &JobKind) -> f64 {
    kind_factor_tag(kind.lane_tag())
}

/// [`kind_factor`] over a pre-computed tag.
pub(crate) fn kind_factor_tag(tag: u8) -> f64 {
    if tag == 2 {
        3.0
    } else {
        1.0
    }
}
