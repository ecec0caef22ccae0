//! Batched, bank-parallel job execution on the PIM device, driven by a
//! cost model.
//!
//! The paper's §VI.A observation — "FHE applications can naturally run
//! multiple NTT functions using multiple banks" — generalized into an
//! executor: hand it any number of independent jobs (forward NTTs,
//! inverse NTTs, full negacyclic products) and it packs them onto
//! per-bank queues and drains the queues concurrently over the shared
//! command bus.
//!
//! Every batch is scheduled by one rule, longest-processing-time (LPT)
//! bin-packing with an asynchronous drain: every job's latency is
//! predicted from the device cost model
//! ([`crate::engine::pim_cost_estimate`], memoized per transform length
//! so a thousand-job batch maps each distinct length once), jobs are
//! dealt to the least-loaded bank biggest-first, and the queues drain
//! *asynchronously* — each bank starts its next job the moment the
//! previous one finishes ([`crate::core::sched::schedule_queues`]), with
//! no full-chip barrier between them. Only the shared command bus and the
//! rank's tRRD/tFAW window couple the banks. On mixed-size batches (the
//! RNS workload the device's modulus-agnostic design targets, §VI.E) no
//! bank waits for a slower one, as it would behind a per-wave barrier.
//!
//! Jobs may use different lengths, moduli, and kinds in one batch; the
//! merged [`BatchOutcome`] reports wall-clock latency, energy, shared-bus
//! pressure, rank activations, and per-bank/per-job accounting.
//!
//! On the host, [`BatchExecutor::run`] works in two steps: a serial
//! prepare step (validate, plan, bind operands, map and decode on a memo
//! miss), then one execute step that runs every bank's queue through
//! [`PimDevice::run_banks`], the banks on concurrent host threads. Each
//! operand word is touched once each way: validation checks it, narrows
//! it to `u32` and lays it out in the order its bank stores it, in one
//! pass, and each result is read back once, on its bank's thread,
//! straight into the `u64` spectrum the outcome returns. Banks share no
//! values, so the outcome never depends on the thread count.
//!
//! The executor is topology-aware: on a sharded
//! `channels × ranks × banks` device
//! ([`crate::core::config::Topology`]), LPT packing happens
//! *hierarchically* — across channels first (each channel has a private
//! command bus), then across the banks within each channel
//! ([`crate::core::sched::lpt_assign_topology`]) — and the timing model
//! gives every channel its own bus and every rank its own tRRD/tFAW
//! window, so adding channels or ranks buys real concurrency, not just
//! more queue slots.

use super::{CpuNttEngine, EngineError, ReportSource};
use crate::core::cmd::PimCommand;
use crate::core::config::{PimConfig, Topology};
use crate::core::device::{
    BankStep, NttDirection, Operand, OperandWords, PimDevice, QueueReport, StoredOrder,
};
use crate::core::layout::PolyLayout;
use crate::core::mapper::{MapperOptions, Program};
use crate::core::sched::{lpt_assign_topology, lpt_makespan, DagJob};
use crate::core::sim::DecodedProgram;
use crate::core::PimError;
use crate::math::arith::{mul_mod, pow_mod};
use crate::math::prime;
use crate::reference::four_step::{plan_split, SplitPlan};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Weak};

/// What a batched job computes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Forward cyclic NTT of `coeffs` (natural order in and out).
    Forward,
    /// Inverse cyclic NTT of `coeffs`, including the `N⁻¹` scaling.
    Inverse,
    /// Negacyclic product `coeffs · rhs mod (X^N + 1, q)`, entirely
    /// on-device (ψ-weighting, two forward NTTs, pointwise, inverse NTT,
    /// unweighting).
    NegacyclicPolymul {
        /// Second operand, natural order, reduced mod `q`, same length.
        rhs: Vec<u64>,
    },
    /// Forward cyclic NTT of `coeffs`, *split* across the topology as a
    /// four-step DAG: `cols` independent column sub-transforms fan out
    /// over the banks, a dependency barrier marks the stage boundary, and
    /// `rows` fused twiddle+row sub-transforms fan back
    /// ([`crate::reference::four_step::plan_split`] picks the
    /// factorization). Bit-identical to [`JobKind::Forward`] on the same
    /// input; the point is latency — one huge transform no longer
    /// serializes on a single bank.
    SplitLarge,
}

impl JobKind {
    /// The lane-grouping tag [`group_jobs`] keys on: 0 forward (a split
    /// job is a forward NTT functionally), 1 inverse, 2 negacyclic
    /// product.
    pub fn lane_tag(&self) -> u8 {
        match self {
            JobKind::Forward | JobKind::SplitLarge => 0,
            JobKind::Inverse => 1,
            JobKind::NegacyclicPolymul { .. } => 2,
        }
    }
}

/// One independent batch request: natural-order coefficients, reduced
/// mod `q`, plus the operation to perform on them.
#[derive(Debug, Clone)]
pub struct NttJob {
    /// Natural-order input coefficients (length must be a power of two).
    pub coeffs: Vec<u64>,
    /// The job's modulus (odd prime, `2N | q-1`).
    pub q: u64,
    /// The operation this job runs.
    pub kind: JobKind,
}

impl NttJob {
    /// Builds a forward-NTT job (the historical default).
    pub fn new(coeffs: Vec<u64>, q: u64) -> Self {
        Self::forward(coeffs, q)
    }

    /// A forward cyclic NTT job.
    pub fn forward(coeffs: Vec<u64>, q: u64) -> Self {
        Self {
            coeffs,
            q,
            kind: JobKind::Forward,
        }
    }

    /// An inverse cyclic NTT job (input is a natural-order spectrum).
    pub fn inverse(coeffs: Vec<u64>, q: u64) -> Self {
        Self {
            coeffs,
            q,
            kind: JobKind::Inverse,
        }
    }

    /// A full negacyclic polynomial product `coeffs · rhs`.
    pub fn negacyclic_polymul(coeffs: Vec<u64>, rhs: Vec<u64>, q: u64) -> Self {
        Self {
            coeffs,
            q,
            kind: JobKind::NegacyclicPolymul { rhs },
        }
    }

    /// A forward cyclic NTT split across the topology as a four-step DAG
    /// (see [`JobKind::SplitLarge`]).
    pub fn split_large(coeffs: Vec<u64>, q: u64) -> Self {
        Self {
            coeffs,
            q,
            kind: JobKind::SplitLarge,
        }
    }

    /// Transform length.
    pub fn n(&self) -> usize {
        self.coeffs.len()
    }
}

/// The row stage of a split large transform adds the fused
/// twiddle-scaling pass on top of the transform: one element-wise sweep,
/// priced as a flat surcharge on the row transform's cost.
const ROW_STAGE_FACTOR: f64 = 1.2;

/// Value-free cost model of one simulated PIM device: predicts per-job
/// latency and whole-batch makespan from the device configuration and
/// topology alone, without touching bank storage.
///
/// [`BatchExecutor`] holds one internally to drive its LPT packing; the
/// fleet router in `ntt-service` holds one *per device* so it can quote
/// each device's predicted drain time for a micro-batch (already-queued
/// work plus [`Self::batch_makespan_ns`] on that device's own topology)
/// — the per-device extension of the per-bank LPT cost model. A model
/// is cheap to clone and never mutates device state; predictions are
/// memoized per transform length (PIM timing is value- and
/// modulus-independent).
#[derive(Debug, Clone)]
pub struct DeviceCostModel {
    config: PimConfig,
    opts: MapperOptions,
    /// Memoized single-transform latency per length.
    memo: HashMap<usize, f64>,
}

impl DeviceCostModel {
    /// Builds a cost model for `config` with default mapper options.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(config: PimConfig) -> Result<Self, PimError> {
        config.validate()?;
        Ok(Self::with_options(config, MapperOptions::default()))
    }

    /// Builds a cost model with explicit mapper options (use this to
    /// mirror a device whose options differ from the defaults).
    pub fn with_options(config: PimConfig, opts: MapperOptions) -> Self {
        Self {
            config,
            opts,
            memo: HashMap::new(),
        }
    }

    /// The modeled device configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Parallel lanes of the modeled device (total banks across its
    /// `channels × ranks × banks` topology).
    pub fn lanes(&self) -> usize {
        self.config.total_banks()
    }

    /// Predicted single-transform latency at length `n`, ns, memoized.
    pub fn transform_cost(&mut self, n: usize) -> f64 {
        match self.memo.entry(n) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => *v.insert(
                super::pim_cost_estimate(&self.config, &self.opts, n)
                    // N log N fallback keeps packing sensible even where
                    // the model has no point.
                    .unwrap_or_else(|| (n as f64) * f64::from(n.trailing_zeros() + 1)),
            ),
        }
    }

    /// Predicted serial latency of one job, ns. A negacyclic product
    /// runs three transforms plus element-wise passes; 3× one transform
    /// is accurate enough for bin-packing, which only needs relative
    /// weights. A split large transform reports the serial sum of its
    /// sub-jobs (callers asking "how heavy is this job"; the packer
    /// costs its units individually via [`Self::unit_costs`]).
    pub fn job_cost(&mut self, job: &NttJob) -> f64 {
        let transform = self.transform_cost(job.n());
        match job.kind {
            JobKind::Forward | JobKind::Inverse => transform,
            JobKind::NegacyclicPolymul { .. } => 3.0 * transform,
            JobKind::SplitLarge => match plan_split(job.n(), self.config.total_banks()) {
                Ok(split) => {
                    split.cols as f64 * self.transform_cost(split.rows)
                        + split.rows as f64 * self.transform_cost(split.cols)
                }
                Err(_) => transform,
            },
        }
    }

    /// Per-unit costs of a batch in scheduling order: ordinary jobs
    /// contribute one unit, split large transforms one unit per column
    /// and per row sub-job (a split that cannot be planned on this
    /// device falls back to one whole-transform unit).
    pub fn unit_costs<'a>(&mut self, jobs: impl IntoIterator<Item = &'a NttJob>) -> Vec<f64> {
        let banks = self.lanes();
        let jobs = jobs.into_iter();
        let mut costs = Vec::with_capacity(jobs.size_hint().0);
        for job in jobs {
            if job.kind == JobKind::SplitLarge {
                if let Ok(split) = plan_split(job.n(), banks) {
                    let col = self.transform_cost(split.rows);
                    let row = self.transform_cost(split.cols) * ROW_STAGE_FACTOR;
                    costs.extend(std::iter::repeat_n(col, split.cols));
                    costs.extend(std::iter::repeat_n(row, split.rows));
                    continue;
                }
            }
            costs.push(self.job_cost(job));
        }
        costs
    }

    /// Predicted makespan of the whole batch on this device, ns: the
    /// heaviest bank queue the hierarchical LPT packer would produce
    /// ([`crate::core::sched::lpt_makespan`] over [`Self::unit_costs`]).
    pub fn batch_makespan_ns<'a>(&mut self, jobs: impl IntoIterator<Item = &'a NttJob>) -> f64 {
        let costs = self.unit_costs(jobs);
        lpt_makespan(&costs, &self.config.topology)
    }
}

/// One schedulable unit of a batch plan: either a whole job, or one
/// column/row sub-job of a split large transform. The scheduler packs
/// *units* (a split job contributes `cols + rows` of them, fanned across
/// banks); everything else in the executor stays in whole-job terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanUnit {
    /// An ordinary job, by index into the batch's jobs slice.
    Job(usize),
    /// Stage-1 column sub-transform `column` of split job `job` — no
    /// dependencies; signals the job's stage barrier when done.
    SplitColumn {
        /// Index of the split job in the batch.
        job: usize,
        /// Column index, `0..cols`.
        column: usize,
    },
    /// Stage-2 fused twiddle+row sub-transform `row` of split job `job`
    /// — waits on the job's stage barrier (each row gathers one element
    /// from *every* column's output).
    SplitRow {
        /// Index of the split job in the batch.
        job: usize,
        /// Row index, `0..rows`.
        row: usize,
    },
}

impl PlanUnit {
    /// The batch job this unit belongs to.
    pub fn job(&self) -> usize {
        match *self {
            PlanUnit::Job(j) | PlanUnit::SplitColumn { job: j, .. } => j,
            PlanUnit::SplitRow { job: j, .. } => j,
        }
    }
}

/// The scheduler's decision for one batch: per-bank unit queues plus the
/// cost estimates that produced them. Exposed so tests (and curious
/// callers) can audit assignments without running anything.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// `queues[b]` lists the indices into [`Self::units`] bank `b` runs,
    /// in order. For a split-free batch `units[i]` is `Job(i)`, so the
    /// queue entries coincide with job indices.
    pub queues: Vec<Vec<usize>>,
    /// Predicted per-unit latency, ns (parallel to [`Self::units`]).
    pub costs: Vec<f64>,
    /// Every schedulable unit of the batch, in job order with each split
    /// job expanded into its column units then its row units.
    pub units: Vec<PlanUnit>,
}

/// The one result of a batch, on every backend: per-job results, the
/// queue report that times them, and where the timing comes from.
/// [`BatchExecutor::run`] and every bus backend's `run` return it.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job results, in job order (natural coefficient order): the
    /// spectrum for forward jobs, the time-domain polynomial for inverse
    /// jobs, the product for polymul jobs.
    pub spectra: Vec<Vec<u64>>,
    /// End-to-end batch latency, ns: [`QueueReport::latency_ns`],
    /// restated.
    pub latency_ns: f64,
    /// Total energy, nJ: [`QueueReport::energy_nj`], restated.
    pub energy_nj: f64,
    /// Command-bus slots issued: [`QueueReport::bus_slots`], restated.
    pub bus_slots: u64,
    /// The job-index queues the batch actually ran (`assignment[b]` =
    /// bank or lane `b`'s jobs, in order; a split job appears once per
    /// bank that ran any of its sub-jobs).
    pub assignment: Vec<Vec<usize>>,
    /// Simulated per-job latency, ns, in job order: each job's completion
    /// minus its queue predecessor's completion. For a split job it is
    /// the completion time of the job's *last sub-job*, measured from
    /// batch start (the sub-jobs span many banks, so there is no single
    /// predecessor).
    pub job_latency_ns: Vec<f64>,
    /// Per-stage accounting of every split large transform in the batch,
    /// in job order (empty when no job was split).
    pub splits: Vec<SplitReport>,
    /// The batch's timing: per-bank (or per-lane) completion and energy,
    /// per-job end times, per-channel bus slots, per-rank ACTs and
    /// barrier times. Backends without a DRAM model fill in a
    /// `1 × 1 × lanes` report. Serving-layer front-ends attach it to
    /// every response of a micro-batch.
    pub queue_report: QueueReport,
    /// Where the timing numbers come from.
    pub source: ReportSource,
}

/// Per-stage latency of one split large transform inside a batch.
#[derive(Debug, Clone)]
pub struct SplitReport {
    /// Index of the split job in the batch.
    pub job: usize,
    /// The `rows × cols` factorization the job ran under.
    pub rows: usize,
    /// Row-transform length (`cols` column sub-jobs of length `rows`
    /// fan out first; then `rows` row sub-jobs of length `cols`).
    pub cols: usize,
    /// When the column stage's dependency barrier completed, ns from
    /// batch start — the last column sub-job's drain time.
    pub column_stage_ns: f64,
    /// When the job's last row sub-job completed, ns from batch start.
    pub latency_ns: f64,
}

impl BatchOutcome {
    /// An outcome timed by `queue_report`, its summary fields restated
    /// from the report; no spectra and no splits yet.
    pub fn timed(
        queue_report: QueueReport,
        job_latency_ns: Vec<f64>,
        assignment: Vec<Vec<usize>>,
        source: ReportSource,
    ) -> Self {
        Self {
            spectra: Vec::new(),
            latency_ns: queue_report.latency_ns,
            energy_nj: queue_report.energy_nj,
            bus_slots: queue_report.bus_slots,
            assignment,
            job_latency_ns,
            splits: Vec::new(),
            queue_report,
            source,
        }
    }

    /// Batch latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.latency_ns / 1000.0
    }

    /// Jobs per second the batch sustained.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            return 0.0;
        }
        self.spectra.len() as f64 / (self.latency_ns * 1e-9)
    }
}

/// Fans independent jobs across a PIM device's banks by cost-model-driven
/// LPT packing, each bank draining its queue asynchronously.
///
/// ```
/// use ntt_pim::core::config::PimConfig;
/// use ntt_pim::engine::batch::{BatchExecutor, NttJob};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4))?;
/// let q = 12289u64;
/// let jobs: Vec<NttJob> = (0..8)
///     .map(|j| NttJob::new((0..256).map(|i| (i * 3 + j) % q). collect(), q))
///     .collect();
/// let out = exec.run(&jobs)?;
/// assert_eq!(out.spectra.len(), 8);
/// assert_eq!(out.queue_report.depth(), 2); // 8 jobs over 4 banks: queues are 2 deep
/// # Ok(())
/// # }
/// ```
///
/// Scaling out means handing the executor a sharded topology — results
/// are bit-identical, only the timing (and the fan-out) changes:
///
/// ```
/// use ntt_pim::core::config::{PimConfig, Topology};
/// use ntt_pim::engine::batch::{BatchExecutor, NttJob};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 2 channels × 2 ranks × 4 banks = 16-way fan-out.
/// let config = PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4));
/// let mut exec = BatchExecutor::new(config)?;
/// assert_eq!(exec.bank_count(), 16);
/// let q = 12289u64;
/// let jobs: Vec<NttJob> = (0..16)
///     .map(|j| NttJob::new((0..256).map(|i| (i * 5 + j) % q).collect(), q))
///     .collect();
/// let out = exec.run(&jobs)?;
/// assert_eq!(out.queue_report.per_channel_bus_slots.len(), 2); // one bus per channel
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchExecutor {
    device: PimDevice,
    /// Cost model mirroring the device (shared shape with the fleet
    /// router's per-device models).
    cost: DeviceCostModel,
    /// Mapped and decoded programs by unit shape, shared across banks
    /// and batches.
    programs: BoundedMemo<ProgramKey, Arc<MappedUnit>>,
    /// Plan and queue report by batch shape.
    batches: BoundedMemo<BatchKey, Arc<MemoBatch>>,
    /// The device configuration both memos were filled under.
    memo_config: PimConfig,
}

/// Upper bound on the weight one executor's program memo holds, in
/// units of one mapped command (24 bytes): an entry weighs its commands
/// plus its decoded form rounded up to whole units (12-byte ops, one per
/// run of in-place ops, their 28-byte runs, 64-byte twiddle rows of plain
/// words and Shoup companions, and the C1 kernels), so 2²⁰ units bound
/// the memo at about 24 MiB. The decoded form adds about an eighth to an
/// entry: an N = 4096 forward program is 13,067 commands, and 257 ops
/// standing for 2,816, 511 twiddle rows and one C1 kernel (43,104 bytes)
/// decoded, 14,863 units in all. The largest working set measured is one
/// executor of the repository benchmark's replay workload (every length
/// from 256 to 8192, three kinds, two moduli, plus the row and column
/// sub-jobs of split transforms): 162 programs, ≈0.46 M commands and
/// ≈0.53 M units with their decoded forms, and a second pass over its
/// batches adds no program or batch miss. The cap holds it with room to
/// spare.
pub const PROGRAM_MEMO_CAP_COMMANDS: usize = 1 << 20;

/// Upper bound on the plan units (jobs, or split sub-jobs) across the
/// batch shapes one executor's batch memo holds: 2¹⁶ units, a few MiB
/// of plans, queue reports and the timing read off them, weak program
/// handles, split roots and keys at roughly 100 bytes per unit. A held
/// program handle keeps no program alive: the program memo's bound
/// covers every program.
pub const BATCH_MEMO_CAP_UNITS: usize = 1 << 16;

/// Occupancy and hit counters of a [`BatchExecutor`]'s two memos.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Program lookups served from the memo.
    pub program_hits: u64,
    /// Program lookups that mapped a fresh program.
    pub program_misses: u64,
    /// Mapped programs held.
    pub programs: usize,
    /// Weight of the held programs, in units of one mapped command:
    /// their commands plus their decoded forms (at most
    /// [`PROGRAM_MEMO_CAP_COMMANDS`]).
    pub program_commands: usize,
    /// Batches whose plan and queue report came from the memo.
    pub batch_hits: u64,
    /// Batches planned and scheduled afresh.
    pub batch_misses: u64,
    /// Batch shapes held.
    pub batches: usize,
    /// Plan units across the held batch shapes (at most
    /// [`BATCH_MEMO_CAP_UNITS`]).
    pub batch_units: usize,
}

/// A memo whose entries carry a weight (mapped commands, plan units)
/// and whose total weight stays at or below a constant cap. Eviction is
/// wholesale: an insert that would pass the cap clears the memo first,
/// and an entry heavier than the cap on its own is never kept.
#[derive(Debug, Clone)]
struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    weight: usize,
    cap: usize,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq, V: Clone> BoundedMemo<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            weight: 0,
            cap,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting the hit or miss.
    fn get(&mut self, key: &K) -> Option<V> {
        let found = self.map.get(key).cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: K, value: V, weight: usize) {
        if weight > self.cap || self.map.contains_key(&key) {
            return;
        }
        if self.weight + weight > self.cap {
            self.clear();
        }
        self.weight += weight;
        self.map.insert(key, value);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.weight = 0;
    }
}

/// Which mapped program a unit runs, with the roots it was mapped over
/// when the caller supplies them (split sub-jobs; whole jobs derive
/// theirs from `(n, q)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum UnitProgram {
    Forward,
    Inverse,
    Polymul,
    Column { root: u32 },
    Row { root: u32, twiddle: u32 },
}

impl UnitProgram {
    /// The program a whole job runs. A split job's whole form is a
    /// forward NTT (the planner expands split jobs into column and row
    /// units, so only a caller bypassing it would run one whole).
    fn whole(kind: &JobKind) -> Self {
        match kind {
            JobKind::Forward | JobKind::SplitLarge => UnitProgram::Forward,
            JobKind::Inverse => UnitProgram::Inverse,
            JobKind::NegacyclicPolymul { .. } => UnitProgram::Polymul,
        }
    }

    /// The order the unit's operand is stored in, and the order the
    /// program leaves its result in: forward DIT transforms (whole jobs
    /// and split columns) take bit-reversed storage to natural, inverse
    /// and row transforms run DIF the other way, and a polymul keeps its
    /// operands natural.
    fn orders(self) -> (StoredOrder, StoredOrder) {
        use StoredOrder::{BitReversed, Natural};
        match self {
            UnitProgram::Forward | UnitProgram::Column { .. } => (BitReversed, Natural),
            UnitProgram::Inverse | UnitProgram::Row { .. } => (Natural, BitReversed),
            UnitProgram::Polymul => (Natural, Natural),
        }
    }

    /// Maps the unit's program over its operands' handles.
    fn map(self, device: &PimDevice, loads: &[Operand]) -> Result<Program, PimError> {
        let handle = |i: usize| {
            loads
                .get(i)
                .map(Operand::handle)
                .ok_or_else(|| PimError::BadRegion {
                    reason: format!("{self:?} unit without operand {i}"),
                })
        };
        match self {
            UnitProgram::Forward => device.build_ntt_program(handle(0)?, NttDirection::Forward),
            UnitProgram::Inverse => device.build_ntt_program(handle(0)?, NttDirection::Inverse),
            UnitProgram::Polymul => device.polymul_program(handle(0)?, handle(1)?),
            UnitProgram::Column { root } => device.build_column_program(handle(0)?, root),
            UnitProgram::Row { root, twiddle } => {
                device.build_twiddle_row_program(handle(0)?, root, twiddle)
            }
        }
    }
}

/// A unit's operands, laid out: its words in the order its program
/// expects them in the bank, and a polymul's second operand. Validation
/// makes a whole job's; a split's sub-jobs take theirs from its stage
/// matrices.
#[derive(Debug)]
struct UnitWords {
    words: OperandWords,
    rhs: Option<OperandWords>,
}

/// What one split job's shape fixes: its factorization, the roots its
/// column and row sub-jobs are mapped over (powers of the parent root,
/// so the sub-transforms compose into the parent bit-exactly), and each
/// row's twiddle `ω^row`.
#[derive(Debug)]
struct SplitShape {
    /// Index of the split job in the batch.
    job: usize,
    split: SplitPlan,
    col_root: u32,
    row_root: u32,
    row_twiddles: Vec<u32>,
}

impl SplitShape {
    /// The shape of split job `job` (length `n`, modulus `q`) on `banks`
    /// banks, which validation accepted.
    fn new(job: usize, n: usize, q: u64, banks: usize) -> Result<Self, EngineError> {
        let split = plan_split(n, banks).expect("validated");
        let omega = prime::root_of_unity(n as u64, q)?;
        let mut twiddle = 1;
        let row_twiddles = (0..split.rows)
            .map(|_| {
                let t = twiddle as u32;
                twiddle = mul_mod(twiddle, omega, q);
                t
            })
            .collect();
        Ok(Self {
            job,
            split,
            col_root: pow_mod(omega, split.cols as u64, q) as u32,
            row_root: pow_mod(omega, split.rows as u64, q) as u32,
            row_twiddles,
        })
    }
}

/// The position of split job `job` among `splits`, which is also its
/// stage barrier's id. A batch holds few split jobs.
fn split_index(splits: &[SplitShape], job: usize) -> usize {
    splits
        .iter()
        .position(|s| s.job == job)
        .expect("every split unit's job has a shape")
}

/// Everything a unit's program is a function of, given the device
/// configuration: every unit loads at word 0 (a polymul's second
/// operand at the configuration's fixed offset), so the layout follows
/// from `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ProgramKey {
    unit: UnitProgram,
    n: usize,
    q: u32,
    opts: MapperOptions,
}

/// Everything a batch's plan and queue report are a function of,
/// given the device configuration and cost model: the mapper options
/// and the ordered `(kind, n, q)` list of its jobs (a split job keyed
/// apart from a forward one).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BatchKey {
    opts: MapperOptions,
    jobs: Vec<(u8, usize, u64)>,
}

impl BatchKey {
    fn new(opts: MapperOptions, jobs: &[NttJob]) -> Self {
        let kind = |job: &NttJob| match job.kind {
            JobKind::SplitLarge => 3,
            ref other => other.lane_tag(),
        };
        Self {
            opts,
            jobs: jobs.iter().map(|j| (kind(j), j.n(), j.q)).collect(),
        }
    }
}

/// One unit's mapped program — what the scheduler times — and its
/// decoded form — what the functional simulator runs, shared with every
/// [`BankStep`] that runs it.
#[derive(Debug)]
struct MappedUnit {
    program: Program,
    decoded: Arc<DecodedProgram>,
}

impl MappedUnit {
    /// Memo weight in units of one mapped command's size.
    fn weight(&self) -> usize {
        let command = std::mem::size_of::<PimCommand>();
        self.program.len() + self.decoded.heap_bytes().div_ceil(command)
    }
}

/// The value-independent half of one batch: what its shape determines.
#[derive(Debug)]
struct MemoBatch {
    plan: Arc<BatchPlan>,
    /// The batch's outcome without spectra: its queue report and the
    /// per-job latencies, split reports and assignment read off it.
    timed: BatchOutcome,
    /// Each plan unit's program, held weakly: a program the program memo
    /// evicts is freed, not kept alive here, and a later run of the
    /// shape takes that unit's program from the program memo again.
    programs: Vec<Weak<MappedUnit>>,
    /// Roots and row twiddles of each split job, in job order.
    splits: Arc<[SplitShape]>,
}

impl BatchExecutor {
    /// Builds an executor over a fresh device with `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(config: PimConfig) -> Result<Self, PimError> {
        Ok(Self::from_device(PimDevice::new(config)?))
    }

    /// Wraps an existing device (preserving its mapper options).
    pub fn from_device(device: PimDevice) -> Self {
        let cost = DeviceCostModel::with_options(*device.config(), *device.mapper_options());
        Self {
            memo_config: *device.config(),
            device,
            cost,
            programs: BoundedMemo::new(PROGRAM_MEMO_CAP_COMMANDS),
            batches: BoundedMemo::new(BATCH_MEMO_CAP_UNITS),
        }
    }

    /// The executor's device cost model (the same predictions the
    /// planner packs by). Handing it out mutably drops the memoized
    /// batch plans, which were packed by the model as it stood.
    pub fn cost_model(&mut self) -> &mut DeviceCostModel {
        self.batches.clear();
        &mut self.cost
    }

    /// Occupancy and hit counters of the executor's memos.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            program_hits: self.programs.hits,
            program_misses: self.programs.misses,
            programs: self.programs.map.len(),
            program_commands: self.programs.weight,
            batch_hits: self.batches.hits,
            batch_misses: self.batches.misses,
            batches: self.batches.map.len(),
            batch_units: self.batches.weight,
        }
    }

    /// Number of banks jobs can fan across — total across the device's
    /// `channels × ranks × banks` topology.
    pub fn bank_count(&self) -> usize {
        self.device.config().total_banks()
    }

    /// The device topology jobs are scheduled over.
    pub fn topology(&self) -> Topology {
        self.device.config().topology
    }

    /// The device configuration jobs are validated against.
    pub fn config(&self) -> &PimConfig {
        self.device.config()
    }

    /// Access to the underlying device.
    pub fn device_mut(&mut self) -> &mut PimDevice {
        &mut self.device
    }

    /// Validates the *whole* batch against the device's capability window
    /// before anything is issued, so a malformed job can never fail
    /// mid-batch after earlier jobs already executed. Errors name the
    /// first offending job.
    ///
    /// The check of a whole job's coefficients is also its one pass in:
    /// each word is checked, narrowed to `u32` and written in the order
    /// its program expects it in the bank. Returns those words in job
    /// order (`None` for a split job, whose column sub-jobs gather their
    /// own).
    ///
    /// Each distinct modulus pays for one primality test: a modulus
    /// already found prime passes, and a composite one fails at the first
    /// job that carries it.
    fn validate(&self, jobs: &[NttJob]) -> Result<Vec<Option<UnitWords>>, EngineError> {
        let config = self.device.config();
        let mut shapes = ShapeCheck::new();
        jobs.iter()
            .enumerate()
            .map(|(i, job)| {
                lay_out(config, job, |q| shapes.is_prime(q)).map_err(|e| match e {
                    EngineError::Shape { reason } => EngineError::Shape {
                        reason: format!("job {i}: {reason}"),
                    },
                    other => other,
                })
            })
            .collect()
    }

    /// Validates the batch and computes the per-bank job queues
    /// [`Self::run`] would run, without executing anything.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] naming the first offending job.
    pub fn plan(&mut self, jobs: &[NttJob]) -> Result<BatchPlan, EngineError> {
        self.validate(jobs)?;
        self.plan_validated(jobs)
    }

    /// [`Self::plan`] of a batch [`Self::validate`] already accepted.
    fn plan_validated(&mut self, jobs: &[NttJob]) -> Result<BatchPlan, EngineError> {
        let banks = self.bank_count();
        // Expand jobs into schedulable units: ordinary jobs stay whole,
        // split jobs contribute one unit per column and per row sub-job —
        // the same expansion, in the same order, as the cost model's.
        let costs = self.cost.unit_costs(jobs);
        let mut units = Vec::with_capacity(costs.len());
        for (i, job) in jobs.iter().enumerate() {
            if job.kind == JobKind::SplitLarge {
                let split = plan_split(job.n(), banks).expect("validated above");
                units
                    .extend((0..split.cols).map(|column| PlanUnit::SplitColumn { job: i, column }));
                units.extend((0..split.rows).map(|row| PlanUnit::SplitRow { job: i, row }));
            } else {
                units.push(PlanUnit::Job(i));
            }
        }
        // Hierarchical: channels first (private buses), then banks.
        // Degenerates to flat LPT on a single-channel topology.
        let mut queues = lpt_assign_topology(&costs, &self.topology());
        // Barrier-gated row units go last in every bank queue: the bank
        // keeps draining ordinary jobs and column units while the stage
        // barrier is pending, instead of idling behind a gated head (and
        // co-packed small jobs are never starved by a split).
        for queue in &mut queues {
            queue.sort_by_key(|&u| matches!(units[u], PlanUnit::SplitRow { .. }));
        }
        Ok(BatchPlan {
            queues,
            costs,
            units,
        })
    }

    /// The bank step of one plan unit over `loads`, its operands already
    /// bound to the unit's bank: the unit's program comes from `slot`
    /// (the batch memo's) or else from the program memo, which maps it
    /// over the operands' handles and decodes it on a miss, and fills
    /// `slot`. The result is read back through the first operand's region
    /// in the order the program leaves it.
    fn step(
        &mut self,
        program: UnitProgram,
        loads: Vec<Operand>,
        slot: &mut Option<Arc<MappedUnit>>,
    ) -> Result<BankStep, EngineError> {
        let mut read = *loads[0].handle();
        let mapped = match slot {
            Some(mapped) => Arc::clone(mapped),
            None => {
                let key = ProgramKey {
                    unit: program,
                    n: read.n(),
                    q: read.modulus(),
                    opts: *self.device.mapper_options(),
                };
                let mapped = match self.programs.get(&key) {
                    Some(mapped) => mapped,
                    None => {
                        let program = program.map(&self.device, &loads)?;
                        let decoded = Arc::new(self.device.decode_program(&program)?);
                        let mapped = Arc::new(MappedUnit { program, decoded });
                        self.programs.insert(key, mapped.clone(), mapped.weight());
                        mapped
                    }
                };
                slot.insert(mapped).clone()
            }
        };
        read.assume_order(program.orders().1);
        Ok(BankStep {
            loads,
            program: Arc::clone(&mapped.decoded),
            read: Some(read),
        })
    }

    /// Runs the plan units `input` picks, in queue order per bank:
    /// `input` gives a unit's program and its laid-out words, or `None`
    /// to skip it. Prepare, serially: each picked unit's words are bound
    /// to its bank and its program taken ([`Self::step`], through
    /// `programs`, by plan unit). Execute: one [`PimDevice::run_banks`]
    /// call loads, runs and reads back every bank's list, the banks
    /// concurrently. Returns each unit's read-back words by plan unit,
    /// whichever thread ran its bank.
    fn run_units(
        &mut self,
        plan: &BatchPlan,
        programs: &mut [Option<Arc<MappedUnit>>],
        mut input: impl FnMut(PlanUnit) -> Result<Option<(UnitProgram, UnitWords)>, EngineError>,
    ) -> Result<Vec<(usize, Vec<u64>)>, EngineError> {
        let mut lists: Vec<Vec<BankStep>> = Vec::with_capacity(plan.queues.len());
        let mut ran: Vec<usize> = Vec::new();
        for (bank, queue) in plan.queues.iter().enumerate() {
            let mut list = Vec::new();
            for &u in queue {
                let Some((program, UnitWords { words, rhs })) = input(plan.units[u])? else {
                    continue;
                };
                let n = words.len();
                let mut loads = vec![self.device.bind(bank, 0, words)?];
                if let Some(rhs) = rhs {
                    let base = self.device.config().polymul_rhs_base(n);
                    loads.push(self.device.bind(bank, base, rhs)?);
                }
                list.push(self.step(program, loads, &mut programs[u])?);
                ran.push(u);
            }
            lists.push(list);
        }
        let outs = self.device.run_banks(lists)?;
        Ok(ran.into_iter().zip(outs.into_iter().flatten()).collect())
    }

    /// Runs every job and merges the reports.
    ///
    /// The whole batch is validated up front (nothing executes when any
    /// job is malformed); results land in [`BatchOutcome::spectra`] in
    /// job order regardless of bank assignment.
    ///
    /// Each operand word is touched once on the way in and once on the
    /// way out. Validation checks a whole job's coefficients, narrows them
    /// to `u32` and lays them out in the order its bank stores them, in
    /// one pass; loading is then one copy into the bank. The read-back
    /// widens the result to `u64` in logical order, on the thread that
    /// ran the bank, and that vector becomes the job's spectrum.
    ///
    /// Functional execution has two steps. Prepare, on the calling
    /// thread: bind every unit's operands to its bank and take its
    /// decoded program from the memo. Execute: one
    /// [`PimDevice::run_banks`] call loads, runs and reads back every
    /// bank's queue, the banks on the caller and the process-wide pool of
    /// helper threads ([`crate::core::helpers`]). A split job's row units
    /// need its column units' outputs, so they prepare and execute in a
    /// second pass: each row gathers its words from the column outputs
    /// straight into storage order, and each row's output is transposed
    /// into the job's spectrum. Outcomes are bit-identical whatever the
    /// thread count.
    ///
    /// Mapping, decoding and timing never read the values, so the
    /// executor memoizes them: each unit's mapped and decoded program by
    /// its shape (shared across banks and batches), and by the batch's
    /// shape its plan, queue report, the timing read off it, each unit's
    /// program and each split job's roots and row twiddles. A repeated
    /// shape still validates, loads, executes and reads back every job;
    /// it skips only the mapper, the decoder, the scheduler and the root
    /// search, whose results it would reproduce exactly.
    ///
    /// # Errors
    ///
    /// [`EngineError::Pim`] with [`PimError::BadConfig`] when the
    /// device's mapper options turn in-place update off
    /// ([`PimDevice::check_in_place`]: the ping-pong ablation leaves
    /// results where this path does not read them), before anything
    /// runs; [`EngineError::Shape`] naming the offending job on malformed
    /// batches; device errors otherwise.
    pub fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError> {
        self.device.check_in_place()?;
        // A device replaced through `device_mut` maps and times
        // differently: start both memos afresh.
        if self.memo_config != *self.device.config() {
            self.programs.clear();
            self.batches.clear();
            self.memo_config = *self.device.config();
        }
        // Validation lays the words out; it runs before the memo lookup,
        // so a rejected batch moves no memo counter.
        let mut inputs = self.validate(jobs)?;
        let key = BatchKey::new(*self.device.mapper_options(), jobs);
        let hit = self.batches.get(&key);
        let banks = self.bank_count();
        // A batch whose shape ran before reuses its plan, split shapes and
        // programs.
        let (plan, splits, mut programs) = match &hit {
            Some(memo) => (
                Arc::clone(&memo.plan),
                Arc::clone(&memo.splits),
                memo.programs.iter().map(Weak::upgrade).collect(),
            ),
            None => {
                let plan = Arc::new(self.plan_validated(jobs)?);
                let splits = jobs
                    .iter()
                    .enumerate()
                    .filter(|(_, job)| job.kind == JobKind::SplitLarge)
                    .map(|(i, job)| SplitShape::new(i, job.n(), job.q, banks))
                    .collect::<Result<Arc<[SplitShape]>, _>>()?;
                let units = plan.units.len();
                (plan, splits, vec![None; units])
            }
        };
        let mut spectra: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
        // A split job's matrix moves between its stages by blocked
        // transposes, so each unit's words are one contiguous run: here
        // its input, column by column.
        let split_inputs: Vec<Vec<u64>> = splits
            .iter()
            .map(|shape| {
                let rows: Vec<&[u64]> = jobs[shape.job]
                    .coeffs
                    .chunks_exact(shape.split.cols)
                    .collect();
                transpose(&rows, shape.split.cols)
            })
            .collect();
        // Pass A: ordinary jobs and column sub-jobs, in queue order (row
        // units sort last in every queue, so each bank still runs its
        // queue in order).
        let pass_a = self.run_units(&plan, &mut programs, |unit| match unit {
            PlanUnit::Job(ji) => {
                let words = inputs[ji]
                    .take()
                    .expect("validation lays out every whole job");
                Ok(Some((UnitProgram::whole(&jobs[ji].kind), words)))
            }
            PlanUnit::SplitColumn { job, column } => {
                let s = split_index(&splits, job);
                let rows = splits[s].split.rows;
                let program = UnitProgram::Column {
                    root: splits[s].col_root,
                };
                let column = &split_inputs[s][column * rows..][..rows];
                let words = OperandWords::new(column, jobs[job].q as u32, program.orders().0)?;
                Ok(Some((program, UnitWords { words, rhs: None })))
            }
            PlanUnit::SplitRow { .. } => Ok(None),
        })?;
        let mut columns: Vec<Vec<Vec<u64>>> = splits
            .iter()
            .map(|shape| vec![Vec::new(); shape.split.cols])
            .collect();
        for (u, out) in pass_a {
            match plan.units[u] {
                PlanUnit::Job(ji) => spectra[ji] = out,
                PlanUnit::SplitColumn { job, column } => {
                    columns[split_index(&splits, job)][column] = out;
                }
                PlanUnit::SplitRow { .. } => {}
            }
        }

        // Pass B: row sub-jobs. Row `r` is element `r` of every column
        // output, so it runs after every column drained.
        if !splits.is_empty() {
            let matrices: Vec<Vec<u64>> = splits
                .iter()
                .zip(&columns)
                .map(|(shape, columns)| transpose(columns, shape.split.rows))
                .collect();
            let pass_b = self.run_units(&plan, &mut programs, |unit| {
                let PlanUnit::SplitRow { job, row } = unit else {
                    return Ok(None);
                };
                let s = split_index(&splits, job);
                let (shape, cols) = (&splits[s], splits[s].split.cols);
                let program = UnitProgram::Row {
                    root: shape.row_root,
                    twiddle: shape.row_twiddles[row],
                };
                let words = &matrices[s][row * cols..][..cols];
                let words = OperandWords::new(words, jobs[job].q as u32, program.orders().0)?;
                Ok(Some((program, UnitWords { words, rhs: None })))
            })?;
            let mut rows: Vec<Vec<Vec<u64>>> = splits
                .iter()
                .map(|shape| vec![Vec::new(); shape.split.rows])
                .collect();
            for (u, out) in pass_b {
                if let PlanUnit::SplitRow { job, row } = plan.units[u] {
                    rows[split_index(&splits, job)][row] = out;
                }
            }
            // Step 4 transpose: spectrum[k₂·rows + k₁] = Y_{k₁}[k₂].
            for (shape, rows) in splits.iter().zip(&rows) {
                spectra[shape.job] = transpose(rows, shape.split.cols);
            }
        }

        let memo = match hit {
            Some(memo) => memo,
            None => {
                let programs: Vec<Arc<MappedUnit>> = programs
                    .into_iter()
                    .map(|p| p.expect("every unit ran"))
                    .collect();
                let timed = self.schedule(&plan, &splits, &programs, jobs.len())?;
                let weight = plan.units.len().max(1);
                let memo = Arc::new(MemoBatch {
                    plan,
                    timed,
                    programs: programs.iter().map(Arc::downgrade).collect(),
                    splits,
                });
                self.batches.insert(key, Arc::clone(&memo), weight);
                memo
            }
        };
        Ok(BatchOutcome {
            spectra,
            ..memo.timed.clone()
        })
    }

    /// Times a batch whose units ran `programs` (by plan unit): one queue
    /// per bank in queue order, each split job's column units signalling
    /// its barrier and its row units waiting on it. Returns the outcome
    /// without spectra.
    fn schedule(
        &self,
        plan: &BatchPlan,
        splits: &[SplitShape],
        programs: &[Arc<MappedUnit>],
        jobs: usize,
    ) -> Result<BatchOutcome, EngineError> {
        let dag: Vec<Vec<DagJob<'_>>> = plan
            .queues
            .iter()
            .map(|queue| {
                queue
                    .iter()
                    .map(|&u| {
                        let (waits_on, signals) = match plan.units[u] {
                            PlanUnit::Job(_) => (None, None),
                            PlanUnit::SplitColumn { job, .. } => {
                                (None, Some(split_index(splits, job)))
                            }
                            PlanUnit::SplitRow { job, .. } => {
                                (Some(split_index(splits, job)), None)
                            }
                        };
                        DagJob {
                            program: &programs[u].program,
                            waits_on,
                            signals,
                        }
                    })
                    .collect()
            })
            .collect();
        let report = self.device.schedule_queues_dag(&dag)?;
        let mut job_latency_ns = vec![0.0f64; jobs];
        let mut split_end = vec![0.0f64; splits.len()];
        for (bank, ends) in report.job_end_ns.iter().enumerate() {
            let mut prev = 0.0;
            for (slot, &end) in ends.iter().enumerate() {
                match plan.units[plan.queues[bank][slot]] {
                    PlanUnit::Job(ji) => job_latency_ns[ji] = end - prev,
                    PlanUnit::SplitColumn { job: ji, .. } | PlanUnit::SplitRow { job: ji, .. } => {
                        let e = &mut split_end[split_index(splits, ji)];
                        *e = e.max(end);
                    }
                }
                prev = end;
            }
        }
        let split_reports = splits
            .iter()
            .zip(split_end)
            .enumerate()
            .map(|(barrier, (shape, end))| {
                job_latency_ns[shape.job] = end;
                SplitReport {
                    job: shape.job,
                    rows: shape.split.rows,
                    cols: shape.split.cols,
                    column_stage_ns: report.barrier_ns[barrier],
                    latency_ns: end,
                }
            })
            .collect();
        // Job-level assignment view: each bank's distinct jobs in queue
        // order (a split job shows up on every bank that ran sub-jobs).
        let assignment: Vec<Vec<usize>> = plan
            .queues
            .iter()
            .map(|queue| {
                let mut seen = Vec::new();
                for &ui in queue {
                    let ji = plan.units[ui].job();
                    if !seen.contains(&ji) {
                        seen.push(ji);
                    }
                }
                seen
            })
            .collect();
        Ok(BatchOutcome {
            splits: split_reports,
            ..BatchOutcome::timed(report, job_latency_ns, assignment, ReportSource::Simulated)
        })
    }
}

/// The transpose of the matrix whose rows are `lines`, each `len` words
/// long: word `m·lines.len() + l` of the result is `lines[l][m]`. It
/// walks 8 × 8 blocks, eight words of one line at a time written to eight
/// result rows, so each cache line it reads or writes is used whole while
/// cached; word by word, a split's strided gathers took a fresh cache
/// line for every word.
fn transpose<L: AsRef<[u64]>>(lines: &[L], len: usize) -> Vec<u64> {
    const BLOCK: usize = 8;
    let n = lines.len();
    let mut out = vec![0; n * len];
    for l0 in (0..n).step_by(BLOCK) {
        for m0 in (0..len).step_by(BLOCK) {
            for (l, line) in lines.iter().enumerate().skip(l0).take(BLOCK) {
                let words = &line.as_ref()[m0..len.min(m0 + BLOCK)];
                for (dm, &w) in words.iter().enumerate() {
                    out[(m0 + dm) * n + l] = w;
                }
            }
        }
    }
    out
}

/// [`validate_job`] of one batch job with the primality test `is_prime`,
/// laying out a whole job's coefficients in the same pass that checks
/// them ([`BatchExecutor::validate`]). Errors are [`validate_job`]'s, in
/// its order. A split job, and a modulus past 32 bits, which fails
/// below, take [`validate_job`]'s scan and lay out nothing.
fn lay_out(
    config: &PimConfig,
    job: &NttJob,
    is_prime: impl FnOnce(u64) -> bool,
) -> Result<Option<UnitWords>, EngineError> {
    let q = match u32::try_from(job.q) {
        Ok(q) if job.kind != JobKind::SplitLarge => q,
        _ => return check_job(config, job, is_prime).map(|()| None),
    };
    let shape = |reason: &str| EngineError::Shape {
        reason: reason.into(),
    };
    check_root(job, is_prime)?;
    // The length is a power of two, so an unreduced word is the one way
    // laying the words out can fail.
    let stored = UnitProgram::whole(&job.kind).orders().0;
    let words = OperandWords::new(&job.coeffs, q, stored)
        .map_err(|_| shape("coefficients not reduced modulo q"))?;
    let rhs = match &job.kind {
        JobKind::NegacyclicPolymul { rhs } => {
            check_rhs_len(job.n(), rhs)?;
            let rhs = OperandWords::new(rhs, q, StoredOrder::Natural)
                .map_err(|_| shape("rhs coefficients not reduced modulo q"))?;
            Some(rhs)
        }
        _ => None,
    };
    validate_capacity(config, &job.kind, job.n())?;
    Ok(Some(UnitWords { words, rhs }))
}

/// Backend-independent shape validation: power-of-two length `>= 4`,
/// prime modulus with a `2N`-th root of unity, reduced coefficients,
/// matching and reduced polymul operands. Every backend's admission runs
/// this first; what remains after it is genuinely *capability* (window)
/// checking.
///
/// # Errors
///
/// [`EngineError::Shape`] describing the violation.
pub fn validate_shape(job: &NttJob) -> Result<(), EngineError> {
    check_shape(job, prime::is_prime)
}

/// [`validate_shape`] for many jobs, testing each distinct modulus for
/// primality once: a modulus already found prime passes at once, and a
/// composite one is tested again, and fails, wherever it recurs. The
/// executor validates a batch through one, and the fleet router each
/// micro-batch it places.
#[derive(Debug, Clone, Default)]
pub struct ShapeCheck {
    primes: Vec<u64>,
}

impl ShapeCheck {
    /// A check that has tested no modulus yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`validate_shape`] of `job`.
    ///
    /// # Errors
    ///
    /// As [`validate_shape`].
    pub fn validate(&mut self, job: &NttJob) -> Result<(), EngineError> {
        check_shape(job, |q| self.is_prime(q))
    }

    fn is_prime(&mut self, q: u64) -> bool {
        if self.primes.contains(&q) {
            return true;
        }
        let prime = prime::is_prime(q);
        if prime {
            self.primes.push(q);
        }
        prime
    }
}

/// [`validate_shape`] with the primality test `is_prime`.
fn check_shape(job: &NttJob, is_prime: impl FnOnce(u64) -> bool) -> Result<(), EngineError> {
    check_root(job, is_prime)?;
    if job.coeffs.iter().any(|&c| c >= job.q) {
        return Err(EngineError::Shape {
            reason: "coefficients not reduced modulo q".into(),
        });
    }
    if let JobKind::NegacyclicPolymul { rhs } = &job.kind {
        check_rhs_len(job.n(), rhs)?;
        if rhs.iter().any(|&c| c >= job.q) {
            return Err(EngineError::Shape {
                reason: "rhs coefficients not reduced modulo q".into(),
            });
        }
    }
    Ok(())
}

/// The first checks of [`validate_shape`]: a power-of-two length `>= 4`
/// and a prime modulus with a `2N`-th root of unity.
fn check_root(job: &NttJob, is_prime: impl FnOnce(u64) -> bool) -> Result<(), EngineError> {
    let shape = |reason: String| EngineError::Shape { reason };
    let n = job.n();
    if !n.is_power_of_two() || n < 4 {
        return Err(shape(format!("length {n} is not a power of two >= 4")));
    }
    if !is_prime(job.q) {
        return Err(shape(format!("q={} is not prime", job.q)));
    }
    if (job.q - 1) % (2 * n as u64) != 0 {
        return Err(shape(format!(
            "q={} has no 2N-th root of unity (2N does not divide q-1)",
            job.q
        )));
    }
    Ok(())
}

/// A polymul's second operand must have the first's length `n`.
fn check_rhs_len(n: usize, rhs: &[u64]) -> Result<(), EngineError> {
    if rhs.len() != n {
        return Err(EngineError::Shape {
            reason: format!("operand lengths differ ({n} vs {})", rhs.len()),
        });
    }
    Ok(())
}

/// Validates one job against a device configuration's capability window:
/// [`validate_shape`], a 32-bit modulus, and bank capacity for every
/// operand.
///
/// This is the per-job half of [`BatchExecutor`]'s whole-batch
/// validation, exposed so admission-controlled front-ends (the serving
/// layer) can reject a malformed request *on its own ticket* instead of
/// letting it poison the micro-batch it would have joined.
///
/// # Errors
///
/// [`EngineError::Shape`] describing the violation (without a job index
/// — the caller knows which request it is holding).
pub fn validate_job(config: &PimConfig, job: &NttJob) -> Result<(), EngineError> {
    check_job(config, job, prime::is_prime)
}

/// [`validate_job`] with the primality test `is_prime`.
fn check_job(
    config: &PimConfig,
    job: &NttJob,
    is_prime: impl FnOnce(u64) -> bool,
) -> Result<(), EngineError> {
    check_shape(job, is_prime)?;
    validate_device(config, job)
}

/// What [`validate_job`] checks past [`validate_shape`]: a 32-bit
/// modulus and bank capacity for every operand. For a caller that has
/// checked the job's shape already.
///
/// # Errors
///
/// [`EngineError::Shape`] describing the violation.
pub fn validate_device(config: &PimConfig, job: &NttJob) -> Result<(), EngineError> {
    if job.q > u64::from(u32::MAX) {
        return Err(EngineError::Shape {
            reason: format!("q={} exceeds the 32-bit PIM datapath", job.q),
        });
    }
    validate_capacity(config, &job.kind, job.n())
}

/// The bank-capacity half of [`validate_job`], from a job's kind and
/// length alone, so a front-end can reject a length before it allocates
/// the coefficients: the operand(s) must fit one bank. A split job only
/// ever materializes its column/row sub-vectors in a bank, so *those*
/// must fit — the full transform may exceed any single bank.
///
/// # Errors
///
/// [`EngineError::Shape`] describing what does not fit.
pub fn validate_capacity(config: &PimConfig, kind: &JobKind, n: usize) -> Result<(), EngineError> {
    let shape = |reason: String| EngineError::Shape { reason };
    if let JobKind::SplitLarge = kind {
        let split = plan_split(n, config.total_banks())
            .map_err(|e| shape(format!("cannot split length {n}: {e}")))?;
        if split.rows < 4 || split.cols < 4 {
            return Err(shape(format!(
                "split {split} of length {n} has a sub-transform below the \
                 device minimum of 4"
            )));
        }
        PolyLayout::new(config, 0, split.rows)
            .map_err(|e| shape(format!("column sub-job: {e}")))?;
        PolyLayout::new(config, 0, split.cols).map_err(|e| shape(format!("row sub-job: {e}")))?;
    } else {
        PolyLayout::new(config, 0, n).map_err(|e| shape(e.to_string()))?;
    }
    if let JobKind::NegacyclicPolymul { .. } = kind {
        PolyLayout::new(config, config.polymul_rhs_base(n), n)
            .map_err(|e| shape(format!("second operand: {e}")))?;
    }
    Ok(())
}

/// Lane-batched CPU execution of a mixed job batch: groups same-`(kind,
/// n, q)` jobs (first-seen order) and drives each group through
/// [`CpuNttEngine`]'s lane-batched entry points
/// ([`CpuNttEngine::forward_batch`] and friends), scattering the spectra
/// back into job order. This is how the serving layer's golden-verify
/// mode consumes a whole micro-batch in one sweep instead of job by job.
///
/// Returns the job-order spectra and how many jobs' transforms rode the
/// lane kernel (group tails shorter than
/// [`crate::reference::lanes::LANE_WIDTH`] run the scalar kernel —
/// bit-identical results either way, so the count is a performance
/// counter, not a correctness signal). Output spectra are bit-identical
/// to running each job alone on [`CpuNttEngine`]'s scalar entry points;
/// a single request is a batch of one.
///
/// # Errors
///
/// Propagates the engine's validation errors
/// ([`EngineError::Shape`]/[`EngineError::Unsupported`]); no partial
/// results are returned.
pub fn run_lane_batched(
    cpu: &CpuNttEngine,
    jobs: &[NttJob],
) -> Result<(Vec<Vec<u64>>, usize), EngineError> {
    let mut spectra: Vec<Vec<u64>> = vec![Vec::new(); jobs.len()];
    let mut lane_jobs = 0usize;
    for group in group_jobs(jobs) {
        let (idx, q) = (&group.indices, group.q);
        let mut batch: Vec<Vec<u64>> = idx.iter().map(|&i| jobs[i].coeffs.clone()).collect();
        lane_jobs += match group.tag {
            0 => cpu.forward_batch(&mut batch, q)?,
            1 => cpu.inverse_batch(&mut batch, q)?,
            _ => {
                let rhs: Vec<Vec<u64>> = idx
                    .iter()
                    .map(|&i| match &jobs[i].kind {
                        JobKind::NegacyclicPolymul { rhs } => rhs.clone(),
                        _ => unreachable!("group holds only polymul jobs"),
                    })
                    .collect();
                cpu.negacyclic_polymul_batch(&mut batch, &rhs, q)?
            }
        };
        for (&i, data) in idx.iter().zip(batch) {
            spectra[i] = data;
        }
    }
    Ok((spectra, lane_jobs))
}

/// One same-`(kind, n, q)` group of a batch: the unit the lane-batched
/// CPU kernel runs ([`run_lane_batched`]) and the CPU lanes' cost model
/// prices, so modeled timing follows executed grouping exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobGroup {
    /// Kind tag ([`JobKind::lane_tag`]).
    pub tag: u8,
    /// Transform length.
    pub n: usize,
    /// Modulus.
    pub q: u64,
    /// Indices into the batch, in arrival order.
    pub indices: Vec<usize>,
}

/// Groups a batch by `(kind, n, q)` in first-seen order; indices count
/// the jobs as `jobs` yields them. Few distinct combinations occur per
/// micro-batch, so a linear scan keeps the order without hashing.
pub fn group_jobs<'a>(jobs: impl IntoIterator<Item = &'a NttJob>) -> Vec<JobGroup> {
    let mut groups: Vec<JobGroup> = Vec::new();
    for (i, job) in jobs.into_iter().enumerate() {
        let (tag, n, q) = (job.kind.lane_tag(), job.n(), job.q);
        match groups
            .iter_mut()
            .find(|g| g.tag == tag && g.n == n && g.q == q)
        {
            Some(g) => g.indices.push(i),
            None => groups.push(JobGroup {
                tag,
                n,
                q,
                indices: vec![i],
            }),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn job(n: usize, seed: u64) -> NttJob {
        NttJob::new(poly(n, Q, seed), Q)
    }

    /// The sequential baseline: each job alone on the golden engine's
    /// scalar entry points.
    fn golden_each(jobs: &[NttJob]) -> Vec<Vec<u64>> {
        let cpu = CpuNttEngine::golden();
        jobs.iter()
            .map(|job| {
                let mut data = job.coeffs.clone();
                match &job.kind {
                    JobKind::Forward | JobKind::SplitLarge => cpu.forward(&mut data, job.q),
                    JobKind::Inverse => cpu.inverse(&mut data, job.q),
                    JobKind::NegacyclicPolymul { rhs } => {
                        cpu.negacyclic_polymul(&mut data, rhs, job.q)
                    }
                }
                .unwrap();
                data
            })
            .collect()
    }

    #[test]
    fn bounded_memo_stays_within_its_cap() {
        let weight = |k: u32| (k % 4) as usize + 1;
        let mut memo: BoundedMemo<u32, u32> = BoundedMemo::new(10);
        for k in 0..100 {
            memo.insert(k, k, weight(k));
            assert!(memo.weight <= 10, "weight {} after key {k}", memo.weight);
            let held: usize = memo.map.keys().map(|&k| weight(k)).sum();
            assert_eq!(memo.weight, held, "weight accounting after key {k}");
        }
        // The last insert fit, so the memo still holds it; an entry
        // heavier than the cap is never kept and evicts nothing.
        assert_eq!(memo.get(&99), Some(99));
        let before = memo.map.len();
        memo.insert(1000, 0, 11);
        assert_eq!(memo.get(&1000), None);
        assert_eq!(memo.map.len(), before);
        // Re-inserting a held key changes nothing.
        let weight_before = memo.weight;
        memo.insert(99, 7, 3);
        assert_eq!((memo.get(&99), memo.weight), (Some(99), weight_before));
        assert_eq!((memo.hits, memo.misses), (2, 1));
        memo.clear();
        assert_eq!((memo.map.len(), memo.weight), (0, 0));
    }

    #[test]
    fn replacing_the_device_or_cost_model_drops_memoized_artifacts() {
        let jobs: Vec<NttJob> = (0..4).map(|i| job(256, 60 + i)).collect();
        let config = PimConfig::hbm2e(2).with_banks(2);
        let mut exec = BatchExecutor::new(config).unwrap();
        exec.run(&jobs).unwrap();
        // A replaced cost model may pack differently: the plans go.
        *exec.cost_model() = DeviceCostModel::new(config).unwrap();
        exec.run(&jobs).unwrap();
        let stats = exec.memo_stats();
        assert_eq!((stats.batch_hits, stats.batch_misses), (0, 2));
        assert_eq!((stats.program_hits, stats.program_misses), (7, 1));
        // A replaced device maps and times differently: everything goes.
        let other = PimConfig::hbm2e(4).with_banks(2);
        *exec.device_mut() = PimDevice::new(other).unwrap();
        let out = exec.run(&jobs).unwrap();
        let stats = exec.memo_stats();
        assert_eq!((stats.batch_hits, stats.batch_misses), (0, 3));
        assert_eq!(stats.programs, 1, "one program, mapped for the new device");
        let mut fresh = BatchExecutor::new(other).unwrap();
        let want = fresh.run(&jobs).unwrap();
        assert_eq!(out.spectra, want.spectra);
        assert_eq!(out.latency_ns, want.latency_ns);
        assert_eq!(out.bus_slots, want.bus_slots);
    }

    #[test]
    fn split_large_matches_golden_forward_bit_exactly() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let n = 1024;
        let jobs = vec![NttJob::split_large(poly(n, Q, 77), Q)];
        let out = exec.run(&jobs).unwrap();
        let cpu = CpuNttEngine::golden();
        let mut expect = jobs[0].coeffs.clone();
        cpu.forward(&mut expect, Q).unwrap();
        assert_eq!(out.spectra[0], expect, "split result must be bit-identical");
        // The split fanned across all four banks and reported its stages.
        assert_eq!(out.splits.len(), 1);
        let sr = &out.splits[0];
        assert_eq!((sr.job, sr.rows, sr.cols), (0, 32, 32));
        assert!(sr.column_stage_ns > 0.0);
        assert!(sr.latency_ns > sr.column_stage_ns);
        assert_eq!(out.queue_report.barrier_ns.len(), 1);
        assert!(out.assignment.iter().all(|bank| bank == &vec![0]));
        assert_eq!(out.job_latency_ns[0], sr.latency_ns);
    }

    #[test]
    fn split_co_packs_with_ordinary_jobs_without_starvation() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let n_small = 256;
        let mut jobs: Vec<NttJob> = (0..4).map(|i| job(n_small, 800 + i)).collect();
        jobs.push(NttJob::split_large(poly(1024, Q, 801), Q));
        let out = exec.run(&jobs).unwrap();
        let cpu = CpuNttEngine::golden();
        for (i, j) in jobs.iter().enumerate() {
            let mut expect = j.coeffs.clone();
            cpu.forward(&mut expect, j.q).unwrap();
            assert_eq!(out.spectra[i], expect, "job {i}");
        }
        // No starvation: every ordinary job completes before the split's
        // row stage has drained (they are never gated on the barrier).
        let split_end = out.splits[0].latency_ns;
        for i in 0..4 {
            assert!(
                out.job_latency_ns[i] < split_end,
                "small job {i} ({} ns) starved behind the split ({split_end} ns)",
                out.job_latency_ns[i]
            );
        }
    }

    #[test]
    fn split_plan_expands_units_and_orders_rows_last() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let jobs = vec![job(256, 1), NttJob::split_large(poly(1024, Q, 2), Q)];
        let plan = exec.plan(&jobs).unwrap();
        // 1 ordinary + 32 columns + 32 rows.
        assert_eq!(plan.units.len(), 65);
        assert_eq!(plan.costs.len(), 65);
        assert_eq!(plan.units[0], PlanUnit::Job(0));
        let cols = plan
            .units
            .iter()
            .filter(|u| matches!(u, PlanUnit::SplitColumn { job: 1, .. }))
            .count();
        let rows = plan
            .units
            .iter()
            .filter(|u| matches!(u, PlanUnit::SplitRow { job: 1, .. }))
            .count();
        assert_eq!((cols, rows), (32, 32));
        // Within every bank queue, all rows sit after all non-rows.
        for queue in &plan.queues {
            let first_row = queue
                .iter()
                .position(|&u| matches!(plan.units[u], PlanUnit::SplitRow { .. }));
            if let Some(pos) = first_row {
                assert!(queue[pos..]
                    .iter()
                    .all(|&u| matches!(plan.units[u], PlanUnit::SplitRow { .. })));
            }
        }
    }

    #[test]
    fn split_validation_reports_bad_lengths() {
        let config = PimConfig::hbm2e(2).with_banks(4);
        // Not a power of two: caught by the generic length check.
        let err = validate_job(&config, &NttJob::split_large(vec![0; 48], Q)).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("power of two")),
            "{err}"
        );
        // N = 8 only factors as 2×4: below the device sub-job minimum.
        let err = validate_job(&config, &NttJob::split_large(poly(8, Q, 1), Q)).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("minimum")),
            "{err}"
        );
        // Valid split length passes.
        assert!(validate_job(&config, &NttJob::split_large(poly(1024, Q, 4), Q)).is_ok());
    }

    #[test]
    fn sequential_and_lane_batched_treat_split_as_forward() {
        let jobs = vec![
            NttJob::split_large(poly(256, Q, 5), Q),
            NttJob::forward(poly(256, Q, 5), Q),
        ];
        let seq = golden_each(&jobs);
        assert_eq!(seq[0], seq[1], "split == forward on the golden engine");
        let (batched, _) = run_lane_batched(&CpuNttEngine::golden(), &jobs).unwrap();
        assert_eq!(batched, seq);
    }

    #[test]
    fn batch_matches_cpu_reference_per_job() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let jobs: Vec<NttJob> = (0..6).map(|i| job(256, 100 + i)).collect();
        let out = exec.run(&jobs).unwrap();
        assert_eq!(
            out.queue_report.depth(),
            2,
            "6 jobs over 4 banks: queues are 2 deep"
        );
        let cpu = CpuNttEngine::golden();
        for (i, j) in jobs.iter().enumerate() {
            let mut expect = j.coeffs.clone();
            cpu.forward(&mut expect, j.q).unwrap();
            assert_eq!(out.spectra[i], expect, "job {i}");
        }
    }

    #[test]
    fn mixed_job_kinds_coexist_and_match_golden() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(4).with_banks(2)).unwrap();
        let a = poly(256, Q, 21);
        let b = poly(256, Q, 22);
        let jobs = vec![
            NttJob::forward(poly(256, Q, 23), Q),
            NttJob::inverse(poly(256, Q, 24), Q),
            NttJob::negacyclic_polymul(a.clone(), b.clone(), Q),
        ];
        let out = exec.run(&jobs).unwrap();
        let cpu = CpuNttEngine::golden();
        let mut fwd = jobs[0].coeffs.clone();
        cpu.forward(&mut fwd, Q).unwrap();
        assert_eq!(out.spectra[0], fwd, "forward");
        let mut inv = jobs[1].coeffs.clone();
        cpu.inverse(&mut inv, Q).unwrap();
        assert_eq!(out.spectra[1], inv, "inverse");
        let mut prod = a;
        cpu.negacyclic_polymul(&mut prod, &b, Q).unwrap();
        assert_eq!(out.spectra[2], prod, "polymul");
        // The polymul is the heavy job: LPT puts it alone on a bank.
        let heavy_bank = out.assignment.iter().position(|q| q.contains(&2)).unwrap();
        assert_eq!(out.assignment[heavy_bank], vec![2]);
    }

    #[test]
    fn merged_report_accounts_all_banks_and_energy() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let jobs: Vec<NttJob> = (0..8).map(|i| job(256, 200 + i)).collect();
        let out = exec.run(&jobs).unwrap();
        let qr = &out.queue_report;
        assert_eq!(qr.job_end_ns.len(), 4);
        assert!(qr.job_end_ns.iter().all(|ends| ends.len() == 2));
        assert!(qr.per_bank_ns.iter().all(|&busy| busy > 0.0));
        assert!(qr.per_bank_energy_nj.iter().all(|&nj| nj > 0.0));
        let bank_energy: f64 = qr.per_bank_energy_nj.iter().sum();
        assert!((bank_energy - out.energy_nj).abs() < 1e-6 * out.energy_nj.max(1.0));
        assert!(out.bus_slots > 0);
        assert!(qr.rank_acts >= 8, "at least one ACT per job");
        assert!(out.throughput_jobs_per_s() > 0.0);
        assert!(out.job_latency_ns.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn mixed_moduli_jobs_coexist_in_one_batch() {
        // RNS-style: different q per job, same batch.
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        let q2 = 7681u64; // supports N=256 (512 | 7680)
        let mut j2 = job(256, 7);
        j2.q = q2;
        j2.coeffs.iter_mut().for_each(|c| *c %= q2);
        let jobs = vec![job(256, 5), j2];
        let out = exec.run(&jobs).unwrap();
        let cpu = CpuNttEngine::golden();
        for (i, j) in jobs.iter().enumerate() {
            let mut expect = j.coeffs.clone();
            cpu.forward(&mut expect, j.q).unwrap();
            assert_eq!(out.spectra[i], expect, "job {i}");
        }
    }

    #[test]
    fn queues_overflow_into_waves() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        let jobs: Vec<NttJob> = (0..5).map(|i| job(64, 300 + i)).collect();
        let out = exec.run(&jobs).unwrap();
        assert_eq!(
            out.queue_report.depth(),
            3,
            "5 equal jobs over 2 banks: 3+2"
        );
        assert_eq!(out.queue_report.job_end_ns[0].len(), 3);
        assert_eq!(out.queue_report.job_end_ns[1].len(), 2);
    }

    #[test]
    fn whole_batch_is_validated_before_any_issue() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        // Job 2 carries a non-prime modulus: the error must name it and
        // nothing may have executed (a subsequent valid batch still runs
        // from clean state).
        let jobs = vec![job(64, 1), job(64, 2), NttJob::new(vec![1; 64], 65535)];
        let err = exec.run(&jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("job 2")),
            "{err}"
        );
        // 2N ∤ q-1 (q=7681 stops at N=256) is caught up front too.
        let jobs = vec![NttJob::new(poly(1024, 7681, 3), 7681)];
        let err = exec.run(&jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("job 0")
                && reason.contains("root of unity")),
            "{err}"
        );
        // Mismatched polymul operands name the job as well.
        let jobs = vec![
            job(64, 4),
            NttJob::negacyclic_polymul(poly(64, Q, 5), poly(128, Q, 6), Q),
        ];
        let err = exec.run(&jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("job 1")
                && reason.contains("lengths differ")),
            "{err}"
        );
        // Clean state: a valid batch still verifies.
        let jobs: Vec<NttJob> = (0..2).map(|i| job(64, 400 + i)).collect();
        let out = exec.run(&jobs).unwrap();
        let cpu = CpuNttEngine::golden();
        let mut expect = jobs[0].coeffs.clone();
        cpu.forward(&mut expect, Q).unwrap();
        assert_eq!(out.spectra[0], expect);
    }

    /// With in-place update off, `run` refuses the batch before anything
    /// runs: the ping-pong ablation would leave each result outside the
    /// region the executor reads. No program is mapped, no batch is
    /// planned and no operand reaches a bank.
    #[test]
    fn run_refuses_the_ping_pong_ablation() {
        for n in [64usize, 256] {
            let mut device = PimDevice::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
            device.set_mapper_options(MapperOptions {
                in_place_update: false,
                ..MapperOptions::default()
            });
            let mut exec = BatchExecutor::from_device(device);
            let jobs = vec![
                job(n, 1),
                NttJob::inverse(poly(n, Q, 2), Q),
                NttJob::negacyclic_polymul(poly(n, Q, 3), poly(n, Q, 4), Q),
            ];
            let err = exec.run(&jobs).unwrap_err();
            assert!(
                matches!(&err, EngineError::Pim(PimError::BadConfig { reason })
                    if reason.contains("in_place_update")),
                "n={n}: {err}"
            );
            assert_eq!(exec.memo_stats(), MemoStats::default(), "n={n}");
            let span = 2 * exec.config().polymul_rhs_base(n);
            for bank in 0..exec.bank_count() {
                let dev = exec.device_mut();
                let region = dev
                    .operand(bank, 0, vec![0; span], Q as u32, StoredOrder::Natural)
                    .unwrap();
                let words = dev.read_polynomial(region.handle()).unwrap();
                assert!(words.iter().all(|&w| w == 0), "n={n} bank {bank}");
            }
        }
    }

    #[test]
    fn a_shared_composite_modulus_names_its_first_job() {
        // Each distinct modulus is tested for primality once per batch;
        // a composite one still fails at the first job that carries it.
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        let composite = || NttJob::new(vec![1; 64], 65535);
        let jobs = vec![job(64, 1), composite(), job(64, 2), composite()];
        let err = exec.run(&jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason == "job 1: q=65535 is not prime"),
            "{err}"
        );
    }

    #[test]
    fn oversized_jobs_are_rejected_with_their_index() {
        // Shrink the bank to 4 rows (1024 words): a length-2048 job can
        // never fit, and must be rejected before anything runs.
        let mut config = PimConfig::hbm2e(2).with_banks(2);
        config.geometry.rows_per_bank = 4;
        let mut exec = BatchExecutor::new(config).unwrap();
        let jobs = vec![job(64, 1), NttJob::new(poly(2048, Q, 2), Q)];
        let err = exec.run(&jobs).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("job 1")
                && reason.contains("exceeds bank")),
            "{err}"
        );
    }

    #[test]
    fn malformed_jobs_rejected() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2)).unwrap();
        let bad = NttJob::new(vec![1, 2, 3], Q); // not a power of two
        assert!(matches!(exec.run(&[bad]), Err(EngineError::Shape { .. })));
        let unreduced = NttJob::new(vec![Q; 64], Q);
        assert!(matches!(
            exec.run(&[unreduced]),
            Err(EngineError::Shape { .. })
        ));
    }

    #[test]
    fn plan_exposes_costs_and_respects_policy() {
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        let jobs = vec![job(256, 1), job(1024, 2), job(256, 3)];
        let plan = exec.plan(&jobs).unwrap();
        assert_eq!(plan.costs.len(), 3);
        assert!(plan.costs[1] > plan.costs[0], "bigger job costs more");
        // The N=1024 job runs alone; the two N=256 jobs share a bank.
        let big_bank = plan.queues.iter().position(|q| q.contains(&1)).unwrap();
        assert_eq!(plan.queues[big_bank], vec![1]);
        assert_eq!(plan.queues[1 - big_bank].len(), 2);
        // Cost memo: same lengths resolve without re-running the mapper.
        assert_eq!(plan.costs[0], plan.costs[2]);
    }

    #[test]
    fn sharded_topology_runs_and_reports_per_channel() {
        let config = PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 2));
        let mut exec = BatchExecutor::new(config).unwrap();
        assert_eq!(exec.bank_count(), 8);
        assert_eq!(exec.topology(), Topology::new(2, 2, 2));
        let jobs: Vec<NttJob> = (0..10).map(|i| job(256, 900 + i)).collect();
        let out = exec.run(&jobs).unwrap();
        let qr = &out.queue_report;
        assert_eq!(qr.per_channel_bus_slots.len(), 2);
        assert_eq!(qr.per_channel_bus_slots.iter().sum::<u64>(), out.bus_slots);
        assert_eq!(qr.per_bank_ns.len(), 8);
        // Values are topology-independent: the flat single-rank device
        // with the same total bank count computes identical spectra.
        let mut flat = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(8)).unwrap();
        assert_eq!(out.spectra, flat.run(&jobs).unwrap().spectra);
    }

    #[test]
    fn validate_job_is_the_per_request_admission_check() {
        let config = PimConfig::hbm2e(2);
        assert!(validate_job(&config, &job(256, 1)).is_ok());
        let err = validate_job(&config, &NttJob::new(vec![1; 64], 65535)).unwrap_err();
        assert!(
            matches!(&err, EngineError::Shape { reason } if reason.contains("not prime")
                && !reason.contains("job ")),
            "no index in the per-request form: {err}"
        );
        let err = validate_job(&config, &NttJob::new(vec![1, 2, 3], Q)).unwrap_err();
        assert!(matches!(&err, EngineError::Shape { reason } if reason.contains("power of two")));
    }

    #[test]
    fn sequential_baseline_agrees_functionally() {
        let jobs: Vec<NttJob> = (0..3).map(|i| job(128, 400 + i)).collect();
        let mut exec = BatchExecutor::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let batch = exec.run(&jobs).unwrap();
        assert_eq!(batch.spectra, golden_each(&jobs));
    }

    #[test]
    fn lane_batched_matches_sequential_on_mixed_kinds_and_moduli() {
        let q2 = 7681u64; // also supports N=256
        let mut jobs = Vec::new();
        // 9 forwards at Q (one lane group + tail), 9 inverses, 3 polymuls
        // (all-scalar: below the lane width), 2 forwards at q2.
        for i in 0..9u64 {
            jobs.push(NttJob::forward(poly(256, Q, 1000 + i), Q));
        }
        for i in 0..9u64 {
            jobs.push(NttJob::inverse(poly(256, Q, 1100 + i), Q));
        }
        for i in 0..3u64 {
            jobs.push(NttJob::negacyclic_polymul(
                poly(256, Q, 1200 + i),
                poly(256, Q, 1300 + i),
                Q,
            ));
        }
        for i in 0..2u64 {
            jobs.push(NttJob::forward(poly(256, q2, 1400 + i), q2));
        }
        // Interleave kinds so the grouping has to reorder and scatter.
        jobs.swap(0, 12);
        jobs.swap(5, 21);
        let (batched, lane_jobs) = run_lane_batched(&CpuNttEngine::golden(), &jobs).unwrap();
        assert_eq!(
            batched,
            golden_each(&jobs),
            "lane-batched spectra must be bit-identical"
        );
        let lane = crate::reference::lanes::LANE_WIDTH;
        assert_eq!(
            lane_jobs,
            2 * lane,
            "one full lane group each for the forward and inverse groups"
        );
    }

    #[test]
    fn lane_batched_handles_empty_and_propagates_errors() {
        let cpu = CpuNttEngine::golden();
        let (spectra, lane_jobs) = run_lane_batched(&cpu, &[]).unwrap();
        assert!(spectra.is_empty());
        assert_eq!(lane_jobs, 0);
        // Unreduced coefficients fail validation before anything runs.
        let bad = NttJob::forward(vec![Q; 64], Q);
        assert!(matches!(
            run_lane_batched(&cpu, &[bad]),
            Err(EngineError::Shape { .. })
        ));
        // Mismatched polymul operands are rejected too.
        let bad = NttJob::negacyclic_polymul(poly(64, Q, 1), poly(128, Q, 2), Q);
        assert!(matches!(
            run_lane_batched(&cpu, &[bad]),
            Err(EngineError::Shape { .. })
        ));
    }
}
