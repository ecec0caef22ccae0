//! Host interface — the paper's §IV.A: "our NTT function can be invoked
//! as a write request … The input data is assumed to be already in the
//! memory; thus, only the address is passed. … The result is stored at the
//! same location as the input, and a write response is given to the
//! request initiator."
//!
//! [`PimDevice`] bundles the memory controller (mapper + scheduler) with
//! per-bank functional simulators, so every request returns both a timing
//! report *and* actually-computed values. Host-side work the paper assigns
//! to the CPU (bit reversal, DMA) happens in [`PimDevice::load_polynomial`]
//! / [`PimDevice::read_polynomial`] and is excluded from reported latency,
//! matching the paper's measurement boundary ("except the bit reversal,
//! which is common in all the compared works").
//!
//! Banks share no values, so [`PimDevice::run_banks`] executes one list
//! of (operand loads, decoded program, read-back) per bank with the banks
//! on concurrent host threads: the caller and the process-wide pool in
//! [`crate::helpers`]. Each busy bank's simulator moves to the thread
//! that runs it, with its list of owned [`BankStep`]s, and comes back to
//! the device afterwards. The facade's `BatchExecutor`, the one batch
//! path, runs through it; this module serves single requests (the paper
//! path) and the primitives that executor is built from.
//!
//! Host DMA touches each word once each way. [`OperandWords`] checks a
//! job's `u64` coefficients, narrows them and lays them out in storage
//! order in one pass, so writing an [`Operand`] into its bank is one
//! copy; [`PimDevice::run_banks`] reads each result back in logical
//! order straight into `u64` words, on the thread that ran the bank.

use crate::config::PimConfig;
use crate::energy::EnergyReport;
use crate::helpers;
use crate::layout::PolyLayout;
use crate::mapper::{self, Dataflow, MapperOptions, NttParams, Program};
use crate::sched::{self, Timeline};
use crate::sim::{DecodedProgram, FunctionalSim};
use crate::PimError;
use modmath::bitrev::for_each_bitrev_pair;
use std::sync::Arc;

/// Transform direction for [`PimDevice::ntt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttDirection {
    /// Time domain → NTT domain.
    Forward,
    /// NTT domain → time domain (includes the `N⁻¹` scaling pass).
    Inverse,
}

/// How a polynomial's memory image relates to its logical coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredOrder {
    /// Memory word `i` holds coefficient `i`.
    Natural,
    /// Memory word `i` holds coefficient `bitrev(i)`.
    BitReversed,
}

/// A polynomial resident in a PIM bank.
#[derive(Debug, Clone, Copy)]
pub struct PolyHandle {
    layout: PolyLayout,
    bank: usize,
    q: u32,
    order: StoredOrder,
}

impl PolyHandle {
    /// Transform length.
    pub fn n(&self) -> usize {
        self.layout.n()
    }

    /// The modulus this polynomial lives in.
    pub fn modulus(&self) -> u32 {
        self.q
    }

    /// Which bank holds the data.
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Current memory ordering.
    pub fn order(&self) -> StoredOrder {
        self.order
    }

    /// Overrides the recorded storage order.
    ///
    /// For callers that drive mapped programs manually through
    /// [`PimDevice::build_ntt_program`] + [`PimDevice::execute_program`]:
    /// executing a transform program changes the memory image's ordering,
    /// and the handle's bookkeeping must follow (a forward DIT program
    /// turns bit-reversed storage natural; an inverse DIF program does
    /// the opposite). [`PimDevice::ntt_in_place`] does this automatically.
    pub fn assume_order(&mut self, order: StoredOrder) {
        self.order = order;
    }
}

/// Coefficients laid out the way a bank stores them, every word reduced
/// modulo `q`: word `i` holds coefficient `i` in
/// [`StoredOrder::Natural`] order and coefficient `bitrev(i)` in
/// [`StoredOrder::BitReversed`] order. Only the checked constructors make
/// one, each in one pass over the coefficients that checks, narrows and
/// permutes them; [`PimDevice::bind`] then gives it a bank region.
#[derive(Debug, Clone)]
pub struct OperandWords {
    words: Vec<u32>,
    q: u32,
    order: StoredOrder,
}

impl OperandWords {
    /// Natural-order `coeffs`, checked against `q`, narrowed to `u32` and
    /// laid out in `order`, in one pass.
    ///
    /// # Errors
    ///
    /// As [`Self::gather`].
    pub fn new(coeffs: &[u64], q: u32, order: StoredOrder) -> Result<Self, PimError> {
        Self::gather(coeffs.len(), q, order, |i| coeffs[i])
    }

    /// The `n` natural-order coefficients `coeff(0), …, coeff(n − 1)`,
    /// checked against `q`, narrowed to `u32` and laid out in `order`, in
    /// one pass that calls `coeff` once per index: a strided gather (a
    /// split transform's column or row) lands in storage order directly.
    ///
    /// # Errors
    ///
    /// [`PimError::BadRegion`] when a coefficient is not reduced modulo
    /// `q`, or when a bit-reversed image's length is not a power of two.
    pub fn gather(
        n: usize,
        q: u32,
        order: StoredOrder,
        mut coeff: impl FnMut(usize) -> u64,
    ) -> Result<Self, PimError> {
        let q64 = u64::from(q);
        // Stays set in the top bit while every coefficient is below
        // `q < 2³²`: `c − q` wraps negative exactly when `c < q`, and
        // `!c` has its top bit set for every `c < 2⁶³`. An AND of 64-bit
        // words keeps the loop branch-free.
        let mut reduced = u64::MAX;
        let mut words = vec![0; n];
        let mut put = |word: &mut u32, c: u64| {
            reduced &= c.wrapping_sub(q64) & !c;
            *word = c as u32;
        };
        match order {
            StoredOrder::Natural => {
                for (i, word) in words.iter_mut().enumerate() {
                    put(word, coeff(i));
                }
            }
            StoredOrder::BitReversed => {
                if !n.is_power_of_two() {
                    return Err(PimError::BadRegion {
                        reason: format!("bit-reversed length {n} is not a power of two"),
                    });
                }
                for_each_bitrev_pair(n, |i, j| put(&mut words[j], coeff(i)));
            }
        }
        if reduced >> 63 == 0 {
            return Err(PimError::BadRegion {
                reason: "coefficients must be reduced modulo q".into(),
            });
        }
        Ok(Self { words, q, order })
    }

    /// Number of coefficients.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether there are no coefficients.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Checked words bound to one bank region ([`PimDevice::bind`],
/// [`PimDevice::operand`]), so that writing them cannot fail: the bank
/// exists, the region fits it, and every word is reduced. The words are
/// already in storage order, so the write is one copy.
#[derive(Debug, Clone)]
pub struct Operand {
    handle: PolyHandle,
    words: Vec<u32>,
}

impl Operand {
    /// Where the words go, and the order they are stored in.
    pub fn handle(&self) -> &PolyHandle {
        &self.handle
    }
}

/// One program in a bank's list for [`PimDevice::run_banks`]: operands
/// written first, then the program, then the read-back. A step owns what
/// it touches, so it can move to whichever thread runs its bank; the
/// program is shared, since many banks often run the same one.
#[derive(Debug, Clone)]
pub struct BankStep {
    /// Operands written into the bank, in order, before the program runs
    /// (empty when the operands are already resident).
    pub loads: Vec<Operand>,
    /// The program, decoded for this device ([`PimDevice::decode_program`]).
    pub program: Arc<DecodedProgram>,
    /// The polynomial read back, in logical order, after the program ran;
    /// `None` reads nothing.
    pub read: Option<PolyHandle>,
}

/// Host DMA of a checked operand: its words are in storage order, so
/// this is one copy into its region.
fn write(sim: &mut FunctionalSim, operand: &Operand) {
    let Operand { handle, words } = operand;
    sim.words_mut(handle.layout.base_word(), words.len())
        .copy_from_slice(words);
}

/// Host DMA of a polynomial back in logical order, in one pass over its
/// region, widened to `T`: `u32` words for [`PimDevice::read_polynomial`],
/// the `u64` words of a batch's spectra for [`PimDevice::run_banks`].
fn read<T: Copy + Default + From<u32>>(sim: &FunctionalSim, handle: &PolyHandle) -> Vec<T> {
    let region = sim.words(handle.layout.base_word(), handle.n());
    match handle.order {
        StoredOrder::Natural => region.iter().map(|&w| T::from(w)).collect(),
        StoredOrder::BitReversed => {
            let mut data = vec![T::default(); region.len()];
            for_each_bitrev_pair(region.len(), |i, j| data[i] = T::from(region[j]));
            data
        }
    }
}

/// Timing/energy/accounting result of one device request.
#[derive(Debug, Clone)]
pub struct NttReport {
    /// The full timed schedule (render with
    /// [`Timeline::render_ascii`]).
    pub timeline: Timeline,
    /// Energy summary.
    pub energy: EnergyReport,
    /// Logical commands issued (excluding inserted ACT/PRE).
    pub logical_commands: usize,
    /// C1 (intra-atom NTT) commands.
    pub c1_ops: usize,
    /// C2 (vectorized butterfly) commands.
    pub c2_ops: usize,
}

impl NttReport {
    /// Request latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.timeline.latency_ns()
    }

    /// Request latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.timeline.latency_us()
    }

    /// Row activations performed.
    pub fn activations(&self) -> u64 {
        self.timeline.activations()
    }

    fn from_parts(timeline: Timeline, program: &Program) -> Self {
        let energy = EnergyReport::from_timeline(&timeline);
        Self {
            energy,
            logical_commands: program.len(),
            c1_ops: program.c1_ops,
            c2_ops: program.c2_ops,
            timeline,
        }
    }
}

/// Result of a per-bank job-queue request ([`PimDevice::schedule_queues`];
/// the facade's `BatchExecutor` reports every batch in this form): banks
/// drain their queues asynchronously — each advances to its next job as
/// soon as the previous finishes — coupled only through the shared
/// command bus and the rank's tRRD/tFAW window, never a full-chip
/// barrier.
#[derive(Debug, Clone)]
pub struct QueueReport {
    /// Per-bank completion times, ns (indexed by bank id).
    pub per_bank_ns: Vec<f64>,
    /// Per-bank energy, nJ (same order as `per_bank_ns`).
    pub per_bank_energy_nj: Vec<f64>,
    /// Completion time of each queued job, ns, measured from batch start:
    /// `job_end_ns[b][j]` is when bank `b` finished its `j`-th job.
    pub job_end_ns: Vec<Vec<f64>>,
    /// Batch latency (slowest bank), ns.
    pub latency_ns: f64,
    /// Total energy across banks, nJ.
    pub energy_nj: f64,
    /// Command-bus slots the batch consumed (summed over channels).
    pub bus_slots: u64,
    /// Rank-level activations (summed over ranks).
    pub rank_acts: u64,
    /// Bus slots per channel — how evenly the hierarchical scheduler
    /// spread bus pressure across the topology's channels.
    pub per_channel_bus_slots: Vec<u64>,
    /// Activations per rank (global rank order, `channel * ranks + rank`).
    pub per_rank_acts: Vec<u64>,
    /// Completion time of each dependency barrier, ns from batch start
    /// (dense barrier-id order). Empty for barrier-free schedules; filled
    /// by [`PimDevice::schedule_queues_dag`] — for a split large
    /// transform, `barrier_ns[k]` is the stage boundary where the last
    /// column sub-job finished and the row stage became eligible.
    pub barrier_ns: Vec<f64>,
}

impl QueueReport {
    /// An all-zero report shaped for a `channels × ranks × banks` device:
    /// the starting point of a backend that fills its report in by hand
    /// (the bus crate's CPU-lane and published-model backends).
    pub fn empty(total_banks: usize, channels: usize, total_ranks: usize) -> Self {
        Self {
            per_bank_ns: vec![0.0; total_banks],
            per_bank_energy_nj: vec![0.0; total_banks],
            job_end_ns: vec![Vec::new(); total_banks],
            latency_ns: 0.0,
            energy_nj: 0.0,
            bus_slots: 0,
            rank_acts: 0,
            per_channel_bus_slots: vec![0; channels],
            per_rank_acts: vec![0; total_ranks],
            barrier_ns: Vec::new(),
        }
    }

    /// Jobs timed across all banks.
    pub fn job_count(&self) -> usize {
        self.job_end_ns.iter().map(Vec::len).sum()
    }

    /// Depth of the schedule: the most jobs any one bank ran.
    pub fn depth(&self) -> usize {
        self.job_end_ns.iter().map(Vec::len).max().unwrap_or(0)
    }

    fn from_queues(qt: &sched::QueueTimeline) -> Self {
        let per_bank_energy_nj: Vec<f64> = qt.banks.iter().map(|t| t.energy.total_nj()).collect();
        Self {
            per_bank_ns: qt.banks.iter().map(|t| t.latency_ns()).collect(),
            energy_nj: per_bank_energy_nj.iter().sum(),
            per_bank_energy_nj,
            job_end_ns: qt
                .job_end_ps
                .iter()
                .map(|ends| ends.iter().map(|&ps| ps as f64 / 1000.0).collect())
                .collect(),
            latency_ns: qt.latency_ns(),
            bus_slots: qt.bus_slots,
            rank_acts: qt.rank_acts,
            per_channel_bus_slots: qt.per_channel_bus_slots.clone(),
            per_rank_acts: qt.per_rank_acts.clone(),
            barrier_ns: qt.barrier_ps.iter().map(|&ps| ps as f64 / 1000.0).collect(),
        }
    }
}

/// The PIM device: configuration, mapper defaults, and per-bank state.
///
/// Each bank has its own functional simulator. Single requests run in
/// one bank on the calling thread; [`Self::run_banks`] runs many banks'
/// programs at once, each bank on one host thread.
#[derive(Debug, Clone)]
pub struct PimDevice {
    config: PimConfig,
    opts: MapperOptions,
    banks: Vec<FunctionalSim>,
}

impl PimDevice {
    /// Creates a device with zeroed banks.
    ///
    /// # Errors
    ///
    /// Propagates [`PimError::BadConfig`] from validation.
    pub fn new(config: PimConfig) -> Result<Self, PimError> {
        config.validate()?;
        // One functional simulator per *global* bank across the whole
        // `channels × ranks × banks` topology (values are independent of
        // where a bank sits; only timing sees the hierarchy).
        let banks = (0..config.total_banks())
            .map(|_| FunctionalSim::new(&config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            config,
            opts: MapperOptions::default(),
            banks,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Overrides the mapper options (ablation studies).
    pub fn set_mapper_options(&mut self, opts: MapperOptions) {
        self.opts = opts;
    }

    /// The mapper options requests run with.
    pub fn mapper_options(&self) -> &MapperOptions {
        &self.opts
    }

    /// Checks that a request can run under the device's mapper options.
    ///
    /// With `in_place_update` off (the §III.C ping-pong ablation) each
    /// stage writes to a scratch region and the result ends where
    /// [`Program::final_base`] says. The request paths — [`Self::ntt`],
    /// [`Self::ntt_in_place`], [`Self::polymul_negacyclic`] and the
    /// facade's `BatchExecutor::run` — read the operand's own region,
    /// and an inverse's `N⁻¹` pass and a product's later passes are
    /// mapped over the operand's layout, so they would return wrong
    /// values. They call this first and run nothing when it fails. The
    /// program builders, [`mapper::map_ntt`] and [`Self::run_banks`]
    /// still take the ablation: its programs map, schedule and run, and
    /// their results are read at `final_base`.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] naming `in_place_update` when it is off.
    pub fn check_in_place(&self) -> Result<(), PimError> {
        if self.opts.in_place_update {
            return Ok(());
        }
        Err(PimError::BadConfig {
            reason: "mapper option in_place_update is off: the ping-pong ablation leaves \
                     a request's result outside its operand's region; build, run and read \
                     its programs at Program::final_base instead"
                .into(),
        })
    }

    /// Loads natural-order coefficients into bank 0 at `base_word`,
    /// bit-reversing on the host first (the layout the forward DIT
    /// transform expects).
    ///
    /// # Errors
    ///
    /// Region and parameter errors as in [`PolyLayout::new`].
    pub fn load_polynomial_bitrev(
        &mut self,
        base_word: usize,
        coeffs: &[u32],
        q: u32,
    ) -> Result<PolyHandle, PimError> {
        self.load_in_bank(0, base_word, coeffs, q, StoredOrder::BitReversed)
    }

    /// Loads natural-order coefficients as-is (for the DIF forward path
    /// and element-wise operations).
    ///
    /// # Errors
    ///
    /// Region and parameter errors as in [`PolyLayout::new`].
    pub fn load_polynomial(
        &mut self,
        base_word: usize,
        coeffs: &[u32],
        q: u32,
    ) -> Result<PolyHandle, PimError> {
        self.load_in_bank(0, base_word, coeffs, q, StoredOrder::Natural)
    }

    /// Loads into an explicit bank (bank-parallel workloads).
    ///
    /// # Errors
    ///
    /// Region errors, plus [`PimError::BadConfig`] for a bad bank index.
    pub fn load_in_bank(
        &mut self,
        bank: usize,
        base_word: usize,
        coeffs: &[u32],
        q: u32,
        order: StoredOrder,
    ) -> Result<PolyHandle, PimError> {
        let operand = self.checked(bank, base_word, coeffs, q, order)?;
        let handle = operand.handle;
        write(&mut self.banks[bank], &operand);
        Ok(handle)
    }

    /// Checks natural-order `coeffs` for the region at `base_word` of
    /// `bank`, stored in `order`, without writing them: the operand
    /// [`Self::run_banks`] loads. Its handle maps programs before the
    /// words are in the bank.
    ///
    /// # Errors
    ///
    /// As [`Self::load_in_bank`].
    pub fn operand(
        &self,
        bank: usize,
        base_word: usize,
        coeffs: Vec<u32>,
        q: u32,
        order: StoredOrder,
    ) -> Result<Operand, PimError> {
        self.checked(bank, base_word, &coeffs, q, order)
    }

    /// [`Self::operand`] of borrowed words.
    fn checked(
        &self,
        bank: usize,
        base_word: usize,
        coeffs: &[u32],
        q: u32,
        order: StoredOrder,
    ) -> Result<Operand, PimError> {
        self.check_bank(bank)?;
        let words = OperandWords::gather(coeffs.len(), q, order, |i| u64::from(coeffs[i]))?;
        self.bind(bank, base_word, words)
    }

    /// Binds checked words to the region at `base_word` of `bank`: the
    /// operand [`Self::run_banks`] loads, [`Self::operand`] for words
    /// already checked and laid out.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] for a bad bank index; region errors as in
    /// [`PolyLayout::new`].
    pub fn bind(
        &self,
        bank: usize,
        base_word: usize,
        words: OperandWords,
    ) -> Result<Operand, PimError> {
        self.check_bank(bank)?;
        let OperandWords { words, q, order } = words;
        let layout = PolyLayout::new(&self.config, base_word, words.len())?;
        Ok(Operand {
            handle: PolyHandle {
                layout,
                bank,
                q,
                order,
            },
            words,
        })
    }

    fn check_bank(&self, bank: usize) -> Result<(), PimError> {
        if bank >= self.banks.len() {
            return Err(PimError::BadConfig {
                reason: format!("bank {bank} out of range ({} banks)", self.banks.len()),
            });
        }
        Ok(())
    }

    /// Reads a polynomial back in logical (natural coefficient) order,
    /// undoing any bit-reversed storage on the host side.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] for a handle naming a bank this device
    /// lacks.
    pub fn read_polynomial(&mut self, handle: &PolyHandle) -> Result<Vec<u32>, PimError> {
        Ok(read(self.bank_mut(handle.bank)?, handle))
    }

    /// Maps the full command program of one NTT request without
    /// scheduling or executing it — the building block for queue-based
    /// batch execution, where programs from many requests are timed
    /// together via [`Self::schedule_queues`] and executed via
    /// [`Self::execute_program`].
    ///
    /// *Forward* expects bit-reversed storage and leaves a natural-order
    /// spectrum; *inverse* expects natural storage, leaves a bit-reversed
    /// result, and includes the `N⁻¹` scaling pass. The handle's order
    /// bookkeeping is *not* updated here (nothing ran yet); callers
    /// executing the program manually use [`PolyHandle::assume_order`].
    ///
    /// # Errors
    ///
    /// [`PimError::BadRegion`] when the stored order does not match the
    /// direction; math errors when `q` lacks the needed root of unity.
    pub fn build_ntt_program(
        &self,
        handle: &PolyHandle,
        dir: NttDirection,
    ) -> Result<Program, PimError> {
        let n = handle.n();
        let omega = modmath::prime::root_of_unity(n as u64, handle.q as u64)? as u32;
        let params = NttParams { q: handle.q, omega };
        match dir {
            NttDirection::Forward => {
                if handle.order != StoredOrder::BitReversed {
                    return Err(PimError::BadRegion {
                        reason: "forward NTT expects bit-reversed storage".into(),
                    });
                }
                let opts = MapperOptions {
                    dataflow: Dataflow::DitFromBitrev,
                    inverse: false,
                    ..self.opts
                };
                mapper::map_ntt(&self.config, &handle.layout, &params, &opts)
            }
            NttDirection::Inverse => {
                if handle.order != StoredOrder::Natural {
                    return Err(PimError::BadRegion {
                        reason: "inverse NTT expects natural storage".into(),
                    });
                }
                let opts = MapperOptions {
                    dataflow: Dataflow::DifToBitrev,
                    inverse: true,
                    ..self.opts
                };
                let mut program = mapper::map_ntt(&self.config, &handle.layout, &params, &opts)?;
                let n_inv = modmath::arith::inv_mod(n as u64, handle.q as u64)? as u32;
                let scale = mapper::map_scale(&self.config, &handle.layout, handle.q, n_inv, 1)?;
                program.commands.extend(scale.commands);
                Ok(program)
            }
        }
    }

    /// Executes an NTT request on the polynomial, in place.
    ///
    /// *Forward* expects bit-reversed storage (see
    /// [`Self::load_polynomial_bitrev`]) and leaves a natural-order
    /// spectrum. *Inverse* expects natural storage and leaves a
    /// bit-reversed result (transparent through
    /// [`Self::read_polynomial`]); it includes the `N⁻¹` scaling pass.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] when the mapper options turn in-place
    /// update off ([`Self::check_in_place`]); [`PimError::BadRegion`]
    /// when the stored order does not match the direction; math errors
    /// when `q` lacks the needed root of unity. Nothing runs on an error.
    pub fn ntt(&mut self, handle: &PolyHandle, dir: NttDirection) -> Result<NttReport, PimError> {
        self.check_in_place()?;
        let program = self.build_ntt_program(handle, dir)?;
        let timeline = sched::schedule(&self.config, &program)?;
        self.banks[handle.bank].execute(&program)?;
        Ok(NttReport::from_parts(timeline, &program))
    }

    /// Functionally executes a mapped program in `bank` (no timing):
    /// [`Self::decode_program`] then [`Self::run_decoded`].
    ///
    /// Pairs with [`Self::build_ntt_program`] / [`Self::polymul_program`]
    /// and [`Self::schedule_queues`] for batch workloads where many
    /// programs are timed together but values must still be computed.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] for a bad bank index; decoding errors
    /// otherwise (the bank is then untouched).
    pub fn execute_program(&mut self, bank: usize, program: &Program) -> Result<(), PimError> {
        self.bank_mut(bank)?.execute(program)
    }

    /// Decodes a mapped program for this device's banks
    /// ([`DecodedProgram::decode`]): every buffer and address check, done
    /// once, so the program can then run any number of times through
    /// [`Self::run_decoded`].
    ///
    /// # Errors
    ///
    /// Buffer misuse, address and datapath errors — each one a mapper bug.
    pub fn decode_program(&self, program: &Program) -> Result<DecodedProgram, PimError> {
        DecodedProgram::decode(&self.config, program)
    }

    /// Runs a program [`Self::decode_program`] decoded, in `bank` (no
    /// timing).
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] for a bad bank index or a program decoded
    /// for another bank geometry or buffer count.
    pub fn run_decoded(&mut self, bank: usize, program: &DecodedProgram) -> Result<(), PimError> {
        self.bank_mut(bank)?.run(program)
    }

    fn bank_mut(&mut self, bank: usize) -> Result<&mut FunctionalSim, PimError> {
        self.check_bank(bank)?;
        Ok(&mut self.banks[bank])
    }

    /// Runs one ordered list of steps per bank — `lists[b]` in bank `b` —
    /// and returns each step's read-back words, `out[b][i]` for step `i`
    /// of bank `b` (empty where the step reads nothing back). Each step
    /// writes its operands, runs its decoded program and reads back, on
    /// that bank's own simulator, so a bank's list behaves exactly as
    /// [`Self::load_in_bank`], [`Self::run_decoded`] and
    /// [`Self::read_polynomial`] called in turn, except that the words
    /// come back as `u64`: the read-back widens them in its one pass over
    /// the region, on the thread that ran the bank.
    ///
    /// Banks share no values, so they run concurrently: the calling
    /// thread and the process-wide pool of helper threads
    /// ([`crate::helpers`]) take busy banks one at a time until none is
    /// left. Each busy bank's simulator moves, with its list, to the
    /// thread that runs it and comes back to the device afterwards. A
    /// call with one busy bank, or on one core, runs on the calling
    /// thread. Results do not depend on which thread ran a bank.
    ///
    /// Everything is checked before any bank is touched, so a rejected
    /// call changes nothing.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] for more lists than banks, a program
    /// decoded for another bank geometry or buffer count, or an operand or
    /// read-back handle naming a bank other than its list's;
    /// [`PimError::BadRegion`] for a handle whose region does not fit
    /// this device's banks.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from a bank's run once every bank has finished
    /// and is back in the device.
    pub fn run_banks(&mut self, lists: Vec<Vec<BankStep>>) -> Result<Vec<Vec<Vec<u64>>>, PimError> {
        if lists.len() > self.banks.len() {
            return Err(PimError::BadConfig {
                reason: format!("{} bank lists for {} banks", lists.len(), self.banks.len()),
            });
        }
        for (bank, (sim, list)) in self.banks.iter().zip(&lists).enumerate() {
            for step in list {
                sim.check(&step.program)?;
                for h in step.loads.iter().map(Operand::handle).chain(&step.read) {
                    if h.bank != bank {
                        return Err(PimError::BadConfig {
                            reason: format!("a handle of bank {} in bank {bank}'s list", h.bank),
                        });
                    }
                    // A handle another device made may not fit this one.
                    PolyLayout::new(&self.config, h.layout.base_word(), h.n())?;
                }
            }
        }
        let mut out: Vec<Vec<Vec<u64>>> = vec![Vec::new(); lists.len()];
        // Busy banks move into their items; the slots they leave are
        // refilled when the items come back, whatever happened in them.
        let mut slots: Vec<Option<FunctionalSim>> = std::mem::take(&mut self.banks)
            .into_iter()
            .map(Some)
            .collect();
        let busy: Vec<(usize, FunctionalSim, Vec<BankStep>)> = lists
            .into_iter()
            .enumerate()
            .filter(|(_, list)| !list.is_empty())
            .map(|(bank, list)| (bank, slots[bank].take().expect("one list per bank"), list))
            .collect();
        let (busy, words) = helpers::map(busy, |(_, sim, list)| {
            std::mem::take(list)
                .into_iter()
                .map(|step| {
                    step.loads.iter().for_each(|op| write(sim, op));
                    sim.run_checked(&step.program);
                    step.read.map_or_else(Vec::new, |h| read(sim, &h))
                })
                .collect::<Vec<_>>()
        });
        let mut ran = Vec::with_capacity(busy.len());
        for (bank, sim, _) in busy {
            slots[bank] = Some(sim);
            ran.push(bank);
        }
        self.banks = slots
            .into_iter()
            .map(|sim| sim.expect("every bank came back"))
            .collect();
        let words = words.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (bank, words) in ran.into_iter().zip(words) {
            out[bank] = words;
        }
        Ok(out)
    }

    /// Times one program queue per bank over the shared command bus, with
    /// banks draining asynchronously (no cross-bank barrier) — see
    /// [`crate::sched::schedule_queues`]. Timing only: pair with
    /// [`Self::execute_program`] for the values. The report carries no
    /// command timeline, so the scheduler keeps no per-command log here;
    /// call [`crate::sched::schedule_queues`] for the events.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] when more queues than banks are supplied.
    pub fn schedule_queues(&self, queues: &[Vec<Program>]) -> Result<QueueReport, PimError> {
        let plain: Vec<Vec<sched::DagJob>> = queues
            .iter()
            .map(|q| q.iter().map(sched::DagJob::plain).collect())
            .collect();
        self.schedule_queues_dag(&plain)
    }

    /// [`Self::schedule_queues`] with dependency barriers
    /// ([`crate::sched::schedule_queues_dag`]): the timing path of a
    /// *split large transform*, where stage-1 column sub-jobs all signal
    /// one barrier and the stage-2 row sub-jobs wait on it. Ordinary
    /// programs ride in the same queues untagged and are never gated.
    ///
    /// # Errors
    ///
    /// As [`Self::schedule_queues`], plus [`PimError::BadConfig`] when
    /// the dependency tags deadlock.
    pub fn schedule_queues_dag(
        &self,
        queues: &[Vec<sched::DagJob<'_>>],
    ) -> Result<QueueReport, PimError> {
        let qt = sched::schedule_queues_unlogged(&self.config, queues)?;
        Ok(QueueReport::from_queues(&qt))
    }

    /// Maps a stage-1 *column* sub-job of a four-step split: one forward
    /// NTT of length `N₁` over the explicitly supplied root `omega`
    /// (`ω^cols` of the parent transform — a power of the parent's root,
    /// not whatever root a fresh search would find, so the sub-transform
    /// composes into the parent bit-exactly). Expects bit-reversed
    /// storage like every forward DIT program; leaves a natural-order
    /// column spectrum for the host to gather into the twiddle matrix.
    ///
    /// # Errors
    ///
    /// [`PimError::BadRegion`] on natural-order storage or an unreduced
    /// `omega`.
    pub fn build_column_program(
        &self,
        handle: &PolyHandle,
        omega: u32,
    ) -> Result<Program, PimError> {
        if handle.order != StoredOrder::BitReversed {
            return Err(PimError::BadRegion {
                reason: "column sub-job expects bit-reversed storage".into(),
            });
        }
        if omega >= handle.q {
            return Err(PimError::BadRegion {
                reason: format!("column root {omega} not reduced mod {}", handle.q),
            });
        }
        let params = NttParams { q: handle.q, omega };
        let opts = MapperOptions {
            dataflow: Dataflow::DitFromBitrev,
            inverse: false,
            ..self.opts
        };
        mapper::map_ntt(&self.config, &handle.layout, &params, &opts)
    }

    /// Maps a stage-2+3 *row* sub-job of a four-step split: the fused
    /// twiddle scaling `x_c ← x_c · row_twiddle^c` (`row_twiddle = ω^r`
    /// for row `r` — step 2 of the decomposition) followed by one forward
    /// NTT of length `N₂` over the explicit root `omega` (`ω^rows` of the
    /// parent). Expects natural storage (the gathered twiddle-matrix
    /// row); runs DIF, so the result lands bit-reversed — read it back
    /// through a [`StoredOrder::BitReversed`] handle and the host
    /// transpose (step 4) sees natural row spectra.
    ///
    /// # Errors
    ///
    /// [`PimError::BadRegion`] on bit-reversed storage or unreduced
    /// roots.
    pub fn build_twiddle_row_program(
        &self,
        handle: &PolyHandle,
        omega: u32,
        row_twiddle: u32,
    ) -> Result<Program, PimError> {
        if handle.order != StoredOrder::Natural {
            return Err(PimError::BadRegion {
                reason: "row sub-job expects natural storage".into(),
            });
        }
        if omega >= handle.q || row_twiddle >= handle.q {
            return Err(PimError::BadRegion {
                reason: format!(
                    "row roots ({omega}, {row_twiddle}) not reduced mod {}",
                    handle.q
                ),
            });
        }
        let params = NttParams { q: handle.q, omega };
        let opts = MapperOptions {
            dataflow: Dataflow::DifToBitrev,
            inverse: false,
            ..self.opts
        };
        let mut program =
            mapper::map_scale(&self.config, &handle.layout, handle.q, 1, row_twiddle)?;
        let ntt = mapper::map_ntt(&self.config, &handle.layout, &params, &opts)?;
        program.c1_ops += ntt.c1_ops;
        program.c2_ops += ntt.c2_ops;
        program.commands.extend(ntt.commands);
        Ok(program)
    }

    /// Completes the in-place update of the handle's order after
    /// [`Self::ntt`]. Separated so callers can inspect reports; invoked
    /// automatically by [`Self::ntt_in_place`].
    fn flip_order(handle: &mut PolyHandle, dir: NttDirection) {
        handle.order = match dir {
            NttDirection::Forward => StoredOrder::Natural,
            NttDirection::Inverse => StoredOrder::BitReversed,
        };
    }

    /// [`Self::ntt`] plus the handle-order bookkeeping.
    ///
    /// # Errors
    ///
    /// As [`Self::ntt`].
    pub fn ntt_in_place(
        &mut self,
        handle: &mut PolyHandle,
        dir: NttDirection,
    ) -> Result<NttReport, PimError> {
        let report = self.ntt(handle, dir)?;
        Self::flip_order(handle, dir);
        Ok(report)
    }

    /// Full on-device negacyclic polynomial multiplication
    /// `a ← a·b mod (X^N + 1, q)` — the FHE workload of the paper's
    /// Eq. (1), run end to end without any host compute: ψ-weighting
    /// (Scale), forward DIF NTTs, Pointwise, inverse DIT NTT, and the
    /// combined `N⁻¹·ψ⁻ⁱ` unweighting.
    ///
    /// Both operands must be naturally stored in the same bank with the
    /// same modulus, in regions that do not overlap. Returns one report
    /// covering the whole fused schedule.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] when the mapper options turn in-place
    /// update off ([`Self::check_in_place`]); otherwise as
    /// [`Self::polymul_program`]. Nothing runs on an error.
    pub fn polymul_negacyclic(
        &mut self,
        a: &PolyHandle,
        b: &PolyHandle,
    ) -> Result<NttReport, PimError> {
        self.check_in_place()?;
        let program = self.polymul_program(a, b)?;
        let timeline = sched::schedule(&self.config, &program)?;
        self.banks[a.bank].execute(&program)?;
        Ok(NttReport::from_parts(timeline, &program))
    }

    /// Builds the fused negacyclic-polymul program for one operand pair
    /// without scheduling or executing it — what
    /// [`Self::polymul_negacyclic`] runs, and the polymul counterpart of
    /// [`Self::build_ntt_program`] for queue-based batch execution.
    ///
    /// The program transforms both operands in place before it
    /// multiplies them, so they must not share a word: squaring takes a
    /// copy of the operand in its own region.
    ///
    /// # Errors
    ///
    /// [`PimError::BadRegion`] on mismatched or overlapping operands;
    /// math errors when `q` lacks a `2N`-th root of unity.
    pub fn polymul_program(&self, a: &PolyHandle, b: &PolyHandle) -> Result<Program, PimError> {
        if a.bank != b.bank || a.q != b.q || a.n() != b.n() {
            return Err(PimError::BadRegion {
                reason: "polymul operands must share bank, modulus, and length".into(),
            });
        }
        let (a_base, b_base) = (a.layout.base_word(), b.layout.base_word());
        if a_base < b_base + b.n() && b_base < a_base + a.n() {
            return Err(PimError::BadRegion {
                reason: format!(
                    "polymul operands at words {a_base} and {b_base} overlap \
                     (each spans {} words)",
                    a.n()
                ),
            });
        }
        if a.order != StoredOrder::Natural || b.order != StoredOrder::Natural {
            return Err(PimError::BadRegion {
                reason: "polymul expects naturally stored operands".into(),
            });
        }
        let n = a.n();
        let q = a.q as u64;
        let psi = modmath::prime::root_of_unity(2 * n as u64, q)?;
        let omega = modmath::arith::mul_mod(psi, psi, q) as u32;
        let psi_inv = modmath::arith::inv_mod(psi, q)? as u32;
        let n_inv = modmath::arith::inv_mod(n as u64, q)?;
        let params = NttParams { q: a.q, omega };
        let fwd_opts = MapperOptions {
            dataflow: Dataflow::DifToBitrev,
            inverse: false,
            ..self.opts
        };
        let inv_opts = MapperOptions {
            dataflow: Dataflow::DitFromBitrev,
            inverse: true,
            ..self.opts
        };
        let mut program = mapper::map_scale(&self.config, &a.layout, a.q, 1, psi as u32)?;
        let sb = mapper::map_scale(&self.config, &b.layout, a.q, 1, psi as u32)?;
        program.commands.extend(sb.commands);
        let fa = mapper::map_ntt(&self.config, &a.layout, &params, &fwd_opts)?;
        let fb = mapper::map_ntt(&self.config, &b.layout, &params, &fwd_opts)?;
        program.c1_ops += fa.c1_ops + fb.c1_ops;
        program.c2_ops += fa.c2_ops + fb.c2_ops;
        program.commands.extend(fa.commands);
        program.commands.extend(fb.commands);
        let pw = mapper::map_pointwise(&self.config, &a.layout, &b.layout, a.q)?;
        program.commands.extend(pw.commands);
        let ia = mapper::map_ntt(&self.config, &a.layout, &params, &inv_opts)?;
        program.c1_ops += ia.c1_ops;
        program.c2_ops += ia.c2_ops;
        program.commands.extend(ia.commands);
        let unweight = mapper::map_scale(&self.config, &a.layout, a.q, n_inv as u32, psi_inv)?;
        program.commands.extend(unweight.commands);
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::bitrev::bitrev_copy;

    const Q: u32 = 7681;

    fn wide(words: &[u32]) -> Vec<u64> {
        words.iter().map(|&w| u64::from(w)).collect()
    }

    fn poly(n: usize, seed: u64) -> Vec<u32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % Q as u64) as u32
            })
            .collect()
    }

    /// One pass lays the words out: narrowed natural-order words, or the
    /// bit-reversed image `bitrev_copy` makes, for every power-of-two
    /// length up to 2¹³, from a slice or a gather; and the branch-free
    /// check refuses exactly the unreduced words, at `q`, past 2⁶³ and
    /// at the top of the range.
    #[test]
    fn operand_words_check_narrow_and_lay_out_in_one_pass() {
        let q = 8_380_417u32;
        for log_n in 0..=13 {
            let n = 1usize << log_n;
            let coeffs: Vec<u64> = (0..n as u64)
                .map(|i| (i * 2_654_435_761) % u64::from(q))
                .collect();
            let narrow: Vec<u32> = coeffs.iter().map(|&c| c as u32).collect();
            let mut bitrev = vec![0; n];
            bitrev_copy(&narrow, &mut bitrev);
            for (order, want) in [
                (StoredOrder::Natural, &narrow),
                (StoredOrder::BitReversed, &bitrev),
            ] {
                let words = OperandWords::new(&coeffs, q, order).unwrap();
                assert_eq!(&words.words, want, "n={n} {order:?}");
                let gathered = OperandWords::gather(n, q, order, |i| coeffs[i]).unwrap();
                assert_eq!(&gathered.words, want, "n={n} {order:?} gathered");
            }
        }
        let q64 = u64::from(q);
        for (bad, reduced) in [
            (q64 - 1, true),
            (q64, false),
            (u64::from(u32::MAX), false),
            ((1 << 63) + q64 - 1, false),
            (1 << 63, false),
            (u64::MAX, false),
        ] {
            for order in [StoredOrder::Natural, StoredOrder::BitReversed] {
                for at in [0, 5, 15] {
                    let mut coeffs = vec![1; 16];
                    coeffs[at] = bad;
                    let words = OperandWords::new(&coeffs, q, order);
                    assert_eq!(words.is_ok(), reduced, "{bad} at {at} {order:?}");
                }
            }
        }
        let err = OperandWords::new(&[1; 12], q, StoredOrder::BitReversed).unwrap_err();
        assert!(matches!(err, PimError::BadRegion { .. }), "{err}");
        assert!(OperandWords::new(&[1; 12], q, StoredOrder::Natural).is_ok());
    }

    #[test]
    fn forward_matches_reference_and_roundtrips() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let n = 512;
        let x = poly(n, 42);
        let mut h = dev.load_polynomial_bitrev(0, &x, Q).unwrap();
        let rep = dev.ntt_in_place(&mut h, NttDirection::Forward).unwrap();
        assert!(rep.latency_ns() > 0.0);
        let spectrum = dev.read_polynomial(&h).unwrap();
        // Direct-evaluation reference with the same ω the device derives.
        let omega = modmath::prime::root_of_unity(n as u64, Q as u64).unwrap();
        let expect: Vec<u32> = (0..n)
            .map(|k| {
                let mut acc = 0u64;
                for (i, &v) in x.iter().enumerate() {
                    let tw = modmath::arith::pow_mod(omega, (i * k) as u64, Q as u64);
                    acc = modmath::arith::add_mod(
                        acc,
                        modmath::arith::mul_mod(v as u64, tw, Q as u64),
                        Q as u64,
                    );
                }
                acc as u32
            })
            .collect();
        assert_eq!(spectrum, expect);
        // Inverse brings the coefficients back.
        dev.ntt_in_place(&mut h, NttDirection::Inverse).unwrap();
        assert_eq!(dev.read_polynomial(&h).unwrap(), x);
    }

    #[test]
    fn direction_order_mismatch_rejected() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let x = poly(256, 1);
        let h = dev.load_polynomial(0, &x, Q).unwrap(); // natural
        assert!(dev.ntt(&h, NttDirection::Forward).is_err());
    }

    /// With in-place update off, every request path refuses before it
    /// runs: the ping-pong ablation would leave its result outside the
    /// operand's region. The bank keeps its words and the handle its
    /// order.
    #[test]
    fn request_paths_refuse_the_ping_pong_ablation() {
        for n in [64usize, 256] {
            let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
            dev.set_mapper_options(MapperOptions {
                in_place_update: false,
                ..MapperOptions::default()
            });
            let refused = |err: PimError| matches!(&err, PimError::BadConfig { reason } if reason.contains("in_place_update"));
            let x = poly(n, 11);
            let mut fwd = dev.load_polynomial_bitrev(0, &x, Q).unwrap();
            let other = dev.config().polymul_rhs_base(n);
            let a = dev.load_polynomial(other, &x, Q).unwrap();
            let y = poly(n, 12);
            let b = dev.load_polynomial(2 * other, &y, Q).unwrap();
            let image = dev.banks[0].read_words(0, 3 * other);
            assert!(
                refused(dev.ntt(&fwd, NttDirection::Forward).unwrap_err()),
                "n={n}"
            );
            assert!(
                refused(dev.ntt(&a, NttDirection::Inverse).unwrap_err()),
                "n={n}"
            );
            let err = dev
                .ntt_in_place(&mut fwd, NttDirection::Forward)
                .unwrap_err();
            assert!(refused(err), "n={n}");
            assert_eq!(fwd.order(), StoredOrder::BitReversed, "n={n}");
            assert!(
                refused(dev.polymul_negacyclic(&a, &b).unwrap_err()),
                "n={n}"
            );
            assert_eq!(dev.banks[0].read_words(0, 3 * other), image, "n={n}");
            assert_eq!(dev.read_polynomial(&fwd).unwrap(), x, "n={n}");
            // The program builders still map the ablation.
            assert!(dev.build_ntt_program(&fwd, NttDirection::Forward).is_ok());
            assert!(dev.polymul_program(&a, &b).is_ok());
        }
    }

    #[test]
    fn unreduced_coefficients_rejected() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let x = vec![Q; 8];
        assert!(dev.load_polynomial(0, &x, Q).is_err());
    }

    #[test]
    fn on_device_polymul_matches_schoolbook() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(4)).unwrap();
        let n = 256;
        let a = poly(n, 3);
        let b = poly(n, 4);
        let ha = dev.load_polynomial(0, &a, Q).unwrap();
        let hb = dev.load_polynomial(n, &b, Q).unwrap();
        let rep = dev.polymul_negacyclic(&ha, &hb).unwrap();
        assert!(rep.latency_us() > 0.0);
        let got = dev.read_polynomial(&ha).unwrap();
        let a64: Vec<u64> = a.iter().map(|&v| v as u64).collect();
        let b64: Vec<u64> = b.iter().map(|&v| v as u64).collect();
        let expect = ntt_ref::naive::negacyclic_convolution(&a64, &b64, Q as u64);
        let got64: Vec<u64> = got.iter().map(|&v| v as u64).collect();
        assert_eq!(got64, expect);
    }

    #[test]
    fn stage_builders_compose_into_the_four_step_identity() {
        // Drive a 4×16 split of N = 64 through the stage builders by
        // hand (the batch executor automates this) and check the result
        // is bit-identical to the host four-step — which is itself
        // bit-identical to the plain forward NTT.
        let mut dev = PimDevice::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let (n, rows, cols) = (64usize, 4usize, 16usize);
        let x = poly(n, 99);
        let q = Q as u64;
        let omega = modmath::prime::root_of_unity(n as u64, q).unwrap();
        let col_root = modmath::arith::pow_mod(omega, cols as u64, q) as u32;
        let row_root = modmath::arith::pow_mod(omega, rows as u64, q) as u32;
        // Stage 1: column transforms (length `rows`, root ω^cols).
        let mut matrix = vec![vec![0u32; cols]; rows];
        for c in 0..cols {
            let col: Vec<u32> = (0..rows).map(|r| x[r * cols + c]).collect();
            let bank = c % 4;
            let mut h = dev
                .load_in_bank(bank, 0, &col, Q, StoredOrder::BitReversed)
                .unwrap();
            let prog = dev.build_column_program(&h, col_root).unwrap();
            dev.execute_program(bank, &prog).unwrap();
            h.assume_order(StoredOrder::Natural); // DIT leaves natural order
            let out = dev.read_polynomial(&h).unwrap();
            for r in 0..rows {
                matrix[r][c] = out[r];
            }
        }
        // Stage 2+3: fused twiddle scaling + row transforms (root ω^rows).
        let mut got = vec![0u32; n];
        for (r, row) in matrix.iter().enumerate() {
            let tw = modmath::arith::pow_mod(omega, r as u64, q) as u32;
            let bank = r % 4;
            let mut h = dev
                .load_in_bank(bank, 0, row, Q, StoredOrder::Natural)
                .unwrap();
            let prog = dev.build_twiddle_row_program(&h, row_root, tw).unwrap();
            dev.execute_program(bank, &prog).unwrap();
            h.assume_order(StoredOrder::BitReversed); // DIF leaves bit-reversed
            let spectrum = dev.read_polynomial(&h).unwrap();
            // Stage 4: transpose scatter.
            for c in 0..cols {
                got[c * rows + r] = spectrum[c];
            }
        }
        // root_of_unity(2n)² = root_of_unity(n) (same generator), so the
        // host plan transforms over the same ω.
        let psi = modmath::prime::root_of_unity(2 * n as u64, q).unwrap();
        let field = modmath::prime::NttField::with_psi(n, q, psi).unwrap();
        let x64: Vec<u64> = x.iter().map(|&v| v as u64).collect();
        let expect = ntt_ref::naive::ntt(&field, &x64);
        let got64: Vec<u64> = got.iter().map(|&v| v as u64).collect();
        assert_eq!(got64, expect);
    }

    #[test]
    fn stage_builders_validate_order_and_roots() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let x = poly(64, 5);
        let natural = dev.load_in_bank(0, 0, &x, Q, StoredOrder::Natural).unwrap();
        let bitrev = dev
            .load_in_bank(0, 4096, &x, Q, StoredOrder::BitReversed)
            .unwrap();
        let omega = modmath::prime::root_of_unity(64, Q as u64).unwrap() as u32;
        assert!(dev.build_column_program(&natural, omega).is_err());
        assert!(dev.build_column_program(&bitrev, Q).is_err()); // unreduced
        assert!(dev.build_twiddle_row_program(&bitrev, omega, 1).is_err());
        assert!(dev.build_twiddle_row_program(&natural, omega, Q).is_err());
        assert!(dev.build_column_program(&bitrev, omega).is_ok());
        assert!(dev.build_twiddle_row_program(&natural, omega, 1).is_ok());
    }

    #[test]
    fn batch_runs_in_parallel_banks() {
        // One forward NTT per bank over resident operands, the way the
        // facade's executor runs a batch: one queue schedule for the
        // timing, one `run_banks` call for the values.
        let mut dev = PimDevice::new(PimConfig::hbm2e(2).with_banks(4)).unwrap();
        let n = 256;
        let mut handles = Vec::new();
        for bank in 0..4 {
            let x = poly(n, bank as u64 + 10);
            handles.push(
                dev.load_in_bank(bank, 0, &x, Q, StoredOrder::BitReversed)
                    .unwrap(),
            );
        }
        let single = {
            let mut d2 = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
            let x = poly(n, 10);
            let h = d2.load_polynomial_bitrev(0, &x, Q).unwrap();
            d2.ntt(&h, NttDirection::Forward).unwrap().latency_ns()
        };
        let queues: Vec<Vec<Program>> = handles
            .iter()
            .map(|h| vec![dev.build_ntt_program(h, NttDirection::Forward).unwrap()])
            .collect();
        let batch = dev.schedule_queues(&queues).unwrap();
        assert_eq!(batch.per_bank_ns.len(), 4);
        // 4 banks work concurrently: far less than 4x a single NTT.
        assert!(batch.latency_ns < 2.5 * single);
        let decoded = queues
            .iter()
            .map(|queue| Arc::new(dev.decode_program(&queue[0]).unwrap()))
            .collect::<Vec<_>>();
        for h in &mut handles {
            h.assume_order(StoredOrder::Natural);
        }
        let lists = handles
            .iter()
            .zip(decoded)
            .map(|(h, program)| {
                vec![BankStep {
                    loads: Vec::new(),
                    program,
                    read: Some(*h),
                }]
            })
            .collect();
        let spectra = dev.run_banks(lists).unwrap();
        // All four banks actually hold transformed data.
        for (bank, h) in handles.iter().enumerate() {
            assert_eq!(h.order(), StoredOrder::Natural);
            let mut one = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
            let mut hs = one
                .load_polynomial_bitrev(0, &poly(n, bank as u64 + 10), Q)
                .unwrap();
            one.ntt_in_place(&mut hs, NttDirection::Forward).unwrap();
            assert_eq!(spectra[bank][0], wide(&one.read_polynomial(&hs).unwrap()));
            assert_eq!(wide(&dev.read_polynomial(h).unwrap()), spectra[bank][0]);
        }
    }

    #[test]
    fn polymul_batch_matches_sequential_products() {
        // One negacyclic product per bank, operands resident, scheduled as
        // one queue per bank and executed by one `run_banks` call.
        let banks = 3;
        let n = 256;
        let mut dev = PimDevice::new(PimConfig::hbm2e(4).with_banks(banks)).unwrap();
        let mut pairs = Vec::new();
        let mut expects = Vec::new();
        for bank in 0..banks as usize {
            let a = poly(n, 50 + bank as u64);
            let b = poly(n, 70 + bank as u64);
            let ha = dev
                .load_in_bank(bank, 0, &a, Q, StoredOrder::Natural)
                .unwrap();
            let hb = dev
                .load_in_bank(bank, n, &b, Q, StoredOrder::Natural)
                .unwrap();
            let a64: Vec<u64> = a.iter().map(|&v| v as u64).collect();
            let b64: Vec<u64> = b.iter().map(|&v| v as u64).collect();
            expects.push(ntt_ref::naive::negacyclic_convolution(&a64, &b64, Q as u64));
            pairs.push((ha, hb));
        }
        let queues: Vec<Vec<Program>> = pairs
            .iter()
            .map(|(a, b)| vec![dev.polymul_program(a, b).unwrap()])
            .collect();
        let report = dev.schedule_queues(&queues).unwrap();
        assert_eq!(report.per_bank_ns.len(), banks as usize);
        // Batch of 3 products takes much less than 3x one product.
        let single = {
            let mut d = PimDevice::new(PimConfig::hbm2e(4)).unwrap();
            let a = poly(n, 50);
            let b = poly(n, 70);
            let ha = d.load_polynomial(0, &a, Q).unwrap();
            let hb = d.load_polynomial(n, &b, Q).unwrap();
            d.polymul_negacyclic(&ha, &hb).unwrap().latency_ns()
        };
        assert!(report.latency_ns < 2.0 * single);
        let decoded = queues
            .iter()
            .map(|queue| Arc::new(dev.decode_program(&queue[0]).unwrap()))
            .collect::<Vec<_>>();
        let lists = pairs
            .iter()
            .zip(decoded)
            .map(|((ha, _), program)| {
                vec![BankStep {
                    loads: Vec::new(),
                    program,
                    read: Some(*ha),
                }]
            })
            .collect();
        let products = dev.run_banks(lists).unwrap();
        for (bank, (ha, _)) in pairs.iter().enumerate() {
            let got = dev.read_polynomial(ha).unwrap();
            assert_eq!(wide(&got), products[bank][0], "bank {bank}");
            let got64: Vec<u64> = got.iter().map(|&v| v as u64).collect();
            assert_eq!(got64, expects[bank], "bank {bank}");
        }
    }

    #[test]
    fn queue_primitives_compose_into_async_batches() {
        // Bank 0 runs two forward NTTs back to back, bank 1 one; programs
        // execute functionally as they are built, then one queue schedule
        // times the whole batch without a wave barrier.
        let mut dev = PimDevice::new(PimConfig::hbm2e(2).with_banks(2)).unwrap();
        let n = 256;
        let mut queues: Vec<Vec<crate::mapper::Program>> = vec![Vec::new(); 2];
        let mut spectra = Vec::new();
        for (bank, seed) in [(0usize, 1u64), (0, 2), (1, 3)] {
            let x = poly(n, seed);
            let mut h = dev
                .load_in_bank(bank, 0, &x, Q, StoredOrder::BitReversed)
                .unwrap();
            let program = dev.build_ntt_program(&h, NttDirection::Forward).unwrap();
            dev.execute_program(bank, &program).unwrap();
            h.assume_order(StoredOrder::Natural);
            let got = dev.read_polynomial(&h).unwrap();
            // Same request through the one-shot path agrees.
            let mut single = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
            let mut hs = single.load_polynomial_bitrev(0, &x, Q).unwrap();
            single.ntt_in_place(&mut hs, NttDirection::Forward).unwrap();
            assert_eq!(got, single.read_polynomial(&hs).unwrap(), "seed {seed}");
            spectra.push(got);
            queues[bank].push(program);
        }
        let report = dev.schedule_queues(&queues).unwrap();
        assert_eq!(report.job_end_ns[0].len(), 2);
        assert_eq!(report.job_end_ns[1].len(), 1);
        assert!(report.job_end_ns[0][0] < report.job_end_ns[0][1]);
        assert!(report.latency_ns >= report.per_bank_ns[1]);
        assert!(report.energy_nj > 0.0 && report.bus_slots > 0 && report.rank_acts >= 3);
    }

    #[test]
    fn execute_program_rejects_bad_bank() {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let x = poly(64, 1);
        let h = dev.load_polynomial_bitrev(0, &x, Q).unwrap();
        let program = dev.build_ntt_program(&h, NttDirection::Forward).unwrap();
        assert!(dev.execute_program(7, &program).is_err());
    }

    #[test]
    fn overlapping_polymul_operands_are_rejected() {
        // N = 1024 on Nb = 4: the second operand overlaps the first when
        // it is the same handle (squaring) or starts one or two rows in;
        // at word 1024 the regions are disjoint and the product is right.
        let (n, q) = (1024usize, 12289u32);
        let mut dev = PimDevice::new(PimConfig::hbm2e(4)).unwrap();
        // `poly` draws below 7681, so the words are reduced mod q too.
        let (a, b) = (poly(n, 8), poly(n, 9));
        let ha = dev.load_polynomial(0, &a, q).unwrap();
        let squared = dev.polymul_negacyclic(&ha, &ha);
        assert!(
            matches!(squared, Err(PimError::BadRegion { .. })),
            "{squared:?}"
        );
        for base in [256usize, 512] {
            let hb = dev.load_polynomial(base, &b, q).unwrap();
            let err = dev.polymul_negacyclic(&ha, &hb);
            assert!(
                matches!(err, Err(PimError::BadRegion { .. })),
                "{base}: {err:?}"
            );
            // Rejected before anything ran: the operand is as loaded.
            assert_eq!(dev.read_polynomial(&hb).unwrap(), b, "{base}");
        }
        let ha = dev.load_polynomial(0, &a, q).unwrap();
        let hb = dev.load_polynomial(n, &b, q).unwrap();
        dev.polymul_negacyclic(&ha, &hb).unwrap();
        let expect = ntt_ref::naive::negacyclic_convolution(&wide(&a), &wide(&b), q as u64);
        assert_eq!(wide(&dev.read_polynomial(&ha).unwrap()), expect);
    }
}
