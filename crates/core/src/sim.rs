//! Functional co-simulation — the paper's front-end-driver verification
//! loop (§VI.A: the driver "runs iteratively with DRAMsim3 … to double-
//! check the correctness of timing and functionality").
//!
//! [`FunctionalSim`] executes a mapped command stream for *values*: every
//! `CU-read` really moves an atom from the bank into an atom buffer,
//! every `C1`/`C2` runs the Montgomery butterfly datapath, every
//! `CU-write` lands in the bank. Timing is the scheduler's concern;
//! running both over the same stream and cross-checking against the
//! `ntt-ref` golden models is the system's end-to-end correctness
//! argument.
//!
//! Execution has two halves:
//!
//! * **Decode** ([`DecodedProgram::decode`]) walks a [`Program`] once,
//!   from a fresh bank: every buffer empty and no modulus set. It makes
//!   every check the bank and the compute unit make — row and column in
//!   range, buffer present and filled, C2 operands distinct, modulus set
//!   before compute, C1 shape, register lane in range — and returns the
//!   typed error a mapper bug deserves ([`PimError::BufferMisuse`],
//!   [`PimError::Timing`], [`PimError::Math`]) before any value moves.
//!   What it emits is one 8-byte op per value-moving command, carrying
//!   resolved word offsets and indices into deduplicated per-lane
//!   twiddle rows and C1 kernels.
//! * **Run** ([`FunctionalSim::run`]) is a flat loop over those ops with
//!   no per-command check. It reads and writes the bank's cell array in
//!   place — exact, because an open row's cells are reachable only
//!   through that row (see [`dram_sim::storage`]) — on fixed 8-lane
//!   atoms.
//!
//! A decoded program depends only on the program, the bank geometry and
//! the buffer count, so a caller that runs one program many times (the
//! batch executor's program memo) decodes it once.

use crate::buffers::BufferState;
use crate::cmd::{BuOrder, OperandReg, PimCommand, TwiddleParams};
use crate::config::PimConfig;
use crate::cu::{self, Atom, C1Kernel, NA};
use crate::layout::PolyLayout;
use crate::mapper::Program;
use crate::PimError;
use dram_sim::storage::BankStorage;
use dram_sim::TimingError;
use modmath::montgomery::Montgomery32;
use std::collections::HashMap;

/// Value-level simulator for one bank.
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    config: PimConfig,
    storage: BankStorage,
    /// Atom-buffer contents, reused by every run: the decoder guarantees
    /// a program fills a buffer before reading it.
    bufs: Vec<BufAtom>,
}

/// One atom buffer on a cache line of its own. Banks run on different
/// threads ([`crate::device::PimDevice::run_banks`]), and a bank's
/// buffers, written by nearly every op, would otherwise share lines with
/// the next bank's small allocation and bounce them between cores.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct BufAtom(Atom);

impl FunctionalSim {
    /// Creates a zeroed bank with the configuration's buffer file.
    ///
    /// # Errors
    ///
    /// Propagates [`PimError::BadConfig`] from validation.
    pub fn new(config: &PimConfig) -> Result<Self, PimError> {
        config.validate()?;
        Ok(Self {
            config: *config,
            storage: BankStorage::new(config.geometry),
            bufs: vec![BufAtom([0; NA]); config.n_bufs],
        })
    }

    /// Host DMA: writes words into the array.
    pub fn load_words(&mut self, base_word: usize, data: &[u32]) {
        self.storage.load_words(base_word, data);
    }

    /// Host DMA: reads words from the array.
    pub fn read_words(&self, base_word: usize, len: usize) -> Vec<u32> {
        self.storage.read_words(base_word, len)
    }

    /// Reads a polynomial region.
    pub fn read_region(&self, layout: &PolyLayout) -> Vec<u32> {
        self.read_words(layout.base_word(), layout.n())
    }

    /// Reads a region starting at an explicit base (for ping-pong results).
    pub fn read_region_at(&self, base_word: usize, n: usize) -> Vec<u32> {
        self.read_words(base_word, n)
    }

    /// Decodes `program` for this bank, then runs it.
    ///
    /// # Errors
    ///
    /// Buffer misuse, address, and datapath errors from
    /// [`DecodedProgram::decode`] — any of which indicates a mapper bug,
    /// which is the point of running this. A rejected program leaves the
    /// bank untouched.
    pub fn execute(&mut self, program: &Program) -> Result<(), PimError> {
        let decoded = DecodedProgram::decode(&self.config, program)?;
        self.run(&decoded)
    }

    /// Runs a decoded program over this bank's cells.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] when `program` was decoded for a different
    /// bank geometry or buffer count; nothing runs then.
    pub fn run(&mut self, program: &DecodedProgram) -> Result<(), PimError> {
        self.check(program)?;
        self.run_checked(program);
        Ok(())
    }

    /// Checks that `program` was decoded for banks of this one's geometry
    /// and buffer count.
    ///
    /// # Errors
    ///
    /// [`PimError::BadConfig`] naming both shapes.
    pub(crate) fn check(&self, program: &DecodedProgram) -> Result<(), PimError> {
        if program.shape != BankShape::of(&self.config) {
            return Err(PimError::BadConfig {
                reason: format!(
                    "program decoded for {:?}, bank is {:?}",
                    program.shape,
                    BankShape::of(&self.config)
                ),
            });
        }
        Ok(())
    }

    /// Runs a program [`Self::check`] accepted.
    pub(crate) fn run_checked(&mut self, program: &DecodedProgram) {
        program.run_on(self.storage.cells_mut(), &mut self.bufs);
    }
}

/// What a decoded program's offsets and buffer ids were checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BankShape {
    rows_per_bank: u32,
    cols_per_row: u32,
    n_bufs: usize,
}

impl BankShape {
    fn of(config: &PimConfig) -> Self {
        Self {
            rows_per_bank: config.geometry.rows_per_bank,
            cols_per_row: config.geometry.cols_per_row,
            n_bufs: config.n_bufs,
        }
    }
}

/// One decoded command: 8 bytes, with addresses resolved to cell-array
/// word offsets and twiddles to table indices. `ACT`, `PRE`, refresh and
/// twiddle broadcasts move no values and decode to nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// CU-read: the atom at cell word `word` into buffer `buf`.
    Read { buf: u8, word: u32 },
    /// CU-write: buffer `buf` into the atom at cell word `word`.
    Write { buf: u8, word: u32 },
    /// C1 on `buf` with kernel `kernel`.
    C1 { buf: u8, kernel: u32 },
    /// C2 between `p` and `s` with twiddle row `row`.
    C2 {
        p: u8,
        s: u8,
        order: BuOrder,
        row: u32,
    },
    /// Scale `buf` by twiddle row `row`.
    Scale { buf: u8, row: u32 },
    /// `p ← p·s`, lane-wise.
    Pointwise { p: u8, s: u8 },
    /// Switch to Montgomery context `ctx`.
    Modulus { ctx: u32 },
    /// Lane `lane` of `buf` into operand register `reg`.
    RegLoad { buf: u8, lane: u8, reg: OperandReg },
    /// Operand register `reg` into lane `lane` of `buf`.
    RegStore { buf: u8, lane: u8, reg: OperandReg },
    /// Scalar butterfly on the operand registers.
    RegBu { order: BuOrder, omega_mont: u32 },
}

const _: () = assert!(std::mem::size_of::<Op>() == 8);

/// A [`Program`] decoded for banks of one geometry and buffer count:
/// checked once, then run any number of times by [`FunctionalSim::run`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<Op>,
    /// One Montgomery context per distinct modulus; a run starts under
    /// the first.
    moduli: Vec<Montgomery32>,
    /// Per-lane twiddles of every distinct `(q, ω0, rω)` a C2 or Scale
    /// uses.
    twiddles: Vec<Atom>,
    /// Every distinct `(q, C1 parameters)` as a precomputed kernel.
    kernels: Vec<C1Kernel>,
    shape: BankShape,
}

impl DecodedProgram {
    /// Decodes `program` for banks of `config`, starting from empty
    /// buffers and no modulus.
    ///
    /// # Errors
    ///
    /// The first error the program would hit, in command order:
    ///
    /// * [`PimError::Timing`] ([`TimingError::AddressOutOfRange`]) for a
    ///   row or column outside the bank;
    /// * [`PimError::BufferMisuse`] for a buffer the configuration lacks
    ///   or one read before it was filled, a C2/Pointwise whose operands
    ///   coincide, a compute command before `SetModulus`, a malformed C1,
    ///   or a register lane outside the atom;
    /// * [`PimError::Math`] for a modulus the datapath cannot use;
    /// * [`PimError::BadConfig`] when `config` itself is invalid.
    pub fn decode(config: &PimConfig, program: &Program) -> Result<Self, PimError> {
        config.validate()?;
        let geometry = config.geometry;
        let row_words = geometry.row_words();
        let check_row = |row: u32| {
            if row >= geometry.rows_per_bank {
                return Err(TimingError::AddressOutOfRange {
                    what: "row",
                    value: row as u64,
                    limit: geometry.rows_per_bank as u64,
                });
            }
            Ok(())
        };
        let check_col = |col: u32| {
            if col >= geometry.cols_per_row {
                return Err(TimingError::AddressOutOfRange {
                    what: "column",
                    value: col as u64,
                    limit: geometry.cols_per_row as u64,
                });
            }
            Ok(())
        };
        // `validate` bounds a bank below 2³² words, so offsets fit a u32.
        let word = |row: u32, col: u32| (row as usize * row_words + col as usize * NA) as u32;
        let check_lane = |lane: u8| {
            if lane as usize >= NA {
                return Err(PimError::BufferMisuse {
                    reason: format!("lane {lane} out of range"),
                });
            }
            Ok(lane)
        };

        let mut bufs = BufferState::new(config.n_bufs);
        let mut d = Self {
            ops: Vec::with_capacity(program.commands.len()),
            moduli: Vec::new(),
            twiddles: Vec::new(),
            kernels: Vec::new(),
            shape: BankShape::of(config),
        };
        // The context compute commands run under, as an index into
        // `d.moduli`, and the dedup maps behind the tables.
        let mut ctx: Option<u32> = None;
        let mut ctx_of: HashMap<u32, u32> = HashMap::new();
        let mut row_of: HashMap<(u32, TwiddleParams), u32> = HashMap::new();
        let mut kernel_of = HashMap::new();
        let current = |ctx: Option<u32>| {
            ctx.ok_or_else(|| PimError::BufferMisuse {
                reason: "compute command before SetModulus broadcast".into(),
            })
        };
        let mut twiddle_row = |d: &mut Self, ctx: u32, tw: TwiddleParams| {
            *row_of.entry((ctx, tw)).or_insert_with(|| {
                d.twiddles
                    .push(cu::lane_twiddles(&d.moduli[ctx as usize], tw));
                (d.twiddles.len() - 1) as u32
            })
        };

        for cmd in &program.commands {
            let op = match *cmd {
                PimCommand::Act { row } => {
                    check_row(row)?;
                    continue;
                }
                PimCommand::Pre | PimCommand::Refresh | PimCommand::SetTwiddle { .. } => continue,
                PimCommand::CuRead { row, col, buf } => {
                    check_row(row)?;
                    check_col(col)?;
                    Op::Read {
                        buf: bufs.fill(buf)?,
                        word: word(row, col),
                    }
                }
                PimCommand::CuWrite { row, col, buf } => {
                    check_row(row)?;
                    let buf = bufs.valid(buf, "read")?;
                    check_col(col)?;
                    Op::Write {
                        buf,
                        word: word(row, col),
                    }
                }
                PimCommand::C1 { buf, ref params } => {
                    let c = current(ctx)?;
                    let kernel = match kernel_of.get(&(c, params)) {
                        Some(&k) => k,
                        None => {
                            let kernel = C1Kernel::new(&d.moduli[c as usize], params)?;
                            d.kernels.push(kernel);
                            let k = (d.kernels.len() - 1) as u32;
                            kernel_of.insert((c, params), k);
                            k
                        }
                    };
                    Op::C1 {
                        buf: bufs.valid(buf, "written")?,
                        kernel,
                    }
                }
                PimCommand::C2 { p, s, tw, order } => {
                    let c = current(ctx)?;
                    let (p, s) = bufs.pair(p, s)?;
                    Op::C2 {
                        p,
                        s,
                        order,
                        row: twiddle_row(&mut d, c, tw),
                    }
                }
                PimCommand::Scale { buf, tw } => {
                    let c = current(ctx)?;
                    Op::Scale {
                        buf: bufs.valid(buf, "written")?,
                        row: twiddle_row(&mut d, c, tw),
                    }
                }
                PimCommand::Pointwise { p, s } => {
                    current(ctx)?;
                    let (p, s) = bufs.pair(p, s)?;
                    Op::Pointwise { p, s }
                }
                PimCommand::SetModulus { q } => {
                    let next = match ctx_of.get(&q) {
                        Some(&c) => c,
                        None => {
                            d.moduli.push(Montgomery32::new(q)?);
                            let c = (d.moduli.len() - 1) as u32;
                            ctx_of.insert(q, c);
                            c
                        }
                    };
                    // A run starts under context 0, so only a switch
                    // between two contexts needs an op.
                    let switch = ctx.is_some_and(|c| c != next);
                    ctx = Some(next);
                    if !switch {
                        continue;
                    }
                    Op::Modulus { ctx: next }
                }
                PimCommand::RegLoad { buf, lane, reg } => {
                    let buf = bufs.valid(buf, "read")?;
                    Op::RegLoad {
                        buf,
                        lane: check_lane(lane)?,
                        reg,
                    }
                }
                PimCommand::RegStore { buf, lane, reg } => {
                    let buf = bufs.valid(buf, "written")?;
                    Op::RegStore {
                        buf,
                        lane: check_lane(lane)?,
                        reg,
                    }
                }
                PimCommand::RegBu { omega_mont, order } => {
                    current(ctx)?;
                    Op::RegBu { order, omega_mont }
                }
            };
            d.ops.push(op);
        }
        if d.moduli.is_empty() {
            // No SetModulus means no compute op (rejected above), so the
            // context a run starts under is never read; any valid one
            // stands in.
            d.moduli.push(Montgomery32::new(3)?);
        }
        d.ops.shrink_to_fit();
        d.moduli.shrink_to_fit();
        d.twiddles.shrink_to_fit();
        d.kernels.shrink_to_fit();
        Ok(d)
    }

    /// Heap bytes the decoded form holds: ops, Montgomery contexts,
    /// twiddle rows and C1 kernels.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<Op>()
            + self.moduli.capacity() * size_of::<Montgomery32>()
            + self.twiddles.capacity() * size_of::<Atom>()
            + self.kernels.capacity() * size_of::<C1Kernel>()
    }

    /// The flat loop: every op on fixed 8-lane atoms, reading and writing
    /// `cells` in place. Decoding checked every offset, buffer and
    /// modulus, so nothing here can fail.
    fn run_on(&self, cells: &mut [u32], bufs: &mut [BufAtom]) {
        let mut mont = self.moduli[0];
        let (mut reg_a, mut reg_b) = (0u32, 0u32);
        for &op in &self.ops {
            match op {
                Op::Read { buf, word } => {
                    let w = word as usize;
                    bufs[buf as usize].0.copy_from_slice(&cells[w..w + NA]);
                }
                Op::Write { buf, word } => {
                    let w = word as usize;
                    cells[w..w + NA].copy_from_slice(&bufs[buf as usize].0);
                }
                Op::C1 { buf, kernel } => {
                    self.kernels[kernel as usize].run(&mont, &mut bufs[buf as usize].0);
                }
                Op::C2 { p, s, order, row } => {
                    let (mut x, mut y) = (bufs[p as usize].0, bufs[s as usize].0);
                    cu::c2(&mont, &mut x, &mut y, &self.twiddles[row as usize], order);
                    bufs[p as usize].0 = x;
                    bufs[s as usize].0 = y;
                }
                Op::Scale { buf, row } => {
                    cu::scale(
                        &mont,
                        &mut bufs[buf as usize].0,
                        &self.twiddles[row as usize],
                    );
                }
                Op::Pointwise { p, s } => {
                    let rhs = bufs[s as usize].0;
                    cu::pointwise(&mont, &mut bufs[p as usize].0, &rhs);
                }
                Op::Modulus { ctx } => mont = self.moduli[ctx as usize],
                Op::RegLoad { buf, lane, reg } => {
                    let v = bufs[buf as usize].0[lane as usize];
                    match reg {
                        OperandReg::A => reg_a = v,
                        OperandReg::B => reg_b = v,
                    }
                }
                Op::RegStore { buf, lane, reg } => {
                    bufs[buf as usize].0[lane as usize] = match reg {
                        OperandReg::A => reg_a,
                        OperandReg::B => reg_b,
                    };
                }
                Op::RegBu { order, omega_mont } => {
                    (reg_a, reg_b) = cu::butterfly(&mont, reg_a, reg_b, omega_mont, order);
                }
            }
        }
    }
}

/// Compares PIM output against an expected vector, reporting the first
/// mismatch.
///
/// # Errors
///
/// * [`PimError::LengthMismatch`] when the two differ in length;
/// * [`PimError::VerificationFailed`] with the offending index and
///   values.
pub fn check_equal(got: &[u32], expected: &[u32]) -> Result<(), PimError> {
    if got.len() != expected.len() {
        return Err(PimError::LengthMismatch {
            got: got.len(),
            expected: expected.len(),
        });
    }
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        if g != e {
            return Err(PimError::VerificationFailed {
                index: i,
                got: g,
                expected: e,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::BufId;
    use crate::mapper::{map_ntt, map_pointwise, map_scale, Dataflow, MapperOptions, NttParams};
    use modmath::bitrev::bitrev_permute;

    const Q: u32 = 2_013_265_921; // 15 * 2^27 + 1

    fn omega_for(n: usize) -> u32 {
        modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32
    }

    fn random_poly(n: usize, seed: u64) -> Vec<u32> {
        // Small deterministic LCG; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % Q as u64) as u32
            })
            .collect()
    }

    fn program(commands: Vec<PimCommand>) -> Program {
        Program {
            commands,
            final_base: 0,
            c2_ops: 0,
            c1_ops: 0,
            marks: Vec::new(),
        }
    }

    /// Full forward-NTT equivalence against the golden model, across all
    /// three regimes and buffer counts.
    #[test]
    fn mapped_ntt_matches_reference() {
        for nb in [1usize, 2, 4, 6] {
            for n in [4usize, 8, 16, 64, 256, 512, 1024] {
                if nb == 1 && n > 256 {
                    continue; // scalar strawman is slow; cover the regimes once
                }
                let c = PimConfig::hbm2e(nb);
                let layout = PolyLayout::new(&c, 0, n).unwrap();
                let params = NttParams {
                    q: Q,
                    omega: omega_for(n),
                };
                let prog = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
                let mut sim = FunctionalSim::new(&c).unwrap();
                let poly = random_poly(n, (nb * 1000 + n) as u64);
                let mut br: Vec<u32> = poly.clone();
                bitrev_permute(&mut br);
                sim.load_words(0, &br);
                sim.execute(&prog).unwrap();
                let got = sim.read_region_at(prog.final_base, n);
                let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
                check_equal(&got, &expect).unwrap_or_else(|e| panic!("nb={nb} n={n}: {e}"));
            }
        }
    }

    fn reference_ntt(x: &[u32], w: u64, q: u64) -> Vec<u32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = 0u64;
                for (i, &v) in x.iter().enumerate() {
                    let tw = modmath::arith::pow_mod(w, (i * k) as u64, q);
                    acc = modmath::arith::add_mod(acc, modmath::arith::mul_mod(v as u64, tw, q), q);
                }
                acc as u32
            })
            .collect()
    }

    #[test]
    fn dif_dataflow_matches_reference_bitrev_out() {
        for n in [16usize, 256, 1024] {
            let c = PimConfig::hbm2e(4);
            let layout = PolyLayout::new(&c, 0, n).unwrap();
            let params = NttParams {
                q: Q,
                omega: omega_for(n),
            };
            let opts = MapperOptions {
                dataflow: Dataflow::DifToBitrev,
                ..Default::default()
            };
            let prog = map_ntt(&c, &layout, &params, &opts).unwrap();
            let mut sim = FunctionalSim::new(&c).unwrap();
            let poly = random_poly(n, n as u64);
            sim.load_words(0, &poly);
            sim.execute(&prog).unwrap();
            let mut got = sim.read_region_at(prog.final_base, n);
            bitrev_permute(&mut got);
            let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
            check_equal(&got, &expect).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn ping_pong_ablation_still_correct() {
        let n = 1024;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let params = NttParams {
            q: Q,
            omega: omega_for(n),
        };
        let opts = MapperOptions {
            in_place_update: false,
            ..Default::default()
        };
        let prog = map_ntt(&c, &layout, &params, &opts).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 99);
        let mut br = poly.clone();
        bitrev_permute(&mut br);
        sim.load_words(0, &br);
        sim.execute(&prog).unwrap();
        let got = sim.read_region_at(prog.final_base, n);
        let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
        check_equal(&got, &expect).unwrap();
    }

    #[test]
    fn inverse_after_forward_is_identity_with_scale() {
        let n = 256;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let omega = omega_for(n);
        let params = NttParams { q: Q, omega };
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 7);
        let mut br = poly.clone();
        bitrev_permute(&mut br);
        sim.load_words(0, &br);
        // Forward (bitrev in, natural out).
        let fwd = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
        sim.execute(&fwd).unwrap();
        // Inverse: DIF graph back to bit-reversed order, inverse twiddles.
        let opts = MapperOptions {
            dataflow: Dataflow::DifToBitrev,
            inverse: true,
            ..Default::default()
        };
        let inv = map_ntt(&c, &layout, &params, &opts).unwrap();
        sim.execute(&inv).unwrap();
        // Scale by N⁻¹ (result currently bit-reversed; scaling is
        // element-wise uniform so order does not matter).
        let n_inv = modmath::arith::inv_mod(n as u64, Q as u64).unwrap() as u32;
        let scale = map_scale(&c, &layout, Q, n_inv, 1).unwrap();
        sim.execute(&scale).unwrap();
        let mut got = sim.read_region(&layout);
        bitrev_permute(&mut got);
        check_equal(&got, &poly).unwrap();
    }

    #[test]
    fn pointwise_program_multiplies_regions() {
        let n = 256;
        let c = PimConfig::hbm2e(2);
        let a = PolyLayout::new(&c, 0, n).unwrap();
        let b = PolyLayout::new(&c, 256, n).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let pa = random_poly(n, 1);
        let pb = random_poly(n, 2);
        sim.load_words(0, &pa);
        sim.load_words(256, &pb);
        let prog = map_pointwise(&c, &a, &b, Q).unwrap();
        sim.execute(&prog).unwrap();
        let got = sim.read_region(&a);
        for i in 0..n {
            assert_eq!(
                got[i] as u64,
                modmath::arith::mul_mod(pa[i] as u64, pb[i] as u64, Q as u64)
            );
        }
        // b unchanged.
        assert_eq!(sim.read_region(&b), pb);
    }

    #[test]
    fn scale_program_weights_by_geometric_sequence() {
        let n = 64;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 5);
        sim.load_words(0, &poly);
        let psi = modmath::prime::root_of_unity(2 * n as u64, Q as u64).unwrap() as u32;
        let prog = map_scale(&c, &layout, Q, 1, psi).unwrap();
        sim.execute(&prog).unwrap();
        let got = sim.read_region(&layout);
        for i in 0..n {
            let w = modmath::arith::pow_mod(psi as u64, i as u64, Q as u64);
            assert_eq!(
                got[i] as u64,
                modmath::arith::mul_mod(poly[i] as u64, w, Q as u64),
                "element {i}"
            );
        }
    }

    #[test]
    fn check_equal_rejects_truncated_results_either_way() {
        for (got, expected) in [(&[1u32][..], &[1u32, 2][..]), (&[1, 2], &[1])] {
            assert_eq!(
                check_equal(got, expected),
                Err(PimError::LengthMismatch {
                    got: got.len(),
                    expected: expected.len(),
                })
            );
        }
        assert_eq!(
            check_equal(&[1, 2], &[1, 3]),
            Err(PimError::VerificationFailed {
                index: 1,
                got: 2,
                expected: 3,
            })
        );
        assert_eq!(check_equal(&[], &[]), Ok(()));
    }

    /// A CU-write lands in the cell array in place — there is no row
    /// buffer to restore — so host DMA right after the run sees it, and
    /// a read of the same atom later in the program sees it too.
    #[test]
    fn cu_write_lands_in_the_array_in_place() {
        let c = PimConfig::hbm2e(2);
        let row1 = c.row_words();
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(row1, &[7; 8]);
        let (p, s) = (BufId(0), BufId(1));
        let prog = program(vec![
            PimCommand::Act { row: 1 },
            PimCommand::CuRead {
                row: 1,
                col: 0,
                buf: p,
            },
            PimCommand::CuWrite {
                row: 1,
                col: 3,
                buf: p,
            },
            PimCommand::Pre,
            // Reopen row 1 and read back what the write left.
            PimCommand::CuRead {
                row: 1,
                col: 3,
                buf: s,
            },
            PimCommand::CuWrite {
                row: 2,
                col: 31,
                buf: s,
            },
            PimCommand::Refresh,
        ]);
        sim.execute(&prog).unwrap();
        assert_eq!(sim.read_words(row1 + 24, 8), vec![7; 8]);
        assert_eq!(sim.read_words(2 * row1 + 248, 8), vec![7; 8]);
        assert_eq!(sim.read_words(row1 + 8, 16), vec![0; 16], "untouched");
    }

    /// A mapped forward NTT and a bank loaded with its input.
    fn mutation_fixture(nb: usize, n: usize) -> (PimConfig, Program, FunctionalSim) {
        let c = PimConfig::hbm2e(nb);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let params = NttParams {
            q: Q,
            omega: omega_for(n),
        };
        let prog = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
        assert_eq!(prog.commands[0], PimCommand::SetModulus { q: Q });
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(0, &random_poly(n, 3));
        (c, prog, sim)
    }

    /// Each mutation of a mapped program is rejected with the variant
    /// the per-command interpreter returned, and leaves the bank's words
    /// exactly as they were.
    #[test]
    fn mutated_programs_fail_typed_and_leave_the_bank_untouched() {
        type Mutation = fn(&mut Vec<PimCommand>, &PimConfig);
        type Expect = fn(&PimError) -> bool;
        fn first(cmds: &[PimCommand], f: impl Fn(&PimCommand) -> bool) -> usize {
            cmds.iter().position(f).expect("command present")
        }
        let misuse: Expect = |e| matches!(e, PimError::BufferMisuse { .. });
        let address: Expect =
            |e| matches!(e, PimError::Timing(TimingError::AddressOutOfRange { .. }));
        let math: Expect = |e| matches!(e, PimError::Math(_));
        let cases: Vec<(&str, Mutation, Expect)> = vec![
            (
                "first CuRead dropped",
                |cmds, _| {
                    let i = first(cmds, |c| matches!(c, PimCommand::CuRead { .. }));
                    cmds.remove(i);
                },
                misuse,
            ),
            (
                "row past the bank",
                |cmds, c| {
                    let i = first(cmds, |c| matches!(c, PimCommand::CuWrite { .. }));
                    if let PimCommand::CuWrite { row, .. } = &mut cmds[i] {
                        *row = c.geometry.rows_per_bank;
                    }
                },
                address,
            ),
            (
                "column past the row",
                |cmds, c| {
                    let i = first(cmds, |c| matches!(c, PimCommand::CuRead { .. }));
                    if let PimCommand::CuRead { col, .. } = &mut cmds[i] {
                        *col = c.geometry.cols_per_row;
                    }
                },
                address,
            ),
            (
                "explicit ACT past the bank",
                |cmds, c| {
                    let row = c.geometry.rows_per_bank + 7;
                    cmds.insert(1, PimCommand::Act { row });
                },
                address,
            ),
            (
                "buffer past Nb",
                |cmds, c| {
                    let i = first(cmds, |c| matches!(c, PimCommand::CuRead { .. }));
                    if let PimCommand::CuRead { buf, .. } = &mut cmds[i] {
                        *buf = BufId(c.n_bufs as u8);
                    }
                },
                misuse,
            ),
            (
                "C2 with p == s",
                |cmds, _| {
                    let i = first(cmds, |c| matches!(c, PimCommand::C2 { .. }));
                    if let PimCommand::C2 { p, s, .. } = &mut cmds[i] {
                        *s = *p;
                    }
                },
                misuse,
            ),
            (
                "compute before SetModulus",
                |cmds, _| {
                    cmds.remove(0);
                },
                misuse,
            ),
            (
                "C1 over 3 points",
                |cmds, _| {
                    let i = first(cmds, |c| matches!(c, PimCommand::C1 { .. }));
                    if let PimCommand::C1 { params, .. } = &mut cmds[i] {
                        params.points = 3;
                    }
                },
                misuse,
            ),
            (
                "C1 with a missing stage step",
                |cmds, _| {
                    let i = first(cmds, |c| matches!(c, PimCommand::C1 { .. }));
                    if let PimCommand::C1 { params, .. } = &mut cmds[i] {
                        params.stage_steps_mont.pop();
                    }
                },
                misuse,
            ),
            (
                "even modulus",
                |cmds, _| cmds[0] = PimCommand::SetModulus { q: 7680 },
                math,
            ),
        ];
        for (name, mutate, expected) in cases {
            let (c, mut prog, mut sim) = mutation_fixture(2, 1024);
            // The unmutated program runs; its mutant must not touch the
            // bank at all.
            let before = sim.read_words(0, 2 * c.row_words() * 4);
            mutate(&mut prog.commands, &c);
            let err = sim.execute(&prog).expect_err(name);
            assert!(expected(&err), "{name}: {err}");
            assert_eq!(sim.read_words(0, before.len()), before, "{name}");
        }
        // Pointwise with p == s, and a register lane past the atom, on
        // the program shapes that carry them.
        let c = PimConfig::hbm2e(2);
        let a = PolyLayout::new(&c, 0, 64).unwrap();
        let b = PolyLayout::new(&c, 256, 64).unwrap();
        let mut pw = map_pointwise(&c, &a, &b, Q).unwrap();
        let i = pw
            .commands
            .iter()
            .position(|c| matches!(c, PimCommand::Pointwise { .. }))
            .unwrap();
        pw.commands[i] = PimCommand::Pointwise {
            p: BufId(1),
            s: BufId(1),
        };
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(0, &random_poly(512, 4));
        let before = sim.read_words(0, 512);
        assert!(misuse(&sim.execute(&pw).unwrap_err()));
        assert_eq!(sim.read_words(0, 512), before);
        let (c1, mut scalar, mut sim) = mutation_fixture(1, 64);
        let before = sim.read_words(0, 256);
        let i = scalar
            .commands
            .iter()
            .position(|c| matches!(c, PimCommand::RegLoad { .. }))
            .unwrap();
        if let PimCommand::RegLoad { lane, .. } = &mut scalar.commands[i] {
            *lane = c1.na() as u8;
        }
        assert!(misuse(&sim.execute(&scalar).unwrap_err()));
        assert_eq!(sim.read_words(0, 256), before);
    }

    /// Every program is checked from empty buffers: reading a buffer the
    /// program never filled fails even when an earlier program left data
    /// in it.
    #[test]
    fn programs_are_self_contained() {
        let c = PimConfig::hbm2e(2);
        let mut sim = FunctionalSim::new(&c).unwrap();
        let fill = program(vec![PimCommand::CuRead {
            row: 0,
            col: 0,
            buf: BufId(1),
        }]);
        sim.execute(&fill).unwrap();
        let write = program(vec![PimCommand::CuWrite {
            row: 0,
            col: 1,
            buf: BufId(1),
        }]);
        assert!(matches!(
            sim.execute(&write),
            Err(PimError::BufferMisuse { .. })
        ));
        // The same modulus rule: a broadcast from an earlier program does
        // not carry over.
        let compute = program(vec![
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: BufId(0),
            },
            PimCommand::Scale {
                buf: BufId(0),
                tw: TwiddleParams {
                    omega0_mont: 1,
                    r_omega_mont: 1,
                },
            },
        ]);
        let mut with_modulus = compute.clone();
        with_modulus
            .commands
            .insert(0, PimCommand::SetModulus { q: 7681 });
        sim.execute(&with_modulus).unwrap();
        assert!(matches!(
            sim.execute(&compute),
            Err(PimError::BufferMisuse { .. })
        ));
    }

    /// A program that switches modulus mid-stream runs each half under
    /// its own context; decoded twiddle rows and kernels are shared
    /// across repeats of the same parameters.
    #[test]
    fn modulus_switches_and_table_dedup() {
        let c = PimConfig::hbm2e(2);
        let n = 64;
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let poly: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
        let (q1, q2) = (7681u32, 12289u32);
        let scale_by = |q: u32, r: u32| map_scale(&c, &layout, q, 1, r).unwrap();
        let mut prog = scale_by(q1, 2);
        prog.commands.extend(scale_by(q2, 3).commands);
        prog.commands.extend(scale_by(q1, 2).commands);
        let decoded = DecodedProgram::decode(&c, &prog).unwrap();
        assert_eq!(decoded.moduli.len(), 2);
        let switches = decoded
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Modulus { .. }))
            .count();
        assert_eq!(switches, 2, "q1 → q2 → q1");
        // 8 atoms per scale pass, the q1 pass repeated: 16 distinct rows.
        assert_eq!(decoded.twiddles.len(), 16);
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(0, &poly);
        sim.run(&decoded).unwrap();
        let got = sim.read_region(&layout);
        for (i, (&g, &x)) in got.iter().zip(&poly).enumerate() {
            let p = |v: u64, r: u64, q: u64| {
                modmath::arith::mul_mod(v, modmath::arith::pow_mod(r, i as u64, q), q)
            };
            let expect = p(p(p(x as u64, 2, q1 as u64), 3, q2 as u64), 2, q1 as u64);
            assert_eq!(g as u64, expect, "element {i}");
        }
        // A decoded program runs only on banks of its shape.
        let mut other = FunctionalSim::new(&PimConfig::hbm2e(4)).unwrap();
        assert!(matches!(
            other.run(&decoded),
            Err(PimError::BadConfig { .. })
        ));
    }
}
