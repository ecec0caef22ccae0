//! Functional co-simulation — the paper's front-end-driver verification
//! loop (§VI.A: the driver "runs iteratively with DRAMsim3 … to double-
//! check the correctness of timing and functionality").
//!
//! [`FunctionalSim`] executes a mapped command stream for *values*: every
//! `C1`/`C2`/`Scale`/`Pointwise` runs the Montgomery datapath on the
//! atoms the stream's `CU-read`s name, and the results land where its
//! `CU-write`s put them. Timing is the scheduler's concern; running both
//! over the same stream and cross-checking against the `ntt-ref` golden
//! models is the system's end-to-end correctness argument.
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
//!   What it emits is 12-byte ops carrying resolved word offsets and
//!   indices into deduplicated per-lane twiddle rows and C1 kernels. The
//!   compute unit updates atoms in place (§III.C): it reads an atom into
//!   a buffer, computes and writes it back to the same address. Each
//!   such read → compute → write-back decodes to one op that computes on
//!   the bank's cells in place, whenever no other op could tell the
//!   difference (the conditions are on the decoder's pending state,
//!   `Fuser`). Every other value-moving command is one op of its own.
//!   In-place ops exist only as *runs*: a maximal sequence of in-place
//!   ops of one kind (C1 with one kernel, C2 in one order, Scale or
//!   Pointwise) whose cell words and twiddle rows advance by constant
//!   steps is one entry, with its start and steps in a side table, and a
//!   lone op is a run of one. An in-place N = 4096 forward program
//!   executes one op per C1 and C2, 2,816 in all, from 257 entries: one
//!   run of every C1 and 256 runs of C2s.
//! * **Run** ([`FunctionalSim::run`]) is a flat loop over those entries
//!   with no per-command check, one arm per kind; a run's arm loops over
//!   its ops in order, so runs execute exactly the ops, in the order, a
//!   loop over single ops would. It reads and writes the bank's cell
//!   array in place — exact, because an open row's cells are reachable
//!   only through that row (see [`dram_sim::storage`]) — on fixed 8-lane
//!   atoms.
//!
//! A decoded program depends only on the program, the bank geometry and
//! the buffer count, so a caller that runs one program many times (the
//! batch executor's program memo) decodes it once.

use crate::buffers::BufferState;
use crate::cmd::{BuOrder, OperandReg, PimCommand, TwiddleParams};
use crate::config::PimConfig;
use crate::cu::{self, Atom, C1Kernel, Twiddle, TwiddleRow, NA};
use crate::layout::PolyLayout;
use crate::mapper::Program;
use crate::PimError;
use dram_sim::storage::BankStorage;
use dram_sim::TimingError;
use modmath::montgomery::Montgomery32;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The decoder's table keys are a few small integers, hashed with one
/// multiply-rotate per word instead of SipHash: the programs come from
/// the mapper, not from an adversary.
#[derive(Debug, Default, Clone, Copy)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.add(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by small integers.
type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

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

    /// Host DMA: the `len` words of the array from `base_word`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bank.
    pub(crate) fn words(&self, base_word: usize, len: usize) -> &[u32] {
        &self.storage.cells()[base_word..base_word + len]
    }

    /// Host DMA: the `len` words of the array from `base_word`, to write
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bank.
    pub(crate) fn words_mut(&mut self, base_word: usize, len: usize) -> &mut [u32] {
        &mut self.storage.cells_mut()[base_word..base_word + len]
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

/// One decoded command, with addresses resolved to cell-array word
/// offsets and twiddles to table indices. `ACT`, `PRE`, refresh and
/// twiddle broadcasts move no values and decode to nothing; a CU-read,
/// compute and CU-write-back of one atom decode to one in-place op, and
/// consecutive in-place ops of one kind whose words and twiddle rows
/// advance by constant steps share one entry, a [`Run`].
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
    /// Run `run`: C1s with kernel `kernel`, each on the atom at its cell
    /// word `p`, in place.
    C1At { kernel: u32, run: u32 },
    /// Run `run`: C2s in order `order`, each between the atoms at its
    /// cell words `p` and `s` with its twiddle row, in place.
    C2At { order: BuOrder, run: u32 },
    /// Run `run`: Scales, each of the atom at its cell word `p` by its
    /// twiddle row, in place.
    ScaleAt { run: u32 },
    /// Run `run`: each the atom at its cell word `p` times the one at
    /// `s`, lane-wise, in place at `p`.
    PointwiseAt { run: u32 },
    /// Switch to Montgomery context `ctx`.
    Modulus { ctx: u32 },
    /// Lane `lane` of `buf` into operand register `reg`.
    RegLoad { buf: u8, lane: u8, reg: OperandReg },
    /// Operand register `reg` into lane `lane` of `buf`.
    RegStore { buf: u8, lane: u8, reg: OperandReg },
    /// Scalar butterfly on the operand registers, by twiddle `tw`.
    RegBu { order: BuOrder, tw: Twiddle },
}

const _: () = assert!(std::mem::size_of::<Op>() == 12);

/// What one in-place op computes, and what every op of a run shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunKind {
    C1 { kernel: u32 },
    C2 { order: BuOrder },
    Scale,
    Pointwise,
}

impl RunKind {
    /// The entry of run `run` of this kind.
    fn op(self, run: u32) -> Op {
        match self {
            RunKind::C1 { kernel } => Op::C1At { kernel, run },
            RunKind::C2 { order } => Op::C2At { order, run },
            RunKind::Scale => Op::ScaleAt { run },
            RunKind::Pointwise => Op::PointwiseAt { run },
        }
    }

    /// The kind of a run entry, `None` for any other op.
    fn of(op: Op) -> Option<Self> {
        match op {
            Op::C1At { kernel, .. } => Some(RunKind::C1 { kernel }),
            Op::C2At { order, .. } => Some(RunKind::C2 { order }),
            Op::ScaleAt { .. } => Some(RunKind::Scale),
            Op::PointwiseAt { .. } => Some(RunKind::Pointwise),
            _ => None,
        }
    }
}

/// One fused read → compute → write-back, before it joins a run: its
/// kind, the cell words of its operands (`s` is 0 for C1 and Scale) and
/// its twiddle row (0 for C1 and Pointwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InPlace {
    kind: RunKind,
    p: u32,
    s: u32,
    row: u32,
}

/// `count` in-place ops of one kind, run in order: op `k` computes on
/// cell words `p + k·dp` and `s + k·ds` with twiddle row `row + k·drow`.
/// The steps are two's-complement offsets, so a run may walk down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    count: u32,
    p: u32,
    s: u32,
    row: u32,
    dp: u32,
    ds: u32,
    drow: u32,
}

impl Run {
    /// A run of one.
    fn new(op: InPlace) -> Self {
        Self {
            count: 1,
            p: op.p,
            s: op.s,
            row: op.row,
            dp: 0,
            ds: 0,
            drow: 0,
        }
    }

    /// Appends `op` when it continues the run's steps (any steps, after
    /// the first op); the caller checked the kind.
    fn extend(&mut self, op: InPlace) -> bool {
        let at = |start: u32, step: u32| start.wrapping_add(step.wrapping_mul(self.count));
        if self.count == 1 {
            self.dp = op.p.wrapping_sub(self.p);
            self.ds = op.s.wrapping_sub(self.s);
            self.drow = op.row.wrapping_sub(self.row);
        } else if (op.p, op.s, op.row)
            != (
                at(self.p, self.dp),
                at(self.s, self.ds),
                at(self.row, self.drow),
            )
        {
            return false;
        }
        self.count += 1;
        true
    }

    /// Calls `f(p, s, row)` for each op in turn.
    #[inline(always)]
    fn each(&self, mut f: impl FnMut(u32, u32, u32)) {
        let (mut p, mut s, mut row) = (self.p, self.s, self.row);
        for _ in 0..self.count {
            f(p, s, row);
            p = p.wrapping_add(self.dp);
            s = s.wrapping_add(self.ds);
            row = row.wrapping_add(self.drow);
        }
    }
}

/// Final ops and the runs their in-place entries stand for.
#[derive(Debug, Default)]
struct Stream {
    ops: Vec<Op>,
    runs: Vec<Run>,
}

impl Stream {
    /// Appends a final op that is not in place.
    fn op(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Appends a fused op: it joins the run the last entry stands for
    /// when it has that run's kind and continues its steps, and starts a
    /// run of its own otherwise. The last run entry's run is always the
    /// newest run.
    fn fused(&mut self, op: InPlace) {
        let last = self.ops.last().copied().and_then(RunKind::of);
        if last == Some(op.kind) && self.runs.last_mut().is_some_and(|run| run.extend(op)) {
            return;
        }
        self.runs.push(Run::new(op));
        self.ops.push(op.kind.op((self.runs.len() - 1) as u32));
    }
}

/// How far one buffer's contents are along a read → compute → write-back
/// of one atom, as the decoder walks a program.
#[derive(Debug, Clone, Copy)]
enum Track {
    /// Nothing that can fuse.
    Idle,
    /// Filled by the op at `read` from cell word `word`, not used yet.
    Loaded { read: u32, word: u32 },
    /// An operand of candidate `cand`, computed on; its write-back must
    /// go to `word`, and nothing may read or write `word` before it.
    Computed { cand: usize, word: u32 },
    /// An operand of candidate `cand` that is done with: it fuses once
    /// the next op to touch the buffer refills it, or none does.
    Spent { cand: usize },
}

/// A compute op that becomes `fused` once each of its operands settles.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    fused: InPlace,
    /// Index of the compute op.
    at: u32,
    /// Index of its earliest absorbed read.
    first: u32,
    /// The reads and write-backs the fused op absorbs.
    absorbed: [u32; 4],
    n_absorbed: u8,
    /// Operands not settled yet.
    open: u8,
    /// An operand failed a condition: the ops stay as they are.
    dead: bool,
}

/// An op in the fuser's window.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// As decoded.
    Op(Op),
    /// A compute that fused with its reads and write-backs.
    Fused(InPlace),
    /// A read or write-back a fused compute absorbed.
    Absorbed,
}

/// The decoder's op stream, fusing read → compute → write-back triples
/// in one pass over the program with pending state per buffer.
///
/// A compute on buffer `b` absorbs the `Read` that filled `b` from word
/// `X` and the next `Write` of `b`, which must go back to `X`, when:
///
/// 1. no op between the `Read` and the compute writes `X`, and no other
///    compute in that span fuses on `X` (a fused op writes at its own
///    position, not at its write-back's);
/// 2. no op between the compute and the `Write` reads or writes `X`;
/// 3. the next op after the `Write` that touches `b` is a `Read`, or
///    there is none (programs are checked from empty buffers, so nothing
///    after the program reads `b`).
///
/// The compute must be the first op to touch `b` after the `Read`, and
/// the `Write` the first after the compute. A C2 or Pointwise fuses only
/// when both operands do. A C2's operands then come from distinct words:
/// the first write-back to a shared word breaks the other operand's
/// condition 2. Pointwise's second operand is never written back, so it
/// needs only conditions 1 and 3 (and may share the first's word: the
/// fused op reads both before it writes). The fused op stands where the
/// compute stood and reads and writes the cells in place; the absorbed
/// ops vanish. Anything else — the `Nb = 1` register path, a ping-pong
/// stage writing to another region — stays as it was.
///
/// Ops wait in a window only while a pending triple may still absorb
/// them; everything before the earliest such op is final, and joins the
/// output stream's runs.
struct Fuser {
    /// Final ops.
    out: Stream,
    /// Ops from index `base` on. Indices fit a `u32`: a program of 2³²
    /// commands would take over 64 GiB.
    window: Vec<Pending>,
    base: u32,
    track: Vec<Track>,
    cands: Vec<Candidate>,
    /// Slots of `cands` free for reuse: at most one candidate per buffer
    /// is ever pending.
    free: Vec<usize>,
}

impl Fuser {
    /// A stream for a program of `commands` commands over `n_bufs`
    /// buffers. An in-place program decodes to about one op per four
    /// commands (a read, a compute and a write-back per operand).
    fn new(commands: usize, n_bufs: usize) -> Self {
        Self {
            out: Stream {
                ops: Vec::with_capacity(commands / 4),
                runs: Vec::new(),
            },
            window: Vec::with_capacity(64),
            base: 0,
            track: vec![Track::Idle; n_bufs],
            cands: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Index of the next op.
    fn next(&self) -> u32 {
        self.base + self.window.len() as u32
    }

    /// Appends `op`.
    fn push(&mut self, op: Op) {
        if self.window.len() == self.window.capacity() {
            self.flush();
        }
        self.window.push(Pending::Op(op));
    }

    /// Moves every op no pending triple can absorb or replace to `out`.
    fn flush(&mut self) {
        let pinned = self
            .track
            .iter()
            .map(|t| match *t {
                Track::Idle => u32::MAX,
                Track::Loaded { read, .. } => read,
                Track::Computed { cand, .. } | Track::Spent { cand } => self.cands[cand].first,
            })
            .fold(self.next(), u32::min);
        let done = (pinned - self.base) as usize;
        for &op in &self.window[..done] {
            match op {
                Pending::Op(op) => self.out.op(op),
                Pending::Fused(op) => self.out.fused(op),
                Pending::Absorbed => {}
            }
        }
        self.window.copy_within(done.., 0);
        self.window.truncate(self.window.len() - done);
        self.base = pinned;
    }

    /// A read of `word` into `buf`, pushed next.
    fn read(&mut self, buf: u8, word: u32) {
        for b in 0..self.track.len() {
            if let Track::Computed { word: w, .. } = self.track[b] {
                if w == word && b != buf as usize {
                    self.drop(b);
                }
            }
        }
        match self.track[buf as usize] {
            Track::Spent { cand } => self.settle(cand),
            _ => self.drop(buf as usize),
        }
        let read = self.next();
        self.track[buf as usize] = Track::Loaded { read, word };
    }

    /// A write of `buf` to `word`, pushed next.
    fn write(&mut self, buf: u8, word: u32) {
        for b in 0..self.track.len() {
            if let Track::Loaded { word: w, .. } | Track::Computed { word: w, .. } = self.track[b] {
                if w == word && b != buf as usize {
                    self.drop(b);
                }
            }
        }
        match self.track[buf as usize] {
            Track::Computed { cand, word: w } if w == word => {
                let at = self.next();
                let c = &mut self.cands[cand];
                c.absorbed[c.n_absorbed as usize] = at;
                c.n_absorbed += 1;
                self.track[buf as usize] = Track::Spent { cand };
            }
            _ => self.drop(buf as usize),
        }
    }

    /// Any other op that reads or writes `buf`, pushed next.
    fn touch(&mut self, buf: u8) {
        self.drop(buf as usize);
    }

    /// A compute on `operands`, pushed next, of which the first `written`
    /// are computed on in place and written back and the rest only read;
    /// `fused` builds its in-place form from the operands' words.
    fn compute<const N: usize>(
        &mut self,
        operands: [u8; N],
        written: usize,
        fused: impl FnOnce([u32; N]) -> InPlace,
    ) {
        let mut reads = [0; N];
        let mut words = [0; N];
        for (i, &b) in operands.iter().enumerate() {
            match self.track[b as usize] {
                Track::Loaded { read, word } => {
                    (reads[i], words[i]) = (read, word);
                }
                _ => {
                    for b in operands {
                        self.drop(b as usize);
                    }
                    return;
                }
            }
        }
        // The fused op rewrites the written operands' words here, so a
        // buffer loaded from one of them earlier would read the new value
        // if it fused later.
        for b in 0..self.track.len() {
            if let Track::Loaded { word, .. } = self.track[b] {
                if words[..written].contains(&word) && !operands.contains(&(b as u8)) {
                    self.track[b] = Track::Idle;
                }
            }
        }
        let mut absorbed = [0; 4];
        absorbed[..N].copy_from_slice(&reads);
        let candidate = Candidate {
            fused: fused(words),
            at: self.next(),
            first: reads.into_iter().fold(u32::MAX, u32::min),
            absorbed,
            n_absorbed: N as u8,
            open: N as u8,
            dead: false,
        };
        let cand = match self.free.pop() {
            Some(slot) => {
                self.cands[slot] = candidate;
                slot
            }
            None => {
                self.cands.push(candidate);
                self.cands.len() - 1
            }
        };
        for i in 0..N {
            self.track[operands[i] as usize] = if i < written {
                Track::Computed {
                    cand,
                    word: words[i],
                }
            } else {
                Track::Spent { cand }
            };
        }
    }

    /// The program ended: every spent operand settles. Returns the ops
    /// and their runs.
    fn finish(mut self) -> Stream {
        for b in 0..self.track.len() {
            match self.track[b] {
                Track::Spent { cand } => self.settle(cand),
                _ => self.drop(b),
            }
            self.track[b] = Track::Idle;
        }
        self.flush();
        self.out.ops.shrink_to_fit();
        self.out.runs.shrink_to_fit();
        self.out
    }

    /// `buf` leaves its triple unfinished: its candidate, if any, stays
    /// unfused.
    fn drop(&mut self, buf: usize) {
        if let Track::Computed { cand, .. } | Track::Spent { cand } = self.track[buf] {
            self.cands[cand].dead = true;
            self.release(cand);
        }
        self.track[buf] = Track::Idle;
    }

    /// One operand of `cand` met every condition; the last one to do so
    /// fuses the candidate unless another failed.
    fn settle(&mut self, cand: usize) {
        let c = &self.cands[cand];
        if c.open == 1 && !c.dead {
            let window = &mut self.window[..];
            let base = self.base;
            window[(c.at - base) as usize] = Pending::Fused(c.fused);
            for &i in &c.absorbed[..c.n_absorbed as usize] {
                window[(i - base) as usize] = Pending::Absorbed;
            }
        }
        self.release(cand);
    }

    fn release(&mut self, cand: usize) {
        self.cands[cand].open -= 1;
        if self.cands[cand].open == 0 {
            self.free.push(cand);
        }
    }
}

/// A [`Program`] decoded for banks of one geometry and buffer count:
/// checked once, then run any number of times by [`FunctionalSim::run`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    ops: Vec<Op>,
    /// The runs the in-place entries of `ops` stand for.
    runs: Vec<Run>,
    /// One Montgomery context per distinct modulus; a run starts under
    /// the first.
    moduli: Vec<Montgomery32>,
    /// Per-lane twiddles, in Shoup form, of every distinct `(q, ω0, rω)`
    /// a C2 or Scale uses.
    twiddles: Vec<TwiddleRow>,
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
            ops: Vec::new(),
            runs: Vec::new(),
            moduli: Vec::new(),
            twiddles: Vec::new(),
            kernels: Vec::new(),
            shape: BankShape::of(config),
        };
        let mut ops = Fuser::new(program.commands.len(), config.n_bufs);
        // The context compute commands run under, as an index into
        // `d.moduli`, and the dedup maps behind the tables.
        let mut ctx: Option<u32> = None;
        let mut ctx_of: WordMap<u32, u32> = WordMap::default();
        let mut row_of: WordMap<(u32, TwiddleParams), u32> = WordMap::default();
        let mut kernel_of: WordMap<_, _> = WordMap::default();
        let current = |ctx: Option<u32>| {
            ctx.ok_or_else(|| PimError::BufferMisuse {
                reason: "compute command before SetModulus broadcast".into(),
            })
        };
        let mut twiddle_row = |d: &mut Self, ctx: u32, tw: TwiddleParams| {
            *row_of.entry((ctx, tw)).or_insert_with(|| {
                d.twiddles
                    .push(TwiddleRow::new(&d.moduli[ctx as usize], tw));
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
                    let (buf, word) = (bufs.fill(buf)?, word(row, col));
                    ops.read(buf, word);
                    Op::Read { buf, word }
                }
                PimCommand::CuWrite { row, col, buf } => {
                    check_row(row)?;
                    let buf = bufs.valid(buf, "read")?;
                    check_col(col)?;
                    let word = word(row, col);
                    ops.write(buf, word);
                    Op::Write { buf, word }
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
                    let buf = bufs.valid(buf, "written")?;
                    ops.compute([buf], 1, |[p]| InPlace {
                        kind: RunKind::C1 { kernel },
                        p,
                        s: 0,
                        row: 0,
                    });
                    Op::C1 { buf, kernel }
                }
                PimCommand::C2 { p, s, tw, order } => {
                    let c = current(ctx)?;
                    let (p, s) = bufs.pair(p, s)?;
                    let row = twiddle_row(&mut d, c, tw);
                    ops.compute([p, s], 2, |[p, s]| InPlace {
                        kind: RunKind::C2 { order },
                        p,
                        s,
                        row,
                    });
                    Op::C2 { p, s, order, row }
                }
                PimCommand::Scale { buf, tw } => {
                    let c = current(ctx)?;
                    let buf = bufs.valid(buf, "written")?;
                    let row = twiddle_row(&mut d, c, tw);
                    ops.compute([buf], 1, |[p]| InPlace {
                        kind: RunKind::Scale,
                        p,
                        s: 0,
                        row,
                    });
                    Op::Scale { buf, row }
                }
                PimCommand::Pointwise { p, s } => {
                    current(ctx)?;
                    let (p, s) = bufs.pair(p, s)?;
                    ops.compute([p, s], 1, |[p, s]| InPlace {
                        kind: RunKind::Pointwise,
                        p,
                        s,
                        row: 0,
                    });
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
                    let lane = check_lane(lane)?;
                    ops.touch(buf);
                    Op::RegLoad { buf, lane, reg }
                }
                PimCommand::RegStore { buf, lane, reg } => {
                    let buf = bufs.valid(buf, "written")?;
                    let lane = check_lane(lane)?;
                    ops.touch(buf);
                    Op::RegStore { buf, lane, reg }
                }
                PimCommand::RegBu { omega_mont, order } => {
                    let c = current(ctx)?;
                    let tw = Twiddle::from_mont(&d.moduli[c as usize], omega_mont);
                    Op::RegBu { order, tw }
                }
            };
            ops.push(op);
        }
        Stream {
            ops: d.ops,
            runs: d.runs,
        } = ops.finish();
        if d.moduli.is_empty() {
            // No SetModulus means no compute op (rejected above), so the
            // context a run starts under is never read; any valid one
            // stands in.
            d.moduli.push(Montgomery32::new(3)?);
        }
        d.moduli.shrink_to_fit();
        d.twiddles.shrink_to_fit();
        d.kernels.shrink_to_fit();
        Ok(d)
    }

    /// Ops a run executes: one per value-moving command, with each fused
    /// read → compute → write-back counting once.
    pub fn op_count(&self) -> usize {
        self.ops
            .iter()
            .map(|&op| match RunKind::of(op) {
                Some(_) => self.runs[Self::run_of(op)].count as usize,
                None => 1,
            })
            .sum()
    }

    /// Entries the run loop dispatches: one per run of in-place ops and
    /// one per other op. An in-place N = 4096 forward program executes
    /// 2,816 ops in far fewer entries.
    pub fn dispatch_count(&self) -> usize {
        self.ops.len()
    }

    /// The run a run entry stands for.
    fn run_of(op: Op) -> usize {
        match op {
            Op::C1At { run, .. }
            | Op::C2At { run, .. }
            | Op::ScaleAt { run }
            | Op::PointwiseAt { run } => run as usize,
            _ => unreachable!("{op:?} is not a run entry"),
        }
    }

    /// Heap bytes the decoded form holds: ops, runs, Montgomery
    /// contexts, twiddle rows and C1 kernels.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ops.capacity() * size_of::<Op>()
            + self.runs.capacity() * size_of::<Run>()
            + self.moduli.capacity() * size_of::<Montgomery32>()
            + self.twiddles.capacity() * size_of::<TwiddleRow>()
            + self.kernels.capacity() * size_of::<C1Kernel>()
    }

    /// The flat loop: every entry on fixed 8-lane atoms, a run's ops in
    /// turn, reading and writing `cells` in place. Decoding checked every
    /// offset, buffer and modulus, so nothing here can fail.
    fn run_on(&self, cells: &mut [u32], bufs: &mut [BufAtom]) {
        let mut mont = self.moduli[0];
        let (mut reg_a, mut reg_b) = (0u32, 0u32);
        for &op in &self.ops {
            match op {
                Op::Read { buf, word } => bufs[buf as usize].0 = *atom(cells, word),
                Op::Write { buf, word } => *atom(cells, word) = bufs[buf as usize].0,
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
                Op::C1At { kernel, run } => {
                    let kernel = &self.kernels[kernel as usize];
                    self.runs[run as usize].each(|p, _, _| kernel.run(&mont, atom(cells, p)));
                }
                // The order is fixed for the run, so each arm's loop
                // inlines a C2 of one order.
                Op::C2At { order, run } => {
                    let run = &self.runs[run as usize];
                    let twiddles = &self.twiddles;
                    match order {
                        BuOrder::Ct => run.each(|p, s, row| {
                            c2_at(&mont, cells, p, s, &twiddles[row as usize], BuOrder::Ct);
                        }),
                        BuOrder::Gs => run.each(|p, s, row| {
                            c2_at(&mont, cells, p, s, &twiddles[row as usize], BuOrder::Gs);
                        }),
                    }
                }
                Op::ScaleAt { run } => {
                    self.runs[run as usize].each(|p, _, row| {
                        cu::scale(&mont, atom(cells, p), &self.twiddles[row as usize]);
                    });
                }
                Op::PointwiseAt { run } => {
                    self.runs[run as usize].each(|p, s, _| {
                        let rhs = *atom(cells, s);
                        cu::pointwise(&mont, atom(cells, p), &rhs);
                    });
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
                Op::RegBu { order, tw } => {
                    (reg_a, reg_b) = cu::butterfly(&mont, reg_a, reg_b, tw, order);
                }
            }
        }
    }
}

/// C2 between the atoms at cell words `p` and `s`, in place.
#[inline(always)]
fn c2_at(mont: &Montgomery32, cells: &mut [u32], p: u32, s: u32, tw: &TwiddleRow, order: BuOrder) {
    let (mut x, mut y) = (*atom(cells, p), *atom(cells, s));
    cu::c2(mont, &mut x, &mut y, tw, order);
    *atom(cells, p) = x;
    *atom(cells, s) = y;
}

/// The atom at cell word `word`.
#[inline(always)]
fn atom(cells: &mut [u32], word: u32) -> &mut Atom {
    let w = word as usize;
    (&mut cells[w..w + NA])
        .try_into()
        .expect("an atom's span is NA words")
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
    use crate::cmd::{BufId, C1Params, StageSteps};
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
                        let steps = &params.stage_steps_mont;
                        params.stage_steps_mont =
                            StageSteps::new(&steps[..steps.len() - 1]).unwrap();
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

    /// Every in-place program the mapper and the device build at Nb ≥ 2
    /// decodes to one in-place op per compute command, plus its modulus
    /// switches: no atom moves through a buffer. The in-place ops run as
    /// runs, so the run loop dispatches far fewer entries than it
    /// executes ops.
    #[test]
    fn in_place_programs_decode_to_one_op_per_compute() {
        use crate::device::{NttDirection, PimDevice, StoredOrder};
        let fused = |op: &Op| RunKind::of(*op).is_some();
        for nb in [2usize, 4, 6] {
            let c = PimConfig::hbm2e(nb);
            let dev = PimDevice::new(c).unwrap();
            for n in [4usize, 8, 16, 64, 256, 1024, 4096] {
                let layout = PolyLayout::new(&c, 0, n).unwrap();
                let other = PolyLayout::new(&c, c.polymul_rhs_base(n), n).unwrap();
                let params = NttParams {
                    q: Q,
                    omega: omega_for(n),
                };
                let mut programs = vec![
                    map_scale(&c, &layout, Q, 3, 5).unwrap(),
                    map_pointwise(&c, &layout, &other, Q).unwrap(),
                ];
                for dataflow in [Dataflow::DitFromBitrev, Dataflow::DifToBitrev] {
                    for inverse in [false, true] {
                        for group_same_row in [false, true] {
                            let opts = MapperOptions {
                                dataflow,
                                inverse,
                                group_same_row,
                                in_place_update: true,
                            };
                            programs.push(map_ntt(&c, &layout, &params, &opts).unwrap());
                        }
                    }
                }
                let poly = random_poly(n, 1);
                let handle = |base, order| {
                    *dev.operand(0, base, poly.clone(), Q, order)
                        .unwrap()
                        .handle()
                };
                let (a, b) = (
                    handle(0, StoredOrder::Natural),
                    handle(c.polymul_rhs_base(n), StoredOrder::Natural),
                );
                programs.push(dev.build_ntt_program(&a, NttDirection::Inverse).unwrap());
                programs.push(dev.polymul_program(&a, &b).unwrap());
                let mut mixed = map_scale(&c, &layout, 7681, 1, 2).unwrap();
                mixed.commands.extend(programs[0].commands.clone());
                programs.push(mixed);
                for program in &programs {
                    let computes = program
                        .commands
                        .iter()
                        .filter(|cmd| {
                            matches!(
                                cmd,
                                PimCommand::C1 { .. }
                                    | PimCommand::C2 { .. }
                                    | PimCommand::Scale { .. }
                                    | PimCommand::Pointwise { .. }
                            )
                        })
                        .count();
                    let decoded = DecodedProgram::decode(&c, program).unwrap();
                    let switches = decoded
                        .ops
                        .iter()
                        .filter(|op| matches!(op, Op::Modulus { .. }))
                        .count();
                    assert!(
                        decoded
                            .ops
                            .iter()
                            .all(|op| fused(op) || matches!(op, Op::Modulus { .. })),
                        "nb={nb} n={n}"
                    );
                    assert_eq!(decoded.op_count(), computes + switches, "nb={nb} n={n}");
                    assert!(decoded.dispatch_count() <= decoded.op_count());
                }
            }
        }
        // N = 4096: 512 C1 and 2304 C2 forward, down from 13,056 ops, in
        // one C1 run and 256 C2 runs; the inverse adds a 512-op Scale
        // run, and the product two forwards, the pointwise and the
        // weightings.
        for nb in [2usize, 4, 6] {
            let c = PimConfig::hbm2e(nb);
            let dev = PimDevice::new(c).unwrap();
            let layout = PolyLayout::new(&c, 0, 4096).unwrap();
            let params = NttParams {
                q: Q,
                omega: omega_for(4096),
            };
            let program = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
            let decoded = DecodedProgram::decode(&c, &program).unwrap();
            let handle = |base| {
                *dev.operand(0, base, vec![0; 4096], Q, StoredOrder::Natural)
                    .unwrap()
                    .handle()
            };
            let (a, b) = (handle(0), handle(c.polymul_rhs_base(4096)));
            let decode = |program: Result<Program, PimError>| {
                DecodedProgram::decode(&c, &program.unwrap()).unwrap()
            };
            let inverse = decode(dev.build_ntt_program(&a, NttDirection::Inverse));
            let polymul = decode(dev.polymul_program(&a, &b));
            let counts = |d: &DecodedProgram| (d.op_count(), d.dispatch_count());
            assert_eq!(counts(&decoded), (2816, 257), "nb={nb} forward");
            assert_eq!(counts(&inverse), (3328, 258), "nb={nb} inverse");
            assert_eq!(counts(&polymul), (10496, 775), "nb={nb} polymul");
        }
    }

    /// Each way a read → compute → write-back can fail to fuse computes
    /// what the commands one by one compute, and fuses nothing it must
    /// not: three atoms of one row, each lane of atom `k` holding
    /// `10k + 1`, and Scale doubling every lane.
    #[test]
    fn fusion_edge_cases_keep_the_commands_values() {
        let q = 7681;
        let c = PimConfig::hbm2e(4);
        let mont = Montgomery32::new(q).unwrap();
        let rd = |buf, col| PimCommand::CuRead {
            row: 0,
            col,
            buf: BufId(buf),
        };
        let wr = |buf, col| PimCommand::CuWrite {
            row: 0,
            col,
            buf: BufId(buf),
        };
        let double = |buf| PimCommand::Scale {
            buf: BufId(buf),
            tw: TwiddleParams {
                omega0_mont: mont.to_mont(2),
                r_omega_mont: mont.one(),
            },
        };
        let pw = PimCommand::Pointwise {
            p: BufId(0),
            s: BufId(1),
        };
        let (a0, a1, a2) = (1, 11, 21);
        // (case, commands, atoms 0..3 after, in-place ops decoded)
        let cases = [
            (
                "a triple",
                vec![rd(0, 0), double(0), wr(0, 0)],
                [2 * a0, a1, a2],
                1,
            ),
            (
                "its source rewritten before the compute",
                vec![rd(0, 0), rd(1, 1), wr(1, 0), double(0), wr(0, 0)],
                [2 * a0, a1, a2],
                0,
            ),
            (
                "its atom read before the write-back",
                vec![rd(0, 0), double(0), rd(1, 0), wr(0, 0), wr(1, 1)],
                [2 * a0, a0, a2],
                0,
            ),
            (
                "its buffer written again without a refill",
                vec![rd(0, 0), double(0), wr(0, 0), wr(0, 1)],
                [2 * a0, 2 * a0, a2],
                0,
            ),
            (
                "written back elsewhere",
                vec![rd(0, 0), double(0), wr(0, 2), rd(0, 1)],
                [a0, a1, 2 * a0],
                0,
            ),
            // The Scale fuses and rewrites atom 1 where it stands, before
            // the Pointwise, which read atom 1 earlier: that one must not.
            (
                "a read-only operand rewritten by another fused op",
                vec![
                    rd(1, 1),
                    rd(2, 1),
                    rd(0, 0),
                    double(2),
                    pw,
                    wr(2, 1),
                    wr(0, 0),
                ],
                [a0 * a1, 2 * a1, a2],
                1,
            ),
            (
                "a pointwise pair",
                vec![rd(0, 0), rd(1, 1), pw, wr(0, 0)],
                [a0 * a1, a1, a2],
                1,
            ),
        ];
        for (case, commands, atoms, fused) in cases {
            let mut commands = commands;
            commands.insert(0, PimCommand::SetModulus { q });
            let prog = program(commands);
            let decoded = DecodedProgram::decode(&c, &prog).unwrap();
            let in_place: u32 = decoded.runs.iter().map(|run| run.count).sum();
            assert_eq!(in_place, fused, "{case}");
            let mut sim = FunctionalSim::new(&c).unwrap();
            for (k, v) in [a0, a1, a2].into_iter().enumerate() {
                sim.load_words(8 * k, &[v; 8]);
            }
            sim.run(&decoded).unwrap();
            for (k, v) in atoms.into_iter().enumerate() {
                assert_eq!(sim.read_words(8 * k, 8), vec![v; 8], "{case}: atom {k}");
            }
        }
    }

    /// Consecutive in-place ops join one run while their kind — with a
    /// C1's kernel and a C2's order — stays the same and their cell words
    /// and twiddle rows keep constant steps, which may be negative; an op
    /// that fits no run is a run of one. A program of runs computes what
    /// its read → compute → write-back triples compute one program each.
    #[test]
    fn runs_break_at_kind_kernel_order_and_stride_changes() {
        let q = 7681;
        let c = PimConfig::hbm2e(4);
        let mont = Montgomery32::new(q).unwrap();
        let rd = |buf, col| PimCommand::CuRead {
            row: 0,
            col,
            buf: BufId(buf),
        };
        let wr = |buf, col| PimCommand::CuWrite {
            row: 0,
            col,
            buf: BufId(buf),
        };
        // Twiddle `k` is its own row, numbered in order of first use.
        let tw = |k: u32| TwiddleParams {
            omega0_mont: mont.to_mont(k + 2),
            r_omega_mont: mont.to_mont(3),
        };
        let one = |compute, col| vec![rd(0, col), compute, wr(0, col)];
        let scale = |k, col| {
            let compute = PimCommand::Scale {
                buf: BufId(0),
                tw: tw(k),
            };
            one(compute, col)
        };
        let c1 = |step, col| {
            let params = C1Params {
                points: 8,
                stage_steps_mont: StageSteps::new(&[mont.to_mont(step); 3]).unwrap(),
                order: BuOrder::Ct,
            };
            let compute = PimCommand::C1 {
                buf: BufId(0),
                params,
            };
            one(compute, col)
        };
        let c2 = |order, k, p, s| {
            let compute = PimCommand::C2 {
                p: BufId(0),
                s: BufId(1),
                tw: tw(k),
                order,
            };
            vec![rd(0, p), rd(1, s), compute, wr(0, p), wr(1, s)]
        };
        let pointwise = PimCommand::Pointwise {
            p: BufId(0),
            s: BufId(1),
        };
        let triples = [
            // Up one atom and one twiddle row a step.
            scale(0, 0),
            scale(1, 1),
            scale(2, 2),
            scale(3, 3),
            // The stride breaks, and a C1 follows: a run of one.
            scale(4, 5),
            c1(5, 6),
            c1(5, 7),
            // Another kernel.
            c1(7, 8),
            // Down one atom a step.
            scale(5, 11),
            scale(6, 10),
            scale(7, 9),
            c2(BuOrder::Ct, 8, 12, 13),
            c2(BuOrder::Ct, 9, 14, 15),
            // Another order.
            c2(BuOrder::Gs, 10, 16, 17),
            vec![rd(0, 18), rd(1, 19), pointwise, wr(0, 18)],
        ];
        let na = NA as u32;
        let expected = [
            (RunKind::Scale, 4, 0, na, 1),
            (RunKind::Scale, 1, 5 * na, 0, 0),
            (RunKind::C1 { kernel: 0 }, 2, 6 * na, na, 0),
            (RunKind::C1 { kernel: 1 }, 1, 8 * na, 0, 0),
            (RunKind::Scale, 3, 11 * na, na.wrapping_neg(), 1),
            (RunKind::C2 { order: BuOrder::Ct }, 2, 12 * na, 2 * na, 1),
            (RunKind::C2 { order: BuOrder::Gs }, 1, 16 * na, 0, 0),
            (RunKind::Pointwise, 1, 18 * na, 0, 0),
        ];
        let with_modulus = |triples: &[Vec<PimCommand>]| {
            let mut commands = vec![PimCommand::SetModulus { q }];
            commands.extend(triples.iter().flatten().copied());
            program(commands)
        };
        let decoded = DecodedProgram::decode(&c, &with_modulus(&triples)).unwrap();
        let runs: Vec<_> = decoded
            .ops
            .iter()
            .map(|&op| {
                let run = decoded.runs[DecodedProgram::run_of(op)];
                (RunKind::of(op).unwrap(), run.count, run.p, run.dp, run.drow)
            })
            .collect();
        assert_eq!(runs, expected);
        assert_eq!((decoded.op_count(), decoded.dispatch_count()), (15, 8));

        let words: Vec<u32> = (0..20 * na).map(|i| (i * 37 + 11) % q).collect();
        let mut whole = FunctionalSim::new(&c).unwrap();
        whole.load_words(0, &words);
        whole.run(&decoded).unwrap();
        let mut alone = FunctionalSim::new(&c).unwrap();
        alone.load_words(0, &words);
        for triple in &triples {
            alone
                .execute(&with_modulus(std::slice::from_ref(triple)))
                .unwrap();
        }
        assert_eq!(
            whole.read_words(0, words.len()),
            alone.read_words(0, words.len())
        );
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
