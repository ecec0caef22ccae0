//! The three-regime NTT mapping (paper §III.B–D, §IV.B, §V).
//!
//! Given a polynomial layout and transform parameters, the memory
//! controller generates a *logical* command stream:
//!
//! 1. **Intra-atom** (first `log Na` stages): one `C1` per atom, streamed
//!    through rotating buffers so consecutive atoms pipeline.
//! 2. **Intra-row** (next `log R − log Na` stages): `C2` over atom pairs of
//!    the same row; all traffic hits the open row.
//! 3. **Inter-row** (remaining stages): `C2` over atom pairs of different
//!    rows, with the in-place write order (partner-row writes first, they
//!    hit) and — with `Nb ≥ 4` — same-row *grouping* that batches the
//!    reads/writes of several in-flight operations per row activation
//!    (Fig. 6c).
//!
//! The stream contains no `ACT`/`PRE`: row management is the scheduler's
//! job ([`crate::sched`]), which also means ablations that change command
//! *order* automatically change the activation count, exactly as in real
//! hardware.
//!
//! Mapping is also *topology-agnostic*: a program targets one bank, and
//! the same program is valid on any bank of any
//! `channels × ranks × banks` device ([`crate::config::Topology`]).
//! Cross-bank concerns — which channel's bus a command claims, which
//! rank's tFAW window an ACT consumes — appear only when the scheduler
//! places programs on global banks
//! ([`crate::sched::schedule_queues`]).
//!
//! The single-buffer configuration (`Nb = 1`, §III.B's strawman) cannot
//! hold two operand atoms, so inter-atom stages fall back to scalar
//! register µ-commands with three atom reads and two writes per butterfly
//! — the mapping whose cost the paper summarizes as "no performance
//! advantage even compared with a software execution".

use crate::cmd::{BuOrder, BufId, C1Params, OperandReg, PimCommand, StageSteps, TwiddleParams};
use crate::config::PimConfig;
use crate::layout::PolyLayout;
use crate::PimError;
use modmath::arith::{inv_mod, pow_mod};
use modmath::montgomery::Montgomery32;
use modmath::prime::is_primitive_root_of_unity;

/// Which butterfly graph the stream implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Bit-reversed input → natural output; CT butterflies; stages run
    /// span 1 → N/2 (intra-atom first). The paper's primary mapping.
    #[default]
    DitFromBitrev,
    /// Natural input → bit-reversed output; GS butterflies; stages run
    /// span N/2 → 1 (inter-row first). Used by the no-bit-reversal
    /// pipeline (forward DIF + pointwise + inverse DIT).
    DifToBitrev,
}

/// Mapping options: the switches the `ablation` bench binary turns off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapperOptions {
    /// Graph direction.
    pub dataflow: Dataflow,
    /// Use `ω⁻¹` twiddles (inverse transform butterflies; `N⁻¹` scaling is
    /// a separate pass).
    pub inverse: bool,
    /// In-place update (§III.C). When disabled, every inter-atom stage
    /// writes to a ping-pong scratch region instead of its inputs.
    pub in_place_update: bool,
    /// Same-row grouping of in-flight operations (§V, Fig. 6c). Only
    /// meaningful with `Nb ≥ 4`.
    pub group_same_row: bool,
}

impl Default for MapperOptions {
    fn default() -> Self {
        Self {
            dataflow: Dataflow::DitFromBitrev,
            inverse: false,
            in_place_update: true,
            group_same_row: true,
        }
    }
}

/// Transform parameters as the host passes them (plain residues).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NttParams {
    /// The (odd, < 2³¹) prime modulus.
    pub q: u32,
    /// A primitive `N`-th root of unity mod `q`.
    pub omega: u32,
}

/// A labeled position in the command stream: everything from
/// `first_command` to the next mark belongs to this phase/stage. Used for
/// the per-regime runtime breakdown (the paper's §VI.C/§VI.E argument that
/// inter-row mapping dominates at large `N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageMark {
    /// Human-readable phase label (e.g. `"stage 9 (inter-row)"`).
    pub label: String,
    /// Index of the first command of the phase.
    pub first_command: usize,
}

/// A mapped logical command stream.
#[derive(Debug, Clone)]
pub struct Program {
    /// Commands in issue order.
    pub commands: Vec<PimCommand>,
    /// Base word of the region holding the result (differs from the input
    /// region only when `in_place_update` is off and an odd number of
    /// ping-pong stages ran).
    pub final_base: usize,
    /// Count of vectorized butterfly (C2) commands, for analysis.
    pub c2_ops: usize,
    /// Count of intra-atom NTT (C1) commands.
    pub c1_ops: usize,
    /// Phase boundaries for runtime breakdowns.
    pub marks: Vec<StageMark>,
}

impl Program {
    /// Total logical commands.
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// True when no commands were generated.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }
}

/// Maps a full NTT (butterfly stages only; scaling passes are separate).
///
/// The polynomial must already be stored in the order the chosen
/// [`Dataflow`] expects (the paper assumes host software performs bit
/// reversal).
///
/// # Errors
///
/// * [`PimError::BadConfig`] / [`PimError::Math`] for unusable parameters.
/// * [`PimError::BadRegion`] if `in_place_update` is disabled and the bank
///   has no room for the scratch region.
pub fn map_ntt(
    config: &PimConfig,
    layout: &PolyLayout,
    params: &NttParams,
    opts: &MapperOptions,
) -> Result<Program, PimError> {
    config.validate()?;
    let mont = Montgomery32::new(params.q)?;
    let n = layout.n();
    if !is_primitive_root_of_unity(params.omega as u64, n as u64, params.q as u64) {
        return Err(PimError::Math(modmath::Error::NoRootOfUnity {
            order: n as u64,
            q: params.q as u64,
        }));
    }
    let omega_eff = if opts.inverse {
        inv_mod(params.omega as u64, params.q as u64)? as u32
    } else {
        params.omega
    };
    let mut m = Mapping::new(config, layout, params.q, omega_eff, mont, opts)?;
    m.commands.push(PimCommand::SetModulus { q: params.q });
    match opts.dataflow {
        Dataflow::DitFromBitrev => m.map_dit()?,
        Dataflow::DifToBitrev => m.map_dif()?,
    }
    Ok(Program {
        commands: m.commands,
        final_base: m.cur_base,
        c2_ops: m.c2_ops,
        c1_ops: m.c1_ops,
        marks: m.marks,
    })
}

/// Maps an element-wise scale pass: element `i` is multiplied by
/// `ω0·rω^i` (used for `N⁻¹` scaling and negacyclic `ψ` weighting over
/// natural-order data).
///
/// # Errors
///
/// [`PimError::Math`] for an unusable modulus.
pub fn map_scale(
    config: &PimConfig,
    layout: &PolyLayout,
    q: u32,
    omega0: u32,
    r_omega: u32,
) -> Result<Program, PimError> {
    config.validate()?;
    let mont = Montgomery32::new(q)?;
    let mut commands = vec![
        PimCommand::SetModulus { q },
        PimCommand::SetTwiddle { beats: 4 },
    ];
    let nb = config.n_bufs;
    // Atom a covers elements a·Na .. a·Na+Na: seed ω0·rω^(a·Na), advanced
    // in Montgomery form by one product with rω^Na per atom. Montgomery
    // products are canonical residues, so each seed is exactly `to_mont`
    // of the plain power. (For N < Na the scale touches the whole atom;
    // regions own whole atoms by construction.)
    let atom_step = mont.to_mont(pow_mod(r_omega as u64, config.na() as u64, q as u64) as u32);
    let mut tw = crate::tfg::params_to_mont(&mont, omega0 % q, r_omega);
    for a in 0..layout.atom_count() {
        let loc = layout.atom(a);
        let buf = BufId((a % nb) as u8);
        commands.push(PimCommand::CuRead {
            row: loc.row,
            col: loc.col,
            buf,
        });
        commands.push(PimCommand::Scale { buf, tw });
        commands.push(PimCommand::CuWrite {
            row: loc.row,
            col: loc.col,
            buf,
        });
        tw.omega0_mont = mont.mul(tw.omega0_mont, atom_step);
    }
    Ok(Program {
        commands,
        final_base: layout.base_word(),
        c2_ops: 0,
        c1_ops: 0,
        marks: vec![StageMark {
            label: "scale".into(),
            first_command: 0,
        }],
    })
}

/// Maps an element-wise product `a[i] ← a[i]·b[i]` over two equal-length
/// regions (NTT-domain polynomial multiplication).
///
/// # Errors
///
/// [`PimError::BadRegion`] when lengths differ; [`PimError::Math`] for an
/// unusable modulus; [`PimError::BadConfig`] when fewer than two buffers
/// exist (the pointwise datapath needs an operand pair).
pub fn map_pointwise(
    config: &PimConfig,
    a: &PolyLayout,
    b: &PolyLayout,
    q: u32,
) -> Result<Program, PimError> {
    config.validate()?;
    Montgomery32::new(q)?;
    if a.n() != b.n() {
        return Err(PimError::BadRegion {
            reason: format!(
                "pointwise operands differ in length: {} vs {}",
                a.n(),
                b.n()
            ),
        });
    }
    if config.n_bufs < 2 {
        return Err(PimError::BadConfig {
            reason: "pointwise multiplication needs at least two atom buffers".into(),
        });
    }
    let mut commands = vec![PimCommand::SetModulus { q }];
    let nb = config.n_bufs;
    for at in 0..a.atom_count() {
        let la = a.atom(at);
        let lb = b.atom(at);
        // Use a rotating pair of buffers for pipelining.
        let pair = at % (nb / 2);
        let bp = BufId((2 * pair) as u8);
        let bs = BufId((2 * pair + 1) as u8);
        commands.push(PimCommand::CuRead {
            row: la.row,
            col: la.col,
            buf: bp,
        });
        commands.push(PimCommand::CuRead {
            row: lb.row,
            col: lb.col,
            buf: bs,
        });
        commands.push(PimCommand::Pointwise { p: bp, s: bs });
        commands.push(PimCommand::CuWrite {
            row: la.row,
            col: la.col,
            buf: bp,
        });
    }
    Ok(Program {
        commands,
        final_base: a.base_word(),
        c2_ops: 0,
        c1_ops: 0,
        marks: vec![StageMark {
            label: "pointwise".into(),
            first_command: 0,
        }],
    })
}

/// Internal mapping state.
struct Mapping<'a> {
    config: &'a PimConfig,
    layout: &'a PolyLayout,
    q: u32,
    omega_eff: u32,
    mont: Montgomery32,
    opts: MapperOptions,
    commands: Vec<PimCommand>,
    /// Current region base (ping-pong when in-place update is off).
    cur_base: usize,
    /// Alternate region base.
    alt_base: usize,
    marks: Vec<StageMark>,
    c1_ops: usize,
    c2_ops: usize,
}

impl<'a> Mapping<'a> {
    fn new(
        config: &'a PimConfig,
        layout: &'a PolyLayout,
        q: u32,
        omega_eff: u32,
        mont: Montgomery32,
        opts: &MapperOptions,
    ) -> Result<Self, PimError> {
        let cur_base = layout.base_word();
        let alt_base = if opts.in_place_update {
            cur_base
        } else {
            let scratch = cur_base + layout.n().max(config.row_words());
            if scratch + layout.n() > config.geometry.bank_words() {
                return Err(PimError::BadRegion {
                    reason: "no room for the ping-pong scratch region".into(),
                });
            }
            scratch
        };
        Ok(Self {
            config,
            layout,
            q,
            omega_eff,
            mont,
            opts: *opts,
            commands: Vec::new(),
            cur_base,
            alt_base,
            marks: Vec::new(),
            c1_ops: 0,
            c2_ops: 0,
        })
    }

    fn n(&self) -> usize {
        self.layout.n()
    }

    fn log_n(&self) -> u32 {
        self.layout.log_n()
    }

    /// Words per block: a whole row, or the whole polynomial if smaller.
    fn block_words(&self) -> usize {
        self.n().min(self.config.row_words())
    }

    fn log_block(&self) -> u32 {
        self.block_words().trailing_zeros()
    }

    /// Stage twiddle step `rω = ω^(N/2^(s+1))`, plain form.
    fn stage_step(&self, s: u32) -> u32 {
        pow_mod(
            self.omega_eff as u64,
            (self.n() >> (s + 1)) as u64,
            self.q as u64,
        ) as u32
    }

    /// `base^(i·stride)` for `i < count`, Montgomery form, by repeated
    /// multiplication: one power for the stride, then one product per
    /// entry. Montgomery products are canonical residues, so entry `i`
    /// is exactly `to_mont(pow_mod(base, i·stride, q))`.
    fn powers_mont(&self, base: u32, stride: usize, count: usize) -> Vec<u32> {
        let factor = pow_mod(base as u64, stride as u64, self.q as u64) as u32;
        let factor = self.mont.to_mont(factor);
        std::iter::successors(Some(self.mont.one()), |&p| Some(self.mont.mul(p, factor)))
            .take(count)
            .collect()
    }

    /// (row, col) of the atom holding element `e` counted from `base`.
    fn atom_at(&self, base: usize, e: usize) -> (u32, u32) {
        let word = base + e;
        let rw = self.config.row_words();
        let aw = self.config.na();
        ((word / rw) as u32, ((word % rw) / aw) as u32)
    }

    /// Emits the intra-atom phase: one C1 per atom, software-pipelined
    /// with depth `Nb` (paper §V: "In the case of intra-atom mapping,
    /// pipelining is possible even with a single auxiliary buffer" — the
    /// read of atom `i+D` is issued before the write-back of atom `i`, so
    /// it fills its buffer while C1 computes).
    fn emit_intra_atom(&mut self, order: BuOrder) {
        let points = self.n().min(self.config.na());
        let log_p = points.trailing_zeros();
        let steps: Vec<u32> = (0..log_p)
            .map(|s| self.mont.to_mont(self.stage_step(s)))
            .collect();
        let steps = StageSteps::new(&steps).expect("an atom has at most three stages");
        self.mark("intra-atom (C1)".into());
        self.commands.push(PimCommand::SetTwiddle { beats: 4 });
        let atoms = self.layout.atom_count();
        let na = self.config.na();
        let atoms_per_row = self.config.geometry.cols_per_row as usize;
        // Pipeline within one row at a time so each row is activated once.
        for row_start in (0..atoms).step_by(atoms_per_row) {
            let row_atoms = atoms_per_row.min(atoms - row_start);
            let depth = self.config.n_bufs.min(row_atoms);
            let buf_of = |a: usize| BufId((a % depth) as u8);
            // Prologue: fill the first `depth` buffers.
            for a in 0..depth {
                let (row, col) = self.atom_at(self.cur_base, (row_start + a) * na);
                self.commands.push(PimCommand::CuRead {
                    row,
                    col,
                    buf: buf_of(a),
                });
            }
            // Steady state: compute & retire atom a, prefetch atom a+depth.
            for a in 0..row_atoms {
                let buf = buf_of(a);
                let (row, col) = self.atom_at(self.cur_base, (row_start + a) * na);
                self.commands.push(PimCommand::C1 {
                    buf,
                    params: C1Params {
                        points: points as u8,
                        stage_steps_mont: steps,
                        order,
                    },
                });
                self.commands.push(PimCommand::CuWrite { row, col, buf });
                self.c1_ops += 1;
                if a + depth < row_atoms {
                    let (prow, pcol) = self.atom_at(self.cur_base, (row_start + a + depth) * na);
                    self.commands.push(PimCommand::CuRead {
                        row: prow,
                        col: pcol,
                        buf: buf_of(a + depth),
                    });
                }
            }
        }
    }

    /// Emits one inter-atom stage (intra-row or inter-row — the scheduler
    /// discovers the difference through row addresses).
    fn emit_inter_atom_stage(&mut self, s: u32, order: BuOrder) -> Result<(), PimError> {
        let n = self.n();
        let na = self.config.na();
        let m = 1usize << s; // butterfly span in elements
        debug_assert!(m >= na, "inter-atom stage span below atom size");
        let regime = if m >= self.config.row_words() {
            "inter-row"
        } else {
            "intra-row"
        };
        self.mark(format!("stage {s} ({regime})"));
        let step = self.stage_step(s);
        self.commands.push(PimCommand::SetTwiddle { beats: 4 });
        if self.config.n_bufs == 1 {
            return self.emit_stage_scalar(s, order);
        }
        // The op at offset `j0` within its group starts its lanes at
        // `ω0 = step^j0`; every group repeats the same `m / Na` seeds.
        let omega0s = self.powers_mont(step, na, m / na);
        let step_mont = self.mont.to_mont(step);
        // Vector ops of this stage in natural (group, lane) order.
        struct Op {
            a_elem: usize,
            b_elem: usize,
            omega0_mont: u32,
        }
        let mut ops = Vec::with_capacity(n / (2 * na));
        for k in (0..n).step_by(2 * m) {
            for (j0, &omega0_mont) in (0..m).step_by(na).zip(&omega0s) {
                ops.push(Op {
                    a_elem: k + j0,
                    b_elem: k + j0 + m,
                    omega0_mont,
                });
            }
        }
        // Group size: how many ops fly together (Fig. 6c). Without
        // grouping each op goes alone. Chunks must not straddle an operand
        // row boundary — mixing rows inside a chunk would *add* activations
        // instead of saving them.
        let group = if self.opts.group_same_row {
            (self.config.n_bufs / 2).max(1)
        } else {
            1
        };
        let (src, dst) = (self.cur_base, self.write_base());
        let mut chunks: Vec<&[Op]> = Vec::with_capacity(ops.len().div_ceil(group));
        let mut start = 0;
        while start < ops.len() {
            let a_row = self.atom_at(src, ops[start].a_elem).0;
            let b_row = self.atom_at(src, ops[start].b_elem).0;
            let mut end = start + 1;
            while end < ops.len()
                && end - start < group
                && self.atom_at(src, ops[end].a_elem).0 == a_row
                && self.atom_at(src, ops[end].b_elem).0 == b_row
            {
                end += 1;
            }
            chunks.push(&ops[start..end]);
            start = end;
        }
        for chunk in chunks {
            // Reads: all a-atoms (same row run), then all b-atoms.
            for (i, op) in chunk.iter().enumerate() {
                let (row, col) = self.atom_at(src, op.a_elem);
                self.commands.push(PimCommand::CuRead {
                    row,
                    col,
                    buf: BufId((2 * i) as u8),
                });
            }
            for (i, op) in chunk.iter().enumerate() {
                let (row, col) = self.atom_at(src, op.b_elem);
                self.commands.push(PimCommand::CuRead {
                    row,
                    col,
                    buf: BufId((2 * i + 1) as u8),
                });
            }
            for (i, op) in chunk.iter().enumerate() {
                self.commands.push(PimCommand::C2 {
                    p: BufId((2 * i) as u8),
                    s: BufId((2 * i + 1) as u8),
                    tw: TwiddleParams {
                        omega0_mont: op.omega0_mont,
                        r_omega_mont: step_mont,
                    },
                    order,
                });
                self.c2_ops += 1;
            }
            // Writes: partner-side (b) first — its row is still open from
            // the b reads, so these hit (§III.C); then the a side.
            for (i, op) in chunk.iter().enumerate() {
                let (row, col) = self.atom_at(dst, op.b_elem);
                self.commands.push(PimCommand::CuWrite {
                    row,
                    col,
                    buf: BufId((2 * i + 1) as u8),
                });
            }
            for (i, op) in chunk.iter().enumerate() {
                let (row, col) = self.atom_at(dst, op.a_elem);
                self.commands.push(PimCommand::CuWrite {
                    row,
                    col,
                    buf: BufId((2 * i) as u8),
                });
            }
        }
        self.swap_regions();
        Ok(())
    }

    /// The single-buffer scalar fallback (§III.B): three reads and two
    /// writes per butterfly through the GSA and the operand registers.
    fn emit_stage_scalar(&mut self, s: u32, order: BuOrder) -> Result<(), PimError> {
        let n = self.n();
        let na = self.config.na();
        let m = 1usize << s;
        let step = self.stage_step(s);
        let (src, dst) = (self.cur_base, self.write_base());
        if src != dst {
            return Err(PimError::BadConfig {
                reason: "single-buffer mapping supports in-place update only".into(),
            });
        }
        let p = BufId::PRIMARY;
        // Butterfly `j` of every group takes `step^j`.
        let w_monts = self.powers_mont(step, 1, m);
        for k in (0..n).step_by(2 * m) {
            for (j, &w_mont) in w_monts.iter().enumerate() {
                let a_elem = k + j;
                let b_elem = k + j + m;
                let (ar, ac) = self.atom_at(src, a_elem);
                let (br, bc) = self.atom_at(src, b_elem);
                let a_lane = (a_elem % na) as u8;
                let b_lane = (b_elem % na) as u8;
                self.commands.extend([
                    PimCommand::CuRead {
                        row: ar,
                        col: ac,
                        buf: p,
                    },
                    PimCommand::RegLoad {
                        buf: p,
                        lane: a_lane,
                        reg: OperandReg::A,
                    },
                    PimCommand::CuRead {
                        row: br,
                        col: bc,
                        buf: p,
                    },
                    PimCommand::RegLoad {
                        buf: p,
                        lane: b_lane,
                        reg: OperandReg::B,
                    },
                    PimCommand::RegBu {
                        omega_mont: w_mont,
                        order,
                    },
                    PimCommand::RegStore {
                        buf: p,
                        lane: b_lane,
                        reg: OperandReg::B,
                    },
                    PimCommand::CuWrite {
                        row: br,
                        col: bc,
                        buf: p,
                    },
                    PimCommand::CuRead {
                        row: ar,
                        col: ac,
                        buf: p,
                    },
                    PimCommand::RegStore {
                        buf: p,
                        lane: a_lane,
                        reg: OperandReg::A,
                    },
                    PimCommand::CuWrite {
                        row: ar,
                        col: ac,
                        buf: p,
                    },
                ]);
            }
        }
        Ok(())
    }

    fn mark(&mut self, label: String) {
        self.marks.push(StageMark {
            label,
            first_command: self.commands.len(),
        });
    }

    fn write_base(&self) -> usize {
        if self.opts.in_place_update {
            self.cur_base
        } else {
            self.alt_base
        }
    }

    fn swap_regions(&mut self) {
        if !self.opts.in_place_update {
            std::mem::swap(&mut self.cur_base, &mut self.alt_base);
        }
    }

    /// DIT order: intra-atom, intra-row, inter-row.
    fn map_dit(&mut self) -> Result<(), PimError> {
        self.emit_intra_atom(BuOrder::Ct);
        let log_na = self.config.log_na().min(self.log_n());
        for s in log_na..self.log_block() {
            self.emit_inter_atom_stage(s, BuOrder::Ct)?;
        }
        for s in self.log_block()..self.log_n() {
            self.emit_inter_atom_stage(s, BuOrder::Ct)?;
        }
        Ok(())
    }

    /// DIF order: inter-row, intra-row, intra-atom — the mirror image.
    fn map_dif(&mut self) -> Result<(), PimError> {
        for s in (self.log_block()..self.log_n()).rev() {
            self.emit_inter_atom_stage(s, BuOrder::Gs)?;
        }
        let log_na = self.config.log_na().min(self.log_n());
        for s in (log_na..self.log_block()).rev() {
            self.emit_inter_atom_stage(s, BuOrder::Gs)?;
        }
        self.emit_intra_atom(BuOrder::Gs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nb: usize) -> PimConfig {
        PimConfig::hbm2e(nb)
    }

    // 15 * 2^27 + 1 supports every transform length the tests use.
    const Q: u32 = 2_013_265_921;

    fn params() -> NttParams {
        NttParams { q: Q, omega: 0 }
    }

    fn omega_for(n: usize) -> u32 {
        modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32
    }

    #[test]
    fn command_counts_match_structure() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 1024).unwrap();
        let p = NttParams {
            omega: omega_for(1024),
            ..params()
        };
        let prog = map_ntt(&c, &layout, &p, &MapperOptions::default()).unwrap();
        // 128 atoms → 128 C1 ops; stages 3..10 → 7 stages × 64 ops.
        assert_eq!(prog.c1_ops, 128);
        assert_eq!(prog.c2_ops, 7 * 64);
        // Every C1 has RD+WR, every C2 has 2RD+2WR.
        let rd = prog
            .commands
            .iter()
            .filter(|c| matches!(c, PimCommand::CuRead { .. }))
            .count();
        assert_eq!(rd, 128 + 2 * 7 * 64);
    }

    #[test]
    fn small_n_uses_partial_c1_only() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 4).unwrap();
        let p = NttParams {
            omega: omega_for(4),
            ..params()
        };
        let prog = map_ntt(&c, &layout, &p, &MapperOptions::default()).unwrap();
        assert_eq!(prog.c1_ops, 1);
        assert_eq!(prog.c2_ops, 0);
        let c1 = prog
            .commands
            .iter()
            .find_map(|c| match c {
                PimCommand::C1 { params, .. } => Some(*params),
                _ => None,
            })
            .expect("one C1");
        assert_eq!(c1.points, 4);
        assert_eq!(c1.stage_steps_mont.len(), 2);
    }

    #[test]
    fn rejects_non_primitive_root() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 256).unwrap();
        let p = NttParams { q: Q, omega: 1 };
        assert!(map_ntt(&c, &layout, &p, &MapperOptions::default()).is_err());
    }

    #[test]
    fn grouping_batches_reads() {
        let c = cfg(4);
        let layout = PolyLayout::new(&c, 0, 1024).unwrap();
        let p = NttParams {
            omega: omega_for(1024),
            ..params()
        };
        let grouped = map_ntt(&c, &layout, &p, &MapperOptions::default()).unwrap();
        // With Nb=4, inter-row stages should emit RD,RD (a-side) runs:
        // find two consecutive CuReads into buffers 0 and 2.
        let mut found_pair = false;
        for w in grouped.commands.windows(2) {
            if let (PimCommand::CuRead { buf: b1, .. }, PimCommand::CuRead { buf: b2, .. }) =
                (&w[0], &w[1])
            {
                if (b1.0, b2.0) == (0, 2) {
                    found_pair = true;
                }
            }
        }
        assert!(found_pair, "grouped a-side reads into buffers 0 and 2");
    }

    #[test]
    fn ping_pong_moves_final_region() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 1024).unwrap();
        let p = NttParams {
            omega: omega_for(1024),
            ..params()
        };
        let opts = MapperOptions {
            in_place_update: false,
            ..Default::default()
        };
        let prog = map_ntt(&c, &layout, &p, &opts).unwrap();
        // 7 inter-atom stages → odd count → final region is the scratch.
        assert_eq!(prog.final_base, 1024);
        let in_place = map_ntt(&c, &layout, &p, &MapperOptions::default()).unwrap();
        assert_eq!(in_place.final_base, 0);
    }

    #[test]
    fn single_buffer_uses_scalar_path() {
        let c = cfg(1);
        let layout = PolyLayout::new(&c, 0, 16).unwrap();
        let p = NttParams {
            omega: omega_for(16),
            ..params()
        };
        let prog = map_ntt(&c, &layout, &p, &MapperOptions::default()).unwrap();
        assert!(prog
            .commands
            .iter()
            .any(|c| matches!(c, PimCommand::RegBu { .. })));
        assert_eq!(prog.c2_ops, 0, "no vectorized ops with a single buffer");
    }

    #[test]
    fn dif_reverses_stage_order() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 512).unwrap();
        let p = NttParams {
            omega: omega_for(512),
            ..params()
        };
        let opts = MapperOptions {
            dataflow: Dataflow::DifToBitrev,
            ..Default::default()
        };
        let prog = map_ntt(&c, &layout, &p, &opts).unwrap();
        // In DIF order the C1 commands come last.
        let first_c1 = prog
            .commands
            .iter()
            .position(|c| matches!(c, PimCommand::C1 { .. }))
            .unwrap();
        let last_c2 = prog
            .commands
            .iter()
            .rposition(|c| matches!(c, PimCommand::C2 { .. }))
            .unwrap();
        assert!(first_c1 > last_c2);
    }

    #[test]
    fn scale_and_pointwise_programs() {
        let c = cfg(2);
        let layout = PolyLayout::new(&c, 0, 256).unwrap();
        let prog = map_scale(&c, &layout, Q, 2, 3).unwrap();
        assert_eq!(
            prog.commands
                .iter()
                .filter(|c| matches!(c, PimCommand::Scale { .. }))
                .count(),
            32
        );
        let b = PolyLayout::new(&c, 256, 256).unwrap();
        let pw = map_pointwise(&c, &layout, &b, Q).unwrap();
        assert_eq!(
            pw.commands
                .iter()
                .filter(|c| matches!(c, PimCommand::Pointwise { .. }))
                .count(),
            32
        );
    }
}
