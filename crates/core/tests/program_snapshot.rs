//! A snapshot of the mapper's output: digests over every program a grid
//! of shapes maps to, pinned in the source.
//!
//! The grid is every buffer count Nb ∈ {1, 2, 4, 6}; the moduli 7681,
//! 12289, 8380417 and 2013265921; every length N from 4 to 16384 that the
//! modulus supports (2N | q − 1; N ≤ 1024 for the single-buffer scalar
//! mapping, ten commands a butterfly); each dataflow/direction pair the
//! device maps (forward DIT, forward DIF, inverse DIT, inverse DIF); in-place
//! and ping-pong update; grouped and ungrouped. Shapes the mapper refuses
//! (ping-pong on one buffer once an inter-atom stage runs) are counted
//! apart.
//!
//! A second digest covers the element-wise passes over the same buffer
//! counts, moduli and lengths (with no single-buffer cap): `map_scale`
//! with the multipliers the device maps — the negacyclic weights
//! `(1, ψ)` and `(N⁻¹, ψ⁻¹)`, the inverse transform's `(N⁻¹, 1)` and the
//! four-step row twiddles `(1, ω^r)` — and `map_pointwise` over two
//! regions, which needs at least two buffers.
//!
//! Each digest is a hand-written 64-bit FNV-1a over each command's fields
//! and each program's `final_base`, so it does not depend on
//! `std::hash`'s algorithm, which may change between Rust releases. A
//! change to the mapper that is meant to emit the same programs must
//! leave them unchanged; one that is meant to change them must say so and
//! pin the new values.

use ntt_pim_core::cmd::{BuOrder, BufId, OperandReg, PimCommand, TwiddleParams};
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::layout::PolyLayout;
use ntt_pim_core::mapper::{
    map_ntt, map_pointwise, map_scale, Dataflow, MapperOptions, NttParams, Program,
};

const MODULI: [u32; 4] = [7681, 12289, 8_380_417, 2_013_265_921];
const BUFFER_COUNTS: [usize; 4] = [1, 2, 4, 6];
const MAX_LOG_N: u32 = 14;
/// The single-buffer mapping issues ten commands a butterfly.
const MAX_SCALAR_LOG_N: u32 = 10;

/// Programs mapped and shapes refused over the grid.
const PROGRAMS: usize = 2304;
const REFUSED: usize = 208;
/// The digest of every mapped program, in grid order.
const DIGEST: u64 = 0x1432_6355_ee8a_7c95;

/// Scale and pointwise programs mapped over the grid, and their digest.
const PASS_PROGRAMS: usize = 1107;
const PASS_DIGEST: u64 = 0x33bc_54f7_cd83_59c9;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u8(&mut self, x: u8) {
        self.bytes(&[x]);
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn buf(&mut self, b: BufId) {
        self.u8(b.0);
    }

    fn order(&mut self, o: BuOrder) {
        self.u8(match o {
            BuOrder::Ct => 0,
            BuOrder::Gs => 1,
        });
    }

    fn reg(&mut self, r: OperandReg) {
        self.u8(match r {
            OperandReg::A => 0,
            OperandReg::B => 1,
        });
    }

    fn program(&mut self, program: &Program) {
        self.u64(program.commands.len() as u64);
        for cmd in &program.commands {
            self.command(cmd);
        }
        self.u64(program.final_base as u64);
    }

    fn twiddles(&mut self, tw: TwiddleParams) {
        self.u32(tw.omega0_mont);
        self.u32(tw.r_omega_mont);
    }

    /// A tag per variant, then its fields in declaration order.
    fn command(&mut self, cmd: &PimCommand) {
        match *cmd {
            PimCommand::Act { row } => {
                self.u8(0);
                self.u32(row);
            }
            PimCommand::Pre => self.u8(1),
            PimCommand::CuRead { row, col, buf } => {
                self.u8(2);
                self.u32(row);
                self.u32(col);
                self.buf(buf);
            }
            PimCommand::CuWrite { row, col, buf } => {
                self.u8(3);
                self.u32(row);
                self.u32(col);
                self.buf(buf);
            }
            PimCommand::C1 { buf, ref params } => {
                self.u8(4);
                self.buf(buf);
                self.u8(params.points);
                self.u32(params.stage_steps_mont.len() as u32);
                for &step in &params.stage_steps_mont {
                    self.u32(step);
                }
                self.order(params.order);
            }
            PimCommand::C2 { p, s, tw, order } => {
                self.u8(5);
                self.buf(p);
                self.buf(s);
                self.twiddles(tw);
                self.order(order);
            }
            PimCommand::Scale { buf, tw } => {
                self.u8(6);
                self.buf(buf);
                self.twiddles(tw);
            }
            PimCommand::Pointwise { p, s } => {
                self.u8(7);
                self.buf(p);
                self.buf(s);
            }
            PimCommand::SetModulus { q } => {
                self.u8(8);
                self.u32(q);
            }
            PimCommand::SetTwiddle { beats } => {
                self.u8(9);
                self.u8(beats);
            }
            PimCommand::Refresh => self.u8(10),
            PimCommand::RegLoad { buf, lane, reg } => {
                self.u8(11);
                self.buf(buf);
                self.u8(lane);
                self.reg(reg);
            }
            PimCommand::RegStore { buf, lane, reg } => {
                self.u8(12);
                self.buf(buf);
                self.u8(lane);
                self.reg(reg);
            }
            PimCommand::RegBu { omega_mont, order } => {
                self.u8(13);
                self.u32(omega_mont);
                self.order(order);
            }
        }
    }
}

#[test]
fn mapped_programs_match_the_snapshot() {
    let mut h = Fnv::new();
    let (mut programs, mut refused) = (0, 0);
    for nb in BUFFER_COUNTS {
        let config = PimConfig::hbm2e(nb);
        let max_log_n = if nb == 1 { MAX_SCALAR_LOG_N } else { MAX_LOG_N };
        for q in MODULI {
            for log_n in 2..=max_log_n {
                let n = 1usize << log_n;
                if (u64::from(q) - 1) % (2 * n as u64) != 0 {
                    continue;
                }
                let omega = modmath::prime::root_of_unity(n as u64, u64::from(q))
                    .expect("2N divides q - 1") as u32;
                let params = NttParams { q, omega };
                let layout = PolyLayout::new(&config, 0, n).expect("region fits the bank");
                for (dataflow, inverse) in [
                    (Dataflow::DitFromBitrev, false),
                    (Dataflow::DifToBitrev, false),
                    (Dataflow::DitFromBitrev, true),
                    (Dataflow::DifToBitrev, true),
                ] {
                    for in_place_update in [true, false] {
                        for group_same_row in [true, false] {
                            let opts = MapperOptions {
                                dataflow,
                                inverse,
                                in_place_update,
                                group_same_row,
                            };
                            let Ok(program) = map_ntt(&config, &layout, &params, &opts) else {
                                assert!(nb == 1 && !in_place_update, "{opts:?} refused");
                                refused += 1;
                                continue;
                            };
                            programs += 1;
                            h.program(&program);
                        }
                    }
                }
            }
        }
    }
    assert_eq!((programs, refused), (PROGRAMS, REFUSED));
    assert_eq!(h.0, DIGEST, "digest {:#018x}", h.0);
}

#[test]
fn scale_and_pointwise_programs_match_the_snapshot() {
    use modmath::arith::{inv_mod, mul_mod, pow_mod};
    let mut h = Fnv::new();
    let mut programs = 0;
    for nb in BUFFER_COUNTS {
        let config = PimConfig::hbm2e(nb);
        for q in MODULI {
            let q64 = u64::from(q);
            for log_n in 2..=MAX_LOG_N {
                let n = 1usize << log_n;
                if (q64 - 1) % (2 * n as u64) != 0 {
                    continue;
                }
                let psi =
                    modmath::prime::root_of_unity(2 * n as u64, q64).expect("2N divides q - 1");
                let omega = mul_mod(psi, psi, q64);
                let psi_inv = inv_mod(psi, q64).expect("q is prime");
                let n_inv = inv_mod(n as u64, q64).expect("q is prime");
                let mut multipliers = vec![(1, psi), (n_inv, psi_inv), (n_inv, 1)];
                for r in [1, 3, n as u64 - 1] {
                    multipliers.push((1, pow_mod(omega, r, q64)));
                }
                let a = PolyLayout::new(&config, 0, n).expect("region fits the bank");
                for (omega0, r_omega) in multipliers {
                    let program = map_scale(&config, &a, q, omega0 as u32, r_omega as u32)
                        .expect("scale maps");
                    programs += 1;
                    h.program(&program);
                }
                // The second operand starts on the row after the first's.
                let b_base = a.row_count() * config.row_words();
                let b = PolyLayout::new(&config, b_base, n).expect("region fits the bank");
                match map_pointwise(&config, &a, &b, q) {
                    Ok(program) => {
                        programs += 1;
                        h.program(&program);
                    }
                    Err(e) => assert_eq!(nb, 1, "pointwise refused on {nb} buffers: {e}"),
                }
            }
        }
    }
    assert_eq!(programs, PASS_PROGRAMS);
    assert_eq!(h.0, PASS_DIGEST, "digest {:#018x}", h.0);
}
