//! The functional compute unit's datapath (Fig. 2 right; Algorithms 1
//! and 2), as kernels over one atom.
//!
//! All multiplications go through Montgomery REDC — the same datapath
//! the paper synthesized — with twiddles in Montgomery form and data in
//! plain form (see [`crate::tfg`]). The kernels run on a fixed [`Atom`]
//! of [`NA`] = 8 lanes, Table I's 32 B atom of 32-bit words and the only
//! size [`crate::config::PimConfig::validate`] accepts. The butterfly
//! order is chosen once per command, so a C2 is eight copies of one
//! butterfly, and each C1 shape (2, 4 or 8 points, either order) is a
//! straight-line function of fixed stages, a full atom three stages of
//! four butterflies.
//!
//! With [`Montgomery32`]'s sign-mask corrections the optimizer runs the
//! lanes' additions, subtractions and corrections as SSE2 vector code on
//! the default x86-64 target; the 32 × 32 → 64-bit products stay scalar
//! multiplies. The `x.min(x − q)` corrections these replaced have no
//! SSE2 vector form, and with them every lane stayed scalar. No `unsafe`
//! code, target feature or second kernel path is involved: this is the
//! one datapath, and debug builds run it unvectorized.
//!
//! The hardware generates each C2's lane twiddles `ω0·rω^l` by a serial
//! chain of multiplies ([`crate::tfg::TwiddleGen`]). Here the decoder
//! ([`crate::sim`]) precomputes them once per distinct `(q, ω0, rω)` as
//! eight independent products ([`lane_twiddles`]); Montgomery products
//! are canonical residues, so both give the same words, which the tests
//! check against the generator.
//!
//! Both butterfly orders are implemented (see [`BuOrder`]):
//! `Ct` for the bit-reversed-input DIT graph (geometric twiddles, the
//! primary mapping), `Gs` for the natural-input DIF graph (the paper's
//! Fig. 3 drawing; used by the inverse / no-bit-reversal path).

use crate::cmd::{BuOrder, C1Params, TwiddleParams};
use crate::PimError;
use modmath::montgomery::Montgomery32;

/// Words per atom (`Na`, Table I).
pub(crate) const NA: usize = 8;

/// `log2(Na)`: the most stages one C1 runs.
const LOG_NA: usize = NA.trailing_zeros() as usize;

/// One atom: the contents of an atom buffer, one word per lane.
pub(crate) type Atom = [u32; NA];

/// The Cooley–Tukey butterfly: `t = b·w; (a + t, a − t)`. `a` and `b`
/// are plain form, `w` is the Montgomery-form twiddle.
#[inline(always)]
fn ct(mont: &Montgomery32, a: u32, b: u32, w: u32) -> (u32, u32) {
    let t = mont.redc(b as u64 * w as u64);
    (mont.add(a, t), mont.sub(a, t))
}

/// The Gentleman–Sande butterfly: `(a + b, (a − b)·w)`.
#[inline(always)]
fn gs(mont: &Montgomery32, a: u32, b: u32, w: u32) -> (u32, u32) {
    (mont.add(a, b), mont.redc(mont.sub(a, b) as u64 * w as u64))
}

/// One butterfly in the selected order; `a` and `b` are plain form, `w`
/// is the Montgomery-form twiddle.
#[inline]
pub(crate) fn butterfly(mont: &Montgomery32, a: u32, b: u32, w: u32, order: BuOrder) -> (u32, u32) {
    match order {
        BuOrder::Ct => ct(mont, a, b, w),
        BuOrder::Gs => gs(mont, a, b, w),
    }
}

/// The per-lane twiddles `ω0·rω^l`, `l < Na`, of one C2 or Scale
/// (Montgomery form): `rω`'s powers, then eight independent products.
/// For reduced `ω0` and `rω` (what the mapper emits) these are the words
/// [`crate::tfg::TwiddleGen`] steps through.
pub(crate) fn lane_twiddles(mont: &Montgomery32, tw: TwiddleParams) -> Atom {
    let mut powers = [mont.one(); NA];
    for l in 1..NA {
        powers[l] = mont.mul(powers[l - 1], tw.r_omega_mont);
    }
    powers.map(|p| mont.mul(tw.omega0_mont, p))
}

/// `bu` on every lane: lane `l` computes `bu(p[l], s[l], tw[l])`.
#[inline(always)]
fn lanes(p: &mut Atom, s: &mut Atom, tw: &Atom, bu: impl Fn(u32, u32, u32) -> (u32, u32)) {
    for l in 0..NA {
        (p[l], s[l]) = bu(p[l], s[l], tw[l]);
    }
}

/// C2 (Algorithm 2): lane `l` computes `BU(p[l], s[l])` with twiddle
/// `tw[l]`, in place. The order is chosen once for the atom, so each arm
/// is eight copies of one butterfly.
#[inline]
pub(crate) fn c2(mont: &Montgomery32, p: &mut Atom, s: &mut Atom, tw: &Atom, order: BuOrder) {
    match order {
        BuOrder::Ct => lanes(p, s, tw, |a, b, w| ct(mont, a, b, w)),
        BuOrder::Gs => lanes(p, s, tw, |a, b, w| gs(mont, a, b, w)),
    }
}

/// The `Scale` extension: lane `l` is multiplied by `tw[l]`.
#[inline]
pub(crate) fn scale(mont: &Montgomery32, x: &mut Atom, tw: &Atom) {
    for l in 0..NA {
        x[l] = mont.redc(x[l] as u64 * tw[l] as u64);
    }
}

/// The `Pointwise` extension: `p[l] ← p[l]·s[l]`.
///
/// Both operands are plain-form residues, so the product needs a
/// Montgomery-form correction: the CU multiplies by `R² mod q` (one extra
/// REDC), exactly how a real datapath would fix the domain.
#[inline]
pub(crate) fn pointwise(mont: &Montgomery32, p: &mut Atom, s: &Atom) {
    for l in 0..NA {
        // REDC(p·s) = p·s·R⁻¹; one more REDC against R² restores the
        // plain domain: REDC(t·R²) = t·R = p·s mod q.
        p[l] = mont.to_mont(mont.redc(p[l] as u64 * s[l] as u64));
    }
}

/// Stage twiddles of a C1: `tw[s][j] = step[s]^j` (Montgomery form) for
/// `j < 2^s`.
type StageTwiddles = [[u32; NA / 2]; LOG_NA];

/// One C1 stage of span `M` over the first `P` lanes: butterfly
/// `(k + j, k + j + M)`, for each group start `k` and `j < M`, takes
/// twiddle `tw[j]`. Both bounds are constants, so the stage compiles to
/// `P / 2` butterflies of straight-line code.
#[inline(always)]
fn stage<const P: usize, const M: usize>(
    x: &mut Atom,
    tw: &[u32; NA / 2],
    bu: impl Fn(u32, u32, u32) -> (u32, u32),
) {
    for g in 0..P / (2 * M) {
        for (j, &w) in tw[..M].iter().enumerate() {
            let (a, b) = (2 * M * g + j, 2 * M * g + j + M);
            (x[a], x[b]) = bu(x[a], x[b], w);
        }
    }
}

/// A `P`-point DIT C1 in `Ct` order: stages span 1 → P/2.
fn dit<const P: usize>(mont: &Montgomery32, x: &mut Atom, tw: &StageTwiddles) {
    let bu = |a, b, w| ct(mont, a, b, w);
    stage::<P, 1>(x, &tw[0], bu);
    if P >= 4 {
        stage::<P, 2>(x, &tw[1], bu);
    }
    if P >= 8 {
        stage::<P, 4>(x, &tw[2], bu);
    }
}

/// A `P`-point DIF C1 in `Gs` order: stages span P/2 → 1.
fn dif<const P: usize>(mont: &Montgomery32, x: &mut Atom, tw: &StageTwiddles) {
    let bu = |a, b, w| gs(mont, a, b, w);
    if P >= 8 {
        stage::<P, 4>(x, &tw[2], bu);
    }
    if P >= 4 {
        stage::<P, 2>(x, &tw[1], bu);
    }
    stage::<P, 1>(x, &tw[0], bu);
}

/// C1 (Algorithm 1): the intra-atom NTT over the first `points` lanes,
/// with every stage's twiddles precomputed. Stage `s` (span `2^s`) uses
/// `1, step[s], step[s]², …` within each butterfly group, resetting at
/// group boundaries, so one row of `2^s` twiddles serves every group.
///
/// Each accepted shape — 2, 4 or 8 points in either order — is its own
/// straight-line function, picked once when the kernel is built; a full
/// atom is three fixed stages of four butterflies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct C1Kernel {
    stages: fn(&Montgomery32, &mut Atom, &StageTwiddles),
    tw: StageTwiddles,
}

impl C1Kernel {
    /// Precomputes the kernel of one C1 command under `mont`.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for a point count other than 2, 4 or
    /// 8, or a step-count mismatch.
    pub(crate) fn new(mont: &Montgomery32, params: &C1Params) -> Result<Self, PimError> {
        let points = params.points;
        let stages = match (points, params.order) {
            (2, BuOrder::Ct) => dit::<2>,
            (4, BuOrder::Ct) => dit::<4>,
            (8, BuOrder::Ct) => dit::<8>,
            (2, BuOrder::Gs) => dif::<2>,
            (4, BuOrder::Gs) => dif::<4>,
            (8, BuOrder::Gs) => dif::<8>,
            _ => {
                return Err(PimError::BufferMisuse {
                    reason: format!("C1 over {points} points is not supported"),
                })
            }
        };
        let log_p = points.trailing_zeros() as usize;
        if params.stage_steps_mont.len() != log_p {
            return Err(PimError::BufferMisuse {
                reason: format!(
                    "C1 over {points} points needs {log_p} stage steps, got {}",
                    params.stage_steps_mont.len()
                ),
            });
        }
        let mut tw = [[0; NA / 2]; LOG_NA];
        for (s, &step) in params.stage_steps_mont.iter().enumerate() {
            let powers = lane_twiddles(
                mont,
                TwiddleParams {
                    omega0_mont: mont.one(),
                    r_omega_mont: step,
                },
            );
            tw[s].copy_from_slice(&powers[..NA / 2]);
        }
        Ok(Self { stages, tw })
    }

    /// Transforms the first `points` lanes of `x` in place; the rest are
    /// untouched. `Ct` runs stages span 1 → points/2 (DIT), `Gs` the
    /// reverse (DIF).
    #[inline]
    pub(crate) fn run(&self, mont: &Montgomery32, x: &mut Atom) {
        (self.stages)(mont, x, &self.tw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{BufId, OperandReg, PimCommand};
    use crate::config::PimConfig;
    use crate::mapper::Program;
    use crate::sim::FunctionalSim;
    use crate::tfg::TwiddleGen;
    use modmath::arith::pow_mod;
    use modmath::prime::NttField;

    const Q: u32 = 7681; // 7681 = 30*256+1 supports up to N=256 cyclic

    fn mont() -> Montgomery32 {
        Montgomery32::new(Q).unwrap()
    }

    /// Stage steps `ω^(N/2^(s+1))` of an `n`-point C1, Montgomery form.
    fn c1_params(n: usize, order: BuOrder) -> C1Params {
        let w = NttField::new(n, Q as u64).unwrap().root_of_unity();
        let m = mont();
        C1Params {
            points: n as u8,
            stage_steps_mont: (0..n.trailing_zeros())
                .map(|s| m.to_mont(pow_mod(w, (n >> (s + 1)) as u64, Q as u64) as u32))
                .collect(),
            order,
        }
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

    #[test]
    fn compute_before_setmodulus_fails() {
        let mut sim = FunctionalSim::new(&PimConfig::hbm2e(1)).unwrap();
        let read = PimCommand::CuRead {
            row: 0,
            col: 0,
            buf: BufId(0),
        };
        let c1 = PimCommand::C1 {
            buf: BufId(0),
            params: c1_params(8, BuOrder::Ct),
        };
        let err = sim.execute(&program(vec![read, c1])).unwrap_err();
        assert!(
            matches!(&err, PimError::BufferMisuse { reason } if reason.contains("SetModulus")),
            "{err}"
        );
        // Malformed C1 shapes fail when the kernel is built.
        let m = mont();
        for (points, steps) in [(3u8, 2usize), (16, 4), (8, 2)] {
            let params = C1Params {
                points,
                stage_steps_mont: vec![1; steps],
                order: BuOrder::Ct,
            };
            assert!(C1Kernel::new(&m, &params).is_err(), "{points} points");
        }
    }

    /// C1 over a full atom must equal the reference 8-point NTT.
    #[test]
    fn c1_ct_computes_8_point_ntt() {
        let field = NttField::new(8, Q as u64).unwrap();
        let m = mont();
        // Bit-reversed input for the DIT graph.
        let input: Vec<u64> = (1..=8u64).collect();
        let mut br = input.clone();
        modmath::bitrev::bitrev_permute(&mut br);
        let mut atom: Atom = std::array::from_fn(|i| br[i] as u32);
        let kernel = C1Kernel::new(&m, &c1_params(8, BuOrder::Ct)).unwrap();
        kernel.run(&m, &mut atom);
        let got: Vec<u64> = atom.iter().map(|&x| x as u64).collect();
        assert_eq!(got, ntt_ref::naive::ntt(&field, &input));
    }

    /// The GS order on the DIF graph computes the same NTT with the
    /// bit-reversal on the *output* side.
    #[test]
    fn c1_gs_computes_8_point_ntt_bitrev_out() {
        let field = NttField::new(8, Q as u64).unwrap();
        let m = mont();
        let input: Vec<u64> = vec![5, 1, 4, 2, 8, 6, 3, 7];
        let mut atom: Atom = std::array::from_fn(|i| input[i] as u32);
        C1Kernel::new(&m, &c1_params(8, BuOrder::Gs))
            .unwrap()
            .run(&m, &mut atom);
        let mut got: Vec<u64> = atom.iter().map(|&x| x as u64).collect();
        modmath::bitrev::bitrev_permute(&mut got);
        assert_eq!(got, ntt_ref::naive::ntt(&field, &input));
    }

    #[test]
    fn c1_partial_atom_4_points() {
        let field = NttField::new(4, Q as u64).unwrap();
        let m = mont();
        let input = vec![3u64, 1, 4, 1];
        let mut br = input.clone();
        modmath::bitrev::bitrev_permute(&mut br);
        let mut atom: Atom = [77; NA]; // untouched tail lanes
        for (lane, &v) in br.iter().enumerate() {
            atom[lane] = v as u32;
        }
        C1Kernel::new(&m, &c1_params(4, BuOrder::Ct))
            .unwrap()
            .run(&m, &mut atom);
        let expect = ntt_ref::naive::ntt(&field, &input);
        for i in 0..4 {
            assert_eq!(atom[i] as u64, expect[i]);
        }
        assert_eq!(&atom[4..], &[77; 4], "tail lanes untouched");
    }

    #[test]
    fn c2_applies_geometric_twiddles() {
        let m = mont();
        let a: Atom = std::array::from_fn(|l| l as u32 + 1);
        let b: Atom = std::array::from_fn(|l| l as u32 + 11);
        let (omega0, r) = (3u32, 62u32);
        let tw = crate::tfg::params_to_mont(&m, omega0, r);
        let (mut p, mut s) = (a, b);
        c2(&m, &mut p, &mut s, &lane_twiddles(&m, tw), BuOrder::Ct);
        for l in 0..NA {
            let w = modmath::arith::mul_mod(
                omega0 as u64,
                pow_mod(r as u64, l as u64, Q as u64),
                Q as u64,
            );
            let t = modmath::arith::mul_mod(b[l] as u64, w, Q as u64);
            assert_eq!(
                p[l] as u64,
                modmath::arith::add_mod(a[l] as u64, t, Q as u64)
            );
            assert_eq!(
                s[l] as u64,
                modmath::arith::sub_mod(a[l] as u64, t, Q as u64)
            );
        }
    }

    /// The precomputed lane twiddles are the generator's sequence, word
    /// for word, for random moduli and seeds (both in Montgomery form).
    #[test]
    fn lane_twiddles_match_the_generator() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound as u64) as u32
        };
        for q in [7681u32, 12289, 8_380_417, 2_013_265_921, 3, 65_537] {
            let m = Montgomery32::new(q).unwrap();
            for _ in 0..200 {
                let tw = TwiddleParams {
                    omega0_mont: next(q),
                    r_omega_mont: next(q),
                };
                let mut gen = TwiddleGen::new(m, tw.omega0_mont, tw.r_omega_mont);
                let reference: Atom = std::array::from_fn(|_| gen.next_twiddle());
                assert_eq!(lane_twiddles(&m, tw), reference, "q={q} {tw:?}");
            }
        }
    }

    #[test]
    fn scale_multiplies_geometric_sequence() {
        let m = mont();
        let mut atom: Atom = [100; NA];
        let tw = crate::tfg::params_to_mont(&m, 2, 3);
        scale(&m, &mut atom, &lane_twiddles(&m, tw));
        for l in 0..NA as u64 {
            let w = modmath::arith::mul_mod(2, pow_mod(3, l, Q as u64), Q as u64);
            assert_eq!(
                atom[l as usize] as u64,
                modmath::arith::mul_mod(100, w, Q as u64)
            );
        }
    }

    #[test]
    fn pointwise_is_plain_product() {
        let m = mont();
        let a: Atom = [1, 2, 3, 4, 5, 6, 7, 7680];
        let b: Atom = [7680, 100, 200, 300, 400, 500, 600, 7680];
        let mut p = a;
        pointwise(&m, &mut p, &b);
        for l in 0..NA {
            assert_eq!(
                p[l] as u64,
                modmath::arith::mul_mod(a[l] as u64, b[l] as u64, Q as u64)
            );
        }
    }

    #[test]
    fn scalar_reg_path_computes_one_butterfly() {
        let m = mont();
        let c = PimConfig::hbm2e(1);
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(0, &[10, 20, 0, 0, 0, 0, 0, 0]);
        let p = BufId::PRIMARY;
        let reg = |lane, reg, load| {
            if load {
                PimCommand::RegLoad { buf: p, lane, reg }
            } else {
                PimCommand::RegStore { buf: p, lane, reg }
            }
        };
        let mut commands = vec![
            PimCommand::SetModulus { q: Q },
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: p,
            },
            reg(0, OperandReg::A, true),
            reg(1, OperandReg::B, true),
            PimCommand::RegBu {
                omega_mont: m.to_mont(5),
                order: BuOrder::Ct,
            },
            reg(0, OperandReg::A, false),
            reg(1, OperandReg::B, false),
            PimCommand::CuWrite {
                row: 0,
                col: 0,
                buf: p,
            },
        ];
        sim.execute(&program(commands.clone())).unwrap();
        let out = sim.read_words(0, 2);
        // BU(10, 20) with w=5: t=100, out = (110, 10-100 mod q).
        assert_eq!(out[0], 110);
        assert_eq!(out[1] as u64, modmath::arith::sub_mod(10, 100, Q as u64));
        // Out-of-range lane rejected.
        commands[2] = reg(8, OperandReg::A, true);
        assert!(matches!(
            sim.execute(&program(commands)),
            Err(PimError::BufferMisuse { .. })
        ));
    }

    /// Moduli of the kernel property tests: the smallest the datapath
    /// accepts, four NTT primes, and the largest odd modulus under 2³¹,
    /// where the sign mask of each correction has the least room.
    const KERNEL_MODULI: [u32; 6] = [3, 7681, 12289, 8_380_417, 2_013_265_921, (1 << 31) - 1];

    /// The widening butterfly on a plain twiddle.
    fn butterfly_ref(q: u32, a: u32, b: u32, w: u32, order: BuOrder) -> (u32, u32) {
        use modmath::arith::{add_mod, mul_mod, sub_mod};
        let (a, b, w, q) = (a as u64, b as u64, w as u64, q as u64);
        let (x, y) = match order {
            BuOrder::Ct => {
                let t = mul_mod(b, w, q);
                (add_mod(a, t, q), sub_mod(a, t, q))
            }
            BuOrder::Gs => (add_mod(a, b, q), mul_mod(sub_mod(a, b, q), w, q)),
        };
        (x as u32, y as u32)
    }

    /// The C1 butterfly network, widening: stage `s` (span `m = 2^s`)
    /// gives butterfly `(k + j, k + j + m)` the twiddle `steps[s]^j`;
    /// `Ct` runs the stages upwards, `Gs` downwards.
    fn c1_ref(q: u32, x: &mut Atom, points: usize, steps: &[u32], order: BuOrder) {
        let log_p = points.trailing_zeros() as usize;
        let stages: Vec<usize> = match order {
            BuOrder::Ct => (0..log_p).collect(),
            BuOrder::Gs => (0..log_p).rev().collect(),
        };
        for s in stages {
            let m = 1 << s;
            for k in (0..points).step_by(2 * m) {
                for j in 0..m {
                    let w = pow_mod(steps[s] as u64, j as u64, q as u64) as u32;
                    (x[k + j], x[k + j + m]) = butterfly_ref(q, x[k + j], x[k + j + m], w, order);
                }
            }
        }
    }

    /// Seeded residues mod `q`: random ones, and corner ones drawn from
    /// `{0, 1, q − 2, q − 1}`, where each correction just fires or just
    /// does not.
    struct Residues(u64);

    impl Residues {
        fn next(&mut self, bound: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 32) % bound as u64) as u32
        }

        /// A random residue (`corner` false) or a corner one.
        fn residue(&mut self, q: u32, corner: bool) -> u32 {
            if corner {
                [0, 1, q - 2, q - 1][self.next(4) as usize]
            } else {
                self.next(q)
            }
        }

        fn atom(&mut self, q: u32, corner: bool) -> Atom {
            std::array::from_fn(|_| self.residue(q, corner))
        }
    }

    /// Cases per modulus and kind (random, corner).
    const CASES: usize = 48;

    /// Runs `check(q, mont, residues, corner)` on every modulus, for
    /// random and corner inputs.
    fn for_each_case(mut check: impl FnMut(u32, &Montgomery32, &mut Residues, bool)) {
        let mut residues = Residues(0x2545_f491_4f6c_dd1d);
        for q in KERNEL_MODULI {
            let m = Montgomery32::new(q).unwrap();
            for corner in [false, true] {
                for _ in 0..CASES {
                    check(q, &m, &mut residues, corner);
                }
            }
        }
    }

    /// Every C1 shape — 2, 4 and 8 points, `Ct` and `Gs` — against the
    /// widening network on the same atom and stage steps; a partial
    /// atom's tail lanes stay untouched.
    ///
    /// The compiler vectorizes these kernels only in optimized builds. A
    /// debug `cargo test` checks them unvectorized; CI's test step under
    /// the release-shaped `test-overflow` profile, which runs the whole
    /// workspace, is the one that checks the vector code.
    #[test]
    fn c1_kernels_match_the_widening_network() {
        for_each_case(|q, m, residues, corner| {
            for points in [2usize, 4, 8] {
                for order in [BuOrder::Ct, BuOrder::Gs] {
                    let log_p = points.trailing_zeros() as usize;
                    let steps: Vec<u32> = (0..log_p).map(|_| residues.residue(q, corner)).collect();
                    let params = C1Params {
                        points: points as u8,
                        stage_steps_mont: steps.iter().map(|&w| m.to_mont(w)).collect(),
                        order,
                    };
                    let atom = residues.atom(q, corner);
                    let mut got = atom;
                    C1Kernel::new(m, &params).unwrap().run(m, &mut got);
                    let mut want = atom;
                    c1_ref(q, &mut want, points, &steps, order);
                    assert_eq!(
                        got, want,
                        "q={q} {points} points {order:?} {atom:?} {steps:?}"
                    );
                    assert_eq!(&got[points..], &atom[points..], "tail lanes untouched");
                }
            }
        });
    }

    /// C2 in both orders, Scale and Pointwise against widening
    /// arithmetic, lane by lane. As for C1, CI's `test-overflow` step
    /// (release-shaped) is the run that checks the vectorized code.
    #[test]
    fn lane_kernels_match_widening_arithmetic() {
        use modmath::arith::mul_mod;
        for_each_case(|q, m, residues, corner| {
            let (a, b) = (residues.atom(q, corner), residues.atom(q, corner));
            let w = residues.atom(q, corner);
            let w_mont = w.map(|w| m.to_mont(w));
            for order in [BuOrder::Ct, BuOrder::Gs] {
                let (mut p, mut s) = (a, b);
                c2(m, &mut p, &mut s, &w_mont, order);
                for l in 0..NA {
                    assert_eq!(
                        (p[l], s[l]),
                        butterfly_ref(q, a[l], b[l], w[l], order),
                        "q={q} C2 {order:?} lane {l}: a={} b={} w={}",
                        a[l],
                        b[l],
                        w[l]
                    );
                }
            }
            let mul = |x: u32, y: u32| mul_mod(x as u64, y as u64, q as u64) as u32;
            let mut x = a;
            scale(m, &mut x, &w_mont);
            assert_eq!(
                x,
                std::array::from_fn(|l| mul(a[l], w[l])),
                "q={q} Scale {a:?} {w:?}"
            );
            let mut p = a;
            pointwise(m, &mut p, &b);
            assert_eq!(
                p,
                std::array::from_fn(|l| mul(a[l], b[l])),
                "q={q} Pointwise {a:?} {b:?}"
            );
        });
    }
}
