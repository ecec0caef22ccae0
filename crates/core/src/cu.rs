//! The functional compute unit's datapath (Fig. 2 right; Algorithms 1
//! and 2), as kernels over one atom.
//!
//! The paper's CU multiplies by twiddles in a 32-bit Montgomery datapath,
//! and the mapper emits every twiddle in Montgomery form (see
//! [`crate::tfg`]). The functional model computes the same words another
//! way: every product by a twiddle — C1, C2, Scale and the `Nb = 1`
//! register butterfly — is a 32-bit Shoup product ([`mul_shoup`]). The
//! decoder ([`crate::sim`]) turns each Montgomery-form twiddle `w_mont`
//! into its plain residue `w = REDC(w_mont)` and the companion
//! `w′ = ⌊w·2³²/q⌋` once per twiddle row and per C1 kernel ([`Twiddle`],
//! [`TwiddleRow`]). For data `b < 2³²` the product is
//! `q̂ = ⌊b·w′/2³²⌋` and `r = b·w − q̂·q`: `w′` falls short of `w·2³²/q`
//! by less than one, so `r` lies in `[0, 2q)`, and `2q < 2³²` lets one
//! correction return `b·w mod q`, the canonical residue `REDC(b·w_mont)`
//! gives. The words are the same; the unit tests check the product
//! against both at every kernel modulus, one lane at a time and eight
//! lanes at once. Pointwise keeps REDC: both of its operands are data, so
//! there is no constant to precompute a companion for.
//!
//! The kernels run on a fixed [`Atom`] of [`NA`] = 8 lanes, Table I's
//! 32 B atom of 32-bit words and the only size
//! [`crate::config::PimConfig::validate`] accepts. The butterfly order is
//! chosen once per command. A C2 computes its eight products before its
//! add/sub legs, and Scale is eight products; both carry lanes `2k` and
//! `2k + 1` as the halves of one 64-bit word through the product. In that
//! shape the optimizer runs C2 (either order) and Scale as SSE2 vector
//! code on the default x86-64 target, products included: `pmuludq`, which
//! multiplies the low halves of two 64-bit lanes, and no scalar multiply.
//! SSE2 has no 32-bit low multiply, so the same products written on 32-bit
//! lanes also compiled to `pmuludq`, but spent about four shuffles per
//! four lanes on each `b·w` and `q̂·q` and ran no faster than the scalar
//! REDC they replaced; REDC itself stayed scalar in every shape a
//! prototype tried.
//! Each C1 shape (2, 4 or 8 points, either order) is a straight-line
//! function of fixed stages and stays scalar code; the first butterfly of
//! each group has twiddle `step⁰ = 1` and is an addition and a
//! subtraction only, so a full-atom C1 multiplies in 5 of its 12
//! butterflies. Every correction is a sign mask, `d + (q & (d >> 31))`,
//! which SSE2 has for 32-bit lanes (the `x.min(x − q)` form has no SSE2
//! vector form). No `unsafe` code, target feature or second kernel path
//! is involved: this is the one datapath, and debug builds run it
//! unvectorized.
//!
//! The hardware generates each C2's lane twiddles `ω0·rω^l` by a serial
//! chain of multiplies ([`crate::tfg::TwiddleGen`]). Here the decoder
//! precomputes them once per distinct `(q, ω0, rω)` as eight independent
//! products ([`lane_twiddles`], Montgomery form); Montgomery products are
//! canonical residues, so both give the same words, which the tests check
//! against the generator.
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

/// The low 32 bits of a 64-bit word.
const LO: u64 = 0xffff_ffff;

/// The Shoup product before its correction: for a lane `b < 2³²`, a
/// plain twiddle `w < q` and its companion `w_shoup`, with
/// `q̂ = ⌊b·w_shoup/2³²⌋`, `b·w − q̂·q`. `w_shoup` falls short of
/// `w·2³²/q` by less than one and `b < 2³²`, so `q̂` falls short of
/// `b·w/q` by less than one and the result lies in `[0, 2q)`, with
/// `2q < 2³²`; [`reduce`] finishes it. Every product by a twiddle goes
/// through here.
///
/// The operands are 32-bit values in 64-bit words. A C2 or Scale keeps
/// an atom's even and odd lanes in the two halves of one word
/// ([`TwiddleRow::products`]), and SSE2's `pmuludq` multiplies exactly
/// the low halves of two 64-bit lanes, so the vector code needs no
/// shuffles to split or join lanes.
#[inline(always)]
fn mul_shoup(q: u64, b: u64, w: u64, w_shoup: u64) -> u64 {
    let q_hat = (b * w_shoup) >> 32;
    b * w - q_hat * q
}

/// `x mod q` for `x` in `[0, 2q)`, `q < 2³¹`: `x − q` lies in `[−q, q)`
/// and keeps its sign in the top bit, so a sign mask adds `q` back
/// exactly when it went negative.
#[inline(always)]
fn reduce(q: u32, x: u32) -> u32 {
    let d = x.wrapping_sub(q);
    d.wrapping_add(q & ((d as i32 >> 31) as u32))
}

/// One twiddle in Shoup form: its plain residue and companion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Twiddle {
    w: u32,
    w_shoup: u32,
}

impl Twiddle {
    /// The Shoup form of the Montgomery-form twiddle `w_mont`, under
    /// `mont`'s modulus: `w = REDC(w_mont) < q` and its companion
    /// `⌊w·2³²/q⌋`, which fits a `u32` because `w < q`.
    pub(crate) fn from_mont(mont: &Montgomery32, w_mont: u32) -> Self {
        let w = mont.from_mont(w_mont);
        Self {
            w,
            w_shoup: ((u64::from(w) << 32) / u64::from(mont.modulus())) as u32,
        }
    }

    /// `b·self mod q`, for any `b < 2³²`.
    #[inline(always)]
    fn mul(self, q: u32, b: u32) -> u32 {
        let r = mul_shoup(q.into(), b.into(), self.w.into(), self.w_shoup.into());
        reduce(q, r as u32)
    }
}

/// The Cooley–Tukey butterfly: `t = b·w; (a + t, a − t)`.
#[inline(always)]
fn ct(mont: &Montgomery32, a: u32, b: u32, tw: Twiddle) -> (u32, u32) {
    let t = tw.mul(mont.modulus(), b);
    (mont.add(a, t), mont.sub(a, t))
}

/// The Gentleman–Sande butterfly: `(a + b, (a − b)·w)`.
#[inline(always)]
fn gs(mont: &Montgomery32, a: u32, b: u32, tw: Twiddle) -> (u32, u32) {
    (mont.add(a, b), tw.mul(mont.modulus(), mont.sub(a, b)))
}

/// One butterfly in the selected order on plain-form `a` and `b` (the
/// `Nb = 1` register path).
#[inline]
pub(crate) fn butterfly(
    mont: &Montgomery32,
    a: u32,
    b: u32,
    tw: Twiddle,
    order: BuOrder,
) -> (u32, u32) {
    match order {
        BuOrder::Ct => ct(mont, a, b, tw),
        BuOrder::Gs => gs(mont, a, b, tw),
    }
}

/// The per-lane twiddles `ω0·rω^l`, `l < Na`, of one C2 or Scale
/// (Montgomery form): `rω`'s powers, then eight independent products.
/// For reduced `ω0` and `rω` (what the mapper emits) these are the words
/// [`crate::tfg::TwiddleGen`] steps through.
fn lane_twiddles(mont: &Montgomery32, tw: TwiddleParams) -> Atom {
    let mut powers = [mont.one(); NA];
    for l in 1..NA {
        powers[l] = mont.mul(powers[l - 1], tw.r_omega_mont);
    }
    powers.map(|p| mont.mul(tw.omega0_mont, p))
}

/// The lane twiddles of one C2 or Scale in Shoup form: the plain words
/// and their companions, an atom each (64 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TwiddleRow {
    w: Atom,
    w_shoup: Atom,
}

impl TwiddleRow {
    /// The row of one C2 or Scale's parameters under `mont`, from
    /// [`lane_twiddles`].
    pub(crate) fn new(mont: &Montgomery32, tw: TwiddleParams) -> Self {
        Self::from_mont(mont, &lane_twiddles(mont, tw))
    }

    /// The row of Montgomery-form lane twiddles `words`.
    fn from_mont(mont: &Montgomery32, words: &Atom) -> Self {
        let tw = words.map(|w| Twiddle::from_mont(mont, w));
        Self {
            w: tw.map(|t| t.w),
            w_shoup: tw.map(|t| t.w_shoup),
        }
    }

    /// Lane `l` of `b` times lane `l`'s twiddle, `mod q`. Lanes `2k`
    /// and `2k + 1` travel as the low and high halves of one 64-bit
    /// word, and every product is computed before any add or subtract:
    /// in this shape the optimizer runs all eight as SSE2 vector code.
    #[inline(always)]
    fn products(&self, q: u32, b: &Atom) -> Atom {
        let pair = |x: &Atom, k: usize| u64::from(x[2 * k]) | u64::from(x[2 * k + 1]) << 32;
        let r: [u64; NA / 2] = std::array::from_fn(|k| {
            let (b, w, w_shoup) = (pair(b, k), pair(&self.w, k), pair(&self.w_shoup, k));
            let even = mul_shoup(q.into(), b & LO, w & LO, w_shoup & LO);
            let odd = mul_shoup(q.into(), b >> 32, w >> 32, w_shoup >> 32);
            (even & LO) | odd << 32
        });
        std::array::from_fn(|l| reduce(q, (r[l / 2] >> (32 * (l % 2))) as u32))
    }
}

/// C2 (Algorithm 2): lane `l` computes `BU(p[l], s[l])` with twiddle
/// lane `l` of `tw`, in place. The order is chosen once for the atom;
/// each arm computes its eight products, then the add/sub legs.
///
/// Always inlined: left to itself the optimizer keeps this kernel out of
/// line in the run loop, and the call, with its atoms passed through
/// memory, made the serial run of sixteen N = 4096 programs about 1.6×
/// slower than inlined.
#[inline(always)]
pub(crate) fn c2(mont: &Montgomery32, p: &mut Atom, s: &mut Atom, tw: &TwiddleRow, order: BuOrder) {
    let q = mont.modulus();
    match order {
        BuOrder::Ct => {
            let (a, t) = (*p, tw.products(q, s));
            *p = std::array::from_fn(|l| mont.add(a[l], t[l]));
            *s = std::array::from_fn(|l| mont.sub(a[l], t[l]));
        }
        BuOrder::Gs => {
            let (a, b) = (*p, *s);
            *p = std::array::from_fn(|l| mont.add(a[l], b[l]));
            *s = tw.products(q, &std::array::from_fn(|l| mont.sub(a[l], b[l])));
        }
    }
}

/// The `Scale` extension: lane `l` is multiplied by twiddle lane `l`.
#[inline(always)]
pub(crate) fn scale(mont: &Montgomery32, x: &mut Atom, tw: &TwiddleRow) {
    *x = tw.products(mont.modulus(), x);
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

/// Stage twiddles of a C1 in Shoup form: `tw[s][j] = step[s]^j` for
/// `j < 2^s`. Entry `j = 0` is one and never multiplied by.
type StageTwiddles = [[Twiddle; NA / 2]; LOG_NA];

/// One C1 stage of span `M` over the first `P` lanes: butterfly
/// `(k + j, k + j + M)`, for each group start `k` and `j < M`, takes
/// twiddle `tw[j]`. The first butterfly of a group has twiddle one, and
/// in either order is then `(a + b, a − b)`: an addition and a
/// subtraction, no product. Both bounds are constants, so the stage
/// compiles to `P / 2` butterflies of straight-line code.
#[inline(always)]
fn stage<const P: usize, const M: usize>(
    mont: &Montgomery32,
    x: &mut Atom,
    tw: &[Twiddle; NA / 2],
    bu: impl Fn(u32, u32, Twiddle) -> (u32, u32),
) {
    for g in 0..P / (2 * M) {
        let k = 2 * M * g;
        (x[k], x[k + M]) = (mont.add(x[k], x[k + M]), mont.sub(x[k], x[k + M]));
        for (j, &w) in tw[..M].iter().enumerate().skip(1) {
            let (a, b) = (k + j, k + j + M);
            (x[a], x[b]) = bu(x[a], x[b], w);
        }
    }
}

/// A `P`-point DIT C1 in `Ct` order: stages span 1 → P/2.
fn dit<const P: usize>(mont: &Montgomery32, x: &mut Atom, tw: &StageTwiddles) {
    let bu = |a, b, w| ct(mont, a, b, w);
    stage::<P, 1>(mont, x, &tw[0], bu);
    if P >= 4 {
        stage::<P, 2>(mont, x, &tw[1], bu);
    }
    if P >= 8 {
        stage::<P, 4>(mont, x, &tw[2], bu);
    }
}

/// A `P`-point DIF C1 in `Gs` order: stages span P/2 → 1.
fn dif<const P: usize>(mont: &Montgomery32, x: &mut Atom, tw: &StageTwiddles) {
    let bu = |a, b, w| gs(mont, a, b, w);
    if P >= 8 {
        stage::<P, 4>(mont, x, &tw[2], bu);
    }
    if P >= 4 {
        stage::<P, 2>(mont, x, &tw[1], bu);
    }
    stage::<P, 1>(mont, x, &tw[0], bu);
}

/// C1 (Algorithm 1): the intra-atom NTT over the first `points` lanes,
/// with every stage's twiddles precomputed in Shoup form. Stage `s`
/// (span `2^s`) uses `1, step[s], step[s]², …` within each butterfly
/// group, resetting at group boundaries, so one row of `2^s` twiddles
/// serves every group.
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
        let one = Twiddle::from_mont(mont, mont.one());
        let mut tw = [[one; NA / 2]; LOG_NA];
        for (s, &step) in params.stage_steps_mont.iter().enumerate() {
            let powers = lane_twiddles(
                mont,
                TwiddleParams {
                    omega0_mont: mont.one(),
                    r_omega_mont: step,
                },
            );
            for (t, &p) in tw[s].iter_mut().zip(&powers) {
                *t = Twiddle::from_mont(mont, p);
            }
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
    use crate::cmd::{BufId, OperandReg, PimCommand, StageSteps};
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
            stage_steps_mont: StageSteps::new(
                &(0..n.trailing_zeros())
                    .map(|s| m.to_mont(pow_mod(w, (n >> (s + 1)) as u64, Q as u64) as u32))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
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
        // Malformed C1 shapes fail when the kernel is built (a 16-point
        // C1 fails on its point count; four steps do not fit a command).
        let m = mont();
        for (points, steps) in [(3u8, 2usize), (16, 3), (8, 2)] {
            let params = C1Params {
                points,
                stage_steps_mont: StageSteps::new(&vec![1; steps]).unwrap(),
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
        c2(&m, &mut p, &mut s, &TwiddleRow::new(&m, tw), BuOrder::Ct);
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
        scale(&m, &mut atom, &TwiddleRow::new(&m, tw));
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
                        stage_steps_mont: StageSteps::new(
                            &steps.iter().map(|&w| m.to_mont(w)).collect::<Vec<_>>(),
                        )
                        .unwrap(),
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
            let row = TwiddleRow::from_mont(m, &w_mont);
            for order in [BuOrder::Ct, BuOrder::Gs] {
                let (mut p, mut s) = (a, b);
                c2(m, &mut p, &mut s, &row, order);
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
            scale(m, &mut x, &row);
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

    /// The Shoup product at its edges: on every kernel modulus, with `b`
    /// and `w` each drawn from `{0, 1, q − 2, q − 1}` and from seeded
    /// residues, the companion is `⌊w·2³²/q⌋`, and the product — one lane
    /// at a time ([`Twiddle::mul`], the C1 and register path) and eight
    /// lanes in pairs ([`TwiddleRow::products`], the C2 and Scale path)
    /// — is both the widening `b·w mod q` and the word REDC gives on the
    /// Montgomery-form twiddle, which is what the CU computed before the
    /// Shoup form.
    #[test]
    fn shoup_product_matches_widening_and_redc() {
        let mut residues = Residues(0x5851_f42d_4c95_7f2d);
        for q in KERNEL_MODULI {
            let m = Montgomery32::new(q).unwrap();
            let corners = [0, 1, q - 2, q - 1];
            let mut pairs: Vec<(u32, u32)> = corners
                .iter()
                .flat_map(|&b| corners.iter().map(move |&w| (b, w)))
                .collect();
            pairs.extend((0..304).map(|_| (residues.next(q), residues.next(q))));
            for chunk in pairs.chunks(NA) {
                let b: Atom = std::array::from_fn(|l| chunk[l].0);
                let w: Atom = std::array::from_fn(|l| chunk[l].1);
                let row = TwiddleRow::from_mont(&m, &w.map(|w| m.to_mont(w)));
                let lanes = row.products(q, &b);
                for l in 0..NA {
                    let (b, w) = (b[l], w[l]);
                    let tw = Twiddle::from_mont(&m, m.to_mont(w));
                    let want_shoup = ((u128::from(w) << 32) / u128::from(q)) as u32;
                    assert_eq!(
                        tw,
                        Twiddle {
                            w,
                            w_shoup: want_shoup
                        },
                        "q={q} w={w}"
                    );
                    assert_eq!((row.w[l], row.w_shoup[l]), (w, want_shoup), "q={q} w={w}");
                    let widening = (u64::from(b) * u64::from(w) % u64::from(q)) as u32;
                    let redc = m.redc(u64::from(b) * u64::from(m.to_mont(w)));
                    assert_eq!(widening, redc, "q={q} b={b} w={w}");
                    assert_eq!(tw.mul(q, b), widening, "q={q} b={b} w={w} one lane");
                    assert_eq!(lanes[l], widening, "q={q} b={b} w={w} lane {l} of a row");
                }
            }
        }
    }

    /// C1 kernels whose stage steps are all one, so that every twiddle is
    /// one, and all `q − 1`, so that every other stage twiddle is `−1`,
    /// against the widening network on random and corner atoms.
    #[test]
    fn c1_kernels_with_unit_and_minus_one_steps() {
        for_each_case(|q, m, residues, corner| {
            for step in [1, q - 1] {
                for points in [2usize, 4, 8] {
                    for order in [BuOrder::Ct, BuOrder::Gs] {
                        let steps = vec![step; points.trailing_zeros() as usize];
                        let params = C1Params {
                            points: points as u8,
                            stage_steps_mont: StageSteps::new(
                                &steps.iter().map(|&w| m.to_mont(w)).collect::<Vec<_>>(),
                            )
                            .unwrap(),
                            order,
                        };
                        let atom = residues.atom(q, corner);
                        let mut got = atom;
                        C1Kernel::new(m, &params).unwrap().run(m, &mut got);
                        let mut want = atom;
                        c1_ref(q, &mut want, points, &steps, order);
                        assert_eq!(
                            got, want,
                            "q={q} step={step} {points} points {order:?} {atom:?}"
                        );
                    }
                }
            }
        });
    }
}
