//! Shoup constant-multiplication with Harvey-style lazy reduction — the
//! tuned software datapath shared by every hot NTT kernel.
//!
//! A butterfly multiplies data by a *precomputed* twiddle `w`. Shoup's
//! trick stores the quotient `w' = ⌊w·2⁶⁴/q⌋` next to `w`; then
//! `x·w mod q` needs one `mulhi`, two wrapping multiplies and one
//! subtraction — no division, no 128-bit remainder. Harvey's refinement
//! keeps intermediate values *lazily* reduced: [`mul_lazy`] returns a
//! value in `[0, 2q)` for **any** `u64` input, and the add/sub legs of a
//! butterfly run without reduction in `[0, 4q)`. A single normalization
//! pass ([`normalize`]) at the end of the transform maps everything back
//! to `[0, q)`.
//!
//! The laziness is sound whenever `q <` [`LAZY_MODULUS_BOUND`]` = 2⁶²`
//! (so `4q` fits in a `u64`); [`supports`] is the capability gate the
//! transform planners consult before choosing this datapath over the
//! widening fallback.
//!
//! The butterfly legs never branch on the residues: [`reduce_once`] and
//! [`reduce_twice`] subtract without a branch (`x.min(x.wrapping_sub(q))`:
//! the difference wraps to a larger value exactly when `x < q`),
//! bit-identical to the `if x >= q` form. A data-dependent branch there
//! is mispredicted about half the time on random residues, which made a
//! transform's cost depend on its input.
//! `host_profile --check` gates this on the lane-batched forward NTT:
//! eight N = 4096 polynomials may cost at most 1.25× as much on random
//! operands as on all-zero ones.
//!
//! See the [crate-level comparison](crate#choosing-a-reduction-strategy)
//! of widening, Montgomery, and Shoup-lazy reduction for when to use
//! which.

use crate::Error;

/// Exclusive upper bound on moduli the lazy datapath accepts: `q < 2⁶²`
/// keeps every lazy intermediate (`< 4q`) representable in a `u64`.
pub const LAZY_MODULUS_BOUND: u64 = 1 << 62;

/// Whether modulus `q` fits the lazy datapath (`2 ≤ q < 2⁶²`).
///
/// # Example
///
/// ```
/// assert!(modmath::shoup::supports(8380417));
/// assert!(!modmath::shoup::supports(1 << 62));
/// ```
#[inline]
#[must_use]
pub fn supports(q: u64) -> bool {
    (2..LAZY_MODULUS_BOUND).contains(&q)
}

/// Validates `q` for the lazy datapath.
///
/// # Errors
///
/// Returns [`Error::BadModulus`] when `q < 2` or `q ≥ 2⁶²`.
pub fn check_modulus(q: u64) -> Result<(), Error> {
    if supports(q) {
        Ok(())
    } else {
        Err(Error::BadModulus {
            q,
            reason: "Shoup lazy reduction requires 2 <= q < 2^62",
        })
    }
}

/// Precomputes the Shoup quotient `w' = ⌊w·2⁶⁴/q⌋` of a constant
/// multiplier `w < q`.
///
/// # Example
///
/// ```
/// let q = 12289u64;
/// let w = 7u64;
/// let ws = modmath::shoup::precompute(w, q);
/// assert_eq!(modmath::shoup::mul_mod(5, w, ws, q), 35 % q);
/// ```
#[inline]
#[must_use]
pub fn precompute(w: u64, q: u64) -> u64 {
    debug_assert!(w < q, "Shoup constants must be reduced");
    (((w as u128) << 64) / q as u128) as u64
}

/// Lazy Shoup multiply: `x·w mod q` up to one redundant `q`, i.e. a value
/// in `[0, 2q)`. Accepts **any** `u64` for `x` (in particular lazy values
/// `< 4q`); requires `w < q` and its matching quotient `w_shoup`.
///
/// This is the single multiply + correction at the heart of every
/// butterfly: `hi = ⌊x·w'/2⁶⁴⌋`, result `= x·w − hi·q (mod 2⁶⁴)`.
#[inline]
#[must_use]
pub fn mul_lazy(x: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    debug_assert!(w < q, "Shoup constants must be reduced");
    let hi = ((x as u128 * w_shoup as u128) >> 64) as u64;
    let r = x.wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
    debug_assert!(q >= 1 << 63 || r < 2 * q, "lazy product out of range");
    r
}

/// Fully reduced Shoup multiply: `x·w mod q` in `[0, q)`, any `u64` `x`.
#[inline]
#[must_use]
pub fn mul_mod(x: u64, w: u64, w_shoup: u64, q: u64) -> u64 {
    reduce_once(mul_lazy(x, w, w_shoup, q), q)
}

/// Lazy butterfly addition: `a + b` with `a, b < 2q`, result `< 4q`
/// (no reduction at all).
#[inline]
#[must_use]
pub fn add_lazy(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < 2 * q && b < 2 * q, "lazy operands out of range");
    a + b
}

/// Lazy butterfly subtraction: `a − b + 2q` with `a, b < 2q`, result
/// `< 4q` and non-negative without a branch.
#[inline]
#[must_use]
pub fn sub_lazy(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < 2 * q && b < 2 * q, "lazy operands out of range");
    a + 2 * q - b
}

/// One branch-free conditional subtraction: maps `[0, 2q) → [0, q)`.
#[inline]
#[must_use]
pub fn reduce_once(x: u64, q: u64) -> u64 {
    debug_assert!(x < 2 * q || q >= 1 << 63);
    x.min(x.wrapping_sub(q))
}

/// One branch-free conditional subtraction of `2q`: maps
/// `[0, 4q) → [0, 2q)`.
#[inline]
#[must_use]
pub fn reduce_twice(x: u64, q: u64) -> u64 {
    debug_assert!(x < 4 * q);
    x.min(x.wrapping_sub(2 * q))
}

/// The single final-normalization pass of a lazy transform: maps every
/// element from `[0, 4q)` back to `[0, q)` (two conditional subtracts).
pub fn normalize(data: &mut [u64], q: u64) {
    for x in data.iter_mut() {
        *x = reduce_once(reduce_twice(*x, q), q);
    }
}

/// Exclusive upper bound on moduli [`GeometricTwiddle`] accepts: with
/// `q < 2³²` the remainder-advance product `w·ρ` (both factors `< q`)
/// fits a `u64`, so the incremental quotient update needs no 128-bit
/// arithmetic.
pub const GEOMETRIC_MODULUS_BOUND: u64 = 1 << 32;

/// An incrementally maintained Shoup constant pair for the geometric
/// twiddle sequence `w⁰, w¹, w², …` — the "on-the-fly Shoup constant"
/// trick for scaling passes whose multiplier is a running power of one
/// fixed step `w` (e.g. the four-step NTT's per-row `ω^(r·c)` factors:
/// `ω^r` is fixed along a row, so *one* quotient precompute per row
/// covers every element).
///
/// The naive approach needs a fresh quotient `⌊tw·2⁶⁴/q⌋` (a 128-bit
/// division) for every element. Instead this tracker carries the exact
/// decomposition `tw·2⁶⁴ = q·s + ρ` with `s` the Shoup quotient and
/// `ρ ∈ [0, q)` the remainder. Stepping `tw ← tw·w mod q` updates both
/// halves exactly:
///
/// ```text
/// tw'·2⁶⁴ = w·(q·s + ρ) − k·q·2⁶⁴          (k = ⌊tw·w/q⌋)
///         = q·(w·s − k·2⁶⁴ + ⌊w·ρ/q⌋) + (w·ρ mod q)
/// ```
///
/// so `s' = w·s + ⌊w·ρ/q⌋ (mod 2⁶⁴)` — the `k·2⁶⁴` term vanishes in
/// wrapping arithmetic and the true `s' < 2⁶⁴`, making the wrapped value
/// exact — and `ρ' = w·ρ mod q`. One 64-bit multiply + one 64-bit
/// division per step, no 128-bit remainder anywhere.
///
/// Requires `2 ≤ q <` [`GEOMETRIC_MODULUS_BOUND`] (so `w·ρ < q² < 2⁶⁴`)
/// and `w < q`.
///
/// # Example
///
/// ```
/// use modmath::shoup::GeometricTwiddle;
/// let (q, w) = (8380417u64, 1753u64);
/// let mut tw = GeometricTwiddle::new(w, q);
/// let mut expect = 1u64;
/// for _ in 0..100 {
///     assert_eq!(tw.mul_mod(12345), 12345 * expect % q);
///     expect = expect * w % q;
///     tw.advance();
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct GeometricTwiddle {
    q: u64,
    /// The fixed step multiplier and its (per-row, precomputed once)
    /// Shoup quotient.
    w: u64,
    w_shoup: u64,
    /// Current power `w^c`, fully reduced.
    tw: u64,
    /// `⌊tw·2⁶⁴/q⌋`, maintained incrementally.
    tw_shoup: u64,
    /// `tw·2⁶⁴ − q·tw_shoup ∈ [0, q)`, the exactness carry of the
    /// incremental quotient update.
    rho: u64,
}

impl GeometricTwiddle {
    /// Whether modulus `q` fits the incremental datapath.
    #[inline]
    #[must_use]
    pub fn supports(q: u64) -> bool {
        (2..GEOMETRIC_MODULUS_BOUND).contains(&q)
    }

    /// Starts the sequence at `w⁰ = 1` with step `w < q`.
    #[must_use]
    pub fn new(w: u64, q: u64) -> Self {
        debug_assert!(Self::supports(q), "geometric datapath requires q < 2^32");
        debug_assert!(w < q, "Shoup constants must be reduced");
        let one_shoup = precompute(1, q);
        Self {
            q,
            w,
            w_shoup: precompute(w, q),
            tw: 1,
            tw_shoup: one_shoup,
            // 2⁶⁴ mod q: the low 64 bits of −q·⌊2⁶⁴/q⌋.
            rho: q.wrapping_mul(one_shoup).wrapping_neg(),
        }
    }

    /// The current `(w^c, ⌊w^c·2⁶⁴/q⌋)` pair.
    #[inline]
    #[must_use]
    pub fn current(&self) -> (u64, u64) {
        (self.tw, self.tw_shoup)
    }

    /// Lazy Shoup multiply by the current power: `x·w^c mod q` in
    /// `[0, 2q)`, any `u64` input (the [`mul_lazy`] contract).
    #[inline]
    #[must_use]
    pub fn mul_lazy(&self, x: u64) -> u64 {
        let r = mul_lazy(x, self.tw, self.tw_shoup, self.q);
        debug_assert!(r < 2 * self.q, "lazy product out of range");
        r
    }

    /// Fully reduced multiply by the current power: `x·w^c mod q`.
    #[inline]
    #[must_use]
    pub fn mul_mod(&self, x: u64) -> u64 {
        reduce_once(self.mul_lazy(x), self.q)
    }

    /// Steps the sequence: `w^c → w^(c+1)`, updating the Shoup quotient
    /// exactly without a 128-bit division.
    #[inline]
    pub fn advance(&mut self) {
        // ⌊w·ρ/q⌋ and w·ρ mod q feed the quotient/remainder update; the
        // product fits a u64 because q < 2³².
        let u = self.w * self.rho;
        let k_frac = u / self.q;
        self.rho = u - k_frac * self.q;
        self.tw_shoup = self.w.wrapping_mul(self.tw_shoup).wrapping_add(k_frac);
        self.tw = mul_mod(self.tw, self.w, self.w_shoup, self.q);
        debug_assert_eq!(
            (self.tw as u128) << 64,
            self.q as u128 * self.tw_shoup as u128 + self.rho as u128,
            "incremental Shoup quotient diverged"
        );
    }
}

/// Scales `data[i] ← data[i]·w^i mod q` (inputs and outputs fully
/// reduced) — the four-step NTT's step-2 row scaling, on the
/// [`GeometricTwiddle`] incremental-Shoup datapath for `q < 2³²` and a
/// widening fallback above it.
pub fn scale_geometric(data: &mut [u64], w: u64, q: u64) {
    debug_assert!(w < q, "Shoup constants must be reduced");
    if w == 1 {
        return;
    }
    if GeometricTwiddle::supports(q) {
        let mut tw = GeometricTwiddle::new(w, q);
        // data[0]·w⁰ is a no-op; start the running power at w¹.
        for x in data.iter_mut().skip(1) {
            tw.advance();
            *x = tw.mul_mod(*x);
        }
    } else {
        let mut tw = w;
        for x in data.iter_mut().skip(1) {
            *x = crate::arith::mul_mod(*x, tw, q);
            tw = crate::arith::mul_mod(tw, w, q);
        }
    }
}

/// Lane-batched Harvey CT butterfly: one twiddle `(w, w')` applied to `L`
/// independent even/odd leg pairs in lockstep — the arithmetic unit of the
/// structure-of-arrays NTT datapath (`ntt_ref::lanes`), where one twiddle
/// load amortizes over `L` residues.
///
/// Per lane this is exactly the scalar Harvey butterfly (same operation
/// sequence, bit-identical results): reduce the even leg `[0,4q) → [0,2q)`,
/// one lazy Shoup multiply of the odd leg, then the unreduced add and the
/// `+2q` subtract, both `< 4q`. The fixed-width loop carries no
/// cross-lane dependency, so the compiler unrolls and vectorizes it.
///
/// Inputs must be `< 4q`; the leg composition runs on the bound-typed ops
/// of [`crate::bound`], so the `[0, 4q)` stage invariant is checked by
/// the type system at compile time (and the values replayed by
/// `debug_assert` in debug builds).
#[inline(always)]
pub fn butterfly_lazy_lanes<const L: usize>(
    even: &mut [u64; L],
    odd: &mut [u64; L],
    w: u64,
    w_shoup: u64,
    q: u64,
) {
    use crate::bound::{self, Lazy};
    debug_assert!(w < q, "Shoup constants must be reduced");
    for l in 0..L {
        let u = bound::reduce_twice(Lazy::assume(even[l], q), q);
        let t = bound::mul_lazy(Lazy::assume(odd[l], q), w, w_shoup, q);
        even[l] = bound::add_lazy(u, t, q).get(); // < 4q
        odd[l] = bound::sub_lazy(u, t, q).get(); // < 4q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith;

    const Q_EDGE: u64 = (1 << 62) - 57; // modulus just under the lazy bound

    #[test]
    fn bound_is_exactly_two_to_the_62() {
        assert!(supports(LAZY_MODULUS_BOUND - 1));
        assert!(!supports(LAZY_MODULUS_BOUND));
        assert!(!supports(1));
        assert!(check_modulus(12289).is_ok());
        assert!(check_modulus(LAZY_MODULUS_BOUND).is_err());
    }

    #[test]
    fn mul_lazy_matches_widening_up_to_one_q() {
        for q in [7681u64, 12289, 8380417, 2_013_265_921, Q_EDGE] {
            let mut w = 1u64;
            for i in 0..200u64 {
                w = w.wrapping_mul(6364136223846793005).wrapping_add(i) % q;
                let ws = precompute(w, q);
                // Exercise x across the full lazy range [0, 4q).
                let x = (i.wrapping_mul(0x9E3779B97F4A7C15)) % (4 * q);
                let lazy = mul_lazy(x, w, ws, q);
                assert!(lazy < 2 * q, "q={q} w={w} x={x}");
                assert_eq!(lazy % q, mulmod_u128(x, w, q), "q={q} w={w} x={x}");
                assert_eq!(mul_mod(x, w, ws, q), mulmod_u128(x, w, q));
            }
        }
    }

    fn mulmod_u128(a: u64, b: u64, q: u64) -> u64 {
        ((a as u128 * b as u128) % q as u128) as u64
    }

    #[test]
    fn mul_accepts_any_u64_input() {
        let q = Q_EDGE;
        let w = q - 12345;
        let ws = precompute(w, q);
        for x in [0u64, 1, q, 2 * q - 1, 4 * q - 1, u64::MAX] {
            let r = mul_lazy(x, w, ws, q);
            assert!(r < 2 * q, "x={x}");
            assert_eq!(r % q, mulmod_u128(x, w, q), "x={x}");
        }
    }

    #[test]
    fn lazy_add_sub_stay_below_4q() {
        let q = 8380417u64;
        for (a, b) in [(0u64, 0u64), (q, q), (2 * q - 1, 2 * q - 1), (0, 2 * q - 1)] {
            let s = add_lazy(a, b, q);
            let d = sub_lazy(a, b, q);
            assert!(s < 4 * q);
            assert!(d < 4 * q);
            assert_eq!(s % q, arith::add_mod(a % q, b % q, q));
            assert_eq!(d % q, arith::sub_mod(a % q, b % q, q));
        }
    }

    #[test]
    fn normalize_fully_reduces() {
        let q = 12289u64;
        let mut v: Vec<u64> = (0..64).map(|i| (i * 787) % (4 * q)).collect();
        let expect: Vec<u64> = v.iter().map(|&x| x % q).collect();
        normalize(&mut v, q);
        assert_eq!(v, expect);
        assert!(v.iter().all(|&x| x < q));
    }

    #[test]
    fn precompute_of_one_is_floor_2_64_over_q() {
        let q = 12289u64;
        assert_eq!(precompute(1, q), (u128::pow(2, 64) / q as u128) as u64);
    }

    #[test]
    fn geometric_twiddle_tracks_exact_shoup_quotients() {
        for q in [7681u64, 12289, 8380417, 2_013_265_921, (1 << 32) - 267] {
            for w in [1u64, 2, 3, q / 3, q - 1, q - 2] {
                let w = w % q;
                let mut tw = GeometricTwiddle::new(w, q);
                let mut expect = 1u64;
                for step in 0..300 {
                    let (cur, cur_shoup) = tw.current();
                    assert_eq!(cur, expect, "q={q} w={w} step={step}");
                    assert_eq!(cur_shoup, precompute(expect, q), "q={q} w={w} step={step}");
                    let x = step * 0x9E37 % q;
                    assert_eq!(tw.mul_mod(x), mulmod_u128(x, expect, q));
                    assert!(tw.mul_lazy(x) < 2 * q);
                    expect = mulmod_u128(expect, w, q);
                    tw.advance();
                }
            }
        }
    }

    #[test]
    fn scale_geometric_matches_widening_for_narrow_and_wide_moduli() {
        // Narrow moduli ride the incremental tracker, Q_EDGE the widening
        // fallback — outputs must agree with the plain widening loop.
        for q in [12289u64, 8380417, 2_013_265_921, Q_EDGE] {
            for w in [1u64, 5, q - 1] {
                let mut data: Vec<u64> = (0..257u64).map(|i| i * 7919 % q).collect();
                let expect: Vec<u64> = data
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let tw = crate::arith::pow_mod(w, i as u64, q);
                        mulmod_u128(x, tw, q)
                    })
                    .collect();
                scale_geometric(&mut data, w, q);
                assert_eq!(data, expect, "q={q} w={w}");
            }
        }
    }

    #[test]
    fn lane_butterfly_is_bit_identical_to_scalar_legs() {
        for q in [7681u64, 12289, 8380417, Q_EDGE] {
            let mut state = q ^ 0x9E3779B97F4A7C15;
            let mut rnd = move |bound: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 1) % bound
            };
            for _ in 0..50 {
                let w = rnd(q);
                let ws = precompute(w, q);
                let mut even = [0u64; 8];
                let mut odd = [0u64; 8];
                for l in 0..8 {
                    even[l] = rnd(4 * q);
                    odd[l] = rnd(4 * q);
                }
                // Scalar reference: the exact leg sequence, one lane at a time.
                let mut expect_even = even;
                let mut expect_odd = odd;
                for l in 0..8 {
                    let u = reduce_twice(expect_even[l], q);
                    let t = mul_lazy(expect_odd[l], w, ws, q);
                    expect_even[l] = add_lazy(u, t, q);
                    expect_odd[l] = sub_lazy(u, t, q);
                }
                butterfly_lazy_lanes(&mut even, &mut odd, w, ws, q);
                assert_eq!(even, expect_even, "q={q}");
                assert_eq!(odd, expect_odd, "q={q}");
                assert!(even.iter().chain(&odd).all(|&x| x < 4 * q));
            }
        }
    }
}
