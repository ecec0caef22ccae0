//! Bound-typed lazy residues: the `[0, B·q)` magnitude contract of the
//! Shoup/Harvey datapath, moved into the type system.
//!
//! Every kernel in the workspace that runs on [`crate::shoup`] rests on
//! one fragile invariant: between butterflies, values stay inside
//! `[0, 2q)` / `[0, 4q)`, and `q <` [`crate::shoup::LAZY_MODULUS_BOUND`]
//! `= 2⁶²` keeps the worst case `4q` representable in a `u64` so the
//! unreduced adds never wrap. Before this module the invariant lived only
//! in `debug_assert`s and proptest replay; here it becomes part of each
//! value's *type*. [`Lazy<B>`] is a `#[repr(transparent)]` newtype over
//! `u64` meaning "this residue is `< B·q`", and the typed ops compose the
//! bounds statically:
//!
//! | op | in bounds | out bound |
//! |---|---|---|
//! | [`add_lazy`] | `Lazy<2> + Lazy<2>` | `Lazy<4>` |
//! | [`sub_lazy`] | `Lazy<2> − Lazy<2>` (plus `2q`) | `Lazy<4>` |
//! | [`mul_lazy`] | `Lazy<4>` (any lazy value) | `Lazy<2>` |
//! | [`reduce_twice`] | `Lazy<4>` | `Lazy<2>` |
//! | [`reduce_once`] | `Lazy<2>` | `Lazy<1>` |
//! | [`normalize`] | `Lazy<4>` | `Lazy<1>` |
//!
//! A composition whose worst case exceeds the headroom is rejected at
//! compile time, in one of two ways:
//!
//! * **Signature mismatch** — the ops are monomorphic over the bounds
//!   above, so feeding a `Lazy<4>` where a `Lazy<2>` is required (e.g.
//!   chaining two `add_lazy` calls without a reduction in between) is an
//!   ordinary type error:
//!
//! ```compile_fail
//! use modmath::bound::{add_lazy, Lazy};
//! let q = 12289u64;
//! let a: Lazy<4> = add_lazy(Lazy::reduced(5, q).relax(), Lazy::reduced(6, q).relax(), q);
//! let b: Lazy<4> = add_lazy(Lazy::reduced(7, q).relax(), Lazy::reduced(8, q).relax(), q);
//! // A 4q + 4q sum could reach 8q > u64::MAX for q near 2^62: rejected.
//! let c = add_lazy(a, b, q);
//! ```
//!
//! * **Const assertion** — the generic escape hatches ([`Lazy::assume`],
//!   [`Lazy::relax`]) carry `const` assertions that reject any bound `B`
//!   above [`MAX_BOUND`]` = 4`, the largest multiple of `q` guaranteed to
//!   fit a `u64` under the `q < 2⁶²` capability gate:
//!
//! ```compile_fail
//! use modmath::bound::Lazy;
//! let q = 12289u64;
//! // Lazy<5> would mean "< 5q", which overflows u64 for q near 2^62:
//! // the const assertion inside `relax` fails to evaluate.
//! let x = Lazy::reduced(1, q).relax::<5>();
//! ```
//!
//! All ops are `#[inline(always)]` wrappers over the raw [`crate::shoup`]
//! primitives: zero runtime cost in release builds, bit-identical
//! outputs, and the same `debug_assert` replay in debug builds. The raw
//! `u64` legs remain public for the proptest harnesses that deliberately
//! exercise out-of-contract values.

use crate::shoup;

/// Largest admissible bound multiplier: `B ≤ 4` keeps `B·q < 2⁶⁴` for
/// every modulus inside the lazy capability gate (`q < 2⁶²`).
pub const MAX_BOUND: u32 = 4;

/// A residue known to lie in `[0, B·q)` for the modulus it was created
/// with. `B = 1` is fully reduced; `B = 2` is the output range of a lazy
/// Shoup multiply; `B = 4` is the inter-stage range of the Harvey CT
/// butterfly.
///
/// `#[repr(transparent)]` over `u64`: a `Lazy<B>` is free to construct
/// and deconstruct, and slices of raw residues are viewed through it one
/// element at a time inside the kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct Lazy<const B: u32>(u64);

impl<const B: u32> Lazy<B> {
    /// Wraps a raw value the caller asserts is `< B·q`. The bound `B`
    /// itself is checked at compile time against [`MAX_BOUND`]; the value
    /// is checked in debug builds only (release: a free transmute).
    #[inline(always)]
    #[must_use]
    pub fn assume(x: u64, q: u64) -> Self {
        const {
            assert!(
                B >= 1 && B <= MAX_BOUND,
                "bound exceeds the q < 2^62 lazy headroom (B*q must fit u64)"
            )
        }
        debug_assert!(
            (x as u128) < B as u128 * q as u128,
            "value out of its typed bound"
        );
        Self(x)
    }

    /// The raw residue value.
    #[inline(always)]
    #[must_use]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Weakens the bound: a value `< B·q` is also `< C·q` for any
    /// `C ≥ B`. The target bound is checked at compile time against both
    /// the ordering and the [`MAX_BOUND`] headroom.
    #[inline(always)]
    #[must_use]
    pub fn relax<const C: u32>(self) -> Lazy<C> {
        const {
            assert!(C >= B, "relax cannot tighten a bound");
            assert!(
                C <= MAX_BOUND,
                "bound exceeds the q < 2^62 lazy headroom (C*q must fit u64)"
            )
        }
        Lazy(self.0)
    }
}

impl Lazy<1> {
    /// Wraps a fully reduced residue (`x < q`).
    #[inline(always)]
    #[must_use]
    pub fn reduced(x: u64, q: u64) -> Self {
        debug_assert!(x < q, "value is not fully reduced");
        Self(x)
    }
}

/// Lazy butterfly addition, `Lazy<2> + Lazy<2> → Lazy<4>`: no reduction,
/// the sum of two `< 2q` values is `< 4q` and cannot wrap under the
/// `q < 2⁶²` gate.
#[inline(always)]
#[must_use]
pub fn add_lazy(a: Lazy<2>, b: Lazy<2>, q: u64) -> Lazy<4> {
    Lazy::assume(shoup::add_lazy(a.get(), b.get(), q), q)
}

/// Lazy butterfly subtraction, `Lazy<2> − Lazy<2> → Lazy<4>`: computes
/// `a − b + 2q`, non-negative without a branch and `< 4q`.
#[inline(always)]
#[must_use]
pub fn sub_lazy(a: Lazy<2>, b: Lazy<2>, q: u64) -> Lazy<4> {
    Lazy::assume(shoup::sub_lazy(a.get(), b.get(), q), q)
}

/// Lazy Shoup constant multiply, `Lazy<4> → Lazy<2>`: accepts any lazy
/// value (the raw primitive tolerates any `u64`; the typed datapath's
/// worst case is the `[0, 4q)` inter-stage range) and returns the product
/// with at most one redundant `q`.
#[inline(always)]
#[must_use]
pub fn mul_lazy(x: Lazy<4>, w: u64, w_shoup: u64, q: u64) -> Lazy<2> {
    Lazy::assume(shoup::mul_lazy(x.get(), w, w_shoup, q), q)
}

/// One conditional subtraction of `2q`, `Lazy<4> → Lazy<2>`.
#[inline(always)]
#[must_use]
pub fn reduce_twice(x: Lazy<4>, q: u64) -> Lazy<2> {
    Lazy::assume(shoup::reduce_twice(x.get(), q), q)
}

/// One conditional subtraction of `q`, `Lazy<2> → Lazy<1>`.
#[inline(always)]
#[must_use]
pub fn reduce_once(x: Lazy<2>, q: u64) -> Lazy<1> {
    Lazy::reduced(shoup::reduce_once(x.get(), q), q)
}

/// Full normalization, `Lazy<4> → Lazy<1>`: the per-element step of the
/// final pass of a lazy transform (two conditional subtracts), typed.
#[inline(always)]
#[must_use]
pub fn normalize(x: Lazy<4>, q: u64) -> Lazy<1> {
    reduce_once(reduce_twice(x, q), q)
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q_EDGE: u64 = (1 << 62) - 57; // largest prime under the lazy bound

    #[test]
    fn ops_match_raw_primitives_bit_for_bit() {
        for q in [12289u64, 8380417, Q_EDGE] {
            let w = q - 1234;
            let ws = shoup::precompute(w, q);
            let mut state = q ^ 0x9E3779B97F4A7C15;
            for _ in 0..200 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a2 = Lazy::<2>::assume(state % (2 * q), q);
                let b2 = Lazy::<2>::assume(state.rotate_left(17) % (2 * q), q);
                let x4 = Lazy::<4>::assume(state.rotate_left(31) % (4 * q), q);
                assert_eq!(
                    add_lazy(a2, b2, q).get(),
                    shoup::add_lazy(a2.get(), b2.get(), q)
                );
                assert_eq!(
                    sub_lazy(a2, b2, q).get(),
                    shoup::sub_lazy(a2.get(), b2.get(), q)
                );
                assert_eq!(
                    mul_lazy(x4, w, ws, q).get(),
                    shoup::mul_lazy(x4.get(), w, ws, q)
                );
                assert_eq!(reduce_twice(x4, q).get(), shoup::reduce_twice(x4.get(), q));
                assert_eq!(reduce_once(a2, q).get(), shoup::reduce_once(a2.get(), q));
                assert_eq!(normalize(x4, q).get(), x4.get() % q);
            }
        }
    }

    #[test]
    fn relax_widens_without_changing_the_value() {
        let q = 12289u64;
        let x = Lazy::reduced(q - 1, q);
        assert_eq!(x.relax::<2>().get(), q - 1);
        assert_eq!(x.relax::<4>().get(), q - 1);
        // Bound-preserving relax is also fine.
        assert_eq!(x.relax::<1>().get(), q - 1);
    }

    #[test]
    fn typed_butterfly_reproduces_the_scalar_harvey_sequence() {
        // The exact CT leg composition every kernel uses, end to end.
        let q = 8380417u64;
        let w = 12345u64;
        let ws = shoup::precompute(w, q);
        for (e, o) in [(0u64, 0u64), (4 * q - 1, 4 * q - 1), (q, 3 * q + 7)] {
            let u = reduce_twice(Lazy::assume(e, q), q);
            let t = mul_lazy(Lazy::assume(o, q), w, ws, q);
            let even = add_lazy(u, t, q);
            let odd = sub_lazy(u, t, q);
            let ru = shoup::reduce_twice(e, q);
            let rt = shoup::mul_lazy(o, w, ws, q);
            assert_eq!(even.get(), shoup::add_lazy(ru, rt, q));
            assert_eq!(odd.get(), shoup::sub_lazy(ru, rt, q));
        }
    }

    #[test]
    #[should_panic(expected = "typed bound")]
    #[cfg(debug_assertions)]
    fn assume_checks_the_bound_in_debug_builds() {
        let q = 12289u64;
        let _ = Lazy::<2>::assume(2 * q, q);
    }
}
