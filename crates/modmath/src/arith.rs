//! Plain widening modular arithmetic on `u64` operands.
//!
//! These are the "obviously correct" scalar routines used as ground truth by
//! the Montgomery and Shoup-lazy fast paths and by the hardware model's
//! functional checks. All functions require operands already reduced modulo `q` unless
//! noted otherwise, and all require `q >= 2`.

use crate::Error;

/// Adds two residues modulo `q`.
///
/// # Panics
///
/// Debug-panics if `a` or `b` is not reduced modulo `q`.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::add_mod(5, 6, 7), 4);
/// ```
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be reduced");
    let (s, overflow) = a.overflowing_add(b);
    if overflow || s >= q {
        s.wrapping_sub(q)
    } else {
        s
    }
}

/// Subtracts `b` from `a` modulo `q`.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::sub_mod(2, 5, 7), 4);
/// ```
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < q && b < q, "operands must be reduced");
    if a >= b {
        a - b
    } else {
        a.wrapping_sub(b).wrapping_add(q)
    }
}

/// Negates a residue modulo `q`.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::neg_mod(3, 7), 4);
/// assert_eq!(modmath::arith::neg_mod(0, 7), 0);
/// ```
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    debug_assert!(a < q, "operand must be reduced");
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// Multiplies two residues modulo `q` using 128-bit widening.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::mul_mod(6, 6, 7), 1);
/// ```
#[inline]
pub fn mul_mod(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(q >= 2);
    ((a as u128 * b as u128) % q as u128) as u64
}

/// Raises `base` to the power `exp` modulo `q` by square-and-multiply.
///
/// `base` need not be reduced. `pow_mod(0, 0, q) == 1` by the usual empty
/// product convention.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::pow_mod(3, 6, 7), 1); // 3 generates F_7*
/// ```
pub fn pow_mod(base: u64, mut exp: u64, q: u64) -> u64 {
    debug_assert!(q >= 2);
    let mut base = base % q;
    let mut acc: u64 = 1 % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, q);
        }
        base = mul_mod(base, base, q);
        exp >>= 1;
    }
    acc
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with
/// `a*x + b*y = g = gcd(a, b)`, where `x`/`y` are signed.
pub fn egcd(a: u64, b: u64) -> (u64, i128, i128) {
    let (mut r0, mut r1) = (a as i128, b as i128);
    let (mut s0, mut s1) = (1i128, 0i128);
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let qt = r0 / r1;
        (r0, r1) = (r1, r0 - qt * r1);
        (s0, s1) = (s1, s0 - qt * s1);
        (t0, t1) = (t1, t0 - qt * t1);
    }
    (r0 as u64, s0, t0)
}

/// Greatest common divisor.
///
/// # Example
///
/// ```
/// assert_eq!(modmath::arith::gcd(12, 18), 6);
/// ```
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Computes the multiplicative inverse of `a` modulo `q`.
///
/// # Errors
///
/// Returns [`Error::NotInvertible`] when `gcd(a, q) != 1` (including `a == 0`).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), modmath::Error> {
/// let inv = modmath::arith::inv_mod(3, 7)?;
/// assert_eq!(modmath::arith::mul_mod(3, inv, 7), 1);
/// # Ok(())
/// # }
/// ```
pub fn inv_mod(a: u64, q: u64) -> Result<u64, Error> {
    let a = a % q;
    let (g, x, _) = egcd(a, q);
    if g != 1 {
        return Err(Error::NotInvertible { value: a, q });
    }
    let qi = q as i128;
    Ok((x.rem_euclid(qi)) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_wraps_near_u64_max() {
        let q = u64::MAX - 58; // not prime, irrelevant here
        assert_eq!(add_mod(q - 1, q - 1, q), q - 2);
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(sub_mod(0, 1, 97), 96);
    }

    #[test]
    fn neg_of_zero_is_zero() {
        assert_eq!(neg_mod(0, 97), 0);
    }

    #[test]
    fn pow_matches_naive() {
        let q = 7681; // NTT-friendly prime
        for b in [0u64, 1, 2, 17, 7680] {
            let mut acc = 1u64;
            for e in 0..40u64 {
                assert_eq!(pow_mod(b, e, q), acc, "b={b} e={e}");
                acc = mul_mod(acc, b, q);
            }
        }
    }

    #[test]
    fn egcd_bezout_identity() {
        for (a, b) in [(240u64, 46u64), (0, 5), (5, 0), (1, 1), (97, 7681)] {
            let (g, x, y) = egcd(a, b);
            assert_eq!(g as i128, a as i128 * x + b as i128 * y);
            assert_eq!(g, gcd(a, b));
        }
    }

    #[test]
    fn inverse_of_noninvertible_is_error() {
        assert!(inv_mod(6, 12).is_err());
        assert!(inv_mod(0, 7).is_err());
    }

    #[test]
    fn inverse_roundtrip_small_prime() {
        let q = 12289;
        for a in 1..200u64 {
            let i = inv_mod(a, q).expect("prime modulus");
            assert_eq!(mul_mod(a, i, q), 1);
        }
    }
}
