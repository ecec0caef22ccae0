//! Montgomery modular multiplication on the paper's 32-bit datapath.
//!
//! [`Montgomery32`] models the paper's compute-unit datapath: 32-bit
//! coefficients, `R = 2^32`, a single multiply-high/multiply-low REDC step.
//! The PIM butterfly unit performs `ModMult` with exactly this algorithm
//! (the paper cites Montgomery's 1985 method for supporting *arbitrary*
//! odd moduli, unlike the fixed-modulus comparators). Software transforms
//! do not use it: they run the Shoup-lazy datapath ([`crate::shoup`]).
//!
//! Values stay in Montgomery form (`x · R mod q`) between operations;
//! [`Montgomery32::redc_trace`] exposes the intermediate values of one REDC
//! step so hardware-oriented tests can check bit-width claims.

use crate::arith;
use crate::Error;

/// Montgomery context for odd moduli `q < 2^31` with `R = 2^32`.
///
/// The `q < 2^31` bound guarantees `a + b` and the REDC accumulator never
/// overflow their registers, mirroring the headroom a hardware multiplier
/// would reserve; every 30/31-bit NTT prime used in FHE fits.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), modmath::Error> {
/// let m = modmath::montgomery::Montgomery32::new(7681)?;
/// let a = m.to_mont(1234);
/// let b = m.to_mont(5678);
/// let p = m.mul(a, b);
/// assert_eq!(m.from_mont(p), (1234u64 * 5678 % 7681) as u32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery32 {
    q: u32,
    /// `-q^{-1} mod 2^32`.
    q_inv_neg: u32,
    /// `R^2 mod q`, used to enter Montgomery form.
    r2: u32,
    /// `R mod q` (Montgomery form of 1).
    one: u32,
}

/// Intermediate values of a single 32-bit REDC step, for datapath tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedcTrace {
    /// The 64-bit product `t = a * b` fed into REDC.
    pub t: u64,
    /// `m = (t mod R) * (-q^{-1}) mod R`.
    pub m: u32,
    /// The pre-correction sum `(t + m*q) / R`, which fits in 33 bits.
    pub u: u64,
    /// Whether the final conditional subtraction of `q` fired.
    pub subtracted: bool,
    /// The reduced result.
    pub result: u32,
}

impl Montgomery32 {
    /// Creates a context for an odd modulus `2 < q < 2^31`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadModulus`] for even, trivial, or oversized moduli.
    pub fn new(q: u32) -> Result<Self, Error> {
        if q < 3 {
            return Err(Error::BadModulus {
                q: q as u64,
                reason: "modulus must be at least 3",
            });
        }
        if q % 2 == 0 {
            return Err(Error::BadModulus {
                q: q as u64,
                reason: "Montgomery reduction requires an odd modulus",
            });
        }
        if q >= 1 << 31 {
            return Err(Error::BadModulus {
                q: q as u64,
                reason: "modulus must fit in 31 bits for the 32-bit datapath",
            });
        }
        // Newton iteration for q^{-1} mod 2^32: five iterations double the
        // number of correct low bits from 5 to 32.
        let mut inv: u32 = q; // correct to 3 bits for odd q
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(q.wrapping_mul(inv)));
        }
        debug_assert_eq!(q.wrapping_mul(inv), 1);
        let q_inv_neg = inv.wrapping_neg();
        let r = (1u64 << 32) % q as u64;
        let r2 = (r * r % q as u64) as u32;
        Ok(Self {
            q,
            q_inv_neg,
            r2,
            one: r as u32,
        })
    }

    /// The modulus `q`.
    #[inline]
    pub fn modulus(&self) -> u32 {
        self.q
    }

    /// Montgomery form of 1 (i.e. `R mod q`).
    #[inline]
    pub fn one(&self) -> u32 {
        self.one
    }

    /// `-q^{-1} mod 2^32`, the constant a hardware REDC unit stores.
    #[inline]
    pub fn q_inv_neg(&self) -> u32 {
        self.q_inv_neg
    }

    /// REDC: reduces a 64-bit `t < q * 2^32` to `t * R^{-1} mod q`.
    #[inline]
    pub fn redc(&self, t: u64) -> u32 {
        let m = (t as u32).wrapping_mul(self.q_inv_neg);
        let u = (t + m as u64 * self.q as u64) >> 32;
        let u = u as u32; // fits: u < 2q < 2^32
        if u >= self.q {
            u - self.q
        } else {
            u
        }
    }

    /// REDC with all intermediate values exposed, for datapath tests.
    pub fn redc_trace(&self, t: u64) -> RedcTrace {
        let m = (t as u32).wrapping_mul(self.q_inv_neg);
        let u = (t + m as u64 * self.q as u64) >> 32;
        let subtracted = u >= self.q as u64;
        let result = if subtracted { u - self.q as u64 } else { u } as u32;
        RedcTrace {
            t,
            m,
            u,
            subtracted,
            result,
        }
    }

    /// Converts a plain residue into Montgomery form.
    #[inline]
    pub fn to_mont(&self, a: u32) -> u32 {
        debug_assert!(a < self.q);
        self.redc(a as u64 * self.r2 as u64)
    }

    /// Converts a Montgomery-form value back to a plain residue.
    #[inline]
    pub fn from_mont(&self, a: u32) -> u32 {
        self.redc(a as u64)
    }

    /// Multiplies two Montgomery-form values; result stays in Montgomery form.
    #[inline]
    pub fn mul(&self, a: u32, b: u32) -> u32 {
        self.redc(a as u64 * b as u64)
    }

    /// Adds two residues (works identically in either form).
    #[inline]
    pub fn add(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b; // no overflow: q < 2^31
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Subtracts two residues (works identically in either form).
    #[inline]
    pub fn sub(&self, a: u32, b: u32) -> u32 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Raises a Montgomery-form base to a plain exponent.
    pub fn pow(&self, base_mont: u32, mut exp: u64) -> u32 {
        let mut base = base_mont;
        let mut acc = self.one;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Inverse of a Montgomery-form value, staying in Montgomery form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInvertible`] when the value is zero (for prime
    /// `q` every non-zero value is invertible).
    pub fn inv(&self, a_mont: u32) -> Result<u32, Error> {
        let plain = self.from_mont(a_mont);
        let inv = arith::inv_mod(plain as u64, self.q as u64)? as u32;
        Ok(self.to_mont(inv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q32: u32 = 0x7f00_0001; // 2130706433 = 127 * 2^24 + 1, NTT prime

    #[test]
    fn rejects_bad_moduli() {
        assert!(Montgomery32::new(0).is_err());
        assert!(Montgomery32::new(1).is_err());
        assert!(Montgomery32::new(2).is_err());
        assert!(Montgomery32::new(10).is_err());
        assert!(Montgomery32::new(1 << 31).is_err());
    }

    #[test]
    fn mont32_roundtrip_and_mul() {
        let m = Montgomery32::new(Q32).unwrap();
        let vals = [0u32, 1, 2, Q32 - 1, 12345, 0x3fff_ffff];
        for &a in &vals {
            assert_eq!(m.from_mont(m.to_mont(a)), a);
            for &b in &vals {
                let expect = (a as u64 * b as u64 % Q32 as u64) as u32;
                let got = m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
                assert_eq!(got, expect, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mont32_redc_trace_bitwidths() {
        // The pre-correction accumulator must fit in 33 bits for every input
        // the datapath can produce — the hardware claim behind the 31-bit
        // modulus bound.
        let m = Montgomery32::new(Q32).unwrap();
        for &(a, b) in &[(Q32 - 1, Q32 - 1), (1, 1), (Q32 - 1, 1), (77, 1 << 30)] {
            let tr = m.redc_trace(a as u64 * b as u64);
            assert!(tr.u < 1u64 << 33, "accumulator overflow for ({a},{b})");
            assert_eq!(tr.result, m.redc(a as u64 * b as u64));
        }
    }

    #[test]
    fn mont32_pow_and_inv() {
        let m = Montgomery32::new(7681).unwrap();
        let g = m.to_mont(17);
        assert_eq!(m.from_mont(m.pow(g, 7680)), 1, "Fermat");
        let gi = m.inv(g).unwrap();
        assert_eq!(m.from_mont(m.mul(g, gi)), 1);
        assert!(m.inv(0).is_err());
    }

    #[test]
    fn add_sub_consistency() {
        let m = Montgomery32::new(Q32).unwrap();
        for a in [0u32, 1, Q32 - 1, Q32 / 2] {
            for b in [0u32, 1, Q32 - 1, Q32 / 3] {
                assert_eq!(m.sub(m.add(a, b), b), a);
            }
        }
    }
}
