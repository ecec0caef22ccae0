//! Property-based tests of the arithmetic substrate: every fast path must
//! agree with 128-bit widening ground truth on arbitrary inputs, and the
//! algebraic laws of `Z_q` must hold.

use modmath::arith::{add_mod, inv_mod, mul_mod, neg_mod, pow_mod, sub_mod};
use modmath::bitrev::{bit_reverse, bitrev_permute};
use modmath::montgomery::Montgomery32;
use proptest::prelude::*;

/// An arbitrary odd modulus in the 32-bit datapath range.
fn odd_q32() -> impl Strategy<Value = u32> {
    (3u32..(1 << 31)).prop_map(|q| q | 1)
}

proptest! {
    #[test]
    fn add_sub_inverse(q in 2u64..u64::MAX / 2, a in any::<u64>(), b in any::<u64>()) {
        let (a, b) = (a % q, b % q);
        prop_assert_eq!(sub_mod(add_mod(a, b, q), b, q), a);
        prop_assert_eq!(add_mod(sub_mod(a, b, q), b, q), a);
        prop_assert_eq!(add_mod(a, neg_mod(a, q), q), 0);
    }

    #[test]
    fn mul_commutative_associative(q in 2u64..(1 << 62), a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (a, b, c) = (a % q, b % q, c % q);
        prop_assert_eq!(mul_mod(a, b, q), mul_mod(b, a, q));
        prop_assert_eq!(
            mul_mod(mul_mod(a, b, q), c, q),
            mul_mod(a, mul_mod(b, c, q), q)
        );
        // Distributivity over addition.
        prop_assert_eq!(
            mul_mod(a, add_mod(b, c, q), q),
            add_mod(mul_mod(a, b, q), mul_mod(a, c, q), q)
        );
    }

    #[test]
    fn pow_laws(q in 2u64..(1 << 31), a in any::<u64>(), e1 in 0u64..1000, e2 in 0u64..1000) {
        let a = a % q;
        prop_assert_eq!(
            mul_mod(pow_mod(a, e1, q), pow_mod(a, e2, q), q),
            pow_mod(a, e1 + e2, q)
        );
    }

    #[test]
    fn inverse_multiplies_to_one(q in 3u64..(1 << 31), a in 1u64..u64::MAX) {
        let q = q | 1;
        let a = a % q;
        prop_assume!(a != 0 && modmath::arith::gcd(a, q) == 1);
        let inv = inv_mod(a, q).expect("coprime value is invertible");
        prop_assert_eq!(mul_mod(a, inv, q), 1);
    }

    #[test]
    fn montgomery32_matches_widening(q in odd_q32(), a in any::<u32>(), b in any::<u32>()) {
        let m = Montgomery32::new(q).expect("odd q in range");
        let (a, b) = (a % q, b % q);
        let got = m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
        prop_assert_eq!(got as u64, mul_mod(a as u64, b as u64, q as u64));
        prop_assert_eq!(m.add(a, b) as u64, add_mod(a as u64, b as u64, q as u64));
        prop_assert_eq!(m.sub(a, b) as u64, sub_mod(a as u64, b as u64, q as u64));
    }

    #[test]
    fn montgomery32_roundtrip(q in odd_q32(), a in any::<u32>()) {
        let m = Montgomery32::new(q).expect("odd q in range");
        let a = a % q;
        prop_assert_eq!(m.from_mont(m.to_mont(a)), a);
    }

    #[test]
    fn bitrev_involution(bits in 1u32..24, x in any::<u64>()) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
    }

    #[test]
    fn bitrev_permute_involution(log_n in 1u32..10, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let orig: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let mut v = orig.clone();
        bitrev_permute(&mut v);
        bitrev_permute(&mut v);
        prop_assert_eq!(v, orig);
    }

    #[test]
    fn redc_output_always_reduced(q in odd_q32(), t in any::<u64>()) {
        let m = Montgomery32::new(q).expect("odd q in range");
        // REDC contract: t < q * 2^32.
        let t = t % ((q as u64) << 32);
        prop_assert!(m.redc(t) < q);
    }
}
