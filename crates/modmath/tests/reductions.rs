//! The final reductions of both datapaths against their definitions:
//! Montgomery REDC, add and sub on the 32-bit CU datapath, and the Shoup
//! legs' `reduce_once`, `reduce_twice` and `normalize`. Each subtracts
//! `q` (or `2q`) without a branch — Montgomery's with a sign mask, the
//! Shoup legs with a `min` — so these pin the results at the corners
//! where the subtraction just fires or just does not, on small,
//! NTT-sized and boundary moduli.

use modmath::arith::{inv_mod, mul_mod};
use modmath::montgomery::Montgomery32;
use modmath::prime::NttField;
use modmath::shoup;
use proptest::prelude::*;

/// Moduli of the 32-bit datapath: the smallest it accepts, four NTT
/// primes, and the largest odd modulus under its `2³¹` bound. There the
/// Montgomery corrections' difference `x − q` reaches `−(2³¹ − 1)`, one
/// above `i32::MIN`: the least room the sign mask's top bit has.
const MONT_MODULI: [u32; 6] = [3, 7681, 12289, 8_380_417, 2_013_265_921, (1 << 31) - 1];

/// The Shoup moduli: the 32-bit ones and the largest NTT prime under the
/// lazy datapath's `2⁶²` bound.
fn shoup_moduli() -> Vec<u64> {
    let edge = NttField::with_bits(4096, 62).expect("a 62-bit NTT prime exists");
    MONT_MODULI
        .iter()
        .map(|&q| u64::from(q))
        .chain([edge.modulus()])
        .collect()
}

/// `t · R⁻¹ mod q` by widening arithmetic, `R = 2³²`.
fn redc_widening(t: u64, q: u32) -> u32 {
    let q = u64::from(q);
    let r_inv = inv_mod((1u64 << 32) % q, q).expect("R is invertible mod odd q");
    mul_mod(t % q, r_inv, q) as u32
}

fn check_redc(m: &Montgomery32, t: u64) -> Result<(), TestCaseError> {
    let q = m.modulus();
    let got = m.redc(t);
    prop_assert_eq!(got, m.redc_trace(t).result, "q={} t={}", q, t);
    prop_assert_eq!(got, redc_widening(t, q), "q={} t={}", q, t);
    Ok(())
}

proptest! {
    #[test]
    fn redc_matches_its_trace_and_widening(
        q in prop::sample::select(MONT_MODULI.to_vec()),
        t in any::<u64>(),
    ) {
        let m = Montgomery32::new(q).expect("odd q in range");
        check_redc(&m, t % (u64::from(q) << 32))?;
    }

    #[test]
    fn add_and_sub_match_widening(
        q in prop::sample::select(MONT_MODULI.to_vec()),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let m = Montgomery32::new(q).expect("odd q in range");
        let (a, b) = (a % q, b % q);
        let (a64, b64, q64) = (u64::from(a), u64::from(b), u64::from(q));
        prop_assert_eq!(u64::from(m.add(a, b)), (a64 + b64) % q64, "q={} {}+{}", q, a, b);
        prop_assert_eq!(u64::from(m.sub(a, b)), (a64 + q64 - b64) % q64, "q={} {}-{}", q, a, b);
    }
}

#[test]
fn redc_is_exact_at_the_ends_of_its_domain() {
    for q in MONT_MODULI {
        let m = Montgomery32::new(q).expect("odd q in range");
        for t in [0, (u64::from(q) << 32) - 1] {
            check_redc(&m, t).unwrap();
        }
    }
}

#[test]
fn add_and_sub_are_exact_on_the_corner_grid() {
    for q in MONT_MODULI {
        let m = Montgomery32::new(q).expect("odd q in range");
        let corners = [0, 1, q - 2, q - 1];
        let q = u64::from(q);
        for a in corners {
            for b in corners {
                let (a64, b64) = (u64::from(a), u64::from(b));
                assert_eq!(u64::from(m.add(a, b)), (a64 + b64) % q, "q={q} {a}+{b}");
                assert_eq!(u64::from(m.sub(a, b)), (a64 + q - b64) % q, "q={q} {a}-{b}");
            }
        }
    }
}

#[test]
fn shoup_reductions_are_exact_at_their_corners() {
    for q in shoup_moduli() {
        for x in [0, q - 1, q, 2 * q - 1] {
            assert_eq!(shoup::reduce_once(x, q), x % q, "q={q} x={x}");
        }
        for x in [0, 2 * q - 1, 2 * q, 4 * q - 1] {
            assert_eq!(shoup::reduce_twice(x, q), x % (2 * q), "q={q} x={x}");
        }
        let mut data = vec![0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q, 3 * q, 4 * q - 1];
        let expect: Vec<u64> = data.iter().map(|&x| x % q).collect();
        shoup::normalize(&mut data, q);
        assert_eq!(data, expect, "q={q}");
    }
}
