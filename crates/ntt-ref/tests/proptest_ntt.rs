//! Property-based tests of the reference transforms: roundtrips,
//! algebraic identities (linearity, convolution theorem, Parseval-style
//! evaluation), and cross-dataflow agreement on arbitrary inputs and
//! arbitrary valid `(N, q)` draws.

use modmath::arith::{add_mod, mul_mod, pow_mod};
use modmath::prime::NttField;
use ntt_ref::plan::NttPlan;
use proptest::prelude::*;

/// Draws a transform size and a compatible prime field, plus a seed.
fn field_strategy() -> impl Strategy<Value = (NttPlan, u64)> {
    (2u32..=9, 0u64..u64::MAX).prop_map(|(log_n, seed)| {
        let n = 1usize << log_n;
        let field = NttField::with_bits(n, 28).expect("field exists");
        (NttPlan::new(field), seed)
    })
}

fn random_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) % q
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn forward_inverse_roundtrip((plan, seed) in field_strategy()) {
        let x = random_poly(plan.n(), plan.modulus(), seed);
        let mut v = x.clone();
        plan.forward(&mut v);
        plan.inverse(&mut v);
        prop_assert_eq!(v, x);
    }

    #[test]
    fn negacyclic_roundtrip((plan, seed) in field_strategy()) {
        let x = random_poly(plan.n(), plan.modulus(), seed);
        let mut v = x.clone();
        plan.forward_negacyclic(&mut v);
        plan.inverse_negacyclic(&mut v);
        prop_assert_eq!(v, x);
    }

    #[test]
    fn linearity((plan, seed) in field_strategy(), c in 1u64..1000) {
        let q = plan.modulus();
        let n = plan.n();
        let a = random_poly(n, q, seed);
        let b = random_poly(n, q, seed ^ 0xdead_beef);
        let c = c % q;
        // NTT(c*a + b) = c*NTT(a) + NTT(b)
        let mut lhs: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| add_mod(mul_mod(c, x, q), y, q))
            .collect();
        plan.forward(&mut lhs);
        let mut ta = a;
        let mut tb = b;
        plan.forward(&mut ta);
        plan.forward(&mut tb);
        for k in 0..n {
            prop_assert_eq!(lhs[k], add_mod(mul_mod(c, ta[k], q), tb[k], q));
        }
    }

    #[test]
    fn first_output_is_coefficient_sum((plan, seed) in field_strategy()) {
        let q = plan.modulus();
        let x = random_poly(plan.n(), q, seed);
        let sum = x.iter().fold(0u64, |acc, &v| add_mod(acc, v, q));
        let mut v = x;
        plan.forward(&mut v);
        prop_assert_eq!(v[0], sum, "X[0] = Σ x[n]");
    }

    #[test]
    fn transform_is_evaluation_at_root_powers((plan, seed) in field_strategy(), k in 0usize..16) {
        let q = plan.modulus();
        let n = plan.n();
        let k = k % n;
        let x = random_poly(n, q, seed);
        // X[k] = x(ω^k) — evaluate by Horner.
        let wk = pow_mod(plan.field().root_of_unity(), k as u64, q);
        let horner = x.iter().rev().fold(0u64, |acc, &c| {
            add_mod(mul_mod(acc, wk, q), c, q)
        });
        let mut v = x;
        plan.forward(&mut v);
        prop_assert_eq!(v[k], horner);
    }

    #[test]
    fn convolution_theorem_cyclic((plan, seed) in field_strategy()) {
        let q = plan.modulus();
        let a = random_poly(plan.n(), q, seed);
        let b = random_poly(plan.n(), q, seed ^ 0x1234_5678);
        let fast = ntt_ref::poly::mul_cyclic(&plan, &a, &b);
        let slow = ntt_ref::naive::cyclic_convolution(&a, &b, q);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn convolution_theorem_negacyclic((plan, seed) in field_strategy()) {
        let q = plan.modulus();
        let a = random_poly(plan.n(), q, seed);
        let b = random_poly(plan.n(), q, seed ^ 0x8765_4321);
        let fast = ntt_ref::poly::mul_negacyclic(&plan, &a, &b);
        let slow = ntt_ref::naive::negacyclic_convolution(&a, &b, q);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn all_dataflows_agree((plan, seed) in field_strategy()) {
        let x = random_poly(plan.n(), plan.modulus(), seed);
        let mut dit = x.clone();
        plan.forward(&mut dit);
        let mut dif = x.clone();
        ntt_ref::iterative::forward_via_dif(&plan, &mut dif);
        let mut stockham = x.clone();
        ntt_ref::stockham::forward(&plan, &mut stockham);
        prop_assert_eq!(&dit, &dif);
        prop_assert_eq!(&dit, &stockham);
    }

    #[test]
    fn blocked_agrees_for_any_block((plan, seed) in field_strategy(), log_b in 1u32..8) {
        let block = (1usize << log_b).min(plan.n());
        let x = random_poly(plan.n(), plan.modulus(), seed);
        let mut plain = x.clone();
        plan.forward(&mut plain);
        let mut blocked = x;
        ntt_ref::blocked::forward_blocked(&plan, &mut blocked, block);
        prop_assert_eq!(plain, blocked);
    }
}
