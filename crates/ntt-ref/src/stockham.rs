//! Stockham self-sorting NTT.
//!
//! Stockham \[18\] avoids the bit-reversal permutation entirely by letting
//! each stage write to a permuted location in a second buffer. The paper's
//! §II.B observes that such self-sorting algorithms still imply `log N`
//! shuffling stages when mapped to a memory hierarchy, so recursive
//! Cooley–Tukey (which reuses rows) is preferred for PIM; this
//! implementation exists to make that comparison concrete and as an extra
//! cross-check of the golden model.

use crate::plan::NttPlan;
use modmath::arith::{add_mod, mul_mod, sub_mod};
use modmath::bound::{self, Lazy};
use modmath::shoup;

/// Forward cyclic NTT, natural order in and out, Stockham dataflow
/// (no explicit bit-reversal anywhere).
///
/// # Panics
///
/// Panics if `data.len() != plan.n()`.
pub fn forward(plan: &NttPlan, data: &mut [u64]) {
    transform(plan, data, false);
}

/// Inverse cyclic NTT, natural order in and out, including `N⁻¹` scaling.
///
/// # Panics
///
/// Panics if `data.len() != plan.n()`.
pub fn inverse(plan: &NttPlan, data: &mut [u64]) {
    transform(plan, data, true);
    let q = plan.modulus();
    let n_inv = plan.n_inv();
    if plan.uses_lazy() {
        let n_inv_shoup = plan.n_inv_shoup();
        for x in data.iter_mut() {
            *x = shoup::mul_mod(*x, n_inv, n_inv_shoup, q);
        }
    } else {
        for x in data.iter_mut() {
            *x = mul_mod(*x, n_inv, q);
        }
    }
}

fn transform(plan: &NttPlan, data: &mut [u64], inverse: bool) {
    let n = plan.n();
    assert_eq!(data.len(), n, "length mismatch");
    let q = plan.modulus();
    let lazy = plan.uses_lazy();
    let mut cur = data.to_vec();
    let mut next = vec![0u64; n];
    let mut l = n / 2; // butterfly distance in units of m
    let mut m = 1usize; // transform granule size
    while m < n {
        // Stage twiddle table: ω^(j·N/(2l)) for j in 0..l — the DIT table of
        // the stage whose group count is l.
        let s = l.trailing_zeros();
        let table = plan.dit_stage_twiddles(s, inverse);
        debug_assert_eq!(table.len(), l);
        if lazy {
            // GS-shaped butterfly on the lazy datapath: values stay in
            // [0, 2q) stage to stage (multiply happens after the subtract,
            // absorbing the [0, 4q) difference immediately) — Lazy<2> in,
            // Lazy<2> out, with the bound algebra checked at compile time.
            let table_shoup = plan.dit_stage_twiddles_shoup(s, inverse);
            for j in 0..l {
                let (w, ws) = (table[j], table_shoup[j]);
                for k in 0..m {
                    let a = Lazy::<2>::assume(cur[k + j * m], q);
                    let b = Lazy::<2>::assume(cur[k + j * m + l * m], q);
                    next[k + 2 * j * m] = bound::reduce_twice(bound::add_lazy(a, b, q), q).get();
                    next[k + 2 * j * m + m] =
                        bound::mul_lazy(bound::sub_lazy(a, b, q), w, ws, q).get();
                }
            }
        } else {
            for j in 0..l {
                let w = table[j];
                for k in 0..m {
                    let a = cur[k + j * m];
                    let b = cur[k + j * m + l * m];
                    next[k + 2 * j * m] = add_mod(a, b, q);
                    next[k + 2 * j * m + m] = mul_mod(sub_mod(a, b, q), w, q);
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
        l /= 2;
        m *= 2;
    }
    if lazy {
        // Single normalization pass: [0, 2q) → [0, q).
        for x in cur.iter_mut() {
            *x = shoup::reduce_once(*x, q);
        }
    }
    data.copy_from_slice(&cur);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use modmath::prime::NttField;

    fn plan(n: usize) -> NttPlan {
        NttPlan::new(NttField::with_bits(n, 24).expect("field exists"))
    }

    #[test]
    fn matches_naive() {
        for n in [2usize, 4, 8, 64, 512] {
            let p = plan(n);
            let q = p.modulus();
            let x: Vec<u64> = (0..n as u64).map(|i| (i * 13 + 1) % q).collect();
            let expect = naive::ntt(p.field(), &x);
            let mut got = x.clone();
            forward(&p, &mut got);
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn roundtrip() {
        let p = plan(256);
        let q = p.modulus();
        let x: Vec<u64> = (0..256u64).map(|i| (i * 29 + 4) % q).collect();
        let mut v = x.clone();
        forward(&p, &mut v);
        inverse(&p, &mut v);
        assert_eq!(v, x);
    }

    #[test]
    fn all_dataflows_agree() {
        let p = plan(128);
        let q = p.modulus();
        let x: Vec<u64> = (0..128u64).map(|i| (i * 5 + 23) % q).collect();
        let mut a = x.clone();
        p.forward(&mut a);
        let mut b = x;
        forward(&p, &mut b);
        assert_eq!(a, b);
    }
}
