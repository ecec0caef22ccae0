//! Lane-batched structure-of-arrays NTT datapath: [`LANE_WIDTH`]
//! polynomials per butterfly.
//!
//! The scalar Shoup-lazy kernel loads each twiddle pair `(w, w')` once per
//! butterfly and multiplies it against *one* residue. Service traffic is
//! the opposite shape — many same-`(n, q)` transforms per micro-batch — so
//! this module transposes a group of [`LANE_WIDTH`] polynomials into a
//! structure-of-arrays buffer (`soa[row · L + lane]`, one cache line per
//! row) and runs every butterfly on all `L` lanes in lockstep
//! ([`modmath::shoup::butterfly_lazy_lanes`]). Each twiddle load then
//! amortizes over `L` residues, the per-stage loop overhead is paid once
//! per group instead of once per polynomial, and the bit-reversal
//! permutation is fused into the pack copy instead of a separate
//! random-swap pass.
//!
//! Outputs of the whole-batch transforms are bit-identical to the scalar
//! entry points ([`NttPlan::forward`] and friends) — the proptests in
//! `tests/proptest_lanes.rs` pin this. Per lane the kernel performs
//! *exactly* the scalar operation sequence of
//! [`crate::iterative::dit_from_bitrev_lazy`], so even the unnormalized
//! lazy legs match the scalar kernel's bit for bit.
//!
//! Two levels of API:
//!
//! * **Raw SoA legs** — [`forward_batch_lazy`] / [`inverse_batch_lazy`]
//!   run the `[0, 4q)` lazy butterfly stages over a packed SoA buffer
//!   (callers own pack/normalize/unpack). Like the scalar lazy kernels
//!   they panic when the modulus exceeds the Shoup lazy bound.
//! * **Whole-batch transforms** — [`forward_batch`], [`inverse_batch`],
//!   [`forward_negacyclic_batch`], [`inverse_negacyclic_batch`] and
//!   [`negacyclic_polymul_batch`] take a slice of polynomials, run full
//!   lane groups through a thread-local SoA scratch, finish the ragged
//!   tail (`batch % L ≠ 0`) with scalar calls, and transparently fall
//!   back to the scalar path for non-lazy (widening) plans. Each returns
//!   how many polynomials rode the lane kernel so callers can report
//!   batched coverage.
//!
//! For `N ≥ 4096` the SoA working set (`N · L · 8` bytes ≥ 256 KiB)
//! exceeds L1, so the stage driver reuses the row-centric split of
//! [`crate::blocked`]: all stages whose butterfly groups fit inside a
//! 512-row block (`BLOCK_ROWS`, 32 KiB of SoA data) run back to back per
//! block before the cross-block stages sweep the full buffer.
//!
//! The butterfly is one portable fixed-width loop in plain Rust; the
//! compiler unrolls and vectorizes it for the build's target.

use core::cell::RefCell;

use modmath::arith;
use modmath::bitrev::bit_reverse;
use modmath::bound::{self, Lazy};
use modmath::shoup;

use crate::plan::NttPlan;
use crate::poly;

/// Number of polynomials processed in lockstep per butterfly — one SoA
/// row is exactly one 64-byte cache line of `u64` residues.
pub const LANE_WIDTH: usize = 8;

/// Rows per cache block of the blocked stage schedule: `512 · L · 8` bytes
/// = 32 KiB of SoA data, sized to a typical L1 data cache.
const BLOCK_ROWS: usize = 512;

/// Minimum transform length that takes the blocked stage schedule (below
/// this the whole SoA buffer fits in L1/L2 and blocking only adds
/// bookkeeping).
const BLOCKED_MIN_N: usize = 4096;

thread_local! {
    // Shared SoA scratch buffers: one per thread, grown to the largest
    // `n · L` seen, so repeated service batches pay no allocation. Two
    // buffers because a polymul holds both operands in SoA form at once.
    static SOA_A: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static SOA_B: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The lane kernel's name in reports and benchmark rows: `"lanes8"`, the
/// lane width it runs.
#[must_use]
pub fn kernel_label() -> &'static str {
    "lanes8"
}

/// Forward DIT butterfly stages over a packed SoA buffer (rows already in
/// bit-reversed order, e.g. from [`pack_bitrev`]); the lane-batched
/// analogue of [`crate::iterative::dit_from_bitrev_lazy`]. Inputs must be
/// `< 4q`; outputs are **unnormalized** in `[0, 4q)` — run
/// [`modmath::shoup::normalize`] over the buffer to return to `[0, q)`.
///
/// # Panics
///
/// Panics if `soa.len() != plan.n() * LANE_WIDTH` or the plan is not on
/// the lazy datapath ([`NttPlan::uses_lazy`]).
pub fn forward_batch_lazy(plan: &NttPlan, soa: &mut [u64]) {
    assert_eq!(soa.len(), plan.n() * LANE_WIDTH, "SoA length mismatch");
    assert!(
        plan.uses_lazy(),
        "modulus exceeds the Shoup lazy bound (q < 2^62)"
    );
    dit_stages_soa(plan, soa, false);
}

/// Inverse DIT butterfly stages over a packed SoA buffer; same contract
/// as [`forward_batch_lazy`] (no `N⁻¹` scaling is applied — callers fold
/// it into the unpack pass exactly like [`NttPlan::inverse`] does).
///
/// # Panics
///
/// Panics if `soa.len() != plan.n() * LANE_WIDTH` or the plan is not on
/// the lazy datapath.
pub fn inverse_batch_lazy(plan: &NttPlan, soa: &mut [u64]) {
    assert_eq!(soa.len(), plan.n() * LANE_WIDTH, "SoA length mismatch");
    assert!(
        plan.uses_lazy(),
        "modulus exceeds the Shoup lazy bound (q < 2^62)"
    );
    dit_stages_soa(plan, soa, true);
}

/// Runs all butterfly stages. Small transforms sweep the full buffer; at
/// [`BLOCKED_MIN_N`] and above the first `log2(BLOCK_ROWS)` stages run
/// block-local (their butterfly groups span ≤ [`BLOCK_ROWS`] rows, so each
/// 32 KiB block is finished while still cache-hot) before the cross-block
/// stages sweep the full buffer. Its two callers, [`forward_batch_lazy`]
/// and [`inverse_batch_lazy`], check the buffer length and the lazy bound.
fn dit_stages_soa(plan: &NttPlan, soa: &mut [u64], inverse: bool) {
    let log_n = plan.log_n();
    if plan.n() >= BLOCKED_MIN_N {
        let local = BLOCK_ROWS.trailing_zeros().min(log_n);
        for block in soa.chunks_exact_mut(BLOCK_ROWS * LANE_WIDTH) {
            run_stage_range(plan, block, (0, local), inverse);
        }
        run_stage_range(plan, soa, (local, log_n), inverse);
    } else {
        run_stage_range(plan, soa, (0, log_n), inverse);
    }
}

/// Runs the butterfly stages `stages.0..stages.1` over one row range,
/// fusing consecutive stages pairwise (each fused sweep loads and stores
/// every row once instead of twice); a trailing odd stage runs single.
fn run_stage_range(plan: &NttPlan, region: &mut [u64], stages: (u32, u32), inverse: bool) {
    let q = plan.modulus();
    let mut s = stages.0;
    while s + 1 < stages.1 {
        stage_pair_pass(
            region,
            plan.dit_stage_twiddle_pairs(s, inverse),
            plan.dit_stage_twiddle_pairs(s + 1, inverse),
            q,
        );
        s += 2;
    }
    if s < stages.1 {
        stage_pass(region, plan.dit_stage_twiddle_pairs(s, inverse), q);
    }
}

/// One Harvey lazy butterfly on a single lane element, returned as values
/// so the fused two-stage pass can chain butterflies in registers: exactly
/// the scalar leg sequence of [`shoup::butterfly_lazy_lanes`]. The
/// composition runs on the bound-typed ops of [`modmath::bound`]
/// (`Lazy<4>` legs in and out), so the stage invariant is enforced by the
/// type system.
#[inline(always)]
fn butterfly_one(e: Lazy<4>, o: Lazy<4>, w: u64, ws: u64, q: u64) -> (Lazy<4>, Lazy<4>) {
    let u = bound::reduce_twice(e, q);
    let t = bound::mul_lazy(o, w, ws, q);
    (bound::add_lazy(u, t, q), bound::sub_lazy(u, t, q))
}

/// Two consecutive butterfly stages fused into one sweep. `lo` is stage
/// `s`'s interleaved `(w, w')` table (`m = lo.len() / 2`), `hi` stage
/// `s+1`'s (`2m` pairs). A supergroup of `4m` rows `[Q0|Q1|Q2|Q3]` holds
/// two stage-`s` groups (`Q0/Q1` and `Q2/Q3`, both using `lo[j]`) feeding
/// one stage-`s+1` group (pairs `(Q0, Q2)[j]` with `hi[j]` and
/// `(Q1, Q3)[j]` with `hi[j+m]`). Chaining the two stages in registers
/// performs the identical per-element operation sequence as two separate
/// passes — bit-identical results with half the loads/stores.
fn stage_pair_pass(soa: &mut [u64], lo: &[u64], hi: &[u64], q: u64) {
    let m = lo.len() / 2;
    debug_assert_eq!(hi.len(), 2 * lo.len(), "upper stage has 2m twiddles");
    let band = m * LANE_WIDTH;
    for group in soa.chunks_exact_mut(4 * band) {
        let (q01, q23) = group.split_at_mut(2 * band);
        let (q0, q1) = q01.split_at_mut(band);
        let (q2, q3) = q23.split_at_mut(band);
        let rows = q0
            .chunks_exact_mut(LANE_WIDTH)
            .zip(q1.chunks_exact_mut(LANE_WIDTH))
            .zip(
                q2.chunks_exact_mut(LANE_WIDTH)
                    .zip(q3.chunks_exact_mut(LANE_WIDTH)),
            );
        for (j, ((a, b), (c, d))) in rows.enumerate() {
            let (wl, wls) = (lo[2 * j], lo[2 * j + 1]);
            let (wa, was) = (hi[2 * j], hi[2 * j + 1]);
            let (wb, wbs) = (hi[2 * (j + m)], hi[2 * (j + m) + 1]);
            let a: &mut [u64; LANE_WIDTH] = a.try_into().expect("lane-width row");
            let b: &mut [u64; LANE_WIDTH] = b.try_into().expect("lane-width row");
            let c: &mut [u64; LANE_WIDTH] = c.try_into().expect("lane-width row");
            let d: &mut [u64; LANE_WIDTH] = d.try_into().expect("lane-width row");
            for i in 0..LANE_WIDTH {
                let (x0, x1) =
                    butterfly_one(Lazy::assume(a[i], q), Lazy::assume(b[i], q), wl, wls, q);
                let (x2, x3) =
                    butterfly_one(Lazy::assume(c[i], q), Lazy::assume(d[i], q), wl, wls, q);
                let (y0, y2) = butterfly_one(x0, x2, wa, was, q);
                let (y1, y3) = butterfly_one(x1, x3, wb, wbs, q);
                a[i] = y0.get();
                b[i] = y1.get();
                c[i] = y2.get();
                d[i] = y3.get();
            }
        }
    }
}

/// One butterfly stage over a row range. `pairs` is the stage's
/// interleaved `(w, w')` table ([`NttPlan::dit_stage_twiddle_pairs`]); the
/// stage's butterfly span `m` is `pairs.len() / 2`, and the range must
/// hold a whole number of `2m`-row butterfly groups (always true for full
/// buffers and for the block-local ranges of [`dit_stages_soa`]).
fn stage_pass(soa: &mut [u64], pairs: &[u64], q: u64) {
    if let [w, ws] = *pairs {
        // Stage 0 (m = 1): one butterfly per group, so the per-group
        // band-splitting below would dominate — hoist the single twiddle
        // and walk adjacent row pairs directly.
        for group in soa.chunks_exact_mut(2 * LANE_WIDTH) {
            let (e, o) = group.split_at_mut(LANE_WIDTH);
            let e: &mut [u64; LANE_WIDTH] = e.try_into().expect("lane-width row");
            let o: &mut [u64; LANE_WIDTH] = o.try_into().expect("lane-width row");
            shoup::butterfly_lazy_lanes(e, o, w, ws, q);
        }
        return;
    }
    let band = (pairs.len() / 2) * LANE_WIDTH;
    for group in soa.chunks_exact_mut(2 * band) {
        let (even, odd) = group.split_at_mut(band);
        for (pair, (e, o)) in pairs.chunks_exact(2).zip(
            even.chunks_exact_mut(LANE_WIDTH)
                .zip(odd.chunks_exact_mut(LANE_WIDTH)),
        ) {
            let e: &mut [u64; LANE_WIDTH] = e.try_into().expect("lane-width row");
            let o: &mut [u64; LANE_WIDTH] = o.try_into().expect("lane-width row");
            shoup::butterfly_lazy_lanes(e, o, pair[0], pair[1], q);
        }
    }
}

/// Transposes a group of [`LANE_WIDTH`] equal-length polynomials into the
/// SoA buffer with the bit-reversal permutation fused into the copy: row
/// `r` holds lane values `group[l][bit_reverse(r)]`. This replaces the
/// scalar path's separate random-swap [`modmath::bitrev::bitrev_permute`]
/// pass with sequential row-major writes.
///
/// # Panics
///
/// Panics if `group.len() != LANE_WIDTH`, any polynomial's length is not
/// `2^log_n`, or `soa.len() != 2^log_n * LANE_WIDTH`.
pub fn pack_bitrev<P: AsRef<[u64]>>(group: &[P], log_n: u32, soa: &mut [u64]) {
    let n = 1usize << log_n;
    assert_eq!(group.len(), LANE_WIDTH, "group is not one lane batch");
    assert_eq!(soa.len(), n * LANE_WIDTH, "SoA length mismatch");
    for p in group {
        assert_eq!(p.as_ref().len(), n, "length mismatch");
    }
    for (r, row) in soa.chunks_exact_mut(LANE_WIDTH).enumerate() {
        let src = bit_reverse(r as u64, log_n) as usize;
        for (x, p) in row.iter_mut().zip(group) {
            *x = p.as_ref()[src];
        }
    }
}

/// Transposes the SoA buffer back into the group's polynomials (row `r`
/// → coefficient `r` of every lane), inverse of [`pack_bitrev`] after the
/// butterfly stages have undone the bit-reversed ordering.
///
/// # Panics
///
/// Panics if `group.len() != LANE_WIDTH` or lengths disagree with `soa`.
pub fn unpack(group: &mut [Vec<u64>], soa: &[u64]) {
    assert_eq!(group.len(), LANE_WIDTH, "group is not one lane batch");
    for p in group.iter() {
        assert_eq!(p.len() * LANE_WIDTH, soa.len(), "length mismatch");
    }
    for (r, row) in soa.chunks_exact(LANE_WIDTH).enumerate() {
        for (x, p) in row.iter().zip(group.iter_mut()) {
            p[r] = *x;
        }
    }
}

/// [`pack_bitrev`] with the negacyclic `ψ^i` pre-weighting fused into the
/// copy: the packed value is `group[l][src] · ψ^src mod q` — the same
/// per-element multiply [`NttPlan::forward_negacyclic`] applies before
/// its forward transform.
fn pack_bitrev_weighted<P: AsRef<[u64]>>(plan: &NttPlan, group: &[P], soa: &mut [u64]) {
    let n = plan.n();
    assert_eq!(group.len(), LANE_WIDTH, "group is not one lane batch");
    assert_eq!(soa.len(), n * LANE_WIDTH, "SoA length mismatch");
    for p in group {
        assert_eq!(p.as_ref().len(), n, "length mismatch");
    }
    let q = plan.modulus();
    let psi = plan.psi_pows();
    let psi_shoup = plan.psi_pows_shoup();
    let log_n = plan.log_n();
    for (r, row) in soa.chunks_exact_mut(LANE_WIDTH).enumerate() {
        let src = bit_reverse(r as u64, log_n) as usize;
        let (w, ws) = (psi[src], psi_shoup[src]);
        for (x, p) in row.iter_mut().zip(group) {
            *x = shoup::mul_mod(p.as_ref()[src], w, ws, q);
        }
    }
}

/// [`unpack`] with the final `[0, 4q) → [0, q)` normalization of the
/// forward transform fused into the transpose (same two conditional
/// subtracts as [`modmath::shoup::normalize`], one fewer buffer sweep).
fn unpack_normalized(group: &mut [Vec<u64>], soa: &[u64], q: u64) {
    assert_eq!(group.len(), LANE_WIDTH, "group is not one lane batch");
    for (r, row) in soa.chunks_exact(LANE_WIDTH).enumerate() {
        for (x, p) in row.iter().zip(group.iter_mut()) {
            p[r] = shoup::reduce_once(shoup::reduce_twice(*x, q), q);
        }
    }
}

/// [`unpack`] with the inverse-transform scaling fused in: every element
/// (still lazy in `[0, 4q)` from [`inverse_batch_lazy`]) is multiplied by
/// `N⁻¹` — and, for the negacyclic ring, by `ψ⁻ʳ` — exactly like the
/// scalar [`NttPlan::inverse`] / [`NttPlan::inverse_negacyclic`] tail
/// passes.
fn unpack_inverse_scaled(plan: &NttPlan, group: &mut [Vec<u64>], soa: &[u64], negacyclic: bool) {
    assert_eq!(group.len(), LANE_WIDTH, "group is not one lane batch");
    let q = plan.modulus();
    let n_inv = plan.n_inv();
    let n_inv_shoup = plan.n_inv_shoup();
    let psi_inv = plan.psi_inv_pows();
    let psi_inv_shoup = plan.psi_inv_pows_shoup();
    for (r, row) in soa.chunks_exact(LANE_WIDTH).enumerate() {
        for (x, p) in row.iter().zip(group.iter_mut()) {
            let mut v = shoup::mul_mod(*x, n_inv, n_inv_shoup, q);
            if negacyclic {
                v = shoup::mul_mod(v, psi_inv[r], psi_inv_shoup[r], q);
            }
            p[r] = v;
        }
    }
}

/// Applies the bit-reversal permutation to the SoA buffer as whole-row
/// swaps — the mid-polymul reordering between the forward spectrum
/// (natural row order) and the bit-reversed-input inverse stages.
fn bitrev_rows(soa: &mut [u64], log_n: u32) {
    let n = 1usize << log_n;
    for r in 0..n {
        let s = bit_reverse(r as u64, log_n) as usize;
        if s > r {
            for l in 0..LANE_WIDTH {
                soa.swap(r * LANE_WIDTH + l, s * LANE_WIDTH + l);
            }
        }
    }
}

/// The four whole-batch transform shapes sharing one group driver.
#[derive(Clone, Copy)]
enum Pass {
    Forward,
    Inverse,
    NegacyclicForward,
    NegacyclicInverse,
}

fn scalar_transform(plan: &NttPlan, poly: &mut [u64], pass: Pass) {
    match pass {
        Pass::Forward => plan.forward(poly),
        Pass::Inverse => plan.inverse(poly),
        Pass::NegacyclicForward => plan.forward_negacyclic(poly),
        Pass::NegacyclicInverse => plan.inverse_negacyclic(poly),
    }
}

fn transform_group(plan: &NttPlan, group: &mut [Vec<u64>], soa: &mut [u64], pass: Pass) {
    let q = plan.modulus();
    match pass {
        Pass::Forward => {
            pack_bitrev(group, plan.log_n(), soa);
            forward_batch_lazy(plan, soa);
            unpack_normalized(group, soa, q);
        }
        Pass::NegacyclicForward => {
            pack_bitrev_weighted(plan, group, soa);
            forward_batch_lazy(plan, soa);
            unpack_normalized(group, soa, q);
        }
        Pass::Inverse => {
            pack_bitrev(group, plan.log_n(), soa);
            inverse_batch_lazy(plan, soa);
            unpack_inverse_scaled(plan, group, soa, false);
        }
        Pass::NegacyclicInverse => {
            pack_bitrev(group, plan.log_n(), soa);
            inverse_batch_lazy(plan, soa);
            unpack_inverse_scaled(plan, group, soa, true);
        }
    }
}

fn run_batch(plan: &NttPlan, polys: &mut [Vec<u64>], pass: Pass) -> usize {
    let n = plan.n();
    for p in polys.iter() {
        assert_eq!(p.len(), n, "length mismatch");
    }
    if !plan.uses_lazy() {
        // Widening fallback: the lane kernel is Shoup-only, so oversized
        // moduli keep the scalar path for every polynomial.
        for p in polys.iter_mut() {
            scalar_transform(plan, p, pass);
        }
        return 0;
    }
    let mut lanes_done = 0;
    let mut groups = polys.chunks_exact_mut(LANE_WIDTH);
    SOA_A.with(|cell| {
        let mut soa = cell.borrow_mut();
        soa.resize(n * LANE_WIDTH, 0);
        for group in &mut groups {
            transform_group(plan, group, &mut soa, pass);
            lanes_done += LANE_WIDTH;
        }
    });
    for p in groups.into_remainder() {
        scalar_transform(plan, p, pass);
    }
    lanes_done
}

/// Forward cyclic NTT of every polynomial in the batch; full
/// [`LANE_WIDTH`]-sized groups ride the SoA lane kernel, the ragged tail
/// and every polynomial of a non-lazy (widening) plan take the scalar
/// [`NttPlan::forward`]. Outputs are bit-identical to the scalar path
/// either way. Returns the number of lane-processed polynomials.
///
/// # Panics
///
/// Panics if any polynomial's length differs from `plan.n()`.
pub fn forward_batch(plan: &NttPlan, polys: &mut [Vec<u64>]) -> usize {
    run_batch(plan, polys, Pass::Forward)
}

/// Inverse cyclic NTT of every polynomial in the batch (includes `N⁻¹`
/// scaling); lane/tail/fallback split as [`forward_batch`].
///
/// # Panics
///
/// Panics if any polynomial's length differs from `plan.n()`.
pub fn inverse_batch(plan: &NttPlan, polys: &mut [Vec<u64>]) -> usize {
    run_batch(plan, polys, Pass::Inverse)
}

/// Forward negacyclic NTT of every polynomial in the batch (`ψ`
/// pre-weighting fused into the SoA pack); lane/tail/fallback split as
/// [`forward_batch`].
///
/// # Panics
///
/// Panics if any polynomial's length differs from `plan.n()`.
pub fn forward_negacyclic_batch(plan: &NttPlan, polys: &mut [Vec<u64>]) -> usize {
    run_batch(plan, polys, Pass::NegacyclicForward)
}

/// Inverse negacyclic NTT of every polynomial in the batch (`N⁻¹` and
/// `ψ⁻¹` scaling fused into the SoA unpack); lane/tail/fallback split as
/// [`forward_batch`].
///
/// # Panics
///
/// Panics if any polynomial's length differs from `plan.n()`.
pub fn inverse_negacyclic_batch(plan: &NttPlan, polys: &mut [Vec<u64>]) -> usize {
    run_batch(plan, polys, Pass::NegacyclicInverse)
}

/// Negacyclic products `lhs[i] ← lhs[i] · rhs[i]` in `Z_q[X]/(X^N + 1)`
/// for a whole batch — the lane-batched [`poly::mul_negacyclic`]. Full
/// lane groups run both forward transforms, the Hadamard product, and the
/// inverse transform entirely in SoA form (two shared scratch buffers);
/// the ragged tail and non-lazy plans fall back to the scalar product.
/// Returns the number of lane-processed products.
///
/// # Panics
///
/// Panics if `lhs.len() != rhs.len()` or any polynomial's length differs
/// from `plan.n()`.
pub fn negacyclic_polymul_batch<P: AsRef<[u64]>>(
    plan: &NttPlan,
    lhs: &mut [Vec<u64>],
    rhs: &[P],
) -> usize {
    let n = plan.n();
    assert_eq!(lhs.len(), rhs.len(), "batch lengths differ");
    for p in lhs.iter() {
        assert_eq!(p.len(), n, "length mismatch");
    }
    for p in rhs.iter() {
        assert_eq!(p.as_ref().len(), n, "length mismatch");
    }
    if !plan.uses_lazy() {
        for (a, b) in lhs.iter_mut().zip(rhs) {
            *a = poly::mul_negacyclic(plan, a, b.as_ref());
        }
        return 0;
    }
    let q = plan.modulus();
    let mut lanes_done = 0;
    let mut la = lhs.chunks_exact_mut(LANE_WIDTH);
    let mut rb = rhs.chunks_exact(LANE_WIDTH);
    SOA_A.with(|ca| {
        SOA_B.with(|cb| {
            let mut sa = ca.borrow_mut();
            let mut sb = cb.borrow_mut();
            sa.resize(n * LANE_WIDTH, 0);
            sb.resize(n * LANE_WIDTH, 0);
            for (ga, gb) in (&mut la).zip(&mut rb) {
                polymul_group(plan, ga, gb, &mut sa, &mut sb, q);
                lanes_done += LANE_WIDTH;
            }
        });
    });
    for (a, b) in la.into_remainder().iter_mut().zip(rb.remainder()) {
        *a = poly::mul_negacyclic(plan, a, b.as_ref());
    }
    lanes_done
}

/// One lane group of a negacyclic polymul, the SoA mirror of
/// [`poly::mul_negacyclic`]'s transform sequence. The Hadamard product
/// stays on widening multiplies for the same reason as the scalar path:
/// both operands vary per request, so no Shoup quotient exists for them.
fn polymul_group<P: AsRef<[u64]>>(
    plan: &NttPlan,
    ga: &mut [Vec<u64>],
    gb: &[P],
    sa: &mut [u64],
    sb: &mut [u64],
    q: u64,
) {
    pack_bitrev_weighted(plan, ga, sa);
    forward_batch_lazy(plan, sa);
    pack_bitrev_weighted(plan, gb, sb);
    forward_batch_lazy(plan, sb);
    // The spectra are still lazy in [0, 4q); the widening Hadamard product
    // reduces mod q anyway ((a·b) mod q = (a mod q · b mod q) mod q, and
    // 4q · 4q < 2¹²⁸), so the two normalize sweeps the scalar path pays
    // before its pointwise step are skipped with identical values out.
    for (x, y) in sa.iter_mut().zip(sb.iter()) {
        *x = arith::mul_mod(*x, *y, q);
    }
    // The spectra sit in natural row order; the inverse DIT stages expect
    // bit-reversed input, so reorder rows before descending.
    bitrev_rows(sa, plan.log_n());
    inverse_batch_lazy(plan, sa);
    unpack_inverse_scaled(plan, ga, sa, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::prime::NttField;

    fn plan(n: usize, bits: u32) -> NttPlan {
        NttPlan::new(NttField::with_bits(n, bits).expect("field exists"))
    }

    fn random_polys(count: usize, n: usize, q: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 2) % q
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_batch_matches_scalar_including_blocked_sizes() {
        // 256 takes the flat schedule, 4096 the blocked one.
        for (n, bits) in [(8usize, 14u32), (256, 24), (4096, 50)] {
            let p = plan(n, bits);
            let mut batch = random_polys(LANE_WIDTH, n, p.modulus(), 7);
            let mut expect = batch.clone();
            for e in expect.iter_mut() {
                p.forward(e);
            }
            assert_eq!(forward_batch(&p, &mut batch), LANE_WIDTH);
            assert_eq!(batch, expect, "n={n}");
        }
    }

    #[test]
    fn inverse_batch_roundtrips_and_matches_scalar() {
        let p = plan(1024, 31);
        let orig = random_polys(LANE_WIDTH, 1024, p.modulus(), 11);
        let mut batch = orig.clone();
        forward_batch(&p, &mut batch);
        let mut expect = batch.clone();
        for e in expect.iter_mut() {
            p.inverse(e);
        }
        assert_eq!(inverse_batch(&p, &mut batch), LANE_WIDTH);
        assert_eq!(batch, expect);
        assert_eq!(batch, orig);
    }

    #[test]
    fn negacyclic_batch_matches_scalar() {
        let p = plan(128, 26);
        let orig = random_polys(LANE_WIDTH, 128, p.modulus(), 13);
        let mut batch = orig.clone();
        let mut expect = orig.clone();
        for e in expect.iter_mut() {
            p.forward_negacyclic(e);
        }
        assert_eq!(forward_negacyclic_batch(&p, &mut batch), LANE_WIDTH);
        assert_eq!(batch, expect);
        for e in expect.iter_mut() {
            p.inverse_negacyclic(e);
        }
        assert_eq!(inverse_negacyclic_batch(&p, &mut batch), LANE_WIDTH);
        assert_eq!(batch, expect);
        assert_eq!(batch, orig);
    }

    #[test]
    fn ragged_tail_takes_scalar_path_with_identical_results() {
        let p = plan(64, 20);
        // 11 = one full lane group + 3 scalar-tail polynomials.
        let mut batch = random_polys(11, 64, p.modulus(), 17);
        let mut expect = batch.clone();
        for e in expect.iter_mut() {
            p.forward(e);
        }
        assert_eq!(forward_batch(&p, &mut batch), LANE_WIDTH);
        assert_eq!(batch, expect);
    }

    #[test]
    fn polymul_batch_matches_scalar_product() {
        for n in [32usize, 4096] {
            let p = plan(n, 40);
            let lhs_orig = random_polys(LANE_WIDTH + 2, n, p.modulus(), 19);
            let rhs = random_polys(LANE_WIDTH + 2, n, p.modulus(), 23);
            let mut lhs = lhs_orig.clone();
            assert_eq!(negacyclic_polymul_batch(&p, &mut lhs, &rhs), LANE_WIDTH);
            for ((got, a), b) in lhs.iter().zip(&lhs_orig).zip(&rhs) {
                assert_eq!(got, &poly::mul_negacyclic(&p, a, b), "n={n}");
            }
        }
    }

    #[test]
    fn widening_plan_falls_back_to_scalar_and_reports_zero_lanes() {
        let field = NttField::with_bits(16, 63).expect("prime exists");
        let p = NttPlan::new(field);
        assert!(!p.uses_lazy());
        let orig = random_polys(LANE_WIDTH, 16, p.modulus(), 29);
        let mut batch = orig.clone();
        let mut expect = orig.clone();
        for e in expect.iter_mut() {
            p.forward(e);
        }
        assert_eq!(forward_batch(&p, &mut batch), 0);
        assert_eq!(batch, expect);
        let rhs = random_polys(LANE_WIDTH, 16, p.modulus(), 31);
        let mut lhs = orig.clone();
        assert_eq!(negacyclic_polymul_batch(&p, &mut lhs, &rhs), 0);
    }

    #[test]
    #[should_panic(expected = "lazy bound")]
    fn raw_lazy_legs_reject_widening_plans() {
        let field = NttField::with_bits(8, 63).expect("prime exists");
        let p = NttPlan::new(field);
        let mut soa = vec![0u64; 8 * LANE_WIDTH];
        forward_batch_lazy(&p, &mut soa);
    }

    /// Runs the lane kernel's lazy forward legs over one full batch and
    /// checks every leg stays < 4q and equals, bit for bit, the scalar
    /// lazy kernel's leg for the same lane.
    fn assert_raw_legs_match_scalar(bits: u32) {
        let p = plan(512, bits);
        let q = p.modulus();
        let polys = random_polys(LANE_WIDTH, 512, q, 37);
        let mut soa = vec![0u64; 512 * LANE_WIDTH];
        pack_bitrev(&polys, p.log_n(), &mut soa);
        forward_batch_lazy(&p, &mut soa);
        assert!(soa.iter().all(|&x| x < 4 * q), "raw outputs stay < 4q");
        for (l, poly) in polys.iter().enumerate() {
            let mut expect = poly.clone();
            modmath::bitrev::bitrev_permute(&mut expect);
            crate::iterative::dit_from_bitrev_lazy(&p, &mut expect, false);
            let lane: Vec<u64> = (0..512).map(|r| soa[r * LANE_WIDTH + l]).collect();
            assert_eq!(lane, expect, "{bits}-bit q, lane {l}");
        }
    }

    #[test]
    fn raw_legs_match_scalar_lazy_kernel_per_lane() {
        // Per lane the kernel runs the scalar kernel's leg sequence, so
        // its lazy legs are bit-identical to the scalar kernel's, not just
        // congruent.
        assert_raw_legs_match_scalar(50);
    }

    #[test]
    fn narrow_raw_legs_stay_bounded_and_congruent() {
        // A 31-bit modulus runs the same single datapath as a wide one:
        // its legs stay < 4q and, being bit-identical to the scalar
        // legs, are congruent to them.
        assert!(plan(512, 31).modulus() < 1 << 31);
        assert_raw_legs_match_scalar(31);
    }

    #[test]
    fn kernel_label_names_the_lane_width() {
        assert_eq!(kernel_label(), format!("lanes{LANE_WIDTH}"));
    }
}
