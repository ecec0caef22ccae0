//! Fixture: a file that exercises every lint's *passing* shape —
//! marker-suppressed residue math, an asserting lazy leg, and a SIMD item
//! with its portable sibling.

pub fn generator(i: u64, q: u64) -> u64 {
    // analyzer: allow(raw_residue_op) — deterministic input generator for a fixture.
    (i * 2654435761 + 1) % q
}

pub fn add_lazy_checked(a: u64, b: u64, q: u64) -> u64 {
    debug_assert!(a < 2 * q && b < 2 * q, "lazy operands out of range");
    a + b
}

#[cfg(feature = "simd")]
pub fn vectorized() {}

pub fn portable_fallback() {}
