//! Timed CPU baseline — the "x86 CPU (software)" column of the paper's
//! Figs. 7–8 and Table III.
//!
//! The paper compares PIM latency against a software NTT;
//! [`measure_forward`] runs [`NttPlan::forward`] (the Shoup-lazy kernel
//! every host transform uses) repeatedly on the host and reports best-of-k
//! wall time. Absolute values depend on the machine, so the experiment
//! harness prints them next to (not instead of) the paper's published
//! numbers.

use crate::plan::NttPlan;
use modmath::prime::NttField;
use std::time::{Duration, Instant};

/// Result of one timed baseline measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMeasurement {
    /// Transform length.
    pub n: usize,
    /// Best observed wall time of a single forward transform.
    pub best: Duration,
    /// Mean wall time across the measured iterations.
    pub mean: Duration,
    /// Number of timed iterations.
    pub iterations: u32,
}

impl CpuMeasurement {
    /// Best latency in nanoseconds (saturating at `u64::MAX`).
    pub fn best_ns(&self) -> u64 {
        self.best.as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// Times the forward cyclic NTT for length `n`, excluding plan construction
/// (tables are assumed resident, as in any real deployment).
///
/// # Panics
///
/// Panics if no 31-bit NTT-friendly prime exists for `n` (never happens for
/// `n <= 2^20`) or if `iterations == 0`.
pub fn measure_forward(n: usize, iterations: u32) -> CpuMeasurement {
    assert!(iterations > 0, "need at least one iteration");
    let field = NttField::with_bits(n, 31).expect("31-bit NTT prime exists");
    let plan = NttPlan::new(field);
    let q = plan.modulus();
    // analyzer: allow(raw_residue_op) — deterministic benchmark input generator, not datapath math.
    let mut data: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761 + 1) % q).collect();

    // Warm-up: touches tables and data once, and guards against a cold
    // first iteration dominating `best`.
    plan.forward(&mut data);

    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    for _ in 0..iterations {
        let t0 = Instant::now();
        plan.forward(&mut data);
        let dt = t0.elapsed();
        best = best.min(dt);
        total += dt;
        // Keep the data bounded without branching on values: the transform
        // output is already reduced mod q, so nothing to do.
    }
    CpuMeasurement {
        n,
        best,
        mean: total / iterations,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_positive_and_monotonic_in_n() {
        let small = measure_forward(256, 5);
        let large = measure_forward(4096, 5);
        assert!(small.best > Duration::ZERO);
        // 16x the size and 1.5x the stages: must be slower.
        assert!(large.best > small.best);
        assert_eq!(small.iterations, 5);
        assert!(small.mean >= small.best);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iterations_rejected() {
        measure_forward(16, 0);
    }
}
