//! Comparison models for the NTT accelerators of the paper's Table III.
//!
//! MeNTT (6T-SRAM bit-serial PIM), CryptoPIM (ReRAM), the paper's x86
//! software baseline, and an FPGA design are closed hardware we cannot
//! run; the paper itself compares against their *published* numbers. Each
//! model here encodes those published latency/energy points (digitized
//! from Table III), the device's flexibility restrictions (fixed modulus,
//! maximum polynomial length — the qualitative flexibility argument of
//! §VI.E), and a documented scaling law for interpolation between points.
//!
//! These are **reporting models**, not simulations: their purpose is to
//! let the Table III harness reproduce the published comparison shape
//! (who wins, by what factor, where the crossovers fall) next to our
//! simulated NTT-PIM numbers.

#![warn(missing_docs)]

use std::fmt;

/// Flexibility properties the paper contrasts in §VI.E.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flexibility {
    /// Can the modulus be changed at runtime? (CryptoPIM cannot — "a
    /// severe drawback for FHE, which runs multiple NTTs using different
    /// modulo values".)
    pub arbitrary_modulus: bool,
    /// Largest supported polynomial length (`None` = unbounded).
    pub max_n: Option<usize>,
    /// Coefficient bit width the published numbers refer to.
    pub bitwidth: u32,
}

/// One accelerator model: published points plus scaling behaviour.
pub trait NttAccelerator {
    /// Display name (Table III column header).
    fn name(&self) -> &'static str;

    /// Flexibility restrictions.
    fn flexibility(&self) -> Flexibility;

    /// Latency for a length-`n` NTT in nanoseconds, if the device supports
    /// that length. Published points are returned exactly; lengths between
    /// points follow the model's scaling law.
    fn latency_ns(&self, n: usize) -> Option<f64>;

    /// Energy for a length-`n` NTT in nanojoules, when published.
    fn energy_nj(&self, n: usize) -> Option<f64>;
}

/// Interpolates `n` on published `(n, value)` points with the
/// `Θ(N log N)` scaling law the paper invokes ("After all, the number of
/// operations increases as O(N log N)").
///
/// Inside the published range, geometric interpolation between the two
/// bracketing points is used (latencies of these devices are log-linear in
/// `N`); outside, the nearest point is scaled by `N log N`.
pub fn interpolate_nlogn(points: &[(usize, f64)], n: usize) -> Option<f64> {
    if points.is_empty() || n < 2 {
        return None;
    }
    if let Some(&(_, v)) = points.iter().find(|&&(pn, _)| pn == n) {
        return Some(v);
    }
    let nlogn = |x: usize| (x as f64) * (x as f64).log2();
    let first = points[0];
    let last = points[points.len() - 1];
    if n < first.0 {
        return Some(first.1 * nlogn(n) / nlogn(first.0));
    }
    if n > last.0 {
        return Some(last.1 * nlogn(n) / nlogn(last.0));
    }
    let hi = points.iter().position(|&(pn, _)| pn > n)?;
    let (n0, v0) = points[hi - 1];
    let (n1, v1) = points[hi];
    // Geometric interpolation in log2(n).
    let t = ((n as f64).log2() - (n0 as f64).log2()) / ((n1 as f64).log2() - (n0 as f64).log2());
    Some(v0 * (v1 / v0).powf(t))
}

macro_rules! published_model {
    (
        $(#[$meta:meta])*
        $name:ident, $label:expr, $flex:expr,
        latency: [$(($ln:expr, $lv:expr)),* $(,)?],
        energy: [$(($en:expr, $ev:expr)),* $(,)?]
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name;

        impl NttAccelerator for $name {
            fn name(&self) -> &'static str {
                $label
            }

            fn flexibility(&self) -> Flexibility {
                $flex
            }

            fn latency_ns(&self, n: usize) -> Option<f64> {
                let f = self.flexibility();
                if let Some(max) = f.max_n {
                    if n > max {
                        return None;
                    }
                }
                interpolate_nlogn(&[$(($ln, $lv)),*], n)
            }

            fn energy_nj(&self, n: usize) -> Option<f64> {
                let f = self.flexibility();
                if let Some(max) = f.max_n {
                    if n > max {
                        return None;
                    }
                }
                let pts = [$(($en, $ev)),*];
                if pts.is_empty() {
                    return None;
                }
                interpolate_nlogn(&pts, n)
            }
        }
    };
}

// Latency values below are the paper's Table III rows, interpreted in
// microseconds and converted to nanoseconds (the table's "(ns)" header is
// inconsistent with its own Fig. 7, whose y-axis for the same data is µs;
// the *ratios* — the paper's claims — are unit-independent).

published_model!(
    /// MeNTT: 6T-SRAM bit-serial PIM (paper ref. \[11\]). 14-bit points
    /// for N ≤ 1024; "its maximum polynomial size is very small (1K)".
    MenttModel,
    "MeNTT",
    Flexibility {
        arbitrary_modulus: false,
        max_n: Some(1024),
        bitwidth: 14,
    },
    latency: [(256, 23_000.0), (512, 26_000.0), (1024, 34_300.0)],
    energy: [(256, 0.144), (512, 0.324), (1024, 0.868)]
);

published_model!(
    /// CryptoPIM: ReRAM PIM for lattice crypto (paper ref. \[12\]);
    /// 16-bit points, fixed modulus.
    CryptoPimModel,
    "CryptoPIM",
    Flexibility {
        arbitrary_modulus: false,
        max_n: Some(4096),
        bitwidth: 16,
    },
    latency: [
        (256, 68_570.0),
        (512, 75_900.0),
        (1024, 83_120.0),
        (2048, 363_900.0),
        (4096, 392_690.0),
    ],
    energy: [
        (256, 68.67),
        (512, 75.90),
        (1024, 83.12),
        (2048, 363.60),
        (4096, 421.78),
    ]
);

published_model!(
    /// The paper's x86 CPU software baseline (32-bit).
    X86PaperModel,
    "x86 CPU (paper)",
    Flexibility {
        arbitrary_modulus: true,
        max_n: None,
        bitwidth: 32,
    },
    latency: [
        (256, 84_810.0),
        (512, 168_960.0),
        (1024, 349_410.0),
        (2048, 736_920.0),
        (4096, 1_503_310.0),
    ],
    energy: [
        (256, 570.60),
        (512, 1_179.52),
        (1024, 2_483.77),
        (2048, 5_273.07),
        (4096, 10_864.64),
    ]
);

published_model!(
    /// The FPGA comparison point (16-bit).
    FpgaModel,
    "FPGA",
    Flexibility {
        arbitrary_modulus: true,
        max_n: Some(1024),
        bitwidth: 16,
    },
    latency: [(256, 21_560.0), (512, 47_640.0), (1024, 101_840.0)],
    energy: [(256, 2.15), (512, 5.28), (1024, 12.52)]
);

published_model!(
    /// BP-NTT: in-SRAM NTT with **bit-parallel** modular multiplication
    /// (arXiv 2303.00173) — the contemporaneous successor to MeNTT's
    /// bit-serial design. Replacing the bit-serial multiplier with a
    /// bit-parallel one removes the `O(bitwidth)` cycle factor, so its
    /// published small-`N` latencies undercut both MeNTT and NTT-PIM's
    /// row-activation-bound floor, at MeNTT-class flexibility (fixed
    /// modulus, bounded `N`, one transform at a time).
    ///
    /// **Not part of the paper's Table III** (the DAC'23 comparison
    /// predates it), so it is deliberately excluded from
    /// [`all_models`] and the encoded speedup-claim checks; it exists as
    /// a post-paper comparator for the heterogeneous backend bus.
    BpNttModel,
    "BP-NTT",
    Flexibility {
        arbitrary_modulus: false,
        max_n: Some(4096),
        bitwidth: 16,
    },
    latency: [
        (256, 2_600.0),
        (512, 3_400.0),
        (1024, 4_800.0),
        (2048, 11_400.0),
        (4096, 26_800.0),
    ],
    energy: [
        (256, 0.052),
        (512, 0.112),
        (1024, 0.259),
        (2048, 0.634),
        (4096, 1.520),
    ]
);

/// The paper's NTT-PIM latency/energy points, for calibrating our
/// simulator's output against the published table (Nb = 2 column).
pub fn paper_ntt_pim_nb2() -> Vec<(usize, f64, f64)> {
    // (n, latency_ns, energy_nj), µs-interpreted latencies as above.
    vec![
        (256, 3_900.0, 0.80),
        (512, 14_160.0, 4.77),
        (1024, 38_190.0, 13.86),
        (2048, 95_840.0, 36.68),
        (4096, 230_450.0, 93.08),
    ]
}

/// The paper's NTT-PIM latency points for Nb = 4.
pub fn paper_ntt_pim_nb4() -> Vec<(usize, f64, f64)> {
    vec![
        (256, 2_500.0, 0.49),
        (512, 8_330.0, 2.67),
        (1024, 21_620.0, 7.16),
        (2048, 53_030.0, 18.98),
        (4096, 124_950.0, 48.93),
    ]
}

/// The paper's NTT-PIM latency points for Nb = 6 (energy not published).
pub fn paper_ntt_pim_nb6() -> Vec<(usize, f64)> {
    vec![
        (256, 1_940.0),
        (512, 6_580.0),
        (1024, 16_890.0),
        (2048, 41_180.0),
        (4096, 96_620.0),
    ]
}

/// Convenience: all four comparator models of the paper's Table III as
/// trait objects. [`BpNttModel`] is intentionally absent — it post-dates
/// the paper's comparison and would distort the encoded claim checks.
pub fn all_models() -> Vec<Box<dyn NttAccelerator>> {
    vec![
        Box::new(MenttModel),
        Box::new(CryptoPimModel),
        Box::new(X86PaperModel),
        Box::new(FpgaModel),
    ]
}

impl fmt::Display for Flexibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit, modulus {}, max N {}",
            self.bitwidth,
            if self.arbitrary_modulus {
                "arbitrary"
            } else {
                "fixed"
            },
            self.max_n
                .map_or_else(|| "unbounded".to_string(), |n| n.to_string())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_points_are_exact() {
        assert_eq!(MenttModel.latency_ns(256), Some(23_000.0));
        assert_eq!(CryptoPimModel.latency_ns(4096), Some(392_690.0));
        assert_eq!(X86PaperModel.latency_ns(1024), Some(349_410.0));
        assert_eq!(FpgaModel.energy_nj(512), Some(5.28));
    }

    #[test]
    fn limits_enforced() {
        assert_eq!(MenttModel.latency_ns(2048), None, "MeNTT caps at 1K");
        assert_eq!(FpgaModel.latency_ns(4096), None);
        assert!(X86PaperModel.latency_ns(8192).is_some(), "software scales");
    }

    #[test]
    fn interpolation_is_monotonic_and_bracketed() {
        let pts = [(256usize, 100.0), (1024, 400.0)];
        let v512 = interpolate_nlogn(&pts, 512).unwrap();
        assert!(v512 > 100.0 && v512 < 400.0);
        // Extrapolation follows N log N.
        let v2048 = interpolate_nlogn(&pts, 2048).unwrap();
        assert!(v2048 > 400.0 * 2.0 && v2048 < 400.0 * 2.4);
    }

    #[test]
    fn paper_speedup_claims_hold_in_the_encoded_data() {
        // "1.7 ~ 17x speedup depending on polynomial size" (vs the best
        // applicable competitor, at the paper's best Nb).
        let nb6 = paper_ntt_pim_nb6();
        for &(n, ours) in &nb6 {
            let best_other = all_models()
                .iter()
                .filter_map(|m| m.latency_ns(n))
                .fold(f64::INFINITY, f64::min);
            let speedup = best_other / ours;
            assert!((1.6..=18.0).contains(&speedup), "n={n}: speedup {speedup}");
        }
    }

    #[test]
    fn bp_ntt_is_a_post_paper_comparator_outside_table_iii() {
        // Published points exact, window enforced...
        assert_eq!(BpNttModel.latency_ns(1024), Some(4_800.0));
        assert_eq!(BpNttModel.latency_ns(8192), None, "BP-NTT caps at 4K");
        // ...bit-parallel beats bit-serial MeNTT at every shared point...
        for n in [256, 512, 1024] {
            assert!(BpNttModel.latency_ns(n).unwrap() < MenttModel.latency_ns(n).unwrap());
        }
        // ...and it stays out of the paper's Table III model set, so the
        // encoded speedup-claim checks keep comparing what the paper
        // compared.
        assert!(all_models().iter().all(|m| m.name() != BpNttModel.name()));
    }

    #[test]
    fn flexibility_display_is_informative() {
        let s = CryptoPimModel.flexibility().to_string();
        assert!(s.contains("fixed"));
        assert!(s.contains("4096"));
    }
}
