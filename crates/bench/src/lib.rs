//! Shared experiment harness for the table/figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper or runs one gate (the README's "Examples, benches, figures"
//! section lists them); this library holds the
//! common simulation drivers so the binaries stay declarative.

#![warn(missing_docs)]

use ntt_pim_core::config::PimConfig;
use ntt_pim_core::layout::PolyLayout;
use ntt_pim_core::mapper::{map_ntt, MapperOptions, NttParams};
use ntt_pim_core::sched::{schedule, Timeline};
use ntt_pim_core::PimError;

/// The polynomial lengths of the paper's Figs. 7–8 (the printed "8912" is
/// the power-of-two 8192).
pub const FIG7_LENGTHS: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// The polynomial lengths of Table III.
pub const TABLE3_LENGTHS: [usize; 5] = [256, 512, 1024, 2048, 4096];

/// A 31-bit NTT prime supporting every length used in the experiments.
pub const Q: u32 = 2_013_265_921; // 15 * 2^27 + 1

/// One simulated NTT data point.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Polynomial length.
    pub n: usize,
    /// Buffer count.
    pub nb: usize,
    /// Latency in nanoseconds.
    pub latency_ns: f64,
    /// Energy in nanojoules.
    pub energy_nj: f64,
    /// Row activations.
    pub activations: u64,
    /// Full timeline (for rendering).
    pub timeline: Timeline,
}

/// Simulates one forward NTT (timing only; functional equivalence is
/// covered by the test suite).
///
/// # Errors
///
/// Propagates mapper/scheduler errors (none occur for the standard
/// experiment grid).
pub fn simulate_ntt(
    config: &PimConfig,
    n: usize,
    opts: &MapperOptions,
) -> Result<SimPoint, PimError> {
    let layout = PolyLayout::new(config, 0, n)?;
    let omega = modmath::prime::root_of_unity(n as u64, Q as u64)? as u32;
    let program = map_ntt(config, &layout, &NttParams { q: Q, omega }, opts)?;
    let timeline = schedule(config, &program)?;
    Ok(SimPoint {
        n,
        nb: config.n_bufs,
        latency_ns: timeline.latency_ns(),
        energy_nj: timeline.energy.total_nj(),
        activations: timeline.activations(),
        timeline,
    })
}

/// Convenience wrapper with the paper's default configuration.
///
/// # Errors
///
/// As [`simulate_ntt`].
pub fn simulate_default(nb: usize, n: usize) -> Result<SimPoint, PimError> {
    simulate_ntt(&PimConfig::hbm2e(nb), n, &MapperOptions::default())
}

/// A seeded pseudo-random polynomial of `n` coefficients in `[0, q)`: one
/// 64-bit LCG step per coefficient, whose top 53 bits are reduced mod `q`.
/// The gate binaries draw their inputs from it, so a BENCH file's inputs
/// are fixed by its seeds.
pub fn pseudo_poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
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

/// Formats a number with engineering-style precision for table cells.
pub fn fmt_sig(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Prints a ruled table: `headers` then rows of equal length.
///
/// # Panics
///
/// Panics if a row length differs from the header length.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let rule: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("{title}");
    println!("{rule}");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:>w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    println!("{}", fmt_row(headers));
    println!("{rule}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!("{rule}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_simulates_standard_grid_points() {
        let p = simulate_default(2, 256).unwrap();
        assert!(p.latency_ns > 0.0);
        assert_eq!(p.activations, 1);
        let p2 = simulate_default(4, 1024).unwrap();
        assert!(p2.latency_ns > p.latency_ns);
    }

    #[test]
    fn fmt_sig_scales_precision() {
        assert_eq!(fmt_sig(3.9), "3.90");
        assert_eq!(fmt_sig(230.45), "230.4"); // f64 230.45 is 230.4499…
        assert_eq!(fmt_sig(10864.0), "10864");
    }
}
