//! Functional co-simulation — the paper's front-end-driver verification
//! loop (§VI.A: the driver "runs iteratively with DRAMsim3 … to double-
//! check the correctness of timing and functionality").
//!
//! [`FunctionalSim`] executes a logical command stream for *values*:
//! every `CU-read` really moves an atom from the (explicitly modeled) row
//! buffer into an atom buffer, every `C1`/`C2` runs the Montgomery
//! butterfly datapath, every `CU-write` lands in the row buffer and is
//! restored to the array at precharge. Timing is the scheduler's concern;
//! running both over the same stream and cross-checking against the
//! `ntt-ref` golden models is the system's end-to-end correctness
//! argument.

use crate::buffers::BufferFile;
use crate::cmd::PimCommand;
use crate::config::PimConfig;
use crate::cu::ComputeUnit;
use crate::layout::PolyLayout;
use crate::mapper::Program;
use crate::PimError;
use dram_sim::storage::BankStorage;

/// Value-level simulator for one bank.
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    storage: BankStorage,
    bufs: BufferFile,
    cu: ComputeUnit,
}

impl FunctionalSim {
    /// Creates a zeroed bank with the configuration's buffer file.
    ///
    /// # Errors
    ///
    /// Propagates [`PimError::BadConfig`] from validation.
    pub fn new(config: &PimConfig) -> Result<Self, PimError> {
        config.validate()?;
        Ok(Self {
            storage: BankStorage::new(config.geometry),
            bufs: BufferFile::new(config.n_bufs, config.na()),
            cu: ComputeUnit::new(),
        })
    }

    /// Host DMA: writes words into the array (row must be closed; the
    /// simulator precharges automatically first).
    pub fn load_words(&mut self, base_word: usize, data: &[u32]) {
        self.storage.precharge();
        self.storage.load_words(base_word, data);
    }

    /// Host DMA: reads words from the array (restores the open row first).
    pub fn read_words(&mut self, base_word: usize, len: usize) -> Vec<u32> {
        self.storage.precharge();
        self.storage.read_words(base_word, len)
    }

    /// Reads a polynomial region.
    pub fn read_region(&mut self, layout: &PolyLayout) -> Vec<u32> {
        self.read_words(layout.base_word(), layout.n())
    }

    /// Reads a region starting at an explicit base (for ping-pong results).
    pub fn read_region_at(&mut self, base_word: usize, n: usize) -> Vec<u32> {
        self.read_words(base_word, n)
    }

    /// Executes every command of `program` in order.
    ///
    /// # Errors
    ///
    /// Propagates buffer misuse, address, and datapath errors — any of
    /// which indicates a mapper bug, which is the point of running this.
    pub fn execute(&mut self, program: &Program) -> Result<(), PimError> {
        for cmd in &program.commands {
            self.step(cmd)?;
        }
        Ok(())
    }

    /// Executes one command.
    ///
    /// # Errors
    ///
    /// See [`Self::execute`].
    pub fn step(&mut self, cmd: &PimCommand) -> Result<(), PimError> {
        match cmd {
            PimCommand::Act { row } => {
                self.open(*row)?;
            }
            PimCommand::Pre | PimCommand::Refresh => self.storage.precharge(),
            PimCommand::CuRead { row, col, buf } => {
                self.open(*row)?;
                self.bufs.fill(*buf, self.storage.read_atom(*col)?)?;
            }
            PimCommand::CuWrite { row, col, buf } => {
                self.open(*row)?;
                self.storage.write_atom(*col, self.bufs.contents(*buf)?)?;
            }
            PimCommand::C1 { buf, params } => {
                self.cu.exec_c1(&mut self.bufs, *buf, params)?;
            }
            PimCommand::C2 { p, s, tw, order } => {
                self.cu.exec_c2(&mut self.bufs, *p, *s, *tw, *order)?;
            }
            PimCommand::Scale { buf, tw } => {
                self.cu.exec_scale(&mut self.bufs, *buf, *tw)?;
            }
            PimCommand::Pointwise { p, s } => {
                self.cu.exec_pointwise(&mut self.bufs, *p, *s)?;
            }
            PimCommand::SetModulus { q } => self.cu.set_modulus(*q)?,
            PimCommand::SetTwiddle { .. } => {}
            PimCommand::RegLoad { buf, lane, reg } => {
                self.cu.exec_reg_load(&self.bufs, *buf, *lane, *reg)?;
            }
            PimCommand::RegStore { buf, lane, reg } => {
                self.cu.exec_reg_store(&mut self.bufs, *buf, *lane, *reg)?;
            }
            PimCommand::RegBu { omega_mont, order } => {
                self.cu.exec_reg_bu(*omega_mont, *order)?;
            }
        }
        Ok(())
    }

    fn open(&mut self, row: u32) -> Result<(), PimError> {
        if self.storage.open_row() != Some(row) {
            self.storage.precharge();
            self.storage.activate(row)?;
        }
        Ok(())
    }
}

/// Compares PIM output against an expected vector, reporting the first
/// mismatch.
///
/// # Errors
///
/// [`PimError::VerificationFailed`] with the offending index and values.
pub fn check_equal(got: &[u32], expected: &[u32]) -> Result<(), PimError> {
    debug_assert_eq!(got.len(), expected.len());
    for (i, (&g, &e)) in got.iter().zip(expected).enumerate() {
        if g != e {
            return Err(PimError::VerificationFailed {
                index: i,
                got: g,
                expected: e,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map_ntt, map_pointwise, map_scale, Dataflow, MapperOptions, NttParams};
    use modmath::bitrev::bitrev_permute;
    use modmath::prime::NttField;

    const Q: u32 = 2_013_265_921; // 15 * 2^27 + 1

    fn omega_for(n: usize) -> u32 {
        modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32
    }

    fn random_poly(n: usize, seed: u64) -> Vec<u32> {
        // Small deterministic LCG; avoids pulling rand into unit tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) % Q as u64) as u32
            })
            .collect()
    }

    /// Full forward-NTT equivalence against the golden model, across all
    /// three regimes and buffer counts.
    #[test]
    fn mapped_ntt_matches_reference() {
        for nb in [1usize, 2, 4, 6] {
            for n in [4usize, 8, 16, 64, 256, 512, 1024] {
                if nb == 1 && n > 256 {
                    continue; // scalar strawman is slow; cover the regimes once
                }
                let c = PimConfig::hbm2e(nb);
                let layout = PolyLayout::new(&c, 0, n).unwrap();
                let params = NttParams {
                    q: Q,
                    omega: omega_for(n),
                };
                let prog = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
                let mut sim = FunctionalSim::new(&c).unwrap();
                let poly = random_poly(n, (nb * 1000 + n) as u64);
                let mut br: Vec<u32> = poly.clone();
                bitrev_permute(&mut br);
                sim.load_words(0, &br);
                sim.execute(&prog).unwrap();
                let got = sim.read_region_at(prog.final_base, n);
                let field = NttField::with_psi(
                    n,
                    Q as u64,
                    modmath::prime::root_of_unity(2 * n as u64, Q as u64).unwrap(),
                )
                .unwrap();
                // ω may differ from field root; use naive with our ω.
                let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
                let _ = field;
                check_equal(&got, &expect).unwrap_or_else(|e| panic!("nb={nb} n={n}: {e}"));
            }
        }
    }

    fn reference_ntt(x: &[u32], w: u64, q: u64) -> Vec<u32> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = 0u64;
                for (i, &v) in x.iter().enumerate() {
                    let tw = modmath::arith::pow_mod(w, (i * k) as u64, q);
                    acc = modmath::arith::add_mod(acc, modmath::arith::mul_mod(v as u64, tw, q), q);
                }
                acc as u32
            })
            .collect()
    }

    #[test]
    fn dif_dataflow_matches_reference_bitrev_out() {
        for n in [16usize, 256, 1024] {
            let c = PimConfig::hbm2e(4);
            let layout = PolyLayout::new(&c, 0, n).unwrap();
            let params = NttParams {
                q: Q,
                omega: omega_for(n),
            };
            let opts = MapperOptions {
                dataflow: Dataflow::DifToBitrev,
                ..Default::default()
            };
            let prog = map_ntt(&c, &layout, &params, &opts).unwrap();
            let mut sim = FunctionalSim::new(&c).unwrap();
            let poly = random_poly(n, n as u64);
            sim.load_words(0, &poly);
            sim.execute(&prog).unwrap();
            let mut got = sim.read_region_at(prog.final_base, n);
            bitrev_permute(&mut got);
            let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
            check_equal(&got, &expect).unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn ping_pong_ablation_still_correct() {
        let n = 1024;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let params = NttParams {
            q: Q,
            omega: omega_for(n),
        };
        let opts = MapperOptions {
            in_place_update: false,
            ..Default::default()
        };
        let prog = map_ntt(&c, &layout, &params, &opts).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 99);
        let mut br = poly.clone();
        bitrev_permute(&mut br);
        sim.load_words(0, &br);
        sim.execute(&prog).unwrap();
        let got = sim.read_region_at(prog.final_base, n);
        let expect = reference_ntt(&poly, omega_for(n) as u64, Q as u64);
        check_equal(&got, &expect).unwrap();
    }

    #[test]
    fn inverse_after_forward_is_identity_with_scale() {
        let n = 256;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let omega = omega_for(n);
        let params = NttParams { q: Q, omega };
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 7);
        let mut br = poly.clone();
        bitrev_permute(&mut br);
        sim.load_words(0, &br);
        // Forward (bitrev in, natural out).
        let fwd = map_ntt(&c, &layout, &params, &MapperOptions::default()).unwrap();
        sim.execute(&fwd).unwrap();
        // Inverse: DIF graph back to bit-reversed order, inverse twiddles.
        let opts = MapperOptions {
            dataflow: Dataflow::DifToBitrev,
            inverse: true,
            ..Default::default()
        };
        let inv = map_ntt(&c, &layout, &params, &opts).unwrap();
        sim.execute(&inv).unwrap();
        // Scale by N⁻¹ (result currently bit-reversed; scaling is
        // element-wise uniform so order does not matter).
        let n_inv = modmath::arith::inv_mod(n as u64, Q as u64).unwrap() as u32;
        let scale = map_scale(&c, &layout, Q, n_inv, 1).unwrap();
        sim.execute(&scale).unwrap();
        let mut got = sim.read_region(&layout);
        bitrev_permute(&mut got);
        check_equal(&got, &poly).unwrap();
    }

    #[test]
    fn pointwise_program_multiplies_regions() {
        let n = 256;
        let c = PimConfig::hbm2e(2);
        let a = PolyLayout::new(&c, 0, n).unwrap();
        let b = PolyLayout::new(&c, 256, n).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let pa = random_poly(n, 1);
        let pb = random_poly(n, 2);
        sim.load_words(0, &pa);
        sim.load_words(256, &pb);
        let prog = map_pointwise(&c, &a, &b, Q).unwrap();
        sim.execute(&prog).unwrap();
        let got = sim.read_region(&a);
        for i in 0..n {
            assert_eq!(
                got[i] as u64,
                modmath::arith::mul_mod(pa[i] as u64, pb[i] as u64, Q as u64)
            );
        }
        // b unchanged.
        assert_eq!(sim.read_region(&b), pb);
    }

    #[test]
    fn scale_program_weights_by_geometric_sequence() {
        let n = 64;
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let mut sim = FunctionalSim::new(&c).unwrap();
        let poly = random_poly(n, 5);
        sim.load_words(0, &poly);
        let psi = modmath::prime::root_of_unity(2 * n as u64, Q as u64).unwrap() as u32;
        let prog = map_scale(&c, &layout, Q, 1, psi).unwrap();
        sim.execute(&prog).unwrap();
        let got = sim.read_region(&layout);
        for i in 0..n {
            let w = modmath::arith::pow_mod(psi as u64, i as u64, Q as u64);
            assert_eq!(
                got[i] as u64,
                modmath::arith::mul_mod(poly[i] as u64, w, Q as u64),
                "element {i}"
            );
        }
    }
}
