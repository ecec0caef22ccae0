//! The functional compute unit (Fig. 2 right; Algorithms 1 and 2).
//!
//! The CU holds the modulus registers (a [`Montgomery32`] context stands in
//! for `q`, `-q⁻¹ mod 2³²` and `R² mod q`), two scalar operand registers,
//! and the butterfly unit. All multiplications go through Montgomery REDC —
//! the same datapath the paper synthesized — with twiddles in Montgomery
//! form and data in plain form (see [`crate::tfg`]).
//!
//! Both butterfly orders are implemented (see [`BuOrder`] and DESIGN.md):
//! `Ct` for the bit-reversed-input DIT graph (geometric twiddles, the
//! primary mapping), `Gs` for the natural-input DIF graph (the paper's
//! Fig. 3 drawing; used by the inverse / no-bit-reversal path).

use crate::buffers::BufferFile;
use crate::cmd::{BuOrder, C1Params, OperandReg, TwiddleParams};
use crate::tfg::TwiddleGen;
use crate::PimError;
use modmath::montgomery::Montgomery32;

/// Functional CU state: modulus context and the two operand registers.
#[derive(Debug, Clone)]
pub struct ComputeUnit {
    mont: Option<Montgomery32>,
    reg_a: u32,
    reg_b: u32,
}

impl ComputeUnit {
    /// Creates a CU with no modulus configured (a `SetModulus` broadcast
    /// must arrive before any compute command).
    pub fn new() -> Self {
        Self {
            mont: None,
            reg_a: 0,
            reg_b: 0,
        }
    }

    /// Handles the `SetModulus` broadcast.
    ///
    /// # Errors
    ///
    /// Propagates [`modmath::Error`] for unusable moduli (even, < 3, or
    /// ≥ 2³¹) as [`PimError::Math`].
    pub fn set_modulus(&mut self, q: u32) -> Result<(), PimError> {
        self.mont = Some(Montgomery32::new(q)?);
        Ok(())
    }

    /// The configured Montgomery context.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] when no modulus has been broadcast yet.
    pub fn mont(&self) -> Result<&Montgomery32, PimError> {
        self.mont.as_ref().ok_or_else(|| PimError::BufferMisuse {
            reason: "compute command before SetModulus broadcast".into(),
        })
    }

    /// One butterfly in the selected order; `data` values are plain form,
    /// `w_mont` is the Montgomery-form twiddle.
    fn butterfly(mont: &Montgomery32, a: u32, b: u32, w_mont: u32, order: BuOrder) -> (u32, u32) {
        match order {
            BuOrder::Ct => {
                let t = mont.redc(b as u64 * w_mont as u64);
                (mont.add(a, t), mont.sub(a, t))
            }
            BuOrder::Gs => {
                let sum = mont.add(a, b);
                let diff = mont.sub(a, b);
                (sum, mont.redc(diff as u64 * w_mont as u64))
            }
        }
    }

    /// Executes C1: the intra-atom NTT over `params.points` lanes of `buf`
    /// (Algorithm 1, both graph directions).
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid buffers, lane counts that are
    /// not powers of two within the atom, or a step-count mismatch.
    pub fn exec_c1(
        &self,
        bufs: &mut BufferFile,
        buf: crate::cmd::BufId,
        params: &C1Params,
    ) -> Result<(), PimError> {
        let mont = *self.mont()?;
        let points = params.points as usize;
        if !points.is_power_of_two() || points < 2 || points > bufs.atom_words() {
            return Err(PimError::BufferMisuse {
                reason: format!("C1 over {points} points is not supported"),
            });
        }
        let log_p = points.trailing_zeros();
        if params.stage_steps_mont.len() != log_p as usize {
            return Err(PimError::BufferMisuse {
                reason: format!(
                    "C1 over {points} points needs {log_p} stage steps, got {}",
                    params.stage_steps_mont.len()
                ),
            });
        }
        let data = bufs.contents_mut(buf)?;
        let one_mont = mont.one();
        let stage = |data: &mut [u32], s: u32| {
            let m = 1usize << s;
            let step = params.stage_steps_mont[s as usize];
            for k in (0..points).step_by(2 * m) {
                // ω resets to 1 at each group boundary (generator re-seed).
                let mut gen = TwiddleGen::new(mont, one_mont, step);
                for j in 0..m {
                    let w = gen.next_twiddle();
                    let (x, y) =
                        Self::butterfly(&mont, data[k + j], data[k + j + m], w, params.order);
                    data[k + j] = x;
                    data[k + j + m] = y;
                }
            }
        };
        match params.order {
            BuOrder::Ct => {
                for s in 0..log_p {
                    stage(data, s);
                }
            }
            BuOrder::Gs => {
                for s in (0..log_p).rev() {
                    stage(data, s);
                }
            }
        }
        Ok(())
    }

    /// Executes C2: one `Na`-way vectorized butterfly between buffers `p`
    /// and `s` with per-lane twiddles `ω0·rω^l` (Algorithm 2).
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid or identical buffers.
    pub fn exec_c2(
        &self,
        bufs: &mut BufferFile,
        p: crate::cmd::BufId,
        s: crate::cmd::BufId,
        tw: TwiddleParams,
        order: BuOrder,
    ) -> Result<(), PimError> {
        let mont = *self.mont()?;
        let (pd, sd) = bufs.pair_mut(p, s)?;
        let mut gen = TwiddleGen::new(mont, tw.omega0_mont, tw.r_omega_mont);
        for l in 0..pd.len() {
            let w = gen.next_twiddle();
            let (x, y) = Self::butterfly(&mont, pd[l], sd[l], w, order);
            pd[l] = x;
            sd[l] = y;
        }
        Ok(())
    }

    /// Executes the `Scale` extension: lane `l` of `buf` is multiplied by
    /// `ω0·rω^l`.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid buffers.
    pub fn exec_scale(
        &self,
        bufs: &mut BufferFile,
        buf: crate::cmd::BufId,
        tw: TwiddleParams,
    ) -> Result<(), PimError> {
        let mont = *self.mont()?;
        let data = bufs.contents_mut(buf)?;
        let mut gen = TwiddleGen::new(mont, tw.omega0_mont, tw.r_omega_mont);
        for x in data.iter_mut() {
            let w = gen.next_twiddle();
            *x = mont.redc(*x as u64 * w as u64);
        }
        Ok(())
    }

    /// Executes the `Pointwise` extension: `p[l] ← p[l]·s[l]`.
    ///
    /// Both operands are plain-form residues, so the product needs a
    /// Montgomery-form correction: the CU multiplies by `R² mod q` (one
    /// extra REDC), exactly how a real datapath would fix the domain.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid or identical buffers.
    pub fn exec_pointwise(
        &self,
        bufs: &mut BufferFile,
        p: crate::cmd::BufId,
        s: crate::cmd::BufId,
    ) -> Result<(), PimError> {
        let mont = *self.mont()?;
        let (pd, sd) = bufs.pair_mut(p, s)?;
        for l in 0..pd.len() {
            // REDC(p·s) = p·s·R⁻¹; one more REDC against R² restores the
            // plain domain: REDC(t·R²) = t·R = p·s mod q.
            let t = mont.redc(pd[l] as u64 * sd[l] as u64);
            pd[l] = mont.to_mont(t);
        }
        Ok(())
    }

    /// Scalar µ-command: loads one buffer lane into an operand register.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid buffers or lanes.
    pub fn exec_reg_load(
        &mut self,
        bufs: &BufferFile,
        buf: crate::cmd::BufId,
        lane: u8,
        reg: OperandReg,
    ) -> Result<(), PimError> {
        let data = bufs.contents(buf)?;
        let v = *data
            .get(lane as usize)
            .ok_or_else(|| PimError::BufferMisuse {
                reason: format!("lane {lane} out of range"),
            })?;
        match reg {
            OperandReg::A => self.reg_a = v,
            OperandReg::B => self.reg_b = v,
        }
        Ok(())
    }

    /// Scalar µ-command: stores an operand register into one buffer lane.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for invalid buffers or lanes.
    pub fn exec_reg_store(
        &self,
        bufs: &mut BufferFile,
        buf: crate::cmd::BufId,
        lane: u8,
        reg: OperandReg,
    ) -> Result<(), PimError> {
        let data = bufs.contents_mut(buf)?;
        let slot = data
            .get_mut(lane as usize)
            .ok_or_else(|| PimError::BufferMisuse {
                reason: format!("lane {lane} out of range"),
            })?;
        *slot = match reg {
            OperandReg::A => self.reg_a,
            OperandReg::B => self.reg_b,
        };
        Ok(())
    }

    /// Scalar butterfly on the operand registers.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] when no modulus is configured.
    pub fn exec_reg_bu(&mut self, omega_mont: u32, order: BuOrder) -> Result<(), PimError> {
        let mont = *self.mont()?;
        let (a, b) = Self::butterfly(&mont, self.reg_a, self.reg_b, omega_mont, order);
        self.reg_a = a;
        self.reg_b = b;
        Ok(())
    }
}

impl Default for ComputeUnit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::BufId;
    use modmath::arith::pow_mod;
    use modmath::prime::NttField;

    const Q: u32 = 7681; // 7681 = 30*256+1 supports up to N=256 cyclic

    fn cu() -> ComputeUnit {
        let mut c = ComputeUnit::new();
        c.set_modulus(Q).unwrap();
        c
    }

    fn mont() -> Montgomery32 {
        Montgomery32::new(Q).unwrap()
    }

    #[test]
    fn compute_before_setmodulus_fails() {
        let c = ComputeUnit::new();
        let mut bufs = BufferFile::new(1, 8);
        bufs.fill(BufId(0), &[0; 8]).unwrap();
        let params = C1Params {
            points: 8,
            stage_steps_mont: vec![1, 1, 1],
            order: BuOrder::Ct,
        };
        assert!(c.exec_c1(&mut bufs, BufId(0), &params).is_err());
    }

    /// C1 over a full atom must equal the reference 8-point NTT.
    #[test]
    fn c1_ct_computes_8_point_ntt() {
        let field = NttField::new(8, Q as u64).unwrap();
        let w = field.root_of_unity();
        let m = mont();
        let c = cu();
        let mut bufs = BufferFile::new(1, 8);
        // Bit-reversed input for the DIT graph.
        let input: Vec<u64> = (1..=8u64).collect();
        let mut br = input.clone();
        modmath::bitrev::bitrev_permute(&mut br);
        bufs.fill(BufId(0), &br.iter().map(|&x| x as u32).collect::<Vec<_>>())
            .unwrap();
        // Stage steps: ω^(N/2^(s+1)) for N=8: s=0 → ω^4, s=1 → ω^2, s=2 → ω.
        let steps: Vec<u32> = (0..3)
            .map(|s| m.to_mont(pow_mod(w, 8 >> (s + 1), Q as u64) as u32))
            .collect();
        let params = C1Params {
            points: 8,
            stage_steps_mont: steps,
            order: BuOrder::Ct,
        };
        c.exec_c1(&mut bufs, BufId(0), &params).unwrap();
        let expect = ntt_ref::naive::ntt(&field, &input);
        let got: Vec<u64> = bufs
            .contents(BufId(0))
            .unwrap()
            .iter()
            .map(|&x| x as u64)
            .collect();
        assert_eq!(got, expect);
    }

    /// The GS order on the DIF graph computes the same NTT with the
    /// bit-reversal on the *output* side.
    #[test]
    fn c1_gs_computes_8_point_ntt_bitrev_out() {
        let field = NttField::new(8, Q as u64).unwrap();
        let w = field.root_of_unity();
        let m = mont();
        let c = cu();
        let mut bufs = BufferFile::new(1, 8);
        let input: Vec<u64> = vec![5, 1, 4, 2, 8, 6, 3, 7];
        bufs.fill(
            BufId(0),
            &input.iter().map(|&x| x as u32).collect::<Vec<_>>(),
        )
        .unwrap();
        let steps: Vec<u32> = (0..3)
            .map(|s| m.to_mont(pow_mod(w, 8 >> (s + 1), Q as u64) as u32))
            .collect();
        let params = C1Params {
            points: 8,
            stage_steps_mont: steps,
            order: BuOrder::Gs,
        };
        c.exec_c1(&mut bufs, BufId(0), &params).unwrap();
        let mut got: Vec<u64> = bufs
            .contents(BufId(0))
            .unwrap()
            .iter()
            .map(|&x| x as u64)
            .collect();
        modmath::bitrev::bitrev_permute(&mut got);
        assert_eq!(got, ntt_ref::naive::ntt(&field, &input));
    }

    #[test]
    fn c1_partial_atom_4_points() {
        let field = NttField::new(4, Q as u64).unwrap();
        let w = field.root_of_unity();
        let m = mont();
        let c = cu();
        let mut bufs = BufferFile::new(1, 8);
        let input = vec![3u64, 1, 4, 1];
        let mut br = input.clone();
        modmath::bitrev::bitrev_permute(&mut br);
        let mut atom: Vec<u32> = br.iter().map(|&x| x as u32).collect();
        atom.extend_from_slice(&[77; 4]); // untouched tail lanes
        bufs.fill(BufId(0), &atom).unwrap();
        let steps: Vec<u32> = (0..2)
            .map(|s| m.to_mont(pow_mod(w, 4 >> (s + 1), Q as u64) as u32))
            .collect();
        let params = C1Params {
            points: 4,
            stage_steps_mont: steps,
            order: BuOrder::Ct,
        };
        c.exec_c1(&mut bufs, BufId(0), &params).unwrap();
        let out = bufs.contents(BufId(0)).unwrap();
        let expect = ntt_ref::naive::ntt(&field, &input);
        for i in 0..4 {
            assert_eq!(out[i] as u64, expect[i]);
        }
        assert_eq!(&out[4..], &[77; 4], "tail lanes untouched");
    }

    #[test]
    fn c2_applies_geometric_twiddles() {
        let m = mont();
        let c = cu();
        let mut bufs = BufferFile::new(2, 8);
        let a: Vec<u32> = (1..=8).collect();
        let b: Vec<u32> = (11..=18).collect();
        bufs.fill(BufId(0), &a).unwrap();
        bufs.fill(BufId(1), &b).unwrap();
        let (omega0, r) = (3u32, 62u32);
        let tw = crate::tfg::params_to_mont(&m, omega0, r);
        c.exec_c2(&mut bufs, BufId(0), BufId(1), tw, BuOrder::Ct)
            .unwrap();
        let p = bufs.contents(BufId(0)).unwrap().to_vec();
        let s = bufs.contents(BufId(1)).unwrap().to_vec();
        for l in 0..8 {
            let w = modmath::arith::mul_mod(
                omega0 as u64,
                pow_mod(r as u64, l as u64, Q as u64),
                Q as u64,
            );
            let t = modmath::arith::mul_mod(b[l] as u64, w, Q as u64);
            assert_eq!(
                p[l] as u64,
                modmath::arith::add_mod(a[l] as u64, t, Q as u64)
            );
            assert_eq!(
                s[l] as u64,
                modmath::arith::sub_mod(a[l] as u64, t, Q as u64)
            );
        }
    }

    #[test]
    fn scale_multiplies_geometric_sequence() {
        let m = mont();
        let c = cu();
        let mut bufs = BufferFile::new(1, 8);
        bufs.fill(BufId(0), &[100; 8]).unwrap();
        let tw = crate::tfg::params_to_mont(&m, 2, 3);
        c.exec_scale(&mut bufs, BufId(0), tw).unwrap();
        let out = bufs.contents(BufId(0)).unwrap();
        for l in 0..8u64 {
            let w = modmath::arith::mul_mod(2, pow_mod(3, l, Q as u64), Q as u64);
            assert_eq!(
                out[l as usize] as u64,
                modmath::arith::mul_mod(100, w, Q as u64)
            );
        }
    }

    #[test]
    fn pointwise_is_plain_product() {
        let c = cu();
        let mut bufs = BufferFile::new(2, 8);
        let a: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 7680];
        let b: Vec<u32> = vec![7680, 100, 200, 300, 400, 500, 600, 7680];
        bufs.fill(BufId(0), &a).unwrap();
        bufs.fill(BufId(1), &b).unwrap();
        c.exec_pointwise(&mut bufs, BufId(0), BufId(1)).unwrap();
        let p = bufs.contents(BufId(0)).unwrap();
        for l in 0..8 {
            assert_eq!(
                p[l] as u64,
                modmath::arith::mul_mod(a[l] as u64, b[l] as u64, Q as u64)
            );
        }
        // s operand unchanged
        assert_eq!(bufs.contents(BufId(1)).unwrap(), b.as_slice());
    }

    #[test]
    fn scalar_reg_path_computes_one_butterfly() {
        let m = mont();
        let mut c = cu();
        let mut bufs = BufferFile::new(1, 8);
        bufs.fill(BufId(0), &[10, 20, 0, 0, 0, 0, 0, 0]).unwrap();
        c.exec_reg_load(&bufs, BufId(0), 0, OperandReg::A).unwrap();
        c.exec_reg_load(&bufs, BufId(0), 1, OperandReg::B).unwrap();
        c.exec_reg_bu(m.to_mont(5), BuOrder::Ct).unwrap();
        c.exec_reg_store(&mut bufs, BufId(0), 0, OperandReg::A)
            .unwrap();
        c.exec_reg_store(&mut bufs, BufId(0), 1, OperandReg::B)
            .unwrap();
        let out = bufs.contents(BufId(0)).unwrap();
        // BU(10, 20) with w=5: t=100, out = (110, 10-100 mod q).
        assert_eq!(out[0], 110);
        assert_eq!(out[1] as u64, modmath::arith::sub_mod(10, 100, Q as u64));
        // Out-of-range lane rejected.
        assert!(c.exec_reg_load(&bufs, BufId(0), 8, OperandReg::A).is_err());
    }
}
