//! Host-side execution pieces shared by every backend: the golden CPU
//! engine, the error and provenance types, and the value-free PIM cost
//! estimate.
//!
//! Jobs reach a device through one trait, `ntt_bus::NttBackend`, whose
//! unit of work is a batch (a single request is a batch of one). This
//! module holds what those backends are built from:
//!
//! * [`CpuNttEngine`] — the golden model: the iterative DIT dataflow
//!   from [`crate::reference`] on the Shoup/Harvey lazy-reduction
//!   datapath ([`modmath::shoup`]), with plans served from a shared
//!   [`PlanCache`]. The engine's window (`q < 2⁶²`) coincides with the
//!   lazy bound, so the widening kernel only runs when explicitly
//!   requested (benches) or for out-of-window experiments;
//!   [`cpu_kernel_label`] names the kernel a given modulus gets.
//!   Same-`(n, q)` micro-batches ride the lane-batched SoA kernel
//!   ([`crate::reference::lanes`]) through the `*_batch` methods;
//!   [`cpu_batch_kernel_label`] names that kernel.
//! * [`EngineError`] — the typed error every backend, executor and
//!   admission check returns.
//! * [`ReportSource`] — where a backend's timing numbers come from.
//! * [`pim_cost_estimate`] — simulated latency of one transform from a
//!   device configuration alone (mapping and scheduling, no storage).
//!
//! Every execution path works on natural-order `u64` coefficients and
//! derives the transform root the same way (`ψ = root_of_unity(2N, q)`,
//! `ω = ψ²`), so outputs are bit-identical wherever capability windows
//! overlap — the cross-backend parity tests rely on exactly that.
//!
//! [`batch::BatchExecutor`] fans mixed batches of forward/inverse/
//! polymul jobs across a PIM device's banks under a cost-model-driven
//! scheduler; see its module docs.

pub mod batch;

use crate::core::config::PimConfig;
use crate::core::PimError;
use crate::math::prime;
use crate::reference::cache::{PlanCache, PlanCacheStats};
use crate::reference::plan::NttPlan;
use std::fmt;
use std::sync::Arc;

/// Error type of the execution layer.
#[derive(Debug)]
pub enum EngineError {
    /// The backend cannot run this `(N, q)` combination: it is outside
    /// the backend's capability window.
    Unsupported {
        /// Backend display name.
        engine: String,
        /// Requested transform length.
        n: usize,
        /// Requested modulus.
        q: u64,
        /// Which capability failed.
        reason: String,
    },
    /// Malformed input (length mismatch, unreduced coefficients, …).
    Shape {
        /// What was wrong.
        reason: String,
    },
    /// An underlying PIM device/mapper/scheduler error.
    Pim(PimError),
    /// An underlying modular-arithmetic error.
    Math(modmath::Error),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Unsupported {
                engine,
                n,
                q,
                reason,
            } => write!(f, "{engine} does not support N={n}, q={q}: {reason}"),
            EngineError::Shape { reason } => write!(f, "bad input: {reason}"),
            EngineError::Pim(e) => write!(f, "PIM error: {e}"),
            EngineError::Math(e) => write!(f, "math error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PimError> for EngineError {
    fn from(e: PimError) -> Self {
        EngineError::Pim(e)
    }
}

impl From<modmath::Error> for EngineError {
    fn from(e: modmath::Error) -> Self {
        EngineError::Math(e)
    }
}

/// Where a backend's timing numbers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportSource {
    /// Simulation: the cycle-approximate PIM device, or the CPU lanes'
    /// deterministic analytic timing model.
    Simulated,
    /// Published datapoints (baseline models).
    Published,
}

/// Reference modulus for value-independent PIM timing estimates
/// (`15·2^27 + 1` covers every practical transform length).
const PIM_ESTIMATE_Q: u64 = 2_013_265_921;

/// Simulated latency of one forward NTT for a configuration, ns —
/// mapping and scheduling only, no device (and no bank storage) needed.
/// Timing does not depend on coefficient values or the modulus, so one
/// reference modulus serves every request. `None` when the length cannot
/// be mapped on this configuration.
pub fn pim_cost_estimate(
    config: &PimConfig,
    opts: &crate::core::mapper::MapperOptions,
    n: usize,
) -> Option<f64> {
    let layout = crate::core::layout::PolyLayout::new(config, 0, n).ok()?;
    let omega = prime::root_of_unity(n as u64, PIM_ESTIMATE_Q).ok()? as u32;
    let program = crate::core::mapper::map_ntt(
        config,
        &layout,
        &crate::core::mapper::NttParams {
            q: PIM_ESTIMATE_Q as u32,
            omega,
        },
        &crate::core::mapper::MapperOptions {
            dataflow: crate::core::mapper::Dataflow::DitFromBitrev,
            inverse: false,
            ..*opts
        },
    )
    .ok()?;
    let job = crate::core::sched::DagJob::plain(&program);
    let qt = crate::core::sched::schedule_queues_unlogged(config, &[vec![job]]).ok()?;
    Some(qt.latency_ns())
}

/// Which software kernel the CPU engine runs for modulus `q`: the
/// Shoup/Harvey lazy-reduction datapath whenever `q` is inside the lazy
/// bound (`q < 2⁶²`), the 128-bit widening kernel otherwise. Every
/// modulus inside [`CpuNttEngine`]'s capability window is lazy.
pub fn cpu_kernel_label(q: u64) -> &'static str {
    if modmath::shoup::supports(q) {
        "shoup-lazy"
    } else {
        "widening"
    }
}

/// Which software kernel a *batch* of `batch` same-`(n, q)` transforms
/// runs on the CPU backend: the lane-batched SoA kernel
/// ([`crate::reference::lanes`]) once the batch fills at least one lane
/// group, the scalar kernels below that (`"lanes8"`, `"shoup-lazy"` or
/// `"widening"`).
pub fn cpu_batch_kernel_label(q: u64, batch: usize) -> &'static str {
    if !modmath::shoup::supports(q) {
        "widening"
    } else if batch >= crate::reference::lanes::LANE_WIDTH {
        crate::reference::lanes::kernel_label()
    } else {
        "shoup-lazy"
    }
}

/// Checks one operand against the golden engine's window — power-of-two
/// `n ≥ 4`, prime `q` inside the lazy bound with `2N | q−1` (so the
/// negacyclic product is available too) — and that it is reduced.
fn check_input(data: &[u64], q: u64) -> Result<(), EngineError> {
    let n = data.len();
    let in_window = n.is_power_of_two()
        && n >= 4
        && modmath::shoup::supports(q)
        && q > 2
        && prime::is_prime(q)
        && (q - 1) % (2 * n as u64) == 0;
    if !in_window {
        return Err(EngineError::Unsupported {
            engine: "cpu-golden".into(),
            n,
            q,
            reason: "outside the engine's capability window".into(),
        });
    }
    if data.iter().any(|&c| c >= q) {
        return Err(EngineError::Shape {
            reason: "coefficients must be reduced modulo q".into(),
        });
    }
    Ok(())
}

/// Validates a polymul's second operand: length `n` (the first operand's)
/// and reduced mod `q`.
fn check_rhs(n: usize, b: &[u64], q: u64) -> Result<(), EngineError> {
    if b.len() != n {
        return Err(EngineError::Shape {
            reason: "operand lengths differ".into(),
        });
    }
    if b.iter().any(|&c| c >= q) {
        return Err(EngineError::Shape {
            reason: "coefficients must be reduced modulo q".into(),
        });
    }
    Ok(())
}

/// The golden CPU NTT: the iterative-DIT reference dataflow with
/// `(N, q)` plans served from a shared thread-safe [`PlanCache`].
/// Transforms run the Shoup-lazy kernel for every modulus inside the
/// capability window (see [`cpu_kernel_label`]); every backend's output
/// is checked against this engine.
///
/// Engines built with [`Self::golden`] share the process-wide
/// [`PlanCache::global`] cache, so short-lived per-thread instances (the
/// serving layer's pattern) never rebuild the O(N·log N) twiddle/Shoup
/// tables another engine already built. Hand [`Self::with_cache`] an
/// explicit cache to isolate or audit lookups.
///
/// ```
/// use ntt_pim::core::config::PimConfig;
/// use ntt_pim::core::device::{NttDirection, PimDevice};
/// use ntt_pim::engine::CpuNttEngine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let golden = CpuNttEngine::golden();
/// let (n, q) = (256usize, 12289u64);
/// let input: Vec<u64> = (0..n as u64).map(|i| i * 7 % q).collect();
/// let mut spectrum = input.clone();
/// golden.forward(&mut spectrum, q)?;
/// // Roundtrip: inverse undoes forward.
/// let mut back = spectrum.clone();
/// golden.inverse(&mut back, q)?;
/// assert_eq!(back, input);
///
/// // The PIM device agrees bit-for-bit on the paper path.
/// let mut device = PimDevice::new(PimConfig::hbm2e(2))?;
/// let words: Vec<u32> = input.iter().map(|&c| c as u32).collect();
/// let mut h = device.load_polynomial_bitrev(0, &words, q as u32)?;
/// device.ntt_in_place(&mut h, NttDirection::Forward)?;
/// let on_device: Vec<u64> = device.read_polynomial(&h)?.into_iter().map(u64::from).collect();
/// assert_eq!(on_device, spectrum);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CpuNttEngine {
    cache: Arc<PlanCache>,
}

impl Default for CpuNttEngine {
    fn default() -> Self {
        Self::golden()
    }
}

impl CpuNttEngine {
    /// The golden engine, sharing the process-wide plan cache.
    pub fn golden() -> Self {
        Self::with_cache(PlanCache::global())
    }

    /// An engine serving its plans from `cache` (shared with any number
    /// of sibling engines across threads).
    pub fn with_cache(cache: Arc<PlanCache>) -> Self {
        Self { cache }
    }

    /// The plan cache this engine reads through.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Hit/miss counters of the engine's plan cache.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.cache.stats()
    }

    fn plan(&self, n: usize, q: u64) -> Result<Arc<NttPlan>, EngineError> {
        // The cache centralizes the ψ derivation (root_of_unity(2N, q)),
        // the same derivation as the PIM memory controller, so every
        // backend transforms with the identical root.
        self.cache.get_or_build(n, q).map_err(EngineError::from)
    }

    /// Forward cyclic NTT in place (natural order in and out).
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] outside the capability window,
    /// [`EngineError::Shape`] for unreduced coefficients.
    pub fn forward(&self, data: &mut [u64], q: u64) -> Result<(), EngineError> {
        check_input(data, q)?;
        self.plan(data.len(), q)?.forward(data);
        Ok(())
    }

    /// Inverse cyclic NTT in place, including the `N⁻¹` scaling.
    ///
    /// # Errors
    ///
    /// As [`Self::forward`].
    pub fn inverse(&self, data: &mut [u64], q: u64) -> Result<(), EngineError> {
        check_input(data, q)?;
        self.plan(data.len(), q)?.inverse(data);
        Ok(())
    }

    /// Negacyclic product `a ← a·b mod (X^N + 1, q)`.
    ///
    /// # Errors
    ///
    /// As [`Self::forward`], plus [`EngineError::Shape`] when the
    /// operand lengths differ or `b` is unreduced; `a` is untouched on
    /// any error.
    pub fn negacyclic_polymul(&self, a: &mut [u64], b: &[u64], q: u64) -> Result<(), EngineError> {
        check_input(a, q)?;
        check_rhs(a.len(), b, q)?;
        let plan = self.plan(a.len(), q)?;
        let product = crate::reference::poly::mul_negacyclic(&plan, a, b);
        a.copy_from_slice(&product);
        Ok(())
    }

    /// Validates a same-`(n, q)` batch and fetches its plan (`None` for
    /// an empty batch).
    fn batch_plan(&self, polys: &[Vec<u64>], q: u64) -> Result<Option<Arc<NttPlan>>, EngineError> {
        let Some(first) = polys.first() else {
            return Ok(None);
        };
        let n = first.len();
        for p in polys {
            if p.len() != n {
                return Err(EngineError::Shape {
                    reason: "batch polynomial lengths differ".into(),
                });
            }
            check_input(p, q)?;
        }
        self.plan(n, q).map(Some)
    }

    /// Forward cyclic NTT of a whole same-`(n, q)` batch, in place.
    ///
    /// Batches of at least [`crate::reference::lanes::LANE_WIDTH`]
    /// polynomials ride the lane-batched SoA kernel
    /// ([`crate::reference::lanes`]); the ragged tail — and any batch
    /// over a widening-only modulus — runs the scalar kernel. Outputs
    /// are bit-identical to [`Self::forward`] either way. Returns how
    /// many polynomials rode the lane kernel; see
    /// [`cpu_batch_kernel_label`] for the kernel-name side of the same
    /// policy.
    ///
    /// # Errors
    ///
    /// [`EngineError::Shape`] when polynomial lengths differ or any
    /// coefficient is unreduced; [`EngineError::Unsupported`] outside
    /// the capability window.
    pub fn forward_batch(&self, polys: &mut [Vec<u64>], q: u64) -> Result<usize, EngineError> {
        Ok(match self.batch_plan(polys, q)? {
            Some(plan) => crate::reference::lanes::forward_batch(&plan, polys),
            None => 0,
        })
    }

    /// Inverse cyclic NTT of a whole same-`(n, q)` batch (includes the
    /// `N⁻¹` scaling); lane-batched counterpart of [`Self::inverse`].
    /// Same selection policy and return contract as
    /// [`Self::forward_batch`].
    ///
    /// # Errors
    ///
    /// As [`Self::forward_batch`].
    pub fn inverse_batch(&self, polys: &mut [Vec<u64>], q: u64) -> Result<usize, EngineError> {
        Ok(match self.batch_plan(polys, q)? {
            Some(plan) => crate::reference::lanes::inverse_batch(&plan, polys),
            None => 0,
        })
    }

    /// Negacyclic products `lhs[i] ← lhs[i]·rhs[i] mod (Xᴺ + 1, q)` for
    /// a whole same-`(n, q)` batch; lane-batched counterpart of
    /// [`Self::negacyclic_polymul`]. Same selection policy and return
    /// contract as [`Self::forward_batch`].
    ///
    /// # Errors
    ///
    /// As [`Self::forward_batch`], plus [`EngineError::Shape`] when
    /// `lhs` and `rhs` differ in batch size or operand length.
    pub fn negacyclic_polymul_batch(
        &self,
        lhs: &mut [Vec<u64>],
        rhs: &[Vec<u64>],
        q: u64,
    ) -> Result<usize, EngineError> {
        if lhs.len() != rhs.len() {
            return Err(EngineError::Shape {
                reason: "batch lengths differ".into(),
            });
        }
        let Some(plan) = self.batch_plan(lhs, q)? else {
            return Ok(0);
        };
        for (a, b) in lhs.iter().zip(rhs) {
            check_rhs(a.len(), b, q)?;
        }
        Ok(crate::reference::lanes::negacyclic_polymul_batch(
            &plan, lhs, rhs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::device::{NttDirection, PimDevice};
    use crate::math::prime::NttField;

    const Q: u64 = 12289;

    fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
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

    fn words(v: &[u64]) -> Vec<u32> {
        v.iter().map(|&c| c as u32).collect()
    }

    #[test]
    fn pim_engine_roundtrips_and_reports_simulated_cost() {
        // The paper path: bit-reversed load, one write request, readback.
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let x = poly(256, Q, 1);
        let mut h = dev.load_polynomial_bitrev(0, &words(&x), Q as u32).unwrap();
        let rep = dev.ntt_in_place(&mut h, NttDirection::Forward).unwrap();
        let spectrum: Vec<u64> = dev
            .read_polynomial(&h)
            .unwrap()
            .into_iter()
            .map(u64::from)
            .collect();
        assert_ne!(spectrum, x);
        assert!(rep.latency_ns() > 0.0);
        assert!(rep.energy.total_nj > 0.0);
        assert!(rep.activations() >= 1);
        let mut expect = x.clone();
        CpuNttEngine::golden().forward(&mut expect, Q).unwrap();
        assert_eq!(spectrum, expect);
        dev.ntt_in_place(&mut h, NttDirection::Inverse).unwrap();
        assert_eq!(dev.read_polynomial(&h).unwrap(), words(&x));
    }

    #[test]
    fn cpu_engines_default_to_the_lazy_kernel() {
        // The CPU capability window (q < 2^62) coincides with the Shoup
        // lazy bound, so every supported request runs the lazy datapath.
        for q in [7681u64, 12289, 8_380_417, 2_013_265_921] {
            assert_eq!(cpu_kernel_label(q), "shoup-lazy");
            let psi = prime::root_of_unity(512, q).unwrap();
            let plan = NttPlan::new(NttField::with_psi(256, q, psi).unwrap());
            assert!(plan.uses_lazy(), "q={q}");
        }
        assert_eq!(cpu_kernel_label(1 << 62), "widening");
    }

    #[test]
    fn cpu_batch_kernel_label_tracks_lane_policy() {
        let lane = crate::reference::lanes::LANE_WIDTH;
        assert_eq!(
            cpu_batch_kernel_label(Q, lane),
            crate::reference::lanes::kernel_label()
        );
        assert_eq!(cpu_batch_kernel_label(Q, lane - 1), "shoup-lazy");
        assert_eq!(cpu_batch_kernel_label(1 << 62, 64), "widening");
    }

    #[test]
    fn cpu_batch_entry_points_match_scalar_and_count_lanes() {
        let e = CpuNttEngine::golden();
        let lane = crate::reference::lanes::LANE_WIDTH;
        let batch = lane + 3; // one lane group + a ragged scalar tail
        let orig: Vec<Vec<u64>> = (0..batch as u64).map(|i| poly(256, Q, 50 + i)).collect();

        let mut fwd = orig.clone();
        assert_eq!(e.forward_batch(&mut fwd, Q).unwrap(), lane);
        for (i, p) in orig.iter().enumerate() {
            let mut expect = p.clone();
            e.forward(&mut expect, Q).unwrap();
            assert_eq!(fwd[i], expect, "poly {i}");
        }

        assert_eq!(e.inverse_batch(&mut fwd, Q).unwrap(), lane);
        assert_eq!(fwd, orig, "batch roundtrip");

        let rhs: Vec<Vec<u64>> = (0..batch as u64).map(|i| poly(256, Q, 80 + i)).collect();
        let mut prod = orig.clone();
        assert_eq!(
            e.negacyclic_polymul_batch(&mut prod, &rhs, Q).unwrap(),
            lane
        );
        for (i, (a, b)) in orig.iter().zip(&rhs).enumerate() {
            let mut expect = a.clone();
            e.negacyclic_polymul(&mut expect, b, Q).unwrap();
            assert_eq!(prod[i], expect, "poly {i}");
        }

        // Validation mirrors the scalar entry points.
        let mut bad = vec![vec![Q; 256]; lane];
        assert!(matches!(
            e.forward_batch(&mut bad, Q),
            Err(EngineError::Shape { .. })
        ));
        let mut ragged = vec![poly(256, Q, 1), poly(128, Q, 2)];
        assert!(matches!(
            e.forward_batch(&mut ragged, Q),
            Err(EngineError::Shape { .. })
        ));
        assert_eq!(e.forward_batch(&mut [], Q).unwrap(), 0);
    }

    #[test]
    fn cpu_engines_roundtrip() {
        let e = CpuNttEngine::golden();
        for q in [7681u64, Q, 8_380_417] {
            let n = if q == 7681 { 256 } else { 1024 };
            let x = poly(n, q, 2);
            let mut v = x.clone();
            e.forward(&mut v, q).unwrap();
            assert_ne!(v, x);
            e.inverse(&mut v, q).unwrap();
            assert_eq!(v, x, "q={q}");
        }
    }

    #[test]
    fn unsupported_requests_are_rejected_not_computed() {
        let e = CpuNttEngine::golden();
        // 7681 has no 2048-th root of unity: N=1024 is outside the window.
        let x = poly(1024, 7681, 4);
        let mut v = x.clone();
        let err = e.forward(&mut v, 7681).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported { .. }), "{err}");
        // Beyond the lazy bound, and a non-power-of-two length.
        let mut wide = vec![1u64; 256];
        assert!(matches!(
            e.forward(&mut wide, (1 << 62) + 1),
            Err(EngineError::Unsupported { .. })
        ));
        let mut odd = vec![1u64; 100];
        assert!(matches!(
            e.inverse(&mut odd, Q),
            Err(EngineError::Unsupported { .. })
        ));
        assert_eq!(v, x, "rejected input untouched");
    }

    #[test]
    fn unreduced_input_is_rejected() {
        let e = CpuNttEngine::golden();
        let mut v = vec![Q; 256];
        assert!(matches!(
            e.forward(&mut v, Q),
            Err(EngineError::Shape { .. })
        ));
        // A malformed second operand is rejected before anything runs.
        let a = poly(256, Q, 7);
        let mut va = a.clone();
        assert!(matches!(
            e.negacyclic_polymul(&mut va, &poly(128, Q, 8), Q),
            Err(EngineError::Shape { .. })
        ));
        assert!(matches!(
            e.negacyclic_polymul(&mut va, &vec![Q; 256], Q),
            Err(EngineError::Shape { .. })
        ));
        assert_eq!(va, a, "operand a untouched on rejection");
    }

    #[test]
    fn engines_agree_on_negacyclic_product() {
        let n = 256;
        let a = poly(n, Q, 5);
        let b = poly(n, Q, 6);
        let expect = crate::reference::naive::negacyclic_convolution(&a, &b, Q);
        let mut va = a.clone();
        CpuNttEngine::golden()
            .negacyclic_polymul(&mut va, &b, Q)
            .unwrap();
        assert_eq!(va, expect);
        let config = PimConfig::hbm2e(4);
        let mut dev = PimDevice::new(config).unwrap();
        let ha = dev.load_polynomial(0, &words(&a), Q as u32).unwrap();
        let hb = dev
            .load_polynomial(config.polymul_rhs_base(n), &words(&b), Q as u32)
            .unwrap();
        dev.polymul_negacyclic(&ha, &hb).unwrap();
        assert_eq!(dev.read_polynomial(&ha).unwrap(), words(&expect));
    }

    #[test]
    fn cost_estimates_exist_for_modeled_backends() {
        use crate::baselines::{MenttModel, NttAccelerator};
        let config = PimConfig::hbm2e(2);
        let est = pim_cost_estimate(&config, &Default::default(), 1024).unwrap();
        assert!(est > 0.0);
        assert!(
            pim_cost_estimate(&config, &Default::default(), 4096).unwrap() > est,
            "longer transforms cost more"
        );
        assert!(MenttModel.latency_ns(512).is_some());
        assert!(MenttModel.latency_ns(4096).is_none(), "beyond max N");
    }

    #[test]
    fn engines_share_plans_through_the_cache() {
        // Two "worker" engines on one explicit cache: the second worker's
        // transforms are all cache hits — the O(N log N) table build
        // happened exactly once.
        let cache = Arc::new(PlanCache::new());
        let w1 = CpuNttEngine::with_cache(cache.clone());
        let w2 = CpuNttEngine::with_cache(cache.clone());
        let x = poly(256, Q, 9);
        let mut a = x.clone();
        w1.forward(&mut a, Q).unwrap();
        assert_eq!(cache.stats().misses, 1);
        let mut b = x.clone();
        w2.forward(&mut b, Q).unwrap();
        assert_eq!(a, b, "workers agree through the shared plan");
        let stats = w2.cache_stats();
        assert_eq!(stats.misses, 1, "no rebuild for the second engine");
        assert!(stats.hits >= 1);
        assert_eq!(stats.entries, 1);
        // Default-constructed engines all share the global cache.
        let g1 = CpuNttEngine::golden();
        let g2 = CpuNttEngine::default();
        assert!(Arc::ptr_eq(g1.plan_cache(), g2.plan_cache()));
        assert!(Arc::ptr_eq(g1.plan_cache(), &PlanCache::global()));
    }

    #[test]
    fn parallel_lanes_follow_the_device_topology() {
        use crate::core::config::Topology;
        use batch::{BatchExecutor, DeviceCostModel};
        assert_eq!(
            BatchExecutor::new(PimConfig::hbm2e(2))
                .unwrap()
                .bank_count(),
            1
        );
        let sharded = PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4));
        assert_eq!(BatchExecutor::new(sharded).unwrap().bank_count(), 16);
        assert_eq!(DeviceCostModel::new(sharded).unwrap().lanes(), 16);
    }
}
