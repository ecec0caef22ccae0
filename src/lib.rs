//! # ntt-pim — a reproduction of *NTT-PIM: Row-Centric Architecture and
//! Mapping for Efficient Number-Theoretic Transform on PIM* (DAC 2023)
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `ntt-pim-core` | The PIM architecture: device, mapper, scheduler, compute unit, area/energy models |
//! | [`dram`] | `dram-sim` | The DRAM bank timing/functional simulator (DRAMsim3 substitute) |
//! | [`mod@reference`] | `ntt-ref` | CPU golden models and the software baseline |
//! | [`math`] | `modmath` | Modular arithmetic: widening ground truth, the CU's 32-bit Montgomery, Shoup-lazy reduction; primes, roots |
//! | [`baselines`] | `pim-baselines` | Published-point models of MeNTT / CryptoPIM / x86 / FPGA |
//! | [`fhe`] | `fhe-lite` | Toy RLWE/BFV workload generator |
//! | [`engine`] | (this crate) | The golden [`engine::CpuNttEngine`], the shared [`engine::EngineError`], and [`engine::batch::BatchExecutor`] for bank-parallel job batches; the one backend trait over all of them is `ntt_bus::NttBackend` |
//!
//! ## Quickstart
//!
//! ```
//! use ntt_pim::core::config::PimConfig;
//! use ntt_pim::core::device::{NttDirection, PimDevice};
//!
//! # fn main() -> Result<(), ntt_pim::core::PimError> {
//! // An HBM2E bank with one secondary atom buffer (the paper's Nb = 2).
//! let mut device = PimDevice::new(PimConfig::hbm2e(2))?;
//!
//! // Host side: pick an NTT-friendly modulus, stage the polynomial
//! // bit-reversed (software bit reversal, as the paper assumes).
//! let q = 12289u32; // 12289 = 3 * 2^12 + 1 supports length-1024 NTTs
//! let poly: Vec<u32> = (0..1024).map(|i| i * 3 % q).collect();
//! let mut handle = device.load_polynomial_bitrev(0, &poly, q)?;
//!
//! // One write request = one NTT (paper §IV.A).
//! let report = device.ntt_in_place(&mut handle, NttDirection::Forward)?;
//! println!(
//!     "N=1024 NTT: {:.2} µs, {} row activations, {:.2} nJ",
//!     report.latency_us(),
//!     report.activations(),
//!     report.energy.total_nj
//! );
//! let _spectrum = device.read_polynomial(&handle)?;
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;

pub use dram_sim as dram;
pub use fhe_lite as fhe;
pub use modmath as math;
pub use ntt_pim_core as core;
pub use ntt_ref as reference;
pub use pim_baselines as baselines;
