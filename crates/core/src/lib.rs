//! NTT-PIM core: the row-centric PIM architecture and mapping of
//! *NTT-PIM: Row-Centric Architecture and Mapping for Efficient
//! Number-Theoretic Transform on PIM* (DAC 2023).
//!
//! The crate models the full stack the paper describes, from the host's
//! write-request interface down to individual DRAM commands:
//!
//! ```text
//! host request (N, q, ω, addr)            [`device::PimDevice`]
//!   → three-regime mapping                [`mapper`]
//!   → pipelined command schedule          [`sched`]
//!   → DRAM bank + compute unit execution  [`sim`], dram-sim crate
//! ```
//!
//! Architectural pieces (paper section in parentheses):
//!
//! * [`config`] — architecture parameters: `Na = 8`-word atom buffers,
//!   1 KB rows, CU latencies C1 = 15 / C2 = 10 cycles, buffer count `Nb`
//!   (Table I, §IV), and the device topology
//!   ([`config::Topology`]: `channels × ranks × banks`).
//! * [`cmd`] — the extended DRAM command set: `CU-read`, `CU-write`, `C1`,
//!   `C2`, parameter broadcast, and the scalar-register µ-command fallback
//!   used by the single-buffer strawman (§III.D, §IV.A).
//! * [`tfg`] — on-the-fly twiddle factor generation `ω ← ω·rω` in
//!   Montgomery form (§IV.A).
//! * [`layout`] — polynomial ↔ row/column/atom addressing.
//! * [`mapper`] — the three-regime mapping: intra-atom, intra-row,
//!   inter-row, with in-place update, pipelined interleaving, and same-row
//!   grouping (§III, §V).
//! * [`sched`] — in-order issue engine that turns a logical command stream
//!   into a timed, validated schedule with automatic row management; the
//!   multi-bank entry points give every channel its own command bus and
//!   every rank its own tRRD/tFAW window.
//! * [`sim`] — functional co-simulation (the paper's front-end-driver
//!   verification loop, §VI.A): each program is decoded once, checking
//!   buffer and address legality from empty buffers (the atom-buffer
//!   model lives in the private `buffers` module), then run as a flat
//!   loop over the bank's cells through the compute unit's datapath
//!   (Fig. 2, Algorithms 1–2: the Montgomery butterfly and the
//!   C1/C2/element-wise kernels over one 8-lane atom, in the private
//!   `cu` module).
//! * [`area`] — the Table II area model.
//! * [`energy`] — the Table III energy model.
//! * [`device`] — the host-visible API, including on-device polynomial
//!   multiplication and bank-level parallel NTT batches.
//! * [`helpers`] — the process-wide pool of parked helper threads that
//!   run a batch's banks concurrently ([`device::PimDevice::run_banks`]).
//!
//! # Quickstart
//!
//! ```
//! use ntt_pim_core::config::PimConfig;
//! use ntt_pim_core::device::{NttDirection, PimDevice};
//!
//! # fn main() -> Result<(), ntt_pim_core::PimError> {
//! let mut dev = PimDevice::new(PimConfig::hbm2e(2))?;
//! let q = 7681u32; // any odd prime with 2N | q-1 works
//! let poly: Vec<u32> = (0..256).map(|i| i % q).collect();
//! let handle = dev.load_polynomial_bitrev(0, &poly, q)?;
//! let report = dev.ntt(&handle, NttDirection::Forward)?;
//! assert!(report.latency_ns() > 0.0);
//! let spectrum = dev.read_polynomial(&handle)?;
//! assert_eq!(spectrum.len(), 256);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod area;
mod buffers;
pub mod cmd;
pub mod config;
mod cu;
pub mod device;
pub mod energy;
pub mod helpers;
pub mod layout;
pub mod mapper;
pub mod sched;
pub mod sim;
pub mod tfg;

mod error;

pub use error::PimError;
