//! Pluggable backend bus for the NTT-PIM workspace.
//!
//! The paper's framing is comparative — row-centric DRAM PIM against
//! other NTT accelerators — and this crate is the layer that makes the
//! comparison *operational*: the PIM simulator, the lane-batched CPU
//! dataflows, and the published accelerator models (MeNTT, BP-NTT)
//! all sit behind one [`NttBackend`] trait as co-simulated,
//! interchangeable devices, each advertising an honest
//! [`CapabilityWindow`] (modulus bounds, max `N`, lane count) and a
//! queryable cost model ([`BusCostModel`]). It is the workspace's one
//! execution trait: a single request is `run(&[job])`, admission goes
//! through the window and pricing through the cost model.
//!
//! The pieces:
//!
//! * [`backend`] — the [`NttBackend`] trait plus the three first-class
//!   implementations: [`PimBackend`] (cycle-approximate bank-parallel
//!   simulation), [`CpuLanesBackend`] (bit-identical host compute with
//!   a deterministic analytic lane-timing model), and
//!   [`PublishedBackend`] (golden-path compute priced by published
//!   datapoints).
//! * [`cost`] — [`BusCostModel`], the per-`(n, q, kind)` cost metadata
//!   the heterogeneous fleet router quotes before placing a
//!   micro-batch.
//! * [`window`] — [`BackendKind`] and [`CapabilityWindow`]; window
//!   violations are typed [`EngineError::Unsupported`] values, never
//!   panics.
//! * [`spec`] — [`BackendSpec`], the parseable description
//!   (`"pim:2,cpu-lanes:1,bp-ntt:1"`, at most [`MAX_FLEET_SLOTS`] slots)
//!   the service and CLI build fleets from: [`BackendSpec::build`] stands
//!   up one `Box<dyn NttBackend>` per slot.
//!
//! Every backend computes bit-identical results for any admitted job —
//! the published models and the CPU lanes run the same golden kernels;
//! only the *timing* provenance differs ([`BatchOutcome::source`]).
//! That invariant is what lets the serving layer route a job to
//! whichever backend is predicted cheapest without changing a single
//! output bit; the parity tests in this crate pin it.

pub mod backend;
pub mod cost;
pub mod spec;
pub mod window;

pub use backend::{CpuLanesBackend, NttBackend, PimBackend, PublishedBackend};
pub use cost::{BusCostModel, CpuLaneCostModel, PublishedCostModel};
pub use spec::{BackendSpec, PublishedKind, SchedulePolicy, MAX_FLEET_SLOTS};
pub use window::{BackendKind, CapabilityWindow};

// Re-exported so bus consumers (service, bench, CLI) name job, outcome
// and error types through one crate.
pub use ntt_pim::engine::batch::{BatchOutcome, NttJob};
pub use ntt_pim::engine::EngineError;
