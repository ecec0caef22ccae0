//! Reference (CPU) implementations of the number-theoretic transform.
//!
//! This crate plays two roles in the NTT-PIM reproduction:
//!
//! 1. **Golden models.** Every hardware-mapped transform in
//!    [`ntt-pim-core`] is checked against these software implementations,
//!    starting from the naive O(N²) DFT ([`naive`]) that anchors the whole
//!    chain of trust.
//! 2. **The "x86 CPU" baseline.** The paper's Figs. 7–8 and Table III
//!    compare PIM latency against a software NTT; [`baseline`] times
//!    [`plan::NttPlan::forward`] on the host machine.
//!
//! Each host-side role has exactly one implementation:
//!
//! * [`plan`] — [`plan::NttPlan`], the one tuned host kernel: forward and
//!   inverse, cyclic and negacyclic transforms on the Shoup/Harvey
//!   lazy-reduction datapath ([`modmath::shoup`]) whenever `q < 2⁶²`,
//!   with the 128-bit widening kernel as the fallback above that bound.
//!   Its lane-batched entry points ride [`lanes`].
//! * [`iterative`] — the in-place Cooley–Tukey DIT (bit-reversed input →
//!   natural output) and Gentleman–Sande DIF (natural → bit-reversed)
//!   stage loops the plan runs, plus the widening DIT kernel the
//!   `ntt_kernels` gate measures the lazy datapath against. The DIT graph
//!   with its geometric per-group twiddle sequences is exactly what the
//!   PIM compute unit executes.
//! * [`lanes`] — the lane-batched structure-of-arrays datapath: `L`
//!   polynomials per butterfly in lockstep, each twiddle (and Shoup
//!   quotient) loaded once per `L` residues. The throughput kernel for
//!   batched service traffic: one portable kernel, bit-identical to
//!   [`plan::NttPlan`]'s scalar legs.
//! * [`naive`] — O(N²) evaluation over widening [`modmath::arith`], the
//!   ground truth.
//! * [`blocked`] — the DIT transform reorganized into the paper's
//!   row-centric decomposition (§III.A): independent block-local stages
//!   followed by cross-block stages, with [`blocked::BlockedStats`]
//!   counting the intra-row / inter-row traffic split.
//! * [`stockham`] — self-sorting dataflow \[18\], an independent
//!   cross-check that shares no stage loop with [`iterative`].
//! * [`four_step`] — the four-step decomposition: the split planner
//!   ([`four_step::plan_split`]) and the CPU oracle of split transforms.
//! * [`cache`] — the shared, thread-safe `(n, q) → NttPlan` cache, so
//!   concurrent workers build each twiddle/Shoup table set once.
//! * [`poly`] — cyclic and negacyclic polynomial multiplication built on the
//!   transforms, exercising the convolution theorem end to end.
//! * [`baseline`] — the timed host transform of the paper's "x86 CPU"
//!   column.
//!
//! # Example
//!
//! ```
//! use modmath::prime::NttField;
//! use ntt_ref::plan::NttPlan;
//!
//! # fn main() -> Result<(), modmath::Error> {
//! let field = NttField::with_bits(8, 13)?;
//! let plan = NttPlan::new(field);
//! let mut data = vec![1, 2, 3, 4, 5, 6, 7, 8];
//! let original = data.clone();
//! plan.forward(&mut data);
//! plan.inverse(&mut data);
//! assert_eq!(data, original);
//! # Ok(())
//! # }
//! ```
//!
//! [`ntt-pim-core`]: ../ntt_pim_core/index.html

#![warn(missing_docs)]

pub mod baseline;
pub mod blocked;
pub mod cache;
pub mod four_step;
pub mod iterative;
pub mod lanes;
pub mod naive;
pub mod plan;
pub mod poly;
pub mod stockham;
