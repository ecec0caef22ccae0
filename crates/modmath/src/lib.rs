//! Modular arithmetic substrate for the NTT-PIM reproduction.
//!
//! This crate provides the finite-field machinery that both the software
//! reference NTTs ([`ntt-ref`]) and the hardware compute-unit model
//! ([`ntt-pim-core`]) are built on, with one implementation per role:
//!
//! * plain widening modular arithmetic ([`arith`]) — the ground truth,
//! * 32-bit Montgomery reduction ([`montgomery`]) — the paper's CU
//!   multiplies with Montgomery's method (its reference \[23\]),
//! * Shoup constant-multiplication with Harvey lazy reduction ([`shoup`])
//!   — the tuned datapath every software NTT kernel runs on,
//! * bound-typed lazy residues ([`bound`]) — `Lazy<B>` newtypes that move
//!   the `[0, B·q)` magnitude contract of the lazy datapath into the type
//!   system, so an out-of-headroom butterfly composition is a compile
//!   error instead of a debug assertion,
//! * deterministic primality testing and NTT-friendly prime search
//!   ([`prime`]), and
//! * bit-reversal permutation helpers ([`bitrev`]).
//!
//! # Choosing a reduction strategy
//!
//! Three ways to compute `a·b mod q` live in this crate, one per role;
//! they trade setup cost against per-multiply cost differently:
//!
//! | Strategy | Per-multiply cost | Precomputation | Constraint | Role |
//! |---|---|---|---|---|
//! | Widening ([`arith::mul_mod`]) | `u128` multiply + `u128` remainder (a hardware divide) | none | `q < 2⁶³` | Ground truth, cold paths, table building — anywhere clarity beats speed. |
//! | Montgomery ([`montgomery::Montgomery32`]) | 1 multiply + REDC | per-modulus `q⁻¹ mod 2³²`, operands converted into Montgomery form | odd `q < 2³¹` | The PIM compute unit's datapath model. |
//! | Shoup-lazy ([`shoup`]) | 1 `mulhi` + 2 wrapping multiplies + 1 subtract; add/sub legs unreduced in `[0, 4q)` | one quotient per *constant* `w` | `q < 2⁶²`, one operand fixed | NTT butterflies: twiddles are precomputed constants, so this is the fastest software path; normalize once at the end. |
//!
//! Shoup only pays off when the multiplier is a known constant (the
//! quotient costs a division to set up); for products of two variable
//! operands use widening.
//!
//! # Example
//!
//! ```
//! use modmath::prime::NttField;
//!
//! # fn main() -> Result<(), modmath::Error> {
//! // A 32-bit field that supports length-1024 cyclic NTTs.
//! let field = NttField::with_bits(1024, 30)?;
//! let w = field.root_of_unity();
//! assert_eq!(modmath::arith::pow_mod(w, 1024, field.modulus()), 1);
//! assert_ne!(modmath::arith::pow_mod(w, 512, field.modulus()), 1);
//! # Ok(())
//! # }
//! ```
//!
//! [`ntt-ref`]: ../ntt_ref/index.html
//! [`ntt-pim-core`]: ../ntt_pim_core/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod bitrev;
pub mod bound;
pub mod montgomery;
pub mod prime;
pub mod shoup;

mod error;

pub use error::Error;

// Crate-root re-exports of the items nearly every dependent reaches
// for, so call sites read `modmath::NttField` instead of spelling the
// module path each time.
pub use bitrev::bitrev_permute;
pub use prime::{root_of_unity, NttField};
