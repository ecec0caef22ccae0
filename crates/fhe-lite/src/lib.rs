//! A deliberately small RLWE/BFV layer providing the FHE workload that
//! motivates NTT-PIM (paper §I–II: "we target Fully Homomorphic
//! Encryption, where the most important function is NTT").
//!
//! **Not secure, not constant-time, toy parameters** — the point is the
//! *NTT call pattern*: every encrypt/decrypt/multiply is a handful of
//! negacyclic polynomial products, each of which is NTTs plus pointwise
//! work, and with RNS (residue number system) representation those NTTs
//! are independent per modulus — exactly the bank-level parallelism the
//! paper's conclusion anticipates.
//!
//! This crate only generates that workload; it knows nothing of the
//! device. To offload it, turn residue `i` of an [`rns::RnsPoly`] into
//! one job of the facade's batch executor
//! (`ntt_pim::engine::batch::NttJob::forward(residues, q_i)`, or
//! `NttJob::negacyclic_polymul(a_i, b_i, q_i)` for a ring product) and
//! run all of them in one `BatchExecutor::run`, as the `bank_parallel`
//! and `fhe_polymul` examples do.
//!
//! Modules: [`params`] (parameter sets), [`sampler`] (seeded uniform /
//! ternary / centered-binomial), [`rns`] (RNS polynomials with CRT
//! reconstruction), [`bfv`] (textbook BFV-style encrypt / decrypt /
//! homomorphic add / plaintext multiply), [`noise`] (noise-budget
//! analysis).

#![warn(missing_docs)]

pub mod bfv;
pub mod noise;
pub mod params;
pub mod rns;
pub mod sampler;

mod error;

pub use error::FheError;
