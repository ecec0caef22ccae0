//! A snapshot of the functional simulator's results: one digest over the
//! words every program of a grid of shapes leaves in the bank, run on
//! seeded operands, pinned in the source.
//!
//! The grid is a sub-grid of `program_snapshot.rs`'s: every buffer count
//! Nb ∈ {1, 2, 4, 6}; the moduli 7681, 12289, 8380417 and 2013265921;
//! every length N from 4 to 4096 that the modulus supports (2N | q − 1;
//! N ≤ 1024 for the single-buffer scalar mapping, ten commands a
//! butterfly); in-place and ping-pong update; grouped and ungrouped. Each shape maps five programs through the device's
//! builders:
//!
//! * the forward transform (DIT from bit-reversed storage),
//! * the inverse transform (DIF to bit-reversed order, then the `N⁻¹`
//!   scale pass),
//! * the negacyclic product of two operands (ψ weighting, two forward
//!   DIF transforms, pointwise, inverse DIT, unweighting),
//! * a four-step split's column sub-job and its twiddle-row sub-job.
//!
//! Shapes the device refuses (ping-pong on one buffer once an
//! inter-atom stage runs; a product on one buffer) are counted apart.
//!
//! Every program runs through `PimDevice::run_banks`: host DMA writes
//! its operands (bit-reversing those stored bit-reversed), the decoded
//! program runs, and the words at the program's `final_base` are read
//! back in the order the result is stored in. The bank is not cleared
//! between programs, so what one program leaves outside its operands is
//! part of the next one's state, in grid order.
//!
//! The digest is a hand-written 64-bit FNV-1a over each program's kind,
//! length, `final_base` and read-back words, so it does not depend on
//! `std::hash`'s algorithm. A change to the simulator, the decoder or
//! the host DMA that is meant to compute the same values must leave it
//! unchanged.

use modmath::arith::pow_mod;
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::device::{BankStep, NttDirection, Operand, PimDevice, StoredOrder};
use ntt_pim_core::mapper::{MapperOptions, Program};
use std::sync::Arc;

const MODULI: [u32; 4] = [7681, 12289, 8_380_417, 2_013_265_921];
const BUFFER_COUNTS: [usize; 4] = [1, 2, 4, 6];
const MAX_LOG_N: u32 = 12;
/// The single-buffer mapping issues ten commands a butterfly.
const MAX_SCALAR_LOG_N: u32 = 10;

/// Programs run and shapes refused over the grid.
const PROGRAMS: usize = 2676;
const REFUSED: usize = 344;
/// The digest of every program's read-back words, in grid order.
const DIGEST: u64 = 0xdb6c_1f46_04ad_962c;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn words(&mut self, words: &[u32]) {
        self.u64(words.len() as u64);
        for &w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// Seeded residues: a 64-bit LCG stream, its high bits reduced mod `q`.
struct Residues(u64);

impl Residues {
    fn poly(&mut self, n: usize, q: u32) -> Vec<u32> {
        (0..n)
            .map(|_| {
                self.0 = self
                    .0
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((self.0 >> 32) % u64::from(q)) as u32
            })
            .collect()
    }
}

/// The five program kinds each shape runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Forward,
    Inverse,
    Polymul,
    Column,
    Row,
}

/// One bank's device, the modulus and length of the shape being run,
/// and the operand stream.
struct Bench {
    dev: PimDevice,
    q: u32,
    n: usize,
    residues: Residues,
}

impl Bench {
    /// A checked operand of seeded residues at `base`, stored in `order`.
    fn operand(&mut self, base: usize, order: StoredOrder) -> Operand {
        let words = self.residues.poly(self.n, self.q);
        self.dev
            .operand(0, base, words, self.q, order)
            .expect("operand fits the bank")
    }

    /// Maps `kind` over fresh operands; `None` when the device refuses
    /// the shape. Returns the operands, the program and the order its
    /// result is stored in.
    fn map(&mut self, kind: Kind) -> Option<(Vec<Operand>, Program, StoredOrder)> {
        let (q, n) = (self.q, self.n);
        let q64 = u64::from(q);
        let omega = modmath::prime::root_of_unity(n as u64, q64).expect("2N divides q - 1") as u32;
        let (loads, program, order) = match kind {
            Kind::Forward => {
                let x = self.operand(0, StoredOrder::BitReversed);
                let program = self
                    .dev
                    .build_ntt_program(x.handle(), NttDirection::Forward);
                (vec![x], program, StoredOrder::Natural)
            }
            Kind::Inverse => {
                let x = self.operand(0, StoredOrder::Natural);
                let program = self
                    .dev
                    .build_ntt_program(x.handle(), NttDirection::Inverse);
                (vec![x], program, StoredOrder::BitReversed)
            }
            Kind::Polymul => {
                let a = self.operand(0, StoredOrder::Natural);
                let rhs_base = self.dev.config().polymul_rhs_base(n);
                let b = self.operand(rhs_base, StoredOrder::Natural);
                let program = self.dev.polymul_program(a.handle(), b.handle());
                (vec![a, b], program, StoredOrder::Natural)
            }
            Kind::Column => {
                let x = self.operand(0, StoredOrder::BitReversed);
                let program = self.dev.build_column_program(x.handle(), omega);
                (vec![x], program, StoredOrder::Natural)
            }
            Kind::Row => {
                let x = self.operand(0, StoredOrder::Natural);
                let twiddle = pow_mod(u64::from(omega), 3, q64) as u32;
                let program = self
                    .dev
                    .build_twiddle_row_program(x.handle(), omega, twiddle);
                (vec![x], program, StoredOrder::BitReversed)
            }
        };
        Some((loads, program.ok()?, order))
    }

    /// Writes the operands, runs the program and reads back its result.
    fn run(&mut self, loads: Vec<Operand>, program: &Program, order: StoredOrder) -> Vec<u32> {
        let result = self
            .dev
            .operand(0, program.final_base, vec![0; self.n], self.q, order)
            .expect("result region fits the bank");
        let decoded = self.dev.decode_program(program).expect("program decodes");
        let mut out = self
            .dev
            .run_banks(vec![vec![BankStep {
                loads,
                program: Arc::new(decoded),
                read: Some(*result.handle()),
            }]])
            .expect("program runs");
        // `run_banks` widens the read-back to `u64`; the digest hashes
        // the bank's 32-bit words.
        out.swap_remove(0)
            .swap_remove(0)
            .into_iter()
            .map(|w| u32::try_from(w).expect("a bank word fits 32 bits"))
            .collect()
    }
}

#[test]
fn functional_results_match_the_snapshot() {
    let mut h = Fnv::new();
    let (mut programs, mut refused) = (0, 0);
    let mut residues = Residues(0x9e37_79b9_7f4a_7c15);
    for nb in BUFFER_COUNTS {
        let mut dev = PimDevice::new(PimConfig::hbm2e(nb)).expect("valid config");
        for q in MODULI {
            let max_log_n = if nb == 1 { MAX_SCALAR_LOG_N } else { MAX_LOG_N };
            for log_n in 2..=max_log_n {
                let n = 1usize << log_n;
                if (u64::from(q) - 1) % (2 * n as u64) != 0 {
                    continue;
                }
                for in_place_update in [true, false] {
                    for group_same_row in [true, false] {
                        dev.set_mapper_options(MapperOptions {
                            in_place_update,
                            group_same_row,
                            ..MapperOptions::default()
                        });
                        let mut bench = Bench {
                            dev,
                            q,
                            n,
                            residues,
                        };
                        for kind in [
                            Kind::Forward,
                            Kind::Inverse,
                            Kind::Polymul,
                            Kind::Column,
                            Kind::Row,
                        ] {
                            let Some((loads, program, order)) = bench.map(kind) else {
                                assert!(
                                    nb == 1 && (!in_place_update || matches!(kind, Kind::Polymul)),
                                    "nb={nb} q={q} n={n} {kind:?} refused"
                                );
                                refused += 1;
                                continue;
                            };
                            let words = bench.run(loads, &program, order);
                            programs += 1;
                            h.u64(kind as u64);
                            h.u64(n as u64);
                            h.u64(program.final_base as u64);
                            h.words(&words);
                        }
                        (dev, residues) = (bench.dev, bench.residues);
                    }
                }
            }
        }
    }
    assert_eq!((programs, refused), (PROGRAMS, REFUSED));
    assert_eq!(h.0, DIGEST, "digest {:#018x}", h.0);
}
