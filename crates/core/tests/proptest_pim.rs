//! Property-based tests of the PIM model: for arbitrary polynomial
//! lengths, buffer counts, moduli, mapper options, and inputs, the mapped
//! command stream must (1) compute exactly the reference transform and
//! (2) yield a schedule that passes the independent DRAM-protocol
//! validator. Functional storage must also behave like a plain array
//! under arbitrary CU-read/CU-write programs.

use dram_sim::validate::validate_queues;
use modmath::arith::{add_mod, mul_mod, pow_mod, sub_mod};
use modmath::bitrev::bitrev_permute;
use modmath::montgomery::Montgomery32;
use ntt_pim_core::cmd::{BuOrder, BufId, C1Params, PimCommand, StageSteps, TwiddleParams};
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::layout::PolyLayout;
use ntt_pim_core::mapper::{map_ntt, Dataflow, MapperOptions, NttParams, Program};
use ntt_pim_core::sched::{schedule, schedule_queues_dag, DagJob};
use ntt_pim_core::sim::FunctionalSim;
use ntt_pim_core::PimError;
use proptest::prelude::*;

const Q: u32 = 2_013_265_921; // 15 * 2^27 + 1

/// Moduli across the datapath's range: Kyber-era 7681 (N ≤ 256 cyclic),
/// NewHope's 12289 (N ≤ 2048), Dilithium's 8380417 and the 31-bit Q.
const MODULI: [u32; 4] = [7681, 12289, 8_380_417, Q];

fn reference_ntt(x: &[u64], w: u64, q: u64) -> Vec<u64> {
    // O(N log N) reference via the ntt-ref plan seeded with a matching ψ.
    let n = x.len();
    let psi0 = modmath::prime::root_of_unity(2 * n as u64, q).unwrap();
    // Find e with psi0^(2e)... simpler: the device and mapper both use
    // root_of_unity(n), which equals psi0^2 exactly when both come from the
    // same generator search — assert and reuse.
    let field = modmath::prime::NttField::with_psi(n, q, psi0).unwrap();
    assert_eq!(field.root_of_unity(), w, "same derivation path");
    let plan = ntt_ref::plan::NttPlan::new(field);
    let mut v = x.to_vec();
    plan.forward(&mut v);
    v
}

/// The `qi`-th (cyclically) of the [`MODULI`] that have the `2N`-th
/// roots a length-`n` transform needs.
fn modulus_for(n: usize, qi: usize) -> u32 {
    let usable: Vec<u32> = MODULI
        .into_iter()
        .filter(|&q| (q as u64 - 1) % (2 * n as u64) == 0)
        .collect();
    usable[qi % usable.len()]
}

fn random_poly(n: usize, seed: u64) -> Vec<u32> {
    random_poly_mod(n, seed, Q)
}

fn random_poly_mod(n: usize, seed: u64, q: u32) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % q as u64) as u32
        })
        .collect()
}

/// One butterfly in widening arithmetic: `Ct` is `(a + b·w, a − b·w)`,
/// `Gs` is `(a + b, (a − b)·w)`, with `w` plain.
fn butterfly_widening(q: u32, a: u32, b: u32, w: u64, order: BuOrder) -> (u32, u32) {
    let (a, b, q) = (u64::from(a), u64::from(b), u64::from(q));
    let (x, y) = match order {
        BuOrder::Ct => {
            let t = mul_mod(b, w, q);
            (add_mod(a, t, q), sub_mod(a, t, q))
        }
        BuOrder::Gs => (add_mod(a, b, q), mul_mod(sub_mod(a, b, q), w, q)),
    };
    (x as u32, y as u32)
}

/// A C1 over the first `points` lanes in widening arithmetic: stage `s`
/// (span `m = 2^s`) gives butterfly `(k + j, k + j + m)` the twiddle
/// `steps[s]^j`; `Ct` runs the stages upwards, `Gs` downwards.
fn c1_widening(q: u32, x: &mut [u32], points: usize, steps: &[u32], order: BuOrder) {
    let log_p = points.trailing_zeros() as usize;
    let stages: Vec<usize> = match order {
        BuOrder::Ct => (0..log_p).collect(),
        BuOrder::Gs => (0..log_p).rev().collect(),
    };
    for s in stages {
        let m = 1 << s;
        for k in (0..points).step_by(2 * m) {
            for j in 0..m {
                let w = pow_mod(u64::from(steps[s]), j as u64, u64::from(q));
                (x[k + j], x[k + j + m]) = butterfly_widening(q, x[k + j], x[k + j + m], w, order);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: map → execute == reference NTT, for any
    /// (N, Nb, q, options) combination, and the schedule is
    /// protocol-legal. The single-buffer strawman (Nb = 1) supports only
    /// in-place update and, at ten commands a butterfly, stays at
    /// N ≤ 256.
    #[test]
    fn mapped_ntt_is_correct_and_schedulable(
        log_n in 2u32..=13,
        nb in prop::sample::select(vec![1usize, 2, 3, 4, 6, 8]),
        qi in 0usize..4,
        in_place in any::<bool>(),
        grouping in any::<bool>(),
        dif in any::<bool>(),
        refresh in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let log_n = if nb == 1 { log_n.min(8) } else { log_n };
        let in_place = in_place || nb == 1;
        let n = 1usize << log_n;
        let q = modulus_for(n, qi);
        let config = PimConfig::hbm2e(nb).with_refresh(refresh);
        let layout = PolyLayout::new(&config, 0, n).unwrap();
        let omega = modmath::prime::root_of_unity(n as u64, q as u64).unwrap() as u32;
        let opts = MapperOptions {
            dataflow: if dif { Dataflow::DifToBitrev } else { Dataflow::DitFromBitrev },
            inverse: false,
            in_place_update: in_place,
            group_same_row: grouping,
        };
        let program = map_ntt(&config, &layout, &NttParams { q, omega }, &opts).unwrap();

        // (1) Functional equivalence.
        let poly = random_poly_mod(n, seed, q);
        let mut sim = FunctionalSim::new(&config).unwrap();
        let mut image: Vec<u32> = poly.clone();
        if !dif {
            bitrev_permute(&mut image);
        }
        sim.load_words(0, &image);
        sim.execute(&program).unwrap();
        let mut got = sim.read_region_at(program.final_base, n);
        if dif {
            bitrev_permute(&mut got);
        }
        let expect = reference_ntt(
            &poly.iter().map(|&v| v as u64).collect::<Vec<_>>(),
            omega as u64,
            q as u64,
        );
        for i in 0..n {
            prop_assert_eq!(got[i] as u64, expect[i], "element {}", i);
        }

        // (2) Protocol legality, checked by the independent validator.
        let queues = [vec![DagJob::plain(&program)]];
        let timeline = schedule_queues_dag(&config, &queues).unwrap();
        let banks = timeline.bank_schedules(&queues);
        validate_queues(config.timing.resolve(), config.geometry, config.topology, &banks)
            .map_err(|v| TestCaseError::fail(v.to_string()))?;

        // (3) Sanity: latency positive and monotone with N handled elsewhere.
        prop_assert!(timeline.end_ps > 0);
    }

    /// Forward-then-inverse through the device equals the identity for
    /// arbitrary inputs and buffer counts.
    #[test]
    fn device_roundtrip(
        log_n in 2u32..=10,
        nb in prop::sample::select(vec![2usize, 4, 6]),
        seed in any::<u64>(),
    ) {
        use ntt_pim_core::device::{NttDirection, PimDevice};
        let n = 1usize << log_n;
        let mut dev = PimDevice::new(PimConfig::hbm2e(nb)).unwrap();
        let poly = random_poly(n, seed);
        let mut h = dev.load_polynomial_bitrev(0, &poly, Q).unwrap();
        dev.ntt_in_place(&mut h, NttDirection::Forward).unwrap();
        dev.ntt_in_place(&mut h, NttDirection::Inverse).unwrap();
        prop_assert_eq!(dev.read_polynomial(&h).unwrap(), poly);
    }

    /// Scale-then-unscale through the device is the identity (the TFG's
    /// geometric generator and its inverse cancel).
    #[test]
    fn scale_unscale_roundtrip(
        log_n in 2u32..=9,
        seed in any::<u64>(),
        r in 2u64..1000,
    ) {
        use ntt_pim_core::mapper::map_scale;
        let n = 1usize << log_n;
        let config = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&config, 0, n).unwrap();
        let poly = random_poly(n, seed);
        let r = (r % (Q as u64 - 2) + 2) as u32;
        let r_inv = modmath::arith::inv_mod(r as u64, Q as u64).unwrap() as u32;
        let mut sim = FunctionalSim::new(&config).unwrap();
        sim.load_words(0, &poly);
        sim.execute(&map_scale(&config, &layout, Q, 1, r).unwrap()).unwrap();
        sim.execute(&map_scale(&config, &layout, Q, 1, r_inv).unwrap()).unwrap();
        prop_assert_eq!(sim.read_region(&layout), poly);
    }

    /// Storage is value-faithful: arbitrary programs of CU-reads,
    /// CU-writes, activations and precharges over eight rows leave
    /// exactly what a plain array model holds — every write lands in the
    /// array, a read later in the program sees it, and a program that
    /// writes a buffer it never filled is rejected without touching the
    /// bank.
    #[test]
    fn storage_matches_shadow_array(
        ops in prop::collection::vec((0u8..4, 0u32..8, 0u32..32, 0u8..4), 1..60),
        seed in any::<u64>(),
    ) {
        let config = PimConfig::hbm2e(4);
        let (row_words, na) = (config.row_words(), config.na());
        let initial = random_poly(8 * row_words, seed);
        let mut shadow = initial.clone();
        let mut bufs: [Option<Vec<u32>>; 4] = Default::default();
        let mut commands = Vec::new();
        let mut legal = true;
        for (kind, row, col, buf) in ops {
            let base = row as usize * row_words + col as usize * na;
            let b = BufId(buf);
            commands.push(match kind {
                0 => {
                    bufs[buf as usize] = Some(shadow[base..base + na].to_vec());
                    PimCommand::CuRead { row, col, buf: b }
                }
                1 => {
                    match &bufs[buf as usize] {
                        Some(atom) => shadow[base..base + na].copy_from_slice(atom),
                        None => legal = false,
                    }
                    PimCommand::CuWrite { row, col, buf: b }
                }
                2 => PimCommand::Act { row },
                _ => PimCommand::Pre,
            });
        }
        let program = Program {
            commands,
            final_base: 0,
            c2_ops: 0,
            c1_ops: 0,
            marks: Vec::new(),
        };
        let mut sim = FunctionalSim::new(&config).unwrap();
        sim.load_words(0, &initial);
        match sim.execute(&program) {
            Ok(()) => prop_assert!(legal),
            Err(e) => {
                prop_assert!(!legal);
                prop_assert!(matches!(e, PimError::BufferMisuse { .. }), "{}", e);
                shadow = initial;
            }
        }
        prop_assert_eq!(sim.read_words(0, shadow.len()), shadow);
    }

    /// More buffers never hurt latency (for the same mapping options).
    #[test]
    fn buffers_monotone(log_n in 4u32..=11) {
        let n = 1usize << log_n;
        let omega = modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
        let mut last = u64::MAX;
        for nb in [2usize, 4, 6, 8] {
            let config = PimConfig::hbm2e(nb);
            let layout = PolyLayout::new(&config, 0, n).unwrap();
            let program = map_ntt(
                &config,
                &layout,
                &NttParams { q: Q, omega },
                &MapperOptions::default(),
            )
            .unwrap();
            let tl = schedule(&config, &program).unwrap();
            prop_assert!(tl.end_ps <= last, "nb={} regressed", nb);
            last = tl.end_ps;
        }
    }
}

/// A program being built over four atoms and four buffers, with an
/// array model of what it does: the cells, each buffer's atom, and
/// widening arithmetic for every compute command.
struct Shadow {
    q: u32,
    mont: Montgomery32,
    row_words: usize,
    cells: Vec<u32>,
    bufs: Vec<[u32; 8]>,
    commands: Vec<PimCommand>,
}

impl Shadow {
    /// Atom `a` is column `a % 2` of row `a / 2`.
    fn site(a: u8) -> (u32, u32) {
        (u32::from(a / 2), u32::from(a % 2))
    }

    fn base(&self, a: u8) -> usize {
        (a / 2) as usize * self.row_words + (a % 2) as usize * 8
    }

    fn read(&mut self, buf: u8, atom: u8) {
        let (row, col) = Self::site(atom);
        self.commands.push(PimCommand::CuRead {
            row,
            col,
            buf: BufId(buf),
        });
        let base = self.base(atom);
        self.bufs[buf as usize].copy_from_slice(&self.cells[base..base + 8]);
    }

    fn write(&mut self, buf: u8, atom: u8) {
        let (row, col) = Self::site(atom);
        self.commands.push(PimCommand::CuWrite {
            row,
            col,
            buf: BufId(buf),
        });
        let base = self.base(atom);
        self.cells[base..base + 8].copy_from_slice(&self.bufs[buf as usize]);
    }

    /// A compute command on `buf` (and `other`, for the two-operand
    /// kinds) picked and parameterized by `bits`.
    fn compute(&mut self, buf: u8, other: u8, bits: u64) {
        let (q, q64) = (self.q, u64::from(self.q));
        let residue = |x: u64| (x % q64) as u32;
        let order = if bits & 4 == 0 {
            BuOrder::Ct
        } else {
            BuOrder::Gs
        };
        let (b, o) = (buf as usize, other as usize);
        let (omega0, r) = (residue(bits >> 8), residue(bits >> 36));
        let tw = TwiddleParams {
            omega0_mont: self.mont.to_mont(omega0),
            r_omega_mont: self.mont.to_mont(r),
        };
        let lane = |l: usize| mul_mod(u64::from(omega0), pow_mod(u64::from(r), l as u64, q64), q64);
        match bits & 3 {
            0 => {
                let points = [2usize, 4, 8][(bits >> 3) as usize % 3];
                let steps: Vec<u32> = (0..points.trailing_zeros())
                    .map(|s| residue(bits >> (8 + 16 * s)))
                    .collect();
                self.commands.push(PimCommand::C1 {
                    buf: BufId(buf),
                    params: C1Params {
                        points: points as u8,
                        stage_steps_mont: StageSteps::new(
                            &steps
                                .iter()
                                .map(|&w| self.mont.to_mont(w))
                                .collect::<Vec<_>>(),
                        )
                        .expect("at most three steps"),
                        order,
                    },
                });
                c1_widening(q, &mut self.bufs[b], points, &steps, order);
            }
            1 => {
                self.commands.push(PimCommand::Scale {
                    buf: BufId(buf),
                    tw,
                });
                for (l, x) in self.bufs[b].iter_mut().enumerate() {
                    *x = mul_mod(u64::from(*x), lane(l), q64) as u32;
                }
            }
            2 => {
                self.commands.push(PimCommand::C2 {
                    p: BufId(buf),
                    s: BufId(other),
                    tw,
                    order,
                });
                for l in 0..8 {
                    (self.bufs[b][l], self.bufs[o][l]) =
                        butterfly_widening(q, self.bufs[b][l], self.bufs[o][l], lane(l), order);
                }
            }
            _ => {
                self.commands.push(PimCommand::Pointwise {
                    p: BufId(buf),
                    s: BufId(other),
                });
                for l in 0..8 {
                    self.bufs[b][l] =
                        mul_mod(u64::from(self.bufs[b][l]), u64::from(self.bufs[o][l]), q64) as u32;
                }
            }
        }
    }
}

/// Where one buffer is along the read → compute → write-back of an atom
/// the generator has it work through.
#[derive(Clone, Copy, PartialEq)]
enum Plan {
    Idle,
    Loaded(u8),
    Computed(u8),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compute on the cells is value-faithful: arbitrary programs of
    /// CU-reads, CU-writes, C1, C2, Scale and Pointwise over four atoms
    /// and four buffers leave exactly what an array model with widening
    /// arithmetic holds. Most steps move one buffer along a read →
    /// compute → write-back of one atom, the triples the decoder fuses
    /// into one in-place op; the rest read, write or compute at random.
    /// Over so few atoms the interleaved triples often break a fusion
    /// condition: a source atom rewritten between a read and its compute
    /// or read by another buffer between a compute and its write-back, a
    /// buffer used again without a refill, a compute whose twin operand
    /// fused on the atom a Pointwise reads.
    #[test]
    fn compute_programs_match_shadow_array(
        steps in prop::collection::vec((0u8..8, 0u8..4, 0u8..4, any::<u64>()), 1..80),
        qi in 0usize..4,
        seed in any::<u64>(),
    ) {
        let q = MODULI[qi];
        let config = PimConfig::hbm2e(4);
        let initial = random_poly_mod(2 * config.row_words(), seed, q);
        let mut shadow = Shadow {
            q,
            mont: Montgomery32::new(q).unwrap(),
            row_words: config.row_words(),
            cells: initial.clone(),
            bufs: vec![[0; 8]; 4],
            commands: vec![PimCommand::SetModulus { q }],
        };
        // Every buffer starts filled, so every program is legal.
        for b in 0..4 {
            shadow.read(b, b);
        }
        let mut plans = [Plan::Idle; 4];
        for (kind, buf, atom, bits) in steps {
            let b = buf as usize;
            // A second operand: another buffer, one with a loaded plan
            // when there is one.
            let other = (1..4)
                .map(|k| (buf + k) % 4)
                .find(|&o| matches!(plans[o as usize], Plan::Loaded(_)))
                .unwrap_or((buf + 1 + (bits % 3) as u8) % 4);
            match (kind, plans[b]) {
                (0..=4, Plan::Idle) => {
                    shadow.read(buf, atom);
                    plans[b] = Plan::Loaded(atom);
                }
                (0..=4, Plan::Loaded(a)) => {
                    shadow.compute(buf, other, bits);
                    plans[b] = Plan::Computed(a);
                    match bits & 3 {
                        2 => {
                            if let Plan::Loaded(oa) = plans[other as usize] {
                                plans[other as usize] = Plan::Computed(oa);
                            }
                        }
                        3 => plans[other as usize] = Plan::Idle,
                        _ => {}
                    }
                }
                (0..=4, Plan::Computed(a)) => {
                    shadow.write(buf, a);
                    plans[b] = Plan::Idle;
                }
                (5, _) => {
                    shadow.read(buf, atom);
                    plans[b] = Plan::Loaded(atom);
                }
                (6, _) => {
                    shadow.write(buf, atom);
                    plans[b] = Plan::Idle;
                }
                _ => shadow.compute(buf, other, bits),
            }
        }
        let program = Program {
            commands: shadow.commands,
            final_base: 0,
            c2_ops: 0,
            c1_ops: 0,
            marks: Vec::new(),
        };
        let mut sim = FunctionalSim::new(&config).unwrap();
        sim.load_words(0, &initial);
        sim.execute(&program).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(sim.read_words(0, shadow.cells.len()), shadow.cells);
    }
}
