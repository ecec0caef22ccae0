//! Concurrent bank execution equals serial execution.
//!
//! [`PimDevice::run_banks`] runs one ordered list of (operand loads,
//! decoded program, read-back) per bank, the banks on helper threads
//! from the process-wide budget. Banks share no values, so the words it
//! returns, and the cells it leaves in every bank, must equal what
//! `load_in_bank` → `run_decoded` → `read_polynomial` leaves when the
//! same lists run bank by bank on one thread — for every topology, unit
//! kind and list shape. A rejected call must change nothing, and any
//! number of threads running batches at once share one helper budget
//! and still compute what a serial run computes.

use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::device::{BankStep, NttDirection, Operand, PimDevice, PolyHandle, StoredOrder};
use ntt_pim::core::helpers;
use ntt_pim::core::mapper::Program;
use ntt_pim::core::sim::DecodedProgram;
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::{BatchExecutor, BatchOutcome, NttJob};
use ntt_pim::engine::CpuNttEngine;
use ntt_pim::math::arith::pow_mod;
use ntt_pim::math::prime::root_of_unity;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Moduli with a 2N-th root of unity for every length drawn here.
const MODULI: [u32; 3] = [7681, 12289, 8_380_417];
/// Words read back from the start of every bank to compare cells: past
/// every operand region a unit here uses (the polymul right-hand operand
/// of N = 256 sits at one row, 256 words, and ends at 512).
const WINDOW: usize = 1024;

/// A small deterministic generator, so a case is reproducible from its
/// seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 17
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn words(&mut self, n: usize, q: u32) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next() % u64::from(q)) as u32)
            .collect()
    }
}

/// One unit of a bank's list: its operands (base word, natural-order
/// words, stored order), the program mapped over them, and the order its
/// result is read back in.
struct Unit {
    q: u32,
    operands: Vec<(usize, Vec<u32>, StoredOrder)>,
    program: Program,
    result: StoredOrder,
}

/// Draws one unit for `bank`: a forward, inverse or polymul job, or a
/// split column or row sub-job, of length 64, 128 or 256.
fn draw_unit(dev: &PimDevice, bank: usize, rng: &mut Lcg) -> Unit {
    use StoredOrder::{BitReversed, Natural};
    let n = [64usize, 128, 256][rng.below(3)];
    let q = MODULI[rng.below(MODULI.len())];
    let q64 = u64::from(q);
    // A split sub-job's roots are powers of a parent length-2N root.
    let parent = root_of_unity(2 * n as u64, q64).expect("root exists");
    let sub_root = pow_mod(parent, 2, q64) as u32;
    let lhs = rng.words(n, q);
    let rhs_base = dev.config().polymul_rhs_base(n);
    let operand = |base: usize, words: &[u32], order: StoredOrder| -> Operand {
        dev.operand(bank, base, words.to_vec(), q, order)
            .expect("operand fits")
    };
    let (operands, program, result) = match rng.below(5) {
        0 => {
            let a = operand(0, &lhs, BitReversed);
            let p = dev.build_ntt_program(a.handle(), NttDirection::Forward);
            (vec![(0, lhs, BitReversed)], p, Natural)
        }
        1 => {
            let a = operand(0, &lhs, Natural);
            let p = dev.build_ntt_program(a.handle(), NttDirection::Inverse);
            (vec![(0, lhs, Natural)], p, BitReversed)
        }
        2 => {
            let rhs = rng.words(n, q);
            let (a, b) = (operand(0, &lhs, Natural), operand(rhs_base, &rhs, Natural));
            let p = dev.polymul_program(a.handle(), b.handle());
            (
                vec![(0, lhs, Natural), (rhs_base, rhs, Natural)],
                p,
                Natural,
            )
        }
        3 => {
            let a = operand(0, &lhs, BitReversed);
            let p = dev.build_column_program(a.handle(), sub_root);
            (vec![(0, lhs, BitReversed)], p, Natural)
        }
        _ => {
            let a = operand(0, &lhs, Natural);
            let twiddle = pow_mod(parent, rng.below(2 * n) as u64, q64) as u32;
            let p = dev.build_twiddle_row_program(a.handle(), sub_root, twiddle);
            (vec![(0, lhs, Natural)], p, BitReversed)
        }
    };
    Unit {
        q,
        operands,
        program: program.expect("program maps"),
        result,
    }
}

/// The handle a unit's result is read back through.
fn read_handle(dev: &PimDevice, bank: usize, unit: &Unit) -> PolyHandle {
    let (base, words, order) = &unit.operands[0];
    let mut h = *dev
        .operand(bank, *base, words.clone(), unit.q, *order)
        .expect("operand fits")
        .handle();
    h.assume_order(unit.result);
    h
}

/// The first [`WINDOW`] words of every bank, as stored.
fn cells(dev: &mut PimDevice) -> Vec<Vec<u32>> {
    (0..dev.config().total_banks())
        .map(|bank| {
            let window = dev
                .operand(bank, 0, vec![0; WINDOW], 2, StoredOrder::Natural)
                .expect("window fits");
            dev.read_polynomial(window.handle()).expect("bank exists")
        })
        .collect()
}

/// Every bank's units through one `run_banks` call, which reads each
/// result back as `u64` words.
fn run_concurrently(
    dev: &mut PimDevice,
    units: &[Vec<Unit>],
    decoded: &[Vec<Arc<DecodedProgram>>],
) -> Vec<Vec<Vec<u64>>> {
    let lists: Vec<Vec<BankStep>> = units
        .iter()
        .zip(decoded)
        .enumerate()
        .map(|(bank, (list, programs))| {
            list.iter()
                .zip(programs)
                .map(|(unit, program)| BankStep {
                    loads: unit
                        .operands
                        .iter()
                        .map(|(base, words, order)| {
                            dev.operand(bank, *base, words.clone(), unit.q, *order)
                                .expect("operand fits")
                        })
                        .collect(),
                    program: Arc::clone(program),
                    read: Some(read_handle(dev, bank, unit)),
                })
                .collect()
        })
        .collect();
    dev.run_banks(lists).expect("lists run")
}

/// The same units bank by bank on the calling thread, through the
/// one-call-per-step device API, `read_polynomial`'s `u32` words widened
/// to compare with `run_banks`'s.
fn run_serially(
    dev: &mut PimDevice,
    units: &[Vec<Unit>],
    decoded: &[Vec<Arc<DecodedProgram>>],
) -> Vec<Vec<Vec<u64>>> {
    let mut out = Vec::new();
    for (bank, (list, programs)) in units.iter().zip(decoded).enumerate() {
        let mut words = Vec::new();
        for (unit, program) in list.iter().zip(programs) {
            for (base, coeffs, order) in &unit.operands {
                dev.load_in_bank(bank, *base, coeffs, unit.q, *order)
                    .expect("operand loads");
            }
            dev.run_decoded(bank, program).expect("program runs");
            let read = dev
                .read_polynomial(&read_handle(dev, bank, unit))
                .expect("bank exists");
            words.push(read.into_iter().map(u64::from).collect());
        }
        out.push(words);
    }
    out
}

fn config(topology: (u32, u32, u32)) -> PimConfig {
    PimConfig::hbm2e(2).with_topology(Topology::new(topology.0, topology.1, topology.2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn run_banks_equals_bank_by_bank(
        topology in prop::sample::select(vec![
            (1u32, 1u32, 1u32),
            (1, 1, 4),
            (2, 1, 2),
            (1, 2, 3),
            (2, 2, 4),
            (4, 2, 4),
        ]),
        seed in 0u64..u64::MAX,
    ) {
        let config = config(topology);
        let mut concurrent = PimDevice::new(config).expect("valid config");
        let mut serial = PimDevice::new(config).expect("valid config");
        let mut rng = Lcg(seed);
        // Zero to three units per bank, so idle banks occur too.
        let units: Vec<Vec<Unit>> = (0..config.total_banks())
            .map(|bank| {
                (0..rng.below(4))
                    .map(|_| draw_unit(&concurrent, bank, &mut rng))
                    .collect()
            })
            .collect();
        let decoded: Vec<Vec<Arc<DecodedProgram>>> = units
            .iter()
            .map(|list| {
                list.iter()
                    .map(|u| Arc::new(concurrent.decode_program(&u.program).expect("decodes")))
                    .collect()
            })
            .collect();
        let got = run_concurrently(&mut concurrent, &units, &decoded);
        let want = run_serially(&mut serial, &units, &decoded);
        prop_assert_eq!(&got, &want, "topology {:?} seed {}", topology, seed);
        prop_assert!(cells(&mut concurrent) == cells(&mut serial), "bank cells differ");
        prop_assert!(helpers::peak() <= helpers::budget());
    }
}

fn poly(n: usize, q: u64, seed: u64) -> Vec<u64> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| rng.next() % q).collect()
}

/// A mixed batch: forward, inverse and polymul jobs of two lengths, plus
/// one split transform.
fn batch(seed: u64) -> Vec<NttJob> {
    let q = 8_380_417u64;
    let mut jobs: Vec<NttJob> = (0..10u64)
        .map(|i| {
            let n = if i % 2 == 0 { 256 } else { 1024 };
            let x = poly(n, q, seed * 100 + i);
            match i % 3 {
                0 => NttJob::forward(x, q),
                1 => NttJob::inverse(x, q),
                _ => NttJob::negacyclic_polymul(x, poly(n, q, seed * 100 + 50 + i), q),
            }
        })
        .collect();
    jobs.push(NttJob::split_large(poly(4096, q, seed), q));
    jobs
}

fn assert_golden(jobs: &[NttJob], spectra: &[Vec<u64>]) {
    let cpu = CpuNttEngine::golden();
    for (i, (job, got)) in jobs.iter().zip(spectra).enumerate() {
        let mut expect = job.coeffs.clone();
        match &job.kind {
            ntt_pim::engine::batch::JobKind::Inverse => cpu.inverse(&mut expect, job.q),
            ntt_pim::engine::batch::JobKind::NegacyclicPolymul { rhs } => {
                cpu.negacyclic_polymul(&mut expect, rhs, job.q)
            }
            _ => cpu.forward(&mut expect, job.q),
        }
        .expect("golden runs");
        assert_eq!(got, &expect, "job {i}");
    }
}

#[test]
fn a_program_for_another_bank_shape_is_rejected_and_changes_nothing() {
    let config = config((1, 2, 2));
    let mut exec = BatchExecutor::new(config).expect("valid config");
    let first = batch(1);
    assert_golden(&first, &exec.run(&first).expect("batch runs").spectra);

    // Decoded for banks with four atom buffers; this device has two.
    let mut other = PimDevice::new(PimConfig::hbm2e(4)).expect("valid config");
    let h = other
        .load_in_bank(0, 0, &[1; 64], 7681, StoredOrder::BitReversed)
        .expect("loads");
    let foreign = other
        .decode_program(&other.build_ntt_program(&h, NttDirection::Forward).unwrap())
        .expect("decodes");
    let dev = exec.device_mut();
    let before = cells(dev);
    let operand = dev
        .operand(1, 0, vec![5; 64], 7681, StoredOrder::BitReversed)
        .expect("operand fits");
    let mut lists: Vec<Vec<BankStep>> = vec![Vec::new(); 4];
    lists[1].push(BankStep {
        loads: vec![operand],
        program: Arc::new(foreign),
        read: None,
    });
    let err = dev.run_banks(lists).unwrap_err();
    assert!(matches!(err, PimError::BadConfig { .. }), "{err}");
    assert_eq!(cells(dev), before, "a rejected call wrote a bank");

    // A list naming another bank's handle, and more lists than banks, are
    // rejected the same way.
    let (native, operand) = {
        let h = dev
            .operand(0, 0, vec![1; 64], 7681, StoredOrder::BitReversed)
            .unwrap();
        let program = dev
            .build_ntt_program(h.handle(), NttDirection::Forward)
            .unwrap();
        (dev.decode_program(&program).unwrap(), h)
    };
    let mut lists: Vec<Vec<BankStep>> = vec![Vec::new(); 4];
    lists[2].push(BankStep {
        loads: vec![operand],
        program: Arc::new(native),
        read: None,
    });
    assert!(matches!(
        dev.run_banks(lists),
        Err(PimError::BadConfig { .. })
    ));
    assert!(matches!(
        dev.run_banks(vec![Vec::new(); 5]),
        Err(PimError::BadConfig { .. })
    ));
    // An operand another device checked, for a region past this one's
    // banks (sixteen rows here, a thousand-row bank there).
    let mut config = PimConfig::hbm2e(2);
    config.geometry.rows_per_bank = 1024;
    let big = PimDevice::new(config).expect("valid config");
    config.geometry.rows_per_bank = 16;
    let mut small = PimDevice::new(config).expect("valid config");
    let far = big
        .operand(0, 512 * 256, vec![1; 64], 7681, StoredOrder::BitReversed)
        .expect("fits the big bank");
    let h = small
        .operand(0, 0, vec![1; 64], 7681, StoredOrder::BitReversed)
        .unwrap();
    let program = small
        .decode_program(
            &small
                .build_ntt_program(h.handle(), NttDirection::Forward)
                .unwrap(),
        )
        .unwrap();
    let err = small
        .run_banks(vec![vec![BankStep {
            loads: vec![far],
            program: Arc::new(program),
            read: None,
        }]])
        .unwrap_err();
    assert!(matches!(err, PimError::BadRegion { .. }), "{err}");
    assert_eq!(cells(dev), before);

    let next = batch(2);
    assert_golden(&next, &exec.run(&next).expect("batch runs").spectra);
}

/// What a batch outcome must reproduce exactly, whatever ran it.
fn fingerprint(out: &BatchOutcome) -> (Vec<Vec<u64>>, f64, f64, u64, Vec<f64>) {
    (
        out.spectra.clone(),
        out.latency_ns,
        out.energy_nj,
        out.bus_slots,
        out.job_latency_ns.clone(),
    )
}

#[test]
fn threads_share_one_helper_budget_and_match_a_serial_run() {
    const THREADS: u64 = 8;
    let topologies = [(1u32, 1u32, 16u32), (2, 2, 4), (4, 2, 2), (1, 1, 4)];
    // Thread `t`'s three batches on its own executor; with a barrier,
    // every thread starts its first batch at once.
    let work = |t: u64, start: Option<&Barrier>| -> Vec<_> {
        let mut exec =
            BatchExecutor::new(config(topologies[t as usize % 4])).expect("valid config");
        if let Some(start) = start {
            start.wait();
        }
        (0..3)
            .map(|round| fingerprint(&exec.run(&batch(t * 10 + round)).expect("batch runs")))
            .collect()
    };
    let serial: Vec<_> = (0..THREADS).map(|t| work(t, None)).collect();
    let start = Barrier::new(THREADS as usize);
    let concurrent: Vec<_> = std::thread::scope(|scope| {
        let (work, start) = (&work, &start);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || work(t, Some(start))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread ran"))
            .collect()
    });
    assert_eq!(concurrent, serial);
    assert!(
        helpers::peak() <= helpers::budget(),
        "{} helpers ran at once; the budget is {}",
        helpers::peak(),
        helpers::budget()
    );
    // Every batch above has several busy banks, so each `run_banks` call
    // queues a helper task for the pool. A task counts once it starts,
    // even if its call's items are gone by then, and a woken helper may
    // start after its call returned: with any budget at all, the peak
    // reaches one, given time.
    let deadline = Instant::now() + Duration::from_secs(30);
    while helpers::budget() > 0 && helpers::peak() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        helpers::budget() == 0 || helpers::peak() >= 1,
        "no helper ever ran; the budget is {}",
        helpers::budget()
    );
}
