//! A snapshot of the scheduler's output: digests over every schedule a
//! grid of configurations and queues produces, pinned in the source.
//!
//! The grid is every buffer count Nb ∈ {1, 2, 4, 6}, CU clock ∈ {1200,
//! 900, 300} MHz and refresh off and on. Each of those 24 configurations
//! runs on one of the topologies 1×1×1, 1×1×16, 2×2×4 and 4×2×2, turned
//! so that every buffer count meets every topology. Every bank of the
//! topology gets a queue one to three programs deep, drawn in turn from
//! a forward N = 256 transform, an inverse N = 512 transform and a
//! negacyclic N = 256 polymul (a forward transform on one buffer, which
//! cannot hold a pointwise product's second operand). One queue carries
//! an empty program, and a four-step split rides in the same queues: four
//! column programs signal barrier 0, four row programs wait on it.
//!
//! Each case is scheduled twice, without the per-command log
//! (`schedule_queues_unlogged`, the batch path) and with it
//! (`schedule_queues_dag`). The first digest covers the figures both
//! report — end times, job ends, barrier times, bus slots per channel,
//! activations per rank, and per bank its end, its command counters and
//! the bits of its energy tally — and the two runs must agree on them.
//! The second covers the logged run's log: every event's issue time, end
//! time and mnemonic, the logical issue times, the claimed slots and
//! each program's first slot.
//!
//! Each digest is a hand-written 64-bit FNV-1a, so it does not depend on
//! `std::hash`'s algorithm. A change to the scheduler that is meant to
//! produce the same schedules must leave both unchanged; one that is
//! meant to change them must say so and pin the new values.

use ntt_pim_core::config::{PimConfig, Topology};
use ntt_pim_core::device::{NttDirection, PimDevice, StoredOrder};
use ntt_pim_core::mapper::Program;
use ntt_pim_core::sched::{
    schedule_queues_dag, schedule_queues_unlogged, DagJob, QueueTimeline, Timeline,
};

const Q: u32 = 2_013_265_921;
const BUFFER_COUNTS: [usize; 4] = [1, 2, 4, 6];
const CU_CLOCKS_MHZ: [u32; 3] = [1200, 900, 300];
const TOPOLOGIES: [(u32, u32, u32); 4] = [(1, 1, 1), (1, 1, 16), (2, 2, 4), (4, 2, 2)];

/// Cases scheduled, and bus slots summed over them.
const CASES: usize = 24;
const BUS_SLOTS: u64 = 2_165_581;
/// The digest of every case's figures, in grid order.
const FIGURES_DIGEST: u64 = 0x2d54_9d88_e733_4d08;
/// The digest of every logged run's per-command log, in grid order.
const LOG_DIGEST: u64 = 0xd250_6e11_d082_d58d;

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

    /// A length, then the values.
    fn all(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.u64(xs.len() as u64);
        xs.for_each(|x| self.u64(x));
    }

    /// What both runs report: everything but the per-command log.
    fn figures(&mut self, qt: &QueueTimeline) {
        self.u64(qt.end_ps);
        self.u64(qt.job_end_ps.len() as u64);
        for ends in &qt.job_end_ps {
            self.all(ends.iter().copied());
        }
        self.all(qt.barrier_ps.iter().copied());
        self.all(qt.per_channel_bus_slots.iter().copied());
        self.all(qt.per_rank_acts.iter().copied());
        self.u64(qt.banks.len() as u64);
        for tl in &qt.banks {
            let c = tl.counters;
            let e = tl.energy;
            self.u64(tl.end_ps);
            for x in [c.acts, c.pres, c.reads, c.writes, c.refreshes, c.row_hits] {
                self.u64(x);
            }
            for x in [e.total_pj, e.act_pj, e.col_pj, e.compute_pj, e.param_pj] {
                self.u64(x.to_bits());
            }
        }
    }

    /// One bank's per-command log.
    fn log(&mut self, tl: &Timeline) {
        self.u64(tl.events.len() as u64);
        for e in &tl.events {
            self.u64(e.at_ps);
            self.u64(e.end_ps);
            self.bytes(e.cmd.mnemonic().as_bytes());
        }
        self.all(tl.logical_issue_ps.iter().copied());
        self.all(tl.slots_ps.iter().copied());
        self.all(tl.program_first_slot.iter().map(|&s| s as u64));
    }
}

/// The programs one buffer count's queues draw from.
struct Programs {
    /// Forward N = 256, inverse N = 512, and polymul N = 256 where the
    /// buffers allow it.
    plain: Vec<Program>,
    /// Four-step column and row sub-programs (N₁ = N₂ = 64).
    column: Program,
    row: Program,
}

impl Programs {
    fn new(nb: usize) -> Self {
        let dev = PimDevice::new(PimConfig::hbm2e(nb)).expect("valid config");
        let handle = |n: u32, base: usize, order: StoredOrder| {
            *dev.operand(0, base, (0..n).collect(), Q, order)
                .expect("region fits")
                .handle()
        };
        let natural = |n: u32, base: usize| handle(n, base, StoredOrder::Natural);
        let bitrev = |n: u32| handle(n, 0, StoredOrder::BitReversed);
        let forward = dev
            .build_ntt_program(&bitrev(256), NttDirection::Forward)
            .expect("forward maps");
        let inverse = dev
            .build_ntt_program(&natural(512, 0), NttDirection::Inverse)
            .expect("inverse maps");
        let polymul = if nb >= 2 {
            let rhs = dev.config().polymul_rhs_base(256);
            dev.polymul_program(&natural(256, 0), &natural(256, rhs))
                .expect("polymul maps")
        } else {
            forward.clone()
        };
        let omega = modmath::prime::root_of_unity(64, u64::from(Q)).expect("64 | q - 1") as u32;
        let column = dev
            .build_column_program(&bitrev(64), omega)
            .expect("column maps");
        let row = dev
            .build_twiddle_row_program(&natural(64, 0), omega, omega)
            .expect("row maps");
        Self {
            plain: vec![forward, inverse, polymul],
            column,
            row,
        }
    }

    /// One queue per bank of `topology`: bank `b` runs `b % 3 + 1` plain
    /// programs, kinds taken in turn; the last bank's queue carries an
    /// empty program after its first; the split's columns follow on banks
    /// 0, 1, 2, 3 and its rows on banks 1, 2, 3, 4 (modulo the banks).
    fn queues<'a>(&'a self, topology: Topology, empty: &'a Program) -> Vec<Vec<DagJob<'a>>> {
        let banks = topology.total_banks();
        let mut kind = 0;
        let mut queues: Vec<Vec<DagJob>> = (0..banks)
            .map(|b| {
                (0..b % 3 + 1)
                    .map(|_| {
                        kind += 1;
                        DagJob::plain(&self.plain[(kind - 1) % self.plain.len()])
                    })
                    .collect()
            })
            .collect();
        queues[banks - 1].insert(1, DagJob::plain(empty));
        for c in 0..4 {
            queues[c % banks].push(DagJob {
                program: &self.column,
                waits_on: None,
                signals: Some(0),
            });
        }
        for r in 0..4 {
            queues[(r + 1) % banks].push(DagJob {
                program: &self.row,
                waits_on: Some(0),
                signals: None,
            });
        }
        queues
    }
}

#[test]
fn schedules_match_the_snapshot() {
    let empty = Program {
        commands: Vec::new(),
        final_base: 0,
        c2_ops: 0,
        c1_ops: 0,
        marks: Vec::new(),
    };
    let (mut figures, mut log) = (Fnv::new(), Fnv::new());
    let (mut cases, mut bus_slots, mut refreshes) = (0, 0, 0);
    for (i, nb) in BUFFER_COUNTS.into_iter().enumerate() {
        let programs = Programs::new(nb);
        for (j, clock) in CU_CLOCKS_MHZ.into_iter().enumerate() {
            for (k, refresh) in [false, true].into_iter().enumerate() {
                let (c, r, b) = TOPOLOGIES[(i + j + k) % TOPOLOGIES.len()];
                let topology = Topology::new(c, r, b);
                let config = PimConfig::hbm2e(nb)
                    .with_cu_clock_mhz(clock)
                    .with_refresh(refresh)
                    .with_topology(topology);
                let queues = programs.queues(topology, &empty);
                let unlogged = schedule_queues_unlogged(&config, &queues).expect("schedules");
                let logged = schedule_queues_dag(&config, &queues).expect("schedules");
                let (mut a, mut b) = (Fnv::new(), Fnv::new());
                a.figures(&unlogged);
                b.figures(&logged);
                assert_eq!(a.0, b.0, "Nb={nb} {clock} MHz refresh={refresh} {topology}");
                figures.u64(a.0);
                logged.banks.iter().for_each(|tl| log.log(tl));
                cases += 1;
                bus_slots += unlogged.bus_slots;
                if refresh {
                    refreshes += unlogged
                        .banks
                        .iter()
                        .map(|tl| tl.counters.refreshes)
                        .sum::<u64>();
                }
            }
        }
    }
    assert!(refreshes > 0, "no case ran long enough to refresh");
    assert_eq!((cases, bus_slots), (CASES, BUS_SLOTS));
    assert_eq!(
        (figures.0, log.0),
        (FIGURES_DIGEST, LOG_DIGEST),
        "digests {:#018x} {:#018x}",
        figures.0,
        log.0
    );
}
