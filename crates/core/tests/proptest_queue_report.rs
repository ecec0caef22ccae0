//! The batch path's `QueueReport` against the full timeline: for random
//! topologies, queue sets and DAG fan-in barriers, with refresh on and
//! off, `PimDevice::schedule_queues_dag` (which runs the scheduler
//! without its per-command log) reports exactly what the logged
//! `sched::schedule_queues_dag` timeline says, field by field. The
//! logged timeline itself must pass the independent topology validator
//! (`dram_sim::validate::validate_queues`): one claim per bus slot per
//! channel, tRRD/tFAW per rank, bank timing and refresh, in-order issue
//! per bank and the DAG barriers.

use dram_sim::validate::validate_queues;
use ntt_pim_core::config::{PimConfig, Topology};
use ntt_pim_core::device::{NttDirection, PimDevice, QueueReport, StoredOrder};
use ntt_pim_core::mapper::Program;
use ntt_pim_core::sched::{schedule_queues_dag, DagJob, QueueTimeline};
use proptest::prelude::*;

const Q: u32 = 8_380_417;

/// The report a `QueueTimeline` describes, built from its logged banks.
fn report_of(qt: &QueueTimeline) -> QueueReport {
    let ns = |ps: u64| ps as f64 / 1000.0;
    let per_bank_energy_nj: Vec<f64> = qt.banks.iter().map(|t| t.energy.total_nj()).collect();
    QueueReport {
        per_bank_ns: qt.banks.iter().map(|t| t.latency_ns()).collect(),
        energy_nj: per_bank_energy_nj.iter().sum(),
        per_bank_energy_nj,
        job_end_ns: qt
            .job_end_ps
            .iter()
            .map(|ends| ends.iter().map(|&ps| ns(ps)).collect())
            .collect(),
        latency_ns: qt.latency_ns(),
        bus_slots: qt.bus_slots,
        rank_acts: qt.rank_acts,
        per_channel_bus_slots: qt.per_channel_bus_slots.clone(),
        per_rank_acts: qt.per_rank_acts.clone(),
        barrier_ns: qt.barrier_ps.iter().map(|&ps| ns(ps)).collect(),
    }
}

/// Forward and inverse programs of a few lengths, plus an empty one.
fn program_pool(dev: &mut PimDevice) -> Vec<Program> {
    let mut pool = vec![Program {
        commands: Vec::new(),
        final_base: 0,
        c2_ops: 0,
        c1_ops: 0,
        marks: Vec::new(),
    }];
    for n in [16usize, 64, 256, 1024] {
        let coeffs: Vec<u32> = (0..n as u32).map(|i| (i * 37 + 5) % Q).collect();
        for (order, dir) in [
            (StoredOrder::BitReversed, NttDirection::Forward),
            (StoredOrder::Natural, NttDirection::Inverse),
        ] {
            let h = dev
                .load_in_bank(0, 0, &coeffs, Q, order)
                .expect("pool load");
            pool.push(dev.build_ntt_program(&h, dir).expect("pool program"));
        }
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Each job is `(bank, program, stage, signals)`. A stage-`s` job
    /// waits on barrier `s - 1` and may signal barrier `s`; every bank
    /// runs its jobs in stage order, so the fan-in DAG cannot deadlock.
    #[test]
    fn unlogged_queue_report_matches_the_timeline(
        channels in 1u32..=4,
        ranks in 1u32..=2,
        banks in 1u32..=4,
        nb in prop::sample::select(vec![2usize, 4]),
        refresh in any::<bool>(),
        jobs in prop::collection::vec(
            (any::<u16>(), any::<u8>(), 0usize..3, any::<bool>()),
            0..24,
        ),
    ) {
        let config = PimConfig::hbm2e(nb)
            .with_topology(Topology::new(channels, ranks, banks))
            .with_refresh(refresh);
        let mut dev = PimDevice::new(config).expect("valid config");
        let pool = program_pool(&mut dev);
        let total = config.total_banks();
        let mut placed: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); total];
        for (bank, pick, stage, signals) in jobs {
            placed[bank as usize % total].push((pick as usize % pool.len(), stage, signals));
        }
        for queue in &mut placed {
            queue.sort_by_key(|&(_, stage, _)| stage);
        }
        let dag: Vec<Vec<DagJob>> = placed
            .iter()
            .map(|queue| {
                queue
                    .iter()
                    .map(|&(pick, stage, signals)| DagJob {
                        program: &pool[pick],
                        waits_on: stage.checked_sub(1),
                        signals: signals.then_some(stage),
                    })
                    .collect()
            })
            .collect();
        let timeline = schedule_queues_dag(&config, &dag).expect("acyclic DAG");
        let got = dev.schedule_queues_dag(&dag).expect("acyclic DAG");
        let want = report_of(&timeline);
        prop_assert_eq!(&got.per_bank_ns, &want.per_bank_ns);
        prop_assert_eq!(&got.per_bank_energy_nj, &want.per_bank_energy_nj);
        prop_assert_eq!(&got.job_end_ns, &want.job_end_ns);
        prop_assert_eq!(got.latency_ns, want.latency_ns);
        prop_assert_eq!(got.energy_nj, want.energy_nj);
        prop_assert_eq!(got.bus_slots, want.bus_slots);
        prop_assert_eq!(got.rank_acts, want.rank_acts);
        prop_assert_eq!(&got.per_channel_bus_slots, &want.per_channel_bus_slots);
        prop_assert_eq!(&got.per_rank_acts, &want.per_rank_acts);
        prop_assert_eq!(&got.barrier_ns, &want.barrier_ns);
        // The logged banks are the whole story: each bank's end is its
        // latest event's end, and its claims are the bus slots its
        // channel counted.
        for tl in &timeline.banks {
            let last_end = tl.events.iter().map(|e| e.end_ps).max().unwrap_or(0);
            prop_assert_eq!(tl.end_ps, last_end);
        }
        let banks = timeline.bank_schedules(&dag);
        let mut per_channel = vec![0u64; channels as usize];
        for (b, bank) in banks.iter().enumerate() {
            per_channel[config.topology.location(b).channel as usize] += bank.claims.len() as u64;
        }
        prop_assert_eq!(&per_channel, &timeline.per_channel_bus_slots);
        if let Err(v) = validate_queues(
            config.timing.resolve(),
            config.geometry,
            config.topology,
            &banks,
        ) {
            return Err(TestCaseError::fail(format!(
                "{} refresh={refresh}: {v}",
                config.topology
            )));
        }
    }
}
