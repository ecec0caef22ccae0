//! In-order issue engine: logical command stream → timed schedule.
//!
//! The memory controller issues one command per memory-clock cycle on the
//! shared command bus, respecting (i) DRAM bank and rank timing (the
//! paper's Table I), (ii) compute-unit occupancy, and (iii) atom-buffer
//! hazards (a buffer can be refilled only after its previous contents were
//! consumed or drained). Rows are managed lazily (open-page): `PRE`/`ACT`
//! pairs are inserted exactly when a column command targets a different
//! row, and a `PRE` before a refresh, so the mapper's command *order*
//! fully determines the activation count — which is how the paper's
//! pipelining reduces activations (Fig. 6c) without any scheduler-side
//! special case.
//!
//! Pipelining therefore needs no lookahead here: the mapper emits the
//! paper's software-pipelined order, and in-order issue with per-resource
//! earliest times produces the overlapped timeline of Fig. 6.
//!
//! [`schedule_queues`] runs one program *sequence* per bank with a
//! *shared* command bus (banks have private rows, buffers and CUs, but
//! commands serialize on the bus) — the paper's bank-level parallelism
//! model (§VI.A, §VII). One program per bank is the paper's case; longer
//! queues drain back to back, each bank advancing to its next program as
//! soon as the previous one finishes, with no cross-bank barrier — only
//! the shared command bus and the rank's tRRD/tFAW window couple the banks.
//! [`lpt_assign`] is the matching longest-processing-time bin-packing
//! helper that builds balanced queues from per-job cost estimates.
//!
//! The multi-bank entry points are topology-aware: banks are indexed
//! globally across the config's `channels × ranks × banks` device shape
//! ([`crate::config::Topology`]), each channel gets its own command bus,
//! and each rank its own tRRD/tFAW window — so two banks couple through a
//! bus only when they share a channel, and through an activation window
//! only when they share a rank. [`lpt_assign_topology`] is the matching
//! hierarchical scheduler: LPT across channels first (the scarce, fully
//! independent resource), then LPT across the banks within each channel.
//!
//! One bus model and one issue rule serve every entry point. Each channel
//! has one [`dram_sim::chip::FairBus`], which grants the first free slot
//! at or after a request (its occupancy bitset costs one bit per bus
//! cycle up to the latest claim). Each bank issues in order: its next
//! claim asks for no slot before the one after its previous claim, so
//! a bank never overtakes its own program and only *other* banks'
//! commands backfill the gaps it leaves. [`schedule`], the paper's
//! single-transform path, is the one-bank case of the same queue engine,
//! where the rule reduces to a strictly monotonic stream of slots.
//!
//! The scheduler keeps its own timing state. Each bank has three fronts,
//! the earliest bus slot of its next ACT (or REF), PRE and column
//! command, and every command it issues raises them once: an ACT at slot
//! t raises the ACT front to t + tRC, the PRE front to t + tRAS and the
//! column front to t + tRCD; a PRE raises the ACT front to t + tRP; a RD
//! raises the column front to t + tCCD and the PRE front to t + CL, a WR
//! the PRE front to t + CL + tWR; a REF raises the ACT front to t + tRFC.
//! A bank's issue slots strictly increase, so each front is Table I's
//! rule against the bank's last command of each kind. Each rank keeps its
//! last four ACTs for tRRD and tFAW. Times are whole bus slots: a
//! compute-unit latency that is not a whole number of them is rounded up
//! for the commands that wait on it and stays exact in the reported ends.
//! [`dram_sim::validate::validate_queues`] checks finished schedules
//! against the in-order rule, the topology's timing and the DAG barriers
//! ([`QueueTimeline::bank_schedules`] builds its input) by replaying them
//! through dram-sim's `BankTimer` and `RankTimer`, which this module does
//! not use: the checker shares no timing rule with the scheduler.
//!
//! The per-command [`Event`] log, [`Timeline::logical_issue_ps`] and the
//! claimed slots exist only for the callers that return a timeline —
//! [`schedule`], [`schedule_queues`] and [`schedule_queues_dag`]. The
//! batch path ([`crate::device::PimDevice::schedule_queues`] and
//! [`crate::device::PimDevice::schedule_queues_dag`], hence every PIM
//! backend) and the cost estimates need only times, so they call
//! [`schedule_queues_unlogged`]: the same engine without the log, where
//! each bank keeps just its queue cursor, fronts and completion time,
//! and host cost grows with the commands issued.

use crate::cmd::{BufId, PimCommand};
use crate::config::PimConfig;
use crate::mapper::Program;
use crate::PimError;
use dram_sim::bank::{BankCommand, BankCounters};
use dram_sim::chip::FairBus;
use dram_sim::energy::{EnergyMeter, EnergyParams};
use dram_sim::trace::TraceEntry;
use dram_sim::validate::{BankSchedule, BusClaim, QueuedJob};

/// One scheduled command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Issue time (bus slot), ps.
    pub at_ps: u64,
    /// Time the command's effect completes (data valid / CU done), ps.
    pub end_ps: u64,
    /// The command.
    pub cmd: PimCommand,
}

/// A fully timed single-bank schedule.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Events in issue order (including inserted `ACT`/`PRE`).
    pub events: Vec<Event>,
    /// Completion time of the whole schedule, ps.
    pub end_ps: u64,
    /// DRAM command counters (activations are the paper's key metric).
    pub counters: BankCounters,
    /// Energy tally.
    pub energy: EnergyMeter,
    /// Issue time of each *logical* program command (parallel to
    /// `Program::commands`; inserted ACT/PRE excluded) — lets callers map
    /// [`crate::mapper::StageMark`]s to wall-clock phases.
    pub logical_issue_ps: Vec<u64>,
    /// Every bus slot the bank claimed, ps, in issue order: one per
    /// event, plus one per further beat of a `SetModulus`/`SetTwiddle`
    /// broadcast, whose event records only its first slot. On a shared
    /// bus other banks' commands may take slots between the beats.
    pub slots_ps: Vec<u64>,
    /// Index into `slots_ps` of each queued program's first claim, in
    /// queue order (an empty program's is that of the next claim): the
    /// row close between two programs counts toward the earlier one.
    pub program_first_slot: Vec<usize>,
}

/// One phase of a schedule, resolved to wall-clock time (see
/// [`Timeline::phase_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlice {
    /// The mark's label.
    pub label: String,
    /// Phase start (issue of its first command), ps.
    pub start_ps: u64,
    /// Phase end (issue of the next phase's first command, or schedule
    /// end), ps.
    pub end_ps: u64,
    /// Row activations issued within the phase window.
    pub activations: u64,
}

impl PhaseSlice {
    /// Phase span in nanoseconds.
    pub fn span_ns(&self) -> f64 {
        (self.end_ps - self.start_ps) as f64 / 1000.0
    }
}

/// A multi-bank queue schedule: one program *sequence* per bank, drained
/// asynchronously over the shared command bus (see [`schedule_queues`]).
#[derive(Debug, Clone)]
pub struct QueueTimeline {
    /// Per-bank timelines (one per queue, in queue order). Each timeline
    /// spans the bank's *whole queue* — its events and `logical_issue_ps`
    /// concatenate every queued program (plus the inter-program row
    /// close), so [`Timeline::phase_breakdown`] is only meaningful
    /// against a single-program queue's program; use `job_end_ps` for
    /// per-program boundaries instead.
    pub banks: Vec<Timeline>,
    /// Completion time of each queued program, ps: `job_end_ps[b][j]` is
    /// when bank `b` finished its `j`-th program (all of its commands'
    /// effects complete), measured from batch start.
    pub job_end_ps: Vec<Vec<u64>>,
    /// Completion of the slowest bank, ps.
    pub end_ps: u64,
    /// Shared-bus slots issued across all banks (summed over channels).
    pub bus_slots: u64,
    /// Rank-level activation count (summed over ranks).
    pub rank_acts: u64,
    /// Bus slots per channel (indexed by channel id) — the per-channel
    /// contention picture behind the `bus_slots` total.
    pub per_channel_bus_slots: Vec<u64>,
    /// Activations per rank (indexed by global rank id,
    /// `channel * ranks + rank`).
    pub per_rank_acts: Vec<u64>,
    /// Completion time of each DAG barrier (indexed by barrier id), ps:
    /// the instant the last program signaling that barrier finished.
    /// Empty for barrier-free schedules ([`schedule_queues`]); filled by
    /// [`schedule_queues_dag`] — the per-stage boundary of a split
    /// large-transform job.
    pub barrier_ps: Vec<u64>,
}

impl QueueTimeline {
    /// Latency of the slowest bank in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.end_ps as f64 / 1000.0
    }

    /// The schedule as [`dram_sim::validate::validate_queues`] replays
    /// it: each bank's bus claims in issue order, with their program and
    /// DRAM command, and each program's barrier tags (from `queues`, the
    /// input this timeline was scheduled from) and completion time. A
    /// timeline from [`schedule_queues_unlogged`] has no claims.
    ///
    /// # Panics
    ///
    /// Panics when `queues` is not the shape of the schedule (a queue or
    /// program count differs).
    pub fn bank_schedules(&self, queues: &[Vec<DagJob<'_>>]) -> Vec<BankSchedule> {
        assert_eq!(queues.len(), self.banks.len(), "one queue per bank");
        self.banks
            .iter()
            .zip(queues)
            .zip(&self.job_end_ps)
            .map(|((tl, queue), ends)| {
                assert_eq!(queue.len(), ends.len(), "one end per program");
                // Each event claimed the slot it records; the slots in
                // between are its further broadcast beats.
                let mut events = tl.events.iter().peekable();
                let claims = tl
                    .slots_ps
                    .iter()
                    .enumerate()
                    .map(|(s, &at_ps)| BusClaim {
                        at_ps,
                        job: tl.program_first_slot.partition_point(|&f| f <= s) - 1,
                        cmd: events
                            .next_if(|e| e.at_ps == at_ps)
                            .and_then(|e| bank_command(&e.cmd)),
                    })
                    .collect();
                assert!(events.next().is_none(), "an event without a claim");
                let jobs = queue
                    .iter()
                    .zip(ends)
                    .map(|(job, &end_ps)| QueuedJob {
                        waits_on: job.waits_on,
                        signals: job.signals,
                        end_ps,
                    })
                    .collect();
                BankSchedule { claims, jobs }
            })
            .collect()
    }
}

impl Timeline {
    /// Schedule latency in nanoseconds.
    pub fn latency_ns(&self) -> f64 {
        self.end_ps as f64 / 1000.0
    }

    /// Schedule latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.end_ps as f64 / 1.0e6
    }

    /// Row activations issued.
    pub fn activations(&self) -> u64 {
        self.counters.acts
    }

    /// Buckets the schedule into the program's marked phases: each
    /// [`crate::mapper::StageMark`] owns the window from its first
    /// command's issue to the next mark's (or the schedule end). This is
    /// the data behind the paper's "a bigger portion of runtime is
    /// accounted for by inter-row mapping" argument (§VI.C).
    ///
    /// # Panics
    ///
    /// Panics if a mark indexes past the logical command list (cannot
    /// happen for mapper-produced programs).
    pub fn phase_breakdown(&self, program: &crate::mapper::Program) -> Vec<PhaseSlice> {
        let mut out = Vec::with_capacity(program.marks.len());
        for (i, mark) in program.marks.iter().enumerate() {
            let start_ps = self.logical_issue_ps[mark.first_command];
            let end_ps = program
                .marks
                .get(i + 1)
                .map(|next| self.logical_issue_ps[next.first_command])
                .unwrap_or(self.end_ps);
            let activations = self
                .events
                .iter()
                .filter(|e| {
                    matches!(e.cmd, PimCommand::Act { .. })
                        && e.at_ps >= start_ps
                        && e.at_ps < end_ps
                })
                .count() as u64;
            out.push(PhaseSlice {
                label: mark.label.clone(),
                start_ps,
                end_ps,
                activations,
            });
        }
        out
    }

    /// The DRAM-visible part of the schedule as entries of the text
    /// trace format ([`dram_sim::trace::to_text`] writes them one command
    /// per line, [`dram_sim::trace::from_text`] reads them back), all on
    /// bank 0. Compute-unit commands and broadcast beats claim bus slots
    /// but put no command on the bank, so they are not in the trace.
    pub fn bank_trace(&self) -> Vec<TraceEntry> {
        self.events
            .iter()
            .filter_map(|e| {
                bank_command(&e.cmd).map(|cmd| TraceEntry {
                    at_ps: e.at_ps,
                    bank: 0,
                    cmd,
                })
            })
            .collect()
    }

    /// Renders a Fig. 5/6-style two-track ASCII timing diagram of the
    /// window `[from_ps, to_ps)`, one character per `step_ps`.
    ///
    /// # Panics
    ///
    /// Panics on an empty window or zero step.
    pub fn render_ascii(&self, from_ps: u64, to_ps: u64, step_ps: u64) -> String {
        assert!(step_ps > 0 && to_ps > from_ps, "empty render window");
        let cols = ((to_ps - from_ps) / step_ps) as usize + 1;
        let mut io = vec![b'.'; cols];
        let mut cu = vec![b'.'; cols];
        for e in &self.events {
            if e.at_ps >= to_ps || e.end_ps <= from_ps {
                continue;
            }
            let a = (e.at_ps.max(from_ps) - from_ps) / step_ps;
            let b = ((e.end_ps.min(to_ps).saturating_sub(1)).max(e.at_ps.max(from_ps)) - from_ps)
                / step_ps;
            let track = if e.cmd.uses_cu() { &mut cu } else { &mut io };
            let label = e.cmd.mnemonic().as_bytes();
            for (k, slot) in (a..=b.min(cols as u64 - 1)).enumerate() {
                track[slot as usize] = if k < label.len() { label[k] } else { b'=' };
            }
        }
        format!(
            "I/O |{}|\nCU  |{}|",
            String::from_utf8_lossy(&io),
            String::from_utf8_lossy(&cu)
        )
    }
}

/// The DRAM command a PIM command puts on the bank, if any.
fn bank_command(cmd: &PimCommand) -> Option<BankCommand> {
    Some(match *cmd {
        PimCommand::Act { row } => BankCommand::Act { row },
        PimCommand::Pre => BankCommand::Pre,
        PimCommand::CuRead { col, .. } => BankCommand::Rd { col },
        PimCommand::CuWrite { col, .. } => BankCommand::Wr { col },
        PimCommand::Refresh => BankCommand::Ref,
        _ => return None,
    })
}

/// A compute-unit latency: its exact length, for the reported ends, and
/// the bus slots it spans rounded up, after which a command waiting on it
/// may claim a slot. On a CU clock other than the memory clock it need
/// not be whole slots: at 900 MHz a C1 takes 16665 ps, 20.006 slots of
/// 833 ps.
#[derive(Clone, Copy)]
struct Latency {
    ps: u64,
    slots: u64,
}

impl Latency {
    fn new(ps: u64, cycle_ps: u64) -> Self {
        Self {
            ps,
            slots: ps.div_ceil(cycle_ps),
        }
    }
}

/// What every bank's issue rules read, resolved once per scheduling call:
/// the DRAM timing in bus slots (Table I's memory cycles), the
/// compute-unit latencies, the buffer count and the energy per command.
struct Costs {
    cycle_ps: u64,
    cl: u64,
    t_ccd: u64,
    t_rp: u64,
    t_ras: u64,
    t_rcd: u64,
    t_rc: u64,
    t_wr: u64,
    t_refi: u64,
    t_rfc: u64,
    t_rrd: u64,
    t_faw: u64,
    n_bufs: usize,
    c1: Latency,
    c2: Latency,
    elementwise: Latency,
    reg_move: Latency,
    reg_bu: Latency,
    param_beats: u64,
    energy: EnergyParams,
}

impl Costs {
    fn new(config: &PimConfig) -> Self {
        let t = config.timing;
        let cycle_ps = t.cycle_ps();
        let latency = |ps| Latency::new(ps, cycle_ps);
        Self {
            cycle_ps,
            cl: t.cl.into(),
            t_ccd: t.t_ccd.into(),
            t_rp: t.t_rp.into(),
            t_ras: t.t_ras.into(),
            t_rcd: t.t_rcd.into(),
            t_rc: u64::from(t.t_ras) + u64::from(t.t_rp),
            t_wr: t.t_wr.into(),
            t_refi: t.t_refi.into(),
            t_rfc: t.t_rfc.into(),
            t_rrd: t.t_rrd.into(),
            t_faw: t.t_faw.into(),
            n_bufs: config.n_bufs,
            c1: latency(config.c1_ps()),
            c2: latency(config.c2_ps()),
            elementwise: latency(config.elementwise_ps()),
            reg_move: latency(config.reg_move_ps()),
            reg_bu: latency(config.reg_bu_ps()),
            param_beats: config.cu.param_beats.into(),
            energy: EnergyParams::hbm2e_pim(),
        }
    }
}

/// One rank's activation window, in bus slots: tRRD after its last ACT,
/// tFAW after the fourth-last. Every ACT of the rank waits for
/// [`Self::act`], so the rank's ACTs strictly increase and the ring holds
/// its last four.
#[derive(Clone, Default)]
struct Rank {
    /// Slots of the last four ACTs; the oldest sits at `acts % 4`.
    ring: [u64; 4],
    /// ACTs issued so far.
    acts: u64,
    /// Earliest slot of the next ACT.
    act: u64,
}

impl Rank {
    fn record_act(&mut self, slot: u64, costs: &Costs) {
        self.ring[(self.acts % 4) as usize] = slot;
        self.acts += 1;
        self.act = slot + costs.t_rrd;
        if self.acts >= 4 {
            self.act = self
                .act
                .max(self.ring[(self.acts % 4) as usize] + costs.t_faw);
        }
    }
}

/// The first bus slot at which an atom buffer's contents are ready to
/// consume, and at which the buffer is free to refill.
#[derive(Clone, Copy, Default)]
struct Buf {
    ready: u64,
    busy: u64,
}

impl Buf {
    /// Filled, and free again, from `slot` on.
    fn at(slot: u64) -> Self {
        Self {
            ready: slot,
            busy: slot,
        }
    }
}

/// DAG barrier state: how many contributors each barrier still waits
/// for, and the completion front of those already done.
struct Barriers {
    left: Vec<usize>,
    end_ps: Vec<u64>,
}

/// One bank: its queue cursor and its own timing state.
///
/// Times are bus slots (whole memory cycles) except where a field says
/// ps: every readiness time is only ever asked for as a slot, so it is
/// kept rounded up to one, while completion times are reported exactly.
/// The DRAM rules are fronts: the earliest slot of the bank's next ACT
/// (or REF), PRE and column command, each raised by every command issued,
/// so a command checks one front and no rule is evaluated twice.
/// `LOG` fills `events`, `logical_issue_ps`, `slots_ps` and
/// `program_first_slot`: only for callers that return a [`Timeline`].
struct Engine<'a, const LOG: bool> {
    costs: &'a Costs,
    /// The bank's program queue, the position of its head program, that
    /// program's commands once it has started, and the position of its
    /// next command (0 before it starts).
    queue: &'a [DagJob<'a>],
    job: usize,
    commands: &'a [PimCommand],
    cmd: usize,
    /// The bus and the activation window the bank issues on.
    channel: usize,
    rank: usize,
    /// Completion front of the bank's programs so far, ps (the row close
    /// between queued programs does not count toward a program's end),
    /// and each finished program's completion.
    jobs_end_ps: u64,
    job_end_ps: Vec<u64>,
    /// Fronts: the next ACT or REF (every rule raises both alike), PRE
    /// and column command.
    act: u64,
    pre: u64,
    col: u64,
    open_row: Option<u32>,
    /// Whether a column command touched the open row (row-hit counting).
    row_touched: bool,
    counters: BankCounters,
    cu_free: u64,
    bufs: Vec<Buf>,
    events: Vec<Event>,
    logical_issue_ps: Vec<u64>,
    slots_ps: Vec<u64>,
    program_first_slot: Vec<usize>,
    /// Slot of the command recorded last (0 before the first).
    last: u64,
    /// Completion front: the latest effect end of any command, ps.
    end_ps: u64,
    energy: EnergyMeter,
    /// Next refresh deadline; `u64::MAX` disables refresh.
    next_ref: u64,
    /// Issue floor: no command may claim an earlier slot. One past the
    /// bank's latest claim (in-order issue; 0 before the first), raised
    /// to a DAG barrier's completion when the bank starts a program that
    /// waits on that barrier.
    floor: u64,
}

impl<'a, const LOG: bool> Engine<'a, LOG> {
    fn new(
        costs: &'a Costs,
        refresh: bool,
        queue: &'a [DagJob<'a>],
        channel: usize,
        rank: usize,
    ) -> Self {
        Self {
            costs,
            queue,
            job: 0,
            commands: &[],
            cmd: 0,
            channel,
            rank,
            jobs_end_ps: 0,
            job_end_ps: Vec::with_capacity(queue.len()),
            act: 0,
            pre: 0,
            col: 0,
            open_row: None,
            row_touched: false,
            counters: BankCounters::default(),
            cu_free: 0,
            bufs: vec![Buf::default(); costs.n_bufs],
            events: Vec::new(),
            logical_issue_ps: Vec::new(),
            slots_ps: Vec::new(),
            program_first_slot: Vec::new(),
            last: 0,
            end_ps: 0,
            energy: EnergyMeter::new(),
            next_ref: if refresh { costs.t_refi } else { u64::MAX },
            floor: 0,
        }
    }

    /// The bank's turn in the round-robin: completes any run of empty
    /// programs at its queue head instantly at its completion front (after
    /// a barrier they wait on, at that barrier's front), then issues the
    /// head program's next command unless the head waits on an unfinished
    /// barrier. Returns whether the bank made progress.
    fn step(
        &mut self,
        bus: &mut FairBus,
        rank: &mut Rank,
        barriers: &mut Barriers,
    ) -> Result<bool, PimError> {
        let mut progressed = false;
        if self.cmd == 0 {
            loop {
                let Some(&job) = self.queue.get(self.job) else {
                    return Ok(progressed);
                };
                let barrier_ps = match job.waits_on {
                    // Head gated: retry once the contributors drain.
                    Some(k) if barriers.left[k] > 0 => return Ok(progressed),
                    Some(k) => barriers.end_ps[k],
                    None => 0,
                };
                self.begin_program();
                if !job.program.commands.is_empty() {
                    // Floor every issue at the barrier's completion (the
                    // stage boundary).
                    self.floor = self.floor.max(barrier_ps.div_ceil(self.costs.cycle_ps));
                    self.commands = &job.program.commands;
                    break;
                }
                // An empty program ends at once, after its barrier.
                self.jobs_end_ps = self.jobs_end_ps.max(barrier_ps);
                self.finish_program(barriers);
                progressed = true;
            }
        }
        let commands = self.commands;
        self.issue(&commands[self.cmd], bus, rank)?;
        self.cmd += 1;
        if self.cmd == commands.len() {
            self.cmd = 0;
            self.finish_program(barriers);
            // Between queued jobs the host stages the next job's data
            // into the bank, so the open row must not carry over: close
            // it, and let the next program pay its own ACT. (Nothing
            // follows on this bank → no row to hand over.) The close
            // counts toward neither program's end.
            if self.job < self.queue.len() {
                let jobs_end_ps = self.jobs_end_ps;
                self.precharge(bus);
                self.jobs_end_ps = jobs_end_ps;
            }
        }
        Ok(true)
    }

    /// Records the head program's completion, counts it toward the
    /// barrier it signals, and moves to the next program.
    fn finish_program(&mut self, barriers: &mut Barriers) {
        self.job_end_ps.push(self.jobs_end_ps);
        if let Some(k) = self.queue[self.job].signals {
            barriers.left[k] -= 1;
            barriers.end_ps[k] = barriers.end_ps[k].max(self.jobs_end_ps);
        }
        self.job += 1;
    }

    /// Claims the first free bus slot at or after `earliest` and the
    /// issue floor. Banks issue in order, so only other banks' commands
    /// backfill this bank's gaps.
    fn claim(&mut self, bus: &mut FairBus, earliest: u64) -> u64 {
        let slot = bus.claim(earliest.max(self.floor));
        self.floor = slot + 1;
        if LOG {
            self.slots_ps.push(slot * self.costs.cycle_ps);
        }
        slot
    }

    /// Marks the start of the bank's next queued program in the log.
    fn begin_program(&mut self) {
        if LOG {
            self.program_first_slot.push(self.slots_ps.len());
        }
    }

    /// Records one command issued at `slot`: moves the issue cursor and
    /// the completion fronts, and logs the event when the log is kept.
    fn record(&mut self, slot: u64, end_ps: u64, cmd: &PimCommand) {
        self.last = slot;
        self.end_ps = self.end_ps.max(end_ps);
        self.jobs_end_ps = self.jobs_end_ps.max(end_ps);
        if LOG {
            self.events.push(Event {
                at_ps: slot * self.costs.cycle_ps,
                end_ps,
                cmd: *cmd,
            });
        }
    }

    /// Records a DRAM command issued at `slot` whose effect lasts
    /// `slots`.
    fn record_dram(&mut self, slot: u64, slots: u64, cmd: &PimCommand) {
        self.record(slot, (slot + slots) * self.costs.cycle_ps, cmd);
    }

    /// The index of buffer `b`, refused past Nb.
    fn check_buf(&self, b: BufId) -> Result<usize, PimError> {
        let i = usize::from(b.0);
        if i >= self.bufs.len() {
            return Err(PimError::BufferMisuse {
                reason: format!("buffer {b} out of range for Nb={}", self.bufs.len()),
            });
        }
        Ok(i)
    }

    /// Closes the open row, if any: PRE at its front; the next ACT or
    /// REF waits tRP.
    fn precharge(&mut self, bus: &mut FairBus) {
        if self.open_row.take().is_some() {
            let slot = self.claim(bus, self.pre);
            let t_rp = self.costs.t_rp;
            self.act = self.act.max(slot + t_rp);
            self.counters.pres += 1;
            self.record_dram(slot, t_rp, &PimCommand::Pre);
        }
    }

    /// Refreshes the bank, closing the open row first (a refresh needs
    /// the bank precharged); the next ACT or REF waits tRFC.
    fn refresh(&mut self, bus: &mut FairBus) {
        self.precharge(bus);
        let slot = self.claim(bus, self.act);
        let t_rfc = self.costs.t_rfc;
        self.act = self.act.max(slot + t_rfc);
        self.counters.refreshes += 1;
        self.record_dram(slot, t_rfc, &PimCommand::Refresh);
    }

    /// Opens `row`, closing another open row first: ACT at the later of
    /// the bank's and the rank's fronts. The next ACT waits tRC, PRE
    /// tRAS, a column command tRCD.
    fn open(&mut self, row: u32, bus: &mut FairBus, rank: &mut Rank) {
        if self.open_row == Some(row) {
            return;
        }
        self.precharge(bus);
        let slot = self.claim(bus, self.act.max(rank.act));
        let costs = self.costs;
        self.act = self.act.max(slot + costs.t_rc);
        self.pre = self.pre.max(slot + costs.t_ras);
        self.col = self.col.max(slot + costs.t_rcd);
        rank.record_act(slot, costs);
        self.open_row = Some(row);
        self.row_touched = false;
        self.counters.acts += 1;
        self.energy.record_act(&costs.energy);
        self.record_dram(slot, costs.t_rcd, &PimCommand::Act { row });
    }

    /// Issues a column command to `row`, opening it if needed, at or
    /// after `ready` and the column front; returns its slot. The next
    /// column command waits tCCD, PRE CL plus `recovery` (tWR after a
    /// write).
    fn column(
        &mut self,
        row: u32,
        ready: u64,
        recovery: u64,
        bus: &mut FairBus,
        rank: &mut Rank,
    ) -> u64 {
        self.open(row, bus, rank);
        let slot = self.claim(bus, self.col.max(ready));
        self.col = self.col.max(slot + self.costs.t_ccd);
        self.pre = self.pre.max(slot + self.costs.cl + recovery);
        self.counters.row_hits += u64::from(self.row_touched);
        self.row_touched = true;
        slot
    }

    /// Issues a compute-unit command at or after `ready` and the CU's
    /// release; returns the slot from which its result is ready.
    fn compute(
        &mut self,
        ready: u64,
        latency: Latency,
        cmd: &PimCommand,
        bus: &mut FairBus,
    ) -> u64 {
        let slot = self.claim(bus, self.cu_free.max(ready));
        self.cu_free = slot + latency.slots;
        self.record(slot, slot * self.costs.cycle_ps + latency.ps, cmd);
        self.cu_free
    }

    /// Issues one logical command (plus any refresh and row-management
    /// prefix), recording its issue time for phase breakdowns.
    fn issue(
        &mut self,
        cmd: &PimCommand,
        bus: &mut FairBus,
        rank: &mut Rank,
    ) -> Result<(), PimError> {
        // Refresh injection: when the deadline passed, close the row and
        // refresh before the next command.
        let now = self.last;
        if now >= self.next_ref {
            self.refresh(bus);
            // Catch up in whole intervals (a long CU op may span several).
            while self.next_ref <= now {
                self.next_ref += self.costs.t_refi;
            }
        }
        self.issue_inner(cmd, bus, rank)?;
        // The logical command's own event is the last one recorded
        // (ACT/PRE prefixes come before it). A no-op PRE records nothing
        // and inherits the previous command's time, which is exactly when
        // it "happened".
        if LOG {
            self.logical_issue_ps.push(self.last * self.costs.cycle_ps);
        }
        Ok(())
    }

    fn issue_inner(
        &mut self,
        cmd: &PimCommand,
        bus: &mut FairBus,
        rank: &mut Rank,
    ) -> Result<(), PimError> {
        let costs = self.costs;
        match *cmd {
            PimCommand::Act { row } => self.open(row, bus, rank),
            PimCommand::Pre => self.precharge(bus),
            PimCommand::Refresh => self.refresh(bus),
            PimCommand::CuRead { row, buf, .. } => {
                let i = self.check_buf(buf)?;
                let slot = self.column(row, self.bufs[i].busy, 0, bus, rank);
                self.counters.reads += 1;
                self.energy.record_rd(&costs.energy);
                self.bufs[i] = Buf::at(slot + costs.cl);
                self.record_dram(slot, costs.cl, cmd);
            }
            PimCommand::CuWrite { row, buf, .. } => {
                let i = self.check_buf(buf)?;
                let slot = self.column(row, self.bufs[i].ready, costs.t_wr, bus, rank);
                self.counters.writes += 1;
                self.energy.record_wr(&costs.energy);
                self.bufs[i].busy = slot + costs.cl;
                self.record_dram(slot, costs.cl, cmd);
            }
            PimCommand::C1 { buf, .. } => {
                let i = self.check_buf(buf)?;
                let done = self.compute(self.bufs[i].ready, costs.c1, cmd, bus);
                self.bufs[i] = Buf::at(done);
                self.energy.record_c1(&costs.energy);
            }
            PimCommand::C2 { p, s, .. } | PimCommand::Pointwise { p, s } => {
                let latency = if matches!(cmd, PimCommand::C2 { .. }) {
                    costs.c2
                } else {
                    costs.elementwise
                };
                let (pi, si) = (self.check_buf(p)?, self.check_buf(s)?);
                let ready = self.bufs[pi].ready.max(self.bufs[si].ready);
                let done = self.compute(ready, latency, cmd, bus);
                self.bufs[pi] = Buf::at(done);
                self.bufs[si] = Buf::at(done);
                self.energy.record_c2(&costs.energy);
            }
            PimCommand::Scale { buf, .. } => {
                let i = self.check_buf(buf)?;
                let done = self.compute(self.bufs[i].ready, costs.elementwise, cmd, bus);
                self.bufs[i] = Buf::at(done);
                self.energy.record_c2(&costs.energy);
            }
            PimCommand::RegLoad { buf, .. } | PimCommand::RegStore { buf, .. } => {
                let i = self.check_buf(buf)?;
                let done = self.compute(self.bufs[i].ready, costs.reg_move, cmd, bus);
                if matches!(cmd, PimCommand::RegStore { .. }) {
                    self.bufs[i].ready = done;
                }
                self.bufs[i].busy = self.bufs[i].busy.max(done);
            }
            PimCommand::RegBu { .. } => {
                self.compute(0, costs.reg_bu, cmd, bus);
                self.energy.record_c2(&costs.energy);
            }
            PimCommand::SetModulus { .. } | PimCommand::SetTwiddle { .. } => {
                let beats = match *cmd {
                    PimCommand::SetTwiddle { beats } => u64::from(beats),
                    _ => costs.param_beats,
                };
                // The beats take the bank's next `beats` claims; on a
                // shared bus other banks' commands may land between them.
                // The CU latches parameters when idle.
                let first = self.claim(bus, self.cu_free);
                let mut slot = first;
                for _ in 1..beats {
                    slot = self.claim(bus, slot);
                }
                self.cu_free = self.cu_free.max(slot + 1);
                self.energy.record_param_beats(&costs.energy, beats);
                self.record(first, (slot + 1) * costs.cycle_ps, cmd);
            }
        }
        Ok(())
    }

    fn finish(self) -> (Timeline, Vec<u64>) {
        let timeline = Timeline {
            events: self.events,
            end_ps: self.end_ps,
            counters: self.counters,
            energy: self.energy,
            logical_issue_ps: self.logical_issue_ps,
            slots_ps: self.slots_ps,
            program_first_slot: self.program_first_slot,
        };
        (timeline, self.job_end_ps)
    }
}

/// Schedules a program on one bank: the one-bank, one-program case of
/// [`schedule_queues`], with the event log kept.
///
/// # Errors
///
/// [`PimError::BadConfig`] for an invalid configuration;
/// [`PimError::BufferMisuse`] when a command names a buffer past Nb,
/// which a correct mapper output never does.
pub fn schedule(config: &PimConfig, program: &Program) -> Result<Timeline, PimError> {
    let mut qt = schedule_multi::<true>(config, &[vec![DagJob::plain(program)]])?;
    Ok(qt.banks.swap_remove(0))
}

/// Schedules one program *queue* per bank over the shared command bus.
/// Banks round-robin for bus slots; each bank's stream stays in order.
///
/// Each bank runs its queue front to back and starts its next program the
/// moment the previous one's commands have drained — there is no
/// wave/barrier synchronization across banks; only bus slots and the
/// rank's tRRD/tFAW window couple them. This is the timing primitive
/// behind cost-model-driven batch scheduling: skewed queues let fast
/// banks race ahead instead of idling at a full-chip barrier.
///
/// `queues[b]` is *global* bank `b`'s program sequence (may be empty);
/// global bank ids enumerate the config topology channel-major (see
/// [`crate::config::Topology::location`]), so queues on different
/// channels share nothing and queues on different ranks of one channel
/// share only the bus.
///
/// ```
/// use ntt_pim_core::config::PimConfig;
/// use ntt_pim_core::device::{NttDirection, PimDevice, StoredOrder};
/// use ntt_pim_core::sched::schedule_queues;
///
/// # fn main() -> Result<(), ntt_pim_core::PimError> {
/// let config = PimConfig::hbm2e(2).with_banks(2);
/// let mut dev = PimDevice::new(config)?;
/// let coeffs: Vec<u32> = (0..256).collect();
/// // Bank 0 queues two transforms, bank 1 one: no barrier between them.
/// let h0 = dev.load_in_bank(0, 0, &coeffs, 7681, StoredOrder::BitReversed)?;
/// let h1 = dev.load_in_bank(1, 0, &coeffs, 7681, StoredOrder::BitReversed)?;
/// let p0 = dev.build_ntt_program(&h0, NttDirection::Forward)?;
/// let p1 = dev.build_ntt_program(&h1, NttDirection::Forward)?;
/// let qt = schedule_queues(&config, &[vec![p0.clone(), p0], vec![p1]])?;
/// assert_eq!(qt.job_end_ps[0].len(), 2);
/// assert!(qt.job_end_ps[0][0] < qt.job_end_ps[0][1]);
/// assert!(qt.end_ps >= qt.banks[1].end_ps);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// [`PimError::BadConfig`] when more queues than (total) banks are
/// supplied; otherwise as [`schedule`].
pub fn schedule_queues(
    config: &PimConfig,
    queues: &[Vec<Program>],
) -> Result<QueueTimeline, PimError> {
    let borrowed: Vec<Vec<DagJob>> = queues
        .iter()
        .map(|q| q.iter().map(DagJob::plain).collect())
        .collect();
    schedule_multi::<true>(config, &borrowed)
}

/// One queued program plus its dependency tags for
/// [`schedule_queues_dag`]: the program may not start before the barrier
/// it `waits_on` completes, and its own completion counts toward the
/// barrier it `signals`.
#[derive(Debug, Clone, Copy)]
pub struct DagJob<'a> {
    /// The mapped command stream.
    pub program: &'a Program,
    /// Barrier id this program waits for: none of its commands issue
    /// before every program signaling that barrier has finished.
    pub waits_on: Option<usize>,
    /// Barrier id this program contributes to: the barrier completes when
    /// the last contributor's commands have drained.
    pub signals: Option<usize>,
}

impl<'a> DagJob<'a> {
    /// An ordinary job with no dependencies (free to issue immediately).
    pub fn plain(program: &'a Program) -> Self {
        Self {
            program,
            waits_on: None,
            signals: None,
        }
    }
}

/// Dependency-aware variant of [`schedule_queues`]: programs carry
/// optional barrier tags ([`DagJob`]) and a program whose `waits_on`
/// barrier is incomplete is held back — its bank stays idle (or, with
/// ordinary jobs queued ahead of it, keeps draining those) until the last
/// contributor finishes, then issues with its commands floored at the
/// barrier's completion time.
///
/// This is the execution model of a *split large transform* (four-step
/// DAG, see `engine::batch`'s `JobKind::SplitLarge`): stage-1 column
/// sub-jobs fan out with no dependencies and all signal one barrier; the
/// stage-2 twiddle+row sub-jobs wait on it, because each row gathers one
/// element from *every* column's output. The barrier is the only
/// synchronization — sub-jobs co-packed with ordinary small jobs share
/// bus/rank/bank resources as usual, and ordinary jobs are never gated.
/// Host data movement between stages (gather/scatter) sits outside the
/// reported latency, like every host load/readback in this model.
///
/// Barrier ids are dense `0..n`: the returned
/// [`QueueTimeline::barrier_ps`] has one completion time per id. A
/// barrier no program signals completes at time 0.
///
/// # Errors
///
/// As [`schedule_queues`], plus [`PimError::BadConfig`] when the
/// dependency tags deadlock (a cycle, e.g. two programs waiting on each
/// other's barriers — never produced by the four-step lowering, whose
/// DAG is a two-stage fan-in).
pub fn schedule_queues_dag(
    config: &PimConfig,
    queues: &[Vec<DagJob<'_>>],
) -> Result<QueueTimeline, PimError> {
    schedule_multi::<true>(config, queues)
}

/// [`schedule_queues_dag`] without the per-command log: every figure of
/// the returned timeline is the same, but each bank's `events`,
/// `logical_issue_ps`, `slots_ps` and `program_first_slot` stay empty and
/// no command is cloned. The timing path of
/// [`crate::device::PimDevice::schedule_queues_dag`], whose report reads
/// none of them, and of latency-only estimates.
///
/// # Errors
///
/// As [`schedule_queues_dag`].
pub fn schedule_queues_unlogged(
    config: &PimConfig,
    queues: &[Vec<DagJob<'_>>],
) -> Result<QueueTimeline, PimError> {
    schedule_multi::<false>(config, queues)
}

/// The issue loop of every entry point: round-robin command interleave
/// across banks, one [`Engine`] per bank, program-boundary completion
/// times recorded per queue, barrier-tagged programs held until their
/// dependencies drain. One command bus per channel, one activation
/// window per rank — the topology's coupling structure. `LOG` fills
/// each bank's event log.
fn schedule_multi<const LOG: bool>(
    config: &PimConfig,
    queues: &[Vec<DagJob>],
) -> Result<QueueTimeline, PimError> {
    config.validate()?;
    let topo = config.topology;
    if queues.len() > topo.total_banks() {
        return Err(PimError::BadConfig {
            reason: format!(
                "{} program queues for {} banks (topology {topo})",
                queues.len(),
                topo.total_banks(),
            ),
        });
    }
    let costs = Costs::new(config);
    // Dense barrier table, ids 0..n.
    let n_barriers = queues
        .iter()
        .flatten()
        .flat_map(|j| [j.waits_on, j.signals])
        .flatten()
        .map(|k| k + 1)
        .max()
        .unwrap_or(0);
    let mut barriers = Barriers {
        left: vec![0; n_barriers],
        end_ps: vec![0; n_barriers],
    };
    for k in queues.iter().flatten().filter_map(|job| job.signals) {
        barriers.left[k] += 1;
    }
    // The fair (first-free-slot) bus lives in dram-sim, one per channel.
    let mut buses = vec![FairBus::new(); topo.channels as usize];
    // Banks of one rank share its activation window: tRRD/tFAW couple
    // their ACTs. Ranks are independent of each other.
    let mut ranks = vec![Rank::default(); topo.total_ranks()];
    let mut engines: Vec<Engine<LOG>> = queues
        .iter()
        .enumerate()
        .map(|(b, queue)| {
            let channel = topo.location(b).channel as usize;
            let rank = topo.global_rank(b);
            Engine::new(&costs, config.refresh, queue, channel, rank)
        })
        .collect();
    loop {
        let mut progressed = false;
        for e in &mut engines {
            let (bus, rank) = (&mut buses[e.channel], &mut ranks[e.rank]);
            progressed |= e.step(bus, rank, &mut barriers)?;
        }
        if !progressed {
            // Either every queue drained, or the remaining heads all wait
            // on barriers whose contributors can no longer run: a cycle.
            if let Some((b, e)) = engines
                .iter()
                .enumerate()
                .find(|(_, e)| e.job < e.queue.len())
            {
                let k = e.queue[e.job].waits_on.unwrap_or(0);
                return Err(PimError::BadConfig {
                    reason: format!(
                        "dependency deadlock: bank {b} waits on barrier {k}, \
                         which can never complete"
                    ),
                });
            }
            break;
        }
    }
    let (banks, job_end_ps): (Vec<Timeline>, Vec<Vec<u64>>) =
        engines.into_iter().map(Engine::finish).unzip();
    let end_ps = banks.iter().map(|t| t.end_ps).max().unwrap_or(0);
    let per_channel_bus_slots: Vec<u64> = buses.iter().map(FairBus::issued).collect();
    let per_rank_acts: Vec<u64> = ranks.iter().map(|r| r.acts).collect();
    Ok(QueueTimeline {
        banks,
        job_end_ps,
        end_ps,
        bus_slots: per_channel_bus_slots.iter().sum(),
        rank_acts: per_rank_acts.iter().sum(),
        per_channel_bus_slots,
        per_rank_acts,
        barrier_ps: barriers.end_ps,
    })
}

/// Longest-processing-time-first bin packing: jobs are taken in
/// descending `costs` order and each is appended to the currently
/// least-loaded of `banks` queues. Returns per-bank job-index queues.
///
/// The classic LPT guarantee applies: the heaviest bank's load is at most
/// `total/banks + max(costs)` — within one job of the trivial lower
/// bound on the optimal makespan. Ties (equal costs, equal loads) break
/// toward lower indices, so the assignment is deterministic.
///
/// # Panics
///
/// Panics when `banks` is zero.
pub fn lpt_assign(costs: &[f64], banks: usize) -> Vec<Vec<usize>> {
    assert!(banks > 0, "cannot assign jobs to zero banks");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); banks];
    let mut load = vec![0.0f64; banks];
    for job in order {
        let bank = (0..banks)
            .min_by(|&a, &b| {
                load[a]
                    .partial_cmp(&load[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .expect("banks > 0");
        queues[bank].push(job);
        load[bank] += costs[job].max(0.0);
    }
    queues
}

/// Hierarchical LPT over a `channels × ranks × banks` topology: jobs are
/// first balanced across *channels* (the fully independent resource — a
/// channel has its own command bus), then each channel's share is
/// balanced across its `ranks × banks` banks with plain [`lpt_assign`].
/// Returns per-*global-bank* job-index queues (`topology.total_banks()`
/// entries, channel-major order as in
/// [`crate::config::Topology::location`]).
///
/// On a single-channel topology this degenerates to exactly
/// [`lpt_assign`] over all banks, so callers can use it unconditionally.
///
/// # Panics
///
/// Panics when the topology has an empty level.
pub fn lpt_assign_topology(costs: &[f64], topology: &crate::config::Topology) -> Vec<Vec<usize>> {
    assert!(
        topology.is_valid(),
        "cannot assign jobs to topology {topology}"
    );
    let per_channel = lpt_assign(costs, topology.channels as usize);
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); topology.total_banks()];
    for (channel, jobs) in per_channel.iter().enumerate() {
        let sub_costs: Vec<f64> = jobs.iter().map(|&j| costs[j]).collect();
        let sub_queues = lpt_assign(&sub_costs, topology.banks_per_channel());
        for (local_bank, sub) in sub_queues.into_iter().enumerate() {
            queues[topology.channel_base(channel) + local_bank] =
                sub.into_iter().map(|s| jobs[s]).collect();
        }
    }
    queues
}

/// Predicted makespan of a batch under hierarchical LPT packing: the
/// load of the heaviest bank queue [`lpt_assign_topology`] would
/// produce, in the same unit as `costs`.
///
/// This is the per-device half of the fleet router's cost model: a
/// device's *predicted drain time* for a batch is its already-queued
/// work plus this makespan on the device's own topology — so a 1×1×2 device and a 4×2×2 device quote honestly
/// different prices for the same batch, and the router can compare
/// them. Queue-drain overlap (bus contention, tRRD/tFAW) is not
/// modeled; the figure is the same packing bound LPT itself optimizes,
/// which is what load comparison needs.
///
/// # Panics
///
/// Panics when the topology has an empty level (as
/// [`lpt_assign_topology`]).
pub fn lpt_makespan(costs: &[f64], topology: &crate::config::Topology) -> f64 {
    lpt_assign_topology(costs, topology)
        .iter()
        .map(|queue| queue.iter().map(|&j| costs[j].max(0.0)).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Topology;
    use crate::layout::PolyLayout;
    use crate::mapper::{map_ntt, MapperOptions, NttParams};
    use dram_sim::validate::validate_queues;

    const Q: u32 = 2_013_265_921; // 15 * 2^27 + 1
    const C: u64 = 833; // ps per memory cycle at 1200 MHz

    fn program(c: &PimConfig, n: usize, opts: MapperOptions) -> Program {
        let layout = PolyLayout::new(c, 0, n).unwrap();
        let omega = modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
        map_ntt(c, &layout, &NttParams { q: Q, omega }, &opts).unwrap()
    }

    fn run(nb: usize, n: usize, opts: MapperOptions) -> (PimConfig, Timeline) {
        let c = PimConfig::hbm2e(nb);
        let prog = program(&c, n, opts);
        let tl = schedule(&c, &prog).unwrap();
        (c, tl)
    }

    fn untagged(queues: &[Vec<Program>]) -> Vec<Vec<DagJob<'_>>> {
        queues
            .iter()
            .map(|q| q.iter().map(DagJob::plain).collect())
            .collect()
    }

    /// Replays `qt`, scheduled from `queues`, through the independent
    /// topology validator.
    fn assert_legal(c: &PimConfig, qt: &QueueTimeline, queues: &[Vec<DagJob>]) {
        let banks = qt.bank_schedules(queues);
        validate_queues(c.timing.resolve(), c.geometry, c.topology, &banks)
            .unwrap_or_else(|v| panic!("{v}"));
    }

    /// A hand-built program of `commands`.
    fn hand_built(commands: Vec<PimCommand>) -> Program {
        Program {
            commands,
            final_base: 0,
            c2_ops: 0,
            c1_ops: 0,
            marks: Vec::new(),
        }
    }

    fn act(row: u32) -> PimCommand {
        PimCommand::Act { row }
    }

    fn rd(row: u32) -> PimCommand {
        PimCommand::CuRead {
            row,
            col: 0,
            buf: BufId::PRIMARY,
        }
    }

    /// Schedules one hand-built program per bank on `topology`, replays
    /// the schedule through the independent validator, and returns it
    /// with each bank's command issue cycles.
    fn coupled(topology: Topology, programs: &[Vec<PimCommand>]) -> (QueueTimeline, Vec<Vec<u64>>) {
        coupled_on(PimConfig::hbm2e(2).with_topology(topology), programs)
    }

    /// [`coupled`] on a whole configuration.
    fn coupled_on(c: PimConfig, programs: &[Vec<PimCommand>]) -> (QueueTimeline, Vec<Vec<u64>>) {
        let queues: Vec<Vec<Program>> = programs
            .iter()
            .map(|commands| vec![hand_built(commands.clone())])
            .collect();
        let qt = schedule_queues(&c, &queues).unwrap();
        assert_legal(&c, &qt, &untagged(&queues));
        let cycles = qt
            .banks
            .iter()
            .map(|tl| tl.events.iter().map(|e| e.at_ps / C).collect())
            .collect();
        (qt, cycles)
    }

    #[test]
    fn schedules_validate_against_independent_checker() {
        for nb in [1usize, 2, 4, 6] {
            let c = PimConfig::hbm2e(nb);
            for n in [8usize, 64, 256, 512] {
                let queues = vec![vec![program(&c, n, MapperOptions::default())]];
                let qt = schedule_queues(&c, &queues).unwrap();
                let banks = qt.bank_schedules(&untagged(&queues));
                validate_queues(c.timing.resolve(), c.geometry, c.topology, &banks)
                    .unwrap_or_else(|v| panic!("nb={nb} n={n}: {v}"));
            }
        }
    }

    #[test]
    fn bus_serializes_commands_across_banks() {
        // All four banks are ready at cycle 0; tRRD (5 cycles) spaces the
        // activations, dominating the 1-cycle bus slots.
        let (_, at) = coupled(Topology::single_rank(4), &vec![vec![act(0)]; 4]);
        assert_eq!(at, [[0], [5], [10], [15]]);
    }

    #[test]
    fn bank_constraint_dominates_when_later_than_bus() {
        // The RD waits tRCD after its ACT, not for the next bus slot.
        let (_, at) = coupled(Topology::single_rank(1), &[vec![act(0), rd(0)]]);
        assert_eq!(at, [[0, 14]]);
    }

    #[test]
    fn interleaving_banks_hides_trcd() {
        // Bank 1 activates tRRD after bank 0, inside bank 0's tRCD
        // shadow; each RD waits tRCD after its own bank's ACT.
        let programs = [vec![act(0), rd(0)], vec![act(5), rd(5)]];
        let (_, at) = coupled(Topology::single_rank(2), &programs);
        assert_eq!(at, [[0, 14], [5, 19]]);
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        // The ACTs pace at tRRD (5 cycles). At Table I's values the tFAW
        // window (20 cycles) is four tRRD, so the fifth ACT meets both
        // rules at once; tfaw_wider_than_four_trrd_stalls_the_fifth_act
        // gives the window room to bind.
        let (qt, at) = coupled(Topology::single_rank(8), &vec![vec![act(0)]; 8]);
        assert_eq!(at.concat(), [0, 5, 10, 15, 20, 25, 30, 35]);
        assert_eq!(qt.per_rank_acts, [8]);
    }

    #[test]
    fn tfaw_wider_than_four_trrd_stalls_the_fifth_act() {
        // With a 30-cycle window the fifth ACT waits for the first to
        // leave it; each later ACT waits for the one four before it.
        let mut c = PimConfig::hbm2e(2).with_topology(Topology::single_rank(8));
        c.timing.t_faw = 30;
        let (_, at) = coupled_on(c, &vec![vec![act(0)]; 8]);
        assert_eq!(at.concat(), [0, 5, 10, 15, 30, 35, 40, 45]);
    }

    #[test]
    fn cross_rank_activations_are_independent() {
        // Two ranks of one bank each: back-to-back ACTs on different
        // ranks pace at the 1-cycle bus slot, not tRRD.
        let (qt, at) = coupled(Topology::new(1, 2, 1), &vec![vec![act(0)]; 2]);
        assert_eq!(at, [[0], [1]], "only the shared bus separates them");
        assert_eq!(qt.per_rank_acts, [1, 1]);
        // Same-rank ACTs on a sibling bank still pay tRRD.
        let (_, same) = coupled(Topology::single_rank(2), &vec![vec![act(0)]; 2]);
        assert_eq!(same, [[0], [5]], "same-rank ACTs pay tRRD");
    }

    #[test]
    fn tfaw_applies_per_rank_not_per_channel() {
        // 1 channel x 2 ranks x 4 banks: each rank sees four ACTs, so
        // all eight issue before the 20-cycle tFAW stall that a fifth ACT
        // on one rank waits for (see tfaw_limits_activation_bursts).
        // Rank 1's ACTs take the bus slots after rank 0's.
        let (qt, at) = coupled(Topology::new(1, 2, 4), &vec![vec![act(0)]; 8]);
        assert_eq!(at.concat(), [0, 5, 10, 15, 1, 6, 11, 16]);
        assert_eq!(qt.per_rank_acts, [4, 4]);
    }

    #[test]
    fn ranks_contend_for_the_shared_channel_bus() {
        // Both ranks want cycle 0 for their ACTs and the bus grants
        // consecutive cycles; each RD waits tRCD after its own ACT, so
        // the RDs also land one bus cycle apart.
        let (qt, at) = coupled(Topology::new(1, 2, 1), &vec![vec![act(0), rd(0)]; 2]);
        assert_eq!(at, [[0, 14], [1, 15]]);
        assert_eq!(qt.bus_slots, 4);
        assert_eq!(qt.per_channel_bus_slots, [4]);
    }

    #[test]
    fn more_buffers_never_slower() {
        let mut last = u64::MAX;
        for nb in [1usize, 2, 4, 6] {
            let (_, tl) = run(nb, 1024, MapperOptions::default());
            assert!(
                tl.end_ps <= last,
                "nb={nb} slower than smaller nb: {} > {last}",
                tl.end_ps
            );
            last = tl.end_ps;
        }
    }

    #[test]
    fn single_buffer_is_order_of_magnitude_slower() {
        let (_, tl1) = run(1, 512, MapperOptions::default());
        let (_, tl2) = run(2, 512, MapperOptions::default());
        assert!(
            tl1.end_ps > 5 * tl2.end_ps,
            "Nb=1 {} vs Nb=2 {}",
            tl1.end_ps,
            tl2.end_ps
        );
    }

    #[test]
    fn intra_row_transform_uses_minimal_activations() {
        // N = 256 fits in one row: exactly one activation.
        let (_, tl) = run(2, 256, MapperOptions::default());
        assert_eq!(tl.activations(), 1);
    }

    #[test]
    fn grouping_reduces_activations() {
        let base = MapperOptions {
            group_same_row: false,
            ..Default::default()
        };
        let (_, no_group) = run(4, 2048, base);
        let (_, grouped) = run(4, 2048, MapperOptions::default());
        assert!(
            grouped.activations() < no_group.activations(),
            "grouped {} !< ungrouped {}",
            grouped.activations(),
            no_group.activations()
        );
    }

    #[test]
    fn in_place_update_reduces_activations_and_time() {
        let ablated = MapperOptions {
            in_place_update: false,
            ..Default::default()
        };
        let (_, no_ip) = run(2, 2048, ablated);
        let (_, ip) = run(2, 2048, MapperOptions::default());
        assert!(ip.activations() < no_ip.activations());
        assert!(ip.end_ps < no_ip.end_ps);
    }

    #[test]
    fn inter_row_activation_count_matches_model() {
        // N = 1024 = 4R: stages 8 and 9 are inter-row; with Nb=2 the
        // in-place write order costs ~2 ACTs per vector op.
        let (_, tl) = run(2, 1024, MapperOptions::default());
        let inter_row_ops = 2 * 64;
        let acts = tl.activations() as usize;
        assert!(acts >= inter_row_ops, "too few activations: {acts}");
        // Phase 1 pays one ACT per row per stage pass (4 rows × 6 passes),
        // the inter-row stages ~2 per vector op.
        assert!(acts <= 4 * 6 + 2 * inter_row_ops + 4, "too many: {acts}");
    }

    #[test]
    fn ascii_render_contains_both_tracks() {
        let (_, tl) = run(2, 64, MapperOptions::default());
        let pic = tl.render_ascii(0, tl.end_ps.min(200_000), 833);
        assert!(pic.contains("I/O |"));
        assert!(pic.contains("CU  |"));
        assert!(pic.contains("RD") || pic.contains("AC"));
    }

    #[test]
    fn energy_scales_with_work() {
        let (_, small) = run(2, 256, MapperOptions::default());
        let (_, large) = run(2, 4096, MapperOptions::default());
        assert!(large.energy.total_pj > 10.0 * small.energy.total_pj);
    }

    #[test]
    fn parallel_banks_scale_nearly_linearly() {
        let c = PimConfig::hbm2e(2).with_banks(4);
        let prog = program(&c, 1024, MapperOptions::default());
        let single = schedule(&c, &prog).unwrap();
        let queues = vec![vec![prog.clone()]; 4];
        let four = schedule_queues(&c, &queues).unwrap();
        // 4 NTTs in 4 banks should take well under 2x one NTT's time.
        assert!(
            four.end_ps < 2 * single.end_ps,
            "4-bank {} vs 1-bank {}",
            four.end_ps,
            single.end_ps
        );
        // And the combined schedule must be globally legal.
        assert_legal(&c, &four, &untagged(&queues));
    }

    #[test]
    fn refresh_adds_small_overhead_and_stays_legal() {
        let n = 8192; // long enough to span several tREFI windows
        let base = PimConfig::hbm2e(2);
        let with_ref = base.with_refresh(true);
        let prog = program(&base, n, MapperOptions::default());
        let plain = schedule(&base, &prog).unwrap();
        let refreshed = schedule(&with_ref, &prog).unwrap();
        assert!(refreshed.counters.refreshes > 0, "refreshes must fire");
        assert!(refreshed.end_ps > plain.end_ps);
        let overhead = refreshed.end_ps as f64 / plain.end_ps as f64;
        assert!(
            overhead < 1.15,
            "refresh should cost a few percent, got {overhead:.3}x"
        );
        // The refreshed schedule is still protocol-legal, alone and with
        // two ranks of two banks refreshing behind one bus.
        let alone = vec![vec![prog.clone()]];
        assert_legal(
            &with_ref,
            &schedule_queues(&with_ref, &alone).unwrap(),
            &untagged(&alone),
        );
        let shared = with_ref.with_topology(Topology::new(1, 2, 2));
        let queues = vec![vec![prog]; 4];
        let qt = schedule_queues(&shared, &queues).unwrap();
        assert!(qt.banks.iter().all(|tl| tl.counters.refreshes > 0));
        assert_legal(&shared, &qt, &untagged(&queues));
    }

    #[test]
    fn refresh_does_not_change_results() {
        use crate::sim::FunctionalSim;
        let c = PimConfig::hbm2e(2).with_refresh(true);
        let prog = program(&c, 512, MapperOptions::default());
        let mut sim = FunctionalSim::new(&c).unwrap();
        let data: Vec<u32> = (0..512u32).collect();
        sim.load_words(0, &data);
        sim.execute(&prog).unwrap();
        // Scheduling with refresh injection must not disturb values
        // (refresh restores the row buffer, never data).
        let _ = schedule(&c, &prog).unwrap();
        let out = sim.read_region_at(prog.final_base, 512);
        assert_eq!(out.len(), 512);
    }

    #[test]
    fn parallel_rejects_too_many_programs() {
        let c = PimConfig::hbm2e(2); // 1 bank
        let prog = program(&c, 256, MapperOptions::default());
        assert!(schedule_queues(&c, &vec![vec![prog]; 2]).is_err());
    }

    #[test]
    fn queues_drain_asynchronously_without_wave_barriers() {
        let c = PimConfig::hbm2e(2).with_banks(2);
        let small = program(&c, 256, MapperOptions::default());
        let big = program(&c, 2048, MapperOptions::default());
        // Bank 0 runs three small programs, bank 1 one big program.
        let queues = vec![vec![small.clone(), small.clone(), small.clone()], vec![big]];
        let qt = schedule_queues(&c, &queues).unwrap();
        assert_eq!(qt.job_end_ps[0].len(), 3);
        assert_eq!(qt.job_end_ps[1].len(), 1);
        // Per-queue completion times are nondecreasing and end at the
        // bank's timeline end.
        assert!(qt.job_end_ps[0].windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*qt.job_end_ps[0].last().unwrap(), qt.banks[0].end_ps);
        // Bank 0 must NOT be stretched to bank 1's pace: its three small
        // transforms finish well before the big one (a wave-barrier model
        // would charge it 3x the big program's latency).
        assert!(qt.banks[0].end_ps < qt.banks[1].end_ps);
        assert_eq!(qt.end_ps, qt.banks[1].end_ps);
        // And the combined schedule stays protocol-legal.
        assert_legal(&c, &qt, &untagged(&queues));
    }

    #[test]
    fn queue_schedule_tolerates_empty_queues_and_rejects_excess() {
        let c = PimConfig::hbm2e(2).with_banks(2);
        let prog = program(&c, 256, MapperOptions::default());
        let qt = schedule_queues(&c, &[vec![prog.clone()], vec![]]).unwrap();
        assert!(qt.end_ps > 0);
        assert!(qt.job_end_ps[1].is_empty());
        assert!(schedule_queues(&c, &vec![vec![prog]; 3]).is_err());
    }

    #[test]
    fn lpt_assignment_is_complete_and_balanced() {
        let costs = [8.0, 1.0, 7.0, 3.0, 3.0, 2.0];
        let queues = lpt_assign(&costs, 3);
        let mut seen: Vec<usize> = queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "each job exactly once");
        let loads: Vec<f64> = queues
            .iter()
            .map(|q| q.iter().map(|&j| costs[j]).sum())
            .collect();
        let max_load = loads.iter().cloned().fold(0.0, f64::max);
        let total: f64 = costs.iter().sum();
        let max_cost = costs.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_load <= total / 3.0 + max_cost + 1e-9,
            "LPT bound violated: {max_load}"
        );
        // Deterministic: biggest job lands on bank 0.
        assert_eq!(queues[0][0], 0);
    }

    #[test]
    fn lpt_handles_fewer_jobs_than_banks() {
        let queues = lpt_assign(&[5.0], 4);
        assert_eq!(queues[0], vec![0]);
        assert!(queues[1..].iter().all(Vec::is_empty));
        assert!(lpt_assign(&[], 2).iter().all(Vec::is_empty));
    }

    #[test]
    fn hierarchical_lpt_degenerates_to_flat_on_single_channel() {
        let costs = [8.0, 1.0, 7.0, 3.0, 3.0, 2.0, 2.0, 9.0];
        for banks in [1u32, 2, 3, 4] {
            assert_eq!(
                lpt_assign_topology(&costs, &Topology::single_rank(banks)),
                lpt_assign(&costs, banks as usize),
                "banks={banks}"
            );
        }
    }

    #[test]
    fn hierarchical_lpt_balances_channels_before_banks() {
        // Two heavy jobs and six light ones on 2 channels × 1 rank × 2
        // banks: the heavies must land on different channels, and every
        // job must appear exactly once across the global queues.
        let costs = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let topo = Topology::new(2, 1, 2);
        let queues = lpt_assign_topology(&costs, &topo);
        assert_eq!(queues.len(), 4);
        let mut seen: Vec<usize> = queues.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<_>>());
        let ch_of_heavy0 = queues.iter().position(|q| q.contains(&0)).unwrap() / 2;
        let ch_of_heavy1 = queues.iter().position(|q| q.contains(&1)).unwrap() / 2;
        assert_ne!(ch_of_heavy0, ch_of_heavy1, "heavies split across channels");
        // Channel loads balance: each channel carries 10 + 3×1 = 13.
        for ch in 0..2 {
            let load: f64 = queues[ch * 2..(ch + 1) * 2]
                .iter()
                .flatten()
                .map(|&j| costs[j])
                .sum();
            assert!((load - 13.0).abs() < 1e-9, "channel {ch} load {load}");
        }
    }

    #[test]
    fn lpt_makespan_matches_heaviest_queue_and_scales_with_lanes() {
        let costs = [10.0, 10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let topo = Topology::new(2, 1, 2);
        let queues = lpt_assign_topology(&costs, &topo);
        let heaviest = queues
            .iter()
            .map(|q| q.iter().map(|&j| costs[j]).sum::<f64>())
            .fold(0.0, f64::max);
        assert!((lpt_makespan(&costs, &topo) - heaviest).abs() < 1e-12);
        // More lanes never predict a slower drain, fewer lanes quote a
        // higher price — the heterogeneity the fleet router relies on.
        let narrow = lpt_makespan(&costs, &Topology::new(1, 1, 2));
        let wide = lpt_makespan(&costs, &Topology::new(4, 2, 2));
        assert!(narrow > lpt_makespan(&costs, &topo));
        assert!(wide <= lpt_makespan(&costs, &topo));
        // Lower bounds: never below the single heaviest job, nor below
        // the perfectly balanced share.
        assert!(wide >= 10.0);
        assert!(narrow >= costs.iter().sum::<f64>() / 2.0);
        assert_eq!(lpt_makespan(&[], &topo), 0.0);
    }

    #[test]
    fn independent_channels_finish_like_idle_devices() {
        // c channels × 1 rank × 1 bank running identical programs: no
        // shared resource exists, so every bank finishes exactly when a
        // lone single-bank schedule would.
        let c = PimConfig::hbm2e(2).with_topology(Topology::new(4, 1, 1));
        let prog = program(&c, 512, MapperOptions::default());
        // Yardstick: the same queue alone on a 1×1×1 device.
        let lone = PimConfig::hbm2e(2);
        let single = schedule_queues(&lone, &[vec![prog.clone()]]).unwrap();
        let qt = schedule_queues(&c, &vec![vec![prog]; 4]).unwrap();
        for (b, tl) in qt.banks.iter().enumerate() {
            assert_eq!(tl.end_ps, single.end_ps, "bank {b}");
        }
        assert_eq!(qt.per_channel_bus_slots.len(), 4);
        assert!(qt.per_channel_bus_slots.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(qt.bus_slots, qt.per_channel_bus_slots.iter().sum::<u64>());
    }

    #[test]
    fn sharded_topology_beats_single_rank_at_equal_bank_count() {
        // 16 banks behind one bus/one rank vs the same 16 banks as
        // 2 channels × 2 ranks × 4 banks: splitting the bus and the
        // tRRD/tFAW windows must strictly reduce the makespan.
        let flat = PimConfig::hbm2e(2).with_banks(16);
        let sharded = PimConfig::hbm2e(2).with_topology(Topology::new(2, 2, 4));
        let prog = program(&flat, 1024, MapperOptions::default());
        let queues: Vec<Vec<Program>> = vec![vec![prog.clone(), prog.clone()]; 16];
        let qt_flat = schedule_queues(&flat, &queues).unwrap();
        let qt_sharded = schedule_queues(&sharded, &queues).unwrap();
        assert!(
            qt_sharded.end_ps < qt_flat.end_ps,
            "sharded {} !< flat {}",
            qt_sharded.end_ps,
            qt_flat.end_ps
        );
        // Same work either way: identical totals of bus commands.
        assert_eq!(qt_sharded.bus_slots, qt_flat.bus_slots);
        assert_eq!(qt_sharded.per_rank_acts.len(), 4);
        assert_eq!(
            qt_sharded.per_rank_acts.iter().sum::<u64>(),
            qt_sharded.rank_acts
        );
    }

    #[test]
    fn queue_error_names_the_topology() {
        let c = PimConfig::hbm2e(2).with_topology(Topology::new(2, 1, 2));
        let prog = program(&c, 256, MapperOptions::default());
        let err = schedule_queues(&c, &vec![vec![prog]; 5]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("5 program queues"), "{msg}");
        assert!(msg.contains("2x1x2"), "{msg}");
    }

    #[test]
    fn dag_barrier_gates_dependent_program() {
        // Bank 0 signals barrier 0; bank 1's program waits on it. The
        // waiting program must not issue a single command before the
        // contributor drains, even though its bank is otherwise idle.
        let c = PimConfig::hbm2e(2).with_banks(2);
        let prog = program(&c, 512, MapperOptions::default());
        let queues = vec![
            vec![DagJob {
                program: &prog,
                waits_on: None,
                signals: Some(0),
            }],
            vec![DagJob {
                program: &prog,
                waits_on: Some(0),
                signals: None,
            }],
        ];
        let qt = schedule_queues_dag(&c, &queues).unwrap();
        assert_eq!(qt.barrier_ps, vec![qt.job_end_ps[0][0]]);
        let barrier = qt.barrier_ps[0];
        let first_start = qt.banks[1].events.iter().map(|e| e.at_ps).min().unwrap();
        assert!(
            first_start >= barrier,
            "gated program started at {first_start} before barrier {barrier}"
        );
        // Untagged scheduling of the same queues overlaps the two banks.
        let free = schedule_queues(&c, &[vec![prog.clone()], vec![prog.clone()]]).unwrap();
        assert!(free.end_ps < qt.end_ps);
        assert!(free.barrier_ps.is_empty());
    }

    #[test]
    fn dag_plain_jobs_are_never_gated() {
        // A barrier-free job queued on the same bank *ahead of* a gated
        // one keeps the bank busy while the barrier is pending: its
        // completion time matches the fully untagged schedule.
        let c = PimConfig::hbm2e(2).with_banks(2);
        let prog = program(&c, 512, MapperOptions::default());
        let queues = vec![
            vec![DagJob {
                program: &prog,
                waits_on: None,
                signals: Some(0),
            }],
            vec![
                DagJob::plain(&prog),
                DagJob {
                    program: &prog,
                    waits_on: Some(0),
                    signals: None,
                },
            ],
        ];
        let qt = schedule_queues_dag(&c, &queues).unwrap();
        let free = schedule_queues(&c, &[vec![prog.clone()], vec![prog.clone()]]).unwrap();
        assert_eq!(qt.job_end_ps[1][0], free.job_end_ps[1][0]);
        // The gated follow-up still starts at/after the barrier.
        assert!(qt.job_end_ps[1][1] > qt.barrier_ps[0]);
    }

    #[test]
    fn dag_schedules_validate_against_independent_checker() {
        let c = PimConfig::hbm2e(2).with_banks(4);
        let prog = program(&c, 256, MapperOptions::default());
        let mk = |waits_on, signals| DagJob {
            program: &prog,
            waits_on,
            signals,
        };
        // Two-stage fan-in across four banks: the split-large shape.
        let queues = vec![
            vec![mk(None, Some(0)), mk(Some(0), None)],
            vec![mk(None, Some(0)), mk(Some(0), None)],
            vec![mk(None, Some(0)), mk(Some(0), None)],
            vec![mk(None, Some(0)), mk(Some(0), None)],
        ];
        let qt = schedule_queues_dag(&c, &queues).unwrap();
        assert_legal(&c, &qt, &queues);
        // Stage 2 on every bank starts only after the slowest stage 1.
        let stage1_max = (0..4).map(|b| qt.job_end_ps[b][0]).max().unwrap();
        assert_eq!(qt.barrier_ps[0], stage1_max);
        for b in 0..4 {
            assert!(qt.job_end_ps[b][1] > stage1_max);
        }
    }

    #[test]
    fn dag_deadlock_is_reported_not_hung() {
        let c = PimConfig::hbm2e(2).with_banks(2);
        let prog = program(&c, 256, MapperOptions::default());
        let queues = vec![
            vec![DagJob {
                program: &prog,
                waits_on: Some(0),
                signals: Some(1),
            }],
            vec![DagJob {
                program: &prog,
                waits_on: Some(1),
                signals: Some(0),
            }],
        ];
        let err = schedule_queues_dag(&c, &queues).unwrap_err();
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn buffer_past_nb_is_refused() {
        // Nb = 2 names buffers P and S1: a read into S2, or a pointwise
        // product with S2 as its second operand, is refused with a typed
        // error, whether or not the log is kept.
        let c = PimConfig::hbm2e(2);
        let past = BufId(2);
        for cmd in [
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: past,
            },
            PimCommand::Pointwise {
                p: BufId::PRIMARY,
                s: past,
            },
        ] {
            let prog = hand_built(vec![cmd]);
            let queues = [vec![DagJob::plain(&prog)]];
            for result in [
                schedule_queues_dag(&c, &queues),
                schedule_queues_unlogged(&c, &queues),
            ] {
                assert!(
                    matches!(result, Err(PimError::BufferMisuse { .. })),
                    "{result:?}"
                );
            }
        }
    }

    #[test]
    fn dag_unsignaled_barrier_completes_at_zero() {
        let c = PimConfig::hbm2e(2).with_banks(1);
        let prog = program(&c, 256, MapperOptions::default());
        let queues = vec![vec![DagJob {
            program: &prog,
            waits_on: Some(0),
            signals: None,
        }]];
        let qt = schedule_queues_dag(&c, &queues).unwrap();
        assert_eq!(qt.barrier_ps, vec![0]);
        let free = schedule_queues(&c, &[vec![prog]]).unwrap();
        assert_eq!(qt.end_ps, free.end_ps);
    }
}
