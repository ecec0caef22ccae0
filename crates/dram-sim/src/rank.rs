//! Rank-level activation constraints: tRRD and tFAW.
//!
//! Row activations draw large restore currents, so DRAM limits how fast a
//! *rank* (not just a bank) may activate: consecutive ACTs to different
//! banks must be tRRD apart, and any rolling tFAW window may contain at
//! most four ACTs. A single bank never trips these (its own tRC spacing is
//! wider), but bank-parallel workloads do — which is why the bank-level
//! parallelism experiment models them; without tFAW the multi-bank speedup
//! would be optimistic.
//!
//! [`RankTimer`] is the validator's rank model:
//! [`crate::validate::validate_queues`] replays each rank's activations
//! through one. The PIM scheduler (`ntt_pim_core::sched`) keeps its own
//! four-entry window per rank and does not use it.

use crate::timing::ResolvedTiming;
use std::collections::VecDeque;

/// Sliding-window activation tracker for one rank.
#[derive(Debug, Clone)]
pub struct RankTimer {
    t_rrd: u64,
    t_faw: u64,
    /// Issue times of the most recent activations (at most 4 kept).
    recent_acts: VecDeque<u64>,
    /// Total activations recorded over the rank's lifetime.
    total_acts: u64,
}

impl RankTimer {
    /// Creates an idle rank from resolved timing.
    pub fn new(timing: &ResolvedTiming) -> Self {
        Self {
            t_rrd: timing.t_rrd,
            t_faw: timing.t_faw,
            recent_acts: VecDeque::with_capacity(4),
            total_acts: 0,
        }
    }

    /// Total activations recorded on this rank — the cross-bank count a
    /// batched multi-bank schedule reports (per-bank counters miss the
    /// tRRD/tFAW coupling this rank-level figure captures).
    pub fn total_acts(&self) -> u64 {
        self.total_acts
    }

    /// Earliest time `>= now` at which the rank accepts another ACT.
    pub fn earliest_act(&self, now: u64) -> u64 {
        let mut earliest = now;
        if let Some(&last) = self.recent_acts.back() {
            earliest = earliest.max(last + self.t_rrd);
        }
        if self.recent_acts.len() == 4 {
            // The oldest of the last four ACTs opens the tFAW window.
            earliest = earliest.max(self.recent_acts[0] + self.t_faw);
        }
        earliest
    }

    /// Records an activation at `at_ps`.
    ///
    /// # Panics
    ///
    /// Debug-panics when the recorded time violates the rank's own
    /// constraints (callers must consult [`Self::earliest_act`] first).
    pub fn record_act(&mut self, at_ps: u64) {
        debug_assert!(
            at_ps >= self.earliest_act(0),
            "activation at {at_ps} violates tRRD/tFAW"
        );
        if self.recent_acts.len() == 4 {
            self.recent_acts.pop_front();
        }
        self.recent_acts.push_back(at_ps);
        self.total_acts += 1;
    }

    /// Checks a proposed activation without recording it.
    pub fn is_legal(&self, at_ps: u64) -> bool {
        at_ps >= self.earliest_act(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    const C: u64 = 833;

    fn rank() -> RankTimer {
        RankTimer::new(&TimingParams::hbm2e().resolve())
    }

    #[test]
    fn trrd_spaces_consecutive_activations() {
        let mut r = rank();
        r.record_act(0);
        assert_eq!(r.earliest_act(0), 5 * C); // tRRD = 5 cycles
        assert!(!r.is_legal(4 * C));
        assert!(r.is_legal(5 * C));
    }

    #[test]
    fn tfaw_caps_four_activations_per_window() {
        let mut r = rank();
        // Four ACTs at the tRRD pace: 0, 5, 10, 15 cycles.
        for i in 0..4u64 {
            let t = i * 5 * C;
            assert!(r.is_legal(t), "act {i}");
            r.record_act(t);
        }
        // The fifth must wait until the first leaves the tFAW window.
        assert_eq!(r.earliest_act(0), 20 * C); // tFAW = 20 cycles
        assert!(!r.is_legal(16 * C));
        r.record_act(20 * C);
        // Window slides: next earliest is max(20+5, 5+20) = 25 cycles.
        assert_eq!(r.earliest_act(0), 25 * C);
    }

    #[test]
    fn total_acts_counts_lifetime_activations() {
        let mut r = rank();
        assert_eq!(r.total_acts(), 0);
        for i in 0..6u64 {
            r.record_act(i * 48 * C);
        }
        assert_eq!(r.total_acts(), 6, "window keeps 4, count keeps all");
    }

    #[test]
    fn single_bank_pace_never_trips_the_rank() {
        // Same-bank ACTs are spaced by tRC = 48 cycles > tFAW/4.
        let mut r = rank();
        for i in 0..10u64 {
            let t = i * 48 * C;
            assert!(r.is_legal(t));
            r.record_act(t);
        }
    }
}
