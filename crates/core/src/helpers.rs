//! The process-wide budget of bank helper threads.
//!
//! Banks share no values (§VI.A: "FHE applications can naturally run
//! multiple NTT functions using multiple banks"), so
//! [`crate::device::PimDevice::run_banks`] runs the banks of one call
//! concurrently: each busy bank is one work item, and the calling thread
//! plus any helpers take items one at a time from a shared iterator.
//!
//! Helpers come from one budget shared by every device in the process:
//! `available_parallelism() − 1` threads, counted in an atomic. A call
//! claims at most one helper per busy bank beyond the first, takes
//! whatever is left of the budget, and returns its claim when it ends. A
//! call that finds the budget spent, or has only one busy bank, runs on
//! the calling thread alone. However many threads call at once (service
//! workers, test threads), the process never runs more helpers than the
//! host has spare cores, and on one core it starts none.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

// Both counters publish no other data (a claim only bounds how many
// threads start; the work they do is joined by `std::thread::scope`), so
// every access is `Relaxed`.
/// Helpers running now, across the process.
static IN_USE: AtomicUsize = AtomicUsize::new(0);
/// The most helpers ever running at once.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Helper threads the process may run at once: one fewer than the
/// cores available to it, so 0 on one core.
pub fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) - 1
    })
}

/// The most helper threads that ever ran at once in this process; never
/// above [`budget`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Helpers claimed from the budget, given back on drop.
struct Claim(usize);

impl Claim {
    /// Claims up to `want` helpers, as many as the budget has left.
    fn new(want: usize) -> Self {
        let budget = budget();
        let mut in_use = IN_USE.load(Ordering::Relaxed);
        loop {
            let grant = want.min(budget.saturating_sub(in_use));
            if grant == 0 {
                return Self(0);
            }
            match IN_USE.compare_exchange_weak(
                in_use,
                in_use + grant,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    PEAK.fetch_max(in_use + grant, Ordering::Relaxed);
                    return Self(grant);
                }
                Err(now) => in_use = now,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.0 > 0 {
            IN_USE.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

/// Runs `work` once per item. The calling thread and the helpers the
/// budget grants (at most one fewer than the items) take items one at a
/// time from a shared iterator until none is left; the call returns when
/// every item is done.
pub(crate) fn for_each<T: Send>(items: Vec<T>, work: impl Fn(T) + Sync) {
    let claim = Claim::new(items.len().saturating_sub(1));
    if claim.0 == 0 {
        items.into_iter().for_each(work);
        return;
    }
    let queue = Mutex::new(items.into_iter());
    // The lock is held only across `next`, which cannot panic, so the
    // iterator is valid even if a poisoned lock is ever seen.
    let next = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let drain = || {
        while let Some(item) = next() {
            work(item);
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..claim.0 {
            scope.spawn(drain);
        }
        drain();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_item_runs_once_and_claims_are_returned() {
        let sum = AtomicU64::new(0);
        for len in [0usize, 1, 2, 7, 64] {
            sum.store(0, Ordering::Relaxed);
            for_each((1..=len as u64).collect(), |v| {
                sum.fetch_add(v, Ordering::Relaxed);
            });
            let want = len as u64 * (len as u64 + 1) / 2;
            assert_eq!(sum.load(Ordering::Relaxed), want, "{len} items");
        }
        assert!(peak() <= budget());
    }

    #[test]
    fn claims_never_pass_the_budget() {
        let claims: Vec<Claim> = (0..4).map(|_| Claim::new(usize::MAX)).collect();
        let granted: usize = claims.iter().map(|c| c.0).sum();
        assert!(granted <= budget(), "{granted} > {}", budget());
        assert!(peak() <= budget());
    }
}
