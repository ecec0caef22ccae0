//! The process-wide pool of bank helper threads.
//!
//! Banks share no values (§VI.A: "FHE applications can naturally run
//! multiple NTT functions using multiple banks"), so
//! [`crate::device::PimDevice::run_banks`] runs the banks of one call
//! concurrently: each busy bank is one work item, and the calling thread
//! plus any helpers take items one at a time until none is left.
//!
//! Helpers are [`budget`] threads shared by every device in the process:
//! `available_parallelism() − 1`, so none on one core. The pool starts on
//! the first call with more than one item, and its threads then park on
//! one task queue for the life of the process. A call queues one drain
//! task for each item beyond the first, up to the pool's size, wakes
//! that many threads, and drains its own items too. A woken helper takes
//! items until none is left, so a helper that wakes late finds nothing
//! and goes back to sleep. A call waits only for items a helper has
//! already taken, never for another call's items, and a call with one
//! item, or on one core, runs on its caller alone.
//!
//! A parked thread woken by a condition variable starts in tens of
//! microseconds; a freshly spawned one, on a 2-vCPU x86-64 VM, first ran
//! a median 409 µs after its creator asked for it, most of a bank's
//! work. The pool pays the spawn once.
//!
//! Items must be `'static` and are moved to the thread that runs them:
//! each busy bank's simulator moves into its item and comes back with
//! it. A panicking item is caught where it ran, the rest still run, and
//! the call returns every item with the panic for its caller to re-raise
//! (`PimDevice::run_banks` puts its banks back first); the pool thread
//! goes on serving.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// One queued drain task.
type Task = Box<dyn FnOnce() + Send>;

/// Drain tasks waiting for a pool thread.
static TASKS: Mutex<VecDeque<Task>> = Mutex::new(VecDeque::new());
/// Signalled once per queued task.
static QUEUED: Condvar = Condvar::new();

// Both counters publish no other data (items travel through the call's
// own lock), so every access is `Relaxed`.
/// Pool threads running a task now.
static RUNNING: AtomicUsize = AtomicUsize::new(0);
/// The most pool threads ever running a task at once.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Helper threads the process may run at once: one fewer than the
/// cores available to it, so 0 on one core.
pub fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET
        .get_or_init(|| thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) - 1)
}

/// The most pool threads that ever ran a task at once in this process;
/// never above [`budget`]. A helper counts from the moment it starts a
/// task, whether or not an item is left for it, so the peak rises only
/// once a queued task starts, which can be after its call returned.
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

// Every lock below is held only across code that cannot panic (items run
// outside it), so the data is valid even if a poisoned lock is ever seen.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pool threads, started on first use: [`budget`] of them, fewer only if
/// the host refuses a thread.
fn pool_size() -> usize {
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        (0..budget())
            .take_while(|_| {
                thread::Builder::new()
                    .name("bank-helper".into())
                    .spawn(serve)
                    .is_ok()
            })
            .count()
    })
}

/// A pool thread's life: take a task, run it, park while none is queued.
/// It never ends, so nothing joins it; no task it runs can panic.
fn serve() {
    loop {
        let task = {
            let mut tasks = lock(&TASKS);
            loop {
                match tasks.pop_front() {
                    Some(task) => break task,
                    None => tasks = QUEUED.wait(tasks).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        PEAK.fetch_max(
            RUNNING.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        task();
        RUNNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What every thread draining one call shares.
struct Call<T, R, F> {
    work: F,
    progress: Mutex<Progress<T, R>>,
    /// Signalled when the last taken item finishes.
    finished: Condvar,
}

struct Progress<T, R> {
    /// Items not yet taken, in order; `items[i]` is `None` once taken.
    items: Vec<Option<T>>,
    /// The next item to take.
    next: usize,
    /// Items taken and not yet finished.
    running: usize,
    /// Finished items with their outcomes, by index.
    done: Vec<Option<(T, thread::Result<R>)>>,
}

impl<T, R, F: Fn(&mut T) -> R> Call<T, R, F> {
    /// Takes items one at a time and runs them until none is left.
    fn drain(&self) {
        let mut progress = lock(&self.progress);
        while progress.next < progress.items.len() {
            let index = progress.next;
            let mut item = progress.items[index]
                .take()
                .expect("each item is taken once");
            progress.next += 1;
            progress.running += 1;
            drop(progress);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.work)(&mut item)));
            progress = lock(&self.progress);
            progress.done[index] = Some((item, outcome));
            progress.running -= 1;
        }
        if progress.running == 0 {
            self.finished.notify_all();
        }
    }
}

/// Runs `work` once on every item, on the calling thread and on up to
/// one pool thread per item beyond the first, and returns the items in
/// their order with the results in the same order. When an item
/// panicked, every other item still ran and the result is the first
/// panic by item order, for the caller to re-raise once it has put the
/// items back where they belong.
pub(crate) fn map<T, R, F>(items: Vec<T>, work: F) -> (Vec<T>, thread::Result<Vec<R>>)
where
    T: Send + 'static,
    R: Send + 'static,
    F: Fn(&mut T) -> R + Send + Sync + 'static,
{
    let len = items.len();
    let call = Arc::new(Call {
        work,
        progress: Mutex::new(Progress {
            items: items.into_iter().map(Some).collect(),
            next: 0,
            running: 0,
            done: std::iter::repeat_with(|| None).take(len).collect(),
        }),
        finished: Condvar::new(),
    });
    if len > 1 {
        let helpers = (len - 1).min(pool_size());
        let mut tasks = lock(&TASKS);
        for _ in 0..helpers {
            let call = Arc::clone(&call);
            tasks.push_back(Box::new(move || call.drain()));
            QUEUED.notify_one();
        }
    }
    call.drain();
    let mut progress = lock(&call.progress);
    while progress.running > 0 {
        progress = call
            .finished
            .wait(progress)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let done = std::mem::take(&mut progress.done);
    drop(progress);
    let (mut items, mut results, mut panicked) = (Vec::with_capacity(len), Vec::new(), None);
    for (item, outcome) in done.into_iter().map(|d| d.expect("every item ran")) {
        items.push(item);
        match outcome {
            Ok(result) => results.push(result),
            Err(payload) => {
                panicked.get_or_insert(payload);
            }
        }
    }
    (items, panicked.map_or(Ok(results), Err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    /// An item that counts the times it ran.
    struct Counted {
        value: u64,
        runs: u32,
    }

    fn counted(len: usize) -> Vec<Counted> {
        (0..len as u64)
            .map(|value| Counted { value, runs: 0 })
            .collect()
    }

    fn double(item: &mut Counted) -> u64 {
        item.runs += 1;
        2 * item.value
    }

    #[test]
    fn every_item_runs_once_and_claims_are_returned() {
        for len in [0usize, 1, 2, 7, 64] {
            let (items, results) = map(counted(len), double);
            assert_eq!(items.len(), len);
            for (i, item) in items.iter().enumerate() {
                assert_eq!((item.value, item.runs), (i as u64, 1), "{len} items");
            }
            let want: Vec<u64> = (0..len as u64).map(|v| 2 * v).collect();
            assert_eq!(results.expect("no item panics"), want, "{len} items");
        }
        assert!(peak() <= budget());
    }

    #[test]
    fn claims_never_pass_the_budget() {
        // Four callers at once, each with more items than the pool has
        // threads, all queueing helper tasks together.
        let start = std::sync::Barrier::new(4);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..8 {
                        let (items, results) = map(counted(16), double);
                        assert!(items.iter().all(|item| item.runs == 1));
                        assert_eq!(results.expect("no item panics").len(), 16);
                    }
                });
            }
        });
        assert!(pool_size() <= budget());
        assert!(peak() <= budget(), "{} > {}", peak(), budget());
    }

    #[test]
    fn a_panicking_item_is_returned_after_every_other_item_ran() {
        let (items, results) = map(counted(8), |item: &mut Counted| {
            item.runs += 1;
            if item.value == 3 {
                panic!("item 3 fails");
            }
            item.value
        });
        let payload = results.expect_err("item 3 panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 3 fails"));
        assert_eq!(items.len(), 8, "every item comes back");
        assert!(items.iter().all(|item| item.runs == 1));
        // The pool still serves: with a helper to spare, two items that
        // each wait for the other complete only if a pool thread takes
        // one of them while the caller runs the other.
        if pool_size() == 0 {
            return;
        }
        let ((to_a, from_a), (to_b, from_b)) = (mpsc::channel(), mpsc::channel());
        let sides = vec![(to_a, from_b), (to_b, from_a)];
        let (_, results) = map(sides, |(to_other, from_other)| {
            to_other.send(()).expect("the other side is alive");
            from_other.recv_timeout(Duration::from_secs(30)).is_ok()
        });
        assert_eq!(results.expect("no item panics"), [true, true]);
    }
}
