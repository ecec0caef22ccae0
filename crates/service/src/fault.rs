//! Fault injection for the fleet tier: a switchable wrapper around one
//! backend so tests can make it error, panic or stall **on command** and
//! pin how the router reacts (drain onto healthy backends, resolve every
//! ticket — result or typed error, never a hang — and, once the fault
//! clears, re-admit the backend through the probe path).
//!
//! Every fleet worker drives its backend through a [`FailingDevice`],
//! itself an [`NttBackend`] described by the wrapped backend's cost
//! model; without a [`FaultSwitch`] attached it is a pass-through, so
//! the production and fault-injected paths are the same code. It also
//! turns
//! a panic inside the backend into a typed error, so a panicking backend
//! is retired like a failing one instead of killing its worker thread
//! (whose dropped tickets would never release their admission slots,
//! leaving shutdown waiting for them forever).

use ntt_bus::{BatchOutcome, BusCostModel, EngineError, NttBackend, NttJob};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Remote control for one backend's injected faults. Shared (`Arc`)
/// between the test and the worker thread driving the backend.
#[derive(Debug, Default)]
pub struct FaultSwitch {
    /// Fail the next batch execution with a typed error (one-shot).
    fail: AtomicBool,
    /// Panic inside the next batch execution (one-shot).
    panic: AtomicBool,
    /// Stall every batch execution this many microseconds (persistent —
    /// models a slow or wedged device rather than a single hiccup).
    stall_us: AtomicU64,
}

impl FaultSwitch {
    /// A switch with no faults armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms a one-shot execution failure: the backend's next batch
    /// errors instead of running.
    pub fn fail_next(&self) {
        self.fail.store(true, Ordering::Release);
    }

    /// Arms a one-shot panic: the backend's next batch panics inside
    /// the execution call, the way a backend bug would.
    pub fn panic_next(&self) {
        self.panic.store(true, Ordering::Release);
    }

    /// Stalls every subsequent batch execution by `delay` of wall-clock
    /// time (pass [`Duration::ZERO`] to clear).
    pub fn stall_for(&self, delay: Duration) {
        self.stall_us.store(
            delay.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Release,
        );
    }

    fn take_fail(&self) -> bool {
        self.fail.swap(false, Ordering::AcqRel)
    }

    fn take_panic(&self) -> bool {
        self.panic.swap(false, Ordering::AcqRel)
    }

    fn stall(&self) -> Duration {
        Duration::from_micros(self.stall_us.load(Ordering::Acquire))
    }
}

/// One fleet backend with an optional fault switch in front of it: a
/// backend itself, named, admitted and priced by the wrapped backend's
/// cost model, whose [`NttBackend::run`] applies the armed faults.
pub struct FailingDevice {
    inner: Box<dyn NttBackend>,
    switch: Option<std::sync::Arc<FaultSwitch>>,
}

impl std::fmt::Debug for FailingDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailingDevice")
            .field("backend", &self.inner.label())
            .field("faulted", &self.switch.is_some())
            .finish()
    }
}

impl FailingDevice {
    /// Wraps a backend; `switch: None` is a pure pass-through.
    pub fn new(inner: Box<dyn NttBackend>, switch: Option<std::sync::Arc<FaultSwitch>>) -> Self {
        Self { inner, switch }
    }
}

impl NttBackend for FailingDevice {
    fn cost_model(&self) -> BusCostModel {
        self.inner.cost_model()
    }

    /// Runs one batch, applying any armed fault first: an armed stall
    /// sleeps (the caller's wall clock — simulated time is unaffected,
    /// which is exactly what makes a stalled backend's queue back up),
    /// an armed failure returns a typed error without touching the
    /// backend, and an armed panic panics where the backend would run.
    /// Probe jobs run through this same path, so an armed fault fails
    /// the probe too — re-admission only succeeds once the fault has
    /// genuinely cleared.
    ///
    /// # Errors
    ///
    /// The injected fault, whatever the wrapped backend reports, or a
    /// typed error carrying the message of a panic in the backend.
    fn run(&mut self, jobs: &[NttJob]) -> Result<BatchOutcome, EngineError> {
        if let Some(switch) = &self.switch {
            let stall = switch.stall();
            if !stall.is_zero() {
                std::thread::sleep(stall);
            }
            if switch.take_fail() {
                return Err(EngineError::Shape {
                    reason: "injected device fault".into(),
                });
            }
        }
        let inject_panic = self.switch.as_ref().is_some_and(|s| s.take_panic());
        // The backend is retired on any error, so state a panic left
        // half-updated is never trusted again without a passing probe.
        panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected device panic");
            }
            self.inner.run(jobs)
        }))
        .unwrap_or_else(|payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(EngineError::Shape {
                reason: format!("backend panicked: {message}"),
            })
        })
    }
}
