//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the subset this workspace's benches use:
//! [`Criterion::benchmark_group`], `bench_function` /
//! `bench_with_input`, `sample_size`, [`BenchmarkId`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Measurement is a
//! simple adaptive timing loop reporting median time per iteration —
//! fine for relative comparisons, without criterion's statistics,
//! plotting, or baseline management.
//!
//! Under `cargo test` (cargo passes `--test` to `harness = false`
//! bench targets) each benchmark body runs exactly once as a smoke
//! test, keeping the tier-1 suite fast.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `name/parameter` id.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// Runs closures under measurement.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    samples: usize,
    /// Median nanoseconds per iteration of the last `iter` call.
    last_ns: f64,
}

impl Bencher {
    /// Times `f`, storing the median per-iteration cost.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.test_mode {
            std::hint::black_box(f());
            self.last_ns = 0.0;
            return;
        }
        // Calibrate the per-sample iteration count to ~1 ms.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(20));
        let iters =
            (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.last_ns = per_iter[per_iter.len() / 2];
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut b = Bencher {
            test_mode: self.criterion.test_mode,
            samples: self.sample_size,
            last_ns: 0.0,
        };
        f(&mut b);
        if self.criterion.test_mode {
            println!("test {}/{} ... ok", self.name, label);
        } else {
            println!(
                "{}/{}: {:>12.1} ns/iter (median of {} samples)",
                self.name, label, b.last_ns, self.sample_size
            );
        }
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        self.run(&id.label, f);
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run(&id.label, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; reporting is immediate).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Cargo invokes `harness = false` bench targets with `--test`
        // under `cargo test` and `--bench` under `cargo bench`.
        let test_mode = std::env::args().any(|a| a == "--test");
        Self { test_mode }
    }
}

impl Criterion {
    /// Starts a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 11,
            criterion: self,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let mut group = self.benchmark_group("bench");
        group.bench_function(id, f);
        self
    }
}

/// Re-export: prevent the optimizer from eliding a value.
pub use std::hint::black_box;

/// Declares a benchmark group function (criterion API subset).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        /// Benchmark group generated by `criterion_group!`.
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion { test_mode: true };
        let mut calls = 0;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.bench_function("f", |b| b.iter(|| calls += 1));
            g.bench_with_input(BenchmarkId::new("with", 7), &7u32, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert_eq!(calls, 1, "test mode runs the body once");
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("a", 16).label, "a/16");
        assert_eq!(BenchmarkId::from_parameter(256).label, "256");
    }
}
