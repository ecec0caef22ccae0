//! Sample summaries, simulated-clock accumulators and the run's output.

use ntt_pim::core::device::QueueReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A timing sample reduced to its median and its highest percentile
/// with at least ten samples beyond it.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `None` when the sample is too small for a tail above p75.
    pub tail: Option<(f64, f64)>,
}

const TAILS: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAILS.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n >= rank + 10).then(|| (p, percentile(&sorted, p)))
    });
    Summary {
        n,
        p50: percentile(&sorted, 50.0),
        tail,
    }
}

pub fn p50(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulated-clock statistics. Sums are kept in integers (ps, pJ,
/// parts per billion) and divided once at the end, so a workload whose
/// groups all have one shape reports exactly the same numbers however
/// many groups a run completes.
#[derive(Debug, Default, Clone)]
pub struct SimAcc {
    pub jobs: u64,
    busy_ps: u128,
    energy_pj: u128,
    pub job_ns: Vec<f64>,
    pim_jobs: u64,
    bus_slots: u128,
    rank_acts: u128,
    /// Job-weighted sums of per-group ratios, parts per billion.
    imbalance_ppb: u128,
    busy_frac_ppb: u128,
    pub barrier_ns: Vec<f64>,
}

fn fixed(value: f64, scale: f64) -> u128 {
    (value * scale).round().max(0.0) as u128
}

impl SimAcc {
    /// Adds one executed group of `jobs` jobs whose device report is
    /// `queue` (per-job latencies go to [`Self::job_ns`] separately).
    pub fn add_group(&mut self, queue: &QueueReport, energy_nj: f64, jobs: usize, pim: bool) {
        let n = jobs as u128;
        self.jobs += jobs as u64;
        self.busy_ps += fixed(queue.latency_ns, 1e3);
        self.energy_pj += fixed(energy_nj, 1e3);
        if !pim {
            return;
        }
        self.pim_jobs += jobs as u64;
        self.bus_slots += u128::from(queue.bus_slots);
        self.rank_acts += u128::from(queue.rank_acts);
        let channels = &queue.per_channel_bus_slots;
        let mean = channels.iter().sum::<u64>() as f64 / channels.len().max(1) as f64;
        let max = channels.iter().copied().max().unwrap_or(0) as f64;
        self.imbalance_ppb += n * fixed(ratio(max, mean), 1e9);
        let banks = queue.per_bank_ns.len() as f64;
        let busy = ratio(
            queue.per_bank_ns.iter().sum::<f64>(),
            banks * queue.latency_ns,
        );
        self.busy_frac_ppb += n * fixed(busy, 1e9);
    }

    pub fn us_per_job(&self) -> f64 {
        ratio(self.busy_ps as f64, self.jobs as f64) / 1e6
    }

    pub fn p99_us(&self) -> f64 {
        let mut sorted = self.job_ns.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, 99.0) / 1e3
    }

    /// Energy per PIM job: the CPU lanes model no energy, so counting
    /// their jobs would make this follow the routing split.
    pub fn nj_per_job(&self) -> f64 {
        ratio(self.energy_pj as f64, self.pim_jobs as f64) / 1e3
    }

    /// The `dram.*` per-layer metrics (PIM jobs only).
    pub fn dram_metrics(&self, out: &mut Metrics) {
        let pim = self.pim_jobs as f64;
        out.set("dram.bus_slots_per_job", ratio(self.bus_slots as f64, pim));
        out.set("dram.rank_acts_per_job", ratio(self.rank_acts as f64, pim));
        out.set(
            "dram.channel_imbalance",
            ratio(self.imbalance_ppb as f64, pim) / 1e9,
        );
        out.set(
            "dram.bank_busy_frac",
            ratio(self.busy_frac_ppb as f64, pim) / 1e9,
        );
        out.set("dram.barrier_us_p50", p50(&self.barrier_ns) / 1e3);
    }
}

/// Bit-level equality of two device reports.
pub fn same_report(a: &QueueReport, b: &QueueReport) -> bool {
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }
    bits(&a.per_bank_ns) == bits(&b.per_bank_ns)
        && bits(&a.per_bank_energy_nj) == bits(&b.per_bank_energy_nj)
        && a.job_end_ns.len() == b.job_end_ns.len()
        && a.job_end_ns
            .iter()
            .zip(&b.job_end_ns)
            .all(|(x, y)| bits(x) == bits(y))
        && a.latency_ns.to_bits() == b.latency_ns.to_bits()
        && a.energy_nj.to_bits() == b.energy_nj.to_bits()
        && a.bus_slots == b.bus_slots
        && a.rank_acts == b.rank_acts
        && a.per_channel_bus_slots == b.per_channel_bus_slots
        && a.per_rank_acts == b.per_rank_acts
        && bits(&a.barrier_ns) == bits(&b.barrier_ns)
}

/// Named metric values; units come from the canonical lists in `main`.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Everything one run reports, before it is printed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Golden mismatches and replay divergences, with what diverged.
    pub errors: Vec<String>,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Timing samples for the human-readable report: name, unit, values.
    pub timings: Vec<(String, &'static str, Vec<f64>)>,
    pub notes: Vec<String>,
    /// Per-layer self time from the traced replay, ns.
    pub layer_self_ns: BTreeMap<String, u64>,
    pub spans_json: Option<String>,
}

impl Outcome {
    pub fn timing(&mut self, name: impl Into<String>, unit: &'static str, samples: Vec<f64>) {
        self.timings.push((name.into(), unit, samples));
    }

    pub fn error(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// One line per timing: median, tail percentile and sample count.
    pub fn timing_lines(&self) -> Vec<String> {
        self.timings
            .iter()
            .map(|(name, unit, samples)| {
                let s = summarize(samples);
                match s.tail {
                    Some((p, v)) => format!(
                        "{name}: p50 {:.4} {unit}, p{p} {v:.4} {unit} (n={})",
                        s.p50, s.n
                    ),
                    None => format!("{name}: p50 {:.4} {unit} (n={}, no tail)", s.p50, s.n),
                }
            })
            .collect()
    }

    /// The timing summaries as a JSON object.
    pub fn timings_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit, samples)) in self.timings.iter().enumerate() {
            let s = summarize(samples);
            let (tp, tv) = s.tail.unwrap_or((100.0, s.p50));
            let _ = write!(
                out,
                "{}\n\"{name}\":{{\"unit\":\"{unit}\",\"n\":{},\"p50\":{},\"tail_pct\":{tp},\"tail\":{tv}}}",
                if i > 0 { "," } else { "" },
                s.n,
                json_num(s.p50),
                tv = json_num(tv)
            );
        }
        out.push_str("\n}");
        out
    }
}

/// A finite number as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
