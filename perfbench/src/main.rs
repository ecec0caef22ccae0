//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     <load constants from BENCHMARK.json> \
//!     --workload serve_open|serve_saturate|sim_replay --seed N --seconds S --trace 0|1
//! ```
//!
//! Every load constant (offered rate, in-flight count, fleet, topologies,
//! mix) arrives as a `--key=value` argument recorded in `BENCHMARK.json`;
//! none has a default and none is derived from the machine. The seed
//! reaches only the input generator. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it runs the same workload, then
//! replays a sample of the executed groups single-threaded with a span
//! around every call into a layer, and reports the per-layer metrics.
//! The last line of standard output is the result as one JSON object.

mod gen;
mod replay;
mod report;
mod serve;
mod trace;

use gen::Kind;
use ntt_bus::BackendSpec;
use ntt_pim::core::config::{PimConfig, Topology};
use report::{json_num, json_str, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: name and unit. Units name the clock: `sim_*` is
/// simulated device time or energy, everything else is host wall time.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_req_per_s", "1/s"),
    ("wall_p50_ms", "ms"),
    ("wall_p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("sim_us_per_job", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("sim_nj_per_job", "sim_nJ"),
    ("sim_ntt_geomean_us", "sim_us"),
    ("host_ns_per_sim_cmd", "ns/sim_slot"),
];

/// Per-layer metrics, `layer.metric`, in ROADMAP layer order.
const PER_LAYER: [(&str, &str); 33] = [
    ("service.submit_us_p50", "us"),
    ("service.batch_size_mean", "jobs"),
    ("service.rejected", "count"),
    ("fleet.route_us_p50", "us"),
    ("fleet.share_pim", "frac"),
    ("fleet.share_cpu_lanes", "frac"),
    ("fleet.steals", "count"),
    ("fleet.pred_over_sim", "sim_ratio"),
    ("bus.pim_run_ms_p50", "ms"),
    ("bus.cpu_lanes_run_us_p50", "us"),
    ("engine.plan_us_p50", "us"),
    ("engine.run_ms_p50", "ms"),
    ("engine.unaccounted_frac", "frac"),
    ("mapper.us_per_program", "us"),
    ("mapper.cmds_per_program", "cmd/program"),
    ("sched.ms_per_batch_p50", "ms"),
    ("sched.ns_per_cmd", "ns/cmd"),
    ("sched.single_us_per_program", "us"),
    ("sim.us_per_program", "us"),
    ("sim.load_read_us_per_job", "us"),
    ("dram.bus_slots_per_job", "sim_slot/job"),
    ("dram.rank_acts_per_job", "sim_act/job"),
    ("dram.channel_imbalance", "sim_ratio"),
    ("dram.bank_busy_frac", "sim_frac"),
    ("dram.barrier_us_p50", "sim_us"),
    ("verify.us_per_job", "us"),
    ("verify.lane_share", "frac"),
    ("verify.plan_cache_hit_ratio", "frac"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.offered_per_s", "1/s"),
    ("loadgen.achieved_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("process.peak_rss_mb", "MiB"),
];

/// The load constants, all read from the command line.
pub struct Consts {
    pub open_rate: f64,
    pub open_fleet: Vec<BackendSpec>,
    pub open_pim_topology: Topology,
    pub open_lengths: Vec<usize>,
    pub open_max_wait_us: u64,
    pub mix_kinds: Vec<Kind>,
    pub mix_moduli: Vec<u64>,
    pub saturate_inflight: usize,
    pub saturate_topology: Topology,
    pub saturate_n: usize,
    pub saturate_q: u64,
    pub saturate_max_wait_ms: u64,
    pub replay_topologies: Vec<Topology>,
    pub replay_lengths: Vec<usize>,
    pub replay_split_lengths: Vec<usize>,
    pub replay_split_every: usize,
    pub sweep_lengths: Vec<usize>,
    pub setup_reps: usize,
    pub trace_groups: usize,
    pub holdout_seed: u64,
}

/// The simulated device every workload builds: the paper's two-buffer
/// HBM2E bank design at the given topology.
pub fn pim_config(topology: Topology) -> PimConfig {
    PimConfig::hbm2e(2).with_topology(topology)
}

/// FNV-1a over a result vector: compares outputs across runs without
/// keeping them.
pub fn fnv(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Keeps an evenly spaced sample of at most `cap` items from a stream of
/// unknown length: every `stride`-th item, doubling the stride (and
/// thinning what is kept) whenever the sample overflows.
pub struct Sampler<T> {
    cap: usize,
    stride: usize,
    seen: usize,
    kept: Vec<(usize, T)>,
}

impl<T> Sampler<T> {
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            stride: 1,
            seen: 0,
            kept: Vec::new(),
        }
    }

    pub fn offer(&mut self, item: T) {
        let i = self.seen;
        self.seen += 1;
        if !i.is_multiple_of(self.stride) {
            return;
        }
        self.kept.push((i, item));
        if self.kept.len() > self.cap {
            self.stride *= 2;
            let stride = self.stride;
            self.kept.retain(|(i, _)| i % stride == 0);
        }
    }

    pub fn into_items(self) -> Vec<T> {
        self.kept.into_iter().map(|(_, t)| t).collect()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    consts: Consts,
}

fn parse_list<T: std::str::FromStr>(key: &str, v: &str) -> Result<Vec<T>, String> {
    let items = v
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<T>()
                .map_err(|_| format!("--{key}: bad item `{s}`"))
        })
        .collect::<Result<Vec<T>, String>>()?;
    if items.is_empty() {
        return Err(format!("--{key}: empty list"));
    }
    Ok(items)
}

fn parse_topology(key: &str, v: &str) -> Result<Topology, String> {
    let dims = v
        .split('x')
        .map(|d| {
            d.parse::<u32>()
                .map_err(|_| format!("--{key}: bad topology `{v}`"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    match dims[..] {
        [c, r, b] if c > 0 && r > 0 && b > 0 => Ok(Topology::new(c, r, b)),
        _ => Err(format!("--{key}: topology must be CxRxB, got `{v}`")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let (k, v) = match key.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (
                key.to_string(),
                it.next().ok_or(format!("--{key} needs a value"))?.clone(),
            ),
        };
        if kv.insert(k.clone(), v).is_some() {
            return Err(format!("--{k} given twice"));
        }
    }
    let mut take = |k: &str| kv.remove(k).ok_or(format!("missing --{k}"));
    macro_rules! num {
        ($k:expr, $t:ty) => {{
            let v = take($k)?;
            v.parse::<$t>()
                .map_err(|_| format!("--{}: bad value `{v}`", $k))?
        }};
    }
    let workload = take("workload")?;
    let seed = num!("seed", u64);
    let seconds = num!("seconds", f64);
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    let consts = Consts {
        open_rate: num!("open-rate", f64),
        open_fleet: BackendSpec::parse_list(&take("open-fleet")?)?,
        open_pim_topology: parse_topology("open-pim-topology", &take("open-pim-topology")?)?,
        open_lengths: parse_list("open-lengths", &take("open-lengths")?)?,
        open_max_wait_us: num!("open-max-wait-us", u64),
        mix_kinds: take("mix-kinds")?
            .split(',')
            .map(Kind::parse)
            .collect::<Result<Vec<_>, _>>()?,
        mix_moduli: parse_list("mix-moduli", &take("mix-moduli")?)?,
        saturate_inflight: num!("saturate-inflight", usize),
        saturate_topology: parse_topology("saturate-topology", &take("saturate-topology")?)?,
        saturate_n: num!("saturate-n", usize),
        saturate_q: num!("saturate-q", u64),
        saturate_max_wait_ms: num!("saturate-max-wait-ms", u64),
        replay_topologies: take("replay-topologies")?
            .split(',')
            .map(|t| parse_topology("replay-topologies", t))
            .collect::<Result<Vec<_>, _>>()?,
        replay_lengths: parse_list("replay-lengths", &take("replay-lengths")?)?,
        replay_split_lengths: parse_list("replay-split-lengths", &take("replay-split-lengths")?)?,
        replay_split_every: num!("replay-split-every", usize).max(1),
        sweep_lengths: parse_list("sweep-lengths", &take("sweep-lengths")?)?,
        setup_reps: num!("setup-reps", usize).max(1),
        trace_groups: num!("trace-groups", usize),
        holdout_seed: num!("holdout-seed", u64),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option --{k}"));
    }
    if seconds.is_nan() || seconds <= 0.0 || consts.open_rate.is_nan() || consts.open_rate <= 0.0 {
        return Err("--seconds and --open-rate must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        consts,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let c = &args.consts;
    let mut out = match args.workload.as_str() {
        "serve_open" => serve::serve_open(c, args.seed, args.seconds, args.trace)?,
        "serve_saturate" => serve::serve_saturate(c, args.seed, args.seconds, args.trace)?,
        "sim_replay" => replay::run(c, args.seed, args.seconds, args.trace)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    if !out.e2e.0.contains_key("sim_ntt_geomean_us") {
        out.e2e
            .set("sim_ntt_geomean_us", replay::paper_geomean_us(c)?);
    }
    out.e2e.set(
        "ok_frac",
        report::ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    out.layer.set("process.peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}

/// Prints the human-readable report, writes the JSON report (and the
/// spans of a traced run), and returns the final result line.
fn emit(args: &Args, out: &Outcome) -> Result<String, String> {
    let (list, metrics): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let holdout = if args.seed == args.consts.holdout_seed {
        " (the held-out validation seed)"
    } else {
        ""
    };
    println!(
        "perfbench {} seed {}{holdout} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for line in out.timing_lines() {
        println!("  {line}");
    }
    if !out.layer_self_ns.is_empty() {
        let total: u64 = out.layer_self_ns.values().sum();
        println!("  traced replay self time by layer:");
        for (layer, ns) in &out.layer_self_ns {
            println!(
                "    {layer:<8} {:>10.3} ms {:>5.1}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
    }
    for e in &out.errors {
        println!("  ERROR {e}");
    }
    let mut json_metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let value = *metrics
            .0
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        println!("  {name} = {value} {unit}");
        let _ = write!(
            json_metrics,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    let correct = out.errors.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json_metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    write_report(args, out, &result);
    Ok(result)
}

/// Writes the run's JSON report under `perfbench/out/` (best effort: a
/// read-only checkout still gets its result line).
fn write_report(args: &Args, out: &Outcome, result: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let mut doc = String::new();
    let layers: Vec<String> = out
        .layer_self_ns
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let all: Vec<String> = out
        .e2e
        .0
        .iter()
        .chain(out.layer.0.iter())
        .map(|(k, v)| format!("{}:{}", json_str(k), json_num(*v)))
        .collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    let errors: Vec<String> = out.errors.iter().map(|n| json_str(n)).collect();
    let _ = write!(
        doc,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\n\"result\":{result},\n\"all_metrics\":{{{}}},\n\"timings\":{},\n\"layer_self_ns\":{{{}}},\n\"notes\":[{}],\n\"errors\":[{}],\n\"spans\":{}}}\n",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        all.join(","),
        out.timings_json(),
        layers.join(","),
        notes.join(","),
        errors.join(","),
        out.spans_json.as_deref().unwrap_or("[]"),
    );
    if std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, doc))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", path.display());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args).and_then(|out| emit(&args, &out));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
