//! Bank-level parallelism sweep (the paper's conclusion: "we expect
//! near-linear speed up as the number of banks increases, \[but\] a more
//! thorough investigation at the system level is left for future work").
//!
//! This is a beyond-paper experiment: identical NTTs in
//! 1…16 banks over one shared command bus, reporting batch latency,
//! effective speedup, and bus pressure.

use ntt_pim_bench::{print_table, Q};
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::layout::PolyLayout;
use ntt_pim_core::mapper::{map_ntt, MapperOptions, NttParams};
use ntt_pim_core::sched::{schedule, schedule_queues};

fn main() {
    for &n in &[1024usize, 4096] {
        let mut rows = Vec::new();
        let base_cfg = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&base_cfg, 0, n).unwrap();
        let omega = modmath::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
        let program = map_ntt(
            &base_cfg,
            &layout,
            &NttParams { q: Q, omega },
            &MapperOptions::default(),
        )
        .unwrap();
        let single = schedule(&base_cfg, &program).unwrap();
        for banks in [1usize, 2, 4, 8, 16] {
            let cfg = base_cfg.with_banks(banks as u32);
            let parallel = schedule_queues(&cfg, &vec![vec![program.clone()]; banks]).unwrap();
            let speedup = banks as f64 * single.end_ps as f64 / parallel.end_ps as f64;
            let cmds: usize = parallel.banks.iter().map(|t| t.events.len()).sum();
            let horizon_cycles = parallel.end_ps / cfg.timing.resolve().cycle_ps;
            let bus_util = cmds as f64 / horizon_cycles as f64 * 100.0;
            rows.push(vec![
                banks.to_string(),
                format!("{:.2}", parallel.end_ps as f64 / 1e6),
                format!("{:.2}x", speedup),
                format!("{:.1}%", bus_util),
            ]);
        }
        print_table(
            &format!("Bank-level parallelism: identical N={n} NTTs, Nb=2 per bank"),
            &[
                "banks".into(),
                "batch latency (µs)".into(),
                "throughput speedup".into(),
                "cmd-bus utilization".into(),
            ],
            &rows,
        );
        println!();
    }
    println!("Speedup is near-linear while command-bus utilization stays low;");
    println!("the bus becomes the system-level ceiling the paper defers.");
}
