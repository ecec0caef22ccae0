//! Ablation studies for the paper's design choices:
//!
//! 1. **In-place update** (§III.C) — off: every inter-atom stage writes to
//!    a ping-pong scratch region.
//! 2. **Same-row grouping** (§V, Fig. 6c) — off: operations fly solo even
//!    when buffers would allow batching.
//! 3. **Single- vs dual-buffer** (§III.B) — the scalar strawman.
//! 4. **Parameter broadcast cost** — how much of the schedule the
//!    SetModulus/SetTwiddle beats account for (the on-the-fly TFG's win).
//! 5. **Refresh** (tREFI/tRFC) — the real-DRAM overhead the paper's
//!    evaluation ignores; quantified here to show the omission is benign.

use ntt_pim_bench::{fmt_sig, print_table, simulate_ntt};
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::mapper::MapperOptions;

fn main() {
    let lengths = [512usize, 1024, 2048, 4096];

    // --- 1 & 2: mapper options grid --------------------------------------
    let variants: [(&str, MapperOptions); 3] = [
        ("full (in-place + grouping)", MapperOptions::default()),
        (
            "no same-row grouping",
            MapperOptions {
                group_same_row: false,
                ..Default::default()
            },
        ),
        (
            "no in-place update",
            MapperOptions {
                in_place_update: false,
                ..Default::default()
            },
        ),
    ];
    for nb in [2usize, 4] {
        let mut rows = Vec::new();
        for &n in &lengths {
            let mut row = vec![n.to_string()];
            for (_, opts) in &variants {
                let p = simulate_ntt(&PimConfig::hbm2e(nb), n, opts).expect("simulation");
                row.push(format!(
                    "{} / {}",
                    fmt_sig(p.latency_ns / 1000.0),
                    p.activations
                ));
            }
            rows.push(row);
        }
        print_table(
            &format!("Ablations at Nb={nb}: latency (µs) / row activations"),
            &[
                "N".into(),
                variants[0].0.into(),
                variants[1].0.into(),
                variants[2].0.into(),
            ],
            &rows,
        );
        println!();
    }

    // --- 3: the single-buffer strawman ------------------------------------
    let mut rows = Vec::new();
    for &n in &[256usize, 512, 1024] {
        let p1 = simulate_ntt(&PimConfig::hbm2e(1), n, &MapperOptions::default()).unwrap();
        let p2 = simulate_ntt(&PimConfig::hbm2e(2), n, &MapperOptions::default()).unwrap();
        rows.push(vec![
            n.to_string(),
            fmt_sig(p1.latency_ns / 1000.0),
            fmt_sig(p2.latency_ns / 1000.0),
            format!("{:.1}x", p1.latency_ns / p2.latency_ns),
        ]);
    }
    print_table(
        "Single- vs dual-buffer (§III.B): latency (µs)",
        &[
            "N".into(),
            "Nb=1 (scalar)".into(),
            "Nb=2".into(),
            "penalty".into(),
        ],
        &rows,
    );
    println!();

    // --- 5: refresh overhead ------------------------------------------------
    let mut rows = Vec::new();
    for &n in &[2048usize, 8192] {
        let plain = simulate_ntt(&PimConfig::hbm2e(2), n, &MapperOptions::default()).unwrap();
        let refreshed = simulate_ntt(
            &PimConfig::hbm2e(2).with_refresh(true),
            n,
            &MapperOptions::default(),
        )
        .unwrap();
        let refs = refreshed.timeline.counters.refreshes;
        rows.push(vec![
            n.to_string(),
            fmt_sig(plain.latency_ns / 1000.0),
            fmt_sig(refreshed.latency_ns / 1000.0),
            format!(
                "{:+.2}%",
                (refreshed.latency_ns / plain.latency_ns - 1.0) * 100.0
            ),
            refs.to_string(),
        ]);
    }
    print_table(
        "Refresh modeling (tREFI = 3.9 µs, tRFC = 260 ns): latency (µs)",
        &[
            "N".into(),
            "no refresh (paper)".into(),
            "with refresh".into(),
            "overhead".into(),
            "REFs".into(),
        ],
        &rows,
    );
    println!();

    // --- 4: parameter broadcast share --------------------------------------
    let p = simulate_ntt(&PimConfig::hbm2e(2), 4096, &MapperOptions::default()).unwrap();
    let param_events = p
        .timeline
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.cmd,
                ntt_pim_core::cmd::PimCommand::SetModulus { .. }
                    | ntt_pim_core::cmd::PimCommand::SetTwiddle { .. }
            )
        })
        .count();
    println!(
        "Parameter broadcasts at N=4096: {} events among {} total — the \
         on-the-fly twiddle generator needs one reseed per stage regime, \
         not one per butterfly (paper §IV.A).",
        param_events,
        p.timeline.events.len()
    );
}
