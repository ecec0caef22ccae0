//! Regenerates **Table I: Architecture Parameters** from the simulator's
//! actual configuration structs (so the printed table can never drift
//! from what the experiments use).

use dram_sim::timing::{Geometry, TimingParams};
use ntt_pim_bench::print_table;
use ntt_pim_core::config::PimConfig;

fn main() {
    let t = TimingParams::hbm2e();
    let g = Geometry::hbm2e_single_bank();
    let c = PimConfig::hbm2e(2);

    print_table(
        "Table I (left): Architecture Parameters",
        &["parameter".into(), "value".into()],
        &[
            vec!["DRAM atom size".into(), format!("{} B", g.atom_bytes)],
            vec!["# of columns per row".into(), g.cols_per_row.to_string()],
            vec!["# of rows per bank".into(), format!("{}", g.rows_per_bank)],
            vec!["# of ranks".into(), c.topology.ranks.to_string()],
            vec!["# of banks".into(), c.topology.banks.to_string()],
            vec!["word width".into(), format!("{} b", g.word_bits)],
            vec!["atom words (Na)".into(), c.na().to_string()],
            vec!["row words (R)".into(), c.row_words().to_string()],
            vec!["clock".into(), format!("{} MHz", t.clock_mhz)],
        ],
    );
    println!();
    print_table(
        "Table I (right): Timing Parameters (cycles)",
        &["parameter".into(), "cycles".into(), "ns".into()],
        &[
            ("CL", t.cl),
            ("tCCD", t.t_ccd),
            ("tRP", t.t_rp),
            ("tRAS", t.t_ras),
            ("tRCD", t.t_rcd),
            ("tWR", t.t_wr),
        ]
        .into_iter()
        .map(|(name, cyc)| {
            vec![
                name.to_string(),
                cyc.to_string(),
                format!("{:.2}", cyc as f64 * t.cycle_ps() as f64 / 1000.0),
            ]
        })
        .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        "Compute-unit latencies (paper §VI.B)",
        &["command".into(), "cycles".into()],
        &[
            vec!["C1 (intra-atom NTT)".into(), c.cu.c1_cycles.to_string()],
            vec!["C2 (vectorized BU)".into(), c.cu.c2_cycles.to_string()],
            vec!["load/store µ-op".into(), c.cu.reg_move_cycles.to_string()],
        ],
    );
}
