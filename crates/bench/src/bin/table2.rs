//! Regenerates **Table II: PIM Area Overhead** from the area model
//! (published synthesis points; see `ntt_pim_core::area`).

use ntt_pim_bench::print_table;
use ntt_pim_core::area;

fn main() {
    let mut rows = vec![
        vec![
            "A DRAM bank".into(),
            "-".into(),
            format!("{:.4}", area::BANK_MM2),
            "-".into(),
        ],
        vec![
            "Newton [7]".into(),
            "-".into(),
            format!("{:.4}", area::NEWTON_MM2),
            format!("{:.3}", area::NEWTON_MM2 / area::BANK_MM2 * 100.0),
        ],
    ];
    for nb in [1usize, 2, 4, 6] {
        rows.push(vec![
            if nb == 1 {
                "NTT-PIM".into()
            } else {
                String::new()
            },
            nb.to_string(),
            format!("{:.4}", area::area_mm2(nb)),
            format!("{:.3}", area::percent_of_bank(nb)),
        ]);
    }
    print_table(
        "Table II: PIM Area Overhead (Nb = # of all atom buffers)",
        &[
            "design".into(),
            "Nb".into(),
            "area (mm^2)".into(),
            "% of bank".into(),
        ],
        &rows,
    );
    println!();
    println!(
        "NTT-PIM at Nb=2 is {:.2}x Newton's area (the paper's \"less than half\" claim);",
        area::ratio_to_newton(2)
    );
    println!(
        "each extra atom buffer costs ~{:.4} mm^2 (marginal, as the paper notes).",
        area::marginal_buffer_mm2(2)
    );
}
