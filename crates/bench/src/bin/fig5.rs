//! Regenerates **Fig. 5: Timing diagrams of the three mapping regimes** —
//! an isolated CU operation per regime, rendered as an ASCII timeline
//! (S/P buffers on the I/O track, CU on the compute track).

use ntt_pim_core::cmd::{BuOrder, BufId, C1Params, PimCommand, StageSteps, TwiddleParams};
use ntt_pim_core::config::PimConfig;
use ntt_pim_core::mapper::Program;
use ntt_pim_core::sched::schedule;

fn run(title: &str, commands: Vec<PimCommand>, cycles: u64) {
    let config = PimConfig::hbm2e(2);
    let program = Program {
        commands,
        final_base: 0,
        c2_ops: 0,
        c1_ops: 0,
        marks: Vec::new(),
    };
    let tl = schedule(&config, &program).expect("schedule");
    let cyc = config.timing.resolve().cycle_ps;
    println!("{title}");
    println!("{}", tl.render_ascii(0, cycles * cyc, cyc));
    println!();
}

fn main() {
    let mont = modmath::montgomery::Montgomery32::new(ntt_pim_bench::Q).unwrap();
    let one = mont.one();
    let tw = TwiddleParams {
        omega0_mont: one,
        r_omega_mont: one,
    };
    let c1 = C1Params {
        points: 8,
        stage_steps_mont: StageSteps::new(&[one, one, one]).expect("three steps fit"),
        order: BuOrder::Ct,
    };
    let q = ntt_pim_bench::Q;
    let s = BufId(1);
    let p = BufId(0);

    println!("Fig. 5: one CU operation per mapping regime (1 char = 1 cycle)\n");
    // (a) Intra-atom: RD -> C1 -> WR, one buffer.
    run(
        "(a) intra-atom mapping (RD, C1, WR on buffer S):",
        vec![
            PimCommand::SetModulus { q },
            PimCommand::Act { row: 0 },
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: s,
            },
            PimCommand::C1 { buf: s, params: c1 },
            PimCommand::CuWrite {
                row: 0,
                col: 0,
                buf: s,
            },
        ],
        90,
    );
    // (b) Intra-row: two reads (same row), C2, two writes.
    run(
        "(b) intra-row mapping (RD RD, C2, WR WR — same row, all hits):",
        vec![
            PimCommand::SetModulus { q },
            PimCommand::Act { row: 0 },
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: p,
            },
            PimCommand::CuRead {
                row: 0,
                col: 4,
                buf: s,
            },
            PimCommand::C2 {
                p,
                s,
                tw,
                order: BuOrder::Ct,
            },
            PimCommand::CuWrite {
                row: 0,
                col: 0,
                buf: p,
            },
            PimCommand::CuWrite {
                row: 0,
                col: 4,
                buf: s,
            },
        ],
        90,
    );
    // (c) Inter-row: operands in different rows — intermittent PRE/ACT.
    run(
        "(c) inter-row mapping (row switch between the operand rows):",
        vec![
            PimCommand::SetModulus { q },
            PimCommand::CuRead {
                row: 0,
                col: 0,
                buf: p,
            },
            PimCommand::CuRead {
                row: 4,
                col: 0,
                buf: s,
            },
            PimCommand::C2 {
                p,
                s,
                tw,
                order: BuOrder::Ct,
            },
            PimCommand::CuWrite {
                row: 4,
                col: 0,
                buf: s,
            },
            PimCommand::CuWrite {
                row: 0,
                col: 0,
                buf: p,
            },
        ],
        220,
    );
    println!("Note how (c) pays PRE/ACT pairs between the operand rows; the");
    println!("partner-row write (WR S) issues while row 4 is still open — the");
    println!("in-place-update buffer hit of §III.C.");
}
