//! The paper's quantitative claims, asserted as integration tests on the
//! simulator (shape, not absolute nanoseconds). The binaries that print
//! the simulated points beside the published ones are listed under
//! README's "Examples, benches, figures"; the `BENCH_*.json` files record
//! the numbers the benches gate.
//!
//! Every test cites the claim it checks.

use ntt_pim::core::area;
use ntt_pim::core::config::PimConfig;
use ntt_pim::core::layout::PolyLayout;
use ntt_pim::core::mapper::{map_ntt, MapperOptions, NttParams};
use ntt_pim::core::sched::{schedule, schedule_queues};

const Q: u32 = 2_013_265_921;

fn simulate(nb: usize, n: usize, opts: &MapperOptions) -> ntt_pim::core::sched::Timeline {
    let config = PimConfig::hbm2e(nb);
    let layout = PolyLayout::new(&config, 0, n).unwrap();
    let omega = ntt_pim::math::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
    let program = map_ntt(&config, &layout, &NttParams { q: Q, omega }, opts).unwrap();
    schedule(&config, &program).unwrap()
}

fn latency(nb: usize, n: usize) -> f64 {
    simulate(nb, n, &MapperOptions::default()).latency_ns()
}

/// §VI.C: "without auxiliary buffers, there is no performance advantage
/// even compared with a software execution, whereas even just one
/// auxiliary buffer can improve performance by an order of magnitude."
#[test]
fn single_buffer_no_advantage_one_auxiliary_order_of_magnitude() {
    for n in [256usize, 1024] {
        let nb1 = latency(1, n);
        let nb2 = latency(2, n);
        assert!(nb1 / nb2 > 8.0, "n={n}: Nb=1/Nb=2 = {:.1}", nb1 / nb2);
        // Against the paper's published x86 point.
        let x86 = pim_baselines::X86PaperModel;
        use pim_baselines::NttAccelerator;
        let sw = x86.latency_ns(n).unwrap();
        assert!(
            nb1 > sw / 3.0,
            "n={n}: the strawman must not beat software meaningfully"
        );
    }
}

/// §VI.C: "adding more buffers gives very significant speed up of about
/// 1.5 ∼ 2.5× depending on N" and "having multiple auxiliary buffers
/// proves more effective when N is larger."
#[test]
fn pipelining_speedup_range_and_growth() {
    let gain_small = latency(2, 512) / latency(6, 512);
    let gain_large = latency(2, 8192) / latency(6, 8192);
    assert!(
        (1.3..=2.8).contains(&gain_small),
        "gain at N=512: {gain_small:.2}"
    );
    assert!(
        (1.5..=2.8).contains(&gain_large),
        "gain at N=8192: {gain_large:.2}"
    );
    assert!(gain_large > gain_small, "gain must grow with N");
}

/// §VI.D: at 4× lower clock the slowdown is mild (paper: 1.65× at large
/// N) because DRAM nanoseconds dominate, and 3~7× speedup over software
/// is retained.
#[test]
fn frequency_tolerance() {
    let n = 4096;
    let fast = {
        let c = PimConfig::hbm2e(2).with_cu_clock_mhz(1200);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let omega = ntt_pim::math::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
        let p = map_ntt(
            &c,
            &layout,
            &NttParams { q: Q, omega },
            &MapperOptions::default(),
        )
        .unwrap();
        schedule(&c, &p).unwrap().latency_ns()
    };
    let slow = {
        let c = PimConfig::hbm2e(2).with_cu_clock_mhz(300);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let omega = ntt_pim::math::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
        let p = map_ntt(
            &c,
            &layout,
            &NttParams { q: Q, omega },
            &MapperOptions::default(),
        )
        .unwrap();
        schedule(&c, &p).unwrap().latency_ns()
    };
    let ratio = slow / fast;
    assert!(
        (1.2..=2.2).contains(&ratio),
        "4x clock drop cost {ratio:.2}x (paper: ~1.65x)"
    );
    use pim_baselines::NttAccelerator;
    let sw = pim_baselines::X86PaperModel.latency_ns(n).unwrap();
    assert!(sw / slow > 3.0, "300 MHz PIM keeps >3x over paper's x86");
}

/// Table II: area under half of Newton's, overhead below 0.7% of a bank.
#[test]
fn area_claims() {
    assert!(area::ratio_to_newton(2) < 0.5);
    for nb in [1usize, 2, 4, 6] {
        assert!(area::percent_of_bank(nb) < 0.7, "nb={nb}");
    }
}

/// §VI.E: "speedup of minimum 1.7× up to 17× depending on the polynomial
/// size" over the best prior accelerator (simulated Nb=6 vs published
/// competitor points).
#[test]
fn headline_speedup_range() {
    let models = pim_baselines::all_models();
    for n in [256usize, 512, 1024, 2048, 4096] {
        let ours = latency(6, n);
        let best = models
            .iter()
            .filter_map(|m| m.latency_ns(n))
            .fold(f64::INFINITY, f64::min);
        let speedup = best / ours;
        assert!(
            (1.5..=25.0).contains(&speedup),
            "n={n}: speedup {speedup:.1} outside the claimed band"
        );
    }
}

/// §V / Fig. 6c: pipelining in the inter-row regime reduces row
/// activations (not just hides latency).
#[test]
fn pipelining_reduces_activations() {
    let n = 4096;
    let a2 = simulate(2, n, &MapperOptions::default()).activations();
    let a4 = simulate(4, n, &MapperOptions::default()).activations();
    let a6 = simulate(6, n, &MapperOptions::default()).activations();
    assert!(a4 < a2, "Nb=4 {a4} !< Nb=2 {a2}");
    assert!(a6 < a4, "Nb=6 {a6} !< Nb=4 {a4}");
    // Roughly 2x and 3x fewer inter-row activations.
    assert!((a2 as f64 / a4 as f64) > 1.6);
}

/// §III.C: in-place update eliminates the separate output region and its
/// extra activations.
#[test]
fn in_place_update_halves_activations() {
    let n = 2048;
    let with = simulate(2, n, &MapperOptions::default()).activations();
    let without = simulate(
        2,
        n,
        &MapperOptions {
            in_place_update: false,
            ..Default::default()
        },
    )
    .activations();
    assert!(
        without as f64 / with as f64 > 2.0,
        "in-place: {with}, ping-pong: {without}"
    );
}

/// Conclusion: near-linear bank-level parallelism.
#[test]
fn bank_parallelism_near_linear() {
    let n = 1024;
    let config = PimConfig::hbm2e(2).with_banks(8);
    let layout = PolyLayout::new(&config, 0, n).unwrap();
    let omega = ntt_pim::math::prime::root_of_unity(n as u64, Q as u64).unwrap() as u32;
    let program = map_ntt(
        &config,
        &layout,
        &NttParams { q: Q, omega },
        &MapperOptions::default(),
    )
    .unwrap();
    let one = schedule(&config, &program).unwrap().end_ps;
    let eight = schedule_queues(&config, &vec![vec![program]; 8])
        .unwrap()
        .end_ps;
    let speedup = 8.0 * one as f64 / eight as f64;
    assert!(speedup > 6.0, "8-bank speedup only {speedup:.2}x");
}

/// §VI.E: latency grows superlinearly in N once inter-row mapping
/// dominates ("longer polynomials require frequent row activations").
#[test]
fn superlinear_growth_with_n() {
    let l1k = latency(2, 1024);
    let l8k = latency(2, 8192);
    // 8x the size, more than 8x the time (N log N plus activation growth).
    assert!(l8k / l1k > 8.0, "8x size cost {:.1}x", l8k / l1k);
}
