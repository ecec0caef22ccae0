//! Determinism: identical inputs must produce bit-identical schedules,
//! reports and memory images across runs — the property that makes every
//! simulated number reproducible: those the binaries under README's
//! "Examples, benches, figures" print, and those the `BENCH_*.json` files
//! record.

use ntt_pim::core::config::PimConfig;
use ntt_pim::core::device::{NttDirection, PimDevice};
use ntt_pim::core::layout::PolyLayout;
use ntt_pim::core::mapper::{map_ntt, MapperOptions, NttParams};
use ntt_pim::core::sched::schedule;
use ntt_pim::dram::validate::{validate_queues, BankSchedule, BusClaim, QueuedJob};

const Q: u32 = 2_013_265_921;

#[test]
fn schedules_are_bit_identical_across_runs() {
    let make = || {
        let config = PimConfig::hbm2e(4);
        let layout = PolyLayout::new(&config, 0, 2048).unwrap();
        let omega = ntt_pim::math::prime::root_of_unity(2048, Q as u64).unwrap() as u32;
        let program = map_ntt(
            &config,
            &layout,
            &NttParams { q: Q, omega },
            &MapperOptions::default(),
        )
        .unwrap();
        schedule(&config, &program).unwrap()
    };
    let a = make();
    let b = make();
    assert_eq!(a.end_ps, b.end_ps);
    assert_eq!(a.events.len(), b.events.len());
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x, y);
    }
    assert_eq!(a.counters, b.counters);
}

#[test]
fn device_runs_are_reproducible() {
    let run = || {
        let mut dev = PimDevice::new(PimConfig::hbm2e(2)).unwrap();
        let poly: Vec<u32> = (0..1024u32).map(|i| i.wrapping_mul(97) % Q).collect();
        let mut h = dev.load_polynomial_bitrev(0, &poly, Q).unwrap();
        let rep = dev.ntt_in_place(&mut h, NttDirection::Forward).unwrap();
        (
            rep.latency_ns(),
            rep.activations(),
            dev.read_polynomial(&h).unwrap(),
        )
    };
    let (l1, a1, v1) = run();
    let (l2, a2, v2) = run();
    assert_eq!(l1, l2);
    assert_eq!(a1, a2);
    assert_eq!(v1, v2);
}

#[test]
fn fhe_sampler_chain_is_seed_deterministic() {
    use ntt_pim::fhe::{bfv, params::RlweParams, sampler};
    let p = RlweParams::new(256, 2, 16).unwrap();
    let (sk1, pk1) = bfv::keygen(&p, 42).unwrap();
    let (sk2, _pk2) = bfv::keygen(&p, 42).unwrap();
    let m = sampler::plaintext(p.n(), p.t(), 1);
    let c1 = bfv::encrypt(&p, &pk1, &m, 2).unwrap();
    // Same seeds → decrypting with the re-derived key works identically.
    assert_eq!(bfv::decrypt(&p, &sk1, &c1).unwrap(), m);
    assert_eq!(bfv::decrypt(&p, &sk2, &c1).unwrap(), m);
}

#[test]
fn trace_text_roundtrip_preserves_schedule() {
    let config = PimConfig::hbm2e(2);
    let layout = PolyLayout::new(&config, 0, 512).unwrap();
    let omega = ntt_pim::math::prime::root_of_unity(512, Q as u64).unwrap() as u32;
    let program = map_ntt(
        &config,
        &layout,
        &NttParams { q: Q, omega },
        &MapperOptions::default(),
    )
    .unwrap();
    let tl = schedule(&config, &program).unwrap();
    let cycle = config.timing.resolve().cycle_ps;
    let text = ntt_pim::dram::trace::to_text(&tl.bank_trace(), cycle);
    let back = ntt_pim::dram::trace::from_text(&text, cycle).unwrap();
    assert_eq!(back, tl.bank_trace());
    // And the re-parsed trace still validates: one bank running one
    // program, each DRAM command a bus claim.
    let bank = BankSchedule {
        claims: back
            .iter()
            .map(|e| BusClaim {
                at_ps: e.at_ps,
                job: 0,
                cmd: Some(e.cmd),
            })
            .collect(),
        jobs: vec![QueuedJob {
            waits_on: None,
            signals: None,
            end_ps: tl.end_ps,
        }],
    };
    validate_queues(
        config.timing.resolve(),
        config.geometry,
        config.topology,
        &[bank],
    )
    .unwrap_or_else(|v| panic!("{v}"));
}
