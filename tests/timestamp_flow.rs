//! End-to-end reproduction of Figure 3 (packet timestamping) across the
//! full stack: UTCSU ← NTI decode ← COMCO plans ← medium ← cluster.

use nti::core::cluster::{csp_frame_bits, derive_params, Cluster, ClusterConfig};
use nti::core::params::TimestampMode;
use nti::module::{CpldConfig, Nti, UTCSU_BASE};
use nti::netsim::{Comco, ComcoTiming};
use nti::prelude::*;
use nti::utcsu::regs as uregs;
use nti::utcsu::UtcsuConfig;

/// Drive a full transmit-header DMA pass against a live NTI using the
/// COMCO's own plan, and verify the stamp rides along exactly as in
/// Figure 3.
#[test]
fn transmit_stamp_inserted_on_the_fly() {
    let mut nti = Nti::new(UtcsuConfig::default(), CpldConfig::default());
    nti.write32(
        UTCSU_BASE + uregs::R_CTRL,
        uregs::CTRL_SYNCRUN | uregs::CTRL_RUN,
    );
    let mut osc = Oscillator::new(
        10_000_000,
        DriftModel::perfect(),
        SimRng::new(1),
        SimTime::ZERO,
    );
    let mut comco = Comco::new(ComcoTiming::i82596(), 10_000_000, SimRng::new(2));

    let wire_start = SimTime::from_millis(100);
    let plan = comco.plan_transmit(wire_start, 64);
    let hdr = nti.tx_header_addr(0);
    let mut captured_ts = None;
    let mut captured_acc = None;
    for acc in plan.header_reads {
        let tick = osc.ticks_at(acc.at);
        nti.utcsu_mut().advance_to_tick(tick);
        let v = nti.read32(hdr + acc.offset);
        match acc.offset {
            0x18 => captured_ts = Some(v),
            0x20 => captured_acc = Some(v),
            _ => {}
        }
    }
    let ts = captured_ts.expect("timestamp mapped into packet");
    let _acc = captured_acc.expect("accuracy mapped into packet");
    // The stamp must equal the latched transmit stamp, taken near the wire
    // start (within the FIFO lead + header read window).
    let latched = nti.utcsu().ssu[0].transmit.peek().expect("trigger fired");
    assert_eq!(ts, latched.ts.0);
    let stamp_secs = latched.ts.as_secs_f64();
    assert!(
        (stamp_secs - 0.1).abs() < 30e-6,
        "stamp {stamp_secs} vs wire start 0.1 s"
    );
}

/// The receive path: header writes fire RECEIVE at 0x1C, the header base
/// register lets the ISR attribute the stamp, and a CRC-corrupted frame's
/// stamp is discarded without misattribution (footnote 4).
#[test]
fn receive_stamp_latched_and_attributed() {
    let mut nti = Nti::new(UtcsuConfig::default(), CpldConfig::default());
    nti.write32(
        UTCSU_BASE + uregs::R_CTRL,
        uregs::CTRL_SYNCRUN | uregs::CTRL_RUN,
    );
    let mut osc = Oscillator::new(
        10_000_000,
        DriftModel::perfect(),
        SimRng::new(3),
        SimTime::ZERO,
    );
    let mut comco = Comco::new(ComcoTiming::i82596(), 10_000_000, SimRng::new(4));

    let frame_end = SimTime::from_millis(200);
    let plan = comco.plan_receive(frame_end, 64);
    let hdr = nti.rx_header_addr(7);
    for acc in plan.header_writes {
        let tick = osc.ticks_at(acc.at);
        nti.utcsu_mut().advance_to_tick(tick);
        nti.write32(hdr + acc.offset, 0xABCD);
    }
    assert!(nti.utcsu().ssu[0].receive.valid());
    assert_eq!(nti.rcv_header_base(), hdr, "ISR can attribute the stamp");
    let stamp = nti.utcsu_mut().ssu[0].receive.take().unwrap();
    let t = stamp.time().expect("checksum");
    assert!((t.as_secs_f64() - 0.2).abs() < 30e-6);
}

#[test]
fn csp_frame_size_is_constant() {
    // Delay bounds rely on constant serialization: the CSP frame size must
    // not depend on payload contents.
    assert_eq!(csp_frame_bits(), ((8 + 14 + 48 + 4) * 8) as u64);
}

#[test]
fn derived_delay_bounds_actually_bound_measured_delays() {
    // Run a cluster and check the statically derived [δmin, δmax] window
    // contains every measured stamp-pair delay — the precondition for
    // delay compensation to preserve containment.
    let mut cfg = ClusterConfig::default_lan(3, 5);
    cfg.duration = SimDuration::from_secs(15);
    cfg.warmup = SimDuration::ZERO;
    let params = derive_params(&cfg);
    let rep = Cluster::new(cfg).run();
    assert!(rep.eps_samples > 10);
    // The Report only carries the spread; min/max are bounded via spread +
    // structure: re-derive by asserting the spread fits in the window.
    let window = params.delay_max.as_secs_f64() - params.delay_min.as_secs_f64();
    assert!(
        rep.eps_spread_s <= window,
        "measured spread {} exceeds derived window {}",
        rep.eps_spread_s,
        window
    );
}

#[test]
fn hardware_beats_interrupt_beats_software() {
    let run = |mode: TimestampMode| {
        let mut cfg = ClusterConfig::default_lan(3, 9);
        cfg.mode = mode;
        cfg.f = 0;
        cfg.duration = SimDuration::from_secs(15);
        cfg.warmup = SimDuration::from_secs(5);
        Cluster::new(cfg).run().eps_spread_s
    };
    let hw = run(TimestampMode::Hardware);
    let ir = run(TimestampMode::InterruptRx);
    let sw = run(TimestampMode::Software);
    assert!(hw < ir, "hardware {hw} vs interrupt {ir}");
    assert!(ir < sw, "interrupt {ir} vs software {sw}");
    assert!(hw < 1e-6, "NTI ε must be sub-µs, got {hw}");
}
