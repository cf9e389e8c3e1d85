//! Golden reports for the COMCO bus-access pipeline.
//!
//! The cluster folds every header access the UTCSU cannot observe into the
//! two events that are time-observable: the CPLD trigger access and the
//! reception interrupt (DESIGN.md §4). The folding must not change
//! behaviour, so a fixed-seed `Report::to_json()` is pinned here by hash
//! for configurations that together reach every branch of the receive and
//! transmit pipelines: a nominal single LAN, the E10 chain of LANs
//! (gateway attachments, rate synchronization), a chaos plan (missed and
//! late triggers, duplicates, loss, CRC errors, a crash and a restart
//! during traffic), the last also with tracing and monitors on, and a
//! 48-node LAN with duplicated frames (wide fan-in through the duplicate
//! check and the per-peer rate history), and a small traced 4-node LAN.
//!
//! A change that moves a hash changes simulated behaviour and must say so.

use nti_core::cluster::{Cluster, ClusterConfig, Report};
use nti_faults::{FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_netsim::Topology;
use nti_obs::{keys, SimObserver, Subsystem};
use nti_simcore::{SimDuration, SimTime};

/// FNV-1a over the report's JSON text: stable across platforms and
/// toolchains, unlike `std`'s hasher.
fn report_hash(r: &Report) -> u64 {
    r.to_json()
        .to_string()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn lan16() -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(16, 3);
    cfg.duration = SimDuration::from_secs(20);
    cfg
}

fn wan_8x8() -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(0, 5);
    cfg.topology = Topology::chain_of_lans(8, 8);
    cfg.rate_sync = true;
    cfg.f = 0;
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_secs(4);
    cfg
}

fn chaos16() -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(16, 5);
    cfg.duration = SimDuration::from_secs(24);
    cfg.f = 1;
    cfg.rate_sync = true;
    let (from, until) = (SimTime::from_secs(8), SimTime::from_secs(16));
    let all = |kind| FaultEpisode {
        from,
        until,
        target: FaultTarget::All,
        kind,
    };
    let mut plan = FaultPlan::new()
        .with(all(FaultKind::MissedTrigger { rate: 0.1 }))
        // A short lateness lands before the interrupt; a long one after it.
        .with(all(FaultKind::LateTrigger {
            rate: 0.1,
            delay: SimDuration::from_nanos(800),
        }))
        .with(all(FaultKind::LateTrigger {
            rate: 0.05,
            delay: SimDuration::from_micros(20),
        }))
        .with(all(FaultKind::PacketDuplicate { rate: 0.1 }))
        .with(all(FaultKind::PacketLoss { rate: 0.05 }))
        .with(all(FaultKind::CrcError { rate: 0.05 }));
    plan.merge(&FaultPlan::crash(
        4,
        SimTime::from_secs(9),
        Some(SimTime::from_secs(13)),
    ));
    cfg.fault_plan = plan;
    cfg
}

/// The chaos plan with every subsystem traced: the span hops and the
/// online monitors run too, and the monitors' verdicts land in the report
/// (the 20 µs late triggers break the trigger-latency budget on purpose).
fn chaos16_traced() -> ClusterConfig {
    let mut cfg = chaos16();
    cfg.obs = SimObserver::with_trace(1 << 12, u32::MAX);
    cfg
}

/// 48 nodes on one LAN with rate synchronization and duplicated frames:
/// every round, each receiver hears 47 senders, some of them twice, so the
/// per-round duplicate-sender check and the per-peer rate history run at
/// wide fan-in.
///
/// Known defect, pinned rather than hidden: the inbox keeps the copy the
/// protocol task *processes* first, and ISR and dispatch latency can let
/// the late copy (one frame time later, ~60 µs) overtake the original. At
/// this fan-in enough late stamps enter the convergence function to break
/// containment (ROADMAP, open items).
fn lan48_dup() -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(48, 7);
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_secs(4);
    cfg.rate_sync = true;
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(3),
        until: SimTime::from_secs(8),
        target: FaultTarget::All,
        kind: FaultKind::PacketDuplicate { rate: 0.2 },
    });
    cfg
}

/// A small traced LAN: 4 nodes with the cluster subsystem's trace ring on,
/// so the trace hooks run beside every cluster event handler.
fn lan4_traced() -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(4, 20260806);
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.obs = SimObserver::with_trace(1 << 16, Subsystem::Cluster.bit());
    cfg
}

/// A configuration's name, builder, pinned report hash, and whether its
/// report holds containment.
type Golden = (&'static str, fn() -> ClusterConfig, u64, bool);

/// The first four hashes were recorded with one engine event per COMCO
/// header word; `lan48_dup` was recorded at commit 7656874, before the
/// receive path traded its inbox scan and SipHash maps for dense tables;
/// `lan4_traced` was recorded at commit 1e968f6, on the adaptive
/// heap/timer-wheel event queue that the single binary heap replaced.
const GOLDEN: [Golden; 6] = [
    ("lan16", lan16, 0xb907c49456460a12, true),
    ("wan_8x8", wan_8x8, 0x60321fe82ed5fa0a, true),
    ("chaos16", chaos16, 0x9aab58ba86497da0, true),
    ("chaos16_traced", chaos16_traced, 0xca0c4432802eb199, true),
    ("lan48_dup", lan48_dup, 0x8dee178dc3e280fb, false),
    ("lan4_traced", lan4_traced, 0x4a39768a547074ec, true),
];

#[test]
fn same_seed_reports_match_the_per_word_pipeline() {
    let mut diverged = Vec::new();
    for (name, cfg, want, contained) in GOLDEN {
        let report = Cluster::new(cfg()).run();
        assert!(report.csps.1 > 0, "{name}: no CSP delivered");
        assert_eq!(
            report.containment.0 == 0,
            contained,
            "{name}: containment {:?}",
            report.containment
        );
        let got = report_hash(&report);
        if got != want {
            diverged.push(format!("{name}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(diverged.is_empty(), "reports diverged: {diverged:?}");
}

#[test]
fn chaos_plan_reaches_every_reception_branch() {
    let report = Cluster::new(chaos16()).run();
    let (crc, overrun, injected) = report.csp_drop_causes;
    assert!(crc > 0, "no CRC drop: {:?}", report.csp_drop_causes);
    assert!(
        overrun > 0,
        "no latch overrun: {:?}",
        report.csp_drop_causes
    );
    assert!(
        injected > 0,
        "no injected drop: {:?}",
        report.csp_drop_causes
    );
    assert_eq!(report.churn.0, 1, "one crash");
    assert_eq!(report.churn.1, 1, "one reintegration");
}

#[test]
fn nominal_lan_fires_at_most_four_events_per_delivery() {
    let obs = SimObserver::enabled();
    let mut cfg = lan16();
    cfg.obs = obs.clone();
    let report = Cluster::new(cfg).run();
    assert_eq!(report.monitor_violations, 0);
    let fired = obs
        .counter(keys::engine_events_fired())
        .expect("enabled")
        .get();
    let per_delivery = fired as f64 / report.csps.1 as f64;
    assert!(
        per_delivery <= 4.0,
        "{fired} events for {} deliveries: {per_delivery:.2} per delivery",
        report.csps.1
    );
}
