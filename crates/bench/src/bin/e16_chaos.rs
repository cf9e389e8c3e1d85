//! **E16 — chaos harness**: sweep fault intensity × fault type across the
//! whole injection taxonomy of `nti-faults` and report what the
//! interval-based stack *guarantees* under each: precision degrades, drops
//! are attributed, crashed nodes reintegrate — but containment among
//! correct nodes must hold (the paper's §2 claim that accuracy intervals
//! deteriorate honestly instead of lying).
//!
//! Every cell is one deterministic 6-node run; results land in
//! `target/experiments/e16_chaos.jsonl` as a machine-readable matrix.
//!
//! `--smoke`: one short run per episode type at mild intensity, asserting
//! zero containment violations (and a completed reintegration for the
//! crash scenario). Exits non-zero on any violation — the CI gate in
//! `scripts/check.sh`.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, exit_on_record_error, header, parallel_sweep, record, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, Report};
use nti_faults::{Direction, FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_obs::Json;
use nti_obs::SimObserver;
use nti_simcore::{SimDuration, SimTime};

/// Sweep intensities. `level` indexes the per-scenario parameter tables.
const LEVELS: [&str; 3] = ["mild", "moderate", "severe"];

/// One chaos scenario: a name plus a plan builder over (window, level).
struct Scenario {
    name: &'static str,
    build: fn(SimTime, SimTime, usize) -> FaultPlan,
}

fn pick<T: Copy>(table: [T; 3], level: usize) -> T {
    table[level]
}

fn episode(from: SimTime, until: SimTime, target: FaultTarget, kind: FaultKind) -> FaultPlan {
    FaultPlan::new().with(FaultEpisode {
        from,
        until,
        target,
        kind,
    })
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "packet_loss",
            build: |f, u, l| {
                let rate = pick([0.05, 0.25, 0.6], l);
                episode(f, u, FaultTarget::All, FaultKind::PacketLoss { rate })
            },
        },
        Scenario {
            name: "packet_duplicate",
            build: |f, u, l| {
                let rate = pick([0.05, 0.25, 0.6], l);
                episode(f, u, FaultTarget::All, FaultKind::PacketDuplicate { rate })
            },
        },
        Scenario {
            name: "asym_delay",
            build: |f, u, l| {
                let us = pick([5, 30, 150], l);
                episode(
                    f,
                    u,
                    FaultTarget::Node(1),
                    FaultKind::PacketDelay {
                        extra: SimDuration::from_micros(us),
                        jitter: SimDuration::from_micros(us / 2),
                        direction: Direction::Rx,
                    },
                )
            },
        },
        Scenario {
            name: "node_partition",
            build: |f, u, l| {
                // Longer isolation with level: the partitioned node coasts
                // on drift compensation alone.
                let span = u.saturating_since(f);
                let frac = pick([4, 2, 1], l); // 1/4, 1/2, all of the window
                let until = f + SimDuration::from_fs(span.as_fs() / frac);
                episode(f, until, FaultTarget::Node(2), FaultKind::Partition)
            },
        },
        Scenario {
            name: "drift_excursion",
            build: |f, u, l| {
                let ppm = pick([1.0, 4.0, 12.0], l);
                episode(
                    f,
                    u,
                    FaultTarget::Node(3),
                    FaultKind::DriftExcursion { extra_ppm: ppm },
                )
            },
        },
        Scenario {
            name: "missed_trigger",
            build: |f, u, l| {
                let rate = pick([0.1, 0.4, 0.8], l);
                episode(f, u, FaultTarget::All, FaultKind::MissedTrigger { rate })
            },
        },
        Scenario {
            name: "late_trigger",
            build: |f, u, l| {
                let ns = pick([200, 2_000, 20_000], l);
                episode(
                    f,
                    u,
                    FaultTarget::All,
                    FaultKind::LateTrigger {
                        rate: 0.3,
                        delay: SimDuration::from_nanos(ns),
                    },
                )
            },
        },
        Scenario {
            name: "crc_errors",
            build: |f, u, l| {
                let rate = pick([0.05, 0.25, 0.6], l);
                episode(f, u, FaultTarget::All, FaultKind::CrcError { rate })
            },
        },
        Scenario {
            name: "byzantine",
            build: |f, u, _| episode(f, u, FaultTarget::Node(5), FaultKind::Byzantine),
        },
        Scenario {
            name: "crash_restart",
            build: |f, u, l| {
                // Outage length grows with level; restart always inside the
                // run so reintegration is exercised.
                let span = u.saturating_since(f);
                let frac = pick([4, 2, 1], l);
                let restart = f + SimDuration::from_fs(span.as_fs() / frac);
                FaultPlan::crash(4, f, Some(restart))
            },
        },
    ]
}

fn base_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = with_duration(ClusterConfig::default_lan(6, seed), secs(30, 12));
    cfg.f = 1;
    cfg.rate_sync = true;
    cfg
}

/// The fault window: the middle third of the run (post-warmup, with room
/// to observe recovery before the run ends).
fn window(cfg: &ClusterConfig) -> (SimTime, SimTime) {
    let d = cfg.duration.as_fs();
    (SimTime::from_fs(d / 3), SimTime::from_fs(2 * (d / 3)))
}

fn run_cell(name: &'static str, level: usize, obs: &SimObserver) -> (String, Report) {
    let mut cfg = base_cfg(160 + level as u64);
    let (from, until) = window(&cfg);
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .expect("scenario");
    cfg.fault_plan = (scenario.build)(from, until, level);
    cfg.obs = obs.clone();
    let label = format!("{}/{}", name, LEVELS[level]);
    (label, Cluster::new(cfg).run())
}

fn cell_json(rep: &Report) -> Json {
    Json::obj([
        ("worst_precision_s", Json::Num(rep.worst_precision_s)),
        ("mean_alpha_s", Json::Num(rep.mean_alpha_s)),
        (
            "containment_violations",
            Json::Num(rep.containment.0 as f64),
        ),
        ("containment_checks", Json::Num(rep.containment.1 as f64)),
        ("csps_sent", Json::Num(rep.csps.0 as f64)),
        ("csps_dropped", Json::Num(rep.csps.2 as f64)),
        ("dropped_crc", Json::Num(rep.csp_drop_causes.0 as f64)),
        ("dropped_overrun", Json::Num(rep.csp_drop_causes.1 as f64)),
        ("dropped_injected", Json::Num(rep.csp_drop_causes.2 as f64)),
        ("crashes", Json::Num(rep.churn.0 as f64)),
        ("rejoins", Json::Num(rep.churn.1 as f64)),
        (
            "rejoin_recovery_rounds",
            Json::Num(rep.rejoin_recovery_rounds as f64),
        ),
    ])
}

fn smoke(obs: &SimObserver) -> i32 {
    println!("E16 chaos smoke: every episode type at mild intensity");
    let h = format!(
        "{:<28} {:>12} {:>12} {:>8}",
        "scenario", "precision", "containment", "churn"
    );
    header(&h);
    let names: Vec<&'static str> = scenarios().iter().map(|s| s.name).collect();
    let results = parallel_sweep(names, |name| (name, run_cell(name, 0, obs).1));
    let mut failed = false;
    for (name, rep) in results {
        let ok_containment = rep.containment.0 == 0;
        let ok_churn = name != "crash_restart" || rep.churn == (1, 1);
        if !ok_containment || !ok_churn {
            failed = true;
        }
        println!(
            "{:<28} {:>12} {:>9}/{:<3} {:>3}/{:<3} {}",
            name,
            eng(rep.worst_precision_s),
            rep.containment.0,
            rep.containment.1,
            rep.churn.0,
            rep.churn.1,
            if ok_containment && ok_churn {
                "ok"
            } else {
                "FAIL"
            }
        );
        record("e16_chaos", &format!("smoke/{name}"), &cell_json(&rep));
    }
    println!();
    if failed {
        println!("e16 smoke: containment or reintegration FAILED under mild faults");
        1
    } else {
        println!("e16 smoke: containment held and the crashed node reintegrated");
        0
    }
}

fn full_matrix(obs: &SimObserver) {
    println!("E16: chaos matrix — fault type x intensity (6 nodes, f = 1)");
    println!();
    let h = format!(
        "{:<28} {:>12} {:>12} {:>14} {:>8} {:>7}",
        "scenario/intensity", "precision", "mean alpha", "drops c/o/i", "contain", "rejoin"
    );
    header(&h);
    let cells: Vec<(&'static str, usize)> = scenarios()
        .iter()
        .flat_map(|s| (0..LEVELS.len()).map(move |l| (s.name, l)))
        .collect();
    let results = parallel_sweep(cells, |(name, level)| run_cell(name, level, obs));
    for (label, rep) in results {
        println!(
            "{:<28} {:>12} {:>12} {:>14} {:>8} {:>7}",
            label,
            eng(rep.worst_precision_s),
            eng(rep.mean_alpha_s),
            format!(
                "{}/{}/{}",
                rep.csp_drop_causes.0, rep.csp_drop_causes.1, rep.csp_drop_causes.2
            ),
            format!("{}/{}", rep.containment.0, rep.containment.1),
            if rep.churn.0 > 0 {
                format!("{}r", rep.rejoin_recovery_rounds)
            } else {
                "-".into()
            }
        );
        record("e16_chaos", &label, &cell_json(&rep));
    }
    println!();
    println!("reading: mild faults leave precision in the paper's envelope with zero");
    println!("containment violations; severe faults cost precision and drop CSPs, but");
    println!("the intervals keep their containment promise while the fault load stays");
    println!("inside the f = 1 hypothesis — and a crashed node's accuracy re-shrinks");
    println!("within a few rounds of rejoining (rightmost column). Cells that fault");
    println!("ALL nodes at once (e.g. late_trigger/severe: 30% of every node's");
    println!("triggers stamped 20 us late) exceed the hypothesis, and the residual");
    println!("violations there are the expected cost of breaking it.");
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    if std::env::args().any(|a| a == "--smoke") {
        let code = smoke(&obs);
        exit_on_record_error(opts.finish(&obs));
        std::process::exit(code);
    }
    full_matrix(&obs);
    exit_on_record_error(opts.finish(&obs));
}
