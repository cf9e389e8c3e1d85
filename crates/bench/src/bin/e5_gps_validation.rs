//! **E5 — clock validation vs the GPS fault catalogue** (paper §2 and the
//! §5 footnote: a 2-month continuous evaluation of six GPS receivers
//! "revealed a wide variety of failures" \[HS97\]; §5: always trusting a
//! receiver is "a questionable undertaking").
//!
//! For each fault class from the HS97 catalogue, runs an 8-node cluster
//! with two healthy receivers and one faulty one, once with interval-based
//! clock validation and once blindly trusting every receiver. Validation
//! must keep containment and accuracy; blind trust must break on the
//! value-corrupting faults.

use nti_bench::{eng, header, reject_args, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, GpsNodeCfg};
use nti_gps::{GpsConfig, GpsFault};
use nti_simcore::SimDuration;

fn run(fault: Option<GpsFault>, blind: bool, seed: u64) -> nti_core::cluster::Report {
    let mut cfg = with_duration(ClusterConfig::default_lan(8, seed), secs(45, 9));
    cfg.rate_sync = true;
    cfg.gps_blind_trust = blind;
    let faults = fault.map(|f| vec![f]).unwrap_or_default();
    cfg.gps = vec![
        GpsNodeCfg {
            node: 0,
            cfg: GpsConfig::default(),
            faults: vec![],
        },
        GpsNodeCfg {
            node: 1,
            cfg: GpsConfig::default(),
            faults: vec![],
        },
        GpsNodeCfg {
            node: 2,
            cfg: GpsConfig::default(),
            faults,
        },
    ];
    Cluster::new(cfg).run()
}

fn main() {
    reject_args();
    println!("E5: clock validation vs the HS97 GPS fault catalogue");
    println!("8 nodes, 3 receivers (2 healthy + 1 per-class faulty)\n");
    let h = format!(
        "{:<16} {:<10} {:>10} {:>10} {:>14} {:>16}",
        "fault class", "trust", "accepted", "rejected", "worst |C-t|", "containment viol"
    );
    header(&h);
    let classes: Vec<(&str, Option<GpsFault>)> = vec![
        ("none", None),
        (
            "offset 2 ms",
            Some(GpsFault::Offset {
                from: 5,
                until: u64::MAX,
                offset: SimDuration::from_millis(2),
            }),
        ),
        (
            "second jump +1",
            Some(GpsFault::SecondJump { from: 5, delta: 1 }),
        ),
        (
            "stuck TOD",
            Some(GpsFault::StuckTod {
                from: 5,
                until: 10_000,
            }),
        ),
        (
            "noisy 20 us",
            Some(GpsFault::Noisy {
                from: 5,
                until: 10_000,
                sigma: SimDuration::from_micros(20),
            }),
        ),
        (
            "dropout",
            Some(GpsFault::Dropout {
                from: 5,
                until: 10_000,
            }),
        ),
    ];
    for (name, fault) in classes {
        for blind in [false, true] {
            let rep = run(fault, blind, 0xE5);
            println!(
                "{:<16} {:<10} {:>10} {:>10} {:>14} {:>13}/{}",
                name,
                if blind { "blind" } else { "validated" },
                rep.gps.0,
                rep.gps.1,
                eng(rep.worst_accuracy_s),
                rep.containment.0,
                rep.containment.1
            );
        }
    }
    println!();
    println!("expectation: with validation every row keeps 0 containment violations");
    println!("and tens-of-us accuracy; blind trust breaks on offset/second-jump/stuck");
    println!("faults — the paper's case against trusting receivers unconditionally.");
}
