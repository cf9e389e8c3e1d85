//! **E9 — the 16-node prototype** (paper §4: "a more thorough experimental
//! evaluation … will be conducted on a 16 node prototype distributed
//! system consisting of four MVME-162 with four NTIs each").
//!
//! Runs the 16-node system at three operating points and reports the
//! numbers the authors intended to measure: worst/mean precision, worst
//! accuracy, claimed accuracy bound, ε, and containment — with the paper's
//! full recipe (hardware stamps + OA intervals + rate sync + 16 MHz)
//! landing in the 1 µs range.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, exit_on_record_error, header, record, record_precision, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, DriftSpec, GpsNodeCfg};
use nti_gps::GpsConfig;
use nti_simcore::SimDuration;

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E9: the 16-node prototype (4 x MVME-162 with 4 NTIs each)");
    println!();
    let h = format!(
        "{:<34} {:>13} {:>13} {:>13} {:>12}",
        "operating point", "prec worst", "prec mean", "eps spread", "containment"
    );
    header(&h);
    let points: Vec<(&str, u64, bool, bool)> = vec![
        // (name, fosc, rate_sync, gps)
        ("10 MHz, no rate sync", 10_000_000, false, false),
        ("16 MHz, rate sync", 16_000_000, true, false),
        ("16 MHz, rate sync + 3 GPS", 16_000_000, true, true),
    ];
    for (name, fosc, rate_sync, gps) in points {
        let mut cfg = with_duration(ClusterConfig::default_lan(16, 0xE9), secs(90, 15));
        cfg.fosc_hz = fosc;
        cfg.rate_sync = rate_sync;
        cfg.f = 2;
        cfg.drift = DriftSpec::RandomWalk {
            rho_max_ppm: 10.0,
            sigma_ppb: 20.0,
            interval: SimDuration::from_millis(200),
        };
        if gps {
            cfg.gps = (0..3)
                .map(|n| GpsNodeCfg {
                    node: n,
                    cfg: GpsConfig::default(),
                    faults: vec![],
                })
                .collect();
        }
        cfg.obs = obs.clone();
        let rep = Cluster::new(cfg).run();
        record("e9_sixteen_nodes", name, &rep.to_json());
        exit_on_record_error(record_precision("e9_sixteen_nodes", name, &rep, &obs));
        println!(
            "{:<34} {:>13} {:>13} {:>13} {:>9}/{}",
            name,
            eng(rep.worst_precision_s),
            eng(rep.mean_precision_s),
            eng(rep.eps_spread_s),
            rep.containment.0,
            rep.containment.1
        );
        if gps {
            println!(
                "{:<34} {:>13} (worst |C-t|)  alpha mean {:>10}",
                "  external accuracy:",
                eng(rep.worst_accuracy_s),
                eng(rep.mean_alpha_s)
            );
        }
    }
    println!();
    println!("paper target: worst-case precision/accuracy in the 1 us range with the");
    println!("full recipe — the bottom rows must be sub-/low-microsecond.");
    exit_on_record_error(opts.finish(&obs));
}
