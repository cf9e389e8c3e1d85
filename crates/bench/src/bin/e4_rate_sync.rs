//! **E4 — rate synchronization** (paper §2: "the interval-based rate
//! synchronization algorithm introduced and analyzed in \[Scho97\]
//! effectively reduces the maximum drift without necessitating highly
//! accurate and stable oscillators at each node"; §2 also calls rate
//! synchronization "inevitable" for the 1 µs goal).
//!
//! For oscillator populations of increasing quality, measures the
//! effective rate spread and the achieved precision with and without the
//! rate algorithm trimming STEP each round.

use nti_bench::{eng, header, record, reject_args, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, DriftSpec};
use nti_simcore::SimDuration;

fn run(rho_ppm: f64, rate_sync: bool, seed: u64) -> nti_core::cluster::Report {
    let mut cfg = with_duration(ClusterConfig::default_lan(4, seed), secs(60, 12));
    cfg.drift = DriftSpec::RandomWalk {
        rho_max_ppm: rho_ppm,
        sigma_ppb: rho_ppm * 2.0,
        interval: SimDuration::from_millis(500),
    };
    cfg.rho_budget_ppm = rho_ppm * 1.3 + 1.0;
    cfg.rate_sync = rate_sync;
    Cluster::new(cfg).run()
}

fn main() {
    reject_args();
    println!("E4: rate synchronization vs oscillator quality (4 nodes)");
    println!("paper: rate sync reduces the max drift; cheap oscillators suffice\n");
    let h = format!(
        "{:<12} {:<10} {:>18} {:>16} {:>14}",
        "osc quality", "rate sync", "rate spread (ppm)", "precision", "mean alpha"
    );
    header(&h);
    for rho in [2.0f64, 10.0, 50.0] {
        let mut improvement = (0.0, 0.0);
        for rs in [false, true] {
            let rep = run(rho, rs, 0xE4 + rho as u64 + rs as u64);
            record("e4_rate_sync", &format!("rho{rho}/rs{rs}"), &rep.to_json());
            println!(
                "{:<12} {:<10} {:>18.4} {:>16} {:>14}",
                format!("±{rho} ppm"),
                if rs { "on" } else { "off" },
                rep.rate_spread_ppm,
                eng(rep.worst_precision_s),
                eng(rep.mean_alpha_s)
            );
            if rs {
                improvement.1 = rep.worst_precision_s;
            } else {
                improvement.0 = rep.worst_precision_s;
            }
        }
        println!(
            "    -> precision improvement: {:.1}x",
            improvement.0 / improvement.1.max(1e-12)
        );
    }
    println!();
    println!("temperature-cycled TCXOs (±1 ppm swing over 10 min, per-node phase):");
    for rs in [false, true] {
        let mut cfg = with_duration(ClusterConfig::default_lan(4, 0xE4F), secs(60, 12));
        cfg.drift = DriftSpec::Temperature {
            mean_ppm: 5.0,
            amp_ppm: 1.0,
            period: SimDuration::from_secs(600),
        };
        cfg.rho_budget_ppm = 8.0;
        cfg.rate_sync = rs;
        let rep = Cluster::new(cfg).run();
        println!(
            "{:<12} {:<10} {:>18.4} {:>16} {:>14}",
            "TCXO cycle",
            if rs { "on" } else { "off" },
            rep.rate_spread_ppm,
            eng(rep.worst_precision_s),
            eng(rep.mean_alpha_s)
        );
    }
    println!();
    println!("shape: rate sync must collapse the rate spread to ~0.1 ppm and buy");
    println!("roughly an order of magnitude of precision on cheap (50 ppm) parts —");
    println!("that is the paper's argument for building rate adjustment in hardware.");
}
