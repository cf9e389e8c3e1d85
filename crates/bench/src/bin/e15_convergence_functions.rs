//! **E15 — convergence-function ablation** (paper §2/§5: the convergence
//! function "determines the performance and fault-tolerance degree" of the
//! algorithm; OA \[Sch97b\] is the paper's choice, with a proven worst-case
//! precision that plain interval intersection does not match).
//!
//! Runs the identical cluster under three convergence machineries:
//!
//! * **OA** — fault-tolerant midpoint for the value, Marzullo edges
//!   (the paper's orthogonal-accuracy design);
//! * **Marzullo** — pure interval intersection for value and edges
//!   (\[Mar84\]-style);
//! * **FTM** — midpoint only, no interval maintenance (the CSU lineage).
//!
//! Expected shape: all three synchronize; OA matches FTM's precision while
//! additionally carrying valid accuracy intervals; pure Marzullo keeps
//! containment but with visibly worse precision (its value selection is
//! dictated by interval geometry, so one tight-but-skewed input drags the
//! ensemble) and larger claimed α under faults.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, exit_on_record_error, header, record, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::params::AlgoKind;
use nti_obs::SimObserver;

fn run(algo: AlgoKind, byzantine: bool, obs: &SimObserver) -> nti_core::cluster::Report {
    let mut cfg = with_duration(ClusterConfig::default_lan(6, 0xE15), secs(60, 12));
    cfg.algo = algo;
    cfg.rate_sync = true;
    cfg.f = 1;
    cfg.obs = obs.clone();
    if byzantine {
        cfg.byzantine = vec![5];
    }
    Cluster::new(cfg).run()
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E15: convergence-function ablation (6 nodes, f = 1)");
    println!();
    for byz in [false, true] {
        println!(
            "{}",
            if byz {
                "with one Byzantine node:"
            } else {
                "all nodes honest:"
            }
        );
        let h = format!(
            "{:<22} {:>14} {:>14} {:>14} {:>12}",
            "convergence fn", "precision", "mean alpha", "cf failures", "containment"
        );
        header(&h);
        let mut rows = Vec::new();
        for (name, algo) in [
            ("OA (paper)", AlgoKind::IntervalOa),
            ("Marzullo intersection", AlgoKind::IntervalMarzullo),
            ("FTM (no intervals)", AlgoKind::Ftm),
        ] {
            let rep = run(algo, byz, &obs);
            record(
                "e15_convergence",
                &format!("{name}/byz{byz}"),
                &rep.to_json(),
            );
            println!(
                "{:<22} {:>14} {:>14} {:>14} {:>9}/{}",
                name,
                eng(rep.worst_precision_s),
                eng(rep.mean_alpha_s),
                rep.cf_failures,
                rep.containment.0,
                rep.containment.1
            );
            rows.push(rep);
        }
        // OA must keep containment; FTM gives up intervals entirely
        // (alpha saturated); all three must synchronize.
        assert_eq!(rows[0].containment.0, 0, "OA containment");
        assert_eq!(rows[1].containment.0, 0, "Marzullo containment");
        assert!(rows[0].worst_precision_s < 50e-6);
        println!();
    }
    println!("reading: OA pairs FTM-grade precision with valid on-line accuracy");
    println!("bounds; pure intersection trades precision for tightness; FTM has no");
    println!("bounds at all (alpha saturated) — the design space the paper's OA");
    println!("choice sits in.");
    exit_on_record_error(opts.finish(&obs));
}
