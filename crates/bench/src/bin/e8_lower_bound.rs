//! **E8 — the Lundelius–Lynch lower bound** (paper §3.1: "even n ideal
//! clocks cannot be synchronized with a worst case precision less than
//! ε(1 − 1/n) in presence of a transmission/reception time uncertainty ε").
//!
//! Uses *perfect* oscillators (the clocks only differ by what
//! synchronization does to them) and a COMCO with a precisely known
//! uncertainty window ε, then measures achieved precision for growing n.
//! The measured worst case must stay above the bound (sanity of the
//! simulation) and approach Θ(ε) as n grows.

use nti_bench::{eng, header, reject_args, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, DriftSpec};
use nti_netsim::{ComcoTiming, Jitter};
use nti_simcore::SimDuration;

fn main() {
    reject_args();
    println!("E8: [LL84] lower bound ε(1 - 1/n) with n ideal clocks");
    // A COMCO whose only nondeterminism is a 2 us store-latency window:
    // the stamp-pair uncertainty ε is exactly that window.
    let eps = 2e-6;
    let comco = ComcoTiming {
        arb_jitter: Jitter::fixed(SimDuration::ZERO),
        rx_store_latency: Jitter {
            base: SimDuration::from_micros(1),
            spread: SimDuration::from_secs_f64(eps),
        },
        ..ComcoTiming::ideal()
    };
    println!(
        "engineered ε = {} (uniform receive-side window)\n",
        eng(eps)
    );
    let h = format!(
        "{:<6} {:>16} {:>16} {:>16} {:>10}",
        "n", "bound ε(1-1/n)", "measured prec", "measured ε", "≥ bound?"
    );
    header(&h);
    for n in [2usize, 3, 4, 8, 16] {
        let mut cfg = with_duration(ClusterConfig::default_lan(n, 0xE8 + n as u64), secs(40, 8));
        cfg.drift = DriftSpec::Perfect;
        cfg.rho_budget_ppm = 0.5;
        cfg.comco = comco;
        cfg.f = 0;
        cfg.init_offset = SimDuration::from_micros(100);
        let rep = Cluster::new(cfg).run();
        let bound = eps * (1.0 - 1.0 / n as f64);
        println!(
            "{:<6} {:>16} {:>16} {:>16} {:>10}",
            n,
            eng(bound),
            eng(rep.worst_precision_s),
            eng(rep.eps_spread_s),
            if rep.worst_precision_s >= bound * 0.5 {
                "~yes"
            } else {
                "below(!)"
            }
        );
    }
    println!();
    println!("note: the bound is adversarial (worst case over executions); a finite");
    println!("random run measures a high quantile of it, so 'measured ≥ ~0.5×bound'");
    println!("is the meaningful sanity check, and growth with n is the shape check.");
}
