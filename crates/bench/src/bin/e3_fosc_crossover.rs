//! **E3 — the 14 MHz crossover** (paper §5: "G = u < 70 ns
//! (f_osc > 14 MHz) is required for a worst case precision below 1 µs"
//! when the OA convergence function is used).
//!
//! For each oscillator frequency, G = u = 1/f_osc (the paper's premise:
//! the clock granularity and rate-adjustment uncertainty of the
//! adder-based clock are both one oscillator period — the UTCSU's 2⁻²⁴ s
//! read granularity is below 1/f_osc for f_osc < 16.8 MHz). The analytic
//! worst-case impairment 14·(1/f_osc) is tabulated beside the *measured*
//! precision of a 4-node cluster with stamps quantized to G.

use nti_bench::{eng, header, parallel_sweep, reject_args, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_simcore::SimDuration;

fn main() {
    reject_args();
    println!("E3: worst-case precision vs oscillator frequency (G = u = 1/f_osc)");
    println!("paper: sub-1 us worst case requires G = u < 70 ns, i.e. f_osc > 14 MHz\n");
    let h = format!(
        "{:<10} {:>10} {:>20} {:>16} {:>12}",
        "f_osc", "G = u", "analytic 4G+10u", "measured prec", "< 1 us?"
    );
    header(&h);
    let mut crossover_mhz = None;
    let points: Vec<u64> = vec![1, 2, 4, 8, 10, 12, 14, 15, 16, 20];
    let results = parallel_sweep(points.clone(), |fosc_mhz| {
        let fosc = fosc_mhz * 1_000_000;
        let gu = 1.0 / fosc as f64;
        let mut cfg = with_duration(ClusterConfig::default_lan(4, 0xE3 + fosc_mhz), secs(60, 9));
        cfg.fosc_hz = fosc;
        cfg.granularity = SimDuration::from_secs_f64(gu);
        cfg.rate_sync = true;
        // Quiet oscillators so the measured floor is the G/u terms, not
        // residual drift.
        cfg.drift = nti_core::cluster::DriftSpec::ConstantSpread { rho_max_ppm: 2.0 };
        cfg.rho_budget_ppm = 3.0;
        Cluster::new(cfg).run()
    });
    for (fosc_mhz, rep) in points.into_iter().zip(results) {
        let gu = 1.0 / (fosc_mhz as f64 * 1e6);
        let analytic = 14.0 * gu;
        let ok = analytic < 1e-6;
        if ok && crossover_mhz.is_none() {
            crossover_mhz = Some(fosc_mhz);
        }
        println!(
            "{:<10} {:>10} {:>20} {:>16} {:>12}",
            format!("{fosc_mhz} MHz"),
            eng(gu),
            eng(analytic),
            eng(rep.worst_precision_s),
            if ok { "yes" } else { "no" }
        );
    }
    println!();
    match crossover_mhz {
        Some(m) => println!(
            "analytic crossover at {m} MHz (paper: > 14 MHz) -> {}",
            if m == 15 {
                "reproduced"
            } else {
                "check rounding"
            }
        ),
        None => println!("no crossover found (!)"),
    }
}
