//! **E13 — a-posteriori agreement (CesiumSpray)** (paper §5: \[VRC97\]
//! "sprays" GPS time into broadcast LANs "with a precision/accuracy in the
//! 10 µs-range", but "rests on the (quite optimistic) assumption that at
//! least one broadcast among f + 1 attempted ones is fault-free").
//!
//! Measures (a) the scheme's achievable precision — the residual reception
//! spread after the broadcast simultaneity cancels the sender/medium
//! terms — and (b) the failure rate of the optimistic assumption as
//! broadcast faults increase.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, exit_on_record_error, header};
use nti_core::aposteriori::{simulate_spray, SprayConfig};
use nti_kernel::KernelConfig;
use nti_obs::MetricKey;

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E13: a-posteriori agreement (CesiumSpray-style) on a broadcast LAN");
    println!();
    println!("part 1: precision by receiver stamping path (8 receivers, 200 rounds)");
    let h = format!(
        "{:<34} {:>14} {:>14}",
        "stamping path", "mean spread", "worst spread"
    );
    header(&h);
    let mut spray = SprayConfig::cesium_spray(8);
    let rep_dedicated = simulate_spray(&spray);
    println!(
        "{:<34} {:>14} {:>14}",
        "interrupt-level, dedicated CPU",
        eng(rep_dedicated.precision.mean()),
        eng(rep_dedicated.worst_precision_s)
    );
    if let Some(g) = obs.gauge(MetricKey::global("app", "spray_dedicated_worst_ns")) {
        g.set((rep_dedicated.worst_precision_s * 1e9) as i64);
    }
    spray.kernel = KernelConfig::psos_mvme162();
    let rep_shared = simulate_spray(&spray);
    if let Some(g) = obs.gauge(MetricKey::global("app", "spray_shared_worst_ns")) {
        g.set((rep_shared.worst_precision_s * 1e9) as i64);
    }
    println!(
        "{:<34} {:>14} {:>14}",
        "interrupt-level, shared CPU",
        eng(rep_shared.precision.mean()),
        eng(rep_shared.worst_precision_s)
    );
    println!();
    let in_decade =
        rep_dedicated.worst_precision_s > 3e-6 && rep_dedicated.worst_precision_s < 60e-6;
    println!(
        "dedicated-CPU spray precision {} -> {}",
        eng(rep_dedicated.worst_precision_s),
        if in_decade {
            "the paper's 10 us-range for [VRC97]"
        } else {
            "outside the expected decade (!)"
        }
    );

    println!();
    println!("part 2: the optimistic assumption (f + 1 = 2 attempts per round)");
    let h = format!(
        "{:<22} {:>18} {:>18}",
        "broadcast fault rate", "rounds w/o agreement", "expected (p^2)"
    );
    header(&h);
    for (case, p) in [0.01f64, 0.05, 0.2, 0.5].into_iter().enumerate() {
        let mut cfg = SprayConfig::cesium_spray(8);
        cfg.broadcast_fault_prob = p;
        cfg.rounds = 1000;
        let rep = simulate_spray(&cfg);
        if let Some(g) = obs.gauge(MetricKey::node(case as u32, "app", "spray_failed_rounds")) {
            g.set(rep.failed_rounds as i64);
        }
        println!(
            "{:<22} {:>15}/1000 {:>17.1}",
            format!("{:.0} %", p * 100.0),
            rep.failed_rounds,
            1000.0 * p * p
        );
    }
    println!();
    println!("reading: the scheme's precision is an order of magnitude short of the");
    println!("NTI (reception-path jitter remains), and whole rounds fail whenever all");
    println!("f+1 broadcasts are faulty — the 'quite optimistic' assumption of §5.");
    exit_on_record_error(opts.finish(&obs));
}
