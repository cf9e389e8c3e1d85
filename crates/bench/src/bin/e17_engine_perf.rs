//! **E17 — engine performance**: events per second and wall-clock time of
//! a full cluster run at N = 16, 64 and 128 nodes on one LAN (20 s
//! simulated each), the ~N² workload whose per-delivery cost the engine
//! carries.
//!
//! Repetitions are interleaved across N (rep 1 of every N, then rep 2, …),
//! so a slow spell on a shared machine lands on every N alike; each row
//! reports the median with its p10/p90 over the repetitions. Every
//! repetition of one N must yield the same `Report` and the same
//! `events_fired`; the run exits 1 otherwise.
//!
//! Results accrete to `target/experiments/BENCH_engine.json` (JSON Lines,
//! one record per run, one `rows` entry per N).
//!
//! `--smoke` runs N = 16 only (the CI gate in `scripts/check.sh`). Any
//! other argument prints a one-line usage and exits 2.

use nti_bench::{append_bench, exit_on_record_error, fast_mode, header};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_obs::quantile::percentile_sorted;
use nti_obs::{keys, Json, SimObserver};
use nti_simcore::SimDuration;
use std::time::Instant;

/// Simulated seconds per run.
const SIM_S: u64 = 20;

/// One observed cluster run: (report JSON, events fired, wall seconds).
fn run(nodes: usize) -> (String, u64, f64) {
    let obs = SimObserver::enabled();
    let mut cfg = ClusterConfig::default_lan(nodes, 17);
    cfg.duration = SimDuration::from_secs(SIM_S);
    cfg.obs = obs.clone();
    let t0 = Instant::now();
    let report = Cluster::new(cfg).run();
    let wall = t0.elapsed().as_secs_f64();
    let fired = obs
        .counter(keys::engine_events_fired())
        .expect("enabled")
        .get();
    (report.to_json().to_string(), fired, wall)
}

/// (median, p10, p90) of a sample.
fn spread(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [50.0, 10.0, 90.0].map(|p| percentile_sorted(&xs, p))
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg != "--smoke" {
            eprintln!("usage: e17_engine_perf [--smoke] (got {arg:?})");
            std::process::exit(2);
        }
        smoke = true;
    }
    let fast = fast_mode();
    let sizes: &[usize] = if smoke { &[16] } else { &[16, 64, 128] };
    let reps = if smoke || fast { 5 } else { 9 };

    println!("E17 engine performance: {SIM_S} s simulated per run, {reps} interleaved repetitions");
    let h = format!(
        "{:>5} {:>10} {:>12} {:>25} {:>25}",
        "nodes", "events", "ev/s", "ev/s p10..p90", "wall s [p10..p90]"
    );
    header(&h);

    // samples[i] = (report, events, wall) of every repetition at sizes[i].
    let mut samples: Vec<Vec<(String, u64, f64)>> = vec![Vec::new(); sizes.len()];
    for _ in 0..reps {
        for (i, &n) in sizes.iter().enumerate() {
            samples[i].push(run(n));
        }
    }

    let mut rows = Vec::new();
    let mut deterministic = true;
    for (&n, runs) in sizes.iter().zip(&samples) {
        let (report, fired, _) = &runs[0];
        let same = runs.iter().all(|(r, f, _)| r == report && f == fired);
        deterministic &= same;
        let [eps, eps_lo, eps_hi] = spread(runs.iter().map(|r| *fired as f64 / r.2).collect());
        let [wall, wall_lo, wall_hi] = spread(runs.iter().map(|r| r.2).collect());
        println!(
            "{n:>5} {fired:>10} {eps:>12.0} {:>25} {:>25}{}",
            format!("{eps_lo:.0}..{eps_hi:.0}"),
            format!("{wall:.3} [{wall_lo:.3}..{wall_hi:.3}]"),
            if same { "" } else { "  REPETITIONS DIFFER" }
        );
        rows.push(Json::obj([
            ("nodes", Json::num(n as f64)),
            ("events_fired", Json::num(*fired as f64)),
            ("eps_median", Json::num(eps)),
            ("eps_p10", Json::num(eps_lo)),
            ("eps_p90", Json::num(eps_hi)),
            ("wall_median_s", Json::num(wall)),
            ("wall_p10_s", Json::num(wall_lo)),
            ("wall_p90_s", Json::num(wall_hi)),
        ]));
    }

    exit_on_record_error(append_bench(
        "BENCH_engine.json",
        &Json::obj([
            ("experiment", Json::str("e17_engine_perf")),
            ("smoke", Json::Bool(smoke)),
            ("fast_mode", Json::Bool(fast)),
            ("sim_s", Json::num(SIM_S as f64)),
            ("reps", Json::num(reps as f64)),
            ("rows", Json::Arr(rows)),
            ("deterministic", Json::Bool(deterministic)),
        ]),
    ));

    if !deterministic {
        println!("e17: FAILED (repetitions of one configuration differ in Report or events fired)");
        std::process::exit(1);
    }
    println!("e17: every repetition reproduced its Report and events fired");
}
