//! # perfbench — the NTI reproduction's end-to-end and per-layer benchmark
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lan128 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Every metric is printed by name with its
//! unit; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). A full
//! record (provenance, repetitions, median and quartiles of every metric,
//! the coverage line, every failed check) is appended to
//! `perfbench/results/records.jsonl` (`--record <path>` to change). An
//! unknown flag, a failed measurement or a failed record write exits
//! non-zero; so does a run whose correctness checks fail, after printing
//! its result line with `"correct": false`.
//!
//! ## Workloads
//!
//! The seed is the only input; the program receives only the configuration
//! generated from it.
//!
//! * `lan128` — `ClusterConfig::default_lan(128, seed)` at its own 2 ms
//!   broadcast stagger, 20 simulated seconds: the ROADMAP baseline shape.
//!   The N² fan-out: 127 receptions per CSP, about 309k deliveries and
//!   5.9M engine events (19 per delivery) per run. The receive path and
//!   the event queue dominate, so gains there must show here. (The
//!   ROADMAP timed this shape at a 500 ms / 128 stagger, which loses
//!   containment on some seeds; see the disclosed defects below.)
//! * `wan_8x8` — the E10 settings at `Topology::chain_of_lans(8, 8)`
//!   (71 nodes including 7 gateways), `rate_sync`, `f = 0`, the default
//!   2 ms stagger, 20 simulated seconds. Each CSP reaches about 9
//!   receivers across 8 mediums: per delivery about 14× more medium grants
//!   and transmit-path work and about 12× more convergence-function runs
//!   than `lan128`. A receive-path-only gain stays small here; a transmit
//!   or CF regression shows here first.
//! * `serve_lan8` — `nti-serve`, 1 shard, answering a closed loop of
//!   1 client over loopback from a `default_lan(8, seed)` sim that
//!   advances in real time and publishes into the `StatusCell`. The serve
//!   path dominates and the sim does almost no work, so a sim-only change
//!   must not move it. 1 shard and 1 client are deliberate: with 2 shards
//!   and 2 clients the 2-core box ranged from 63k to 139k qps between
//!   runs; 1 and 1 held 50–58k qps with a p50 of 12.5–15.4 µs (with a
//!   blocking client; the benchmark's polling client reads about 100k qps
//!   and 9–10 µs).
//!
//! Every workload reports every metric. A sim workload spends 80 % of
//! `--seconds` on its sim and 20 % serving queries from its own first
//! status frame (a cell sized for its node count); `serve_lan8` spends
//! 80 % serving and 20 % running its sim at full speed. The two halves
//! alternate in slices of about 2 s, so each samples the whole run. A sim
//! workload serves only between two repetitions, when no cluster is
//! alive, so on `lan128` a slice is one repetition (about 3 s).
//!
//! ## End-to-end metrics (tracing off)
//!
//! `setup_s`, `qps` and `rtt_p50_us` are medians over the set-ups or
//! windows of a run; `wall_per_sim_s` reads the low tail of its chunks
//! (see Noise). The record keeps every metric's quartiles too.
//!
//! * `wall_per_sim_s` — host seconds per simulated second: the 1st
//!   percentile over every one-simulated-second `advance_until` chunk of
//!   every untraced repetition (the first simulated second, which holds
//!   no CSP traffic, is not a sample).
//! * `setup_s` — the median `Cluster::new` over 20 set-ups timed alone
//!   plus one per repetition; for `serve_lan8`, the median over its
//!   serving sessions (10 set up and closed, then one per slice) of
//!   `Server::bind` and start plus, on the sim thread, `Cluster::new` and
//!   the advance to the first published frame. The hand-off between the
//!   two threads is not timed: it is scheduler latency, and it swung the
//!   median between 0.5 and 1.3 ms from run to run.
//! * `peak_rss_mb` — the process high-water mark (`VmHWM`), read before
//!   the traced run.
//! * `qps` — validated answers per second: the median over 100 ms windows
//!   (the first window of each serving phase is warm-up, not a sample).
//! * `rtt_p50_us` — the median over the same windows of each window's
//!   median round trip.
//! * `ok_rate` — `1 − error_rate`: successful over attempted operations.
//!   A sim operation is a containment check or a CSP reception, and it
//!   fails on a containment violation, a dropped CSP, an online-monitor
//!   violation or a report that is not bit-identical to the first run of
//!   the seed. A query fails on a timeout, a malformed answer, an origin
//!   mismatch, a kiss-o'-death answer or a containment violation.
//!   (`error_rate` itself is 0 in a passing run, so it is reported as a
//!   per-layer metric.)
//!
//! p99 and p999 are not end-to-end metrics: on the 2-core box p99 ranged
//! from 61 to 274 µs between runs, which measures the scheduler. They are
//! per-layer metrics, taken over the untraced serving window.
//!
//! ## Per-layer metrics (`--trace 1`) and what each should move
//!
//! The traced run is the same configuration with `SimObserver::enabled()`
//! (and, when serving, `TelemetryConfig { sample_every: 1 }`). Layers are
//! measured from outside: spans around `Cluster::new`, `advance_until` and
//! `finish`, the counters the crates already register, and each layer's
//! public functions timed in isolation on inputs shaped by the traced
//! counts (`layers`).
//!
//! * `simcore.*` — events fired / scheduled / cancelled, events per
//!   delivery, queue depth p50 and max, handler busy time, dispatch self
//!   time (traced advance minus handler busy, so the two sum to
//!   `core.advance_s`), and an `Engine` replay at the workload's event mix
//!   and median depth. These move `wall_per_sim_s` on `lan128` most, less
//!   on `wan_8x8`, not at all on `serve_lan8`.
//! * Receive-side per-op costs — `utcsu.triggers`, `utcsu.trigger_ns`,
//!   `nti.header_write_ns`, `netsim.plan_receive_ns`, `kernel.dispatches`,
//!   `kernel.preemptions` (0: the cluster uses the condensed kernel model,
//!   which never preempts), `kernel.isr_path_ns`. These move
//!   `wall_per_sim_s` on `lan128`, and `peak_rss_mb` for per-receiver
//!   payload copies.
//! * Per-CSP and per-round costs — `netsim.grants`, `netsim.deferrals`,
//!   `netsim.backoff_rounds`, `netsim.grant_ns`, `utcsu.amort_starts`,
//!   `utcsu.advance_ns` (one round of advances at the workload's event
//!   density), `core.cf_oa_ns` (at the workload's fan-in). These move
//!   `wall_per_sim_s` on `wan_8x8`.
//! * `core.*` — CSPs sent / delivered / dropped, status publishes, untraced
//!   wall per delivery, and the traced `advance_s` and `finish_s` spans.
//!   These explain `wall_per_sim_s` and `setup_s`.
//! * `serve.*` — stage p50s from the server's own stage histograms,
//!   queries and send errors, and `classify`, `ClockHandle::respond_at` +
//!   `encode` and `StatusCell::read` in isolation. These move `qps` and
//!   `rtt_p50_us` on `serve_lan8` and nothing on the sim workloads.
//!   `serve.rtt_p99_us`, `serve.rtt_p999_us` and
//!   `serve.rtt_outside_server_us_p50` (RTT p50 minus stage-total p50:
//!   socket plus scheduler time) move no gated metric.
//! * `obs.traced_slowdown` — traced over untraced advance wall per
//!   simulated second (about 1.6× on `lan128`): the price of always-on
//!   attribution.
//!
//! The coverage line prints Σ(count × isolated ns) per sim layer next to
//! the traced advance wall. It is reported, never gated.
//!
//! ## Noise
//!
//! The build box is a 2-core VM with no `perf`, and run-to-run noise
//! reaches ±15 %. Its co-tenants contend for the host: for spells of 50 ms
//! to about 20 s, covering a third to a half of a run, the sim runs
//! 1.6–2× slow. Its CPU time stays equal to its wall time in those spells
//! (no steal), and register-only or L1-resident loops slow by 1.35× at
//! most, so the contention is for the caches the sim's working set lives
//! in; `lan128`, with the largest working set, also meets a continuum of
//! milder levels. The median chunk of a 30 s run therefore read either
//! state: over 10 seeds its spread (IQR over median) reached 0.24–0.27 on
//! `lan128`, 0.43–0.45 on `wan_8x8` and 0.59 on `serve_lan8`. Nearly every run holds some
//! uncontended time, and the 1st percentile of its chunks reads it:
//! replaying 6- and 4-minute chunk traces of `wan_8x8` and `lan128` in
//! 24 s windows gave a spread of 0.05 and 0.065 (median over 300 draws of
//! 10 windows; 0.07 and 0.11 at the 90th percentile), against 0.26 and
//! 0.14 for the median. The serve loop is steadier: with a blocking
//! client it sat mostly at a 17 µs round trip with spells at 12 µs (the
//! host's halt polling; see `serverun::closed_loop`), so its tails flipped
//! between runs, and with the polling client its window medians vary by
//! about 2 % within a run. Hence the 1st percentile for the sim, medians
//! for serving, a polling client, short alternating slices, a closed loop
//! of one client against one shard, and bounds of 0.25 on every timing.
//!
//! ## Disclosed defects (out of scope here)
//!
//! Both are containment losses in `nti-core` when the broadcasts of a
//! round are spread wider; the benchmark keeps the narrower staggers at
//! which no check fails, and its own tests drive both defects and see the
//! check fail. A later change should fix them in `nti-core`.
//!
//! * `chain_of_lans(8, 8)` loses containment once the stagger reaches
//!   4 ms: at seed 17 over 20 s, 14 of 2201 checks fail at 4 ms and 1811
//!   of 2201 at 7.8 ms, none at 2 or 3 ms (none either at 2 ms on seeds
//!   1–60). `wan_8x8` therefore keeps E10's 2 ms stagger.
//! * `default_lan(128)` at a 500 ms / 128 stagger (broadcasts reaching
//!   past Δ = 250 ms) loses containment on some seeds: over 20 s, 4, 481
//!   and 282 of 3968 checks fail at seeds 21, 22 and 25, with 35–48
//!   convergence-function failures per run on every seed tried; at the
//!   2 ms stagger seeds 1–12 and 17–27 fail none. `lan128` therefore uses
//!   the 2 ms stagger.

mod check;
mod layers;
mod measure;
mod record;
mod serverun;
mod simrun;
mod stats;
mod workloads;

use measure::Plan;
use record::{Provenance, Record, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Kind;

const USAGE: &str = "usage: perfbench --workload <lan128|wan_8x8|serve_lan8> --seed <u64> \
                     [--seconds <1..=60>] [--trace <0|1>] [--record <path>]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30;
    let mut trace = false;
    let mut record = PathBuf::from("perfbench/results/records.jsonl");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| format!("bad --seconds {v} (1..=60)"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                }
            }
            "--record" => record = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name: String = workload.ok_or("--workload is required")?;
    let workload = workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        record,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let provenance = Provenance::collect();
    println!(
        "perfbench {} seed={} seconds={} trace={} commit={} cores={} {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        provenance.commit,
        provenance.available_parallelism,
        provenance.rustc
    );
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
    };
    let outcome = match w.kind {
        Kind::Sim => measure::sim(&w, &plan),
        Kind::Serve => measure::serve(&w, &plan),
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: measurement failed: {e}");
            return ExitCode::from(1);
        }
    };

    for m in &o.metrics {
        let s = stats::spread(&m.samples);
        println!(
            "  {:<36} {:>16.6} {:<6} (q1 {:.6}, q3 {:.6}, n={})",
            m.name,
            m.value,
            record::unit_of(m.name).unwrap_or("?"),
            s.q1,
            s.q3,
            m.samples.len()
        );
    }
    if let Some(c) = &o.coverage {
        println!("  {}", c.line());
    }
    let reps: Vec<String> = o
        .repetitions
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    println!("  repetitions: {}", reps.join(" "));
    for f in &o.checks.failures {
        println!("  FAILED CHECK: {f}");
    }

    let record = Record {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        provenance: &provenance,
        repetitions: &o.repetitions,
        metrics: &o.metrics,
        coverage: o.coverage.as_ref(),
        attempted: o.checks.attempted,
        failed: o.checks.failed,
        failures: &o.checks.failures,
    };
    if let Err(e) = record.append_to(&args.record) {
        eprintln!(
            "perfbench: cannot write the record to {}: {e}",
            args.record.display()
        );
        return ExitCode::from(3);
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = o.checks.correct();
    match record::result_line(
        correct,
        o.checks.attempted,
        o.checks.failed,
        table,
        &o.metrics,
    ) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse_args(&argv("--workload wan_8x8 --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.name, "wan_8x8");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
    }

    #[test]
    fn refuses_unknown_or_malformed_flags() {
        for bad in [
            "--workload lan128 --seed 1 --bogus 3",
            "--workload lan128",
            "--workload nope --seed 1",
            "--workload lan128 --seed x",
            "--workload lan128 --seed 1 --trace 2",
            "--workload lan128 --seed 1 --seconds 0",
            "--workload lan128 --seed 1 --seconds",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted: {bad}");
        }
    }
}
