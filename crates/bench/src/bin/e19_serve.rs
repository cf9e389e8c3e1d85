//! E19 — serving real NTP traffic from the simulated ensemble.
//!
//! A live cluster runs in its own thread, publishing a status frame into
//! the seqlock [`StatusCell`] on every HWSNAP sweep; `nti-serve` shards
//! answer real NTPv4 datagrams over loopback from those frames while the
//! built-in closed-loop load generator hammers them and validates every
//! response — origin echo, well-formedness, and the wire containment
//! invariant `reference ∈ [transmit − rootdisp, transmit + rootdisp]`.
//!
//! Printed: sustained queries/sec, the RTT distribution
//! (p50/p99/p999/max), server-side counters, and the simulation's own
//! report for the same span. One line is appended to `BENCH_serve.json`
//! so qps and tail latency accrete a trajectory across runs.
//!
//! Telemetry flags:
//!
//! * `--metrics-addr <ip:port>` — bind the live exposition endpoint
//!   (`/metrics`, `/json`, `/slow`) there for the duration of the run;
//! * `--no-telemetry` — force the plane fully off even with
//!   `--obs-summary`;
//! * `--telemetry-gate` — run the workload twice, telemetry off and
//!   telemetry on (endpoint bound, scraped mid-load), and gate that
//!   instrumented qps stays within 5% of uninstrumented qps while the
//!   scrapes actually show live rates, populated stage histograms, and
//!   the status-age gauge. Exit 1 otherwise.
//!
//! `--smoke` (CI gate, with `NTI_EXP_FAST=1`): a ~1k-query loopback run
//! that must show zero malformed responses, zero containment violations,
//! zero loss, and a sane p99 — exit code 1 otherwise.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{
    append_bench, eng, exit_on_record_error, fast_mode, header, prom_present, prom_sum, record,
    secs, with_duration,
};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::status::StatusCell;
use nti_obs::{http_get, Json, LiveConfig, SimObserver};
use nti_serve::clock::ClockHandle;
use nti_serve::loadgen::{self, LoadGenConfig, LoadReport};
use nti_serve::server::{Server, ServerConfig, StatsSnapshot};
use nti_serve::TelemetryConfig;
use nti_simcore::{SimDuration, SimTime};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// How the bench shapes the run in each mode.
struct Shape {
    nodes: usize,
    sim_duration: SimDuration,
    shards: usize,
    workers: usize,
    queries_per_worker: u64,
}

fn shape(smoke: bool) -> Shape {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    if smoke {
        Shape {
            nodes: 4,
            sim_duration: secs(60, 12),
            shards: 2,
            workers: 2,
            queries_per_worker: 500,
        }
    } else {
        Shape {
            nodes: 8,
            sim_duration: secs(600, 60),
            shards: cores.clamp(2, 8),
            workers: (cores * 2).clamp(4, 16),
            queries_per_worker: if fast_mode() { 10_000 } else { 100_000 },
        }
    }
}

/// The telemetry gate runs long enough that several live windows close
/// mid-load, but stays CI-sized.
fn gate_shape() -> Shape {
    Shape {
        nodes: 4,
        sim_duration: secs(600, 60),
        shards: 2,
        workers: 4,
        queries_per_worker: if fast_mode() { 25_000 } else { 50_000 },
    }
}

/// Drive the simulation concurrently with serving: advance in
/// snapshot-sized chunks (each publishes one frame) with a short wall
/// pause between chunks, until the load run signals completion or the
/// configured sim duration runs out. The serving threads only ever read
/// the cell, and the publisher is wait-free, so neither side can stall
/// the other — this thread's pacing is purely to keep frames flowing for
/// the whole wall-clock span of the load run.
fn sim_thread(
    cfg: ClusterConfig,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<nti_core::cluster::Report> {
    std::thread::spawn(move || {
        let chunk = cfg.snapshot_every;
        let end = SimTime::ZERO + cfg.duration;
        let mut cluster = Cluster::new(cfg);
        let mut t = SimTime::ZERO;
        while !stop.load(Relaxed) && t < end {
            t += chunk;
            cluster.advance_until(t);
            std::thread::sleep(Duration::from_micros(500));
        }
        let (report, _) = cluster.finish();
        report
    })
}

fn quantiles(rep: &LoadReport) -> (u64, u64, u64, u64) {
    let h = &rep.rtt_ns;
    (
        h.quantile(0.50),
        h.quantile(0.99),
        h.quantile(0.999),
        h.max(),
    )
}

/// What the mid-load scraper saw, best observation over all polls.
#[derive(Debug, Default, Clone)]
struct Scrape {
    /// Successful `/metrics` fetches.
    scrapes: u64,
    /// Max summed per-shard `shard_queries` per-window rate seen.
    qps_rate: f64,
    /// Max summed stage-total histogram count seen.
    stage_samples: f64,
    /// The status-age gauge appeared in the exposition.
    status_age_seen: bool,
    /// `/json` fetched and parsed by the strict parser.
    json_ok: bool,
}

/// Poll the endpoint until stopped, keeping the best observation. Runs
/// in its own thread so the scrapes land mid-load.
fn scraper(addr: SocketAddr, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<Scrape> {
    std::thread::spawn(move || {
        let mut best = Scrape::default();
        let timeout = Duration::from_secs(1);
        while !stop.load(Relaxed) {
            if let Ok(text) = http_get(addr, "/metrics", timeout) {
                best.scrapes += 1;
                best.qps_rate = best
                    .qps_rate
                    .max(prom_sum(&text, "nti_serve_shard_queries_rate"));
                best.stage_samples = best
                    .stage_samples
                    .max(prom_sum(&text, "nti_serve_stage_total_ns_count"));
                best.status_age_seen |= prom_present(&text, "nti_serve_status_age_ms");
            }
            if !best.json_ok {
                if let Ok(body) = http_get(addr, "/json", timeout) {
                    best.json_ok = Json::parse(&body).is_ok();
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        best
    })
}

/// One complete serve-and-measure pass: its own cluster, server, and
/// load run.
struct RunOutcome {
    load: LoadReport,
    stats: StatsSnapshot,
    report: nti_core::cluster::Report,
    reuseport: bool,
    scrape: Option<Scrape>,
}

/// Run the experiment once; `None` when loopback sockets cannot be bound
/// (sandbox).
fn serve_run(sh: &Shape, obs: &SimObserver, telemetry: TelemetryConfig) -> Option<RunOutcome> {
    // Simulation side: a healthy LAN ensemble publishing into the cell.
    // The cluster shares the telemetry observer, so sim-side gauges and
    // counters land in the same registry the endpoint exposes.
    let cell = Arc::new(StatusCell::new(sh.nodes));
    let mut cfg = with_duration(ClusterConfig::default_lan(sh.nodes, 0xE19), sh.sim_duration);
    cfg.status_cell = Some(Arc::clone(&cell));
    cfg.obs = obs.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let sim = sim_thread(cfg, Arc::clone(&stop));

    let want_scrape = telemetry.metrics_addr.is_some();

    // Serving side: bind the shards on node 0's clock.
    let server = match Server::bind(
        &ServerConfig {
            shards: sh.shards,
            telemetry,
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(&cell), 0),
    ) {
        Ok(s) => s,
        Err(e) => {
            // Sandboxes without loopback sockets cannot run this
            // experiment at all; the smoke gate treats that as skip, not
            // failure, mirroring the crate's socket-gated tests.
            eprintln!("e19: cannot bind loopback sockets ({e}); skipping");
            stop.store(true, Relaxed);
            let _ = sim.join();
            return None;
        }
    };
    let reuseport = server.reuseport();
    let targets: Vec<_> = server.local_addrs().to_vec();
    let running = server.start();

    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_thread = if want_scrape {
        running
            .metrics_addr()
            .map(|addr| scraper(addr, Arc::clone(&scrape_stop)))
    } else {
        None
    };

    // Don't open fire until the first frame exists (otherwise the first
    // few queries draw KoD INIT by design, which the gate would flag).
    while cell.read().publishes == 0 {
        std::thread::yield_now();
    }

    let load = loadgen::run(
        &LoadGenConfig {
            workers: sh.workers,
            queries_per_worker: sh.queries_per_worker,
            timeout: Duration::from_secs(1),
            pace: None,
        },
        &targets,
    )
    .expect("load generator");

    scrape_stop.store(true, Relaxed);
    let scrape = scrape_thread.map(|t| t.join().expect("scraper thread"));
    stop.store(true, Relaxed);
    let stats = running.stop();
    let report = sim.join().expect("sim thread");

    Some(RunOutcome {
        load,
        stats,
        report,
        reuseport,
        scrape,
    })
}

fn bench_json(shape: &Shape, out: &RunOutcome) -> Json {
    let (p50, p99, p999, max) = quantiles(&out.load);
    let load = &out.load;
    Json::obj([
        ("experiment", Json::str("e19_serve")),
        ("fast_mode", Json::Bool(fast_mode())),
        ("nodes", Json::num(shape.nodes as f64)),
        ("shards", Json::num(shape.shards as f64)),
        ("reuseport", Json::Bool(out.reuseport)),
        ("workers", Json::num(shape.workers as f64)),
        ("sent", Json::num(load.sent as f64)),
        ("received", Json::num(load.received as f64)),
        ("qps", Json::num(load.qps())),
        ("rtt_p50_ns", Json::num(p50 as f64)),
        ("rtt_p99_ns", Json::num(p99 as f64)),
        ("rtt_p999_ns", Json::num(p999 as f64)),
        ("rtt_max_ns", Json::num(max as f64)),
        ("timeouts", Json::num(load.timeouts as f64)),
        ("malformed", Json::num(load.malformed as f64)),
        ("kod", Json::num(load.kod as f64)),
        (
            "containment_checks",
            Json::num(load.containment_checks as f64),
        ),
        (
            "containment_violations",
            Json::num(load.containment_violations as f64),
        ),
        ("server_queries", Json::num(out.stats.queries as f64)),
        (
            "server_send_errors",
            Json::num(out.stats.send_errors as f64),
        ),
        (
            "sim_precision_worst_s",
            Json::num(out.report.worst_precision_s),
        ),
        (
            "sim_containment_violations",
            Json::num(out.report.containment.0 as f64),
        ),
    ])
}

/// `--telemetry-gate`: off-run vs on-run (endpoint bound and scraped
/// mid-load), qps ratio ≥ 0.95, scrapes must show live data. Retried —
/// unpaced loopback qps is noisy and the gate must only fail when the
/// overhead is real.
fn telemetry_gate() -> ! {
    let sh = gate_shape();
    const ATTEMPTS: usize = 3;
    let mut last_fail = String::new();
    for attempt in 1..=ATTEMPTS {
        // Off first: any cross-run warmup favors the instrumented run,
        // so a pass can't be manufactured by ordering.
        let off_obs = SimObserver::disabled();
        let Some(off) = serve_run(&sh, &off_obs, TelemetryConfig::default()) else {
            println!("telemetry gate: SKIP (no loopback sockets)");
            std::process::exit(0);
        };

        let on_obs = SimObserver::enabled();
        let telemetry = TelemetryConfig {
            obs: on_obs.clone(),
            metrics_addr: Some("127.0.0.1:0".parse().expect("loopback addr")),
            sample_every: 32,
            live: LiveConfig {
                window: Duration::from_millis(100),
                ..LiveConfig::default()
            },
            ..TelemetryConfig::default()
        };
        let Some(on) = serve_run(&sh, &on_obs, telemetry) else {
            println!("telemetry gate: SKIP (no loopback sockets)");
            std::process::exit(0);
        };

        let ratio = if off.load.qps() > 0.0 {
            on.load.qps() / off.load.qps()
        } else {
            0.0
        };
        let scrape = on.scrape.clone().unwrap_or_default();
        println!(
            "gate attempt {attempt}: qps off {:.0}, on {:.0} (ratio {:.3}); \
             {} scrapes, live qps rate {:.0}, stage samples {:.0}, \
             status age {}, /json {}",
            off.load.qps(),
            on.load.qps(),
            ratio,
            scrape.scrapes,
            scrape.qps_rate,
            scrape.stage_samples,
            if scrape.status_age_seen {
                "seen"
            } else {
                "MISSING"
            },
            if scrape.json_ok { "ok" } else { "MISSING" },
        );

        let line = Json::obj([
            ("experiment", Json::str("e19_telemetry")),
            ("fast_mode", Json::Bool(fast_mode())),
            ("attempt", Json::num(attempt as f64)),
            ("qps_off", Json::num(off.load.qps())),
            ("qps_on", Json::num(on.load.qps())),
            ("qps_ratio", Json::num(ratio)),
            ("scrapes", Json::num(scrape.scrapes as f64)),
            ("scrape_qps_rate", Json::num(scrape.qps_rate)),
            ("scrape_stage_samples", Json::num(scrape.stage_samples)),
            ("scrape_status_age", Json::Bool(scrape.status_age_seen)),
            ("scrape_json_ok", Json::Bool(scrape.json_ok)),
        ]);
        exit_on_record_error(append_bench("BENCH_serve.json", &line));
        record("e19_telemetry", "gate", &line);

        let mut failures = Vec::new();
        if ratio < 0.95 {
            failures.push(format!("instrumented qps ratio {ratio:.3} below 0.95"));
        }
        if scrape.scrapes == 0 {
            failures.push("endpoint never answered a scrape".into());
        }
        if scrape.qps_rate <= 0.0 {
            failures.push("live shard-qps rate never went positive".into());
        }
        if scrape.stage_samples <= 0.0 {
            failures.push("stage histograms never populated".into());
        }
        if !scrape.status_age_seen {
            failures.push("status-age gauge missing from exposition".into());
        }
        if !scrape.json_ok {
            failures.push("/json never parsed".into());
        }
        if failures.is_empty() {
            println!(
                "\ntelemetry gate: PASS (attempt {attempt}, overhead {:.1}%)",
                100.0 * (1.0 - ratio).max(0.0)
            );
            std::process::exit(0);
        }
        last_fail = failures.join("; ");
        eprintln!("gate attempt {attempt} failed: {last_fail}");
    }
    eprintln!("telemetry gate FAIL after {ATTEMPTS} attempts: {last_fail}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let no_telemetry = args.iter().any(|a| a == "--no-telemetry");
    let metrics_addr: Option<SocketAddr> = args
        .windows(2)
        .find(|w| w[0] == "--metrics-addr")
        .map(|w| w[1].parse().expect("--metrics-addr wants ip:port"));
    if args.iter().any(|a| a == "--telemetry-gate") {
        telemetry_gate();
    }
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    let sh = shape(smoke);

    println!(
        "E19: NTP front-end over the simulated ensemble \
         ({} nodes, {} shards, {} closed-loop workers)",
        sh.nodes, sh.shards, sh.workers
    );
    println!();

    let telemetry = if no_telemetry {
        TelemetryConfig::default()
    } else {
        TelemetryConfig {
            obs: obs.clone(),
            metrics_addr,
            ..TelemetryConfig::default()
        }
    };
    if let Some(addr) = metrics_addr {
        println!("telemetry endpoint requested on {addr}");
    }

    let Some(out) = serve_run(&sh, &obs, telemetry) else {
        return;
    };
    let (load, report) = (&out.load, &out.report);
    println!(
        "bound {} shard socket(s), reuseport group: {}",
        sh.shards,
        if out.reuseport {
            "yes"
        } else {
            "no (fallback)"
        }
    );

    let (p50, p99, p999, max) = quantiles(load);
    let h = "metric                          value";
    header(h);
    println!("queries sent                    {}", load.sent);
    println!("responses validated             {}", load.received);
    println!("sustained qps                   {:.0}", load.qps());
    println!("rtt p50                         {}", eng(p50 as f64 / 1e9));
    println!("rtt p99                         {}", eng(p99 as f64 / 1e9));
    println!("rtt p999                        {}", eng(p999 as f64 / 1e9));
    println!("rtt max                         {}", eng(max as f64 / 1e9));
    println!("timeouts                        {}", load.timeouts);
    println!("malformed responses             {}", load.malformed);
    println!("origin mismatches               {}", load.origin_mismatches);
    println!("kiss-o'-death                   {}", load.kod);
    println!(
        "containment (viol/checks)       {}/{}",
        load.containment_violations, load.containment_checks
    );
    println!(
        "sim precision (worst)           {}",
        eng(report.worst_precision_s)
    );
    println!(
        "sim containment (viol/checks)   {}/{}",
        report.containment.0, report.containment.1
    );

    let line = bench_json(&sh, &out);
    exit_on_record_error(append_bench("BENCH_serve.json", &line));
    record("e19_serve", if smoke { "smoke" } else { "full" }, &line);
    exit_on_record_error(opts.finish(&obs));

    if smoke {
        let expected = sh.workers as u64 * sh.queries_per_worker;
        let mut failures = Vec::new();
        if load.malformed > 0 {
            failures.push(format!("{} malformed responses", load.malformed));
        }
        if load.origin_mismatches > 0 {
            failures.push(format!("{} origin mismatches", load.origin_mismatches));
        }
        if load.containment_violations > 0 {
            failures.push(format!(
                "{} containment violations",
                load.containment_violations
            ));
        }
        if load.received != expected {
            failures.push(format!(
                "lost queries: {} received of {expected}",
                load.received
            ));
        }
        if load.kod > 0 {
            failures.push(format!("{} KoD from a healthy ensemble", load.kod));
        }
        // Generous CI bound: loopback p99 is tens of µs on any machine;
        // 10 ms means something is queueing pathologically.
        if p99 > 10_000_000 {
            failures.push(format!("p99 {} ns exceeds 10 ms", p99));
        }
        if report.containment.0 > 0 {
            failures.push(format!(
                "simulation reported {} containment violations",
                report.containment.0
            ));
        }
        if failures.is_empty() {
            println!("\nsmoke: PASS ({expected} queries served cleanly)");
        } else {
            for f in &failures {
                eprintln!("smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
