//! E20 — goodput protection under hostile and degenerate traffic.
//!
//! The question `e19_serve` does not ask: what happens to *legitimate*
//! clients when the server is simultaneously being fuzzed, flooded, and
//! starved of fresh ensemble frames? Four phases over a live loopback
//! server with admission control enabled:
//!
//! 1. **Fuzz replay** — the deterministic hostile corpus from
//!    `nti-faults` (runts, garbage, foreign modes, truncations) is
//!    sprayed at the server; nothing but the well-formed client-mode
//!    datagrams hidden in it may be answered, and the server must still
//!    serve cleanly afterwards.
//! 2. **Baseline** — paced, well-behaved closed-loop clients measure the
//!    no-attack goodput (validated responses / queries sent).
//! 3. **Attack** — the same legit load runs again, now concurrent with a
//!    [`ServeFaultPlan`] flood episode: N spoofed sources pumping runts,
//!    garbage, foreign modes, and abusive valid queries. Admission
//!    control must contain the abusers (KoD `RATE`, then silence) while
//!    the paced clients keep ≥ 80% of their baseline goodput with zero
//!    containment violations.
//! 4. **Stall** — the simulation thread is deliberately wedged (dropped
//!    without finishing, so frames stop). A staleness-enabled server on
//!    the same cell must escalate stratum, widen the served interval at
//!    the drift bound ρ, and finally refuse with KoD `XSTL` — never a
//!    frozen stratum-1 answer.
//!
//! One line is appended to `BENCH_serve.json`, now including per-phase
//! wall times and rates (fuzz/baseline/flood/stall); `--smoke` turns the
//! four phase outcomes into hard CI gates (exit 1).
//!
//! Telemetry: `--metrics-addr <ip:port>` binds the live exposition
//! endpoint for the run; under `--smoke` the endpoint is bound on an
//! ephemeral loopback port regardless and scraped **mid-flood** — the
//! scrape must show live admit/RATE/drop verdict rates, populated
//! rolling stage quantiles, and the status-age gauge, or the smoke gate
//! fails.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{
    append_bench, exit_on_record_error, fast_mode, header, prom_present, prom_sum, record, secs,
    with_duration,
};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::status::StatusCell;
use nti_faults::{fuzz_corpus, FloodSource, ServeFaultPlan};
use nti_obs::{http_get, Json, LiveConfig};
use nti_serve::clock::{ClockHandle, StalenessPolicy};
use nti_serve::loadgen::{self, LoadGenConfig, LoadReport};
use nti_serve::packet::{NtpPacket, KISS_STALE, MODE_CLIENT, MODE_SERVER};
use nti_serve::server::{classify, Ingress, Server, ServerConfig, StatsSnapshot};
use nti_serve::{AdmissionConfig, TelemetryConfig};
use nti_simcore::rng::SimRng;
use nti_simcore::SimTime;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the bench shapes the run in each mode.
struct Shape {
    nodes: usize,
    shards: usize,
    workers: usize,
    queries_per_worker: u64,
    pace: Duration,
    flood_sources: usize,
    /// Per-source inter-datagram gap; keeps the attack hot without
    /// turning the bench into a kernel-buffer benchmark.
    flood_gap: Duration,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            nodes: 4,
            shards: 2,
            workers: 2,
            queries_per_worker: 100,
            pace: Duration::from_millis(10),
            flood_sources: 4,
            flood_gap: Duration::from_micros(50),
        }
    } else {
        Shape {
            nodes: 8,
            shards: 4,
            workers: 4,
            queries_per_worker: if fast_mode() { 500 } else { 5_000 },
            pace: Duration::from_millis(5),
            flood_sources: 8,
            flood_gap: Duration::from_micros(20),
        }
    }
}

/// Drive the simulation until stopped — then DROP it without `finish()`.
/// `finish()` would simulate the remaining configured span and publish a
/// burst of fresh frames on the way out; a wedged sim does no such
/// favor, and the stall phase depends on frames genuinely stopping.
fn sim_thread(cfg: ClusterConfig, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
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
        drop(cluster);
    })
}

/// The well-behaved load: paced below the admission budget, validated
/// end to end.
fn legit_run(sh: &Shape, targets: &[std::net::SocketAddr]) -> LoadReport {
    loadgen::run(
        &LoadGenConfig {
            workers: sh.workers,
            queries_per_worker: sh.queries_per_worker,
            timeout: Duration::from_secs(1),
            pace: Some(sh.pace),
        },
        targets,
    )
    .expect("load generator")
}

/// Goodput: validated non-KoD responses per query sent.
fn goodput(load: &LoadReport) -> f64 {
    if load.sent == 0 {
        return 0.0;
    }
    (load.received - load.kod) as f64 / load.sent as f64
}

/// Phase 1: replay the hostile corpus, then prove the server still
/// serves. Returns (valid queries in corpus, answers drained, probe ok).
fn fuzz_phase(addr: std::net::SocketAddr) -> std::io::Result<(u64, u64, bool)> {
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.connect(addr)?;
    client.set_read_timeout(Some(Duration::from_millis(100)))?;
    let corpus = fuzz_corpus(0xE20, 256, 16 * 1024);
    let mut valid = 0u64;
    for chunk in corpus.chunks(8) {
        for datagram in chunk {
            client.send(datagram)?;
            if matches!(classify(datagram), Ingress::Query(_)) {
                valid += 1;
            }
        }
        // Pace so kernel receive buffers never shed datagrams — every
        // drop the server is credited with must be the server's choice.
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut answered = 0u64;
    let mut buf = [0u8; 2048];
    while let Ok(n) = client.recv(&mut buf) {
        if NtpPacket::decode(&buf[..n]).map(|p| p.mode) == Ok(MODE_SERVER) {
            answered += 1;
        }
    }
    // Liveness probe after the storm.
    let probe = NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: 0xE20_CAFE,
        ..NtpPacket::default()
    };
    client.set_read_timeout(Some(Duration::from_secs(5)))?;
    client.send(&probe.encode())?;
    let probe_ok = match client.recv(&mut buf) {
        Ok(n) => NtpPacket::decode(&buf[..n]).map(|p| p.origin_ts) == Ok(0xE20_CAFE),
        Err(_) => false,
    };
    Ok((valid, answered, probe_ok))
}

/// What the mid-flood scraper saw, best observation over all polls.
#[derive(Debug, Default, Clone)]
struct FloodScrape {
    /// Successful `/metrics` fetches.
    scrapes: u64,
    /// Max per-window admitted-query rate (`serve/queries` mirror).
    admit_rate: f64,
    /// Max per-window KoD `RATE` + silent-drop rate.
    limited_rate: f64,
    /// Max rolling stage-total quantile value seen (> 0 once the stage
    /// histograms have samples inside the rolling window set).
    stage_rolling: f64,
    /// The status-age gauge appeared in the exposition.
    status_age_seen: bool,
}

/// Poll the endpoint until stopped, keeping the best observation; runs
/// concurrently with the flood so every scrape is genuinely mid-attack.
fn flood_scraper(addr: SocketAddr, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<FloodScrape> {
    std::thread::spawn(move || {
        let mut best = FloodScrape::default();
        while !stop.load(Relaxed) {
            if let Ok(text) = http_get(addr, "/metrics", Duration::from_secs(1)) {
                best.scrapes += 1;
                best.admit_rate = best
                    .admit_rate
                    .max(prom_sum(&text, "nti_serve_queries_rate"));
                best.limited_rate = best.limited_rate.max(
                    prom_sum(&text, "nti_serve_rate_kod_rate")
                        + prom_sum(&text, "nti_serve_dropped_rate"),
                );
                best.stage_rolling = best
                    .stage_rolling
                    .max(prom_sum(&text, "nti_serve_stage_total_ns_rolling"));
                best.status_age_seen |= prom_present(&text, "nti_serve_status_age_ms");
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        best
    })
}

/// Phase 4: query a staleness-enabled server while frames have stopped;
/// return (saw escalation, saw KoD `XSTL`, probes sent) within the
/// deadline.
fn stall_phase(cell: &Arc<StatusCell>) -> std::io::Result<(bool, bool, u64)> {
    let policy = StalenessPolicy {
        fresh: Duration::from_millis(150),
        escalate_every: Duration::from_millis(150),
        kod_after: Duration::from_millis(900),
        rho_ppm: 100,
    };
    let server = Server::bind(
        &ServerConfig::default(),
        ClockHandle::new(Arc::clone(cell), 0).with_staleness(policy),
    )?;
    let addr = server.local_addrs()[0];
    let running = server.start();
    let client = UdpSocket::bind("127.0.0.1:0")?;
    client.connect(addr)?;
    client.set_read_timeout(Some(Duration::from_millis(300)))?;
    let mut buf = [0u8; 96];
    let mut escalated = false;
    let mut kod_stale = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut nonce = 1u64;
    while Instant::now() < deadline && !(escalated && kod_stale) {
        let req = NtpPacket {
            version: 4,
            mode: MODE_CLIENT,
            transmit_ts: nonce,
            ..NtpPacket::default()
        };
        client.send(&req.encode())?;
        if let Ok(n) = client.recv(&mut buf) {
            if let Ok(resp) = NtpPacket::decode(&buf[..n]) {
                if resp.origin_ts == nonce {
                    if resp.is_kod() && resp.ref_id == KISS_STALE {
                        kod_stale = true;
                    } else if (2..=15).contains(&resp.stratum) {
                        escalated = true;
                    }
                }
            }
        }
        nonce += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    running.stop();
    Ok((escalated, kod_stale, nonce - 1))
}

/// Wall-clock spans of the four phases, so `BENCH_serve.json` carries
/// per-phase rates, not just totals.
struct PhaseTimes {
    fuzz_s: f64,
    baseline_s: f64,
    flood_s: f64,
    stall_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn bench_json(
    sh: &Shape,
    base: &LoadReport,
    attack: &LoadReport,
    stats: &StatsSnapshot,
    fuzz: (u64, u64, bool),
    flood_sent: u64,
    stall: (bool, bool, u64),
    protection: f64,
    times: &PhaseTimes,
    scrape: Option<&FloodScrape>,
) -> Json {
    let flood_rate = if times.flood_s > 0.0 {
        flood_sent as f64 / times.flood_s
    } else {
        0.0
    };
    let stall_qps = if times.stall_s > 0.0 {
        stall.2 as f64 / times.stall_s
    } else {
        0.0
    };
    let scrape_json = match scrape {
        Some(s) => Json::obj([
            ("scrapes", Json::num(s.scrapes as f64)),
            ("admit_rate", Json::num(s.admit_rate)),
            ("limited_rate", Json::num(s.limited_rate)),
            ("stage_rolling", Json::num(s.stage_rolling)),
            ("status_age_seen", Json::Bool(s.status_age_seen)),
        ]),
        None => Json::Null,
    };
    Json::obj([
        ("experiment", Json::str("e20_abuse")),
        ("fast_mode", Json::Bool(fast_mode())),
        ("shards", Json::num(sh.shards as f64)),
        ("legit_workers", Json::num(sh.workers as f64)),
        ("flood_sources", Json::num(sh.flood_sources as f64)),
        ("flood_datagrams", Json::num(flood_sent as f64)),
        ("fuzz_valid_queries", Json::num(fuzz.0 as f64)),
        ("fuzz_answered", Json::num(fuzz.1 as f64)),
        ("fuzz_probe_ok", Json::Bool(fuzz.2)),
        ("baseline_goodput", Json::num(goodput(base))),
        ("baseline_qps", Json::num(base.qps())),
        ("attack_goodput", Json::num(goodput(attack))),
        ("attack_qps", Json::num(attack.qps())),
        ("goodput_protection", Json::num(protection)),
        (
            "attack_rtt_p99_ns",
            Json::num(attack.rtt_ns.quantile(0.99) as f64),
        ),
        ("legit_kod", Json::num((base.kod + attack.kod) as f64)),
        (
            "containment_checks",
            Json::num((base.containment_checks + attack.containment_checks) as f64),
        ),
        (
            "containment_violations",
            Json::num((base.containment_violations + attack.containment_violations) as f64),
        ),
        ("server_rate_kod", Json::num(stats.rate_kod as f64)),
        ("server_dropped", Json::num(stats.dropped as f64)),
        ("server_evictions", Json::num(stats.evictions as f64)),
        ("server_malformed", Json::num(stats.malformed as f64)),
        ("server_ignored", Json::num(stats.ignored as f64)),
        ("stall_escalated", Json::Bool(stall.0)),
        ("stall_kod", Json::Bool(stall.1)),
        ("phase_fuzz_s", Json::num(times.fuzz_s)),
        ("phase_baseline_s", Json::num(times.baseline_s)),
        ("phase_flood_s", Json::num(times.flood_s)),
        ("phase_stall_s", Json::num(times.stall_s)),
        ("flood_rate_dps", Json::num(flood_rate)),
        ("stall_probes", Json::num(stall.2 as f64)),
        ("stall_qps", Json::num(stall_qps)),
        ("flood_scrape", scrape_json),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let metrics_addr: Option<SocketAddr> = args
        .windows(2)
        .find(|w| w[0] == "--metrics-addr")
        .map(|w| w[1].parse().expect("--metrics-addr wants ip:port"));
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    let sh = shape(smoke);

    // The endpoint is always bound under --smoke (the gate scrapes it
    // mid-flood); otherwise only when asked for. Short live windows so
    // rates show up within CI-sized phases.
    let endpoint_addr =
        metrics_addr.or_else(|| smoke.then(|| "127.0.0.1:0".parse().expect("loopback addr")));
    let telemetry = TelemetryConfig {
        obs: obs.clone(),
        metrics_addr: endpoint_addr,
        live: LiveConfig {
            window: Duration::from_millis(100),
            ..LiveConfig::default()
        },
        ..TelemetryConfig::default()
    };

    println!(
        "E20: goodput protection under abuse \
         ({} shards, {} legit workers vs {} flood sources)",
        sh.shards, sh.workers, sh.flood_sources
    );
    println!();

    // Simulation side: a healthy ensemble publishing into the cell. The
    // sim duration only needs to outlast phases 1–3; the stall phase
    // *wants* it over.
    let cell = Arc::new(StatusCell::new(sh.nodes));
    let mut cfg = with_duration(ClusterConfig::default_lan(sh.nodes, 0xE20), secs(600, 120));
    cfg.status_cell = Some(Arc::clone(&cell));
    let sim_stop = Arc::new(AtomicBool::new(false));
    let sim = sim_thread(cfg, Arc::clone(&sim_stop));

    // The attack scenario, declared as a fault plan: one long flood
    // episode; full mode also mangles ingress at a low rate.
    let attack_window = Duration::from_secs(3600);
    let mut plan = ServeFaultPlan::new().flood(Duration::ZERO, attack_window, sh.flood_sources);
    if !smoke {
        plan = plan.mangle_ingress(Duration::ZERO, attack_window, 0.002);
    }

    // Serving side: admission on. Budget sits well above the paced legit
    // rate (1/pace per worker) and well below what a flood source offers.
    let server = match Server::bind(
        &ServerConfig {
            shards: sh.shards,
            admission: Some(AdmissionConfig {
                rate_per_sec: 400,
                burst: 64,
                kod_per_sec: 4,
                kod_burst: 8,
                capacity: 4096,
                seed: 0xE20,
            }),
            faults: plan.clone(),
            fault_seed: 0xE20,
            telemetry,
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(&cell), 0),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("e20: cannot bind loopback sockets ({e}); skipping");
            sim_stop.store(true, Relaxed);
            let _ = sim.join();
            return;
        }
    };
    let targets: Vec<_> = server.local_addrs().to_vec();
    let running = server.start();
    while cell.read().publishes == 0 {
        std::thread::yield_now();
    }

    if let Some(addr) = running.metrics_addr() {
        println!("telemetry endpoint on {addr}");
    }

    // Phase 1: fuzz replay.
    let t_phase = Instant::now();
    let fuzz = fuzz_phase(targets[0]).expect("fuzz phase");
    let fuzz_s = t_phase.elapsed().as_secs_f64();
    println!(
        "fuzz: {} datagrams, {} valid queries, {} answered, probe {}",
        256,
        fuzz.0,
        fuzz.1,
        if fuzz.2 { "ok" } else { "FAILED" }
    );

    // Phase 2: baseline goodput, no attack.
    let t_phase = Instant::now();
    let base = legit_run(&sh, &targets);
    let baseline_s = t_phase.elapsed().as_secs_f64();
    println!(
        "baseline: {}/{} answered ({:.1}% goodput, {:.0} qps)",
        base.received,
        base.sent,
        100.0 * goodput(&base),
        base.qps()
    );

    // Phase 3: same load under flood. Sources and their traffic shapes
    // come from the plan's named RNG streams — rerunning the bench
    // replays the identical attack.
    let (_, _, sources) = plan.flood_episode().expect("plan has a flood");
    let t_phase = Instant::now();
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scrape_thread = running
        .metrics_addr()
        .map(|addr| flood_scraper(addr, Arc::clone(&scrape_stop)));
    let flood_stop = Arc::new(AtomicBool::new(false));
    let flood_sent = Arc::new(AtomicU64::new(0));
    let rng = SimRng::new(0xE20);
    let flooders: Vec<_> = (0..sources)
        .map(|i| {
            let stop = Arc::clone(&flood_stop);
            let sent = Arc::clone(&flood_sent);
            let target = targets[i % targets.len()];
            let mut src = FloodSource::new(&rng, i);
            let gap = sh.flood_gap;
            std::thread::spawn(move || {
                let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
                    return;
                };
                let mut buf = [0u8; 1200];
                while !stop.load(Relaxed) {
                    let (len, _shape) = src.next_datagram(&mut buf);
                    if sock.send_to(&buf[..len], target).is_ok() {
                        sent.fetch_add(1, Relaxed);
                    }
                    std::thread::sleep(gap);
                }
            })
        })
        .collect();
    let attack = legit_run(&sh, &targets);
    flood_stop.store(true, Relaxed);
    for f in flooders {
        let _ = f.join();
    }
    let flood_s = t_phase.elapsed().as_secs_f64();
    scrape_stop.store(true, Relaxed);
    let scrape = scrape_thread.map(|t| t.join().expect("flood scraper"));
    let flood_total = flood_sent.load(Relaxed);
    let protection = if goodput(&base) > 0.0 {
        goodput(&attack) / goodput(&base)
    } else {
        0.0
    };
    println!(
        "attack: {}/{} answered ({:.1}% goodput, {:.0} qps) under {} flood datagrams \
         — {:.1}% of baseline",
        attack.received,
        attack.sent,
        100.0 * goodput(&attack),
        attack.qps(),
        flood_total,
        100.0 * protection
    );

    if let Some(s) = &scrape {
        println!(
            "mid-flood scrape: {} fetches, admit rate {:.0}/s, RATE+drop rate {:.0}/s, \
             stage rolling {}, status age {}",
            s.scrapes,
            s.admit_rate,
            s.limited_rate,
            if s.stage_rolling > 0.0 {
                "populated"
            } else {
                "EMPTY"
            },
            if s.status_age_seen { "seen" } else { "MISSING" }
        );
    }

    let stats = running.stop();

    // Phase 4: wedge the sim, then watch a staleness-enabled server
    // degrade honestly.
    sim_stop.store(true, Relaxed);
    sim.join().expect("sim thread");
    let t_phase = Instant::now();
    let stall = stall_phase(&cell).expect("stall phase");
    let stall_s = t_phase.elapsed().as_secs_f64();
    println!(
        "stall: escalation {}, KoD XSTL {} ({} probes over {:.1}s)",
        if stall.0 { "seen" } else { "MISSING" },
        if stall.1 { "seen" } else { "MISSING" },
        stall.2,
        stall_s
    );

    let h = "metric                          value";
    header(h);
    println!("baseline goodput                {:.3}", goodput(&base));
    println!("attack goodput                  {:.3}", goodput(&attack));
    println!("goodput protection              {:.3}", protection);
    println!("flood datagrams                 {flood_total}");
    println!(
        "server rate-KoD / dropped       {}/{}",
        stats.rate_kod, stats.dropped
    );
    println!("admission evictions             {}", stats.evictions);
    println!(
        "malformed / foreign             {}/{}",
        stats.malformed, stats.ignored
    );
    println!(
        "legit containment (viol/checks) {}/{}",
        base.containment_violations + attack.containment_violations,
        base.containment_checks + attack.containment_checks
    );

    let times = PhaseTimes {
        fuzz_s,
        baseline_s,
        flood_s,
        stall_s,
    };
    let line = bench_json(
        &sh,
        &base,
        &attack,
        &stats,
        fuzz,
        flood_total,
        stall,
        protection,
        &times,
        scrape.as_ref(),
    );
    exit_on_record_error(append_bench("BENCH_serve.json", &line));
    record("e20_abuse", if smoke { "smoke" } else { "full" }, &line);
    exit_on_record_error(opts.finish(&obs));

    if smoke {
        let mut failures = Vec::new();
        if fuzz.1 > fuzz.0 {
            failures.push(format!(
                "fuzz: {} answers exceed {} valid queries — garbage was answered",
                fuzz.1, fuzz.0
            ));
        }
        if !fuzz.2 {
            failures.push("fuzz: server unresponsive after corpus replay".into());
        }
        if goodput(&base) < 0.9 {
            failures.push(format!(
                "baseline goodput {:.3} below 0.9 — can't gate protection",
                goodput(&base)
            ));
        }
        if protection < 0.8 {
            failures.push(format!(
                "goodput protection {protection:.3} below 0.8 under flood"
            ));
        }
        if base.kod + attack.kod > 0 {
            failures.push(format!(
                "{} KoD to well-behaved paced clients",
                base.kod + attack.kod
            ));
        }
        if base.containment_violations + attack.containment_violations > 0 {
            failures.push(format!(
                "{} containment violations on legit responses",
                base.containment_violations + attack.containment_violations
            ));
        }
        if stats.dropped == 0 && stats.rate_kod == 0 {
            failures.push("admission control never engaged against the flood".into());
        }
        if !stall.0 {
            failures.push("stalled sim never escalated the served stratum".into());
        }
        if !stall.1 {
            failures.push("stalled sim never flipped to KoD XSTL".into());
        }
        // Telemetry gates: the mid-flood scrapes must have seen the live
        // plane actually working.
        match &scrape {
            None => failures.push("telemetry endpoint did not bind under --smoke".into()),
            Some(s) => {
                if s.scrapes == 0 {
                    failures.push("telemetry endpoint never answered a mid-flood scrape".into());
                } else {
                    if s.admit_rate <= 0.0 {
                        failures.push("live admit (queries) rate never went positive".into());
                    }
                    if s.limited_rate <= 0.0 {
                        failures
                            .push("live RATE/drop rates never showed admission engaging".into());
                    }
                    if s.stage_rolling <= 0.0 {
                        failures.push("rolling stage quantiles never populated".into());
                    }
                    if !s.status_age_seen {
                        failures.push("status-age gauge missing from exposition".into());
                    }
                }
            }
        }
        if failures.is_empty() {
            println!(
                "\nsmoke: PASS (protection {protection:.3}, flood contained, stall degraded honestly)"
            );
        } else {
            for f in &failures {
                eprintln!("smoke FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
