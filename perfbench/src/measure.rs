//! One invocation's measurement plan, for each kind of workload.
//!
//! Both kinds measure their own half of the system for most of the run
//! and the other half briefly, so that every workload reports every
//! end-to-end metric: a sim workload also serves queries from its own
//! status frame, and the serve workload also runs its sim at full speed.

use crate::check::Checks;
use crate::layers::{self, Coverage, Shape};
use crate::record::Metric;
use crate::serverun::{self, ClientOut, Session};
use crate::simrun::{self, Run};
use crate::stats::median;
use crate::workloads::Workload;
use nti_core::cluster::ClusterConfig;
use nti_core::status::StatusCell;
use nti_obs::SimObserver;
use nti_serve::{StatsSnapshot, TelemetryConfig};
use nti_simcore::SimDuration;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Sim set-ups timed on their own before the measured repetitions.
const SIM_SETUPS: usize = 20;

/// Serving sessions set up and closed before the measured ones.
const SERVE_SETUPS: usize = 10;

/// Share of `--seconds` given to the workload's own half; the rest goes to
/// the other half.
const PRIMARY_SHARE: f64 = 0.8;

/// Wall seconds of one slice: the workload's own half for
/// `PRIMARY_SHARE` of it, then the other half. Short slices spread both
/// halves over the whole run: the box's contended spells last from 50 ms
/// to about 20 s. A sim workload serves only between two repetitions, so
/// that no cluster is alive meanwhile; its slices end at the first
/// repetition boundary past `SLICE_S` (on `lan128`, after every
/// repetition, about 3 s).
const SLICE_S: f64 = 2.0;

/// Sim chunk times are read at this low quantile. Co-tenants of the
/// 2-core VM slow the sim 1.6–2× in spells of up to about 20 s that cover
/// a third to a half of a run, so the median chunk of a run read one state
/// in one run and the other in the next. Nearly every run holds some
/// uncontended time, and its low tail reads that.
const FAST_QUANTILE: f64 = 0.01;

/// What one invocation asks for.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Plan {
    /// How many slices the run is cut into (at least one).
    fn slices(&self) -> usize {
        (self.seconds / SLICE_S).round().max(1.0) as usize
    }

    /// The workload's own half, per slice.
    fn primary_s(&self) -> f64 {
        self.seconds * PRIMARY_SHARE / self.slices() as f64
    }

    /// The other half, per slice.
    fn secondary_s(&self) -> f64 {
        self.seconds * (1.0 - PRIMARY_SHARE) / self.slices() as f64
    }

    /// The traced serving window (`--trace 1` only).
    fn traced_serving_s(&self) -> f64 {
        self.seconds * (1.0 - PRIMARY_SHARE)
    }
}

/// Everything one invocation measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    pub repetitions: Vec<(&'static str, usize)>,
    /// Σ(count × isolated ns) per sim layer (traced runs only).
    pub coverage: Option<Coverage>,
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Untraced full-speed repetitions in one-simulated-second chunks, added
/// to `reps` until `seconds` of wall time have gone into them (at least
/// one). Between two repetitions, once `every` seconds have gone into
/// them since the last call (and after the last repetition), `between`
/// is called with those seconds; its first error stops the loop.
fn repetitions(
    cfg: &ClusterConfig,
    seconds: f64,
    every: f64,
    reps: &mut Vec<Run>,
    mut between: impl FnMut(f64) -> io::Result<()>,
) -> io::Result<()> {
    let (mut spent, mut since) = (0.0, 0.0);
    loop {
        let t = Instant::now();
        let pace = simrun::chunked(cfg, SimDuration::from_secs(1));
        reps.push(simrun::drive(cfg.clone(), pace));
        let rep_s = t.elapsed().as_secs_f64();
        spent += rep_s;
        since += rep_s;
        let done = spent >= seconds;
        if since >= every || done {
            between(since)?;
            since = 0.0;
        }
        if done {
            return Ok(());
        }
    }
}

/// One traced full-speed run, in a single advance: checks chunking as well
/// as tracing against the untraced repetitions.
fn traced_rep(cfg: &ClusterConfig) -> Run {
    let mut cfg = cfg.clone();
    cfg.obs = SimObserver::enabled();
    let pace = simrun::chunked(&cfg, cfg.duration);
    simrun::drive(cfg, pace)
}

/// Check every run against the first: each report on its own, and
/// bit-identity with the first.
fn check_runs(checks: &mut Checks, what: &str, runs: &[&Run]) {
    let reference = &runs[0].report_json;
    for (i, run) in runs.iter().enumerate() {
        let label = format!("{what} #{i}");
        checks.report(&label, &run.report);
        if i > 0 {
            checks.identical(&label, reference, &run.report_json);
        }
    }
}

/// Every end-to-end metric but `ok_rate`, which waits for the last check.
fn end_to_end(o: &mut Outcome, reps: &[Run], setup: Vec<f64>, rss: f64, c: &ClientOut) {
    let wall = reps.iter().flat_map(Run::wall_per_sim_s).collect();
    let p50_us = c.window_rtt_p50_ns.iter().map(|ns| ns / 1e3).collect();
    o.metrics.extend([
        Metric::quantile("wall_per_sim_s", wall, FAST_QUANTILE),
        Metric::median("setup_s", setup),
        Metric::one("peak_rss_mb", rss),
        Metric::median("qps", c.window_qps.clone()),
        Metric::median("rtt_p50_us", p50_us),
    ]);
}

fn ok_rate(checks: &Checks) -> Metric {
    Metric::one("ok_rate", 1.0 - checks.error_rate())
}

/// Measure a sim workload.
pub fn sim(w: &Workload, plan: &Plan) -> io::Result<Outcome> {
    let cfg = (w.config)(plan.seed);
    let mut o = Outcome::default();
    let mut setup = simrun::setup_samples(&cfg, SIM_SETUPS);
    // The serve half answers from this workload's own status frame.
    let cell = serverun::published_cell(&cfg);
    let mut reps = Vec::new();
    let mut client = ClientOut::default();
    // Serve between repetitions, for the other half's share of the time
    // the sim took since the last slice: no cluster is alive meanwhile.
    let serve_slice = |sim_s: f64| {
        let seconds = sim_s * (1.0 - PRIMARY_SHARE) / PRIMARY_SHARE;
        let session = Session::fixed(&cell, TelemetryConfig::default())?;
        let served = serverun::closed_loop(session.target(), seconds, plan.seed, &mut client);
        session.close();
        served
    };
    let own_s = plan.seconds * PRIMARY_SHARE;
    repetitions(&cfg, own_s, plan.primary_s(), &mut reps, serve_slice)?;
    setup.extend(reps.iter().map(|r| r.setup_s));
    let rss = peak_rss_mb()?;
    let traced = traced_rep(&cfg);

    let mut runs: Vec<&Run> = reps.iter().collect();
    runs.push(&traced);
    check_runs(&mut o.checks, "sim run", &runs);
    o.checks.client("serve probe", &client);
    o.repetitions = vec![
        ("setup", setup.len()),
        ("sim_untraced", reps.len()),
        ("sim_traced", 1),
        ("serve_queries", client.sent as usize),
    ];
    end_to_end(&mut o, &reps, setup, rss, &client);

    if plan.trace {
        let probe = traced_probe(&cell, plan.traced_serving_s(), plan.seed)?;
        o.checks.client("traced serve probe", &probe.client);
        let advance = median(&reps.iter().map(Run::advance_s).collect::<Vec<_>>());
        let untraced = Untraced {
            wall_s: median_wall(&reps),
            advance_per_sim_s: advance / reps[0].sim_advanced_s(),
            client: &client,
        };
        layer_metrics(&mut o, &cfg, plan, &traced, &untraced, &probe);
        o.repetitions
            .push(("serve_queries_traced", probe.client.sent as usize));
    }
    o.metrics.push(ok_rate(&o.checks));
    Ok(o)
}

/// Measure the serve workload.
pub fn serve(w: &Workload, plan: &Plan) -> io::Result<Outcome> {
    let cfg = (w.config)(plan.seed);
    let mut o = Outcome::default();
    let mut setup = Vec::new();
    let mut sessions: Vec<Run> = Vec::new();
    for _ in 0..SERVE_SETUPS {
        let closed = Session::live(cfg.clone(), TelemetryConfig::default())?.close();
        setup.push(closed.setup_s);
        sessions.extend(closed.run);
    }
    // The sim half: the same cluster, publishing, at full speed.
    let mut publishing = cfg.clone();
    publishing.status_cell = Some(Arc::new(StatusCell::new(cfg.topology.node_count())));
    let mut measured = Vec::new();
    let mut reps = Vec::new();
    let mut client = ClientOut::default();
    for _ in 0..plan.slices() {
        let s = Session::live(cfg.clone(), TelemetryConfig::default())?;
        serverun::closed_loop(s.target(), plan.primary_s(), plan.seed, &mut client)?;
        let closed = s.close();
        setup.push(closed.setup_s);
        measured.extend(closed.run);
        repetitions(
            &publishing,
            plan.secondary_s(),
            f64::INFINITY,
            &mut reps,
            |_| Ok(()),
        )?;
    }
    let rss = peak_rss_mb()?;

    let (traced, traced_serving) = if plan.trace {
        let (run, probe) = traced_live(&cfg, plan.traced_serving_s(), plan.seed)?;
        o.checks.client("traced serve session", &probe.client);
        (run, Some(probe))
    } else {
        (traced_rep(&publishing), None)
    };

    let mut runs: Vec<&Run> = measured.iter().collect();
    runs.extend(sessions.iter());
    runs.extend(reps.iter());
    runs.push(&traced);
    check_runs(&mut o.checks, "sim run", &runs);
    o.checks.client("serve session", &client);
    o.repetitions = vec![
        ("setup", setup.len()),
        ("serve_queries", client.sent as usize),
        ("sim_untraced", reps.len()),
        ("sim_traced", 1),
    ];
    end_to_end(&mut o, &reps, setup, rss, &client);

    if let Some(probe) = traced_serving {
        let untraced = Untraced {
            wall_s: median_wall(&reps),
            advance_per_sim_s: median(
                &measured
                    .iter()
                    .map(|r| r.advance_s() / r.sim_advanced_s())
                    .collect::<Vec<_>>(),
            ),
            client: &client,
        };
        layer_metrics(&mut o, &cfg, plan, &traced, &untraced, &probe);
        o.repetitions
            .push(("serve_queries_traced", probe.client.sent as usize));
    }
    o.metrics.push(ok_rate(&o.checks));
    Ok(o)
}

/// A traced serving window: what the client saw and what the server's
/// telemetry recorded.
struct Probe {
    client: ClientOut,
    stats: StatsSnapshot,
    obs: SimObserver,
}

/// Serve from a fixed cell with every datagram timed.
fn traced_probe(cell: &Arc<StatusCell>, seconds: f64, seed: u64) -> io::Result<Probe> {
    let telemetry = serverun::traced_telemetry();
    let obs = telemetry.obs.clone();
    let session = Session::fixed(cell, telemetry)?;
    let mut client = ClientOut::default();
    serverun::closed_loop(session.target(), seconds, seed, &mut client)?;
    let stats = session.close().stats;
    Ok(Probe { client, stats, obs })
}

/// A live session with the sim traced and every datagram timed.
fn traced_live(cfg: &ClusterConfig, seconds: f64, seed: u64) -> io::Result<(Run, Probe)> {
    let mut cfg = cfg.clone();
    cfg.obs = SimObserver::enabled();
    let telemetry = serverun::traced_telemetry();
    let obs = telemetry.obs.clone();
    let session = Session::live(cfg, telemetry)?;
    let mut client = ClientOut::default();
    serverun::closed_loop(session.target(), seconds, seed, &mut client)?;
    let closed = session.close();
    let run = closed.run.expect("a live session has a sim");
    let stats = closed.stats;
    Ok((run, Probe { client, stats, obs }))
}

/// What the untraced runs contribute to the per-layer metrics.
struct Untraced<'a> {
    /// Median wall time of one full-speed repetition.
    wall_s: f64,
    /// Advance wall per simulated second, driven as the traced run was.
    advance_per_sim_s: f64,
    /// The untraced serving window (for the RTT tail).
    client: &'a ClientOut,
}

fn median_wall(reps: &[Run]) -> f64 {
    median(
        &reps
            .iter()
            .map(|r| r.advance_s() + r.finish_s)
            .collect::<Vec<_>>(),
    )
}

/// The per-layer metrics: counters of the traced `run`, spans around its
/// public calls, the isolation harness, and the traced serving window.
fn layer_metrics(
    o: &mut Outcome,
    cfg: &ClusterConfig,
    plan: &Plan,
    run: &Run,
    untraced: &Untraced,
    probe: &Probe,
) {
    let c = run
        .counters
        .clone()
        .expect("the traced run carries counters");
    let sim_s = run.sim_advanced_s();
    let shape = Shape::from_counters(cfg, &c, sim_s);
    let iso = layers::isolate(cfg, &shape, plan.seed);
    let advance_s = run.advance_s();
    let busy_s = c.handler_busy_ns as f64 * 1e-9;
    let (sent, delivered, dropped) = run.report.csps;

    let registry = &probe
        .obs
        .core()
        .expect("traced telemetry is enabled")
        .registry;
    let stage = |name: &str| registry.merged_hist("serve", name).quantile(0.5) as f64;
    let rtt_p50_us = probe.client.rtt_ns.quantile(0.5) as f64 / 1e3;
    let total_p50 = stage("stage_total_ns");

    let m = &mut o.metrics;
    let count = |v: u64| v as f64;
    m.extend([
        Metric::one("simcore.events_fired", count(c.events_fired)),
        Metric::one("simcore.events_scheduled", count(c.events_scheduled)),
        Metric::one("simcore.events_cancelled", count(c.events_cancelled)),
        Metric::one(
            "simcore.events_per_delivery",
            c.events_fired as f64 / c.csps_delivered.max(1) as f64,
        ),
        Metric::one("simcore.queue_depth_p50", count(c.queue_depth_p50)),
        Metric::one("simcore.queue_depth_max", count(c.queue_depth_max)),
        Metric::one("simcore.handler_busy_s", busy_s),
        Metric::one("simcore.dispatch_self_s", advance_s - busy_s),
        Metric::one("simcore.replay_ns_per_event", iso.replay_ns_per_event),
        Metric::one("utcsu.triggers", count(c.triggers)),
        Metric::one("utcsu.trigger_ns", iso.trigger_ns),
        Metric::one("utcsu.amort_starts", count(c.amort_starts)),
        Metric::one("utcsu.advance_ns", iso.advance_ns),
        Metric::one("nti.header_write_ns", iso.header_write_ns),
        Metric::one("netsim.plan_receive_ns", iso.plan_receive_ns),
        Metric::one("netsim.grants", count(c.grants)),
        Metric::one("netsim.deferrals", count(c.deferrals)),
        Metric::one("netsim.backoff_rounds", count(c.backoff_rounds)),
        Metric::one("netsim.grant_ns", iso.grant_ns),
        Metric::one("kernel.dispatches", count(c.dispatches)),
        Metric::one("kernel.preemptions", count(c.preemptions)),
        Metric::one("kernel.isr_path_ns", iso.isr_path_ns),
        Metric::one("core.cf_oa_ns", iso.cf_oa_ns),
        Metric::one("core.csps_sent", count(sent)),
        Metric::one("core.csps_delivered", count(delivered)),
        Metric::one("core.csps_dropped", count(dropped)),
        Metric::one("core.status_publishes", count(c.status_publishes)),
        Metric::one(
            "core.wall_us_per_delivery",
            untraced.wall_s / delivered.max(1) as f64 * 1e6,
        ),
        Metric::one("core.advance_s", advance_s),
        Metric::one("core.finish_s", run.finish_s),
        Metric::one("serve.stage_recv_ns_p50", stage("stage_recv_ns")),
        Metric::one("serve.stage_classify_ns_p50", stage("stage_classify_ns")),
        Metric::one("serve.stage_lookup_ns_p50", stage("stage_lookup_ns")),
        Metric::one("serve.stage_encode_ns_p50", stage("stage_encode_ns")),
        Metric::one("serve.stage_send_ns_p50", stage("stage_send_ns")),
        Metric::one("serve.stage_total_ns_p50", total_p50),
        Metric::one("serve.queries", count(probe.stats.queries)),
        Metric::one("serve.send_errors", count(probe.stats.send_errors)),
        Metric::one("serve.classify_ns", iso.classify_ns),
        Metric::one("serve.respond_ns", iso.respond_ns),
        Metric::one("serve.status_read_ns", iso.status_read_ns),
        Metric::one(
            "serve.rtt_p99_us",
            untraced.client.rtt_ns.quantile(0.99) as f64 / 1e3,
        ),
        Metric::one(
            "serve.rtt_p999_us",
            untraced.client.rtt_ns.quantile(0.999) as f64 / 1e3,
        ),
        Metric::one(
            "serve.rtt_outside_server_us_p50",
            rtt_p50_us - total_p50 / 1e3,
        ),
        Metric::one(
            "obs.traced_slowdown",
            (advance_s / sim_s.max(1e-9)) / untraced.advance_per_sim_s,
        ),
        Metric::one("error_rate", o.checks.error_rate()),
    ]);
    o.coverage = Some(Coverage::new(
        &shape,
        &c,
        &iso,
        cfg.cpld.header_len,
        advance_s,
    ));
}
