//! Driving a cluster through its public calls, with a span around each:
//! `Cluster::new` (set-up), every `Cluster::advance_until` (one chunk of
//! simulated time) and `Cluster::finish`. When the configuration carries
//! an enabled observer, the layer counters the crates already register
//! are read out between the last advance and `finish`, so they cover
//! exactly the advance spans.

use nti_core::cluster::{Cluster, ClusterConfig, Report};
use nti_obs::{keys, MetricHandle, SimObserver};
use nti_simcore::{SimDuration, SimTime};
use std::time::Instant;

/// What one driven run measured.
pub struct Run {
    /// `Cluster::new` wall time.
    pub setup_s: f64,
    /// Wall time of each `advance_until` call, in call order.
    pub chunk_wall_s: Vec<f64>,
    /// Simulated seconds each of those calls covered.
    pub chunk_sim_s: Vec<f64>,
    /// `Cluster::finish` wall time (the rest of the configured duration,
    /// the report, and dropping the world).
    pub finish_s: f64,
    /// Layer counters, when the run was traced.
    pub counters: Option<Counters>,
    pub report: Report,
    /// `Report::to_json`, rendered: the bit-identity witness.
    pub report_json: String,
}

impl Run {
    /// Total wall time inside `advance_until`.
    pub fn advance_s(&self) -> f64 {
        self.chunk_wall_s.iter().sum()
    }

    /// Simulated seconds covered by the `advance_until` calls.
    pub fn sim_advanced_s(&self) -> f64 {
        self.chunk_sim_s.iter().sum()
    }

    /// Host seconds per simulated second of each chunk after the first
    /// simulated second. That second holds no CSP traffic (the first
    /// round's broadcasts start at 1 s), so it is not a sample of the
    /// steady per-second cost.
    pub fn wall_per_sim_s(&self) -> impl Iterator<Item = f64> + '_ {
        let mut covered = 0.0;
        self.chunk_wall_s
            .iter()
            .zip(&self.chunk_sim_s)
            .filter(move |(_, &sim)| {
                covered += sim;
                sim > 0.0 && covered > 1.0
            })
            .map(|(wall, sim)| wall / sim)
    }
}

/// Build the cluster, then call `advance_until(t)` for every `t` that
/// `next` yields (given the current simulation time) until it yields
/// `None`, then finish.
pub fn drive(cfg: ClusterConfig, mut next: impl FnMut(SimTime) -> Option<SimTime>) -> Run {
    let obs = cfg.obs.clone();
    let t = Instant::now();
    let mut cluster = Cluster::new(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    let mut chunk_wall_s = Vec::new();
    let mut chunk_sim_s = Vec::new();
    while let Some(until) = next(cluster.now()) {
        let from = cluster.now();
        let t = Instant::now();
        let now = cluster.advance_until(until);
        chunk_wall_s.push(t.elapsed().as_secs_f64());
        chunk_sim_s.push(now.saturating_since(from).as_secs_f64());
    }
    let counters = obs.is_enabled().then(|| Counters::read(&obs));
    let t = Instant::now();
    let (report, _metrics) = cluster.finish();
    let finish_s = t.elapsed().as_secs_f64();
    let report_json = report.to_json().to_string();
    Run {
        setup_s,
        chunk_wall_s,
        chunk_sim_s,
        finish_s,
        counters,
        report,
        report_json,
    }
}

/// A pacer that walks to the configured end in `chunk` steps.
pub fn chunked(cfg: &ClusterConfig, chunk: SimDuration) -> impl FnMut(SimTime) -> Option<SimTime> {
    let end = SimTime::ZERO + cfg.duration;
    move |now| (now < end).then(|| (now + chunk).min(end))
}

/// Time `Cluster::new` alone, `n` times (each cluster is dropped untimed).
pub fn setup_samples(cfg: &ClusterConfig, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let cfg = cfg.clone();
            let t = Instant::now();
            let cluster = Cluster::new(cfg);
            let s = t.elapsed().as_secs_f64();
            drop(cluster);
            s
        })
        .collect()
}

/// The layer counters of one traced run, summed over nodes and LANs.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub events_fired: u64,
    pub events_scheduled: u64,
    pub events_cancelled: u64,
    pub queue_depth_p50: u64,
    pub queue_depth_max: u64,
    pub handler_busy_ns: u64,
    pub triggers: u64,
    pub amort_starts: u64,
    /// Task dispatches on the receive path (`kernel/dispatch_ns` samples).
    pub dispatches: u64,
    /// Executive preemptions (`kernel/preemptions`; the cluster's condensed
    /// kernel model never registers the executive, so this reads 0).
    pub preemptions: u64,
    pub grants: u64,
    pub deferrals: u64,
    pub backoff_rounds: u64,
    pub status_publishes: u64,
    /// `cluster/csps_delivered` at read-out time (the same span as the
    /// engine counters).
    pub csps_delivered: u64,
}

impl Counters {
    /// Read every counter this benchmark uses from the observer's registry.
    pub fn read(obs: &SimObserver) -> Counters {
        let core = obs
            .core()
            .expect("counters are read from an enabled observer");
        let entries = core.registry.entries();
        let counter = |sub: &str, name: &str| -> u64 {
            entries
                .iter()
                .filter(|(k, _)| k.subsystem == sub && k.name == name)
                .map(|(_, h)| match h {
                    MetricHandle::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum()
        };
        let hist = |sub: &str, name: &str| core.registry.merged_hist(sub, name);
        let depth = hist(keys::ENGINE_SUBSYSTEM, "queue_depth");
        Counters {
            events_fired: counter(keys::ENGINE_SUBSYSTEM, "events_fired"),
            events_scheduled: counter(keys::ENGINE_SUBSYSTEM, "events_scheduled"),
            events_cancelled: counter(keys::ENGINE_SUBSYSTEM, "events_cancelled"),
            queue_depth_p50: depth.quantile(0.5),
            queue_depth_max: depth.max(),
            handler_busy_ns: hist(keys::ENGINE_SUBSYSTEM, "handler_busy_ns").sum(),
            triggers: counter("utcsu", "triggers"),
            amort_starts: counter("utcsu", "amort_starts"),
            dispatches: hist("kernel", "dispatch_ns").count(),
            preemptions: counter("kernel", "preemptions"),
            grants: counter("net", "grants"),
            deferrals: counter("net", "deferrals"),
            backoff_rounds: counter("net", "backoff_rounds"),
            status_publishes: counter("cluster", "status_publishes"),
            csps_delivered: counter("cluster", "csps_delivered"),
        }
    }
}
