//! Metric names, the benchmark record with its provenance, and the
//! result line.

use crate::layers::Coverage;
use crate::stats::spread;
use nti_obs::Json;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::Path;
use std::process::Command;

/// End-to-end metrics (tracing off), with units. Every workload reports
/// every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_per_sim_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("qps", "1/s"),
    ("rtt_p50_us", "us"),
    ("ok_rate", "ratio"),
];

/// Per-layer metrics (from the traced run and the isolation harness),
/// with units. Every workload reports every one of them.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("simcore.events_fired", "count"),
    ("simcore.events_scheduled", "count"),
    ("simcore.events_cancelled", "count"),
    ("simcore.events_per_delivery", "ratio"),
    ("simcore.queue_depth_p50", "count"),
    ("simcore.queue_depth_max", "count"),
    ("simcore.handler_busy_s", "s"),
    ("simcore.dispatch_self_s", "s"),
    ("simcore.replay_ns_per_event", "ns"),
    ("utcsu.triggers", "count"),
    ("utcsu.trigger_ns", "ns"),
    ("utcsu.amort_starts", "count"),
    ("utcsu.advance_ns", "ns"),
    ("nti.header_write_ns", "ns"),
    ("netsim.plan_receive_ns", "ns"),
    ("netsim.grants", "count"),
    ("netsim.deferrals", "count"),
    ("netsim.backoff_rounds", "count"),
    ("netsim.grant_ns", "ns"),
    ("kernel.dispatches", "count"),
    ("kernel.preemptions", "count"),
    ("kernel.isr_path_ns", "ns"),
    ("core.cf_oa_ns", "ns"),
    ("core.csps_sent", "count"),
    ("core.csps_delivered", "count"),
    ("core.csps_dropped", "count"),
    ("core.status_publishes", "count"),
    ("core.wall_us_per_delivery", "us"),
    ("core.advance_s", "s"),
    ("core.finish_s", "s"),
    ("serve.stage_recv_ns_p50", "ns"),
    ("serve.stage_classify_ns_p50", "ns"),
    ("serve.stage_lookup_ns_p50", "ns"),
    ("serve.stage_encode_ns_p50", "ns"),
    ("serve.stage_send_ns_p50", "ns"),
    ("serve.stage_total_ns_p50", "ns"),
    ("serve.queries", "count"),
    ("serve.send_errors", "count"),
    ("serve.classify_ns", "ns"),
    ("serve.respond_ns", "ns"),
    ("serve.status_read_ns", "ns"),
    ("serve.rtt_p99_us", "us"),
    ("serve.rtt_p999_us", "us"),
    ("serve.rtt_outside_server_us_p50", "us"),
    ("obs.traced_slowdown", "ratio"),
    ("error_rate", "ratio"),
];

/// One measured metric: its reported value and the samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Every sample the value summarizes (one for a single measurement).
    pub samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(name: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            value: spread(&samples).median,
            samples,
        }
    }

    /// The `q`-quantile of `samples`.
    pub fn quantile(name: &'static str, samples: Vec<f64>, q: f64) -> Metric {
        Metric {
            name,
            value: crate::stats::quantile(&samples, q),
            samples,
        }
    }

    /// A single measurement.
    pub fn one(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: vec![value],
        }
    }
}

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What produced a record.
pub struct Provenance {
    pub commit: String,
    pub available_parallelism: usize,
    pub rustc: &'static str,
}

impl Provenance {
    pub fn collect() -> Provenance {
        Provenance {
            commit: git_commit(),
            available_parallelism: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
        }
    }
}

/// `HEAD` of the checkout the benchmark runs in, when it is a git
/// repository; exported source trees have no commit to report.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git rev-parse failed)".into())
}

/// One metric with its quartiles, for the record.
fn metric_json(m: &Metric) -> Json {
    let s = spread(&m.samples);
    Json::obj([
        ("value", Json::num(m.value)),
        ("unit", Json::str(unit_of(m.name).unwrap_or("?"))),
        ("median", Json::num(s.median)),
        ("q1", Json::num(s.q1)),
        ("q3", Json::num(s.q3)),
        ("samples", Json::num(m.samples.len() as f64)),
    ])
}

/// The full record of one invocation.
pub struct Record<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub provenance: &'a Provenance,
    /// Repetition counts by phase.
    pub repetitions: &'a [(&'static str, usize)],
    pub metrics: &'a [Metric],
    pub coverage: Option<&'a Coverage>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: &'a [String],
}

impl Record<'_> {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str("perfbench")),
            ("workload", Json::str(self.workload)),
            ("seed", Json::num(self.seed as f64)),
            ("seconds", Json::num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("commit", Json::str(self.provenance.commit.clone())),
            (
                "available_parallelism",
                Json::num(self.provenance.available_parallelism as f64),
            ),
            ("rustc", Json::str(self.provenance.rustc)),
            (
                "repetitions",
                Json::obj(
                    self.repetitions
                        .iter()
                        .map(|(k, n)| (*k, Json::num(*n as f64))),
                ),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| (m.name, metric_json(m)))),
            ),
            (
                "coverage_s",
                self.coverage.map_or(Json::Null, |c| {
                    let traced = ("traced_advance", c.traced_advance_s);
                    Json::obj(
                        c.layers
                            .iter()
                            .chain([&traced])
                            .map(|(k, v)| (*k, Json::num(*v))),
                    )
                }),
            ),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
        ])
    }

    /// Append the record as one JSON line to `path`, creating its
    /// directory. Any I/O error is returned, never swallowed.
    pub fn append_to(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{}", self.to_json())?;
        f.sync_all()
    }
}

/// The last line of standard output: the result the benchmark contract
/// asks for, with the metrics of one table.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        out.push((
            *name,
            Json::obj([("value", Json::num(m.value)), ("unit", Json::str(*unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", Json::obj(out)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program produces, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let own: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let metrics = vec![Metric::one("qps", 1.5)];
        assert!(result_line(true, 1, 0, &END_TO_END, &metrics).is_err());
        let line = result_line(true, 1, 0, &[("qps", "1/s")], &metrics).expect("complete");
        assert_eq!(
            line,
            r#"{"attempted":1,"correct":true,"failed":0,"metrics":{"qps":{"unit":"1/s","value":1.5}}}"#
        );
    }

    #[test]
    fn a_record_write_error_is_reported() {
        let rec = Record {
            workload: "lan128",
            seed: 1,
            seconds: 1,
            trace: false,
            provenance: &Provenance::collect(),
            repetitions: &[],
            metrics: &[],
            coverage: None,
            attempted: 1,
            failed: 0,
            failures: &[],
        };
        // A path below a regular file cannot be created.
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let bad = Path::new(file).join("record.jsonl");
        assert!(rec.append_to(&bad).is_err());
    }
}
