//! Uniform observability command-line handling for experiment binaries.
//!
//! Every experiment accepts:
//!
//! * `--obs-summary` — print the metric summary table (counters, gauges
//!   and the `p50/p90/p99/p999/max` histogram quantile lines) after the
//!   run;
//! * `--trace-out <path>` — export the structured trace; a `.json`
//!   extension produces Chrome `trace_event` format (open in
//!   `chrome://tracing` or Perfetto), anything else JSONL;
//! * `--trace-subsystems <spec>` — comma-separated subsystem filter
//!   (`engine,net,kernel,utcsu,cluster,gps,app,faults,serve` or `all`;
//!   default `all` when `--trace-out` is given).
//!
//! The experiment-owned mode flags (`--smoke`, `--no-telemetry`,
//! `--telemetry-gate`, `--metrics-addr <ip:port>`) are accepted and left to
//! the experiment. Anything else — an unknown argument, a flag missing its
//! value, an unknown trace subsystem — prints the usage and exits with
//! status 2.

use nti_obs::{SimObserver, Subsystem};
use std::io;
use std::path::PathBuf;

/// The flags every experiment accepts.
const USAGE: &str = "usage: <experiment> [--obs-summary] [--trace-out <path>] \
[--trace-subsystems <spec>] [--smoke] [--no-telemetry] [--telemetry-gate] \
[--metrics-addr <ip:port>]
  <spec>: comma-separated engine,net,kernel,utcsu,cluster,gps,app,faults,serve, or all";

/// Parsed observability options.
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// Print the metric summary table after the run.
    pub summary: bool,
    /// Export the trace to this path (format chosen by extension).
    pub trace_out: Option<PathBuf>,
    /// Subsystem enable mask for tracing.
    pub trace_mask: u32,
}

impl ObsOpts {
    /// Parse `std::env::args()` with [`ObsOpts::parse`]; on a parse error
    /// print it with the usage and exit with status 2.
    pub fn from_env() -> ObsOpts {
        ObsOpts::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parse the flags described in the module docs (without the program
    /// name).
    fn parse(args: impl IntoIterator<Item = String>) -> Result<ObsOpts, String> {
        let mut opts = ObsOpts {
            summary: false,
            trace_out: None,
            trace_mask: u32::MAX,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{arg} needs {what} argument"))
            };
            match arg.as_str() {
                "--obs-summary" => opts.summary = true,
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value("a path")?)),
                "--trace-subsystems" => {
                    let spec = value("a spec")?;
                    if let Some(part) = spec.split(',').map(str::trim).find(|part| {
                        !part.is_empty()
                            && !part.eq_ignore_ascii_case("all")
                            && !Subsystem::ALL
                                .iter()
                                .any(|s| part.eq_ignore_ascii_case(s.name()))
                    }) {
                        return Err(format!("unknown trace subsystem {part:?}"));
                    }
                    opts.trace_mask = Subsystem::mask_from_spec(&spec);
                }
                // Experiment-owned mode flags (e16_chaos, e18_churn,
                // e19/e20 telemetry).
                "--smoke" | "--no-telemetry" | "--telemetry-gate" => {}
                "--metrics-addr" => {
                    value("an ip:port")?;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Build the observer these options ask for: disabled when neither
    /// flag was given, metrics-only for `--obs-summary`, metrics + trace
    /// ring when `--trace-out` is set.
    pub fn observer(&self) -> SimObserver {
        match (&self.trace_out, self.summary) {
            (Some(_), _) => {
                SimObserver::with_trace(nti_obs::observer::DEFAULT_TRACE_CAPACITY, self.trace_mask)
            }
            (None, true) => SimObserver::enabled(),
            (None, false) => SimObserver::disabled(),
        }
    }

    /// Post-run reporting: print the summary table and/or write the trace
    /// file, as requested. A trace that cannot be written is an error
    /// naming the file; callers exit 1 on it through
    /// [`crate::exit_on_record_error`].
    pub fn finish(&self, obs: &SimObserver) -> io::Result<()> {
        if self.summary {
            println!();
            println!("== observability summary ==");
            print!("{}", obs.summary_table());
        }
        if let Some(path) = &self.trace_out {
            obs.export_trace(path)
                .map_err(|e| io::Error::new(e.kind(), format!("trace {}: {e}", path.display())))?;
            let n = obs.events().len();
            println!("trace: wrote {n} events to {}", path.display());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ObsOpts, String> {
        ObsOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_documented_flag() {
        let o = parse(&[
            "--obs-summary",
            "--trace-out",
            "t.jsonl",
            "--trace-subsystems",
            "cluster, utcsu",
            "--smoke",
            "--no-telemetry",
            "--telemetry-gate",
            "--metrics-addr",
            "127.0.0.1:9190",
        ])
        .expect("valid flags");
        assert!(o.summary);
        assert_eq!(o.trace_out, Some(PathBuf::from("t.jsonl")));
        assert_eq!(
            o.trace_mask,
            Subsystem::Cluster.bit() | Subsystem::Utcsu.bit()
        );
        assert_eq!(parse(&[]).unwrap().trace_mask, u32::MAX);
    }

    #[test]
    fn rejects_unknown_input() {
        let err = parse(&["--obs-sumary"]).unwrap_err();
        assert!(err.contains("--obs-sumary"), "{err}");
        let err = parse(&["--trace-subsystems", "cluster,netz"]).unwrap_err();
        assert!(err.contains("netz"), "{err}");
        assert!(parse(&["--trace-out"]).is_err());
        assert!(parse(&["--metrics-addr"]).is_err());
    }

    #[test]
    fn failed_trace_export_is_an_error() {
        let dir = std::env::temp_dir().join(format!("nti-obs-cli-{}", std::process::id()));
        let path = dir.join("missing").join("t.jsonl");
        let o = parse(&["--trace-out", path.to_str().expect("utf-8 path")]).expect("valid");
        let err = o.finish(&o.observer()).unwrap_err();
        assert!(err.to_string().contains("t.jsonl"), "{err}");
        assert!(!dir.exists(), "nothing created on the way");
    }
}
