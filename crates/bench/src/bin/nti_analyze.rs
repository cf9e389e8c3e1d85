//! **nti-analyze** — offline reporting over exported span traces.
//!
//! Reads one or more JSONL trace files (the `--trace-out foo.jsonl` output
//! of any experiment binary), reconstructs the causal span forest of every
//! CSP's send → trigger → wire → trigger → latch → interrupt → ISR →
//! accept pipeline, and prints:
//!
//! * forest health (span/root counts, orphans, duplicate ids);
//! * a per-hop latency table (count, mean, p50, p99, max per hop kind);
//! * the critical-path summary: end-to-end pipeline latency and the
//!   stamp-pair delay ε, with the telescoping check that the `wire` and
//!   `rcv_trigger` hop durations sum **exactly** to the observed ε of
//!   each accepted CSP;
//! * the invariant-monitor violation counts found in the trace.
//!
//! Machine-readable results accrete one line per invocation in
//! `target/experiments/BENCH_obs.json`, and a compact per-hop p99 line is
//! appended to the `BENCH_precision.json` trajectory shared with
//! `e1_epsilon` / `e9_sixteen_nodes`.
//!
//! `--smoke`: self-contained CI gate — runs a traced nominal 4-node
//! cluster in-process and asserts the forest is connected and
//! violation-free, then injects a saturating 2 ms late-trigger fault and
//! asserts the trigger-latency monitor fires. Exits non-zero on failure.

use nti_bench::{append_bench, eng, exit_on_record_error, header};
use nti_core::cluster::{Cluster, ClusterConfig, SPAN_HOPS};
use nti_faults::{FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_obs::quantile::percentile_sorted;
use nti_obs::{records_from_events, Json, Payload, SimObserver, SpanForest, SpanRecord, Subsystem};
use nti_simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Latency statistics over one hop kind, in nanoseconds.
struct Stats {
    count: usize,
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    max_ns: f64,
}

fn stats(durs_fs: &[u128]) -> Stats {
    if durs_fs.is_empty() {
        return Stats {
            count: 0,
            mean_ns: 0.0,
            p50_ns: 0.0,
            p99_ns: 0.0,
            max_ns: 0.0,
        };
    }
    let mut ns: Vec<f64> = durs_fs.iter().map(|&d| d as f64 / 1e6).collect();
    ns.sort_by(f64::total_cmp);
    Stats {
        count: ns.len(),
        mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
        p50_ns: percentile_sorted(&ns, 50.0),
        p99_ns: percentile_sorted(&ns, 99.0),
        max_ns: ns[ns.len() - 1],
    }
}

fn stats_json(s: &Stats) -> Json {
    Json::obj([
        ("count", Json::num(s.count as f64)),
        ("mean_ns", Json::num(s.mean_ns)),
        ("p50_ns", Json::num(s.p50_ns)),
        ("p99_ns", Json::num(s.p99_ns)),
        ("max_ns", Json::num(s.max_ns)),
    ])
}

/// Everything the report prints, computed once from the span records and
/// the violation counts found alongside them.
struct Analysis {
    forest: SpanForest,
    /// Per-kind latency stats, pipeline hops first, then any extra kinds
    /// (fault annotations, app spans) alphabetically.
    hops: Vec<(String, Stats)>,
    /// Accept chains examined / of those, chains walking all eight hops.
    chains: usize,
    complete: usize,
    /// Chains where `wire.dur + rcv_trigger.dur != ε` (must be 0).
    telescope_mismatches: usize,
    /// End-to-end pipeline latency (csp_send start → accept).
    e2e: Stats,
    /// Stamp-pair delay ε (transmit trigger → receive trigger).
    eps: Stats,
    violations: BTreeMap<String, u64>,
}

fn analyze(records: Vec<SpanRecord>, violations: BTreeMap<String, u64>) -> Analysis {
    let forest = SpanForest::build(records);
    let by_kind = forest.durations_by_kind();
    let mut hops: Vec<(String, Stats)> = SPAN_HOPS
        .iter()
        .map(|&k| (k.to_string(), stats(by_kind.get(k).map_or(&[][..], |v| v))))
        .collect();
    for (kind, durs) in &by_kind {
        if !SPAN_HOPS.contains(&kind.as_str()) {
            hops.push((kind.clone(), stats(durs)));
        }
    }

    let mut e2e_fs = Vec::new();
    let mut eps_fs = Vec::new();
    let (mut chains, mut complete, mut telescope_mismatches) = (0usize, 0usize, 0usize);
    for id in forest.ids_of_kind("accept") {
        chains += 1;
        let chain = forest.chain_to_root(id);
        let find = |k: &str| chain.iter().find(|r| r.kind == k);
        let (Some(accept), Some(root)) = (find("accept"), find("csp_send")) else {
            continue;
        };
        e2e_fs.push(accept.end_fs.saturating_sub(root.start_fs()));
        let (Some(xmit), Some(wire), Some(rcv)) =
            (find("xmit_trigger"), find("wire"), find("rcv_trigger"))
        else {
            continue;
        };
        let eps = rcv.end_fs.saturating_sub(xmit.end_fs);
        eps_fs.push(eps);
        if wire.dur_fs + rcv.dur_fs != eps {
            telescope_mismatches += 1;
        }
        if chain.len() == SPAN_HOPS.len()
            && chain
                .iter()
                .rev()
                .zip(SPAN_HOPS.iter())
                .all(|(r, &k)| r.kind == k)
        {
            complete += 1;
        }
    }

    Analysis {
        forest,
        hops,
        chains,
        complete,
        telescope_mismatches,
        e2e: stats(&e2e_fs),
        eps: stats(&eps_fs),
        violations,
    }
}

fn print_analysis(source: &str, a: &Analysis) {
    println!("== {source} ==");
    println!(
        "forest: {} spans, {} roots, {} orphans, {} duplicate ids — {}",
        a.forest.len(),
        a.forest.roots().len(),
        a.forest.orphans().len(),
        a.forest.duplicates(),
        if a.forest.is_well_formed() {
            "well-formed"
        } else {
            "NOT well-formed"
        }
    );
    println!();
    let h = format!(
        "{:<22} {:>7} {:>11} {:>11} {:>11} {:>11}",
        "hop", "count", "mean", "p50", "p99", "max"
    );
    header(&h);
    for (kind, s) in &a.hops {
        println!(
            "{:<22} {:>7} {:>11} {:>11} {:>11} {:>11}",
            kind,
            s.count,
            eng(s.mean_ns * 1e-9),
            eng(s.p50_ns * 1e-9),
            eng(s.p99_ns * 1e-9),
            eng(s.max_ns * 1e-9),
        );
    }
    println!();
    println!(
        "critical path: {} accept chains, {} complete (all {} hops), \
         {} telescoping mismatches",
        a.chains,
        a.complete,
        SPAN_HOPS.len(),
        a.telescope_mismatches
    );
    println!(
        "  end-to-end (send start -> accept): mean {}  p99 {}  max {}",
        eng(a.e2e.mean_ns * 1e-9),
        eng(a.e2e.p99_ns * 1e-9),
        eng(a.e2e.max_ns * 1e-9),
    );
    println!(
        "  stamp-pair delay eps (trigger -> trigger): mean {}  p99 {}  max {}",
        eng(a.eps.mean_ns * 1e-9),
        eng(a.eps.p99_ns * 1e-9),
        eng(a.eps.max_ns * 1e-9),
    );
    println!("  (eps decomposes exactly as wire + rcv_trigger hop durations)");
    println!();
    if a.violations.is_empty() {
        println!("violations: none recorded in trace");
    } else {
        println!("violations:");
        for (kind, n) in &a.violations {
            println!("  {kind:<24} {n}");
        }
    }
    println!();
}

fn analysis_json(source: &str, a: &Analysis) -> Json {
    Json::obj([
        ("tool", Json::str("nti_analyze")),
        ("source", Json::str(source)),
        ("spans", Json::num(a.forest.len() as f64)),
        ("orphans", Json::num(a.forest.orphans().len() as f64)),
        ("well_formed", Json::Bool(a.forest.is_well_formed())),
        ("chains", Json::num(a.chains as f64)),
        ("chains_complete", Json::num(a.complete as f64)),
        (
            "telescope_mismatches",
            Json::num(a.telescope_mismatches as f64),
        ),
        ("e2e", stats_json(&a.e2e)),
        ("eps", stats_json(&a.eps)),
        (
            "hops",
            Json::obj(a.hops.iter().map(|(k, s)| (k.clone(), stats_json(s)))),
        ),
        (
            "violations",
            Json::obj(
                a.violations
                    .iter()
                    .map(|(k, &n)| (k.clone(), Json::num(n as f64))),
            ),
        ),
    ])
}

/// Record the analysis in the machine-readable trajectories: the full
/// report in `BENCH_obs.json`, the per-hop p99 line in
/// `BENCH_precision.json`.
fn record_analysis(source: &str, a: &Analysis) {
    exit_on_record_error(append_bench("BENCH_obs.json", &analysis_json(source, a)));
    exit_on_record_error(append_bench(
        "BENCH_precision.json",
        &Json::obj([
            ("tool", Json::str("nti_analyze")),
            ("source", Json::str(source)),
            ("eps_p99_ns", Json::num(a.eps.p99_ns)),
            (
                "hop_p99_ns",
                Json::obj(
                    a.hops
                        .iter()
                        .filter(|(k, _)| SPAN_HOPS.contains(&k.as_str()))
                        .map(|(k, s)| (k.clone(), Json::num(s.p99_ns))),
                ),
            ),
        ]),
    ));
}

/// Parse one exported JSONL trace file into span records + violation
/// counts (the monitor's `viol_*` counter samples ride the same trace).
fn parse_jsonl(text: &str) -> (Vec<SpanRecord>, BTreeMap<String, u64>) {
    let mut records = Vec::new();
    let mut violations = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(j) = Json::parse(line) else { continue };
        if let Some(r) = SpanRecord::from_json(&j) {
            records.push(r);
        } else if let Some(kind) = j.get("kind").and_then(Json::as_str) {
            if kind.starts_with("viol_") && j.get("value").is_some() {
                *violations.entry(kind.to_string()).or_insert(0) += 1;
            }
        }
    }
    (records, violations)
}

fn analyze_files(paths: &[String]) -> i32 {
    let mut code = 0;
    for path in paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("nti_analyze: cannot read {path}: {e}");
                code = 1;
                continue;
            }
        };
        let (records, violations) = parse_jsonl(&text);
        if records.is_empty() {
            eprintln!("nti_analyze: {path}: no span records (is this a JSONL trace?)");
            code = 1;
            continue;
        }
        let a = analyze(records, violations);
        print_analysis(path, &a);
        record_analysis(path, &a);
    }
    code
}

/// Subsystems whose spans make up the CSP pipeline (the engine's
/// per-event firehose would overflow the ring without adding hops).
fn span_mask() -> u32 {
    Subsystem::Cluster.bit()
        | Subsystem::Net.bit()
        | Subsystem::Kernel.bit()
        | Subsystem::Utcsu.bit()
        | Subsystem::Faults.bit()
}

fn traced_run(cfg: ClusterConfig) -> (Analysis, u64) {
    let obs = cfg.obs.clone();
    let rep = Cluster::new(cfg).run();
    let events = obs.events();
    let mut violations = BTreeMap::new();
    for ev in &events {
        if matches!(ev.payload, Payload::Value { .. }) && ev.kind.starts_with("viol_") {
            *violations.entry(ev.kind.to_string()).or_insert(0) += 1;
        }
    }
    (
        analyze(records_from_events(&events), violations),
        rep.monitor_violations,
    )
}

fn smoke_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(4, seed);
    cfg.duration = SimDuration::from_secs(8);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.obs = SimObserver::with_trace(1 << 20, span_mask());
    cfg
}

fn smoke() -> i32 {
    println!("nti-analyze smoke: traced nominal run, then injected late triggers");
    println!();
    let mut failed = false;
    let mut check = |name: &str, ok: bool| {
        println!("  {:<52} {}", name, if ok { "ok" } else { "FAIL" });
        failed |= !ok;
    };

    let (a, viols) = traced_run(smoke_cfg(42));
    print_analysis("nominal 4-node traced run", &a);
    check(
        "span forest well-formed, no orphans",
        a.forest.is_well_formed(),
    );
    check("accept chains found", a.chains > 0);
    check(
        "every accept chain walks all eight hops",
        a.complete == a.chains,
    );
    check(
        "per-hop decomposition sums to eps on every chain",
        a.telescope_mismatches == 0,
    );
    check("nominal run raises zero violations", viols == 0);
    record_analysis("smoke/nominal", &a);

    let mut cfg = smoke_cfg(42);
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(4),
        until: SimTime::from_secs(6),
        target: FaultTarget::Node(2),
        kind: FaultKind::LateTrigger {
            rate: 1.0,
            delay: SimDuration::from_millis(2),
        },
    });
    let (b, viols) = traced_run(cfg);
    check("late-trigger run raises violations", viols >= 1);
    check(
        "trigger-latency monitor fired",
        b.violations
            .get("viol_trigger_latency")
            .copied()
            .unwrap_or(0)
            >= 1,
    );
    check(
        "fault annotations keep the forest connected",
        b.forest.is_well_formed(),
    );
    record_analysis("smoke/late_trigger", &b);

    println!();
    if failed {
        println!("nti_analyze smoke: FAILED");
        1
    } else {
        println!("nti_analyze smoke: span pipeline connected, monitors armed");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    if args.is_empty() {
        eprintln!("usage: nti_analyze <trace.jsonl>...   (or --smoke)");
        eprintln!("produce traces with any experiment's --trace-out <path.jsonl>");
        std::process::exit(2);
    }
    std::process::exit(analyze_files(&args));
}
