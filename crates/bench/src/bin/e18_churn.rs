//! **E18 — churn harness**: sweep churn rate × congestion level × mesh
//! depth and report what the membership state machine guarantees under
//! each: nodes leave, rejoin and move between segments; congestion-marked
//! CSPs are discounted or discarded; holdover nodes free-run on honest
//! (widening) intervals — but containment among healthy nodes must hold
//! and every survivor must end the run `synchronized`.
//!
//! Every cell is one deterministic run on a fanout-2 mesh of LAN segments
//! (depth 1 = the paper's single Ethernet); results land in
//! `target/experiments/e18_churn.jsonl` and each cell appends one line to
//! the `BENCH_churn.json` trajectory.
//!
//! `--smoke`: one seeded light-churn run on a depth-2 mesh with congestion
//! discounting, asserting that every surviving node ends `synchronized`,
//! containment held, and rejoin recovery stayed within a bounded number of
//! rounds — plus a bit-identity check that an *empty* churn plan leaves
//! the report byte-for-byte identical to a churn-free configuration. Exits
//! non-zero on any violation — the CI gate in `scripts/check.sh`.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{
    append_bench, eng, exit_on_record_error, fast_mode, header, parallel_sweep, record, secs,
    with_duration,
};
use nti_core::cluster::{BgLoad, Cluster, ClusterConfig, Report};
use nti_core::CongestionPolicy;
use nti_faults::ChurnPlan;
use nti_netsim::Topology;
use nti_obs::{Json, SimObserver};
use nti_simcore::{SimDuration, SimTime};

/// Mesh depths under test (fanout-2 tree of LAN segments; depth 1 is a
/// single segment).
const DEPTHS: [usize; 3] = [1, 2, 3];
/// Churn intensities. `none` doubles as the bit-identity baseline.
const CHURN: [&str; 3] = ["none", "light", "heavy"];
/// Congestion handling: unmarked channel, ECN marks discounted (interval
/// widened 4x), ECN marks discarded.
const CONGESTION: [&str; 3] = ["ignore", "discount", "discard"];

/// Depth 1 keeps the paper's 6-node single segment; deeper meshes use two
/// ordinary nodes per segment plus one bridge gateway per parent-child
/// pair (depth 3 = 7 segments, 20 nodes).
fn topology(depth: usize) -> Topology {
    if depth == 1 {
        Topology::mesh_tree(1, 2, 6)
    } else {
        Topology::mesh_tree(depth, 2, 2)
    }
}

/// The churn window: the middle third of the run, leaving the final third
/// for reintegration to complete.
fn window(cfg: &ClusterConfig) -> (SimTime, SimTime) {
    let d = cfg.duration.as_fs();
    (SimTime::from_fs(d / 3), SimTime::from_fs(2 * (d / 3)))
}

/// Deterministic plan for a churn level. Only ordinary (non-gateway) nodes
/// churn — a bridge leaving would partition the mesh, which is E16's
/// territory. Outages are staggered so at most one node is down at a time
/// (plus the dark starter early on), keeping the cell inside the fault
/// hypothesis.
fn churn_plan(level: &str, topo: &Topology, from: SimTime, until: SimTime) -> ChurnPlan {
    let span = until.saturating_since(from);
    let at = |k: u128| from + SimDuration::from_fs(span.as_fs() / 4 * k);
    let last = topo.node_count() - topo.lan_count(); // last ordinary node
    match level {
        "none" => ChurnPlan::new(),
        "light" => ChurnPlan::new().leave(last, from).join(last, at(1)),
        "heavy" => {
            // Node 1 starts dark and joins cold; two staggered
            // leave-rejoin cycles; on a real mesh, node 2 roams to the
            // root segment.
            let mut plan = ChurnPlan::new()
                .join(1, from)
                .leave(last, from)
                .join(last, at(1))
                .leave(0, at(2))
                .join(0, at(3));
            if topo.lan_count() > 1 {
                plan = plan.move_to(2, at(2), 0);
            }
            plan
        }
        other => panic!("unknown churn level {other}"),
    }
}

/// Congestion dimension: beyond `ignore`, arm the ECN threshold and add
/// background traffic so CSPs genuinely queue behind data frames.
fn apply_congestion(cfg: &mut ClusterConfig, level: &str) {
    cfg.congestion = match level {
        "ignore" => CongestionPolicy::Ignore,
        "discount" => CongestionPolicy::Discount { widen_factor: 4 },
        "discard" => CongestionPolicy::Discard,
        other => panic!("unknown congestion level {other}"),
    };
    if level != "ignore" {
        cfg.medium.ecn_threshold = Some(SimDuration::from_micros(200));
        cfg.bg_load = Some(BgLoad {
            frames_per_sec: 40.0,
            frame_bytes: 700,
        });
    }
}

fn base_cfg(depth: usize, seed: u64) -> ClusterConfig {
    let mut cfg = with_duration(ClusterConfig::default_lan(0, seed), secs(30, 12));
    cfg.topology = topology(depth);
    cfg.rate_sync = true;
    // f = 0 on real meshes for the same reason as E10: a single bridge per
    // adjacency is the only cross-segment information and must not be
    // trimmed as an "extreme" by the convergence function.
    cfg.f = if depth == 1 { 1 } else { 0 };
    cfg
}

fn run_cell(
    depth: usize,
    churn: &'static str,
    congestion: &'static str,
    obs: &SimObserver,
) -> (String, Report) {
    let mut cfg = base_cfg(depth, 0xE18 + depth as u64);
    let (from, until) = window(&cfg);
    cfg.churn_plan = churn_plan(churn, &cfg.topology, from, until);
    apply_congestion(&mut cfg, congestion);
    cfg.obs = obs.clone();
    let label = format!("d{depth}/{churn}/{congestion}");
    (label, Cluster::new(cfg).run())
}

fn cell_json(rep: &Report) -> Json {
    Json::obj([
        ("worst_precision_s", Json::num(rep.worst_precision_s)),
        ("mean_alpha_s", Json::num(rep.mean_alpha_s)),
        (
            "containment_violations",
            Json::num(rep.containment.0 as f64),
        ),
        ("containment_checks", Json::num(rep.containment.1 as f64)),
        ("joins", Json::num(rep.membership.0 as f64)),
        ("leaves", Json::num(rep.membership.1 as f64)),
        ("moves", Json::num(rep.membership.2 as f64)),
        ("crashes", Json::num(rep.churn.0 as f64)),
        ("rejoins", Json::num(rep.churn.1 as f64)),
        (
            "rejoin_recoveries",
            Json::Arr(
                rep.rejoin_recoveries
                    .iter()
                    .map(|&r| Json::num(r as f64))
                    .collect(),
            ),
        ),
        (
            "final_states",
            Json::Arr(rep.final_states.iter().map(|&s| Json::str(s)).collect()),
        ),
        (
            "health_transitions",
            Json::num(rep.health_transitions as f64),
        ),
        ("holdover_rounds", Json::num(rep.holdover_rounds as f64)),
        ("csps_marked", Json::num(rep.congestion.0 as f64)),
        ("csps_discounted", Json::num(rep.congestion.1 as f64)),
        ("csps_discarded", Json::num(rep.congestion.2 as f64)),
    ])
}

fn bench_line(label: &str, rep: &Report) {
    exit_on_record_error(append_bench(
        "BENCH_churn.json",
        &Json::obj([
            ("experiment", Json::str("e18_churn")),
            ("label", Json::str(label)),
            ("fast_mode", Json::Bool(fast_mode())),
            ("result", cell_json(rep)),
        ]),
    ));
}

/// Count of nodes whose final state is `synchronized` / total nodes.
fn synced(rep: &Report) -> (usize, usize) {
    let n = rep.final_states.len();
    let s = rep
        .final_states
        .iter()
        .filter(|&&s| s == "synchronized")
        .count();
    (s, n)
}

/// Bit-identity: a config whose churn plan is explicitly empty must
/// produce a byte-for-byte identical report to the untouched (churn-free)
/// configuration, and the run must be deterministic under repetition.
fn empty_plan_identity() -> bool {
    let baseline = || {
        let mut cfg = base_cfg(1, 0xE18);
        cfg.obs = SimObserver::disabled();
        cfg
    };
    let plain = format!("{:?}", Cluster::new(baseline()).run());
    let mut cfg = baseline();
    cfg.churn_plan = ChurnPlan::new();
    cfg.congestion = CongestionPolicy::Ignore;
    let empty = format!("{:?}", Cluster::new(cfg).run());
    let again = format!("{:?}", Cluster::new(baseline()).run());
    plain == empty && plain == again
}

fn smoke(obs: &SimObserver) -> i32 {
    println!("E18 churn smoke: depth-2 mesh, light churn, congestion discounting");
    let (label, rep) = run_cell(2, "light", "discount", obs);
    let (s, n) = synced(&rep);
    let ok_states = s == n;
    let ok_containment = rep.containment.0 == 0;
    let ok_recovery = rep.rejoin_recoveries.len() == 1
        && rep.rejoin_recoveries.iter().all(|&r| (1..=8).contains(&r));
    println!(
        "  {label}: precision {}, containment {}/{}, churn {}/{}, recovery {:?}, states {s}/{n} synchronized",
        eng(rep.worst_precision_s),
        rep.containment.0,
        rep.containment.1,
        rep.churn.0,
        rep.churn.1,
        rep.rejoin_recoveries,
    );
    record("e18_churn", &format!("smoke/{label}"), &cell_json(&rep));
    bench_line(&format!("smoke/{label}"), &rep);
    let ok_identity = empty_plan_identity();
    println!(
        "  empty churn plan bit-identical to churn-free run: {}",
        if ok_identity { "ok" } else { "FAIL" }
    );
    println!();
    if ok_states && ok_containment && ok_recovery && ok_identity {
        println!("e18 smoke: all survivors synchronized, containment held, recovery bounded");
        0
    } else {
        println!(
            "e18 smoke FAILED: states {} containment {} recovery {} identity {}",
            ok_states, ok_containment, ok_recovery, ok_identity
        );
        1
    }
}

fn full_matrix(obs: &SimObserver) {
    println!("E18: churn matrix — mesh depth x churn x congestion policy");
    println!();
    let h = format!(
        "{:<22} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "depth/churn/policy",
        "nodes",
        "precision",
        "contain",
        "j/l/m",
        "holdover",
        "marks",
        "synced"
    );
    header(&h);
    let cells: Vec<(usize, &'static str, &'static str)> = DEPTHS
        .iter()
        .flat_map(|&d| {
            CHURN
                .iter()
                .flat_map(move |&c| CONGESTION.iter().map(move |&p| (d, c, p)))
        })
        .collect();
    let results = parallel_sweep(cells, |(d, c, p)| run_cell(d, c, p, obs));
    for (label, rep) in results {
        let (s, n) = synced(&rep);
        println!(
            "{:<22} {:>7} {:>12} {:>10} {:>9} {:>9} {:>9} {:>10}",
            label,
            n,
            eng(rep.worst_precision_s),
            format!("{}/{}", rep.containment.0, rep.containment.1),
            format!(
                "{}/{}/{}",
                rep.membership.0, rep.membership.1, rep.membership.2
            ),
            rep.holdover_rounds,
            rep.congestion.0,
            format!("{s}/{n}"),
        );
        record("e18_churn", &label, &cell_json(&rep));
        bench_line(&label, &rep);
    }
    println!();
    println!("reading: under light churn every node that leaves rejoins and re-shrinks");
    println!("its accuracy within a few rounds; heavy churn adds a cold (dark-start)");
    println!("joiner and a roaming node, and the mesh still converges because bridges");
    println!("never churn. Congestion marks appear once background traffic queues the");
    println!("channel; discounting keeps marked samples as (weak) containment evidence,");
    println!("discarding trades precision under load for immunity to queueing-delay");
    println!("asymmetry. Containment among healthy nodes must hold in every cell —");
    println!("holdover nodes free-run on honestly widening intervals and are checked");
    println!("by the dedicated holdover monitor.");
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    if std::env::args().any(|a| a == "--smoke") {
        let code = smoke(&obs);
        exit_on_record_error(opts.finish(&obs));
        std::process::exit(code);
    }
    full_matrix(&obs);
    exit_on_record_error(opts.finish(&obs));
}
