//! **E10 — WANs-of-LANs** (paper §1 footnote 2: "our approach can also be
//! adopted to more general topologies commonly known as WANs-of-LANs,
//! provided that all gateway nodes are also equipped with the NTI").
//!
//! Chains 1–4 Ethernet segments with NTI-equipped gateways (each gateway
//! drives one UTCSU SSU per attached segment — the reason the chip carries
//! six SSUs) and measures how precision degrades with hop count.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, exit_on_record_error, header, record, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_netsim::Topology;

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E10: WAN-of-LANs — precision vs segment count (NTI gateways)");
    println!();
    let h = format!(
        "{:<10} {:>7} {:>10} {:>14} {:>14} {:>12}",
        "segments", "nodes", "gateways", "prec worst", "prec mean", "containment"
    );
    header(&h);
    let mut per_hop = Vec::new();
    for lans in [1usize, 2, 3, 4] {
        let topo = Topology::chain_of_lans(lans, 3);
        let nodes = topo.node_count();
        let gateways = nodes - lans * 3;
        let mut cfg = with_duration(
            ClusterConfig::default_lan(0, 0xE10 + lans as u64),
            secs(60, 12),
        );
        cfg.topology = topo;
        cfg.rate_sync = true;
        // f = 0 here: with a single gateway per adjacency, the bridge node
        // is the only cross-segment information and must not be trimmed as
        // an "extreme" by the convergence function. Fault-tolerant
        // WAN-of-LANs operation needs f+1 redundant gateways per adjacency
        // (the same argument as for GPS anchors in E5).
        cfg.f = 0;
        cfg.obs = obs.clone();
        let rep = Cluster::new(cfg).run();
        record(
            "e10_wan_of_lans",
            &format!("{lans}_segments"),
            &rep.to_json(),
        );
        per_hop.push(rep.worst_precision_s);
        println!(
            "{:<10} {:>7} {:>10} {:>14} {:>14} {:>9}/{}",
            lans,
            nodes,
            gateways,
            eng(rep.worst_precision_s),
            eng(rep.mean_precision_s),
            rep.containment.0,
            rep.containment.1
        );
    }
    println!();
    println!(
        "degradation 1 -> 4 segments: {:.1}x (expected: roughly linear in hop count,",
        per_hop[3] / per_hop[0]
    );
    println!("each gateway adds one delay-compensation + drift-compensation stage).");
    exit_on_record_error(opts.finish(&obs));
}
