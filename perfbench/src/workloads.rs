//! The three workloads, as configurations generated from the seed.

use nti_core::cluster::ClusterConfig;
use nti_netsim::topology::Topology;
use nti_simcore::SimDuration;

/// Simulated span of one sim-workload repetition (the ROADMAP baseline
/// shape: 20 s of simulated time).
pub const SIM_SECONDS: u64 = 20;

/// Which half of the system a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A cluster simulation run at full speed, repetition after repetition.
    Sim,
    /// `nti-serve` answering real NTP queries from a live, real-time sim.
    Serve,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// The cluster the workload runs (the serve workload's sim side).
    pub config: fn(u64) -> ClusterConfig,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lan128",
        kind: Kind::Sim,
        config: lan128,
    },
    Workload {
        name: "wan_8x8",
        kind: Kind::Sim,
        config: wan_8x8,
    },
    Workload {
        name: "serve_lan8",
        kind: Kind::Serve,
        config: serve_lan8,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// 128 nodes on one LAN at `default_lan`'s own 2 ms broadcast stagger:
/// the N² fan-out, 127 receptions per CSP. (The wider 500 ms / 128
/// stagger loses containment on some seeds; see the crate docs.)
pub fn lan128(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(128, seed);
    cfg.duration = SimDuration::from_secs(SIM_SECONDS);
    cfg
}

/// `lan128` with its broadcasts spread over half a round (500 ms / 128):
/// the shape that loses containment (see the crate docs).
#[cfg(test)]
pub fn lan128_wide_stagger(seed: u64) -> ClusterConfig {
    let mut cfg = lan128(seed);
    cfg.stagger = SimDuration::from_fs(SimDuration::from_millis(500).as_fs() / 128);
    cfg
}

/// The E10 WAN-of-LANs settings at 8 segments of 8 nodes (71 nodes with
/// the 7 gateways): rate synchronization on, `f = 0`, default 2 ms stagger.
pub fn wan_8x8(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(0, seed);
    cfg.topology = Topology::chain_of_lans(8, 8);
    cfg.rate_sync = true;
    cfg.f = 0;
    cfg.duration = SimDuration::from_secs(SIM_SECONDS);
    cfg
}

/// The default 8-node LAN the serve workload answers from. Its duration
/// covers any run length the command line allows (60 s) with margin; the
/// part the real-time sim has not reached when serving stops is finished
/// at full speed.
pub fn serve_lan8(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(8, seed);
    cfg.duration = SimDuration::from_secs(90);
    cfg
}
