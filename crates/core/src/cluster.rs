//! Full-cluster assembly: wires nodes, mediums and the event engine into a
//! runnable synchronization experiment.
//!
//! A [`Cluster`] owns a discrete-event [`Engine`] over a [`World`] holding
//! all nodes, LAN segments and in-flight frames, and reproduces the whole
//! CSP life cycle of Section 3.1:
//!
//! ```text
//! duty timer kP ──► CSP assembly (step 1, software stamp here in SW mode)
//!   ──► COMCO command (2) ──► medium access (3) ──► DMA header reads (4)
//!       [read of 0x14 ⇒ TRANSMIT trigger; 0x18/0x20 mapped into packet]
//!   ──► wire ──► per-receiver DMA header writes (5)
//!       [write of 0x1C ⇒ RECEIVE trigger + header-base latch]
//!   ──► packet interrupt (6) ──► ISR + task dispatch (7, SW stamp here)
//!   ──► preprocessing; at kP+Δ the convergence function + enforcement
//! ```
//!
//! The timestamping mode selects which pair of events provides the stamps,
//! which is exactly the paper's software / interrupt-driven / NTI ablation.
//! Everything else (GPS validation, rate synchronization, background load,
//! HWSNAP-based precision snapshots) hangs off the same engine.

use crate::algo::{CongestionPolicy, ReceivedCsp, SyncCore};
use crate::health::{HealthConfig, HealthState, HealthTracker, RoundAction, HEALTH_STATES};
use crate::interval::AccInterval;
use crate::node::{quant_units_for, Node, UTCSU_QUANT_UNITS};
use crate::params::{
    delay_bounds_hardware, delay_bounds_interrupt_rx, delay_bounds_software, AlgoKind, SyncParams,
    TimestampMode,
};
use crate::payload::{CspPayload, CSP_PAYLOAD_LEN};
use crate::rate::RateSync;
use crate::status::{ClusterStatus, NodeStatus, StatusCell};
use crate::validate::{gps_observation, validate, ValidationStats};
use nti_faults::{ChurnEvent, ChurnKind, ChurnPlan, FaultInjector, FaultPlan};
use nti_gps::{GpsConfig, GpsFault, GpsReceiver};
use nti_kernel::{ComcoDriver, Interface, Kernel, KernelConfig};
use nti_module::{CpldConfig, Nti, UTCSU_BASE};
use nti_netsim::{Comco, ComcoTiming, Frame, Medium, MediumConfig, Topology};
use nti_obs::{
    fs_to_ns, Counter, Gauge, Histogram, MetricKey, MonitorConfig, Monitors, SimObserver, SpanId,
    Subsystem, GLOBAL_NODE,
};
use nti_simcore::ntp::{NtpTime, FRAC_BITS, NTP_FRAC_BITS};
use nti_simcore::time::{SimDuration, SimTime};
use nti_simcore::{Accuracy, Engine, Oscillator, SimRng, Summary};
use nti_utcsu::regs as uregs;
use nti_utcsu::{IntSource, UtcsuConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

/// Oscillator population model.
#[derive(Clone, Copy, Debug)]
pub enum DriftSpec {
    /// All oscillators perfect (unit tests, lower bounds).
    Perfect,
    /// Each node draws a constant drift uniformly from ±`rho_max_ppm`.
    ConstantSpread {
        /// Drift bound in ppm.
        rho_max_ppm: f64,
    },
    /// Bounded random walk per node.
    RandomWalk {
        /// Drift bound in ppm.
        rho_max_ppm: f64,
        /// Walk step sigma in ppb.
        sigma_ppb: f64,
        /// Walk step interval.
        interval: SimDuration,
    },
    /// Temperature-cycled TCXOs: sinusoidal drift with per-node random
    /// phase (a rack warming and cooling).
    Temperature {
        /// Mean drift in ppm (population-wide spread applied per node).
        mean_ppm: f64,
        /// Sinusoidal amplitude in ppm.
        amp_ppm: f64,
        /// Temperature-cycle period.
        period: SimDuration,
    },
}

impl DriftSpec {
    fn build(&self, rng: &mut SimRng, fosc: u64, osc_rng: SimRng) -> Oscillator {
        // Small random start phase: the oscillators are unsynchronized.
        let phase = SimTime::from_fs(rng.below(1_000_000_000) as u128); // < 1 us
        let model = match *self {
            DriftSpec::Perfect => nti_simcore::DriftModel::perfect(),
            DriftSpec::ConstantSpread { rho_max_ppm } => nti_simcore::DriftModel::Constant {
                rho_ppm: rng.uniform(-rho_max_ppm, rho_max_ppm),
            },
            DriftSpec::RandomWalk {
                rho_max_ppm,
                sigma_ppb,
                interval,
            } => nti_simcore::DriftModel::RandomWalk {
                rho_max_ppm,
                step_sigma_ppb: sigma_ppb,
                step_interval: interval,
                initial_ppm: rng.uniform(-rho_max_ppm, rho_max_ppm),
            },
            DriftSpec::Temperature {
                mean_ppm,
                amp_ppm,
                period,
            } => nti_simcore::DriftModel::Temperature {
                mean_ppm: rng.uniform(-mean_ppm, mean_ppm),
                amp_ppm,
                period,
                phase: rng.uniform(0.0, std::f64::consts::TAU),
                step_interval: SimDuration::from_fs(period.as_fs() / 64),
            },
        };
        Oscillator::new(fosc, model, osc_rng, phase)
    }

    /// The worst-case drift bound of the population.
    pub fn rho_bound_ppm(&self) -> f64 {
        match *self {
            DriftSpec::Perfect => 0.0,
            DriftSpec::ConstantSpread { rho_max_ppm } => rho_max_ppm,
            DriftSpec::RandomWalk { rho_max_ppm, .. } => rho_max_ppm,
            DriftSpec::Temperature {
                mean_ppm, amp_ppm, ..
            } => mean_ppm.abs() + amp_ppm.abs(),
        }
    }
}

/// GPS attachment of one node.
#[derive(Clone, Debug)]
pub struct GpsNodeCfg {
    /// The node carrying the receiver.
    pub node: usize,
    /// Receiver characteristics.
    pub cfg: GpsConfig,
    /// Injected fault episodes.
    ///
    /// Deprecated shim: equivalent to `FaultKind::Gps` episodes in the
    /// fault plan — prefer `FaultPlan::gps`.
    pub faults: Vec<GpsFault>,
}

/// Background (NI) traffic occupying the medium and the kernel.
#[derive(Clone, Copy, Debug)]
pub struct BgLoad {
    /// Mean frames per second per node (Poisson).
    pub frames_per_sec: f64,
    /// Frame payload size.
    pub frame_bytes: usize,
}

/// Everything needed to run a cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Segment membership.
    pub topology: Topology,
    /// Root seed; every stochastic element derives from it.
    pub seed: u64,
    /// Oscillator frequency (1…20 MHz).
    pub fosc_hz: u64,
    /// Oscillator population.
    pub drift: DriftSpec,
    /// Where stamps are taken.
    pub mode: TimestampMode,
    /// Which algorithm runs on them.
    pub algo: AlgoKind,
    /// Round period `P`.
    pub round_period: SimDuration,
    /// CF application offset Δ.
    pub cf_delta: SimDuration,
    /// Continuous-amortization duration (0 = instantaneous steps).
    pub amortization: SimDuration,
    /// Fault-tolerance degree `f`.
    pub f: usize,
    /// Per-node broadcast stagger within the round (collision avoidance).
    pub stagger: SimDuration,
    /// Shared-medium parameters.
    pub medium: MediumConfig,
    /// COMCO timing.
    pub comco: ComcoTiming,
    /// CPLD programming (trigger/mapping offsets, header geometry) — the
    /// paper's portability knob: "a transition to a different hardware
    /// only requires redevelopment of the network controller's part of the
    /// COMCO driver and perhaps some reprogramming of the CPLD" (§4).
    pub cpld: CpldConfig,
    /// Kernel timing.
    pub kernel: KernelConfig,
    /// Stamp granularity (UTCSU: 60 ns; CSU baseline: 1 µs).
    pub granularity: SimDuration,
    /// Whether rate synchronization trims STEP each round.
    pub rate_sync: bool,
    /// Drift budget (ppm) for deterioration + compensation. Must bound the
    /// population drift (asserted).
    pub rho_budget_ppm: f64,
    /// Initial clock scatter: offsets uniform in `[0, 2·init_offset]`.
    pub init_offset: SimDuration,
    /// GPS receivers.
    pub gps: Vec<GpsNodeCfg>,
    /// Background traffic, if any.
    pub bg_load: Option<BgLoad>,
    /// The fault schedule: typed episodes applied across every layer
    /// (netsim, oscillators, trigger path, GPS, node lifecycle) by a
    /// seeded injector. An empty plan leaves the run bit-identical to a
    /// fault-free one. See `nti-faults`.
    pub fault_plan: FaultPlan,
    /// Dynamic membership: plan-driven joins, leaves and LAN moves applied
    /// by a seeded churn stream. A node whose *first* event is a join
    /// starts the run dark. An empty plan leaves the run bit-identical to
    /// a churn-free one. See `nti-faults`.
    pub churn_plan: ChurnPlan,
    /// How congestion-marked CSPs (ECN-style, see
    /// `MediumConfig::ecn_threshold`) are treated by the algorithm:
    /// accepted as-is, accepted with a widened (down-weighted) interval,
    /// or discarded.
    pub congestion: CongestionPolicy,
    /// Disable clock validation and trust every GPS interval blindly — the
    /// "questionable undertaking" of Section 5, as a negative control.
    pub gps_blind_trust: bool,
    /// Period of a global application event (a physical stimulus hitting
    /// every node's APU 0 input simultaneously — the paper's "relating
    /// sensor data gathered at different nodes" use case). `None` = off.
    pub app_event_period: Option<SimDuration>,
    /// Synchronized distributed actuation: every node arms duty timer 2
    /// for this clock second; the spread of the real instants at which the
    /// timers fire is the achievable actuation simultaneity (the paper's
    /// duty timers "generate application-related events"). Repeats every
    /// round period.
    pub actuation_start_sec: Option<u32>,
    /// Coordinated leap-second *insertion* at this UTC second: every node
    /// arms its UTCSU leap hardware for the same boundary; the metric
    /// reference axis follows the leap (UTC itself repeats a second).
    /// Checks are suspended in a ±1.5 s window around the boundary, where
    /// nodes cross it at slightly different real instants.
    pub leap_insert_at_sec: Option<u32>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Snapshot (HWSNAP) period.
    pub snapshot_every: SimDuration,
    /// Metrics warm-up exclusion window.
    pub warmup: SimDuration,
    /// Precision budget π for the online precision monitor: a snapshot
    /// whose worst pairwise clock difference exceeds this raises a
    /// `precision` violation. `None` disables the check (the simulation
    /// derives no closed-form π; callers supply their own budget).
    pub precision_budget: Option<SimDuration>,
    /// Observability sink: threaded into the engine, every medium, every
    /// node's kernel and UTCSU, and the cluster-level round metrics.
    /// Disabled by default (one branch per instrumentation site).
    pub obs: SimObserver,
    /// Mid-run status publication: when set, every HWSNAP sweep publishes
    /// a [`ClusterStatus`] frame (per-node clock, α, health state) into
    /// the seqlock cell. Reader threads — the `nti-serve` NTP front-end —
    /// see the latest frame without ever blocking the simulation thread
    /// (the publish is wait-free). `None` leaves runs bit-identical to
    /// pre-status builds.
    pub status_cell: Option<Arc<StatusCell>>,
}

impl ClusterConfig {
    /// A sensible default experiment: `n` nodes, one LAN, NTI hardware
    /// stamps, OA intervals, P = 1 s, Δ = 250 ms, 10 ppm TCXOs.
    pub fn default_lan(n: usize, seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::single_lan(n),
            seed,
            fosc_hz: 10_000_000,
            drift: DriftSpec::ConstantSpread { rho_max_ppm: 10.0 },
            mode: TimestampMode::Hardware,
            algo: AlgoKind::IntervalOa,
            round_period: SimDuration::from_secs(1),
            cf_delta: SimDuration::from_millis(250),
            amortization: SimDuration::from_millis(100),
            f: if n >= 4 { 1 } else { 0 },
            stagger: SimDuration::from_millis(2),
            medium: MediumConfig::ethernet_10m(),
            comco: ComcoTiming::i82596(),
            cpld: CpldConfig::default(),
            kernel: KernelConfig::psos_mvme162(),
            granularity: SimDuration::from_nanos(60),
            rate_sync: false,
            rho_budget_ppm: 12.0,
            init_offset: SimDuration::from_micros(500),
            gps: Vec::new(),
            bg_load: None,
            fault_plan: FaultPlan::new(),
            churn_plan: ChurnPlan::new(),
            congestion: CongestionPolicy::Ignore,
            gps_blind_trust: false,
            app_event_period: None,
            actuation_start_sec: None,
            leap_insert_at_sec: None,
            duration: SimDuration::from_secs(30),
            snapshot_every: SimDuration::from_millis(500),
            warmup: SimDuration::from_secs(5),
            precision_budget: None,
            obs: SimObserver::disabled(),
            status_cell: None,
        }
    }
}

/// A frame in flight on some segment.
#[derive(Debug)]
struct Flight {
    src: usize,
    lan: usize,
    payload: CspPayload,
    /// The payload bytes as serialized into the sender's NTI data buffer —
    /// what actually rides the wire and lands in the receiver's memory.
    /// Shared by every attachment's flight and every receiver's data copy.
    payload_bytes: Rc<[u8]>,
    wire_end: SimTime,
    sw_stamp_real: SimTime,
    hw_ts: Option<u32>,
    hw_acc: Option<u32>,
    xmit_trigger_real: Option<SimTime>,
    corrupted: bool,
    byzantine: bool,
    /// ECN-style congestion mark from the medium-access grant: the frame
    /// saw queue occupancy above the marking threshold.
    marked: bool,
    receivers_pending: usize,
    /// Head of this flight's causal span chain — the last hop emitted on
    /// the sender side — and that hop's real end instant. Null/meaningless
    /// when observability is off.
    span: SpanId,
    span_t: SimTime,
}

/// Run-wide measurement accumulators.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Per-snapshot maximum pairwise clock difference (s).
    pub precision: Summary,
    /// Per-snapshot per-node |C − t| (s).
    pub true_error: Summary,
    /// Per-snapshot per-node max(α⁻, α⁺) (s).
    pub alpha: Summary,
    /// Stamp-pair delays (s) — ε is this distribution's spread.
    pub eps_delay: Summary,
    /// Containment checks that failed (`t ∉ A(t)`).
    pub containment_violations: u64,
    /// Containment checks performed.
    pub containment_checks: u64,
    /// CSPs broadcast.
    pub csps_sent: u64,
    /// CSP receptions processed.
    pub csps_delivered: u64,
    /// CSP receptions dropped, all causes (= crc + overrun + injected).
    pub csps_dropped: u64,
    /// … of which CRC-discarded frames (trigger fired, frame bad).
    pub csps_dropped_crc: u64,
    /// … of which receive-latch overruns and memory-path losses (the stamp
    /// could not be attributed to its frame).
    pub csps_dropped_overrun: u64,
    /// … of which fault-plan injections (packet loss, partitions, missed
    /// triggers).
    pub csps_dropped_injected: u64,
    /// Node crashes executed by the fault plan.
    pub crashes: u64,
    /// Restarted nodes that completed reintegration (first successful
    /// convergence after the cold restart).
    pub rejoins: u64,
    /// Post-rejoin α trajectories, one entry per restart (**every**
    /// restart of a node opens its own trajectory; a node crashing again
    /// mid-recovery closes the open one as interrupted).
    pub rejoin_alpha: Vec<RejoinTrajectory>,
    /// Churn-plan joins executed.
    pub joins: u64,
    /// Churn-plan leaves executed.
    pub leaves: u64,
    /// Churn-plan LAN moves executed.
    pub moves: u64,
    /// Background frames generated.
    pub bg_frames: u64,
    /// Effective rate spread (max−min, ppm) at the last snapshot.
    pub rate_spread_ppm_last: f64,
    /// Cross-node spread of APU stamps of the same physical event (s).
    pub app_event_spread: Summary,
    /// Cross-node spread of synchronized duty-timer actuations (s).
    pub actuation_spread: Summary,
    /// Real fire instants of the current actuation, collected per node.
    actuation_pending: Vec<SimTime>,
    /// Sum of GPS validation stats over nodes (filled at teardown).
    pub gps_accepted: u64,
    /// Rejected external intervals.
    pub gps_rejected: u64,
}

/// One restarted node's post-rejoin α recovery trajectory.
#[derive(Clone, Debug, Default)]
pub struct RejoinTrajectory {
    /// Which node restarted.
    pub node: usize,
    /// `max(α⁻, α⁺)` in seconds after each post-rejoin convergence, from
    /// the acquisition round on (capped at [`REJOIN_TRACK_ROUNDS`]).
    pub alpha: Vec<f64>,
    /// The node crashed (or left) again before the tracking window closed:
    /// this restart never recovered.
    pub interrupted: bool,
}

/// The causal-span hop kinds of a CSP's life, in pipeline order: CSP
/// assembly, TRANSMIT trigger, wire serialization, RECEIVE trigger, UTCSU
/// latch, packet interrupt, ISR + task dispatch, and algorithm acceptance.
/// Also indexes the `span/hop_<kind>_ns` histogram family.
pub const SPAN_HOPS: [&str; 8] = [
    "csp_send",
    "xmit_trigger",
    "wire",
    "rcv_trigger",
    "latch",
    "interrupt",
    "isr_dispatch",
    "accept",
];

/// Registry names of the per-hop latency-decomposition histograms
/// (`span` subsystem, global scope), index-aligned with [`SPAN_HOPS`].
pub const HOP_HIST_NAMES: [&str; 8] = [
    "hop_csp_send_ns",
    "hop_xmit_trigger_ns",
    "hop_wire_ns",
    "hop_rcv_trigger_ns",
    "hop_latch_ns",
    "hop_interrupt_ns",
    "hop_isr_dispatch_ns",
    "hop_accept_ns",
];

/// Registry names of the `membership` transition counters
/// (`enter_<state>`), index-aligned with [`HEALTH_STATES`].
pub const ENTER_STATE_NAMES: [&str; 5] = [
    "enter_synchronized",
    "enter_degraded",
    "enter_holdover",
    "enter_down",
    "enter_reintegrating",
];

const HOP_CSP_SEND: usize = 0;
const HOP_XMIT_TRIGGER: usize = 1;
const HOP_WIRE: usize = 2;
const HOP_RCV_TRIGGER: usize = 3;
const HOP_LATCH: usize = 4;
const HOP_INTERRUPT: usize = 5;
const HOP_ISR_DISPATCH: usize = 6;
const HOP_ACCEPT: usize = 7;

/// Pre-resolved cluster-level observability handles (metrics under the
/// `cluster` subsystem, global scope unless noted).
struct ClusterObs {
    obs: SimObserver,
    /// Per-snapshot worst pairwise clock difference (ns).
    precision_ns: Arc<Histogram>,
    /// Per-snapshot per-node |C − t| (ns).
    true_error_ns: Arc<Histogram>,
    /// Per-snapshot per-node max(α⁻, α⁺) (ns).
    alpha_ns: Arc<Histogram>,
    /// Stamp-pair delays (ns).
    eps_delay_ns: Arc<Histogram>,
    /// Per-round convergence-input offset spread (ns).
    cf_input_spread_ns: Arc<Histogram>,
    csps_sent: Arc<Counter>,
    csps_delivered: Arc<Counter>,
    csps_dropped: Arc<Counter>,
    csps_dropped_crc: Arc<Counter>,
    csps_dropped_overrun: Arc<Counter>,
    csps_dropped_injected: Arc<Counter>,
    /// Per-hop latency decomposition of the CSP causal chain, one
    /// histogram per [`SPAN_HOPS`] entry.
    hop_ns: [Arc<Histogram>; SPAN_HOPS.len()],
    /// `membership/enter_<state>` — transitions into each health state,
    /// index-aligned with [`HEALTH_STATES`].
    enter_state: [Arc<Counter>; HEALTH_STATES.len()],
    /// `membership/<state>` — how many nodes currently sit in each health
    /// state, refreshed at every snapshot.
    state_gauge: [Arc<Gauge>; HEALTH_STATES.len()],
    /// `cluster/status_publishes` — frames published into the status
    /// cell; serving-side staleness alarms correlate against this.
    status_publishes: Arc<Counter>,
}

impl ClusterObs {
    /// Emit one cluster-side hop of a CSP's causal chain: allocate a span
    /// id, link it under `parent` (null parent ⇒ root), and record the hop
    /// duration into the decomposition histogram. Returns the new span id
    /// so the caller can thread the chain head forward.
    fn hop(&self, idx: usize, end_fs: u128, dur_fs: u128, node: u32, parent: SpanId) -> SpanId {
        let span = self.obs.new_span();
        self.obs.span_link(
            end_fs,
            dur_fs,
            node,
            Subsystem::Cluster,
            SPAN_HOPS[idx],
            span,
            parent,
        );
        self.hop_ns[idx].record(fs_to_ns(dur_fs));
        span
    }

    /// Record the duration of a hop whose span another layer emitted (the
    /// medium's wire hop, the UTCSU latch, the kernel's ISR + dispatch)
    /// into the same decomposition family.
    fn hop_dur(&self, idx: usize, dur_fs: u128) {
        self.hop_ns[idx].record(fs_to_ns(dur_fs));
    }
}

/// How many post-rejoin convergence rounds of α are recorded per restart.
pub const REJOIN_TRACK_ROUNDS: usize = 12;

/// Cause attribution for a dropped CSP reception.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DropCause {
    /// CRC-discarded frame (trigger fired, frame bad — footnote 4).
    Crc,
    /// Receive-latch overrun or memory-path loss.
    Overrun,
    /// Injected by the fault plan (loss, partition, missed trigger).
    Injected,
}

/// Multiply-rotate hasher (FxHash's step) for the maps the receive path
/// touches on every delivery, keyed by flight id and node index: a few
/// instructions per key where `std`'s SipHash costs tens of nanoseconds.
/// The keys are simulator-made integers, never outside input, and no
/// result depends on these maps' iteration order.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The simulated world (the engine's state type).
pub struct World {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// One medium per LAN segment.
    pub mediums: Vec<Medium>,
    /// Segment membership.
    pub topology: Topology,
    /// Frames in flight.
    flights: IdMap<u64, Flight>,
    /// Receive-trigger instants per (flight, receiver) for ε measurement.
    /// A duplicated reception overwrites its original's entry.
    rx_triggers: IdMap<(u64, usize), SimTime>,
    /// Receive-side span chain heads per (flight, receiver): the latch (or
    /// trigger) span and its real end instant, consumed by `rx_complete`.
    rx_spans: IdMap<(u64, usize), (SpanId, SimTime)>,
    next_flight: u64,
    /// The fault-plan applicator (owns all fault RNG streams).
    injector: FaultInjector,
    /// Crashed nodes (true = down). Down nodes run no handlers, receive no
    /// frames and are excluded from metrics until they reintegrate.
    down: Vec<bool>,
    /// Restarted nodes whose post-rejoin α trajectory is still being
    /// recorded: node → index into `metrics.rejoin_alpha`.
    rejoin_track: HashMap<usize, usize>,
    /// Per-application-event collected APU stamps (event id -> stamps).
    app_pending: HashMap<u64, Vec<NtpTime>>,
    /// Measurements.
    pub metrics: Metrics,
    /// Frames published into `cfg.status_cell` so far.
    status_publishes: u64,
    obs: Option<ClusterObs>,
    /// Online invariant monitors (`None` when observability is off).
    monitors: Option<Monitors>,
    cfg: ClusterConfig,
    params: SyncParams,
}

impl World {
    /// The derived synchronization parameters of this run (delay bounds,
    /// granularity, drift budget).
    pub fn params(&self) -> SyncParams {
        self.params
    }

    /// The configuration this run was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Is node `id` currently crashed?
    pub fn is_down(&self, id: usize) -> bool {
        self.down[id]
    }

    /// The online invariant monitor bank, when observability is enabled
    /// (violation counts, first offenses).
    pub fn monitors(&self) -> Option<&Monitors> {
        self.monitors.as_ref()
    }

    /// A consistent mid-run snapshot of the ensemble at `now`: per-node
    /// clock, accuracy interval and health state, plus the frame header.
    /// This is what `Report.final_states` and the membership gauges cannot
    /// give you — the state *while the run is still going* — and it is the
    /// frame [`snapshot`] publishes into `ClusterConfig::status_cell`.
    pub fn status(&mut self, now: SimTime) -> ClusterStatus {
        let ref_fs = ref_time(self, now).as_fs();
        let nodes = (0..self.nodes.len())
            .map(|id| {
                if self.down[id] {
                    return NodeStatus {
                        clock: NtpTime::ZERO,
                        alpha_minus: SimDuration::ZERO,
                        alpha_plus: SimDuration::ZERO,
                        state: self.nodes[id].health.state(),
                        down: true,
                    };
                }
                self.nodes[id].advance(now);
                let (am, ap) = self.nodes[id].nti.utcsu().alpha();
                NodeStatus {
                    clock: self.nodes[id].nti.utcsu().time(),
                    alpha_minus: am.to_duration(),
                    alpha_plus: ap.to_duration(),
                    state: self.nodes[id].health.state(),
                    down: false,
                }
            })
            .collect();
        ClusterStatus {
            publishes: self.status_publishes,
            sim_time_fs: now.as_fs(),
            ref_time_fs: ref_fs,
            nodes,
        }
    }
}

type Eng = Engine<World>;

/// Final report of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Worst observed pairwise clock difference (s).
    pub worst_precision_s: f64,
    /// Mean of per-snapshot precision (s).
    pub mean_precision_s: f64,
    /// Worst observed |C − t| (s).
    pub worst_accuracy_s: f64,
    /// Mean claimed accuracy bound (s).
    pub mean_alpha_s: f64,
    /// Worst claimed accuracy bound (s).
    pub worst_alpha_s: f64,
    /// ε: spread (max − min) of the stamp-pair delay (s).
    pub eps_spread_s: f64,
    /// Standard deviation of the stamp-pair delay (s).
    pub eps_std_s: f64,
    /// Stamp-pair delay sample count.
    pub eps_samples: usize,
    /// Containment violations / checks.
    pub containment: (u64, u64),
    /// CSPs sent / delivered / dropped.
    pub csps: (u64, u64, u64),
    /// Dropped-CSP attribution: CRC / latch-overrun / fault-injected.
    pub csp_drop_causes: (u64, u64, u64),
    /// Node crashes / completed reintegrations.
    pub churn: (u64, u64),
    /// Churn-plan joins / leaves / LAN moves executed.
    pub membership: (u64, u64, u64),
    /// Worst number of post-rejoin convergence rounds any restarted node
    /// needed to shrink α below 10× its steady-state value (−1 when no
    /// restart completed or a trajectory never recovered). Interrupted
    /// trajectories (crashed again mid-recovery) are excluded here; see
    /// `rejoin_recoveries`.
    pub rejoin_recovery_rounds: i64,
    /// Per-restart recovery rounds, one entry per restart in lifecycle
    /// order (−1: interrupted by another crash/leave, or never recovered).
    pub rejoin_recoveries: Vec<i64>,
    /// Final health state per node (`HealthState::name` strings).
    pub final_states: Vec<&'static str>,
    /// Health-state transitions summed over nodes.
    pub health_transitions: u64,
    /// Rounds spent frozen in holdover, summed over nodes.
    pub holdover_rounds: u64,
    /// Congestion-marked CSPs seen / accepted discounted / discarded,
    /// summed over nodes.
    pub congestion: (u64, u64, u64),
    /// GPS intervals accepted / rejected by validation.
    pub gps: (u64, u64),
    /// Effective rate spread at the end (ppm).
    pub rate_spread_ppm: f64,
    /// Convergence-function failures summed over nodes.
    pub cf_failures: u64,
    /// Worst cross-node spread of APU stamps of one physical event (s),
    /// and the number of events measured.
    pub app_events: (f64, usize),
    /// Worst cross-node spread of synchronized duty-timer actuations (s),
    /// and the number of actuations measured.
    pub actuations: (f64, usize),
    /// Online invariant violations raised across all monitors (always 0
    /// when observability is off — the monitors need an enabled observer).
    pub monitor_violations: u64,
}

impl Report {
    /// Machine-readable form of the report (field names match the struct).
    pub fn to_json(&self) -> nti_obs::Json {
        use nti_obs::Json;
        Json::obj([
            ("worst_precision_s", Json::num(self.worst_precision_s)),
            ("mean_precision_s", Json::num(self.mean_precision_s)),
            ("worst_accuracy_s", Json::num(self.worst_accuracy_s)),
            ("mean_alpha_s", Json::num(self.mean_alpha_s)),
            ("worst_alpha_s", Json::num(self.worst_alpha_s)),
            ("eps_spread_s", Json::num(self.eps_spread_s)),
            ("eps_std_s", Json::num(self.eps_std_s)),
            ("eps_samples", Json::num(self.eps_samples as f64)),
            (
                "containment",
                Json::Arr(vec![
                    Json::num(self.containment.0 as f64),
                    Json::num(self.containment.1 as f64),
                ]),
            ),
            (
                "csps",
                Json::Arr(vec![
                    Json::num(self.csps.0 as f64),
                    Json::num(self.csps.1 as f64),
                    Json::num(self.csps.2 as f64),
                ]),
            ),
            (
                "csp_drop_causes",
                Json::Arr(vec![
                    Json::num(self.csp_drop_causes.0 as f64),
                    Json::num(self.csp_drop_causes.1 as f64),
                    Json::num(self.csp_drop_causes.2 as f64),
                ]),
            ),
            (
                "churn",
                Json::Arr(vec![
                    Json::num(self.churn.0 as f64),
                    Json::num(self.churn.1 as f64),
                ]),
            ),
            (
                "membership",
                Json::Arr(vec![
                    Json::num(self.membership.0 as f64),
                    Json::num(self.membership.1 as f64),
                    Json::num(self.membership.2 as f64),
                ]),
            ),
            (
                "rejoin_recovery_rounds",
                Json::num(self.rejoin_recovery_rounds as f64),
            ),
            (
                "rejoin_recoveries",
                Json::Arr(
                    self.rejoin_recoveries
                        .iter()
                        .map(|&r| Json::num(r as f64))
                        .collect(),
                ),
            ),
            (
                "final_states",
                Json::Arr(self.final_states.iter().map(|&s| Json::str(s)).collect()),
            ),
            (
                "health_transitions",
                Json::num(self.health_transitions as f64),
            ),
            ("holdover_rounds", Json::num(self.holdover_rounds as f64)),
            (
                "congestion",
                Json::Arr(vec![
                    Json::num(self.congestion.0 as f64),
                    Json::num(self.congestion.1 as f64),
                    Json::num(self.congestion.2 as f64),
                ]),
            ),
            (
                "gps",
                Json::Arr(vec![
                    Json::num(self.gps.0 as f64),
                    Json::num(self.gps.1 as f64),
                ]),
            ),
            ("rate_spread_ppm", Json::num(self.rate_spread_ppm)),
            ("cf_failures", Json::num(self.cf_failures as f64)),
            (
                "app_events",
                Json::Arr(vec![
                    Json::num(self.app_events.0),
                    Json::num(self.app_events.1 as f64),
                ]),
            ),
            (
                "actuations",
                Json::Arr(vec![
                    Json::num(self.actuations.0),
                    Json::num(self.actuations.1 as f64),
                ]),
            ),
            (
                "monitor_violations",
                Json::num(self.monitor_violations as f64),
            ),
        ])
    }
}

/// A cluster experiment: engine + world.
pub struct Cluster {
    eng: Eng,
    world: World,
}

/// CSP frame wire size in bits (fixed-size payload ⇒ constant).
pub fn csp_frame_bits() -> u64 {
    Frame::csp(Frame::mac(0), CspPayload::default_bytes()).wire_bits()
}

impl CspPayload {
    /// A zeroed payload of the fixed wire size (for size computations).
    pub fn default_bytes() -> bytes::Bytes {
        bytes::Bytes::from(vec![0u8; CSP_PAYLOAD_LEN])
    }
}

/// Derive the SyncParams (including the statically computed delay bounds)
/// from a cluster configuration.
pub fn derive_params(cfg: &ClusterConfig) -> SyncParams {
    let bits = csp_frame_bits();
    // The trigger offsets decide how many header accesses precede each
    // trigger (the k_x/k_r terms of the delay bounds).
    let reads_before = cfg.cpld.xmt_trigger_off / 4 + 1;
    let writes_before = cfg.cpld.rcv_trigger_off / 4 + 1;
    let header_words = cfg.cpld.header_len / 4;
    let (dmin, dmax) = match cfg.mode {
        TimestampMode::Hardware => {
            delay_bounds_hardware(&cfg.comco, &cfg.medium, bits, reads_before, writes_before)
        }
        TimestampMode::InterruptRx => {
            delay_bounds_interrupt_rx(&cfg.comco, &cfg.medium, bits, reads_before, header_words)
        }
        TimestampMode::Software => {
            delay_bounds_software(&cfg.comco, &cfg.medium, &cfg.kernel, bits, 64)
        }
    };
    SyncParams {
        round_period: cfg.round_period,
        cf_delta: cfg.cf_delta,
        f: cfg.f,
        delay_min: dmin,
        delay_max: dmax,
        rho_ppm: cfg.rho_budget_ppm,
        rate_adj_uncertainty: SimDuration::from_fs(1_000_000_000_000_000 / cfg.fosc_hz as u128),
        granularity: cfg.granularity,
        amortization: cfg.amortization,
    }
}

impl Cluster {
    /// Build a cluster and schedule its initial events.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            cfg.rho_budget_ppm >= cfg.drift.rho_bound_ppm(),
            "drift budget must bound the oscillator population"
        );
        assert!(
            cfg.cf_delta < cfg.round_period,
            "Δ must fit inside the round"
        );
        if let Some(cell) = &cfg.status_cell {
            assert_eq!(
                cell.node_count(),
                cfg.topology.node_count(),
                "status cell must be sized for the cluster"
            );
        }
        let params = derive_params(&cfg);
        let root = SimRng::new(cfg.seed);
        let n = cfg.topology.node_count();
        let mut injector = FaultInjector::new(&cfg.fault_plan, &root);
        injector.attach_observer(&cfg.obs);
        for (node, at, _) in injector.crash_windows() {
            assert!(node < n, "crash episode targets node {node} of {n}");
            assert!(at > SimTime::ZERO, "crash at t=0 is not meaningful");
        }
        let quant = if cfg.granularity <= SimDuration::from_nanos(60) {
            UTCSU_QUANT_UNITS
        } else {
            quant_units_for(cfg.granularity)
        };

        let mut nodes = Vec::with_capacity(n);
        let mut cfg_rng = root.split("cfg");
        for id in 0..n {
            let node_rng = root.split_idx("node", id as u64);
            let mut osc = cfg
                .drift
                .build(&mut cfg_rng, cfg.fosc_hz, node_rng.split("osc"));
            let excursions = injector.drift_excursions(id);
            if !excursions.is_empty() {
                osc.set_excursions(&excursions);
            }
            let mut nti = Nti::new(
                UtcsuConfig {
                    fosc_hz: cfg.fosc_hz,
                    reliable_pin: true,
                },
                cfg.cpld,
            );
            // Initial clock: UTC + uniform [0, 2·init_offset); accuracy
            // loaded to cover the scatter (containment from the start).
            let off = SimDuration::from_fs(
                cfg_rng.below((2 * cfg.init_offset.as_fs()).max(1) as u64) as u128,
            );
            let g_margin = SimDuration::from_nanos(120);
            nti.utcsu_mut()
                .stage_time_load(NtpTime::from_sim_time(SimTime::ZERO + off));
            nti.utcsu_mut().stage_acc_load(
                Accuracy::from_duration_ceil(cfg.init_offset * 2 + g_margin),
                Accuracy::from_duration_ceil(g_margin),
            );
            nti.utcsu_mut().sync_run();
            nti.write32(UTCSU_BASE + uregs::R_INT_MASK, u32::MAX);
            let attachments = cfg.topology.attachments(id).len();
            let comcos = (0..attachments)
                .map(|a| {
                    Comco::new(
                        cfg.comco,
                        cfg.medium.bitrate_bps,
                        node_rng.split_idx("comco", a as u64),
                    )
                })
                .collect();
            let mut node = Node {
                id,
                osc,
                nti,
                comcos,
                kernel: Kernel::new(cfg.kernel, node_rng.split("kernel")),
                driver: ComcoDriver::new(),
                scb: nti_module::ScbDriver::default(),
                core: SyncCore::new(params, cfg.algo),
                health: HealthTracker::new(HealthConfig::for_f(cfg.f)),
                rate: RateSync::new(),
                gps: Vec::new(),
                vstats: ValidationStats::default(),
                rx_slot: 0,
                tx_slot: 0,
                utcsu_event: None,
                amort_dstep_saved: None,
                cum_adj_units: 0,
                quant_units: quant,
            };
            node.core.blind_external = cfg.gps_blind_trust;
            node.core.reintegration_quorum = reintegration_quorum_for(&cfg.topology, id, cfg.f);
            node.core.congestion = cfg.congestion;
            node.scb.init(&mut node.nti);
            node.program_dsteps(cfg.rho_budget_ppm);
            nodes.push(node);
        }
        for (k, g) in cfg.gps.iter().enumerate() {
            let mut rx = GpsReceiver::new(g.cfg, root.split_idx("gps", k as u64));
            for f in &g.faults {
                rx.inject(*f);
            }
            let gpu_idx = nodes[g.node].gps.len();
            assert!(gpu_idx < nti_utcsu::NUM_GPU, "at most 3 receivers per node");
            nodes[g.node].nti.utcsu_mut().gpu[gpu_idx].enabled = true;
            nodes[g.node].gps.push(rx);
        }
        // GPS faults from the fault plan ride on receivers declared in
        // `cfg.gps` (an episode cannot conjure hardware).
        for (id, node) in nodes.iter_mut().enumerate() {
            for (receiver, fault) in injector.gps_faults(id) {
                assert!(
                    receiver < node.gps.len(),
                    "Gps fault episode targets receiver {receiver} of node {id}, \
                     which has {} receivers configured",
                    node.gps.len()
                );
                node.gps[receiver].inject(fault);
            }
        }

        if let Some(sec) = cfg.actuation_start_sec {
            for node in &mut nodes {
                arm_timer(node, 2, NtpTime::from_secs(sec));
            }
        }
        if let Some(sec) = cfg.leap_insert_at_sec {
            for node in &mut nodes {
                node.nti.write32(UTCSU_BASE + uregs::R_LEAP_SECS, sec);
                node.nti.write32(
                    UTCSU_BASE + uregs::R_CTRL,
                    uregs::CTRL_RUN | uregs::CTRL_LEAP_INSERT,
                );
            }
        }

        let mediums = (0..cfg.topology.lan_count())
            .map(|l| Medium::new(cfg.medium, root.split_idx("medium", l as u64)))
            .collect();

        let mut world = World {
            nodes,
            mediums,
            topology: cfg.topology.clone(),
            flights: IdMap::default(),
            rx_triggers: IdMap::default(),
            rx_spans: IdMap::default(),
            next_flight: 0,
            injector,
            down: vec![false; n],
            rejoin_track: HashMap::new(),
            app_pending: HashMap::new(),
            metrics: Metrics::default(),
            status_publishes: 0,
            obs: None,
            monitors: None,
            cfg,
            params,
        };
        // Thread the observer through every layer: engine, one medium per
        // LAN, one kernel + UTCSU per node, plus the cluster-level metrics.
        let obs = world.cfg.obs.clone();
        if obs.is_enabled() {
            for (l, m) in world.mediums.iter_mut().enumerate() {
                m.attach_observer(&obs, l as u32);
            }
            for id in 0..n {
                world.nodes[id].kernel.attach_observer(&obs, id as u32);
                world.nodes[id]
                    .nti
                    .utcsu_mut()
                    .attach_observer(&obs, id as u32);
            }
            let key = |name| MetricKey::global("cluster", name);
            world.obs = Some(ClusterObs {
                obs: obs.clone(),
                precision_ns: obs.hist(key("precision_ns")).expect("enabled"),
                true_error_ns: obs.hist(key("true_error_ns")).expect("enabled"),
                alpha_ns: obs.hist(key("alpha_ns")).expect("enabled"),
                eps_delay_ns: obs.hist(key("eps_delay_ns")).expect("enabled"),
                cf_input_spread_ns: obs.hist(key("cf_input_spread_ns")).expect("enabled"),
                csps_sent: obs.counter(key("csps_sent")).expect("enabled"),
                csps_delivered: obs.counter(key("csps_delivered")).expect("enabled"),
                csps_dropped: obs.counter(key("csps_dropped")).expect("enabled"),
                csps_dropped_crc: obs.counter(key("csps_dropped_crc")).expect("enabled"),
                csps_dropped_overrun: obs.counter(key("csps_dropped_overrun")).expect("enabled"),
                csps_dropped_injected: obs.counter(key("csps_dropped_injected")).expect("enabled"),
                hop_ns: HOP_HIST_NAMES
                    .map(|nm| obs.hist(MetricKey::global("span", nm)).expect("enabled")),
                enter_state: ENTER_STATE_NAMES.map(|nm| {
                    obs.counter(MetricKey::global("membership", nm))
                        .expect("enabled")
                }),
                state_gauge: HEALTH_STATES.map(|s| {
                    obs.gauge(MetricKey::global("membership", s.name()))
                        .expect("enabled")
                }),
                status_publishes: obs.counter(key("status_publishes")).expect("enabled"),
            });
            world.monitors = Monitors::new(
                &obs,
                n,
                MonitorConfig {
                    // The static worst-case transmission-delay bound the
                    // algorithm compensates with also budgets the measured
                    // trigger-to-latch stamp-pair delay.
                    delay_budget_fs: Some(params.delay_max.as_fs()),
                    precision_bound_fs: world.cfg.precision_budget.map(|d| d.as_fs()),
                    check_containment: true,
                    // Amortized interval clocks slew continuously and never
                    // read backwards; instantaneous-step modes and leap
                    // insertion legitimately do.
                    check_monotonic: world.cfg.amortization.as_fs() > 0
                        && world.cfg.leap_insert_at_sec.is_none()
                        && matches!(
                            world.cfg.algo,
                            AlgoKind::IntervalOa | AlgoKind::IntervalMarzullo
                        ),
                },
            );
        }
        let mut eng = Eng::new();
        eng.attach_observer(&obs);
        // Dark-start churn nodes: a node whose *first* churn event is a
        // join spends the run's opening `Down` — no clock, no timers, no
        // CSPs — until that join fires. (`initially_down` draws nothing,
        // so an empty plan perturbs no state here.)
        for (id, dark) in world
            .cfg
            .churn_plan
            .initially_down(n)
            .into_iter()
            .enumerate()
        {
            if dark {
                let edge = world.nodes[id].health.set_down();
                note_health_edge(&mut world, SimTime::ZERO, id, edge);
                world.down[id] = true;
            }
        }
        // Arm the first round's timers and start services.
        for id in 0..n {
            if world.down[id] {
                continue;
            }
            arm_round_timers(&mut world, id, 1);
            schedule_utcsu_service(&mut world, &mut eng, id);
        }
        // Snapshots: one periodic event, closure allocated once.
        let every = world.cfg.snapshot_every;
        eng.schedule_every(SimTime::ZERO + every, every, snapshot);
        // GPS generators: one per (node, receiver), re-armed every second
        // half a second ahead of the pulse.
        for id in 0..n {
            for g in 0..world.nodes[id].gps.len() {
                let mut sec: u64 = 1;
                eng.schedule_every(
                    SimTime::from_millis(500),
                    SimDuration::from_secs(1),
                    move |w, e| {
                        let s = sec;
                        sec += 1;
                        gps_second(w, e, id, g, s);
                    },
                );
            }
        }
        // Application events: one physical stimulus hits every node's APU 0.
        if let Some(period) = world.cfg.app_event_period {
            for id in 0..n {
                world.nodes[id].nti.utcsu_mut().apu[0].enabled = true;
            }
            let mut ev: u64 = 0;
            eng.schedule_every(SimTime::ZERO + period, period, move |w, e| {
                let k = ev;
                ev += 1;
                app_event(w, e, k);
            });
        }
        // Background load.
        if world.cfg.bg_load.is_some() {
            for id in 0..n {
                eng.schedule_at(SimTime::from_millis(1 + id as u64), move |w, e| {
                    bg_load(w, e, id)
                });
            }
        }
        // Fault-plan lifecycle and boundary events. Scheduled only when
        // the plan is non-empty: extra events would perturb the engine's
        // tie-break sequence numbers even with no-op handlers, and an
        // empty plan must leave the run bit-identical to the seed.
        if !world.injector.is_empty() {
            let end = SimTime::ZERO + world.cfg.duration;
            apply_lan_faults(&mut world, SimTime::ZERO);
            for t in world.injector.boundaries() {
                if t > SimTime::ZERO && t < end {
                    eng.schedule_at(t, fault_boundary);
                }
            }
            for (id, at, restart) in world.injector.crash_windows() {
                if at < end {
                    eng.schedule_at(at, move |w, e| crash_node(w, e, id));
                }
                if let Some(r) = restart {
                    if r < end {
                        eng.schedule_at(r, move |w, e| restart_node(w, e, id));
                    }
                }
            }
        }
        // Dynamic membership: schedule the churn plan. Gated on plan
        // non-emptiness for the same bit-identity reason as the fault
        // lifecycle above.
        if !world.cfg.churn_plan.is_empty() {
            let end = SimTime::ZERO + world.cfg.duration;
            for ev in world.cfg.churn_plan.events().to_vec() {
                assert!(ev.node < n, "churn event targets node {} of {n}", ev.node);
                if let ChurnKind::Move { to_lan } = ev.kind {
                    assert!(
                        to_lan < world.topology.lan_count(),
                        "churn move targets LAN {to_lan} of {}",
                        world.topology.lan_count()
                    );
                    assert!(
                        world.topology.attachments(ev.node).len() == 1,
                        "only ordinary (non-gateway) nodes can move"
                    );
                }
                if ev.at < end {
                    eng.schedule_at(ev.at, move |w, e| churn_event(w, e, ev));
                }
            }
        }
        Cluster { eng, world }
    }

    /// Run to the configured duration and produce the report plus the full
    /// measurement accumulators (raw distributions for histograms).
    pub fn run_with_metrics(self) -> (Report, Metrics) {
        let mut me = self;
        let until = SimTime::ZERO + me.world.cfg.duration;
        me.eng.run_until(&mut me.world, until);
        let report = finalize(&mut me.world);
        (report, me.world.metrics)
    }

    /// Run to the configured duration and produce the report.
    pub fn run(mut self) -> Report {
        let until = SimTime::ZERO + self.world.cfg.duration;
        self.eng.run_until(&mut self.world, until);
        finalize(&mut self.world)
    }

    /// Advance the simulation to `until` (capped at the configured
    /// duration) and return the new simulation time. Incremental driving:
    /// call repeatedly to interleave the simulation with outside work —
    /// the serving layer's simulation thread advances in wall-clock-sized
    /// chunks and checks a stop flag between calls.
    pub fn advance_until(&mut self, until: SimTime) -> SimTime {
        let end = SimTime::ZERO + self.world.cfg.duration;
        self.eng.run_until(&mut self.world, until.min(end));
        self.eng.now()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// A consistent mid-run ensemble snapshot at the current simulation
    /// time (see [`World::status`]).
    pub fn status(&mut self) -> ClusterStatus {
        let now = self.eng.now();
        self.world.status(now)
    }

    /// Finish an incrementally-driven run: run any remaining span to the
    /// configured duration and produce the report plus raw accumulators.
    pub fn finish(mut self) -> (Report, Metrics) {
        let until = SimTime::ZERO + self.world.cfg.duration;
        self.eng.run_until(&mut self.world, until);
        let report = finalize(&mut self.world);
        (report, self.world.metrics)
    }

    /// Access the world (post-construction inspection in tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world (mid-run inspection when driving the
    /// simulation incrementally with [`Cluster::advance_until`]).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

// ---------------------------------------------------------------------
// Event handlers. All take (world, engine) plus Copy context.
// ---------------------------------------------------------------------

/// Sum the per-node counters into the metrics and build the report.
fn finalize(w: &mut World) -> Report {
    for n in &w.nodes {
        w.metrics.gps_accepted += n.vstats.accepted;
        w.metrics.gps_rejected += n.vstats.rejected;
    }
    let cf_failures = w.nodes.iter().map(|n| n.core.cf_failures).sum();
    let monitor_violations = w.monitors.as_ref().map_or(0, |m| m.total());
    let final_states: Vec<&'static str> = w.nodes.iter().map(|n| n.health.state().name()).collect();
    let health_transitions = w.nodes.iter().map(|n| n.health.transitions()).sum();
    let holdover_rounds = w.nodes.iter().map(|n| n.health.holdover_rounds()).sum();
    let congestion = w.nodes.iter().fold((0, 0, 0), |acc, n| {
        (
            acc.0 + n.core.csps_marked,
            acc.1 + n.core.csps_discounted,
            acc.2 + n.core.csps_discarded,
        )
    });
    let m = &mut w.metrics;
    Report {
        worst_precision_s: m.precision.max(),
        mean_precision_s: m.precision.mean(),
        worst_accuracy_s: m.true_error.max(),
        mean_alpha_s: m.alpha.mean(),
        worst_alpha_s: m.alpha.max(),
        eps_spread_s: if m.eps_delay.count() > 1 {
            m.eps_delay.max() - m.eps_delay.min()
        } else {
            0.0
        },
        eps_std_s: m.eps_delay.std_dev(),
        eps_samples: m.eps_delay.count(),
        containment: (m.containment_violations, m.containment_checks),
        csps: (m.csps_sent, m.csps_delivered, m.csps_dropped),
        csp_drop_causes: (
            m.csps_dropped_crc,
            m.csps_dropped_overrun,
            m.csps_dropped_injected,
        ),
        churn: (m.crashes, m.rejoins),
        membership: (m.joins, m.leaves, m.moves),
        rejoin_recovery_rounds: rejoin_recovery_rounds(&m.rejoin_alpha),
        rejoin_recoveries: rejoin_recoveries(&m.rejoin_alpha),
        final_states,
        health_transitions,
        holdover_rounds,
        congestion,
        gps: (m.gps_accepted, m.gps_rejected),
        rate_spread_ppm: m.rate_spread_ppm_last,
        cf_failures,
        app_events: (m.app_event_spread.max(), m.app_event_spread.count()),
        actuations: (m.actuation_spread.max(), m.actuation_spread.count()),
        monitor_violations,
    }
}

/// Rounds-to-recover of one completed trajectory: the first convergence
/// (1-based) at which α fell below 10× the trajectory's steady-state (its
/// minimum). `None` for an empty trajectory.
fn recovery_rounds(traj: &[f64]) -> Option<i64> {
    let steady = traj.iter().copied().reduce(f64::min)?;
    traj.iter()
        .position(|&a| a <= steady * 10.0)
        .map(|i| i as i64 + 1)
}

/// Worst rounds-to-recover over all *completed* post-rejoin trajectories
/// (interrupted restarts are excluded — they never had a chance). −1 when
/// no trajectory recovered or none was recorded.
fn rejoin_recovery_rounds(trajectories: &[RejoinTrajectory]) -> i64 {
    let mut worst: i64 = -1;
    for t in trajectories {
        if t.interrupted {
            continue;
        }
        match recovery_rounds(&t.alpha) {
            Some(r) => worst = worst.max(r),
            None if t.alpha.is_empty() => continue,
            None => return -1,
        }
    }
    worst
}

/// Per-restart recovery rounds in lifecycle order — **every** restart gets
/// an entry, −1 marking trajectories that were interrupted by another
/// crash/leave or never recovered.
fn rejoin_recoveries(trajectories: &[RejoinTrajectory]) -> Vec<i64> {
    trajectories
        .iter()
        .map(|t| {
            if t.interrupted {
                -1
            } else {
                recovery_rounds(&t.alpha).unwrap_or(-1)
            }
        })
        .collect()
}

/// Units of 2⁻⁵⁹ s for a duration (ceil).
fn units(d: SimDuration) -> u128 {
    crate::interval::units_ceil(d)
}

/// A clock reading as femtoseconds since the NTP epoch (for the
/// monotonicity monitor; split so the fraction multiply cannot overflow).
fn ntp_to_fs(t: NtpTime) -> i128 {
    let secs = (t.raw() >> FRAC_BITS) as i128;
    let frac = (t.raw() & ((1u128 << FRAC_BITS) - 1)) as i128;
    secs * 1_000_000_000_000_000 + ((frac * 1_000_000_000_000_000) >> FRAC_BITS)
}

/// Receive-side data buffer for a given header slot (the upper half of the
/// Data Buffers section; the lower half serves transmission).
fn rx_data_buf(slot: u32) -> u32 {
    nti_module::DATA_BUF_BASE + 0x2000 + (slot % 32) * 256
}

fn round_target(world: &World, id: usize, k: u32) -> NtpTime {
    let p = units(world.cfg.round_period);
    let stagger = units(world.cfg.stagger) * id as u128;
    NtpTime::from_raw(k as u128 * p + stagger)
}

fn arm_timer(node: &mut Node, idx: usize, target: NtpTime) {
    let secs = target.secs();
    let frac24 = ((target.raw() >> (FRAC_BITS - NTP_FRAC_BITS)) & 0x00FF_FFFF) as u32;
    node.nti.utcsu_mut().arm_timer_regs(idx, secs, frac24);
}

fn arm_round_timers(world: &mut World, id: usize, k: u32) {
    let t0 = round_target(world, id, k);
    let t1 = t0.wrapping_add_units(units(world.cfg.cf_delta) as i128);
    let node = &mut world.nodes[id];
    arm_timer(node, 0, t0);
    arm_timer(node, 1, t1);
}

/// (Re)schedule the DES event that services the node's next UTCSU event.
fn schedule_utcsu_service(world: &mut World, eng: &mut Eng, id: usize) {
    if let Some(ev) = world.nodes[id].utcsu_event.take() {
        eng.cancel(ev);
    }
    let node = &mut world.nodes[id];
    if let Some(tick) = node.nti.utcsu().next_event_tick() {
        let t = node.osc.time_of_tick(tick);
        let at = t.max(eng.now());
        world.nodes[id].utcsu_event =
            Some(eng.schedule_at(at, move |w, e| utcsu_service(w, e, id)));
    }
}

/// The node's interrupt dispatcher: fires when the UTCSU reaches its next
/// internal event (duty timer, amortization end, leap).
fn utcsu_service(world: &mut World, eng: &mut Eng, id: usize) {
    world.nodes[id].utcsu_event = None;
    if world.down[id] {
        return;
    }
    let now = eng.now();
    world.nodes[id].advance(now);
    let pending = world.nodes[id].nti.utcsu().itu.pending();
    // Acknowledge everything we will handle below.
    world.nodes[id]
        .nti
        .write32(UTCSU_BASE + uregs::R_INT_ACK, pending);
    if pending & IntSource::Timer(0).mask() != 0 {
        round_start(world, eng, id);
    }
    if pending & IntSource::Timer(1).mask() != 0 {
        cf_time(world, eng, id);
    }
    if pending & IntSource::Timer(2).mask() != 0 {
        actuation_fired(world, eng, id);
    }
    if pending & IntSource::AmortEnd.mask() != 0 {
        if let Some((dm, dp)) = world.nodes[id].amort_dstep_saved.take() {
            let u = world.nodes[id].nti.utcsu_mut();
            u.acu.set_dstep_minus(dm);
            u.acu.set_dstep_plus(dp);
        }
    }
    schedule_utcsu_service(world, eng, id);
}

/// Step 1: the round duty timer fired — assemble and send the CSP.
fn round_start(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    if let Some(o) = &world.obs {
        o.obs
            .instant(now.as_fs(), id as u32, Subsystem::Cluster, "round_start");
    }
    // Re-arm for the next round.
    let k = world.nodes[id].core.round + 2; // timers armed one round ahead
    let t0 = round_target(world, id, k);
    arm_timer(&mut world.nodes[id], 0, t0);

    // Software transmit stamp is taken during assembly (step 1).
    let sw_stamp = world.nodes[id].read_clock_regs(now);
    let assembly = world.nodes[id].kernel.csp_assembly();
    eng.schedule_at(now + assembly, move |w, e| {
        csp_send(w, e, id, sw_stamp, now)
    });
}

/// Step 2-4: hand the CSP to the COMCO(s) and plan the transmissions.
fn csp_send(world: &mut World, eng: &mut Eng, id: usize, sw_stamp: NtpTime, sw_real: SimTime) {
    let now = eng.now();
    if world.down[id] {
        return; // crashed between assembly and the COMCO hand-off
    }
    world.nodes[id].advance(now);
    let (alpha_m, alpha_p) = world.nodes[id].read_alpha_regs(now);
    let ms = world.nodes[id].clock(now).macrostamp().0;
    let round = world.nodes[id].core.round + 1;
    let byzantine = world.injector.is_byzantine(id, now);
    let payload = CspPayload {
        node: id as u32,
        round,
        // A Byzantine node lies about its accuracy (claims near-perfect
        // knowledge while its value is corrupted in exec_tx_reads).
        alpha_minus: if byzantine { 1 } else { alpha_m.0 },
        alpha_plus: if byzantine { 1 } else { alpha_p.0 },
        macrostamp: ms,
        hw_timestamp: 0,
        hw_acc: 0,
        sw_timestamp: sw_stamp.timestamp().0,
        hops: 0,
    };
    // Write the payload into the sender's NTI data buffer (CPU view), then
    // read it back through the COMCO view: the bytes that ride the wire
    // are whatever the DMA engine fetches from the shared memory, exactly
    // as in Figure 2's data path.
    let payload_bytes: Rc<[u8]> = {
        let node = &mut world.nodes[id];
        let buf = nti_module::DATA_BUF_BASE + (node.tx_slot % 8) * 256;
        let bytes = payload.encode();
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let mut w = [0u8; 4];
            w[..chunk.len()].copy_from_slice(chunk);
            node.nti.write32(
                nti_module::CPU_BASE + buf + i as u32 * 4,
                u32::from_le_bytes(w),
            );
        }
        node.driver.record_tx(Interface::Ci);
        (0..bytes.len().div_ceil(4))
            .flat_map(|i| node.nti.read32(buf + i as u32 * 4).to_le_bytes())
            .take(bytes.len())
            .collect()
    };
    // Control path: the CPU queues a TRANSMIT command block in the System
    // Structures section and strobes channel attention; the COMCO walks the
    // CBL (through its own view) and picks up the order. The real-time cost
    // of this rendezvous is the cmd_latency the tx_ready() draw charges.
    {
        let node = &mut world.nodes[id];
        let slot_hint = node.tx_slot % node.nti.tx_header_count();
        let cb = node
            .scb
            .queue_transmit(&mut node.nti, slot_hint, CSP_PAYLOAD_LEN as u32);
        let orders = nti_module::comco_service(&mut node.nti);
        debug_assert!(
            orders
                .iter()
                .any(|o| o.cb_addr == cb && o.header_slot == slot_hint),
            "COMCO must pick up the queued transmit order"
        );
        let _ = node.scb.ack_interrupt(&mut node.nti);
    }
    let attachments: Vec<usize> = world.topology.attachments(id).to_vec();
    let bits = csp_frame_bits();
    // Root of the CSP's causal span chain: the assembly hop, from the
    // software stamp taken at round start to the COMCO hand-off.
    let mut span = SpanId::NONE;
    if let Some(o) = &world.obs {
        span = o.hop(
            HOP_CSP_SEND,
            now.as_fs(),
            now.saturating_since(sw_real).as_fs(),
            id as u32,
            SpanId::NONE,
        );
    }
    for (a, &lan) in attachments.iter().enumerate() {
        let ready = world.nodes[id].comcos[a].tx_ready(now);
        let grant = world.mediums[lan].grant(ready, bits);
        let header_len = world.cfg.cpld.header_len;
        // Only the TRANSMIT trigger read is time-observable: the reads up
        // to it fold into one event at its instant, the rest (the mapped
        // stamp and accuracy among them) into one at the last read's
        // instant (DESIGN.md §4).
        let plan = world.nodes[id].comcos[a].plan_transmit(grant.wire_start, header_len);
        let reads = plan.header_reads;
        let words = reads.len() as u32;
        let split = reads
            .iter()
            .position(|r| r.offset == world.cfg.cpld.xmt_trigger_off)
            .map_or(0, |i| i as u32 + 1);
        let trigger_at = reads[..split as usize].last().map(|r| r.at.max(now));
        let last_at = reads.last().map(|r| r.at.max(now));
        let receivers = world
            .topology
            .members(lan)
            .iter()
            .filter(|&&m| m != id)
            .count();
        let fid = world.next_flight;
        world.next_flight += 1;
        let corrupted = world.injector.crc_corrupt(id, now);
        world.flights.insert(
            fid,
            Flight {
                src: id,
                lan,
                payload,
                payload_bytes: Rc::clone(&payload_bytes),
                wire_end: grant.wire_end,
                sw_stamp_real: sw_real,
                hw_ts: None,
                hw_acc: None,
                xmit_trigger_real: None,
                corrupted,
                byzantine,
                marked: grant.marked,
                receivers_pending: receivers.max(1),
                span,
                span_t: now,
            },
        );
        world.metrics.csps_sent += 1;
        if let Some(o) = &world.obs {
            o.csps_sent.inc();
        }
        let slot = world.nodes[id].tx_slot % world.nodes[id].nti.tx_header_count();
        world.nodes[id].tx_slot = world.nodes[id].tx_slot.wrapping_add(1);
        if let Some(at) = trigger_at {
            eng.schedule_at(at, move |w, e| {
                exec_tx_reads(w, e, id, fid, a, slot, 0..split)
            });
        }
        if let Some(at) = last_at.filter(|_| split < words) {
            eng.schedule_at(at, move |w, e| {
                exec_tx_reads(w, e, id, fid, a, slot, split..words)
            });
        }
        let we = grant.wire_end;
        eng.schedule_at(we, move |w, e| wire_done(w, e, fid));
    }
}

/// COMCO header reads during transmission (step 4): header `words` of
/// transmit slot `slot`, in order, folded into one event at the last one's
/// instant. The read of the trigger offset fires TRANSMIT; the mapped
/// offsets return the stamp, which we capture into the in-flight frame
/// (that is the "transparent insertion into the outgoing packet").
fn exec_tx_reads(
    world: &mut World,
    eng: &mut Eng,
    id: usize,
    fid: u64,
    a: usize,
    slot: u32,
    words: Range<u32>,
) {
    let now = eng.now();
    if world.down[id] {
        return; // DMA engine lost power mid-transmission
    }
    world.nodes[id].advance(now);
    let Some(flight) = world.flights.get_mut(&fid) else {
        return;
    };
    let cpld = world.cfg.cpld;
    let nti = &mut world.nodes[id].nti;
    for off in words.map(|w| w * 4) {
        let value = if a == 0 {
            // Full-fidelity path through the NTI memory map.
            let addr = nti.tx_header_addr(slot) + off;
            nti.read32(addr)
        } else {
            // Additional attachments (gateways): the decode for SSU `a` is
            // the same CPLD rule on a different header bank; shortcut to
            // the triggers directly.
            if off == cpld.xmt_trigger_off {
                nti.utcsu_mut().trigger_ssu_transmit(a);
            }
            let latch = nti.utcsu().ssu[a].transmit.peek();
            if off == cpld.xmt_map_ts_off {
                latch.map_or(0, |s| s.ts.0)
            } else if off == cpld.xmt_map_acc_off {
                latch.map_or(0, |s| s.acc_packed())
            } else {
                0
            }
        };
        if off == cpld.xmt_trigger_off {
            flight.xmit_trigger_real = Some(now);
            if let Some(o) = &world.obs {
                if flight.span.is_some() {
                    flight.span = o.hop(
                        HOP_XMIT_TRIGGER,
                        now.as_fs(),
                        now.saturating_since(flight.span_t).as_fs(),
                        id as u32,
                        flight.span,
                    );
                    flight.span_t = now;
                }
            }
        } else if off == cpld.xmt_map_ts_off {
            // A Byzantine node cannot forge the hardware insertion itself,
            // but it can have programmed its UTCSU clock arbitrarily; model
            // the effect as a deterministic per-flight corruption of the
            // stamp (0.125 s .. 0.875 s of lie).
            let v = if flight.byzantine {
                value.wrapping_add((((fid % 7) as u32) + 1) << 21)
            } else {
                value
            };
            flight.hw_ts = Some(v);
            flight.payload.hw_timestamp = v;
        } else if off == cpld.xmt_map_acc_off {
            flight.hw_acc = Some(value);
            flight.payload.hw_acc = value;
        }
    }
}

/// Last bit left the wire: fan out receptions on the segment.
fn wire_done(world: &mut World, eng: &mut Eng, fid: u64) {
    let now = eng.now();
    let Some(flight) = world.flights.get(&fid) else {
        return;
    };
    let (src, lan, wire_end) = (flight.src, flight.lan, flight.wire_end);
    let chain = (flight.span, flight.span_t);
    let bytes = Rc::clone(&flight.payload_bytes);
    if world.mediums[lan].is_partitioned() {
        // Severed segment: the frame propagated into the break and reaches
        // no receiver.
        world.flights.remove(&fid);
        return;
    }
    let prop = world.mediums[lan].propagation();
    let members: Vec<usize> = world
        .topology
        .members(lan)
        .iter()
        .copied()
        .filter(|&m| m != src)
        .collect();
    if members.is_empty() {
        world.flights.remove(&fid);
        return;
    }
    // Wire hop: from the TRANSMIT trigger to the last bit leaving the
    // wire (receiver-side propagation lands in each rcv_trigger hop). The
    // medium emits the span under its own subsystem.
    let mut wire_span = SpanId::NONE;
    if chain.0.is_some() {
        let dur = wire_end.saturating_since(chain.1);
        if let Some(o) = &world.obs {
            o.hop_dur(HOP_WIRE, dur.as_fs());
        }
        wire_span = world.mediums[lan].wire_span(wire_end.as_fs(), dur.as_fs(), chain.0);
    }
    let mut scheduled: usize = 0;
    for q in members {
        if world.down[q] {
            continue; // powered-off NIC: the frame falls on deaf ears
        }
        if world.injector.drop_reception(src, q, now) {
            count_drop(world, now, q, DropCause::Injected);
            continue;
        }
        let arrival = wire_end + prop + world.injector.extra_arrival_delay(src, q, now);
        schedule_reception(world, eng, fid, &bytes, q, lan, arrival);
        scheduled += 1;
        if world.injector.duplicate_reception(src, q, now) {
            // A duplicated frame arrives one serialization slot later; the
            // protocol sees the same (sender, round) twice and the inbox
            // take() keeps only the first, but the trigger/latch machinery
            // still exercises the overrun path.
            let dup_at = arrival + world.mediums[lan].serialize(csp_frame_bits());
            schedule_reception(world, eng, fid, &bytes, q, lan, dup_at);
            scheduled += 1;
        }
    }
    if scheduled == 0 {
        world.flights.remove(&fid);
    } else if let Some(flight) = world.flights.get_mut(&fid) {
        flight.receivers_pending = scheduled;
        flight.span = wire_span;
        flight.span_t = wire_end;
    }
}

/// Schedule the COMCO reception pipeline (header writes, data copy,
/// interrupt) for one receiver of one flight, starting at `arrival`.
///
/// Only two of its bus accesses are time-observable: the header write at
/// the CPLD's receive-trigger offset, and the interrupt. The writes up to
/// the trigger (with the data copy after the first) fold into one event at
/// the trigger's instant, the rest into the interrupt event, in plan order
/// (DESIGN.md §4).
fn schedule_reception(
    world: &mut World,
    eng: &mut Eng,
    fid: u64,
    bytes: &Rc<[u8]>,
    q: usize,
    lan: usize,
    arrival: SimTime,
) {
    let a_q = world
        .topology
        .attachment_index(q, lan)
        .expect("member attachment");
    let cpld = world.cfg.cpld;
    let plan = world.nodes[q].comcos[a_q].plan_receive(arrival, cpld.header_len);
    let writes = plan.header_writes;
    let words = writes.len() as u32;
    let trigger = writes
        .iter()
        .position(|w| w.offset == cpld.rcv_trigger_off)
        .map(|k| (k as u32, writes[k].at));
    let int_at = plan.interrupt_at;
    let slot = world.nodes[q].rx_slot % world.nodes[q].nti.rx_header_count();
    world.nodes[q].rx_slot = world.nodes[q].rx_slot.wrapping_add(1);
    let rest = match trigger {
        Some((k, at)) => {
            let data = Rc::clone(bytes);
            eng.schedule_at(at, move |w, e| {
                rx_trigger_event(w, e, q, fid, a_q, slot, k, &data)
            });
            k + 1
        }
        None => 0,
    };
    // Without a trigger write the first store, and so the data copy, rides
    // the interrupt event.
    let data = (rest == 0).then(|| Rc::clone(bytes));
    eng.schedule_at(int_at, move |w, e| {
        if !w.down[q] {
            rx_stores(w, q, a_q, slot, rest..words, data.as_deref());
        }
        rx_complete(w, e, q, fid, a_q, slot)
    });
}

/// Plain COMCO stores of one reception: the run of header `words` of
/// receive slot `slot` (never the trigger word; the simulated COMCO stores
/// zeros there) in one bulk store, and the frame data into the slot's data
/// buffer when the run holds word 0 (the copy follows the first header
/// write). Neither is time-observable: no trigger decodes there, and only
/// `rx_complete` reads them back. The two regions are disjoint, so one bulk
/// store each leaves the memory the word-wise plan order would.
fn rx_stores(
    world: &mut World,
    q: usize,
    a: usize,
    slot: u32,
    words: Range<u32>,
    data: Option<&[u8]>,
) {
    let nti = &mut world.nodes[q].nti;
    if a == 0 && !words.is_empty() {
        let run = nti.rx_header_addr(slot) + words.start * 4;
        nti.comco_clear(run, words.len() as u32 * 4);
    }
    if let (true, Some(bytes)) = (words.contains(&0), data) {
        nti.comco_store(rx_data_buf(slot), bytes);
    }
}

/// The reception's first event, at the receive-trigger write (step 5): the
/// header words before trigger word `k` and the data copy, then the
/// trigger write itself, which fires RECEIVE and latches the header base.
#[allow(clippy::too_many_arguments)]
fn rx_trigger_event(
    world: &mut World,
    eng: &mut Eng,
    q: usize,
    fid: u64,
    a: usize,
    slot: u32,
    k: u32,
    data: &[u8],
) {
    if world.down[q] {
        return;
    }
    world.nodes[q].advance(eng.now());
    rx_stores(world, q, a, slot, 0..k, Some(data));
    rx_trigger_write(world, eng, q, fid, a, slot, k * 4);
    if k == 0 {
        world.nodes[q].nti.comco_store(rx_data_buf(slot), data);
    }
}

/// The header write at the receive-trigger offset `off`, with the
/// trigger-path fault injection.
fn rx_trigger_write(
    world: &mut World,
    eng: &mut Eng,
    q: usize,
    fid: u64,
    a: usize,
    slot: u32,
    off: u32,
) {
    let now = eng.now();
    // The inbound chain head (the wire span) of this frame, when the
    // sender's side was traced.
    let chain = world
        .flights
        .get(&fid)
        .map(|f| (f.span, f.span_t))
        .unwrap_or((SpanId::NONE, now));
    // Trigger-path fault injection: a missed DMA trigger means the stamp
    // is never latched (the frame later drops in rx_complete); a late
    // trigger latches a stamp that post-dates the true arrival.
    if world.injector.missed_trigger(q, now) {
        world
            .injector
            .annotate_span(now, q, "fault_trigger_missed", chain.0, 0);
        world.nodes[q]
            .driver
            .deliver(nti_kernel::ETHERTYPE_CI, fid as usize, Vec::new());
        return;
    }
    if let Some(d) = world.injector.late_trigger(q, now) {
        let xt = world.flights.get(&fid).and_then(|f| f.xmit_trigger_real);
        eng.schedule_at(now + d, move |w, e| {
            if w.down[q] {
                return;
            }
            let t = e.now();
            w.nodes[q].advance(t);
            if let Some(o) = &w.obs {
                if chain.0.is_some() {
                    let rcv = o.hop(
                        HOP_RCV_TRIGGER,
                        t.as_fs(),
                        t.saturating_since(chain.1).as_fs(),
                        q as u32,
                        chain.0,
                    );
                    // The injected lateness rides the chain as a fault
                    // annotation child of the trigger span.
                    w.injector
                        .annotate_span(t, q, "fault_trigger_late", rcv, d.as_fs());
                    w.nodes[q]
                        .nti
                        .utcsu_mut()
                        .stage_trigger_span(rcv, t.as_fs());
                    w.rx_spans.insert((fid, q), (rcv, t));
                }
            }
            if a == 0 {
                let addr = w.nodes[q].nti.rx_header_addr(slot) + off;
                w.nodes[q].nti.write32(addr, 0);
            } else {
                w.nodes[q].nti.utcsu_mut().trigger_ssu_receive(a);
            }
            note_latch_span(w, t, fid, q);
            // The trigger-latency invariant is checked here rather than at
            // the reception interrupt: a trigger this late may miss the
            // latch window entirely, in which case the frame drops before
            // `record_eps` would ever observe the pair.
            if let (Some(m), Some(xt)) = (w.monitors.as_mut(), xt) {
                m.trigger_latency(t.as_fs(), q as u32, t.saturating_since(xt).as_fs());
            }
            w.rx_triggers.insert((fid, q), t);
        });
        world.nodes[q]
            .driver
            .deliver(nti_kernel::ETHERTYPE_CI, fid as usize, Vec::new());
        return;
    }
    // Nominal trigger: the receive hop (propagation plus the header writes
    // preceding the trigger) ends now; stage the span context so the UTCSU
    // parents its latch span under the trigger span.
    if let Some(o) = &world.obs {
        if chain.0.is_some() {
            let rcv = o.hop(
                HOP_RCV_TRIGGER,
                now.as_fs(),
                now.saturating_since(chain.1).as_fs(),
                q as u32,
                chain.0,
            );
            world.nodes[q]
                .nti
                .utcsu_mut()
                .stage_trigger_span(rcv, now.as_fs());
            world.rx_spans.insert((fid, q), (rcv, now));
        }
    }
    if a == 0 {
        let addr = world.nodes[q].nti.rx_header_addr(slot) + off;
        world.nodes[q].nti.write32(addr, 0);
    } else {
        world.nodes[q].nti.utcsu_mut().trigger_ssu_receive(a);
    }
    note_latch_span(world, now, fid, q);
    world.rx_triggers.insert((fid, q), now);
    // The ISR-level driver sees the frame as CI traffic (Figure 9).
    world.nodes[q]
        .driver
        .deliver(nti_kernel::ETHERTYPE_CI, fid as usize, Vec::new());
}

/// A receive trigger just fired with a staged span context: upgrade the
/// recorded chain head to the latch span the UTCSU emitted (which ends one
/// synchronizer delay after the trigger), so the packet-interrupt hop
/// parents on the latch. A null latch span (untraced chain) leaves the
/// trigger span in place.
fn note_latch_span(world: &mut World, now: SimTime, fid: u64, q: usize) {
    let latch = world.nodes[q].nti.utcsu_mut().take_latch_span();
    if latch.is_none() {
        return;
    }
    let lat_fs = world.nodes[q].nti.utcsu().stamp_delay_ticks() * 1_000_000_000_000_000
        / world.cfg.fosc_hz as u128;
    if let Some(o) = &world.obs {
        o.hop_dur(HOP_LATCH, lat_fs);
    }
    world
        .rx_spans
        .insert((fid, q), (latch, now + SimDuration::from_fs(lat_fs)));
}

/// Step 6→7: the packet interrupt; ISR + dispatch; stamps resolved per the
/// timestamping mode; the CSP enters the algorithm.
fn rx_complete(world: &mut World, eng: &mut Eng, q: usize, fid: u64, a: usize, slot: u32) {
    let now = eng.now();
    if world.down[q] {
        // Still decrement the flight bookkeeping so the sender-side state
        // is reclaimed, then drop the frame on the floor.
        if let Some(flight) = world.flights.get_mut(&fid) {
            flight.receivers_pending -= 1;
            if flight.receivers_pending == 0 {
                world.flights.remove(&fid);
            }
        }
        world.rx_triggers.remove(&(fid, q));
        world.rx_spans.remove(&(fid, q));
        return;
    }
    world.nodes[q].advance(now);
    // The protocol software reads the CSP payload out of the receiver's
    // own NTI memory (CPU view) — the bytes the COMCO deposited.
    let mut stored = [0u8; CSP_PAYLOAD_LEN];
    world.nodes[q]
        .nti
        .cpu_load(nti_module::CPU_BASE + rx_data_buf(slot), &mut stored);
    // Pull the receive-trigger instant recorded at the trigger write, and let
    // the driver consume the CI queue entry (KI/NI traffic is untouched).
    let trigger_real = world.rx_triggers.remove(&(fid, q));
    let rx_span = world.rx_spans.remove(&(fid, q));
    let _ = world.nodes[q].driver.pop(Interface::Ci);
    let Some(flight) = world.flights.get_mut(&fid) else {
        return;
    };
    flight.receivers_pending -= 1;
    let sent = flight.payload;
    let (corrupted, marked) = (flight.corrupted, flight.marked);
    let (xmit_trigger_real, sw_stamp_real) = (flight.xmit_trigger_real, flight.sw_stamp_real);
    if flight.receivers_pending == 0 {
        world.flights.remove(&fid);
    }
    // Decode what actually landed in memory; the hardware-inserted fields
    // (transmit stamp + accuracies) came in the *header*, so they are
    // merged from the mapped values the COMCO fetched.
    let payload = match CspPayload::decode(&stored) {
        Some(mut p) => {
            p.hw_timestamp = sent.hw_timestamp;
            p.hw_acc = sent.hw_acc;
            debug_assert_eq!(p, sent, "memory path corrupted the payload");
            p
        }
        None => {
            // Payload missing from memory: an overlapped reception
            // clobbered the data buffer before the ISR read it.
            world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
            count_drop(world, now, q, DropCause::Overrun);
            return;
        }
    };
    if corrupted {
        // Footnote 4: the trigger fired but the frame is discarded; the
        // ISR clears the latch so the stamp is not misattributed.
        world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
        count_drop(world, now, q, DropCause::Crc);
        return;
    }
    let mode = world.cfg.mode;
    let isr = world.nodes[q].kernel.isr_entry() + world.nodes[q].kernel.isr_body();
    let dispatch = world.nodes[q].kernel.task_dispatch();
    // Packet-interrupt hop (latch end → interrupt assertion), then the
    // ISR + dispatch hop the kernel emits; `chain` is what the sync
    // task's accept span parents on.
    let mut chain = SpanId::NONE;
    if let Some(o) = &world.obs {
        if let Some((ls, lt)) = rx_span {
            let ispan = o.hop(
                HOP_INTERRUPT,
                now.as_fs(),
                now.saturating_since(lt).as_fs(),
                q as u32,
                ls,
            );
            let end = now + isr + dispatch;
            let dur_fs = end.saturating_since(now).as_fs();
            chain = world.nodes[q]
                .kernel
                .isr_dispatch_span(end.as_fs(), dur_fs, ispan);
            o.hop_dur(HOP_ISR_DISPATCH, dur_fs);
        }
    }
    match mode {
        TimestampMode::Hardware => {
            // The ISR (after its entry latency) reads the latched stamp; the
            // value was sampled at the trigger regardless of ISR timing.
            let recv_local = match world.nodes[q].take_rx_stamp(a) {
                Some(t) => t,
                None => {
                    // No usable latch: either back-to-back triggers overran
                    // the stamp latch, or an injected missed trigger never
                    // latched one.
                    let cause = if trigger_real.is_some() {
                        DropCause::Overrun
                    } else {
                        DropCause::Injected
                    };
                    count_drop(world, now, q, cause);
                    return;
                }
            };
            if let (Some(tr), Some(tx)) = (trigger_real, xmit_trigger_real) {
                record_eps(world, eng.now(), tr, tx);
                // Trigger-to-latch budget: the measured stamp-pair delay
                // must stay inside the static bound δ_max.
                if let Some(m) = world.monitors.as_mut() {
                    m.trigger_latency(now.as_fs(), q as u32, tr.saturating_since(tx).as_fs());
                }
            }
            let at = now + isr + dispatch;
            eng.schedule_at(at, move |w, e| {
                process_csp(
                    w,
                    e,
                    q,
                    payload,
                    hw_xmit_stamp(&payload),
                    recv_local,
                    marked,
                    chain,
                )
            });
        }
        TimestampMode::InterruptRx => {
            // CSU-style: the stamp is taken when the reception interrupt
            // asserts (now), before any ISR latency.
            world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
            let recv_local = world.nodes[q].read_clock_regs(now);
            if let Some(tx) = xmit_trigger_real {
                record_eps(world, eng.now(), now, tx);
                if let Some(m) = world.monitors.as_mut() {
                    m.trigger_latency(now.as_fs(), q as u32, now.saturating_since(tx).as_fs());
                }
            }
            let at = now + isr + dispatch;
            eng.schedule_at(at, move |w, e| {
                process_csp(
                    w,
                    e,
                    q,
                    payload,
                    hw_xmit_stamp(&payload),
                    recv_local,
                    marked,
                    chain,
                )
            });
        }
        TimestampMode::Software => {
            // Step 7: the stamp is taken when the protocol task processes
            // the packet.
            world.nodes[q].nti.utcsu_mut().ssu[a].receive.clear();
            let at = now + isr + dispatch;
            eng.schedule_at(at, move |w, e| {
                let t = e.now();
                w.nodes[q].advance(t);
                let recv_local = w.nodes[q].read_clock_regs(t);
                record_eps(w, t, t, sw_stamp_real);
                let xmit = sw_xmit_stamp(&payload, recv_local);
                process_csp(w, e, q, payload, xmit, recv_local, marked, chain);
            });
        }
    }
}

/// The sender stamp as `(value, α)` for the hardware-stamped modes,
/// reconstructed from the mapped timestamp + the assembly macrostamp.
fn hw_xmit_stamp(payload: &CspPayload) -> (NtpTime, Accuracy, Accuracy) {
    let ts = nti_simcore::Timestamp(payload.hw_timestamp);
    let ms = nti_simcore::Macrostamp(payload.macrostamp);
    // The macrostamp was pre-computed at assembly; if the 256 s epoch
    // rolled between assembly and the trigger the checksum fails and we
    // fall back to epoch-free reconstruction via the timestamp alone
    // anchored at the macrostamp's epoch (sender re-sends next round).
    let t = NtpTime::from_stamp_pair(ts, ms).unwrap_or_else(|| {
        let secs = ((ms.high_secs() as u128) << 8) | ts.secs8() as u128;
        NtpTime::from_raw(
            (secs << FRAC_BITS) | ((ts.frac24() as u128) << (FRAC_BITS - NTP_FRAC_BITS)),
        )
    });
    let acc = payload.hw_acc;
    (
        t,
        Accuracy((acc & 0xFFFF) as u16),
        Accuracy((acc >> 16) as u16),
    )
}

/// The sender stamp for software mode: the 8.24 software timestamp
/// re-anchored near the receiver's clock (valid because offsets are far
/// below the 256 s wrap).
fn sw_xmit_stamp(payload: &CspPayload, recv_local: NtpTime) -> (NtpTime, Accuracy, Accuracy) {
    let ts = nti_simcore::Timestamp(payload.sw_timestamp);
    let d = ts.wrapping_diff(recv_local.timestamp()) as i128;
    let t = recv_local.wrapping_add_units(d << (FRAC_BITS - NTP_FRAC_BITS));
    (
        t,
        Accuracy(payload.alpha_minus),
        Accuracy(payload.alpha_plus),
    )
}

/// A CSP reception was discarded; attribute the loss so fault-matrix runs
/// can tell CRC failures from latch overruns from injected network loss.
fn count_drop(world: &mut World, now: SimTime, q: usize, cause: DropCause) {
    world.metrics.csps_dropped += 1;
    match cause {
        DropCause::Crc => world.metrics.csps_dropped_crc += 1,
        DropCause::Overrun => world.metrics.csps_dropped_overrun += 1,
        DropCause::Injected => world.metrics.csps_dropped_injected += 1,
    }
    if let Some(o) = &world.obs {
        o.csps_dropped.inc();
        match cause {
            DropCause::Crc => o.csps_dropped_crc.inc(),
            DropCause::Overrun => o.csps_dropped_overrun.inc(),
            DropCause::Injected => o.csps_dropped_injected.inc(),
        }
        o.obs
            .instant(now.as_fs(), q as u32, Subsystem::Cluster, "csp_dropped");
    }
}

fn record_eps(world: &mut World, now: SimTime, recv_real: SimTime, xmit_real: SimTime) {
    if now.as_fs() >= world.cfg.warmup.as_fs() {
        let d = recv_real.saturating_since(xmit_real).as_secs_f64();
        world.metrics.eps_delay.add(d);
        if let Some(o) = &world.obs {
            o.eps_delay_ns.record((d * 1e9) as u64);
        }
    }
}

/// Step 2: preprocessing (delay compensation) and inbox insertion; also
/// feeds the rate estimator. `marked` carries the frame's ECN-style
/// congestion mark into the node's [`CongestionPolicy`].
#[allow(clippy::too_many_arguments)]
fn process_csp(
    world: &mut World,
    eng: &mut Eng,
    q: usize,
    payload: CspPayload,
    xmit: (NtpTime, Accuracy, Accuracy),
    recv_local: NtpTime,
    marked: bool,
    span: SpanId,
) {
    let node = &mut world.nodes[q];
    let csp = ReceivedCsp {
        payload,
        xmit_stamp: node.quantize(xmit.0),
        xmit_alpha: (xmit.1, xmit.2),
        recv_local,
    };
    let p = node.core.preprocess(&csp);
    if !node.core.accept_csp(p, marked) {
        return; // duplicated frame (first stamp stands) or discarded mark
    }
    // Rate estimation uses the slew-compensated local clock: subtracting
    // the cumulative state adjustment keeps enforcement slews out of the
    // rate estimates (they would otherwise register as rate error).
    let rate_local = recv_local.wrapping_add_units(-node.cum_adj_units);
    node.rate.observe(payload.node, csp.xmit_stamp, rate_local);
    world.metrics.csps_delivered += 1;
    if let Some(o) = &world.obs {
        o.csps_delivered.inc();
        if span.is_some() {
            // Terminal hop: the CSP entered the algorithm's inbox.
            o.hop(HOP_ACCEPT, eng.now().as_fs(), 0, q as u32, span);
        }
    }
}

/// Step 3: the CF duty timer fired — rate correction, convergence and
/// enforcement.
fn cf_time(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    // Re-arm CF timer for the next round.
    let k = world.nodes[id].core.round + 2;
    let t1 = round_target(world, id, k).wrapping_add_units(units(world.cfg.cf_delta) as i128);
    arm_timer(&mut world.nodes[id], 1, t1);

    // Membership watchdog: decide from this round's evidence whether to
    // converge or to freeze. A holdover freeze skips *everything*
    // downstream — convergence, enforcement and the rate trim — so the
    // clock free-runs on its last trimmed rate while the ACU keeps
    // deteriorating α at the drift bound (containment is preserved
    // without fresh samples; see `crate::health`).
    let heard = world.nodes[id].core.inbox_len();
    let ext_n = world.nodes[id].core.ext_len();
    if world.nodes[id].health.round_action(heard, ext_n) == RoundAction::Freeze {
        world.nodes[id].core.skip_round();
        if let Some(o) = &world.obs {
            o.obs.instant(
                now.as_fs(),
                id as u32,
                Subsystem::Cluster,
                "holdover_freeze",
            );
        }
        return;
    }

    // Rate synchronization first (the state algorithm assumes the trimmed
    // rate for the coming round). Corrections start after a warm-up (the
    // first rounds' estimates span the initial large state corrections) and
    // are clamped per round so one noisy estimate cannot fling the rate.
    if world.cfg.rate_sync {
        let f = world.cfg.f;
        let corr = world.nodes[id].rate.round_correction(f);
        if world.nodes[id].core.round >= 3 {
            if let Some(corr) = corr {
                // Per-round clamp proportional to the drift budget: poor
                // oscillators need faster trimming; the budget still bounds
                // the reachable rates.
                let clamp = (world.cfg.rho_budget_ppm * 1e-6 / 4.0).max(3e-6);
                let corr = corr.clamp(-clamp, clamp);
                let node = &mut world.nodes[id];
                let step = node.nti.utcsu().ltu.step_units();
                let new = RateSync::corrected_step(step, corr);
                node.nti.utcsu_mut().ltu.set_step_units(new);
            }
        }
    }

    // Convergence-input disagreement, measured before converge() drains
    // the inbox.
    if let Some(o) = &world.obs {
        if let Some(spread) = world.nodes[id].core.inbox_offset_spread_units() {
            let ns = ((spread.unsigned_abs() * 1_000_000_000) >> FRAC_BITS) as u64;
            o.cf_input_spread_ns.record(ns);
            o.obs.value(
                now.as_fs(),
                id as u32,
                Subsystem::Cluster,
                "cf_input_spread_ns",
                ns.min(i64::MAX as u64) as i64,
            );
        }
    }
    let clock = world.nodes[id].read_clock_regs(now);
    let alpha = world.nodes[id].read_alpha_regs(now);
    let was_reintegrating = world.nodes[id].core.reintegrating;
    let converged = world.nodes[id].core.converge(clock, alpha);
    // Digest the round's outcome into the watchdog (quorum evidence was
    // recorded by `round_action` above); `Down`/`Reintegrating` never
    // escalate from here.
    let edge = world.nodes[id].health.note_round(converged.is_some());
    note_health_edge(world, now, id, edge);
    let Some(enf) = converged else {
        return;
    };
    if was_reintegrating && !world.nodes[id].core.reintegrating {
        // First convergence built from a quorum of peer CSPs: the
        // restarted node has reacquired synchronized time and rejoins the
        // ensemble.
        world.metrics.rejoins += 1;
        world.injector.note_rejoin(now, id);
        let edge = world.nodes[id].health.note_rejoined();
        note_health_edge(world, now, id, edge);
    }
    let amort_ticks = world.nodes[id].ticks_for(world.cfg.amortization);
    let node = &mut world.nodes[id];
    match world.cfg.algo {
        AlgoKind::IntervalOa | AlgoKind::IntervalMarzullo if amort_ticks > 0 => {
            // Load the slew-covering accuracies atomically.
            node.nti
                .utcsu_mut()
                .stage_acc_load(enf.new_alpha.0, enf.new_alpha.1);
            node.nti.write32(
                UTCSU_BASE + uregs::R_CTRL,
                uregs::CTRL_RUN | uregs::CTRL_APPLY_ALOAD,
            );
            // Continuous amortization: ASTEP = STEP + δ/ticks.
            if enf.delta_units != 0 {
                let step = node.nti.utcsu().ltu.step_units() as i128;
                let per_tick59 = enf.delta_units / amort_ticks as i128;
                let astep =
                    (step + (per_tick59 >> nti_simcore::ntp::STEP_UNIT_SHIFT)).max(1) as u64;
                let u = node.nti.utcsu_mut();
                u.ltu.set_astep_units(astep);
                u.start_amortization(amort_ticks);
                // Shrink α back by the applied delta over the slew via a
                // temporary negative deterioration (zero-masked by the ACU).
                let applied = ((astep as i128 - step) << nti_simcore::ntp::STEP_UNIT_SHIFT)
                    * amort_ticks as i128;
                node.cum_adj_units += applied;
                let removal = (applied.unsigned_abs() / amort_ticks) as i64;
                let (dm, dp) = u.acu.dsteps();
                node.amort_dstep_saved = Some((dm, dp));
                if enf.delta_units >= 0 {
                    // Clock slews forward: the α⁻ cover shrinks.
                    u.acu.set_dstep_minus(dm - removal);
                } else {
                    u.acu.set_dstep_plus(dp - removal);
                }
            }
        }
        _ => {
            // Instantaneous state step (FTM baseline, or amortization=0).
            let cur = node.nti.utcsu().time();
            node.cum_adj_units += enf.delta_units;
            node.nti
                .utcsu_mut()
                .stage_time_load(cur.wrapping_add_units(enf.delta_units));
            if world.cfg.algo != AlgoKind::Ftm {
                node.nti
                    .utcsu_mut()
                    .stage_acc_load(enf.new_alpha.0, enf.new_alpha.1);
            } else {
                node.nti
                    .utcsu_mut()
                    .stage_acc_load(Accuracy::MAX, Accuracy::MAX);
            }
            node.nti.utcsu_mut().apply_load();
        }
    }
    // α-recovery trajectory for recently restarted nodes: one sample per
    // completed round, until the tracking window closes.
    if !world.nodes[id].core.reintegrating {
        if let Some(&idx) = world.rejoin_track.get(&id) {
            let (am, ap) = world.nodes[id].read_alpha_regs(now);
            let worst = am.max(ap).as_secs_f64();
            world.metrics.rejoin_alpha[idx].alpha.push(worst);
            if world.metrics.rejoin_alpha[idx].alpha.len() >= REJOIN_TRACK_ROUNDS {
                world.rejoin_track.remove(&id);
            }
        }
    }
    schedule_utcsu_service(world, eng, id);
}

/// Record a health-state transition: the `membership/enter_<state>`
/// counter plus a trace instant. A `None` edge (no transition) is a no-op,
/// so callers can feed `HealthTracker` results through unconditionally.
fn note_health_edge(
    world: &mut World,
    now: SimTime,
    id: usize,
    edge: Option<(HealthState, HealthState)>,
) {
    let Some((_, next)) = edge else { return };
    if let Some(o) = &world.obs {
        o.enter_state[next.index()].inc();
        o.obs.instant(
            now.as_fs(),
            id as u32,
            Subsystem::Cluster,
            "health_transition",
        );
    }
}

/// A churn-plan event fired: execute the join / leave / LAN move. Joins
/// ride the restart machinery but draw their boot offset from the
/// dedicated `faults.churn` RNG stream, so churn composes with fault plans
/// without perturbing the lifecycle stream.
fn churn_event(world: &mut World, eng: &mut Eng, ev: ChurnEvent) {
    match ev.kind {
        ChurnKind::Join => {
            if !world.down[ev.node] {
                return; // already up
            }
            world.metrics.joins += 1;
            let init = world.cfg.init_offset;
            let off = SimDuration::from_fs(
                world
                    .injector
                    .churn_rng()
                    .below((2 * init.as_fs()).max(1) as u64) as u128,
            );
            restart_node_with(world, eng, ev.node, off);
        }
        ChurnKind::Leave => {
            if world.down[ev.node] {
                return; // already down
            }
            world.metrics.leaves += 1;
            crash_node(world, eng, ev.node);
        }
        ChurnKind::Move { to_lan } => {
            world.metrics.moves += 1;
            world.topology.move_node(ev.node, to_lan);
        }
    }
}

/// The metric reference instant: simulation time adjusted for a
/// coordinated leap (after an insertion, UTC — and every UTC-following
/// clock — reads one second less).
fn ref_time(world: &World, now: SimTime) -> SimTime {
    match world.cfg.leap_insert_at_sec {
        Some(sec) if now >= SimTime::from_secs(sec as u64) => now - SimDuration::from_secs(1),
        _ => now,
    }
}

/// Whether metric collection is suspended (nodes straddle the leap
/// boundary at slightly different real instants).
fn in_leap_blackout(world: &World, now: SimTime) -> bool {
    match world.cfg.leap_insert_at_sec {
        Some(sec) => {
            let t = SimTime::from_secs(sec as u64);
            now.abs_diff(t) < SimDuration::from_millis(1500)
        }
        None => false,
    }
}

/// A synchronized actuation duty timer fired: record the real instant;
/// once every node fired, the spread is one simultaneity sample. Re-arms
/// one round period later.
fn actuation_fired(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    if world.down.iter().any(|&d| d) {
        // A crashed node can never complete the barrier; discard partial
        // samples rather than recording a bogus spread.
        world.metrics.actuation_pending.clear();
        if world.down[id] {
            return;
        }
        let node = &mut world.nodes[id];
        let next = node.nti.utcsu().timers[2]
            .target()
            .wrapping_add_units(units(world.cfg.round_period) as i128);
        arm_timer(node, 2, next);
        return;
    }
    world.metrics.actuation_pending.push(now);
    if world.metrics.actuation_pending.len() == world.nodes.len() {
        let v = std::mem::take(&mut world.metrics.actuation_pending);
        if now.as_fs() >= world.cfg.warmup.as_fs() {
            let min = v.iter().min().expect("nonempty");
            let max = v.iter().max().expect("nonempty");
            world
                .metrics
                .actuation_spread
                .add(max.saturating_since(*min).as_secs_f64());
        }
    }
    // Re-arm at the previous absolute target plus one round period (the
    // disarmed timer still holds its old target registers).
    let node = &mut world.nodes[id];
    let next = node.nti.utcsu().timers[2]
        .target()
        .wrapping_add_units(units(world.cfg.round_period) as i128);
    arm_timer(node, 2, next);
}

/// Periodic HWSNAP sweep: precision, accuracy, containment.
fn snapshot(world: &mut World, eng: &mut Eng) {
    let now = eng.now();
    let mut times: Vec<NtpTime> = Vec::with_capacity(world.nodes.len());
    let mut rates: Vec<f64> = Vec::with_capacity(world.nodes.len());
    let in_window = now.as_fs() >= world.cfg.warmup.as_fs() && !in_leap_blackout(world, now);
    for id in 0..world.nodes.len() {
        // Crashed nodes hold no clock; reintegrating nodes are excluded
        // from ensemble metrics until they have reacquired synchronized
        // time (their cold-start interval would otherwise dominate).
        if world.down[id] || world.nodes[id].core.reintegrating {
            continue;
        }
        world.nodes[id].advance(now);
        let stamp = world.nodes[id].nti.utcsu_mut().trigger_hwsnap();
        let _ = world.nodes[id].nti.utcsu_mut().snu.take();
        let t = world.nodes[id].nti.utcsu().time();
        // A holdover node free-runs outside the precision ensemble (its
        // clock is honest but no longer trimmed); its containment claim is
        // still checked — routed to the dedicated monitor below.
        let holdover = world.nodes[id].health.state() == HealthState::Holdover;
        if !holdover {
            times.push(t);
            rates.push(world.nodes[id].effective_rate_ppm(now));
        }
        if in_window {
            let reference = ref_time(world, now);
            let (am, ap) = world.nodes[id].nti.utcsu().alpha();
            let iv = AccInterval::from_alpha(t, am, ap);
            let contained = iv.contains_time(reference);
            world.metrics.containment_checks += 1;
            if !contained {
                world.metrics.containment_violations += 1;
            }
            let signed_err = iv.value_error_secs(reference);
            let err = signed_err.abs();
            let a_max = am.as_secs_f64().max(ap.as_secs_f64());
            world.metrics.true_error.add(err);
            world.metrics.alpha.add(a_max);
            if let Some(o) = &world.obs {
                o.true_error_ns.record((err * 1e9) as u64);
                o.alpha_ns.record((a_max * 1e9) as u64);
            }
            if let Some(m) = world.monitors.as_mut() {
                if holdover {
                    m.holdover_containment(
                        now.as_fs(),
                        id as u32,
                        contained,
                        (signed_err * 1e15) as i128,
                    );
                } else {
                    m.containment(
                        now.as_fs(),
                        id as u32,
                        contained,
                        (signed_err * 1e15) as i128,
                    );
                }
                m.clock_sample(now.as_fs(), id as u32, ntp_to_fs(t));
            }
            let _ = stamp;
        }
    }
    if in_window {
        let mut worst = 0.0f64;
        for i in 0..times.len() {
            for j in i + 1..times.len() {
                worst = worst.max(times[i].diff_secs_f64(times[j]).abs());
            }
        }
        world.metrics.precision.add(worst);
        if let Some(m) = world.monitors.as_mut() {
            m.precision(now.as_fs(), (worst * 1e15) as u128);
        }
        if let Some(o) = &world.obs {
            let ns = (worst * 1e9) as u64;
            o.precision_ns.record(ns);
            o.obs.value(
                now.as_fs(),
                GLOBAL_NODE,
                Subsystem::Cluster,
                "precision_ns",
                ns.min(i64::MAX as u64) as i64,
            );
        }
        let rmax = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rmin = rates.iter().copied().fold(f64::INFINITY, f64::min);
        world.metrics.rate_spread_ppm_last = rmax - rmin;
    }
    // Membership gauges: how many nodes currently sit in each state.
    if let Some(o) = &world.obs {
        let mut counts = [0i64; HEALTH_STATES.len()];
        for node in &world.nodes {
            counts[node.health.state().index()] += 1;
        }
        for (g, &c) in o.state_gauge.iter().zip(counts.iter()) {
            g.set(c);
        }
    }
    // Mid-run status publication for external readers (the serving layer).
    // Wait-free for this (the simulation) thread; gated on the cell so
    // cell-less runs stay bit-identical.
    if world.cfg.status_cell.is_some() {
        world.status_publishes += 1;
        let frame = world.status(now);
        let cell = world.cfg.status_cell.as_ref().expect("checked above");
        cell.publish(&frame);
        if let Some(o) = &world.obs {
            o.status_publishes.add(1);
        }
    }
}

/// GPS per-second generator: emit the pulse for `sec` and schedule the
/// stamp and TOD handling. The per-second cadence itself is a periodic
/// engine event (`schedule_every` in `Cluster::new`).
fn gps_second(world: &mut World, eng: &mut Eng, id: usize, g: usize, sec: u64) {
    if world.down[id] {
        // The receiver keeps running, but the crashed node samples nothing.
        return;
    }
    if let Some(pulse) = world.nodes[id].gps[g].pulse_for_second(sec) {
        // The GPU samples at the first tick after the edge plus the
        // synchronizer stages.
        let stages = world.nodes[id].nti.utcsu().stamp_delay_ticks();
        let idx = world.nodes[id].osc.ticks_at(pulse.at) + (stages - 1);
        let sample_at = world.nodes[id].osc.time_of_tick(idx).max(pulse.at);
        eng.schedule_at(sample_at, move |w, e| {
            if w.down[id] {
                return;
            }
            w.nodes[id].advance(e.now());
            w.nodes[id].nti.utcsu_mut().trigger_gpu(g);
        });
        eng.schedule_at(pulse.tod_at, move |w, e| gps_tod(w, e, id, g, pulse));
    }
}

/// TOD message arrived: validate the external interval and feed it to the
/// CF on acceptance.
fn gps_tod(world: &mut World, eng: &mut Eng, id: usize, g: usize, pulse: nti_gps::PpsEvent) {
    let now = eng.now();
    if world.down[id] {
        return;
    }
    world.nodes[id].advance(now);
    let Some(stamp) = world.nodes[id].nti.utcsu_mut().gpu[g].pps.take() else {
        return;
    };
    let Some(stamp_local) = stamp.time() else {
        return;
    };
    let fosc = world.nodes[id].osc.nominal_hz();
    let extra = SimDuration::from_fs(3 * 1_000_000_000_000_000 / fosc as u128);
    let ext = gps_observation(pulse.tod_second, pulse.claimed_accuracy, stamp_local, extra);
    // Validation interval: the node's own current interval, with the
    // external observation drift-compensated to now.
    let clock = world.nodes[id].read_clock_regs(now);
    let alpha = world.nodes[id].read_alpha_regs(now);
    let own = AccInterval::from_alpha(clock, alpha.0, alpha.1);
    let ext_now = world.nodes[id].core.drift_compensate(&ext, clock);
    if world.cfg.gps_blind_trust || validate(&ext_now, &own).is_some() {
        world.nodes[id].vstats.accepted += 1;
        world.nodes[id].core.accept_external(ext);
    } else {
        world.nodes[id].vstats.rejected += 1;
    }
}

/// Poisson background NI traffic: occupies the medium.
fn bg_load(world: &mut World, eng: &mut Eng, id: usize) {
    let Some(load) = world.cfg.bg_load else {
        return;
    };
    let now = eng.now();
    if !world.down[id] {
        let lan = world.topology.attachments(id)[0];
        let bits = ((nti_netsim::frame::PREAMBLE_LEN
            + nti_netsim::frame::HEADER_LEN
            + load.frame_bytes.max(nti_netsim::frame::MIN_PAYLOAD)
            + nti_netsim::frame::FCS_LEN)
            * 8) as u64;
        let _ = world.mediums[lan].grant(now, bits);
        world.metrics.bg_frames += 1;
    }
    // Draw the next arrival from the node's kernel RNG stream (exponential).
    let mean = 1.0 / load.frames_per_sec.max(1e-9);
    let mut rng = SimRng::new(world.cfg.seed ^ (id as u64) ^ world.metrics.bg_frames);
    let dt = SimDuration::from_secs_f64(rng.exponential(mean).max(1e-6));
    eng.schedule_at(now + dt, move |w, e| bg_load(w, e, id));
}

/// A global application event: the same physical edge reaches every
/// node's APU 0; each UTCSU samples it at its own next-tick-plus-
/// synchronizer instant. The cross-node spread of the resulting stamps is
/// the end-to-end "relating sensor data" error: clock skew plus sampling
/// quantization.
fn app_event(world: &mut World, eng: &mut Eng, ev: u64) {
    let now = eng.now();
    let n = world.nodes.len();
    if world.down.iter().any(|&d| d) {
        // The all-nodes barrier cannot complete while any node is dark;
        // skip this event (the periodic engine event keeps the cadence).
        return;
    }
    world.app_pending.insert(ev, Vec::with_capacity(n));
    for id in 0..n {
        let stages = world.nodes[id].nti.utcsu().stamp_delay_ticks();
        let idx = world.nodes[id].osc.ticks_at(now) + (stages - 1);
        let sample_at = world.nodes[id].osc.time_of_tick(idx).max(now);
        eng.schedule_at(sample_at, move |w, e| {
            if w.down[id] {
                return;
            }
            w.nodes[id].advance(e.now());
            if let Some(stamp) = w.nodes[id].nti.utcsu_mut().trigger_apu(0) {
                if let Some(t) = w.nodes[id].nti.utcsu_mut().apu[0]
                    .event
                    .take()
                    .and_then(|_| stamp.time())
                {
                    if let Some(v) = w.app_pending.get_mut(&ev) {
                        v.push(t);
                        if v.len() == w.nodes.len() {
                            let v = w.app_pending.remove(&ev).expect("just present");
                            if e.now().as_fs() >= w.cfg.warmup.as_fs() {
                                let mut worst = 0.0f64;
                                for i in 0..v.len() {
                                    for j in i + 1..v.len() {
                                        worst = worst.max(v[i].diff_secs_f64(v[j]).abs());
                                    }
                                }
                                w.metrics.app_event_spread.add(worst);
                            }
                        }
                    }
                }
            }
        });
    }
}

/// A fault-plan episode boundary: re-evaluate every window-dependent
/// injection that is applied as *state* rather than sampled per event.
fn fault_boundary(world: &mut World, eng: &mut Eng) {
    let now = eng.now();
    world.injector.note_boundary(now);
    apply_lan_faults(world, now);
}

/// Push the currently active LAN-targeted episodes into the mediums:
/// partition flags and asymmetric extra propagation delay.
fn apply_lan_faults(world: &mut World, now: SimTime) {
    for l in 0..world.mediums.len() {
        world.mediums[l].set_extra_propagation(world.injector.lan_extra_delay(l, now));
        world.mediums[l].set_partitioned(world.injector.lan_partitioned(l, now));
    }
}

/// A crash episode begins: the node loses power. Its UTCSU state is gone,
/// pending service events are cancelled, and any frame it currently has on
/// the wire is truncated (receivers see an FCS failure).
fn crash_node(world: &mut World, eng: &mut Eng, id: usize) {
    if world.down[id] {
        return;
    }
    let now = eng.now();
    world.nodes[id].advance(now);
    world.down[id] = true;
    world.metrics.crashes += 1;
    world.injector.note_crash(now, id);
    let edge = world.nodes[id].health.set_down();
    note_health_edge(world, now, id, edge);
    if let Some(idx) = world.rejoin_track.remove(&id) {
        // Crashed (or left) again before the post-rejoin tracking window
        // closed: that restart never recovered.
        world.metrics.rejoin_alpha[idx].interrupted = true;
    }
    if let Some(m) = world.monitors.as_mut() {
        m.reset_clock(id as u32);
    }
    if let Some(ev) = world.nodes[id].utcsu_event.take() {
        eng.cancel(ev);
    }
    for flight in world.flights.values_mut() {
        if flight.src == id {
            flight.corrupted = true;
        }
    }
}

/// A reintegrating node only rejoins once it can hear a real quorum:
/// `f + 1` masks faults, and a majority of the node's *neighborhood* (the
/// distinct peers sharing a segment with it — all a node can ever hear
/// directly) prevents a minority island inside a partition from counting
/// as "recovered". On a single LAN the neighborhood is the whole ensemble
/// and this reduces to `n / 2`.
fn reintegration_quorum_for(topo: &Topology, id: usize, f: usize) -> usize {
    let mut peers: Vec<usize> = topo
        .attachments(id)
        .iter()
        .flat_map(|&l| topo.members(l).iter().copied())
        .filter(|&p| p != id)
        .collect();
    peers.sort_unstable();
    peers.dedup();
    (f + 1).max(peers.len().div_ceil(2))
}

/// A crash episode ends: the node powers back up with a cold UTCSU. It
/// re-seeds its clock near the reference (boot-time estimate, e.g. from an
/// RTC) with a wide accuracy cover and rejoins the algorithm as a
/// *reintegrating* participant: it listens and converges on peer CSPs but
/// contributes no own interval until its first convergence completes
/// (a-posteriori initial synchronization, Section 6 of the paper).
fn restart_node(world: &mut World, eng: &mut Eng, id: usize) {
    if !world.down[id] {
        return;
    }
    let init_offset = world.cfg.init_offset;
    let off = SimDuration::from_fs(
        world
            .injector
            .lifecycle_rng()
            .below((2 * init_offset.as_fs()).max(1) as u64) as u128,
    );
    restart_node_with(world, eng, id, off);
}

/// [`restart_node`] with the boot-clock offset supplied by the caller —
/// the fault lifecycle and churn joins draw it from *different* RNG
/// streams so the two compose deterministically.
fn restart_node_with(world: &mut World, eng: &mut Eng, id: usize, off: SimDuration) {
    if !world.down[id] {
        return;
    }
    let now = eng.now();
    let (fosc_hz, cpld, init_offset) = (world.cfg.fosc_hz, world.cfg.cpld, world.cfg.init_offset);
    let mut nti = Nti::new(
        UtcsuConfig {
            fosc_hz,
            reliable_pin: true,
        },
        cpld,
    );
    // Catch the fresh UTCSU's tick counter up with the physical oscillator
    // (which never stopped) *before* starting the clock, so no clock time
    // accumulates during the outage.
    nti.utcsu_mut()
        .advance_to_tick(world.nodes[id].osc.ticks_at(now));
    let g_margin = SimDuration::from_nanos(120);
    let boot = NtpTime::from_sim_time(ref_time(world, now) + off);
    nti.utcsu_mut().stage_time_load(boot);
    nti.utcsu_mut().stage_acc_load(
        Accuracy::from_duration_ceil(init_offset * 2 + g_margin),
        Accuracy::from_duration_ceil(g_margin),
    );
    nti.utcsu_mut().sync_run();
    nti.write32(UTCSU_BASE + uregs::R_INT_MASK, u32::MAX);
    let node = &mut world.nodes[id];
    node.nti = nti;
    node.driver = ComcoDriver::new();
    node.scb = nti_module::ScbDriver::default();
    node.core = SyncCore::new(world.params, world.cfg.algo);
    node.core.blind_external = world.cfg.gps_blind_trust;
    node.core.reintegration_quorum = reintegration_quorum_for(&world.topology, id, world.cfg.f);
    node.core.congestion = world.cfg.congestion;
    node.core.reintegrating = true;
    node.rate = RateSync::new();
    node.vstats = ValidationStats::default();
    node.rx_slot = 0;
    node.tx_slot = 0;
    node.amort_dstep_saved = None;
    node.cum_adj_units = 0;
    node.scb.init(&mut node.nti);
    node.program_dsteps(world.cfg.rho_budget_ppm);
    for g in 0..node.gps.len() {
        node.nti.utcsu_mut().gpu[g].enabled = true;
    }
    if world.cfg.app_event_period.is_some() {
        node.nti.utcsu_mut().apu[0].enabled = true;
    }
    if let Some(sec) = world.cfg.leap_insert_at_sec {
        if now < SimTime::from_secs(sec as u64) {
            node.nti.write32(UTCSU_BASE + uregs::R_LEAP_SECS, sec);
            node.nti.write32(
                UTCSU_BASE + uregs::R_CTRL,
                uregs::CTRL_RUN | uregs::CTRL_LEAP_INSERT,
            );
        }
    }
    // Resume the round schedule at the next boundary after the boot clock.
    let p = units(world.cfg.round_period);
    let k = (boot.raw() / p + 1) as u32;
    world.nodes[id].core.round = k - 1;
    arm_round_timers(world, id, k);
    if let Some(sec) = world.cfg.actuation_start_sec {
        let start = (sec as u128) << FRAC_BITS;
        let target = if boot.raw() >= start {
            start + ((boot.raw() - start) / p + 1) * p
        } else {
            start
        };
        arm_timer(&mut world.nodes[id], 2, NtpTime::from_raw(target));
    }
    world.down[id] = false;
    let edge = world.nodes[id].health.set_reintegrating();
    note_health_edge(world, now, id, edge);
    if let Some(m) = world.monitors.as_mut() {
        // The reseeded boot clock may legitimately read earlier than the
        // pre-crash clock.
        m.reset_clock(id as u32);
    }
    // Every restart opens its own trajectory (an interrupted predecessor
    // was already closed by `crash_node`).
    world.metrics.rejoin_alpha.push(RejoinTrajectory {
        node: id,
        alpha: Vec::new(),
        interrupted: false,
    });
    world
        .rejoin_track
        .insert(id, world.metrics.rejoin_alpha.len() - 1);
    schedule_utcsu_service(world, eng, id);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(n: usize) -> ClusterConfig {
        let mut c = ClusterConfig::default_lan(n, 42);
        c.duration = SimDuration::from_secs(12);
        c.warmup = SimDuration::from_secs(4);
        c.snapshot_every = SimDuration::from_millis(500);
        c
    }

    #[test]
    fn two_nodes_converge_to_microsecond_precision() {
        let mut cfg = quick_cfg(2);
        cfg.f = 0;
        let rep = Cluster::new(cfg).run();
        assert!(rep.csps.0 > 10, "CSPs sent: {:?}", rep.csps);
        assert!(rep.csps.1 > 10, "CSPs delivered: {:?}", rep.csps);
        assert!(
            rep.worst_precision_s < 5e-6,
            "precision {} s (report {:?})",
            rep.worst_precision_s,
            rep
        );
        assert_eq!(rep.containment.0, 0, "containment violated: {rep:?}");
    }

    #[test]
    fn four_nodes_with_fault_tolerance() {
        let cfg = quick_cfg(4);
        let rep = Cluster::new(cfg).run();
        // Without rate synchronization, precision is dominated by drift
        // accumulation between rounds: ~2ρP = 20 us at ±10 ppm, P = 1 s —
        // exactly why Section 2 calls rate synchronization inevitable for
        // the 1 us target.
        assert!(
            rep.worst_precision_s < 40e-6,
            "precision {}",
            rep.worst_precision_s
        );
        assert_eq!(rep.containment.0, 0);
        assert_eq!(rep.cf_failures, 0);
    }

    #[test]
    fn rate_sync_brings_precision_to_microseconds() {
        let mut cfg = quick_cfg(4);
        cfg.rate_sync = true;
        cfg.duration = SimDuration::from_secs(30);
        cfg.warmup = SimDuration::from_secs(15);
        let rep = Cluster::new(cfg).run();
        assert!(
            rep.worst_precision_s < 5e-6,
            "rate-synchronized precision {}",
            rep.worst_precision_s
        );
        assert_eq!(rep.containment.0, 0);
    }

    #[test]
    fn hardware_mode_eps_is_sub_50us() {
        let cfg = quick_cfg(2);
        let rep = Cluster::new(cfg).run();
        assert!(rep.eps_samples > 5);
        assert!(rep.eps_spread_s < 50e-6, "eps spread {}", rep.eps_spread_s);
    }

    #[test]
    fn software_mode_is_much_worse() {
        let mut hw = quick_cfg(2);
        hw.f = 0;
        let mut sw = quick_cfg(2);
        sw.f = 0;
        sw.mode = TimestampMode::Software;
        let r_hw = Cluster::new(hw).run();
        let r_sw = Cluster::new(sw).run();
        assert!(
            r_sw.eps_spread_s > r_hw.eps_spread_s * 5.0,
            "sw {} vs hw {}",
            r_sw.eps_spread_s,
            r_hw.eps_spread_s
        );
        assert!(r_sw.worst_precision_s > r_hw.worst_precision_s);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Cluster::new(quick_cfg(3)).run();
        let b = Cluster::new(quick_cfg(3)).run();
        assert_eq!(a.worst_precision_s.to_bits(), b.worst_precision_s.to_bits());
        assert_eq!(a.csps, b.csps);
    }

    #[test]
    fn gps_validation_accepts_healthy_rejects_faulty() {
        let mut cfg = quick_cfg(3);
        cfg.duration = SimDuration::from_secs(15);
        cfg.gps = vec![
            GpsNodeCfg {
                node: 0,
                cfg: GpsConfig::default(),
                faults: vec![],
            },
            GpsNodeCfg {
                node: 1,
                cfg: GpsConfig::default(),
                faults: vec![GpsFault::Offset {
                    from: 0,
                    until: 100,
                    offset: SimDuration::from_millis(2),
                }],
            },
        ];
        let rep = Cluster::new(cfg).run();
        assert!(rep.gps.0 > 5, "healthy receiver accepted: {:?}", rep.gps);
        assert!(rep.gps.1 > 5, "faulty receiver rejected: {:?}", rep.gps);
        assert_eq!(rep.containment.0, 0);
    }

    #[test]
    fn rate_sync_reduces_rate_spread() {
        let mut with = quick_cfg(4);
        with.rate_sync = true;
        with.duration = SimDuration::from_secs(20);
        let mut without = quick_cfg(4);
        without.duration = SimDuration::from_secs(20);
        let r_with = Cluster::new(with).run();
        let r_without = Cluster::new(without).run();
        assert!(
            r_with.rate_spread_ppm < r_without.rate_spread_ppm / 2.0,
            "with {} vs without {}",
            r_with.rate_spread_ppm,
            r_without.rate_spread_ppm
        );
    }

    #[test]
    fn ftm_baseline_runs_and_synchronizes_coarsely() {
        let mut cfg = quick_cfg(4);
        cfg.algo = AlgoKind::Ftm;
        cfg.granularity = SimDuration::from_micros(1);
        let rep = Cluster::new(cfg).run();
        assert!(
            rep.worst_precision_s < 100e-6,
            "precision {}",
            rep.worst_precision_s
        );
        assert!(rep.csps.1 > 20);
    }

    #[test]
    fn gateway_topology_bridges_time() {
        let mut cfg = quick_cfg(0);
        cfg.topology = Topology::chain_of_lans(2, 2); // 4 ordinary + 1 gateway
        cfg.f = 0;
        cfg.duration = SimDuration::from_secs(16);
        let rep = Cluster::new(cfg).run();
        assert!(
            rep.worst_precision_s < 60e-6,
            "cross-LAN precision {}",
            rep.worst_precision_s
        );
        assert_eq!(rep.containment.0, 0);
    }

    #[test]
    fn redundant_gateways_enable_fault_tolerant_bridging() {
        // With f = 1 a single gateway is trimmed as an extreme (see E10);
        // two gateways per adjacency survive the trim and keep the
        // segments coupled.
        let run = |redundancy: usize| {
            let mut cfg = quick_cfg(0);
            cfg.topology = Topology::chain_of_lans_redundant(2, 3, redundancy);
            cfg.f = 1;
            cfg.rate_sync = true;
            cfg.duration = SimDuration::from_secs(24);
            cfg.warmup = SimDuration::from_secs(10);
            Cluster::new(cfg).run()
        };
        let single = run(1);
        let redundant = run(2);
        assert_eq!(redundant.containment.0, 0);
        assert!(
            redundant.worst_precision_s < single.worst_precision_s / 3.0,
            "redundant {} vs single {}",
            redundant.worst_precision_s,
            single.worst_precision_s
        );
        assert!(redundant.worst_precision_s < 20e-6, "{redundant:?}");
    }

    #[test]
    fn coordinated_leap_second_during_synchronized_operation() {
        let mut cfg = quick_cfg(3);
        cfg.f = 0;
        cfg.leap_insert_at_sec = Some(8);
        cfg.duration = SimDuration::from_secs(16);
        cfg.warmup = SimDuration::from_secs(4);
        let rep = Cluster::new(cfg).run();
        assert_eq!(rep.containment.0, 0, "{rep:?}");
        assert!(
            rep.worst_precision_s < 40e-6,
            "precision through the leap: {rep:?}"
        );
        assert!(rep.containment.1 > 10, "checks must resume after the leap");
    }

    #[test]
    fn temperature_oscillators_stay_contained() {
        let mut cfg = quick_cfg(3);
        cfg.f = 0;
        cfg.drift = DriftSpec::Temperature {
            mean_ppm: 5.0,
            amp_ppm: 2.0,
            period: SimDuration::from_secs(60),
        };
        cfg.rho_budget_ppm = 8.0;
        let rep = Cluster::new(cfg).run();
        assert_eq!(rep.containment.0, 0, "{rep:?}");
        assert!(rep.worst_precision_s < 40e-6);
    }

    #[test]
    #[should_panic(expected = "drift budget")]
    fn rejects_underspecified_drift_budget() {
        let mut cfg = quick_cfg(2);
        cfg.rho_budget_ppm = 1.0; // population is ±10 ppm
        let _ = Cluster::new(cfg);
    }
}
