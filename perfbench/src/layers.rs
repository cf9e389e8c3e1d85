//! The layer-isolation harness: each layer's public functions timed on
//! their own, on inputs shaped like the workload (fan-in, queue depth,
//! node count and event mix come from the traced run's counters).
//!
//! Every figure is the median over [`BATCHES`] batches of the per-call
//! time. The harness also prices each layer's share of the traced advance
//! (Σ count × isolated ns): a coverage line to read next to the trace,
//! reported and never gated.

use crate::serverun;
use crate::simrun::Counters;
use crate::stats::median;
use nti_core::cluster::{csp_frame_bits, ClusterConfig};
use nti_core::interval::AccInterval;
use nti_core::status::StatusCell;
use nti_kernel::{ComcoDriver, Interface, Kernel, ETHERTYPE_CI};
use nti_module::{Nti, UTCSU_BASE};
use nti_netsim::{Comco, Medium};
use nti_serve::packet::MODE_CLIENT;
use nti_serve::{classify, ClockHandle, NtpPacket};
use nti_simcore::{Engine, EventId, NtpTime, QueueKind, SimDuration, SimRng, SimTime};
use nti_utcsu::{Acu, UtcsuConfig};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per function.
const BATCHES: usize = 9;

/// Events fired per engine replay.
const REPLAY_EVENTS: u64 = 400_000;

/// Engine replays per workload.
const REPLAYS: usize = 3;

/// The workload shape the isolated calls are fed with.
#[derive(Clone, Debug)]
pub struct Shape {
    pub nodes: usize,
    /// Broadcast rounds per node over the traced span.
    pub rounds: f64,
    /// CSPs a node feeds its convergence function per round (own included).
    pub fan_in: usize,
    /// Engine events fired per node per round (how finely a round's UTCSU
    /// advance is split).
    pub advances_per_round: usize,
    /// Amortization starts per node per round.
    pub amort_per_round: f64,
    /// Median live engine queue depth.
    pub depth: usize,
    pub cancelled_per_fired: f64,
    pub fired_per_sim_s: f64,
}

impl Shape {
    /// Derive the shape from a traced run of `cfg` covering `sim_s`.
    pub fn from_counters(cfg: &ClusterConfig, c: &Counters, sim_s: f64) -> Shape {
        let nodes = cfg.topology.node_count();
        // Round k broadcasts at k round periods (plus the stagger), so a
        // span of `sim_s` holds ceil(sim_s / P) - 1 broadcast rounds.
        let rounds = ((sim_s / cfg.round_period.as_secs_f64()).ceil() - 1.0).max(1.0);
        let node_rounds = nodes as f64 * rounds;
        let fired = c.events_fired.max(1) as f64;
        Shape {
            nodes,
            rounds,
            fan_in: (c.csps_delivered as f64 / node_rounds).round() as usize + 1,
            advances_per_round: ((fired / node_rounds).round() as usize).max(1),
            amort_per_round: c.amort_starts as f64 / node_rounds,
            depth: (c.queue_depth_p50 as usize).max(1),
            cancelled_per_fired: c.events_cancelled as f64 / fired,
            fired_per_sim_s: fired / sim_s.max(1e-9),
        }
    }
}

/// Isolated per-call costs, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Isolated {
    pub replay_ns_per_event: f64,
    pub trigger_ns: f64,
    pub advance_ns: f64,
    pub header_write_ns: f64,
    pub plan_receive_ns: f64,
    pub grant_ns: f64,
    pub isr_path_ns: f64,
    pub cf_oa_ns: f64,
    pub classify_ns: f64,
    pub respond_ns: f64,
    pub status_read_ns: f64,
}

/// Median nanoseconds per call of `op` over [`BATCHES`] batches of `n`
/// calls (after one untimed warm-up batch).
fn time_op(n: usize, mut op: impl FnMut(usize)) -> f64 {
    (0..n).for_each(&mut op);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            (0..n).for_each(&mut op);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&samples)
}

/// A module built and started the way `Cluster::new` builds one.
fn module(cfg: &ClusterConfig) -> Nti {
    let mut nti = Nti::new(
        UtcsuConfig {
            fosc_hz: cfg.fosc_hz,
            reliable_pin: true,
        },
        cfg.cpld,
    );
    nti.utcsu_mut()
        .stage_time_load(NtpTime::from_sim_time(SimTime::ZERO));
    nti.utcsu_mut().sync_run();
    let d = Acu::dstep_for_drift(cfg.fosc_hz, cfg.rho_budget_ppm);
    nti.utcsu_mut().acu.set_dstep_minus(d);
    nti.utcsu_mut().acu.set_dstep_plus(d);
    nti.write32(UTCSU_BASE + nti_utcsu::regs::R_INT_MASK, u32::MAX);
    nti
}

/// Time every layer function the benchmark isolates.
pub fn isolate(cfg: &ClusterConfig, shape: &Shape, seed: u64) -> Isolated {
    let rng = SimRng::new(seed).split("perfbench-layers");
    let header_len = cfg.cpld.header_len;

    // simcore: the engine replaying the workload's event mix.
    let replays: Vec<f64> = (0..REPLAYS as u64)
        .map(|i| replay(shape, rng.split_idx("replay", i)))
        .collect();

    // utcsu: a RECEIVE trigger, and one round of advance at the
    // workload's event density with its share of amortization starts.
    let mut nti = module(cfg);
    let trigger_ns = time_op(20_000, |_| {
        black_box(nti.utcsu_mut().trigger_ssu_receive(cfg.cpld.ssu_idx));
    });
    let mut nti = module(cfg);
    let round_ticks = cfg.round_period.as_fs() * cfg.fosc_hz as u128 / 1_000_000_000_000_000;
    let amort_ticks = cfg.amortization.as_fs() * cfg.fosc_hz as u128 / 1_000_000_000_000_000;
    let step_ticks = (round_ticks / shape.advances_per_round as u128).max(1);
    let mut amort_due = 0.0;
    let advance_ns = time_op(200, |_| {
        let u = nti.utcsu_mut();
        amort_due += shape.amort_per_round;
        if amort_due >= 1.0 && amort_ticks > 0 {
            amort_due -= 1.0;
            let step = u.ltu.step_units();
            u.ltu.set_astep_units(step + 1);
            u.start_amortization(amort_ticks);
        }
        let start = u.tick();
        for k in 1..=shape.advances_per_round as u128 {
            u.advance_to_tick(start + k * step_ticks);
        }
        black_box(u.time());
    });

    // nti: the COMCO's header writes into successive receive slots (one
    // of them the RECEIVE-trigger offset).
    let mut nti = module(cfg);
    let slots = nti.rx_header_count();
    let words = header_len / 4;
    let header_write_ns = time_op(4096, |i| {
        let i = i as u32;
        let addr = nti.rx_header_addr((i / words) % slots) + (i % words) * 4;
        nti.write32(addr, black_box(i));
    });

    // netsim: a reception plan, and medium grants at the broadcast stagger.
    let mut comco = Comco::new(cfg.comco, cfg.medium.bitrate_bps, rng.split("comco"));
    let mut t = SimTime::ZERO;
    let plan_receive_ns = time_op(4096, |_| {
        t += SimDuration::from_micros(500);
        black_box(comco.plan_receive(t, header_len));
    });
    let mut medium = Medium::new(cfg.medium, rng.split("medium"));
    let bits = csp_frame_bits();
    let mut ready = SimTime::ZERO;
    let grant_ns = time_op(4096, |_| {
        ready += cfg.stagger;
        black_box(medium.grant(ready, bits));
    });

    // kernel: ISR entry + body + task dispatch, and the driver's CI queue.
    let mut kernel = Kernel::new(cfg.kernel, rng.split("kernel"));
    let mut driver = ComcoDriver::new();
    let isr_path_ns = time_op(4096, |i| {
        black_box(kernel.isr_entry() + kernel.isr_body());
        black_box(kernel.task_dispatch());
        driver.deliver(ETHERTYPE_CI, i, Vec::new());
        black_box(driver.pop(Interface::Ci));
    });

    // core: the orthogonal-accuracy convergence function at the fan-in.
    let intervals = intervals(shape.fan_in, rng.split("intervals"));
    let f = cfg.f.min((shape.fan_in.saturating_sub(1)) / 2);
    assert!(
        nti_core::oa(&intervals, f).is_some(),
        "the isolated CF inputs must intersect"
    );
    let cf_oa_ns = time_op(2000, |_| {
        black_box(nti_core::oa(black_box(&intervals), f));
    });

    // serve: the per-query calls, on a cell sized for this workload.
    let query = NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: 0x1234_5678_9abc_def0,
        ..NtpPacket::default()
    };
    let bytes = query.encode();
    let classify_ns = time_op(20_000, |_| {
        black_box(classify(black_box(&bytes)));
    });
    let cell: Arc<StatusCell> = serverun::published_cell(cfg);
    let handle = ClockHandle::new(Arc::clone(&cell), 0);
    let respond_ns = time_op(20_000, |_| {
        black_box(handle.respond_at(black_box(&query), 0).encode());
    });
    let status_read_ns = time_op(2000, |_| {
        black_box(cell.read());
    });

    Isolated {
        replay_ns_per_event: median(&replays),
        trigger_ns,
        advance_ns,
        header_write_ns,
        plan_receive_ns,
        grant_ns,
        isr_path_ns,
        cf_oa_ns,
        classify_ns,
        respond_ns,
        status_read_ns,
    }
}

/// `n` accuracy intervals around a common instant: offsets within ±1 µs,
/// α of 5–15 µs, so every interval contains the true time.
fn intervals(n: usize, mut rng: SimRng) -> Vec<AccInterval> {
    let unit_per_us = (1u128 << 59) / 1_000_000;
    let base = NtpTime::from_sim_time(SimTime::from_millis(1_000_000));
    (0..n)
        .map(|_| {
            let off = rng.below(2 * unit_per_us as u64) as i128 - unit_per_us as i128;
            let alpha = |r: &mut SimRng| (5 + r.below(10) as u128) * unit_per_us;
            AccInterval::new(
                base.wrapping_add_units(off),
                alpha(&mut rng),
                alpha(&mut rng),
            )
        })
        .collect()
}

/// State of an engine replay.
struct Replay {
    rng: SimRng,
    /// Events still to schedule as replacements.
    remaining: u64,
    /// Lead time of a scheduled event is uniform in `[1, horizon]` fs.
    horizon_fs: u64,
    /// Fractional extra schedule+cancel pairs owed per fired event.
    cancel_rate: f64,
    cancel_due: f64,
    /// Extra events awaiting their cancel.
    doomed: VecDeque<EventId>,
}

fn replay_step(st: &mut Replay, eng: &mut Engine<Replay>) {
    if st.remaining == 0 {
        return;
    }
    st.remaining -= 1;
    let now = eng.now();
    let lead = |st: &mut Replay| SimDuration::from_fs(1 + st.rng.below(st.horizon_fs) as u128);
    let at = now + lead(st);
    eng.schedule_at(at, replay_step);
    st.cancel_due += st.cancel_rate;
    while st.cancel_due >= 1.0 {
        st.cancel_due -= 1.0;
        let at = now + lead(st);
        st.doomed.push_back(eng.schedule_at(at, replay_step));
        if st.doomed.len() > 8 {
            let id = st.doomed.pop_front().expect("non-empty");
            eng.cancel(id);
        }
    }
}

/// Replay the workload's event mix on a bare engine: the median live
/// depth, one replacement per fired event plus the workload's rate of
/// schedule-then-cancel pairs, lead times matching its event rate.
/// Returns wall nanoseconds per fired event.
fn replay(shape: &Shape, rng: SimRng) -> f64 {
    // Mean lead = depth / event rate; uniform lead has half the horizon
    // as its mean.
    let lead_s = shape.depth as f64 / shape.fired_per_sim_s.max(1.0);
    let horizon_fs = ((2.0 * lead_s * 1e15) as u64).max(1);
    let mut st = Replay {
        rng,
        remaining: REPLAY_EVENTS,
        horizon_fs,
        cancel_rate: shape.cancelled_per_fired,
        cancel_due: 0.0,
        doomed: VecDeque::new(),
    };
    let mut eng: Engine<Replay> = Engine::with_queue(QueueKind::Adaptive);
    for _ in 0..shape.depth {
        let at = SimTime::ZERO + SimDuration::from_fs(1 + st.rng.below(horizon_fs) as u128);
        eng.schedule_at(at, replay_step);
    }
    let t = Instant::now();
    eng.run_to_completion(&mut st);
    let wall = t.elapsed().as_nanos() as f64;
    wall / eng.events_fired().max(1) as f64
}

/// Σ(count × isolated ns) per sim layer next to the traced advance wall.
#[derive(Clone, Debug)]
pub struct Coverage {
    /// Seconds per layer, in a fixed order.
    pub layers: Vec<(&'static str, f64)>,
    pub traced_advance_s: f64,
}

impl Coverage {
    pub fn new(
        shape: &Shape,
        c: &Counters,
        iso: &Isolated,
        header_len: u32,
        traced_advance_s: f64,
    ) -> Coverage {
        let node_rounds = shape.nodes as f64 * shape.rounds;
        let deliveries = c.csps_delivered as f64;
        let ns = 1e-9;
        let layers = vec![
            (
                "simcore",
                c.events_fired as f64 * iso.replay_ns_per_event * ns,
            ),
            (
                "utcsu",
                (c.triggers as f64 * iso.trigger_ns + node_rounds * iso.advance_ns) * ns,
            ),
            (
                "nti",
                deliveries * (header_len / 4) as f64 * iso.header_write_ns * ns,
            ),
            (
                "netsim",
                (deliveries * iso.plan_receive_ns + c.grants as f64 * iso.grant_ns) * ns,
            ),
            ("kernel", c.dispatches as f64 * iso.isr_path_ns * ns),
            ("core", node_rounds * iso.cf_oa_ns * ns),
        ];
        Coverage {
            layers,
            traced_advance_s,
        }
    }

    /// The printed coverage line.
    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{k} {v:.4} s"))
            .collect();
        let sum: f64 = self.layers.iter().map(|(_, v)| v).sum();
        format!(
            "coverage: {} | sum {sum:.4} s = {:.0}% of traced advance {:.4} s",
            parts.join(", "),
            100.0 * sum / self.traced_advance_s,
            self.traced_advance_s
        )
    }
}
