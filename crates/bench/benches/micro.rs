//! Micro-benchmarks for the hot paths of the simulation stack: the costs
//! that bound how much simulated time the experiment harness can chew
//! through per wall-clock second.
//!
//! Self-contained harness (`harness = false`): each benchmark runs timed
//! batches for a fixed wall-clock budget, records per-iteration
//! nanoseconds into an `nti_obs::Histogram`, and prints the quantile line
//! that the rest of the workspace uses (`p50/p90/p99/max`). Set
//! `NTI_BENCH_BUDGET_MS` to change the per-benchmark budget (default 200).
//!
//! The two `engine_dispatch_*` rows demonstrate the observability
//! acceptance criterion: dispatching through an engine with a **disabled**
//! observer must cost within 2 % of an engine with no observer attached
//! (both reduce to the same one-branch check).

use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::convergence::{marzullo, oa};
use nti_core::interval::AccInterval;
use nti_netsim::{Comco, ComcoTiming, Frame, Medium, MediumConfig};
use nti_obs::{Histogram, SimObserver};
use nti_simcore::ntp::NtpTime;
use nti_simcore::{DriftModel, Engine, Oscillator, SimDuration, SimRng, SimTime};
use nti_utcsu::{Utcsu, UtcsuConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn budget() -> Duration {
    let ms = std::env::var("NTI_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    Duration::from_millis(ms)
}

/// Run `f` in timed batches until the budget is spent; returns the
/// histogram of per-iteration nanoseconds and the mean.
fn run_bench<F: FnMut()>(mut f: F) -> (Histogram, f64) {
    // Calibrate a batch size aiming at ~100 µs per batch so timer overhead
    // is amortized without starving the histogram of samples.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(20));
    let batch = ((100_000f64 / once.as_nanos() as f64).ceil() as u64).clamp(1, 1_000_000);

    let hist = Histogram::new();
    let mut total_ns = 0u128;
    let mut iters = 0u64;
    let deadline = Instant::now() + budget();
    while Instant::now() < deadline {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t.elapsed().as_nanos();
        hist.record((ns as u64) / batch.max(1));
        total_ns += ns;
        iters += batch;
    }
    let mean = total_ns as f64 / iters.max(1) as f64;
    (hist, mean)
}

fn report(name: &str, hist: &Histogram, mean: f64) -> f64 {
    let (p50, p90, p99, _p999, max) = hist.quantile_line();
    println!(
        "{name:<34} {mean:>12.1} {p50:>10} {p90:>10} {p99:>10} {max:>10}",
        mean = mean,
    );
    mean
}

fn bench<F: FnMut()>(name: &str, f: F) -> f64 {
    let (hist, mean) = run_bench(f);
    report(name, &hist, mean)
}

fn bench_utcsu_advance() {
    bench("utcsu_advance_1s_with_timer", || {
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.sync_run();
        u.itu.set_mask(u32::MAX);
        u.arm_timer_regs(0, 0, 1 << 23);
        u.advance_to_tick(black_box(10_000_000));
        black_box(&u);
    });
}

fn bench_oscillator() {
    let mut o = Oscillator::new(
        10_000_000,
        DriftModel::RandomWalk {
            rho_max_ppm: 10.0,
            step_sigma_ppb: 50.0,
            step_interval: SimDuration::from_millis(100),
            initial_ppm: 0.0,
        },
        SimRng::new(1),
        SimTime::ZERO,
    );
    // Pre-extend to 100 s so the bench measures lookup, not extension.
    let _ = o.ticks_at(SimTime::from_secs(100));
    let mut t = 0u64;
    bench("oscillator_ticks_at_random_walk", || {
        t = (t + 7919) % 100_000;
        black_box(o.ticks_at(SimTime::from_millis(t)));
    });
}

fn bench_convergence() {
    let base = NtpTime::from_secs(100);
    let mk = |off: i128, half: u128| AccInterval::new(base.wrapping_add_units(off), half, half);
    let intervals: Vec<AccInterval> = (0..16)
        .map(|i| mk((i as i128 - 8) << 30, 1u128 << 36))
        .collect();
    bench("marzullo_16_inputs_f2", || {
        black_box(marzullo(black_box(&intervals), 2));
    });
    bench("oa_16_inputs_f2", || {
        black_box(oa(black_box(&intervals), 2));
    });
}

fn bench_frame_codec() {
    let f = Frame::csp(Frame::mac(3), bytes::Bytes::from(vec![0xA5u8; 48]));
    let wire = f.encode();
    bench("frame_encode_crc", || {
        black_box(f.encode());
    });
    bench("frame_decode_crc", || {
        black_box(Frame::decode(black_box(&wire)).unwrap());
    });
}

fn bench_medium_and_comco() {
    let mut m = Medium::new(MediumConfig::ethernet_10m(), SimRng::new(2));
    let mut t = 0u64;
    bench("medium_grant", || {
        t += 1;
        black_box(m.grant(SimTime::from_micros(t * 1500), 592));
    });
    let mut co = Comco::new(ComcoTiming::i82596(), 10_000_000, SimRng::new(3));
    bench("comco_plan_roundtrip", || {
        black_box(co.plan_transmit(SimTime::from_secs(1), 64));
        black_box(co.plan_receive(SimTime::from_secs(1), 64));
    });
}

fn bench_cluster_round() {
    bench("cluster_4_nodes_5s", || {
        let mut cfg = ClusterConfig::default_lan(4, 11);
        cfg.duration = SimDuration::from_secs(5);
        cfg.warmup = SimDuration::from_secs(1);
        black_box(Cluster::new(cfg).run());
    });
}

/// One engine dispatch benchmark pass: schedule-and-fire `n` trivial
/// events through an engine with the given observer state.
fn dispatch_pass(obs: Option<&SimObserver>, n: u64) -> u64 {
    let mut eng: Engine<u64> = Engine::new();
    if let Some(obs) = obs {
        eng.attach_observer(obs);
    }
    let mut acc = 0u64;
    for i in 0..n {
        eng.schedule_at(
            SimTime::from_nanos(i),
            move |s: &mut u64, _: &mut Engine<u64>| {
                *s = s.wrapping_add(i);
            },
        );
    }
    eng.run_until(&mut acc, SimTime::from_secs(1));
    acc
}

fn bench_engine_dispatch() {
    const N: u64 = 10_000;
    let none = bench("engine_dispatch_no_observer", || {
        black_box(dispatch_pass(None, N));
    });
    let disabled_obs = SimObserver::disabled();
    let disabled = bench("engine_dispatch_disabled_obs", || {
        black_box(dispatch_pass(Some(&disabled_obs), N));
    });
    let metrics_obs = SimObserver::enabled();
    bench("engine_dispatch_metrics_obs", || {
        black_box(dispatch_pass(Some(&metrics_obs), N));
    });
    let overhead = (disabled - none) / none * 100.0;
    println!("\ndisabled-observer dispatch overhead: {overhead:+.2}% (acceptance: < 2%)");
}

fn main() {
    println!(
        "{:<34} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "mean ns", "p50", "p90", "p99", "max"
    );
    bench_utcsu_advance();
    bench_oscillator();
    bench_convergence();
    bench_frame_codec();
    bench_medium_and_comco();
    bench_engine_dispatch();
    bench_cluster_round();
}
