//! Serve-side measurement: an `nti-serve` server with one shard over
//! loopback, queried by a closed loop of one client that validates every
//! answer and records every round-trip time.

use crate::simrun::{self, Run};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::status::StatusCell;
use nti_obs::{Histogram, SimObserver};
use nti_serve::packet::{MODE_CLIENT, MODE_SERVER, PACKET_LEN};
use nti_serve::{containment_holds, NtpPacket, RunningServer, Server, ServerConfig};
use nti_serve::{ClockHandle, StatsSnapshot, TelemetryConfig};
use nti_simcore::{SimDuration, SimTime};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a query may go unanswered before it counts as a timeout.
const QUERY_TIMEOUT: Duration = Duration::from_secs(1);

/// How long set-up may wait for the first published frame.
const FIRST_FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// Wall time between two real-time advances of the live sim.
const SIM_TICK: Duration = Duration::from_millis(1);

/// Window over which one throughput sample is taken.
const QPS_WINDOW: Duration = Duration::from_millis(100);

/// Telemetry for a traced session: an enabled observer and every datagram
/// timed through every stage.
pub fn traced_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        obs: SimObserver::enabled(),
        sample_every: 1,
        ..TelemetryConfig::default()
    }
}

/// A running server plus, for a live session, the sim thread feeding it.
pub struct Session {
    server: RunningServer,
    target: SocketAddr,
    stop: Arc<AtomicBool>,
    sim: Option<JoinHandle<Run>>,
    /// `Server::bind` plus starting the shard, on the calling thread.
    bind_s: f64,
}

/// What a closed session leaves behind.
pub struct Closed {
    pub stats: StatsSnapshot,
    /// The live session's finished sim.
    pub run: Option<Run>,
    /// The set-up work: `Server::bind` and start, plus, for a live
    /// session, `Cluster::new` and the advance to the first published
    /// frame on the sim thread. The hand-off between the two threads is
    /// left out: on the 2-core VM it is scheduler latency, and it swung
    /// the median set-up of a run between 0.5 and 1.3 ms.
    pub setup_s: f64,
}

impl Session {
    /// Serve node 0 of `cfg`'s cluster while that cluster advances in real
    /// time on its own thread. The sim first runs straight to its first
    /// status snapshot, then keeps simulated time equal to that instant
    /// plus the wall time since.
    pub fn live(cfg: ClusterConfig, telemetry: TelemetryConfig) -> io::Result<Session> {
        let n = cfg.topology.node_count();
        let cell = Arc::new(StatusCell::new(n));
        let mut cfg = cfg;
        cfg.status_cell = Some(Arc::clone(&cell));
        let stop = Arc::new(AtomicBool::new(false));
        let sim = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("perfbench-sim".into())
                .spawn(move || {
                    let first = SimTime::ZERO + cfg.snapshot_every;
                    let mut epoch: Option<Instant> = None;
                    simrun::drive(cfg, move |_| match epoch {
                        None => {
                            epoch = Some(Instant::now());
                            Some(first)
                        }
                        Some(_) if stop.load(Relaxed) => None,
                        Some(e) => {
                            std::thread::sleep(SIM_TICK);
                            Some(first + SimDuration::from_secs_f64(e.elapsed().as_secs_f64()))
                        }
                    })
                })?
        };
        let abort = |sim: JoinHandle<Run>| {
            stop.store(true, Relaxed);
            let _ = sim.join();
        };
        let t = Instant::now();
        let server = match bind(&cell, telemetry) {
            Ok(s) => s,
            Err(e) => {
                abort(sim);
                return Err(e);
            }
        };
        let bind_s = t.elapsed().as_secs_f64();
        // Start answering only once there is a frame: a spinning shard
        // would otherwise compete with the sim thread for the CPU.
        if let Err(e) = wait_first_frame(&cell) {
            abort(sim);
            return Err(e);
        }
        let t = Instant::now();
        let target = server.local_addrs()[0];
        let server = server.start();
        Ok(Session {
            server,
            target,
            stop,
            sim: Some(sim),
            bind_s: bind_s + t.elapsed().as_secs_f64(),
        })
    }

    /// Serve node 0 of an already published `cell` (no sim thread).
    pub fn fixed(cell: &Arc<StatusCell>, telemetry: TelemetryConfig) -> io::Result<Session> {
        let t = Instant::now();
        let server = bind(cell, telemetry)?;
        let target = server.local_addrs()[0];
        let server = server.start();
        Ok(Session {
            server,
            target,
            stop: Arc::new(AtomicBool::new(false)),
            sim: None,
            bind_s: t.elapsed().as_secs_f64(),
        })
    }

    /// Where the client should send its queries.
    pub fn target(&self) -> SocketAddr {
        self.target
    }

    /// Stop serving and, for a live session, stop and finish the sim.
    pub fn close(self) -> Closed {
        self.stop.store(true, Relaxed);
        let stats = self.server.stop();
        let run = self.sim.map(|h| h.join().expect("the sim thread panicked"));
        let sim_setup_s = run.as_ref().map_or(0.0, |r| r.setup_s + r.chunk_wall_s[0]);
        Closed {
            stats,
            run,
            setup_s: self.bind_s + sim_setup_s,
        }
    }
}

fn bind(cell: &Arc<StatusCell>, telemetry: TelemetryConfig) -> io::Result<Server> {
    Server::bind(
        &ServerConfig {
            shards: 1,
            telemetry,
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(cell), 0),
    )
}

/// Sleep-poll until the sim has published its first frame. The wait is not
/// timed, and spinning here would take CPU from the sim thread.
fn wait_first_frame(cell: &StatusCell) -> io::Result<()> {
    let t = Instant::now();
    while cell.generation() == 0 {
        if t.elapsed() > FIRST_FRAME_TIMEOUT {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "the sim published no status frame",
            ));
        }
        std::thread::sleep(SIM_TICK);
    }
    Ok(())
}

/// A cell holding the status frame `cfg`'s cluster publishes at its first
/// snapshot: what a server answering from that workload would read.
pub fn published_cell(cfg: &ClusterConfig) -> Arc<StatusCell> {
    let cell = Arc::new(StatusCell::new(cfg.topology.node_count()));
    let mut cfg = cfg.clone();
    cfg.obs = SimObserver::disabled();
    cfg.status_cell = Some(Arc::clone(&cell));
    let first = SimTime::ZERO + cfg.snapshot_every;
    let mut cluster = Cluster::new(cfg);
    cluster.advance_until(first);
    assert!(
        cell.generation() > 0,
        "the first snapshot publishes a frame"
    );
    cell
}

/// What the closed loop saw. Its memory does not grow with the number of
/// queries, so the process high-water mark does not depend on throughput.
#[derive(Debug, Default)]
pub struct ClientOut {
    /// Round-trip times of every validated answer after the first window,
    /// in nanoseconds.
    pub rtt_ns: Histogram,
    /// Validated answers per second, one sample per [`QPS_WINDOW`].
    pub window_qps: Vec<f64>,
    /// Median round trip within each of those windows, in nanoseconds.
    pub window_rtt_p50_ns: Vec<f64>,
    pub sent: u64,
    pub timeouts: u64,
    pub malformed: u64,
    pub origin_mismatches: u64,
    /// Kiss-o'-death answers: they claim no time, so they count as failed.
    pub kod: u64,
    pub containment_violations: u64,
}

/// SplitMix64 over the seed and sequence number: the transmit nonces.
fn nonce(seed: u64, seq: u64) -> u64 {
    let mut z = (seed ^ seq.rotate_left(32)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Query `target` back to back for `seconds`: one query in flight, the
/// next sent as soon as the previous answer is in. What the loop sees is
/// added to `out`, so several windows of a run pool their samples.
///
/// The client polls its socket rather than blocking in `recv`, as the
/// shard does. On the 2-core VM a blocked client's vCPU halts, and waking
/// it made the round trip 12 or 17 µs depending on the host's halt
/// polling, which flipped between runs (and within one, for seconds at a
/// time); polling, it held 9–10 µs over a 60 s trace.
pub fn closed_loop(
    target: SocketAddr,
    seconds: f64,
    seed: u64,
    out: &mut ClientOut,
) -> io::Result<()> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.connect(target)?;
    sock.set_nonblocking(true)?;
    let mut buf = [0u8; 2 * PACKET_LEN];
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut window_start = start;
    let mut window_rtt: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut warming = true;
    let mut seq = 0u64;
    loop {
        let sent_at = Instant::now();
        let elapsed = sent_at - start;
        if sent_at - window_start >= QPS_WINDOW {
            // The first window warms the server thread and the caches up;
            // it is not a sample.
            if !warming && !window_rtt.is_empty() {
                let w = (sent_at - window_start).as_secs_f64();
                out.window_qps.push(window_rtt.len() as f64 / w);
                // The nearest-rank median, found without a full sort.
                let mid = window_rtt.len().div_ceil(2) - 1;
                let (_, p50, _) = window_rtt.select_nth_unstable(mid);
                out.window_rtt_p50_ns.push(*p50 as f64);
            }
            warming = false;
            window_rtt.clear();
            window_start = Instant::now();
        }
        if elapsed >= deadline {
            return Ok(());
        }
        let tx = nonce(seed, seq);
        seq += 1;
        let req = NtpPacket {
            version: 4,
            mode: MODE_CLIENT,
            transmit_ts: tx,
            ..NtpPacket::default()
        };
        sock.send(&req.encode())?;
        out.sent += 1;
        loop {
            let n = match sock.recv(&mut buf) {
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock && sent_at.elapsed() < QUERY_TIMEOUT =>
                {
                    std::hint::spin_loop();
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    out.timeouts += 1;
                    break;
                }
                Err(e) => return Err(e),
            };
            let resp = match NtpPacket::decode(&buf[..n]) {
                Ok(p) if p.mode == MODE_SERVER => p,
                _ => {
                    out.malformed += 1;
                    break;
                }
            };
            if resp.origin_ts != tx {
                // A late answer to an earlier query: count it, keep waiting.
                out.origin_mismatches += 1;
                continue;
            }
            let rtt = sent_at.elapsed().as_nanos() as u64;
            if !warming {
                out.rtt_ns.record(rtt);
            }
            window_rtt.push(rtt);
            if resp.is_kod() {
                out.kod += 1;
            } else if (1..=15).contains(&resp.stratum) && !containment_holds(&resp) {
                out.containment_violations += 1;
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonces_are_seeded_and_distinct() {
        let a: Vec<u64> = (0..1000).map(|s| nonce(7, s)).collect();
        let b: Vec<u64> = (0..1000).map(|s| nonce(8, s)).collect();
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2000);
        assert_eq!(a[5], nonce(7, 5));
    }
}
