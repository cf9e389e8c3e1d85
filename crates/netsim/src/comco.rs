//! COMCO — the communications coprocessor (DMA engine) timing model.
//!
//! The NTI approach "works for any COMCO that accesses CSP data immediately
//! in memory via DMA" (Section 3.1); the prototype used Intel's 82596CA.
//! What matters for the reproduction is *when* the COMCO touches the NTI's
//! header regions relative to the bits on the wire, because those accesses
//! fire the TRANSMIT/RECEIVE triggers and therefore determine the residual
//! timestamping uncertainty ε:
//!
//! * **transmit**: the chip streams the header + payload from memory
//!   through its internal FIFO onto the wire. Reads *lead* the wire by the
//!   FIFO fill level; each bus access additionally suffers bus-arbitration
//!   jitter (the CPU competes for the shared memory). The read of the
//!   trigger offset is therefore pinned to the wire start up to
//!   FIFO-lead + arbitration jitter — **medium access uncertainty is
//!   excluded**, which is the whole point of timestamping in step 4;
//! * **receive**: the chip buffers the incoming frame and writes the
//!   header/status area right after frame completion (the 82596CA writes
//!   the receive frame descriptor once the FCS checked out), again with
//!   per-access arbitration jitter, then raises the packet interrupt.
//!
//! The planner emits explicit bus-access schedules, which makes ε an
//! *emergent* quantity of the simulation rather than an assumed constant.
//! The cluster replays each schedule against the NTI in order. It applies
//! an access at its own planned instant only when the NTI can observe that
//! instant (the trigger accesses); every other access waits for the next
//! observable one.

use nti_simcore::rng::SimRng;
use nti_simcore::time::{SimDuration, SimTime};

/// A uniform jitter distribution `[base, base + spread)`.
#[derive(Clone, Copy, Debug)]
pub struct Jitter {
    /// Deterministic floor.
    pub base: SimDuration,
    /// Width of the uniform random part.
    pub spread: SimDuration,
}

impl Jitter {
    /// A deterministic (jitter-free) delay.
    pub fn fixed(d: SimDuration) -> Jitter {
        Jitter {
            base: d,
            spread: SimDuration::ZERO,
        }
    }

    /// Draw one delay.
    pub fn draw(&self, rng: &mut SimRng) -> SimDuration {
        if self.spread == SimDuration::ZERO {
            return self.base;
        }
        let fs = rng.below(self.spread.as_fs().min(u64::MAX as u128) as u64);
        self.base + SimDuration::from_fs(fs as u128)
    }

    /// The worst-case value.
    pub fn max(&self) -> SimDuration {
        self.base + self.spread
    }
}

/// COMCO timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct ComcoTiming {
    /// CPU "go" command to start of descriptor prefetch.
    pub cmd_latency: Jitter,
    /// Base duration of one 32-bit bus access.
    pub bus_cycle: SimDuration,
    /// Additional per-access bus-arbitration jitter.
    pub arb_jitter: Jitter,
    /// Transmit FIFO lookahead: how many bytes the DMA reads run ahead of
    /// the wire **once transmission is streaming**. The initial FIFO fill
    /// happens after medium acquisition in this model (the chip defers the
    /// header fetch until it owns the channel), so every header read is
    /// pinned to `wire_start` — which is precisely the property that makes
    /// the transmit trigger's delay boundable without medium-access
    /// uncertainty. A COMCO that prefetches whole packets long before
    /// transmission (CAN-style on-chip storage) is modelled by a huge
    /// lookahead; the paper calls such controllers "definitely
    /// inappropriate".
    pub tx_fifo_bytes: u32,
    /// Frame-end to first receive-header write.
    pub rx_store_latency: Jitter,
    /// Last header write to interrupt assertion.
    pub rx_int_latency: Jitter,
}

impl ComcoTiming {
    /// Timing shaped after the 82596CA with the NTI's dedicated dual-region
    /// SRAM: ~160 ns bus cycles, ≤ 40 ns arbitration (only the node CPU
    /// competes for the NTI memory, and rarely during DMA), a 32-byte
    /// transmit FIFO threshold, ~1 µs store latency with ±250 ns spread.
    /// These envelopes put the resulting stamp-to-stamp uncertainty "well
    /// below 1 µs", the figure Section 4 reports for the two-node setup.
    pub fn i82596() -> Self {
        ComcoTiming {
            cmd_latency: Jitter {
                base: SimDuration::from_micros(4),
                spread: SimDuration::from_micros(6),
            },
            bus_cycle: SimDuration::from_nanos(160),
            arb_jitter: Jitter {
                base: SimDuration::from_nanos(0),
                spread: SimDuration::from_nanos(40),
            },
            tx_fifo_bytes: 8,
            rx_store_latency: Jitter {
                base: SimDuration::from_micros(1),
                spread: SimDuration::from_nanos(250),
            },
            rx_int_latency: Jitter {
                base: SimDuration::from_micros(2),
                spread: SimDuration::from_micros(8),
            },
        }
    }

    /// An idealised zero-jitter COMCO (lower-bound ablation).
    pub fn ideal() -> Self {
        ComcoTiming {
            cmd_latency: Jitter::fixed(SimDuration::from_micros(1)),
            bus_cycle: SimDuration::from_nanos(160),
            arb_jitter: Jitter::fixed(SimDuration::ZERO),
            tx_fifo_bytes: 8,
            rx_store_latency: Jitter::fixed(SimDuration::from_micros(1)),
            rx_int_latency: Jitter::fixed(SimDuration::from_micros(2)),
        }
    }

    /// A COMCO with **on-chip packet storage** (the CAN-controller case the
    /// paper calls "definitely inappropriate"): header accesses happen long
    /// before/after the wire with large, queue-dependent jitter. Used to
    /// reproduce that negative result.
    pub fn onchip_storage() -> Self {
        ComcoTiming {
            cmd_latency: Jitter {
                base: SimDuration::from_micros(5),
                spread: SimDuration::from_micros(10),
            },
            bus_cycle: SimDuration::from_nanos(160),
            arb_jitter: Jitter {
                base: SimDuration::from_micros(50),
                spread: SimDuration::from_micros(900),
            },
            tx_fifo_bytes: 2048, // whole packet buffered on chip
            rx_store_latency: Jitter {
                base: SimDuration::from_micros(100),
                spread: SimDuration::from_micros(800),
            },
            rx_int_latency: Jitter {
                base: SimDuration::from_micros(2),
                spread: SimDuration::from_micros(8),
            },
        }
    }
}

/// One planned bus access into a header region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusAccess {
    /// When the access hits the NTI memory.
    pub at: SimTime,
    /// Byte offset within the header.
    pub offset: u32,
}

/// The transmit-side schedule, borrowed from the planning COMCO until its
/// next plan.
#[derive(Clone, Copy, Debug)]
pub struct TxPlan<'a> {
    /// Header longword reads, in offset order, monotone in time.
    pub header_reads: &'a [BusAccess],
}

/// The receive-side schedule, borrowed from the planning COMCO until its
/// next plan.
#[derive(Clone, Copy, Debug)]
pub struct RxPlan<'a> {
    /// Header longword writes, in offset order, monotone in time.
    pub header_writes: &'a [BusAccess],
    /// When the packet-reception interrupt is asserted.
    pub interrupt_at: SimTime,
}

/// The DMA coprocessor (per network attachment).
#[derive(Clone, Debug)]
pub struct Comco {
    timing: ComcoTiming,
    bitrate_bps: u64,
    rng: SimRng,
    /// The last plan's header accesses; every plan reuses this buffer, so
    /// planning allocates nothing once it has grown to the header length.
    accesses: Vec<BusAccess>,
}

impl Comco {
    /// Create a COMCO with the given timing, attached to a channel of the
    /// given bit rate.
    pub fn new(timing: ComcoTiming, bitrate_bps: u64, rng: SimRng) -> Self {
        Comco {
            timing,
            bitrate_bps,
            rng,
            accesses: Vec::new(),
        }
    }

    /// The timing parameters.
    pub fn timing(&self) -> ComcoTiming {
        self.timing
    }

    /// When the COMCO is ready to request the medium after a CPU command at
    /// `cmd_time` (descriptor prefetch latency).
    pub fn tx_ready(&mut self, cmd_time: SimTime) -> SimTime {
        cmd_time + self.timing.cmd_latency.draw(&mut self.rng)
    }

    /// Plan the header reads of a transmission whose first wire bit leaves
    /// at `wire_start`. Reads lead the wire by the FIFO fill; each read adds
    /// arbitration jitter but the sequence stays monotone (the FIFO is
    /// filled in order).
    pub fn plan_transmit(&mut self, wire_start: SimTime, header_len: u32) -> TxPlan<'_> {
        let byte_time = SimDuration::from_fs(8 * 1_000_000_000_000_000 / self.bitrate_bps as u128);
        let fifo_lead = byte_time * self.timing.tx_fifo_bytes as u128;
        self.plan_accesses(wire_start.saturating_sub(fifo_lead), header_len);
        TxPlan {
            header_reads: &self.accesses,
        }
    }

    /// Plan the header writes + interrupt of a reception whose last wire
    /// bit arrived at `frame_end`.
    pub fn plan_receive(&mut self, frame_end: SimTime, header_len: u32) -> RxPlan<'_> {
        let start = frame_end + self.timing.rx_store_latency.draw(&mut self.rng);
        let t = self.plan_accesses(start, header_len);
        let interrupt_at = t + self.timing.rx_int_latency.draw(&mut self.rng);
        RxPlan {
            header_writes: &self.accesses,
            interrupt_at,
        }
    }

    /// One bus access per header longword, in offset order, each a bus
    /// cycle plus arbitration jitter after the previous one (the first
    /// after `t`). Returns the last access's time.
    fn plan_accesses(&mut self, mut t: SimTime, header_len: u32) -> SimTime {
        self.accesses.clear();
        for off in (0..header_len).step_by(4) {
            t += self.timing.bus_cycle + self.timing.arb_jitter.draw(&mut self.rng);
            self.accesses.push(BusAccess { at: t, offset: off });
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comco(t: ComcoTiming) -> Comco {
        Comco::new(t, 10_000_000, SimRng::new(7))
    }

    #[test]
    fn jitter_draw_within_bounds() {
        let j = Jitter {
            base: SimDuration::from_nanos(100),
            spread: SimDuration::from_nanos(50),
        };
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            let d = j.draw(&mut rng);
            assert!(d >= j.base && d < j.max());
        }
        let f = Jitter::fixed(SimDuration::from_nanos(10));
        assert_eq!(f.draw(&mut rng), SimDuration::from_nanos(10));
    }

    #[test]
    fn tx_plan_is_monotone_and_ordered() {
        let mut c = comco(ComcoTiming::i82596());
        let p = c.plan_transmit(SimTime::from_secs(1), 64);
        assert_eq!(p.header_reads.len(), 16);
        for w in p.header_reads.windows(2) {
            assert!(w[1].at > w[0].at, "reads must be monotone");
            assert_eq!(w[1].offset, w[0].offset + 4);
        }
    }

    #[test]
    fn tx_trigger_read_is_close_to_wire_start() {
        // With i82596 timing the 0x14 read must land within a few us of the
        // wire start regardless of medium access delays (which do not enter
        // the plan at all).
        let mut c = comco(ComcoTiming::i82596());
        for k in 0..100u64 {
            let ws = SimTime::from_secs(1 + k);
            let p = c.plan_transmit(ws, 64);
            let trig = p.header_reads.iter().find(|a| a.offset == 0x14).unwrap();
            let err = trig.at.abs_diff(ws).as_micros_f64();
            assert!(err < 30.0, "trigger {err} us from wire start");
        }
    }

    #[test]
    fn rx_plan_follows_frame_end() {
        let mut c = comco(ComcoTiming::i82596());
        let fe = SimTime::from_secs(2);
        let p = c.plan_receive(fe, 64);
        assert_eq!(p.header_writes.len(), 16);
        assert!(p.header_writes[0].at > fe);
        assert!(p.interrupt_at > p.header_writes.last().unwrap().at);
    }

    #[test]
    fn plans_reuse_one_buffer() {
        let mut c = comco(ComcoTiming::i82596());
        let rx = c
            .plan_receive(SimTime::from_secs(1), 64)
            .header_writes
            .as_ptr();
        let tx = c
            .plan_transmit(SimTime::from_secs(2), 64)
            .header_reads
            .as_ptr();
        assert_eq!(rx, tx, "a second plan must not reallocate");
    }

    #[test]
    fn ideal_timing_is_deterministic() {
        let mut a = comco(ComcoTiming::ideal());
        let mut b = Comco::new(ComcoTiming::ideal(), 10_000_000, SimRng::new(999));
        let pa = a.plan_transmit(SimTime::from_secs(1), 64);
        let pb = b.plan_transmit(SimTime::from_secs(1), 64);
        assert_eq!(
            pa.header_reads, pb.header_reads,
            "no RNG dependence when ideal"
        );
    }

    #[test]
    fn onchip_storage_has_large_jitter() {
        let mut c = comco(ComcoTiming::onchip_storage());
        let mut spread = Vec::new();
        for k in 0..200u64 {
            let p = c.plan_receive(SimTime::from_secs(k), 64);
            let trig = p.header_writes.iter().find(|a| a.offset == 0x1C).unwrap();
            spread.push(
                trig.at
                    .saturating_since(SimTime::from_secs(k))
                    .as_micros_f64(),
            );
        }
        let min = spread.iter().copied().fold(f64::INFINITY, f64::min);
        let max = spread.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max - min > 100.0,
            "CAN-style COMCO must show >100us jitter, got {}",
            max - min
        );
    }

    #[test]
    fn tx_ready_adds_cmd_latency() {
        let mut c = comco(ComcoTiming::ideal());
        let r = c.tx_ready(SimTime::from_secs(5));
        assert_eq!(r, SimTime::from_secs(5) + SimDuration::from_micros(1));
    }
}
