//! The generic interval-based clock synchronization algorithm of \[SS97\]
//! (Section 2 of the paper), as a DES-agnostic per-node state machine.
//!
//! Each round `k`:
//!
//! 1. at `C_p(t) = kP` node `p` broadcasts a CSP carrying its accuracy
//!    interval (the transmit timestamp is inserted by the NTI hardware);
//! 2. each received CSP is **preprocessed**: *delay compensation* maps the
//!    sender's interval across the network (enlarging by the transmission
//!    delay uncertainty), *drift compensation* ships it forward in time on
//!    the local clock (enlarging by ρ·elapsed plus granularity/rate terms);
//! 3. at `C_p(t) = kP + Δ` the convergence function (OA) is applied to the
//!    compatible intervals and the result is **enforced**: the value by
//!    continuous amortization, the accuracies by an atomic ACU load.
//!
//! The same machinery also runs the non-interval FTM baseline (CSU/FTA
//! style): offsets instead of intervals, instantaneous state steps, no
//! accuracy maintenance.

use crate::convergence::{ftm, marzullo, oa};
use crate::interval::{units_ceil, AccInterval};
use crate::params::{AlgoKind, SyncParams};
use crate::payload::CspPayload;
use nti_simcore::ntp::NtpTime;
use nti_simcore::Accuracy;

/// A CSP after stamp reconstruction, as handed to the algorithm.
#[derive(Clone, Copy, Debug)]
pub struct ReceivedCsp {
    /// The software-visible payload.
    pub payload: CspPayload,
    /// Sender's clock at its stamping event (reconstructed from timestamp +
    /// macrostamp, possibly quantized to the mode's granularity).
    pub xmit_stamp: NtpTime,
    /// Sender's accuracies at the stamping event.
    pub xmit_alpha: (Accuracy, Accuracy),
    /// Own clock at the local stamping event.
    pub recv_local: NtpTime,
}

/// A preprocessed (delay-compensated) peer interval, pinned to the local
/// clock value at the receive-stamp event.
#[derive(Clone, Copy, Debug)]
pub struct Preprocessed {
    /// Sender node id.
    pub from: u32,
    /// The interval, expressed in local-clock coordinates at `recv_local`:
    /// its `value` is the clock reading a perfectly synchronized local
    /// clock would have shown at the receive event.
    pub interval: AccInterval,
    /// Own clock at the receive event (drift compensation origin).
    pub recv_local: NtpTime,
    /// Raw offset estimate (peer − self) in 2⁻⁵⁹ s units, for the FTM
    /// baseline and rate statistics.
    pub offset_units: i128,
}

/// The enforcement decision computed at CF time.
#[derive(Clone, Copy, Debug)]
pub struct Enforcement {
    /// Clock-value correction in 2⁻⁵⁹ s units (positive = advance clock).
    pub delta_units: i128,
    /// Accuracies to load atomically (already covering the slew).
    pub new_alpha: (Accuracy, Accuracy),
    /// Number of inputs that fed the convergence function.
    pub inputs: usize,
}

/// What to do with a congestion-marked CSP (the medium sets the mark when
/// a frame's channel-access delay exceeded the segment's ECN threshold —
/// see `nti-netsim`). Marked samples crossed a congested queue, so their
/// delay-compensation midpoint is suspect; discounting or discarding them
/// is what keeps precision from collapsing under load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CongestionPolicy {
    /// Use marked CSPs at face value (the paper's static-LAN behaviour).
    Ignore,
    /// Down-weight: widen the marked interval by the given factor before
    /// acceptance. A wider interval pulls the accuracy-weighted
    /// convergence functions less, so the sample still contributes
    /// containment evidence without dragging precision.
    Discount {
        /// Multiplier on both interval half-widths (≥ 1; 1 = no-op).
        widen_factor: u32,
    },
    /// Drop marked CSPs entirely.
    Discard,
}

/// Per-node synchronization state.
#[derive(Clone, Debug)]
pub struct SyncCore {
    /// Static parameters.
    pub params: SyncParams,
    /// Algorithm flavour.
    pub algo: AlgoKind,
    /// Current round number.
    pub round: u32,
    inbox: Vec<Preprocessed>,
    /// Senders already in this round's inbox, one bit per node id (ids are
    /// dense, `0..n`); grows on demand, cleared with the inbox.
    heard: Vec<u64>,
    ext: Vec<Preprocessed>,
    /// Trust external intervals without validation (negative control for
    /// E5; Section 5 calls always-trusting a GPS receiver "questionable").
    pub blind_external: bool,
    /// The node is (re)integrating after a cold start: its own interval is
    /// operator-set and worthless, so the next convergence adopts the
    /// ensemble a-posteriori (peers-only inputs, as in initial
    /// synchronization) instead of merging its own state in. Cleared when
    /// a convergence succeeds with at least `reintegration_quorum`
    /// inputs (or a validated external reference).
    pub reintegrating: bool,
    /// Inputs a reintegrating node must hear before a convergence counts
    /// as recovery — a node restarting inside a partition must not adopt
    /// a minority island's view. Defaults to `f + 1`; the cluster raises
    /// it to a majority of the ensemble.
    pub reintegration_quorum: usize,
    /// Policy for congestion-marked CSPs.
    pub congestion: CongestionPolicy,
    /// CSPs discarded because convergence failed (diagnostics).
    pub cf_failures: u64,
    /// CSPs accepted over the run.
    pub csps_accepted: u64,
    /// Congestion-marked CSPs seen.
    pub csps_marked: u64,
    /// Marked CSPs accepted with a widened (down-weighted) interval.
    pub csps_discounted: u64,
    /// Marked CSPs dropped by [`CongestionPolicy::Discard`].
    pub csps_discarded: u64,
}

impl SyncCore {
    /// Fresh state.
    pub fn new(params: SyncParams, algo: AlgoKind) -> Self {
        SyncCore {
            params,
            algo,
            round: 0,
            inbox: Vec::new(),
            heard: Vec::new(),
            ext: Vec::new(),
            blind_external: false,
            reintegrating: false,
            reintegration_quorum: params.f + 1,
            congestion: CongestionPolicy::Ignore,
            cf_failures: 0,
            csps_accepted: 0,
            csps_marked: 0,
            csps_discounted: 0,
            csps_discarded: 0,
        }
    }

    /// Mid-point and half-uncertainty of the delay window, in units.
    fn delay_mid_unc(&self) -> (i128, u128) {
        let min = units_ceil(self.params.delay_min);
        let max = units_ceil(self.params.delay_max);
        let mid = ((min + max) / 2) as i128;
        let unc = (max - min).div_ceil(2);
        (mid, unc)
    }

    /// Granularity + rate-uncertainty widening applied once per
    /// compensation step, in units.
    fn gu_units(&self) -> u128 {
        units_ceil(self.params.granularity) * 2 + units_ceil(self.params.rate_adj_uncertainty)
    }

    /// Step 2 — delay compensation: map the received CSP into a local-frame
    /// accuracy interval at the receive event.
    pub fn preprocess(&self, csp: &ReceivedCsp) -> Preprocessed {
        let (mid, unc) = self.delay_mid_unc();
        // Sender's interval at its stamp, shipped across the network:
        // value := X + δ_mid, widened by the delay uncertainty.
        let shift = nti_simcore::ntp::FRAC_BITS - nti_simcore::ntp::NTP_FRAC_BITS;
        let s_minus = (csp.xmit_alpha.0 .0 as u128) << shift;
        let s_plus = (csp.xmit_alpha.1 .0 as u128) << shift;
        let value = csp.xmit_stamp.wrapping_add_units(mid);
        let interval = AccInterval::new(
            value,
            s_minus + unc + self.gu_units(),
            s_plus + unc + self.gu_units(),
        );
        let offset_units = value.wrapping_diff_units(csp.recv_local);
        Preprocessed {
            from: csp.payload.node,
            interval,
            recv_local: csp.recv_local,
            offset_units,
        }
    }

    /// Accept a preprocessed CSP into the current round's inbox. A second
    /// CSP from the same sender within one round — a duplicated frame — is
    /// discarded: the first reception carries the correctly delay-
    /// compensated stamp, the copy arrives late by a frame time. Returns
    /// whether the CSP entered the inbox.
    pub fn accept(&mut self, p: Preprocessed) -> bool {
        let (word, bit) = (p.from as usize / 64, 1u64 << (p.from % 64));
        if word >= self.heard.len() {
            self.heard.resize(word + 1, 0);
        }
        if self.heard[word] & bit != 0 {
            return false;
        }
        self.heard[word] |= bit;
        self.inbox.push(p);
        self.csps_accepted += 1;
        true
    }

    /// [`SyncCore::accept`] with the frame's congestion mark applied first:
    /// a marked CSP is counted, then down-weighted or discarded per the
    /// node's [`CongestionPolicy`]. Returns whether the CSP entered the
    /// inbox.
    pub fn accept_csp(&mut self, mut p: Preprocessed, marked: bool) -> bool {
        let mut discounted = false;
        if marked {
            self.csps_marked += 1;
            match self.congestion {
                CongestionPolicy::Ignore => {}
                CongestionPolicy::Discount { widen_factor } => {
                    let k = u128::from(widen_factor.max(1)) - 1;
                    p.interval = p.interval.widen(
                        p.interval.minus.saturating_mul(k),
                        p.interval.plus.saturating_mul(k),
                    );
                    discounted = true;
                }
                CongestionPolicy::Discard => {
                    self.csps_discarded += 1;
                    return false;
                }
            }
        }
        let ok = self.accept(p);
        if ok && discounted {
            self.csps_discounted += 1;
        }
        ok
    }

    /// Accept a validated external (GPS) interval, already expressed in
    /// local-frame coordinates at its stamp event.
    pub fn accept_external(&mut self, p: Preprocessed) {
        self.ext.push(p);
    }

    /// Number of CSPs waiting in the current round's inbox.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Number of validated external intervals waiting for this round.
    pub fn ext_len(&self) -> usize {
        self.ext.len()
    }

    /// Spread (max − min) of the inbox's preprocessed offsets in 2⁻⁵⁹ s
    /// units — the disagreement the convergence function is about to see.
    /// `None` when the inbox is empty.
    pub fn inbox_offset_spread_units(&self) -> Option<i128> {
        let min = self.inbox.iter().map(|p| p.offset_units).min()?;
        let max = self.inbox.iter().map(|p| p.offset_units).max()?;
        Some(max - min)
    }

    /// Step 2 (continued) — drift compensation: ship an interval from its
    /// receive event forward to the CF application point (local clock
    /// `now`), enlarging by ρ·elapsed plus granularity/rate terms.
    pub fn drift_compensate(&self, p: &Preprocessed, now: NtpTime) -> AccInterval {
        let elapsed = now.wrapping_diff_units(p.recv_local).max(0) as u128;
        let widen = Self::drift_widen(elapsed, self.params.rho_ppm) + self.gu_units();
        p.interval.shift(elapsed as i128).widen(widen, widen)
    }

    /// ρ·elapsed widening in units, rounded up.
    fn drift_widen(elapsed_units: u128, rho_ppm: f64) -> u128 {
        // ceil(elapsed * rho). rho in ppm: elapsed * rho_ppm / 1e6.
        let num = (elapsed_units as f64) * rho_ppm / 1e6;
        num.ceil() as u128
    }

    /// Close a round **without** converging — the holdover freeze. The
    /// inbox and external intervals are drained and discarded and the
    /// round counter advances (so round timing stays aligned with the
    /// broadcast schedule), but no enforcement is computed: the clock
    /// free-runs on its last trimmed rate while the ACU's deterioration
    /// keeps widening the accuracy interval at the drift bound, which is
    /// exactly what preserves containment without fresh samples.
    pub fn skip_round(&mut self) {
        self.round += 1;
        self.inbox.clear();
        self.heard.fill(0);
        self.ext.clear();
    }

    /// Step 3 — apply the convergence function at CF time. `now` and
    /// `own_alpha` are the node's clock and ACU state read atomically at
    /// this instant. Returns the enforcement decision, or `None` when
    /// convergence failed (inputs too disjoint for the fault assumption) —
    /// the node then keeps deteriorating (its interval stays valid).
    ///
    /// The inbox is drained; the round counter advances.
    pub fn converge(
        &mut self,
        now: NtpTime,
        own_alpha: (Accuracy, Accuracy),
    ) -> Option<Enforcement> {
        self.round += 1;
        let inbox = std::mem::take(&mut self.inbox);
        self.heard.fill(0);
        let ext = std::mem::take(&mut self.ext);
        // A reintegrating node below its quorum keeps free-running wide
        // (its deteriorating interval stays honest) and tries again next
        // round: adopting a lone neighbour — or a minority island inside a
        // partition — a-posteriori would count the node as recovered on
        // evidence that cannot mask even one fault. A validated external
        // (UTC) reference satisfies the quorum by itself. With the quorum
        // heard, it adopts the ensemble by leaving its own operator-set
        // interval out of the inputs.
        if self.reintegrating
            && inbox.len() + ext.len() < self.reintegration_quorum
            && ext.is_empty()
        {
            return None;
        }
        let reintegrating = self.reintegrating;
        let own = AccInterval::from_alpha(now, own_alpha.0, own_alpha.1);
        match self.algo {
            AlgoKind::IntervalOa | AlgoKind::IntervalMarzullo => {
                let mut inputs = Vec::with_capacity(1 + inbox.len() + ext.len());
                if !reintegrating {
                    inputs.push(own);
                }
                inputs.extend(inbox.iter().map(|p| self.drift_compensate(p, now)));
                inputs.extend(ext.iter().map(|p| self.drift_compensate(p, now)));
                let cf = match self.algo {
                    AlgoKind::IntervalOa => oa(&inputs, self.params.f),
                    _ => marzullo(&inputs, self.params.f),
                };
                let mut new = match cf {
                    Some(iv) => iv,
                    None => {
                        self.cf_failures += 1;
                        return None;
                    }
                };
                // Clock validation ([Sch94]): the internal CF result is the
                // *validation interval*; a validated external (GPS)
                // interval that still intersects it is adopted — the node's
                // interval becomes the intersection, valued at the external
                // estimate. This is what lets one trustworthy receiver
                // anchor the whole cluster to UTC.
                for p in &ext {
                    let e = self.drift_compensate(p, now);
                    if self.blind_external {
                        // Negative control: adopt the external interval
                        // wholesale, consistent or not.
                        new = e;
                    } else if let Some(ix) = new.intersect(&e) {
                        let d = e
                            .value
                            .wrapping_diff_units(ix.value)
                            .clamp(-(ix.minus as i128), ix.plus as i128);
                        new = ix.rebase(ix.value.wrapping_add_units(d));
                    }
                }
                self.reintegrating = false;
                let delta = new.value.wrapping_diff_units(now);
                // The loaded accuracies must cover the pre-amortization
                // state: widen by |delta| (shrunk back during the slew via
                // negative deterioration, see the cluster's AmortEnd
                // handling) plus the enforcement margin.
                let margin = self.gu_units();
                let cover = delta.unsigned_abs() + margin;
                let widened = new.widen(cover, cover);
                Some(Enforcement {
                    delta_units: delta,
                    new_alpha: widened.to_alpha(),
                    inputs: inputs.len(),
                })
            }
            AlgoKind::Ftm => {
                if 2 * self.params.f > inbox.len() {
                    self.cf_failures += 1;
                    return None;
                }
                // A reintegrating node leaves its own (cold) clock out and
                // adopts the peer median.
                let mut offsets: Vec<i128> = if reintegrating { vec![] } else { vec![0] };
                for p in &inbox {
                    // Ship the offset estimate forward: offsets are
                    // rate-stable over Δ, no compensation in the baseline.
                    offsets.push(p.offset_units);
                }
                self.reintegrating = false;
                let delta = ftm(&offsets, self.params.f);
                Some(Enforcement {
                    delta_units: delta,
                    new_alpha: (Accuracy::MAX, Accuracy::MAX), // baseline keeps no intervals
                    inputs: offsets.len(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TimestampMode;
    use nti_simcore::time::SimDuration;

    fn params() -> SyncParams {
        SyncParams {
            round_period: SimDuration::from_secs(1),
            cf_delta: SimDuration::from_millis(100),
            f: 0,
            delay_min: SimDuration::from_micros(100),
            delay_max: SimDuration::from_micros(110),
            rho_ppm: 10.0,
            rate_adj_uncertainty: SimDuration::from_nanos(100),
            granularity: SimDuration::from_nanos(60),
            amortization: SimDuration::from_millis(50),
        }
    }

    fn csp(from: u32, xmit_secs: u32, xoff_us: i64, recv_local: NtpTime) -> ReceivedCsp {
        let x = NtpTime::from_secs(xmit_secs).wrapping_add_units(
            units_ceil(SimDuration::from_micros(xoff_us.unsigned_abs())) as i128
                * xoff_us.signum() as i128,
        );
        ReceivedCsp {
            payload: CspPayload {
                node: from,
                round: 1,
                alpha_minus: 10,
                alpha_plus: 10,
                macrostamp: 0,
                hw_timestamp: 0,
                hw_acc: 0,
                sw_timestamp: 0,
                hops: 0,
            },
            xmit_stamp: x,
            xmit_alpha: (Accuracy(10), Accuracy(10)),
            recv_local,
        }
    }

    #[test]
    fn preprocess_shifts_by_mid_delay_and_widens() {
        let core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let recv = NtpTime::from_secs(100);
        let c = csp(1, 100, 0, recv);
        let p = core.preprocess(&c);
        // Value = xmit + 105 us.
        let d = p.interval.value.wrapping_diff_units(c.xmit_stamp);
        let mid = units_ceil(SimDuration::from_micros(105));
        assert!((d - mid as i128).abs() <= 2, "mid-delay shift");
        // Widening at least the 5 us half-uncertainty beyond sender alpha.
        let sender_alpha = (10u128) << 35;
        assert!(p.interval.minus >= sender_alpha + units_ceil(SimDuration::from_micros(5)));
    }

    #[test]
    fn drift_compensation_grows_with_elapsed() {
        let core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let recv = NtpTime::from_secs(100);
        let p = core.preprocess(&csp(1, 100, 0, recv));
        let soon = core.drift_compensate(
            &p,
            recv.wrapping_add_units(units_ceil(SimDuration::from_millis(1)) as i128),
        );
        let late = core.drift_compensate(
            &p,
            recv.wrapping_add_units(units_ceil(SimDuration::from_millis(100)) as i128),
        );
        assert!(late.width() > soon.width());
        // 100 ms at 10 ppm: ~1 us extra per side.
        let extra = (late.width() - soon.width()) as f64 / (1u128 << 59) as f64;
        assert!(
            (extra - 2.0 * 0.99e-6 * 1.0).abs() < 0.5e-6,
            "extra={extra}"
        );
    }

    #[test]
    fn converge_oa_two_nodes_meets_in_middle() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        // Peer claims to be 40 us ahead of us (after delay compensation),
        // with an interval width comparable to ours so the FTM midpoint
        // stays inside Marzullo's region.
        let mut c = csp(1, 100, -65, now); // offset = -65+105 = +40us
        c.xmit_alpha = (Accuracy(1000), Accuracy(1000));
        let p = core.preprocess(&c);
        core.accept(p);
        let e = core
            .converge(now, (Accuracy(1000), Accuracy(1000)))
            .expect("converges");
        let delta_us = e.delta_units as f64 / (1u128 << 59) as f64 * 1e6;
        assert!(
            (10.0..30.0).contains(&delta_us),
            "should move ~half of 40us, got {delta_us}"
        );
        assert_eq!(e.inputs, 2);
        assert_eq!(core.inbox_len(), 0, "inbox drained");
        assert_eq!(core.round, 1);
    }

    #[test]
    fn converge_oa_tight_peer_dominates() {
        // When the peer's interval is much tighter than ours, Marzullo
        // clamps the new value toward the peer — accuracy-weighted
        // convergence, a property plain FTM lacks.
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        let c = csp(1, 100, -65, now); // +40us ahead, alpha = 10 units (tight)
        core.accept(core.preprocess(&c));
        let e = core
            .converge(now, (Accuracy(1000), Accuracy(1000)))
            .expect("converges");
        let delta_us = e.delta_units as f64 / (1u128 << 59) as f64 * 1e6;
        assert!(
            delta_us > 30.0,
            "tight peer must pull harder, got {delta_us}"
        );
    }

    #[test]
    fn converge_oa_alpha_covers_slew() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        let c = csp(1, 100, -165, now); // peer ~100us behind => we'll step back
        core.accept(core.preprocess(&c));
        let e = core
            .converge(now, (Accuracy(2000), Accuracy(2000)))
            .expect("converges");
        assert!(e.delta_units < 0);
        let cover = e.delta_units.unsigned_abs() as f64 / (1u128 << 59) as f64;
        // Loaded alpha must be at least the slew magnitude.
        assert!(e.new_alpha.0.as_secs_f64() >= cover * 0.99);
    }

    #[test]
    fn converge_fails_gracefully_when_disjoint() {
        let mut p = params();
        p.f = 1;
        let mut core = SyncCore::new(p, AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        // Two peers wildly disagreeing with us and each other; f=1 with 3
        // inputs needs a 2-quorum that does not exist.
        let a = csp(1, 200, 0, now);
        let b = csp(2, 300, 0, now);
        core.accept(core.preprocess(&a));
        core.accept(core.preprocess(&b));
        let own_alpha = (Accuracy(1), Accuracy(1));
        assert!(core.converge(now, own_alpha).is_none());
        assert_eq!(core.cf_failures, 1);
    }

    #[test]
    fn ftm_baseline_steps_toward_median() {
        let mut core = SyncCore::new(params(), AlgoKind::Ftm);
        let now = NtpTime::from_secs(100);
        for (id, off) in [(1u32, -35i64), (2, -25), (3, -45)] {
            // Peers whose offset estimates land around +70..+80us
            core.accept(core.preprocess(&csp(id, 100, off - 105, now)));
        }
        let e = core
            .converge(now, (Accuracy::MAX, Accuracy::MAX))
            .expect("quorum");
        let delta_us = e.delta_units as f64 / (1u128 << 59) as f64 * 1e6;
        // Offsets: 0 (self), -35, -25, -45 us; f=0 midpoint = (-45+0)/2 = -22.5.
        assert!((-30.0..-15.0).contains(&delta_us), "delta={delta_us}");
        let _ = TimestampMode::Hardware; // param smoke-use
    }

    #[test]
    fn reintegration_below_quorum_stays_reintegrating() {
        // A node restarting inside a partition hears one neighbour; with a
        // reintegration quorum of 2 it must not count as recovered —
        // Marzullo with f=1 over 2 peer inputs would happily produce an
        // interval, which is exactly the trap.
        let mut p = params();
        p.f = 1;
        let mut core = SyncCore::new(p, AlgoKind::IntervalMarzullo);
        core.reintegrating = true;
        core.reintegration_quorum = 3;
        let now = NtpTime::from_secs(100);
        core.accept(core.preprocess(&csp(1, 100, 0, now)));
        core.accept(core.preprocess(&csp(2, 100, 0, now)));
        assert!(core
            .converge(now, (Accuracy(1000), Accuracy(1000)))
            .is_none());
        assert!(core.reintegrating, "sub-quorum must not clear the flag");
        assert_eq!(core.cf_failures, 0, "withheld, not failed");
        // With the quorum heard, the same node adopts the ensemble.
        for id in 1..=3 {
            core.accept(core.preprocess(&csp(id, 101, 0, now)));
        }
        assert!(core
            .converge(now, (Accuracy(1000), Accuracy(1000)))
            .is_some());
        assert!(!core.reintegrating);
    }

    #[test]
    fn reintegration_external_reference_suffices() {
        // A validated UTC reference anchors reintegration by itself.
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.reintegrating = true;
        core.reintegration_quorum = 3;
        let now = NtpTime::from_secs(100);
        core.accept_external(Preprocessed {
            from: 99,
            interval: AccInterval::from_halfwidth(now, SimDuration::from_micros(5)),
            recv_local: now,
            offset_units: 0,
        });
        assert!(core
            .converge(now, (Accuracy(2000), Accuracy(2000)))
            .is_some());
        assert!(!core.reintegrating);
    }

    #[test]
    fn duplicate_csp_suppression_survives_restart_semantics() {
        // First-stamp-stands within a round; a fresh round (or a cold
        // restart) legitimately re-accepts the same sender. The copy of a
        // pre-crash CSP must not be double-counted after reintegration:
        // the crash wiped the inbox, so exactly one acceptance per
        // (sender, round, incarnation) ever feeds a convergence.
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        let p = core.preprocess(&csp(1, 100, 0, now));
        assert!(core.accept(p));
        assert!(!core.accept(p), "duplicate within the round rejected");
        assert_eq!(core.csps_accepted, 1);
        // Crash: the node restarts with a fresh core, reintegrating.
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.reintegrating = true;
        assert!(core.accept(p), "new incarnation, first stamp stands again");
        assert!(!core.accept(p), "but its duplicate still does not");
        assert_eq!(core.csps_accepted, 1);
    }

    #[test]
    fn a_sender_is_heard_once_per_round() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        // Sender 70 sits in the heard table's second word.
        let a = core.preprocess(&csp(1, 100, 0, now));
        let b = core.preprocess(&csp(70, 100, 0, now));
        assert!(core.accept(a));
        assert!(core.accept(b));
        assert!(!core.accept(a), "second CSP from 1 in the round");
        assert!(!core.accept(b), "second CSP from 70 in the round");
        assert_eq!(core.inbox_len(), 2);
        assert!(core
            .converge(now, (Accuracy(2000), Accuracy(2000)))
            .is_some());
        assert!(core.accept(a), "a new round hears sender 1 again");
        assert!(!core.accept(a));
        core.skip_round();
        assert!(core.accept(b), "so does a skipped round's successor");
        assert!(core.accept(a));
        assert!(!core.accept(b));
        assert_eq!(core.csps_accepted, 5);
    }

    #[test]
    fn marked_duplicates_count_as_single_csps() {
        let now = NtpTime::from_secs(100);
        // Discount: both copies count as marked, only the first enters
        // (widened).
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.congestion = CongestionPolicy::Discount { widen_factor: 4 };
        let p = core.preprocess(&csp(3, 100, 0, now));
        assert!(core.accept_csp(p, true));
        assert!(!core.accept_csp(p, true));
        assert!(!core.accept_csp(p, false));
        let counts = (core.csps_marked, core.csps_discounted, core.csps_accepted);
        assert_eq!(counts, (2, 1, 1));
        // Discard: a discarded copy leaves the sender unheard, so a later
        // unmarked copy still enters, once.
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.congestion = CongestionPolicy::Discard;
        assert!(!core.accept_csp(p, true));
        assert!(core.accept_csp(p, false));
        assert!(!core.accept_csp(p, false));
        assert!(!core.accept_csp(p, true));
        let counts = (core.csps_marked, core.csps_discarded, core.csps_accepted);
        assert_eq!(counts, (2, 2, 1));
        assert_eq!(core.inbox_len(), 1);
    }

    #[test]
    fn congestion_discard_drops_marked_csps() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.congestion = CongestionPolicy::Discard;
        let now = NtpTime::from_secs(100);
        let p = core.preprocess(&csp(1, 100, 0, now));
        assert!(!core.accept_csp(p, true));
        assert_eq!((core.csps_marked, core.csps_discarded), (1, 1));
        assert_eq!(core.inbox_len(), 0);
        // Unmarked CSPs pass untouched.
        assert!(core.accept_csp(p, false));
        assert_eq!(core.csps_marked, 1);
    }

    #[test]
    fn congestion_discount_widens_marked_intervals() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        core.congestion = CongestionPolicy::Discount { widen_factor: 4 };
        let now = NtpTime::from_secs(100);
        let p = core.preprocess(&csp(1, 100, 0, now));
        assert!(core.accept_csp(p, true));
        assert_eq!((core.csps_marked, core.csps_discounted), (1, 1));
        let spread_free = core.inbox_offset_spread_units();
        assert_eq!(spread_free, Some(0), "value untouched, only widened");
        // Ignore policy leaves the interval alone.
        let mut plain = SyncCore::new(params(), AlgoKind::IntervalOa);
        assert_eq!(plain.congestion, CongestionPolicy::Ignore);
        assert!(plain.accept_csp(p, true));
        assert_eq!(plain.csps_discounted, 0);
    }

    #[test]
    fn skip_round_drains_without_converging() {
        let mut core = SyncCore::new(params(), AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        core.accept(core.preprocess(&csp(1, 100, 0, now)));
        core.accept_external(Preprocessed {
            from: 99,
            interval: AccInterval::from_halfwidth(now, SimDuration::from_micros(5)),
            recv_local: now,
            offset_units: 0,
        });
        core.skip_round();
        assert_eq!(core.round, 1, "round advances in step with the schedule");
        assert_eq!(core.inbox_len(), 0);
        assert_eq!(core.ext_len(), 0);
        assert_eq!(core.cf_failures, 0);
    }

    #[test]
    fn external_interval_pulls_value() {
        let mut p = params();
        p.f = 0;
        let mut core = SyncCore::new(p, AlgoKind::IntervalOa);
        let now = NtpTime::from_secs(100);
        // A validated external interval 30 us ahead with tiny alpha.
        let ext_iv = AccInterval::from_halfwidth(
            now.wrapping_add_units(units_ceil(SimDuration::from_micros(30)) as i128),
            SimDuration::from_micros(1),
        );
        core.accept_external(Preprocessed {
            from: 99,
            interval: ext_iv,
            recv_local: now,
            offset_units: 0,
        });
        let e = core
            .converge(now, (Accuracy(2000), Accuracy(2000)))
            .expect("converges");
        let delta_us = e.delta_units as f64 / (1u128 << 59) as f64 * 1e6;
        assert!(
            delta_us > 10.0,
            "external source must pull the value, delta={delta_us}"
        );
    }
}
