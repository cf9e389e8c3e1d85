//! Interval-based clock **rate** synchronization, after \[Scho97\].
//!
//! The paper is explicit that the 1 µs target "makes it inevitable … to
//! utilize bounds on the maximum clock drift provided by a suitable rate
//! synchronization algorithm", which "effectively reduces the maximum drift
//! without necessitating highly accurate and stable oscillators" (Section
//! 2). The adder-based clock is the actuator: STEP is trimmable in
//! `f_osc·2⁻⁵¹ ≈ 4.4 ns/s` quanta.
//!
//! The estimator uses the same CSPs the state algorithm exchanges: for each
//! peer, the ratio of the peer's elapsed clock time between two consecutive
//! CSPs to the local elapsed time between the corresponding receive stamps
//! estimates the relative rate. A fault-tolerant trimmed median over the
//! peers (drop the `f` fastest and `f` slowest) gives the ensemble-relative
//! rate error, half of which is removed each round (damped so all nodes
//! converge to the ensemble rate without oscillation).
//!
//! Experiment E4 measures the resulting drift reduction and the precision
//! improvement it buys.

use nti_simcore::ntp::NtpTime;

/// Per-node rate synchronization state.
#[derive(Clone, Debug, Default)]
pub struct RateSync {
    /// Last (peer stamp, local stamp) per peer, indexed by the peer's
    /// node id (ids are dense, `0..n`); grows on demand.
    history: Vec<Option<(NtpTime, NtpTime)>>,
    /// Relative rate estimates collected this round: (peer − self)/self.
    estimates: Vec<f64>,
    /// Corrections applied so far.
    pub rounds_applied: u64,
    /// The last applied correction (fractional, for instrumentation).
    pub last_correction: f64,
}

impl RateSync {
    /// Fresh state.
    pub fn new() -> Self {
        RateSync::default()
    }

    /// Record one CSP observation: the peer's transmit stamp and the local
    /// clock at the receive stamp. Consecutive observations from the same
    /// peer yield one rate estimate.
    pub fn observe(&mut self, from: u32, peer_stamp: NtpTime, local_stamp: NtpTime) {
        let i = from as usize;
        if i >= self.history.len() {
            self.history.resize(i + 1, None);
        }
        if let Some((p0, l0)) = self.history[i].replace((peer_stamp, local_stamp)) {
            let dp = peer_stamp.wrapping_diff_units(p0);
            let dl = local_stamp.wrapping_diff_units(l0);
            if dp > 0 && dl > 0 {
                self.estimates.push(dp as f64 / dl as f64 - 1.0);
            }
        }
    }

    /// Number of estimates pending for this round.
    pub fn pending(&self) -> usize {
        self.estimates.len()
    }

    /// Compute (and consume) this round's damped rate correction: the
    /// multiplicative factor to apply to the local STEP register, or `None`
    /// when fewer than `2f + 1` estimates are available.
    ///
    /// The trimmed median drops the `f` largest and `f` smallest relative
    /// rates (tolerating `f` faulty peers); damping is ½.
    pub fn round_correction(&mut self, f: usize) -> Option<f64> {
        let mut est = std::mem::take(&mut self.estimates);
        if est.len() < 2 * f + 1 {
            return None;
        }
        est.sort_by(|a, b| a.partial_cmp(b).expect("rate estimate NaN"));
        let trimmed = &est[f..est.len() - f];
        let mid = trimmed[trimmed.len() / 2];
        let correction = mid / 2.0;
        self.rounds_applied += 1;
        self.last_correction = correction;
        Some(correction)
    }

    /// Apply a multiplicative correction to a STEP register value,
    /// saturating into the valid range.
    pub fn corrected_step(step_units: u64, correction: f64) -> u64 {
        let new = (step_units as f64 * (1.0 + correction)).round();
        new.clamp(1.0, ((1u64 << 40) - 1) as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nti_simcore::ntp::UNITS_PER_SEC;

    fn stamp(secs_f: f64) -> NtpTime {
        NtpTime::from_raw((secs_f * UNITS_PER_SEC as f64) as u128)
    }

    #[test]
    fn estimates_relative_rate() {
        let mut rs = RateSync::new();
        // Peer runs 10 ppm fast relative to us: over 1 local second it
        // advances 1.000010 s.
        rs.observe(1, stamp(100.0), stamp(200.0));
        rs.observe(1, stamp(101.000010), stamp(201.0));
        assert_eq!(rs.pending(), 1);
        let corr = rs.round_correction(0).expect("one estimate");
        // Damped: ~+5 ppm (move halfway toward the peer's rate).
        assert!((corr - 5e-6).abs() < 1e-7, "corr={corr}");
    }

    #[test]
    fn needs_two_observations_per_peer() {
        let mut rs = RateSync::new();
        rs.observe(1, stamp(1.0), stamp(1.0));
        assert_eq!(rs.pending(), 0);
        assert!(rs.round_correction(0).is_none());
    }

    #[test]
    fn trimmed_median_ignores_f_liars() {
        let mut rs = RateSync::new();
        // Three honest peers at ~0 ppm, one liar at +1000 ppm.
        for (id, rate) in [(1u32, 0.0), (2, 1e-6), (3, -1e-6), (4, 1e-3)] {
            rs.observe(id, stamp(0.0), stamp(0.0));
            rs.observe(id, stamp(1.0 + rate), stamp(1.0));
        }
        let corr = rs.round_correction(1).expect("enough estimates");
        assert!(corr.abs() < 1e-6, "liar leaked into correction: {corr}");
    }

    #[test]
    fn insufficient_quorum_returns_none() {
        let mut rs = RateSync::new();
        rs.observe(1, stamp(0.0), stamp(0.0));
        rs.observe(1, stamp(1.0), stamp(1.0));
        assert!(rs.round_correction(1).is_none(), "needs 2f+1 = 3 estimates");
        // Estimates were consumed regardless (round boundary).
        assert_eq!(rs.pending(), 0);
    }

    #[test]
    fn corrected_step_saturates() {
        assert_eq!(RateSync::corrected_step(1000, 0.5), 1500);
        assert_eq!(RateSync::corrected_step(1, -0.999999), 1);
        assert_eq!(RateSync::corrected_step((1 << 40) - 1, 1.0), (1 << 40) - 1);
    }

    #[test]
    fn two_nodes_converge_geometrically() {
        // Simulate the closed loop: two nodes at ±10 ppm apply mutual
        // corrections; relative rate must shrink every round.
        let mut rate_a = 10e-6f64;
        let mut rate_b = -10e-6f64;
        for _ in 0..6 {
            let rel_ab = (1.0 + rate_b) / (1.0 + rate_a) - 1.0;
            let rel_ba = (1.0 + rate_a) / (1.0 + rate_b) - 1.0;
            rate_a += (1.0 + rate_a) * rel_ab / 2.0;
            rate_b += (1.0 + rate_b) * rel_ba / 2.0;
        }
        assert!(
            (rate_a - rate_b).abs() < 1e-9,
            "residual {}",
            (rate_a - rate_b).abs()
        );
    }
}
