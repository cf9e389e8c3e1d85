//! Property-based tests for the interval algebra and convergence
//! functions — the safety-critical kernel of the reproduction.

use nti_core::convergence::{ftm, marzullo, oa};
use nti_core::interval::{units_ceil, AccInterval};
use nti_core::rate::RateSync;
use nti_simcore::ntp::NtpTime;
use nti_simcore::time::SimDuration;
use proptest::prelude::*;

const BASE_SECS: u32 = 1000;

/// The map-backed per-peer rate history `RateSync` used before its dense
/// table: the oracle for `rate_history_matches_a_map_oracle`.
#[derive(Default)]
struct RateOracle {
    history: std::collections::HashMap<u32, (NtpTime, NtpTime)>,
    estimates: Vec<f64>,
}

impl RateOracle {
    fn observe(&mut self, from: u32, peer: NtpTime, local: NtpTime) {
        if let Some((p0, l0)) = self.history.insert(from, (peer, local)) {
            let dp = peer.wrapping_diff_units(p0);
            let dl = local.wrapping_diff_units(l0);
            if dp > 0 && dl > 0 {
                self.estimates.push(dp as f64 / dl as f64 - 1.0);
            }
        }
    }

    fn round_correction(&mut self, f: usize) -> Option<f64> {
        let mut est = std::mem::take(&mut self.estimates);
        if est.len() < 2 * f + 1 {
            return None;
        }
        est.sort_by(|a, b| a.partial_cmp(b).expect("rate estimate NaN"));
        let trimmed = &est[f..est.len() - f];
        Some(trimmed[trimmed.len() / 2] / 2.0)
    }
}

/// An interval centred `off` units from the base with the given half
/// widths (all in 2⁻⁵⁹ s units, bounded to keep arithmetic in range).
fn iv(off: i64, minus: u64, plus: u64) -> AccInterval {
    AccInterval::new(
        NtpTime::from_secs(BASE_SECS).wrapping_add_units(off as i128),
        minus as u128,
        plus as u128,
    )
}

fn arb_interval() -> impl Strategy<Value = AccInterval> {
    (
        -(1i64 << 40)..(1i64 << 40),
        0u64..(1 << 42),
        0u64..(1 << 42),
    )
        .prop_map(|(off, m, p)| iv(off, m, p))
}

proptest! {
    /// Intersection is sound: a point in both inputs is in the output, and
    /// the output is within both inputs.
    #[test]
    fn intersect_soundness(a in arb_interval(), b in arb_interval(), probe in -(1i64 << 43)..(1i64 << 43)) {
        let p = NtpTime::from_secs(BASE_SECS).wrapping_add_units(probe as i128);
        match a.intersect(&b) {
            Some(ix) => {
                prop_assert!(ix.lower().wrapping_diff_units(a.lower()) >= 0 || ix.lower() == b.lower());
                if a.contains(p) && b.contains(p) {
                    prop_assert!(ix.contains(p));
                }
                if ix.contains(p) {
                    prop_assert!(a.contains(p) && b.contains(p));
                }
            }
            None => {
                // Disjoint: no point may be in both.
                prop_assert!(!(a.contains(p) && b.contains(p)));
            }
        }
    }

    /// Hull contains both inputs entirely.
    #[test]
    fn hull_containment(a in arb_interval(), b in arb_interval()) {
        let h = a.hull(&b);
        prop_assert!(h.contains(a.lower()) && h.contains(a.upper()));
        prop_assert!(h.contains(b.lower()) && h.contains(b.upper()));
        prop_assert!(h.width() >= a.width() && h.width() >= b.width());
    }

    /// Widening preserves everything the original contained.
    #[test]
    fn widen_monotone(a in arb_interval(), wm in 0u64..(1 << 40), wp in 0u64..(1 << 40), probe in -(1i64 << 43)..(1i64 << 43)) {
        let p = NtpTime::from_secs(BASE_SECS).wrapping_add_units(probe as i128);
        let w = a.widen(wm as u128, wp as u128);
        if a.contains(p) {
            prop_assert!(w.contains(p));
        }
    }

    /// Rebase never moves the edges.
    #[test]
    fn rebase_preserves_edges(a in arb_interval(), frac in 0.0f64..1.0) {
        let span = a.width();
        let d = (span as f64 * frac) as u128;
        let nv = a.lower().wrapping_add_units(d as i128);
        let r = a.rebase(nv);
        prop_assert_eq!(r.lower(), a.lower());
        prop_assert_eq!(r.upper(), a.upper());
    }

    /// Marzullo's theorem: if a point lies in at least n−f inputs, it lies
    /// in the output. (This is exactly the containment argument: real time
    /// lies in every non-faulty interval.)
    #[test]
    fn marzullo_keeps_quorum_points(
        intervals in proptest::collection::vec(arb_interval(), 1..10),
        f in 0usize..3,
        probe in -(1i64 << 43)..(1i64 << 43),
    ) {
        prop_assume!(f < intervals.len());
        let p = NtpTime::from_secs(BASE_SECS).wrapping_add_units(probe as i128);
        let quorum = intervals.len() - f;
        let covering = intervals.iter().filter(|iv| iv.contains(p)).count();
        if let Some(m) = marzullo(&intervals, f) {
            if covering >= quorum {
                prop_assert!(m.contains(p), "quorum point escaped Marzullo");
            }
        } else {
            // No output: then no point can have quorum coverage.
            prop_assert!(covering < quorum);
        }
    }

    /// Marzullo's output value lies inside the output interval, and the
    /// output never exceeds the hull of the inputs.
    #[test]
    fn marzullo_output_sane(
        intervals in proptest::collection::vec(arb_interval(), 1..10),
        f in 0usize..3,
    ) {
        prop_assume!(f < intervals.len());
        if let Some(m) = marzullo(&intervals, f) {
            prop_assert!(m.contains(m.value));
            let hull = intervals.iter().skip(1).fold(intervals[0], |h, iv| h.hull(iv));
            prop_assert!(hull.contains(m.lower()));
            prop_assert!(hull.contains(m.upper()));
        }
    }

    /// FTM is bounded by the surviving extremes and is monotone under
    /// translation.
    #[test]
    fn ftm_bounded_and_shift_equivariant(
        mut xs in proptest::collection::vec(-(1i128 << 50)..(1i128 << 50), 1..12),
        f in 0usize..3,
        shift in -(1i128 << 50)..(1i128 << 50),
    ) {
        prop_assume!(2 * f < xs.len());
        let v = ftm(&xs, f);
        xs.sort_unstable();
        prop_assert!(xs[f] <= v && v <= xs[xs.len() - 1 - f]);
        let shifted: Vec<i128> = xs.iter().map(|x| x + shift).collect();
        prop_assert_eq!(ftm(&shifted, f), v + shift);
    }

    /// OA containment: if a point lies in all inputs (the non-faulty case
    /// with f lying inputs removed), it lies in OA's output.
    #[test]
    fn oa_preserves_common_points(
        intervals in proptest::collection::vec(arb_interval(), 1..8),
        f in 0usize..2,
        probe in -(1i64 << 41)..(1i64 << 41),
    ) {
        prop_assume!(2 * f < intervals.len());
        let p = NtpTime::from_secs(BASE_SECS).wrapping_add_units(probe as i128);
        if intervals.iter().all(|iv| iv.contains(p)) {
            if let Some(new) = oa(&intervals, f) {
                prop_assert!(new.contains(p), "common point escaped OA");
            }
        }
    }

    /// OA never produces an interval wider than Marzullo's (it adopts M's
    /// edges), and its value is inside its own interval.
    #[test]
    fn oa_no_wider_than_marzullo(
        intervals in proptest::collection::vec(arb_interval(), 1..8),
        f in 0usize..2,
    ) {
        prop_assume!(2 * f < intervals.len());
        let m = marzullo(&intervals, f);
        let o = oa(&intervals, f);
        match (m, o) {
            (Some(m), Some(o)) => {
                prop_assert_eq!(o.width(), m.width());
                prop_assert!(o.contains(o.value));
            }
            (None, None) => {}
            (m, o) => prop_assert!(false, "M/OA disagree on failure: {m:?} vs {o:?}"),
        }
    }

    /// Duration → units → duration round trip over-covers but within one
    /// femtosecond-level granule.
    #[test]
    fn units_roundtrip(us in 0u64..10_000_000) {
        let d = SimDuration::from_micros(us);
        let u = units_ceil(d);
        let back = nti_core::interval::units_to_duration(u);
        prop_assert!(back >= d);
        prop_assert!(back.as_fs() - d.as_fs() <= 2);
    }

    /// The dense per-peer rate table gives the results the map it replaced
    /// gave: every pending count and every round correction, over random
    /// interleavings of observations (stamps moving either way, peers past
    /// the table's current length) and round closes.
    #[test]
    fn rate_history_matches_a_map_oracle(
        ops in proptest::collection::vec(
            (0u32..80, 0u8..8, -(1i64 << 50)..(1i64 << 50), -(1i64 << 50)..(1i64 << 50)),
            0..200,
        ),
        f in 0usize..3,
    ) {
        let base = NtpTime::from_secs(BASE_SECS);
        let (mut dense, mut oracle) = (RateSync::new(), RateOracle::default());
        for (from, op, peer, local) in ops {
            if op == 0 {
                prop_assert_eq!(dense.round_correction(f), oracle.round_correction(f));
            } else {
                let (peer, local) = (
                    base.wrapping_add_units(peer as i128),
                    base.wrapping_add_units(local as i128),
                );
                dense.observe(from, peer, local);
                oracle.observe(from, peer, local);
            }
            prop_assert_eq!(dense.pending(), oracle.estimates.len());
        }
        prop_assert_eq!(dense.round_correction(f), oracle.round_correction(f));
    }
}
