//! The correctness checks every run makes, tallied into the attempted and
//! failed operation counts behind `ok_rate` and `error_rate`.

use crate::serverun::ClientOut;
use nti_core::cluster::Report;

#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, for the log and the record.
    pub failures: Vec<String>,
}

impl Checks {
    fn tally(&mut self, what: &str, kind: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{what}: {failed} {kind}"));
        }
    }

    /// A finished run: every containment check and every CSP reception is
    /// one operation; a violated check, a dropped CSP and an online-monitor
    /// violation (traced runs only) each fail one.
    pub fn report(&mut self, what: &str, r: &Report) {
        let (violations, checks) = r.containment;
        let (_sent, delivered, dropped) = r.csps;
        self.tally(what, "containment violations", checks, violations);
        self.tally(what, "dropped CSPs", delivered + dropped, dropped);
        self.tally(
            what,
            "monitor violations",
            r.monitor_violations,
            r.monitor_violations,
        );
    }

    /// The determinism contract: the same seed gives a bit-identical
    /// `Report::to_json`.
    pub fn identical(&mut self, what: &str, reference: &str, candidate: &str) {
        let differs = u64::from(reference != candidate);
        self.tally(what, "report differs from the reference run", 1, differs);
    }

    /// Every query of a closed loop is one operation. It fails on a
    /// timeout, a malformed or stale answer, a kiss-o'-death answer (it
    /// claims no time) or an answer whose interval misses its reference.
    pub fn client(&mut self, what: &str, c: &ClientOut) {
        self.attempted += c.sent;
        for (kind, n) in [
            ("timeouts", c.timeouts),
            ("malformed responses", c.malformed),
            ("origin mismatches", c.origin_mismatches),
            ("kiss-o'-death responses", c.kod),
            ("containment violations", c.containment_violations),
        ] {
            self.tally(what, kind, 0, n);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nti_core::cluster::{Cluster, ClusterConfig};
    use nti_simcore::SimDuration;

    fn small(seed: u64) -> Report {
        let mut cfg = ClusterConfig::default_lan(4, seed);
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        Cluster::new(cfg).run()
    }

    #[test]
    fn a_healthy_run_passes() {
        let r = small(3);
        let mut c = Checks::default();
        c.report("run", &r);
        c.identical(
            "rerun",
            &r.to_json().to_string(),
            &small(3).to_json().to_string(),
        );
        assert!(c.correct(), "{:?}", c.failures);
        assert_eq!(c.error_rate(), 0.0);
    }

    #[test]
    fn forced_violations_fail_the_check() {
        let mut r = small(3);
        r.containment.0 = 2;
        r.csps.2 = 1;
        r.monitor_violations = 1;
        let mut c = Checks::default();
        c.report("forced", &r);
        assert!(!c.correct());
        assert_eq!(c.failed, 4);
        assert_eq!(c.failures.len(), 3);
    }

    #[test]
    fn a_different_report_fails_bit_identity() {
        let mut c = Checks::default();
        c.identical(
            "seed 3 vs 4",
            &small(3).to_json().to_string(),
            &small(4).to_json().to_string(),
        );
        assert!(!c.correct());
    }

    #[test]
    fn serve_failures_fail_the_check() {
        for poison in 0..5 {
            let mut out = ClientOut {
                sent: 10,
                ..ClientOut::default()
            };
            match poison {
                0 => out.timeouts = 1,
                1 => out.malformed = 1,
                2 => out.origin_mismatches = 1,
                3 => out.kod = 1,
                _ => out.containment_violations = 1,
            }
            let mut c = Checks::default();
            c.client("forced", &out);
            assert!(!c.correct(), "poison {poison} passed");
        }
    }

    /// The disclosed containment defects, driven through the real
    /// program: `lan128` at a 500 ms / 128 stagger and `wan_8x8` at a
    /// 7.8 ms stagger lose containment, and the check must see it.
    #[test]
    fn the_wide_stagger_lan_defect_fails_the_check() {
        let mut cfg = crate::workloads::lan128_wide_stagger(22);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(1);
        let r = Cluster::new(cfg).run();
        let mut c = Checks::default();
        c.report("lan128 at 500 ms / 128 stagger", &r);
        assert!(!c.correct(), "containment {:?}", r.containment);
    }

    #[test]
    fn the_wide_stagger_wan_defect_fails_the_check() {
        let mut cfg = crate::workloads::wan_8x8(17);
        cfg.stagger = SimDuration::from_micros(7_800);
        cfg.duration = SimDuration::from_secs(8);
        cfg.warmup = SimDuration::from_secs(2);
        let r = Cluster::new(cfg).run();
        let mut c = Checks::default();
        c.report("wan_8x8 at 7.8 ms stagger", &r);
        assert!(!c.correct(), "containment {:?}", r.containment);
    }
}
