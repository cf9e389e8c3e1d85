//! Reference-model properties for the event engine.
//!
//! The engine (slab + binary heap, lazy stale-pop, periodics re-armed in
//! place) must be observationally identical to the plainest scheduler that
//! meets the contract: a sorted `Vec` that fires its minimum `(time, seq)`,
//! re-arms a periodic with the next sequence number and treats cancel as
//! removal. Both are driven with identical random programs of schedules
//! (one-shots at every delay scale from sub-microsecond to days,
//! same-instant bursts, clumps inside one microsecond, periodics that
//! cancel themselves), cancellations (including mass-cancels of everything
//! outstanding), and time advances (including hours-long jumps), and the
//! full observable trajectories must match bit-for-bit.

use nti_simcore::{Engine, EventId, SimDuration, SimTime};
use proptest::prelude::*;

/// Firing log: (label, fire time in fs). The label encodes which schedule
/// op produced the event (and the occurrence number for periodics), so a
/// log comparison catches reordering *between* distinct events as well as
/// lost or duplicated occurrences.
type Log = Vec<(u64, u128)>;

/// One observable step: (now fs, pending, events_fired) after each op.
type Trajectory = Vec<(u128, u64, u64)>;

/// Occurrences after which a periodic cancels itself, so that a huge time
/// advance fires a bounded number of events.
const PERIODIC_RUNS: u64 = 50;

/// Map raw randomness onto a delay at one of four scales: within about a
/// microsecond, within ~18 ms, within ~77 min, and beyond ~20 h.
fn delay_from(a: u64) -> u128 {
    let v = (a >> 2) as u128;
    match a & 3 {
        0 => v % (1 << 30),
        1 => v % (1 << 44),
        2 => v % (1 << 62),
        _ => (1 << 66) + v % (1 << 62),
    }
}

/// The scheduler surface a program drives. Handles are dense indices in
/// issue order, so both implementations cancel the same event for the same
/// op.
trait Sched {
    fn now(&self) -> u128;
    fn once(&mut self, at: u128, label: u64);
    fn every(&mut self, first: u128, period: u128, label: u64);
    fn cancel(&mut self, handle: usize);
    fn issued(&self) -> usize;
    fn run_until(&mut self, until: u128);
    fn observe(&self) -> (u128, u64, u64);
    fn into_log(self) -> Log;
}

/// The engine under test.
struct Eng {
    eng: Engine<Log>,
    log: Log,
    ids: Vec<EventId>,
}

impl Sched for Eng {
    fn now(&self) -> u128 {
        self.eng.now().as_fs()
    }
    fn once(&mut self, at: u128, label: u64) {
        let id = self.eng.schedule_at(SimTime::from_fs(at), move |log, e| {
            log.push((label, e.now().as_fs()));
        });
        self.ids.push(id);
    }
    fn every(&mut self, first: u128, period: u128, label: u64) {
        let own = std::rc::Rc::new(std::cell::Cell::new(None));
        let own_in = own.clone();
        let mut n = 0u64;
        let id = self.eng.schedule_every(
            SimTime::from_fs(first),
            SimDuration::from_fs(period),
            move |log: &mut Log, e| {
                log.push((label * 1_000_000 + n, e.now().as_fs()));
                n += 1;
                if n >= PERIODIC_RUNS {
                    e.cancel(own_in.get().expect("id set before the first run"));
                }
            },
        );
        own.set(Some(id));
        self.ids.push(id);
    }
    fn cancel(&mut self, handle: usize) {
        self.eng.cancel(self.ids[handle]);
    }
    fn issued(&self) -> usize {
        self.ids.len()
    }
    fn run_until(&mut self, until: u128) {
        self.eng.run_until(&mut self.log, SimTime::from_fs(until));
    }
    fn observe(&self) -> (u128, u64, u64) {
        let e = &self.eng;
        (e.now().as_fs(), e.pending() as u64, e.events_fired())
    }
    fn into_log(self) -> Log {
        self.log
    }
}

/// The reference model: pending events kept sorted by `(time, seq)`.
#[derive(Default)]
struct Model {
    now: u128,
    seq: u64,
    fired: u64,
    issued: usize,
    /// `(time, seq, handle, label, period)`; `period == 0` marks a one-shot.
    q: Vec<(u128, u64, usize, u64, u128)>,
    log: Log,
}

impl Model {
    fn push(&mut self, at: u128, handle: usize, label: u64, period: u128) {
        let key = (at, self.seq);
        let i = self.q.partition_point(|e| (e.0, e.1) < key);
        self.q.insert(i, (at, self.seq, handle, label, period));
        self.seq += 1;
    }
}

impl Sched for Model {
    fn now(&self) -> u128 {
        self.now
    }
    fn once(&mut self, at: u128, label: u64) {
        self.push(at, self.issued, label, 0);
        self.issued += 1;
    }
    fn every(&mut self, first: u128, period: u128, label: u64) {
        self.push(first, self.issued, label * 1_000_000, period);
        self.issued += 1;
    }
    fn cancel(&mut self, handle: usize) {
        self.q.retain(|e| e.2 != handle);
    }
    fn issued(&self) -> usize {
        self.issued
    }
    fn run_until(&mut self, until: u128) {
        while self.q.first().is_some_and(|e| e.0 <= until) {
            let (at, _, handle, label, period) = self.q.remove(0);
            self.now = at;
            self.fired += 1;
            self.log.push((label, at));
            let runs = label % 1_000_000 + 1;
            if period > 0 && runs < PERIODIC_RUNS {
                self.push(at + period, handle, label + 1, period);
            }
        }
        self.now = self.now.max(until);
    }
    fn observe(&self) -> (u128, u64, u64) {
        (self.now, self.q.len() as u64, self.fired)
    }
    fn into_log(self) -> Log {
        self.log
    }
}

/// Interpret one random program, returning everything observable: the
/// firing log and the per-op (now, pending, fired) trajectory.
fn run_program<Q: Sched>(mut q: Q, ops: &[(u8, u64, u64)]) -> (Log, Trajectory) {
    let mut traj: Trajectory = Vec::new();
    for (i, &(op, a, b)) in ops.iter().enumerate() {
        let label = i as u64;
        match op % 8 {
            // One-shot at an arbitrary scale.
            0 => q.once(q.now() + delay_from(a), label),
            1 => {
                // Same-instant burst: three events at one timestamp must
                // fire in schedule (FIFO) order.
                let at = q.now() + delay_from(a);
                for k in 0..3u64 {
                    q.once(at, label * 10 + k);
                }
            }
            // Periodic: first occurrence at an arbitrary scale; it cancels
            // its own id after `PERIODIC_RUNS` occurrences.
            2 => q.every(
                q.now() + delay_from(a),
                (250 + b as u128 % 750) * 1_000_000_000_000,
                label,
            ),
            3 => {
                // Cancel a previously issued handle (possibly one that
                // already fired or was already cancelled — a no-op then).
                if q.issued() > 0 {
                    q.cancel(a as usize % q.issued());
                }
            }
            // Advance time, sometimes by hours.
            4 => q.run_until(q.now() + delay_from(a) / 2 + 1),
            5 => {
                // Clump: several events at *different* times inside one
                // 2³⁰ fs window, in scrambled schedule order.
                let at0 = q.now() + delay_from(a);
                let room = (((at0 >> 30) + 1) << 30) - at0;
                for k in 0..4u64 {
                    q.once(at0 + b.wrapping_mul(k + 1) as u128 % room, label * 10 + k);
                }
            }
            6 => {
                // Mass-cancel everything issued so far: with bursts and
                // long advances this yields burst → cancel-all → trickle.
                for h in 0..q.issued() {
                    q.cancel(h);
                }
            }
            // A one-shot days out.
            _ => q.once(q.now() + (1 << 67) + a as u128, label),
        }
        traj.push(q.observe());
    }
    // Final bounded drain so late one-shots get a chance to fire.
    q.run_until(q.now() + 200_000_000_000_000);
    traj.push(q.observe());
    (q.into_log(), traj)
}

fn engine() -> Eng {
    Eng {
        eng: Engine::new(),
        log: Vec::new(),
        ids: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine produces the reference model's firing log (same events,
    /// same order, same times — FIFO ties included) and its (now, pending,
    /// fired) trajectory for any program of schedules, cancels and
    /// advances.
    #[test]
    fn engine_matches_sorted_vec_model(
        ops in proptest::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..40)
    ) {
        let (log_m, traj_m) = run_program(Model::default(), &ops);
        let (log_e, traj_e) = run_program(engine(), &ops);
        prop_assert_eq!(log_e, log_m, "firing logs diverge");
        prop_assert_eq!(traj_e, traj_m, "observable trajectories diverge");
    }

    /// Same-instant FIFO: any number of events scheduled for one instant
    /// (some before, some during dispatch at that instant) fire in exact
    /// schedule order.
    #[test]
    fn same_instant_fifo_order(n_pre in 1usize..12, n_mid in 0usize..8, off in 0u64..(1 << 30)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log: Log = Vec::new();
        let at = SimTime::from_fs(1 + off as u128);
        for i in 0..n_pre {
            let mid = i == 0;
            eng.schedule_at(at, move |log: &mut Log, e| {
                log.push((i as u64, e.now().as_fs()));
                if mid {
                    // Schedule more work for the *same instant* from
                    // inside the dispatch of that instant.
                    for j in 0..n_mid {
                        let l = 1000 + j as u64;
                        e.schedule_at(at, move |log: &mut Log, e| {
                            log.push((l, e.now().as_fs()));
                        });
                    }
                }
            });
        }
        eng.run_until(&mut log, SimTime::from_secs(1));
        let want: Vec<u64> = (0..n_pre as u64).chain((0..n_mid as u64).map(|j| 1000 + j)).collect();
        let got: Vec<u64> = log.iter().map(|&(l, _)| l).collect();
        prop_assert_eq!(got, want, "FIFO order broken");
        prop_assert!(log.iter().all(|&(_, t)| t == at.as_fs()));
    }
}
