//! Regression tests for queue shapes that could cost the engine its
//! asymptotics: long idle gaps with one far-future event pending, and
//! burst-schedule → mass-cancel → sparse trickle. The reference-model
//! proptests prove the fire order on random programs; these pin the
//! specific pathological shapes with deterministic programs, so a future
//! change that re-introduces per-step work over idle time or stale-entry
//! accumulation fails loudly by name.

use nti_simcore::{Engine, SimDuration, SimTime};

/// Advancing an idle engine must be O(1) per `run_until` call, not
/// proportional to the simulated time crossed: days of simulated time with
/// one far-future event pending are crossed in 100k small steps.
#[test]
fn idle_advance_across_days_is_constant_time() {
    let mut eng: Engine<Vec<u32>> = Engine::new();
    let mut log = Vec::new();
    let at = SimTime::from_secs(3 * 86_400);
    eng.schedule_at(at, |s: &mut Vec<u32>, _| s.push(1));
    // 100k idle advances of ~2.6 s each cross the three days.
    let step = SimDuration::from_fs(3 * 86_400 * 1_000_000_000_000_000 / 100_000 + 1);
    for _ in 0..100_000 {
        eng.run_until(&mut log, eng.now() + step);
    }
    assert_eq!(log, vec![1]);
    assert_eq!(eng.pending(), 0);

    // After the long idle gap, near-future scheduling still fires in order.
    for i in 0..10u32 {
        eng.schedule_after(
            SimDuration::from_micros(i as u64 + 1),
            move |s: &mut Vec<u32>, _| s.push(10 + i),
        );
    }
    eng.run_until(&mut log, eng.now() + SimDuration::from_millis(1));
    assert_eq!(log[1..], (10..20).collect::<Vec<_>>()[..]);
}

/// Burst-schedule → cancel-all → long quiet → sparse trickle: the
/// cancelled burst must neither fire nor hold up the queue, and the
/// trickle must fire exactly on schedule afterwards.
#[test]
fn burst_cancel_all_then_trickle_stays_consistent() {
    let mut eng: Engine<Vec<(u32, u128)>> = Engine::new();
    let mut log = Vec::new();
    // Burst: 10k events at distinct instants plus a same-instant clump.
    let mut ids = Vec::new();
    for i in 0..10_000u64 {
        let at = eng.now() + SimDuration::from_fs((i as u128 + 1) * 7_777_777);
        ids.push(eng.schedule_at(at, move |s: &mut Vec<(u32, u128)>, e| {
            s.push((i as u32, e.now().as_fs()));
        }));
    }
    let clump = eng.now() + SimDuration::from_millis(40);
    for _ in 0..64 {
        ids.push(eng.schedule_at(clump, |s: &mut Vec<(u32, u128)>, e| {
            s.push((u32::MAX, e.now().as_fs()));
        }));
    }
    // Cancel every single one while queued.
    for id in ids {
        eng.cancel(id);
    }
    assert_eq!(eng.pending(), 0, "cancel-all left live events");
    // Long quiet period crossed in a few steps: stale entries must not
    // fire.
    for _ in 0..8 {
        eng.run_until(&mut log, eng.now() + SimDuration::from_secs(30));
    }
    assert!(log.is_empty(), "cancelled event fired");
    assert_eq!(eng.next_event_time(), None);
    // Sparse trickle, one event at a time with real gaps.
    for i in 0..200u32 {
        eng.schedule_after(SimDuration::from_millis(3), move |s: &mut Vec<_>, e| {
            s.push((1_000_000 + i, e.now().as_fs()));
        });
        eng.run_until(&mut log, eng.now() + SimDuration::from_millis(10));
    }
    // Event i is scheduled at 240 s + i·10 ms and fires 3 ms later.
    let want: Vec<(u32, u128)> = (0..200u32)
        .map(|i| {
            let at = SimTime::from_secs(240)
                + SimDuration::from_millis(10 * i as u64)
                + SimDuration::from_millis(3);
            (1_000_000 + i, at.as_fs())
        })
        .collect();
    assert_eq!(log, want);
    assert_eq!(eng.events_fired(), 200);
}
