//! A deterministic discrete-event engine.
//!
//! The engine is generic over the simulated world state `S` so that the
//! hardware crates stay decoupled: events are boxed closures receiving
//! `(&mut S, &mut Engine<S>)`. Ties at the same instant fire in scheduling
//! order (a monotone sequence number), which makes every run bit-for-bit
//! reproducible for a given seed.
//!
//! Scheduling every oscillator tick of a 10 MHz clock would be infeasible
//! (10¹⁰ events per simulated 1000 s), so hardware models are *lazily
//! evaluated*: only timer expiries, packet events, and algorithm actions are
//! scheduled; clock state is advanced on demand (see `nti-utcsu`).
//!
//! ## Internals
//!
//! Events live in a **slab**: a `Vec` of generation-tagged slots with a free
//! list, so the priority queue moves only packed `(generation, index)` u64
//! references. [`Engine::cancel`] is O(1) — it bumps the slot generation,
//! which makes every queued reference to the old occupant stale; stale
//! references are dropped lazily when they reach the head of the queue.
//! `pending()` therefore counts *live* events only, and nothing accumulates
//! for cancelled ids.
//!
//! The queue is one binary heap of `(time, seq, packed)` entries. Because
//! the hardware models are lazy, a cluster holds only a few pending events
//! per node — a few hundred at the 128-node LAN, the largest cluster built —
//! so the whole heap stays cache-resident and a bucketed structure (timer
//! wheel) has nothing to win (DESIGN.md §4 "Event engine internals").

use crate::time::{SimDuration, SimTime};
use nti_obs::{keys, Counter, Histogram, Payload, SimObserver, Subsystem, GLOBAL_NODE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Handle to a scheduled event, usable for cancellation.
///
/// The id is a slab index plus the slot's generation at allocation time;
/// once the event fires or is cancelled the generation advances, so a stale
/// id can never reach a different event that later reuses the slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// Kept only for `perfbench/src/layers.rs`, which still names it.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QueueKind {
    /// The only value; selects nothing.
    Adaptive,
}

/// The closure type fired when a one-shot event comes due.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Engine<S>)>;
/// The closure type fired on every occurrence of a periodic event.
pub type PeriodicFn<S> = Box<dyn FnMut(&mut S, &mut Engine<S>)>;

/// Slab slot payload. Timing lives in the queue entries, not here — the
/// slab holds only what firing needs, keeping slots small (the slab is the
/// engine's biggest allocation and is accessed in random order).
enum Body<S> {
    /// Free slot (member of the free list).
    Vacant,
    /// A pending one-shot event.
    Once(EventFn<S>),
    /// A pending periodic event; re-armed at `fired + period` after each
    /// occurrence.
    Every {
        period: SimDuration,
        f: PeriodicFn<S>,
    },
    /// A periodic event whose handler is currently executing (its closure is
    /// temporarily out of the slab). Cancelling in this state frees the slot
    /// and suppresses the re-arm.
    InFlight,
}

struct SlabSlot<S> {
    gen: u32,
    body: Body<S>,
}

#[inline]
fn pack(idx: u32, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}
#[inline]
fn unpack(packed: u64) -> (u32, u32) {
    (packed as u32, (packed >> 32) as u32)
}

/// Queue entries are ordered by `(time, seq)`; the packed slab reference
/// rides along (it never decides an ordering: `(time, seq)` is unique).
type QEntry = (SimTime, u64, u64);

/// Pre-resolved observability handles for the engine hot path: resolved
/// once at [`Engine::attach_observer`] time so firing an event touches no
/// registry locks. When no observer is attached the whole block is absent
/// and every instrumentation site is a single `Option` branch.
struct EngineObs {
    obs: SimObserver,
    scheduled: Arc<Counter>,
    fired: Arc<Counter>,
    cancelled: Arc<Counter>,
    /// Queue depth (live events) sampled after each fired event.
    queue_depth: Arc<Histogram>,
    /// Wall-clock busy time per fired handler (nanoseconds).
    busy_ns: Arc<Histogram>,
}

/// The event queue plus the simulation clock.
pub struct Engine<S> {
    now: SimTime,
    seq: u64,
    slots: Vec<SlabSlot<S>>,
    free: Vec<u32>,
    /// Live (scheduled, not yet fired or cancelled) events.
    live: usize,
    fired: u64,
    heap: BinaryHeap<Reverse<QEntry>>,
    obs: Option<EngineObs>,
}

impl<S> Default for Engine<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> Engine<S> {
    /// A fresh engine at t = 0 with an empty queue.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            fired: 0,
            heap: BinaryHeap::new(),
            obs: None,
        }
    }

    /// Same as [`Engine::new`]; kept only for `perfbench/src/layers.rs`.
    #[doc(hidden)]
    pub fn with_queue(_: QueueKind) -> Self {
        Self::new()
    }

    /// Attach an observer. A disabled observer detaches instrumentation
    /// entirely (the per-event cost returns to one branch). Metric handles
    /// are resolved here, once, so the hot path never touches the registry.
    pub fn attach_observer(&mut self, obs: &SimObserver) {
        self.obs = if obs.is_enabled() {
            Some(EngineObs {
                obs: obs.clone(),
                scheduled: obs
                    .counter(keys::engine_events_scheduled())
                    .expect("enabled"),
                fired: obs.counter(keys::engine_events_fired()).expect("enabled"),
                cancelled: obs
                    .counter(keys::engine_events_cancelled())
                    .expect("enabled"),
                queue_depth: obs.hist(keys::engine_queue_depth()).expect("enabled"),
                busy_ns: obs.hist(keys::engine_handler_busy_ns()).expect("enabled"),
            })
        } else {
            None
        };
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (for instrumentation).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of live pending events (cancelled events are excluded — they
    /// are freed immediately, not tombstoned).
    pub fn pending(&self) -> usize {
        self.live
    }

    fn alloc(&mut self, body: Body<S>) -> (u32, u32) {
        if let Some(idx) = self.free.pop() {
            let s = &mut self.slots[idx as usize];
            debug_assert!(matches!(s.body, Body::Vacant));
            s.body = body;
            (idx, s.gen)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(SlabSlot { gen: 0, body });
            (idx, 0)
        }
    }

    /// Whether a packed queue reference still points at its original event.
    fn is_live(&self, packed: u64) -> bool {
        let (idx, gen) = unpack(packed);
        self.slots.get(idx as usize).is_some_and(|s| {
            s.gen == gen && matches!(s.body, Body::Once { .. } | Body::Every { .. })
        })
    }

    fn note_scheduled(&self, at: SimTime) {
        if let Some(o) = &self.obs {
            o.scheduled.inc();
            if o.obs.tracing(Subsystem::Engine) {
                o.obs.event(
                    at.as_fs(),
                    GLOBAL_NODE,
                    Subsystem::Engine,
                    "scheduled",
                    Payload::Instant,
                );
            }
        }
    }

    /// Schedule `f` to fire at the absolute instant `at`. Scheduling in the
    /// past is a logic error and panics (it would silently reorder
    /// causality otherwise).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let (idx, gen) = self.alloc(Body::Once(Box::new(f)));
        self.live += 1;
        self.heap.push(Reverse((at, seq, pack(idx, gen))));
        self.note_scheduled(at);
        EventId { idx, gen }
    }

    /// Schedule `f` to fire after the given delay.
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule `f` to fire at `first` and then every `period` after, with
    /// the closure allocated **once** (no per-occurrence boxing). Each
    /// occurrence consumes a fresh sequence number when it is re-armed —
    /// immediately after the handler returns — so the interleaving is
    /// identical to a handler that re-schedules itself as its last action.
    /// Cancel the returned id (inside the handler or outside) to stop.
    pub fn schedule_every(
        &mut self,
        first: SimTime,
        period: SimDuration,
        f: impl FnMut(&mut S, &mut Engine<S>) + 'static,
    ) -> EventId {
        assert!(
            first >= self.now,
            "scheduling into the past: {first:?} < {:?}",
            self.now
        );
        assert!(
            period > SimDuration::ZERO,
            "periodic event needs period > 0"
        );
        let seq = self.seq;
        self.seq += 1;
        let (idx, gen) = self.alloc(Body::Every {
            period,
            f: Box::new(f),
        });
        self.live += 1;
        self.heap.push(Reverse((first, seq, pack(idx, gen))));
        self.note_scheduled(first);
        EventId { idx, gen }
    }

    /// Cancel a previously scheduled event. O(1): frees the slab slot and
    /// advances its generation, turning every queued reference stale.
    /// Cancelling an event that has already fired (or was already
    /// cancelled) is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        let Some(s) = self.slots.get_mut(id.idx as usize) else {
            return;
        };
        if s.gen != id.gen || matches!(s.body, Body::Vacant) {
            return;
        }
        s.body = Body::Vacant; // drops the closure (unless in flight)
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.idx);
        self.live -= 1;
        if let Some(o) = &self.obs {
            o.cancelled.inc();
        }
    }

    /// Fire the event a (validated) packed reference points to, advancing
    /// the clock to `at`.
    fn fire(&mut self, state: &mut S, at: SimTime, packed: u64) {
        let (idx, gen) = unpack(packed);
        debug_assert!(at >= self.now);
        self.now = at;
        self.fired += 1;
        let body = std::mem::replace(&mut self.slots[idx as usize].body, Body::Vacant);
        // The only per-event cost with no observer attached is this
        // one branch (`--obs-summary`-off must stay within 2 % of the
        // uninstrumented engine).
        let t0 = self.obs.as_ref().map(|_| std::time::Instant::now());
        match body {
            Body::Once(f) => {
                // Free before running so the handler sees this event as
                // fired: cancelling its own id is a no-op and the slot is
                // immediately reusable.
                let s = &mut self.slots[idx as usize];
                s.gen = s.gen.wrapping_add(1);
                self.free.push(idx);
                self.live -= 1;
                f(state, self);
            }
            Body::Every { period, mut f } => {
                self.slots[idx as usize].body = Body::InFlight;
                f(state, self);
                // Re-arm unless the handler (or anyone it called) cancelled
                // this id. The new occurrence takes the next sequence
                // number, exactly as a self-rescheduling handler would.
                let s = &mut self.slots[idx as usize];
                if s.gen == gen && matches!(s.body, Body::InFlight) {
                    let seq = self.seq;
                    self.seq += 1;
                    let next_at = at + period;
                    s.body = Body::Every { period, f };
                    self.heap.push(Reverse((next_at, seq, packed)));
                    self.note_scheduled(next_at);
                }
            }
            Body::Vacant | Body::InFlight => unreachable!("fired a dead slab slot"),
        }
        if let (Some(t0), Some(o)) = (t0, self.obs.as_ref()) {
            let busy = t0.elapsed();
            o.fired.inc();
            o.busy_ns
                .record(busy.as_nanos().min(u64::MAX as u128) as u64);
            o.queue_depth.record(self.live as u64);
            if o.obs.tracing(Subsystem::Engine) {
                o.obs.event(
                    self.now.as_fs(),
                    GLOBAL_NODE,
                    Subsystem::Engine,
                    "fired",
                    Payload::Value {
                        value: self.live as i64,
                    },
                );
            }
        }
    }

    /// The head of the queue, after dropping any stale (cancelled) entries
    /// in front of it: `(time, packed)` of the next live event.
    fn peek_live(&mut self) -> Option<(SimTime, u64)> {
        while let Some(&Reverse((at, _seq, packed))) = self.heap.peek() {
            if self.is_live(packed) {
                return Some((at, packed));
            }
            self.heap.pop();
        }
        None
    }

    /// Fire events in order until the queue is exhausted or the next event
    /// lies beyond `until`; then advance the clock to `until`.
    pub fn run_until(&mut self, state: &mut S, until: SimTime) {
        while let Some((at, packed)) = self.peek_live() {
            if at > until {
                break;
            }
            self.heap.pop();
            self.fire(state, at, packed);
        }
        if until > self.now {
            self.now = until;
        }
    }

    /// Fire all remaining events (use only for workloads that are known to
    /// quiesce, e.g. tests). Leaves the clock at `SimTime::MAX`.
    pub fn run_to_completion(&mut self, state: &mut S) {
        self.run_until(state, SimTime::MAX);
    }

    /// The instant of the next live (non-cancelled) pending event, if any.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.peek_live().map(|(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::from_secs(3), |s: &mut Vec<u32>, _| s.push(3));
        eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        eng.run_until(&mut log, SimTime::from_secs(10));
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(eng.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            eng.schedule_at(t, move |s: &mut Vec<u32>, _| s.push(i));
        }
        eng.run_until(&mut log, t);
        assert_eq!(log, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(5), |s: &mut Vec<u32>, _| s.push(5));
        eng.run_until(&mut log, SimTime::from_secs(2));
        assert_eq!(log, vec![1]);
        assert_eq!(eng.now(), SimTime::from_secs(2));
        eng.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1, 5]);
    }

    #[test]
    fn cancellation_suppresses_event() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let id = eng.schedule_at(SimTime::from_secs(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.schedule_at(SimTime::from_secs(2), |s: &mut Vec<u32>, _| s.push(2));
        eng.cancel(id);
        eng.run_until(&mut log, SimTime::from_secs(3));
        assert_eq!(log, vec![2]);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(
            SimTime::from_secs(1),
            |s: &mut Vec<u32>, e: &mut Engine<Vec<u32>>| {
                s.push(1);
                e.schedule_after(SimDuration::from_secs(1), |s: &mut Vec<u32>, _| s.push(2));
            },
        );
        eng.run_until(&mut log, SimTime::from_secs(5));
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_in_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), |_, _| {});
        eng.run_until(&mut (), SimTime::from_secs(6));
        eng.schedule_at(SimTime::from_secs(1), |_, _| {});
    }

    #[test]
    fn next_event_time_skips_cancelled() {
        let mut eng: Engine<()> = Engine::new();
        let id = eng.schedule_at(SimTime::from_secs(1), |_, _| {});
        eng.schedule_at(SimTime::from_secs(2), |_, _| {});
        eng.cancel(id);
        assert_eq!(eng.next_event_time(), Some(SimTime::from_secs(2)));
    }

    /// Regression (PR 5): `pending()` must exclude cancelled events — the
    /// old tombstone scheme counted them until they drained.
    #[test]
    fn pending_excludes_cancelled() {
        let mut eng: Engine<()> = Engine::new();
        let ids: Vec<_> = (0..100)
            .map(|i| eng.schedule_at(SimTime::from_nanos(i + 1), |_, _| {}))
            .collect();
        assert_eq!(eng.pending(), 100);
        for id in &ids[..60] {
            eng.cancel(*id);
        }
        assert_eq!(eng.pending(), 40);
        eng.run_until(&mut (), SimTime::from_secs(1));
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.events_fired(), 40);
    }

    /// Regression (PR 5): ids that drain via `run_until` leave no
    /// bookkeeping behind — a later cancel of a fired id is a no-op and
    /// does not disturb a new event that reuses the slab slot.
    #[test]
    fn cancel_after_fire_is_noop_even_with_slot_reuse() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let stale = eng.schedule_at(SimTime::from_nanos(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.run_until(&mut log, SimTime::from_nanos(2));
        // The slot of `stale` is free now; this event reuses it.
        eng.schedule_at(SimTime::from_nanos(3), |s: &mut Vec<u32>, _| s.push(2));
        eng.cancel(stale);
        eng.run_until(&mut log, SimTime::from_nanos(4));
        assert_eq!(log, vec![1, 2]);
    }

    #[test]
    fn double_cancel_counts_once() {
        let mut eng: Engine<()> = Engine::new();
        let id = eng.schedule_at(SimTime::from_nanos(5), |_, _| {});
        eng.cancel(id);
        assert_eq!(eng.pending(), 0);
        eng.cancel(id); // must not underflow the live count
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn periodic_event_fires_until_cancelled() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut log = Vec::new();
        let id = eng.schedule_every(
            SimTime::from_millis(10),
            SimDuration::from_millis(10),
            |s: &mut Vec<u64>, e: &mut Engine<Vec<u64>>| s.push(e.now().as_fs() as u64),
        );
        eng.run_until(&mut log, SimTime::from_millis(35));
        assert_eq!(log.len(), 3);
        assert_eq!(eng.pending(), 1);
        eng.cancel(id);
        assert_eq!(eng.pending(), 0);
        eng.run_until(&mut log, SimTime::from_millis(100));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn periodic_event_can_cancel_itself_in_handler() {
        struct St {
            hits: u32,
            id: Option<EventId>,
        }
        let mut eng: Engine<St> = Engine::new();
        let mut st = St { hits: 0, id: None };
        let id = eng.schedule_every(
            SimTime::from_millis(1),
            SimDuration::from_millis(1),
            |s: &mut St, e: &mut Engine<St>| {
                s.hits += 1;
                if s.hits == 3 {
                    e.cancel(s.id.unwrap());
                }
            },
        );
        st.id = Some(id);
        eng.run_until(&mut st, SimTime::from_secs(1));
        assert_eq!(st.hits, 3);
        assert_eq!(eng.pending(), 0);
    }

    /// Far-future events and sentinel events at `SimTime::MAX` fire, in
    /// order, once the clock reaches them.
    #[test]
    fn far_future_and_max_sentinel_events_fire() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        eng.schedule_at(SimTime::MAX, |s: &mut Vec<u32>, _| s.push(99));
        eng.schedule_at(SimTime::from_secs(1000), |s: &mut Vec<u32>, _| s.push(2));
        eng.schedule_at(SimTime::from_nanos(1), |s: &mut Vec<u32>, _| s.push(1));
        eng.run_until(&mut log, SimTime::from_secs(2000));
        assert_eq!(log, vec![1, 2]);
        eng.run_to_completion(&mut log);
        assert_eq!(log, vec![1, 2, 99]);
    }

    /// Events scheduled for the instant currently being dispatched keep
    /// FIFO order behind the events already queued for it.
    #[test]
    fn same_instant_events_scheduled_during_dispatch_keep_fifo() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut log = Vec::new();
        let t = SimTime::from_micros(7);
        eng.schedule_at(t, move |s: &mut Vec<u32>, e: &mut Engine<Vec<u32>>| {
            s.push(0);
            e.schedule_at(t, |s: &mut Vec<u32>, _| s.push(2));
        });
        eng.schedule_at(t, |s: &mut Vec<u32>, _| s.push(1));
        eng.run_until(&mut log, SimTime::from_micros(8));
        assert_eq!(log, vec![0, 1, 2]);
    }
}
