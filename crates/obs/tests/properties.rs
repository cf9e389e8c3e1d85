//! Property tests for the observability primitives: histogram merge
//! algebra, quantile error bounds, and the cost contract of a disabled
//! observer (records nothing, allocates nothing).

use nti_obs::quantile::rank_for;
use nti_obs::{Histogram, MetricKey, Payload, SimObserver, SpanId, Subsystem};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counting allocator: lets the disabled-path test assert zero allocation.
/// The tally is per thread, so tests running concurrently on other test
/// threads do not leak their allocations into the count.
struct CountingAlloc;

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Full state equality: counts, extremes, and the bucket contents.
fn assert_hist_eq(a: &Histogram, b: &Histogram) {
    assert_eq!(a.count(), b.count());
    assert_eq!(a.sum(), b.sum());
    assert_eq!(a.min(), b.min());
    assert_eq!(a.max(), b.max());
    let ab: Vec<(u64, u64)> = a.nonzero_buckets().collect();
    let bb: Vec<(u64, u64)> = b.nonzero_buckets().collect();
    assert_eq!(ab, bb);
}

fn arb_values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1 << 48), 0..200)
}

proptest! {
    /// Merging is commutative: a⊎b and b⊎a are the same histogram.
    #[test]
    fn merge_commutative(xs in arb_values(), ys in arb_values()) {
        let ab = hist_of(&xs);
        ab.merge(&hist_of(&ys));
        let ba = hist_of(&ys);
        ba.merge(&hist_of(&xs));
        assert_hist_eq(&ab, &ba);
    }

    /// Merging is associative: (a⊎b)⊎c equals a⊎(b⊎c).
    #[test]
    fn merge_associative(xs in arb_values(), ys in arb_values(), zs in arb_values()) {
        let left = hist_of(&xs);
        left.merge(&hist_of(&ys));
        left.merge(&hist_of(&zs));
        let bc = hist_of(&ys);
        bc.merge(&hist_of(&zs));
        let right = hist_of(&xs);
        right.merge(&bc);
        assert_hist_eq(&left, &right);
    }

    /// Merging equals recording the concatenation.
    #[test]
    fn merge_is_concatenation(xs in arb_values(), ys in arb_values()) {
        let merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut all = xs.clone();
        all.extend_from_slice(&ys);
        assert_hist_eq(&merged, &hist_of(&all));
    }

    /// Every reported quantile brackets the true empirical quantile within
    /// the histogram's one-bucket relative error (and never leaves the
    /// recorded [min, max] range).
    #[test]
    fn quantile_bounds_empirical(mut xs in proptest::collection::vec(0u64..(1 << 48), 1..200),
                                 qi in 0usize..5) {
        let q = [0.0, 0.5, 0.9, 0.99, 1.0][qi];
        let h = hist_of(&xs);
        xs.sort_unstable();
        let truth = xs[rank_for(q, xs.len()).expect("nonempty")];
        let got = h.quantile(q);
        let err = h.relative_error();
        prop_assert!(got >= xs[0] && got <= *xs.last().expect("nonempty"));
        // The reported value is the upper edge of the bucket holding a
        // value ranked at least as high as the truth: it can exceed the
        // truth by one bucket's relative width, and can never undershoot
        // by more than that same width.
        let upper = truth as f64 * (1.0 + err) + 1.0;
        let lower = truth as f64 * (1.0 - err) - 1.0;
        prop_assert!((got as f64) <= upper, "q={q}: got {got} > allowed {upper} (truth {truth})");
        prop_assert!((got as f64) >= lower, "q={q}: got {got} < allowed {lower} (truth {truth})");
    }
}

fn arb_span_event() -> impl Strategy<Value = nti_obs::TraceEvent> {
    let kinds: &[&'static str] = &[
        "csp_send",
        "xmit_trigger",
        "wire",
        "rcv_trigger",
        "latch",
        "interrupt",
        "isr_dispatch",
        "accept",
    ];
    (
        (
            any::<u128>(),
            0u32..65, // 64 maps to GLOBAL_NODE below
            0usize..Subsystem::ALL.len(),
            0usize..kinds.len(),
        ),
        (any::<u64>(), any::<u64>(), any::<u128>()),
    )
        .prop_map(
            move |((t, node, sub, kind), (span, parent, dur))| nti_obs::TraceEvent {
                sim_time_fs: t,
                node: if node == 64 {
                    nti_obs::GLOBAL_NODE
                } else {
                    node
                },
                subsystem: Subsystem::ALL[sub],
                kind: kinds[kind],
                payload: Payload::SpanLink {
                    span: span.max(1), // 0 is the reserved null id
                    parent,
                    dur_fs: dur,
                },
            },
        )
}

proptest! {
    /// Span export round-trips exactly through the JSONL writer and the
    /// JSON parser: every id, timestamp and duration — u64/u128 values
    /// beyond f64's exact range included — survives because they are
    /// written as decimal strings.
    #[test]
    fn span_export_round_trips_through_json(evs in proptest::collection::vec(arb_span_event(), 1..40)) {
        let mut buf = Vec::new();
        nti_obs::export::write_jsonl(&evs, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), evs.len());
        for (line, ev) in lines.iter().zip(&evs) {
            let j = nti_obs::Json::parse(line).expect("exported line parses");
            let parsed = nti_obs::SpanRecord::from_json(&j).expect("span line yields a record");
            let direct = nti_obs::SpanRecord::from_event(ev).expect("span payload");
            prop_assert_eq!(parsed, direct);
        }
    }
}

/// The fully-disabled observer records nothing — and the hot-path calls
/// (`event`, counter/hist resolution misses) perform zero heap allocation.
#[test]
fn disabled_observer_records_nothing_and_allocates_nothing() {
    let obs = SimObserver::disabled();
    assert!(!obs.is_enabled());
    assert!(obs.counter(MetricKey::global("x", "y")).is_none());

    let before = allocs();
    for i in 0..10_000u64 {
        obs.event(
            i as u128,
            0,
            Subsystem::Engine,
            "tick",
            Payload::Value { value: i as i64 },
        );
        obs.instant(i as u128, 1, Subsystem::Kernel, "isr");
        assert!(!obs.tracing(Subsystem::Cluster));
        // Span path: a disabled observer hands out the null id and
        // span_link is a no-op — still zero allocation.
        let s = obs.new_span();
        assert!(s.is_none());
        obs.span_link(i as u128, 7, 0, Subsystem::Cluster, "hop", s, SpanId::NONE);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "disabled path must not allocate");
    assert!(obs.events().is_empty(), "disabled path must record nothing");
}

/// A tracer with a zero subsystem mask drops everything before touching
/// the ring: nothing is recorded and nothing is allocated per event.
#[test]
fn masked_out_tracer_records_nothing_and_allocates_nothing() {
    let obs = SimObserver::with_trace(1024, 0);
    assert!(obs.is_enabled());

    let before = allocs();
    for i in 0..10_000u64 {
        obs.instant(i as u128, 0, Subsystem::Net, "frame");
        // Span ids are a relaxed fetch-add; the masked-off link record is
        // dropped before touching the ring. Neither allocates.
        let s = obs.new_span();
        assert!(s.is_some());
        obs.span_link(i as u128, 7, 0, Subsystem::Net, "hop", s, SpanId::NONE);
    }
    let after = allocs();
    assert_eq!(after - before, 0, "masked-out trace path must not allocate");
    assert!(obs.events().is_empty());
}
