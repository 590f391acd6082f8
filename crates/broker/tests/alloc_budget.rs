//! The wire path's allocation budget, counted.
//!
//! A test binary of its own, because the counter is the process's
//! `#[global_allocator]`. It counts per thread, so the two tests do not
//! see each other (or the harness), and everything measured runs on the
//! calling thread: one broker worker, one pump.
//!
//! The counts are exact and repeat from run to run — the sessions are
//! seeded and nothing here depends on time or scheduling — which is what
//! lets them stand as a budget. At the commit before frames were written
//! in place, a brokered session made 310 heap calls (252 allocations +
//! 58 reallocations) requesting 58 224 bytes; the budget below is what
//! that change bought, with headroom for honest growth: a new `Vec` on
//! the per-frame path will not fit.

use nexit_broker::{Broker, BrokerConfig, SessionSpec};
use nexit_core::Side;
use nexit_proto::{Agent, FaultyLink, SessionPump, StepLimits};
use nexit_sim::experiments::broker::{synthetic_specs, ALTS, FLOWS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(heap calls, bytes requested)` by this thread.
    static HEAP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // `try_with`: a thread may still free memory while its locals
        // are being torn down.
        let _ = HEAP.try_with(|heap| {
            let (calls, requested) = heap.get();
            heap.set((calls + 1, requested + bytes as u64));
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counting touches only a `Cell` in
// thread-local storage and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(heap calls, bytes requested)` by `f` on this thread.
fn heap_use<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let (calls, bytes) = HEAP.with(Cell::get);
    let value = f();
    let (calls_after, bytes_after) = HEAP.with(Cell::get);
    (value, (calls_after - calls, bytes_after - bytes))
}

#[test]
fn a_brokered_session_stays_within_its_heap_budget() {
    const SESSIONS: u64 = 250;
    let broker = Broker::new(BrokerConfig::with_workers(1));
    let mut seen = None;
    for seed in [11, 12, 11] {
        // The specs are the caller's; the batch starts at `run_pairs`.
        let specs = synthetic_specs(SESSIONS as usize, FLOWS, ALTS, seed);
        let (run, (calls, bytes)) = heap_use(|| broker.run_pairs(specs));
        assert_eq!(run.stats.completed as u64, SESSIONS);
        println!(
            "seed {seed}: {:.2} heap calls and {:.0} bytes per session",
            calls as f64 / SESSIONS as f64,
            bytes as f64 / SESSIONS as f64
        );
        assert!(
            calls <= 100 * SESSIONS,
            "{calls} heap calls for {SESSIONS} sessions (parent: 310 each)"
        );
        assert!(
            bytes <= 30 * 1024 * SESSIONS,
            "{bytes} bytes requested for {SESSIONS} sessions (parent: 58 224 each)"
        );
        // Every session has the same shape, so the count does not
        // depend on the seed, let alone on the run.
        assert_eq!(*seen.get_or_insert((calls, bytes)), (calls, bytes));
    }
}

fn agents(spec: SessionSpec<'static>) -> (Agent<'static>, Agent<'static>) {
    let a = Agent::new(
        Side::A,
        "A",
        spec.input.clone(),
        spec.default_assignment.clone(),
        spec.mapper_a,
        spec.disclosure_a,
        spec.config,
    );
    let b = Agent::new(
        Side::B,
        "B",
        spec.input,
        spec.default_assignment,
        spec.mapper_b,
        spec.disclosure_b,
        spec.config,
    );
    (a.expect("valid session"), b.expect("valid session"))
}

#[test]
fn propose_response_rounds_allocate_nothing() {
    let spec = synthetic_specs(1, FLOWS, ALTS, 11).pop().expect("one spec");
    let (mut a, mut b) = agents(spec);
    let (mut ab, mut ba) = (FaultyLink::reliable(), FaultyLink::reliable());
    let mut pump = SessionPump::new(None);
    let mut step = |pump: &mut SessionPump| {
        pump.step(&mut a, &mut b, &mut ab, &mut ba, StepLimits::UNBOUNDED)
            .expect("clean links")
    };
    // Hello; Hello; FlowAnnounce + PrefList; PrefList; then turns
    // alternate, so every step carries the Response to one round and the
    // Propose of the next. Three such steps put every buffer the
    // exchange needs into circulation.
    for _ in 0..7 {
        assert!(!step(&mut pump).done);
    }
    assert_eq!(pump.frames(), 5 + 5);
    // Ten rounds: a Propose (21 bytes) and a Response (16 bytes) each.
    let (frames, bytes) = (pump.frames(), pump.bytes());
    let ((), (calls, requested)) = heap_use(|| {
        for _ in 0..10 {
            let report = step(&mut pump);
            assert!(report.moved && !report.done);
        }
    });
    assert_eq!(pump.frames() - frames, 20);
    assert_eq!(pump.bytes() - bytes, 10 * (21 + 16));
    assert_eq!(
        (calls, requested),
        (0, 0),
        "a Propose / Response round went to the heap"
    );
    // And the session ends where it should.
    while !step(&mut pump).done {}
    assert_eq!(pump.frames(), 39);
}
