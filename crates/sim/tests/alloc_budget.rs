//! The pair tables' allocation budget, counted.
//!
//! A test binary of its own, because the counter is the process's
//! `#[global_allocator]`; it counts per thread, so the harness's other
//! threads do not reach it. The counts are exact and repeat from run to
//! run, which is what lets them stand as a budget.
//!
//! A flow's paths and kilometres depend only on its source PoP
//! (upstream) and destination PoP (downstream), so the tables are stored
//! once per PoP and a flow holds an index into them. At the commit
//! before that, this test read (paper-scale seed-11 universe, debug
//! build): a failure variant of the 2 070-flow pair
//! (`PairData::build_reduced`) 6 221 heap calls requesting 3 761 064
//! bytes — three `Vec<f64>` of kilometres and ~71 link ids per flow —
//! and of the 24-flow pair 83; the intact `PairData::build` 6 260 calls
//! and 4 135 011 bytes. Since: 15 calls and 129 800 bytes for the
//! variant at either size, 49 calls for the intact build. The budget
//! holds a variant to a count that does not grow with flows.

use nexit_sim::PairData;
use nexit_topology::{GeneratorConfig, IcxId, TopologyGenerator, Universe};
use nexit_workload::WorkloadModel;
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

/// `pair_pipeline`'s universe and workload model.
const SEED: u64 = 11;
const WORKLOAD: WorkloadModel = WorkloadModel::Uniform { seed: SEED };

/// The intact tables of one pair, and the heap use of building them.
fn intact(u: &Universe, idx: usize) -> (PairData<'_>, (u64, u64)) {
    let pair = &u.pairs[idx];
    heap_use(|| {
        PairData::build(
            &u.isps[pair.isp_a.index()],
            &u.isps[pair.isp_b.index()],
            pair.clone(),
            WORKLOAD,
        )
    })
}

/// The heap use of the variant of `full` without its first
/// interconnection.
fn reduced(full: &PairData<'_>) -> (u64, u64) {
    let (pair, _) = full.pair.without_interconnection(IcxId(0));
    let (variant, used) = heap_use(|| full.build_reduced(pair, WORKLOAD));
    assert_eq!(variant.flows.len(), full.flows.len());
    used
}

#[test]
fn pair_tables_stay_within_their_heap_budget() {
    let u = TopologyGenerator::new(GeneratorConfig {
        seed: SEED,
        ..GeneratorConfig::default()
    })
    .generate();
    let flows = |idx: usize| {
        let pair = &u.pairs[idx];
        u.isps[pair.isp_a.index()].num_pops() * u.isps[pair.isp_b.index()].num_pops()
    };
    let eligible = u.eligible_pairs(3, false);
    let largest = eligible.iter().copied().max_by_key(|&i| flows(i));
    let smallest = eligible.iter().copied().min_by_key(|&i| flows(i));
    let (largest, smallest) = (largest.expect("eligible"), smallest.expect("eligible"));
    let (large, small) = (flows(largest), flows(smallest));
    assert!(large >= 40 * small, "{large} vs {small} flows");

    let (full, (calls, bytes)) = intact(&u, largest);
    println!("intact build, {large} flows: {calls} heap calls, {bytes} bytes");
    assert!(calls <= 64, "{calls} heap calls (parent: 6 260)");

    let (calls, bytes) = reduced(&full);
    println!("reduced build, {large} flows: {calls} heap calls, {bytes} bytes");
    assert!(calls <= 32, "{calls} heap calls (parent: 6 219)");
    assert!(bytes <= 256 * 1024, "{bytes} bytes (parent: 3 760 336)");

    // The count does not grow with flows.
    let (full_small, _) = intact(&u, smallest);
    let (calls_small, bytes_small) = reduced(&full_small);
    println!("reduced build, {small} flows: {calls_small} heap calls, {bytes_small} bytes");
    assert!(
        calls.abs_diff(calls_small) <= 16,
        "{calls} heap calls at {large} flows, {calls_small} at {small}"
    );
}
