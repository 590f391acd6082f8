//! Flow-level parallel fills for the flat gain tables.
//!
//! The preference mappers spend their time in per-flow cost loops that
//! are independent of each other once the shared state (the per-link
//! loads) is computed. Because a [`GainTable`] is one flat buffer
//! whose rows are contiguous `num_alternatives()`-sized chunks, it
//! splits into disjoint sub-slices of whole rows — each worker writes
//! its own range and nothing else, so the result is **byte-identical**
//! to the serial fill for any thread count (each cell is computed once,
//! by the same arithmetic, from shared read-only state). What a row
//! kernel needs to mutate (the mappers' link-mark arrays) is handed to
//! it per worker, so the serial loop and the fan-out run the same
//! kernel.
//!
//! This lives in the core crate so the mappers themselves
//! ([`crate::BandwidthMapper::with_threads`],
//! [`crate::FortzMapper::with_threads`], and the simulation harness's
//! destination mapper) can fan out; the experiment harness re-exports
//! it next to its pair-level `par_map`.

use crate::arena::GainTable;

/// How many worker threads a fill should use: an explicit request, or
/// every available core when `requested` is 0 (the auto setting).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Fill the rows of one flat [`GainTable`] with one worker per element
/// of `workers`: `fill(scratch, flow, row)` computes flow `flow`'s gain
/// row in place, and `scratch` is the worker's own element — the
/// mutable state (mark arrays, cost buffers) a row kernel needs without
/// sharing it. Size the slice with [`resolve_threads`]; pass `&mut [()]`
/// for a stateless fill. One worker runs the plain serial loop; any
/// other count produces bitwise-identical output provided `fill` leaves
/// nothing in `scratch` that a later row's values depend on.
pub fn par_flows<S, F>(table: &mut GainTable, workers: &mut [S], fill: F)
where
    S: Send,
    F: Fn(&mut S, usize, &mut [f64]) + Sync,
{
    let num_flows = table.num_flows();
    let k = table.num_alternatives();
    if num_flows == 0 || k == 0 {
        return;
    }
    assert!(!workers.is_empty(), "par_flows needs at least one worker");
    let threads = workers.len().min(num_flows);
    if threads == 1 {
        let scratch = &mut workers[0];
        for flow in 0..num_flows {
            fill(scratch, flow, table.row_mut(flow));
        }
        return;
    }
    let rows_per = num_flows.div_ceil(threads);
    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|s| {
        let fill = &fill;
        let chunks = table.values_mut().chunks_mut(rows_per * k);
        for (worker, (chunk, scratch)) in chunks.zip(workers).enumerate() {
            s.spawn(move || {
                for (i, row) in chunk.chunks_mut(k).enumerate() {
                    fill(scratch, worker * rows_per + i, row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately order-sensitive fill: each cell mixes the flow and
    /// alternative index through float math that would drift if a cell
    /// were computed twice or from the wrong indices.
    fn reference_fill(_: &mut (), flow: usize, row: &mut [f64]) {
        for (alt, cell) in row.iter_mut().enumerate() {
            *cell = (flow as f64 + 1.0).sqrt() * (alt as f64 - 1.5) / 3.0;
        }
    }

    #[test]
    fn par_flows_is_byte_identical_across_thread_counts() {
        let mut serial = GainTable::new(37, 5);
        par_flows(&mut serial, &mut [()], reference_fill);
        for threads in [2, 4] {
            let mut parallel = GainTable::new(37, 5);
            par_flows(&mut parallel, &mut vec![(); threads], reference_fill);
            assert!(
                serial
                    .values()
                    .iter()
                    .zip(parallel.values())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "thread count {threads} changed the table"
            );
        }
    }

    #[test]
    fn par_flows_handles_empty_and_tiny_tables() {
        let mut empty = GainTable::new(0, 4);
        par_flows(&mut empty, &mut [(); 4], |_, _, _| {
            panic!("no rows to fill")
        });
        let mut one = GainTable::new(1, 2);
        par_flows(&mut one, &mut [(); 8], reference_fill);
        let mut expect = GainTable::new(1, 2);
        reference_fill(&mut (), 0, expect.row_mut(0));
        assert_eq!(one, expect);
    }

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
