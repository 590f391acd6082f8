//! Worker-count resolution shared by everything that fans work out
//! across threads: the broker's session workers and the experiment
//! harness's pair-level `par_map`.

/// How many worker threads a fan-out should use: an explicit request,
/// or every available core when `requested` is 0 (the auto setting).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolves_to_at_least_one() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
