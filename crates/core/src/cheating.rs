//! Cheating (strategic disclosure) strategies.
//!
//! Nexit is not strategy-proof — an ISP can lie about its preferences —
//! but the paper argues (§4.2) and shows empirically (§5.4) that its
//! structure limits what lying can achieve. This module implements the
//! paper's evaluated cheater plus a naive baseline:
//!
//! * [`DisclosurePolicy::InflateBest`] — the paper's strategy: assuming
//!   *perfect knowledge* of the other ISP's preference list, inflate the
//!   preference of your best alternative for each flow "just enough so
//!   that it corresponds to maximum sum", preserving your original
//!   relative ordering as far as possible; when inflating is not enough
//!   (the class range clamps at `P`), deflate the competing alternatives
//!   instead.
//! * [`DisclosurePolicy::BlindMax`] — the naive baseline the paper
//!   mentions ("blindly maximizing preferences"): disclose `+P` for your
//!   best alternative of every flow and `-P` for all others, with no
//!   knowledge of the other list.

use crate::prefs::PrefTable;
use nexit_topology::IcxId;

/// How a party turns its true preference table into the disclosed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisclosurePolicy {
    /// Disclose the truth (the honest default).
    Truthful,
    /// The paper's §5.4 cheater (requires the other list; the engine
    /// supplies it, modeling perfect knowledge).
    InflateBest,
    /// Naive cheater: `+P` on own best alternative, `-P` elsewhere.
    BlindMax,
}

impl DisclosurePolicy {
    /// Produce the disclosed table. Convenience wrapper over
    /// [`DisclosurePolicy::disclose_into`].
    ///
    /// `truth` is this party's true table, `other` the counterpart's
    /// disclosed table (perfect knowledge), `p` the class range, and
    /// `defaults` each flow's default alternative.
    pub fn disclose(
        &self,
        truth: &PrefTable,
        other: &PrefTable,
        p: i32,
        defaults: &[IcxId],
    ) -> PrefTable {
        let mut out = PrefTable::zero(truth.num_flows(), truth.num_alternatives());
        let all = vec![true; truth.num_flows()];
        self.disclose_into(truth, other, p, defaults, &all, &mut out);
        out
    }

    /// Disclose the flows `live` marks into `out`, which has `truth`'s
    /// shape already; every other row of `out` stays as it is. The
    /// allocation-free form the machine uses on every (re)disclosure: a
    /// re-disclosure marks the flows still on the table, and a settled
    /// flow keeps the classes it was accepted at.
    pub fn disclose_into(
        &self,
        truth: &PrefTable,
        other: &PrefTable,
        p: i32,
        defaults: &[IcxId],
        live: &[bool],
        out: &mut PrefTable,
    ) {
        let rows = (0..live.len()).filter(|&flow| live[flow]);
        match self {
            DisclosurePolicy::Truthful => out.copy_live_rows(truth, live),
            DisclosurePolicy::InflateBest => inflate_best(truth, other, p, defaults, rows, out),
            DisclosurePolicy::BlindMax => blind_max(truth, p, defaults, rows, out),
        }
    }

    /// Whether this policy discloses non-truthfully.
    pub fn is_cheating(&self) -> bool {
        !matches!(self, DisclosurePolicy::Truthful)
    }

    /// Whether this policy must see the peer's disclosed list before
    /// producing its own (and therefore cannot disclose first).
    pub fn needs_peer_list(&self) -> bool {
        matches!(self, DisclosurePolicy::InflateBest)
    }
}

/// The cheater's best alternative for one flow: highest true preference,
/// ties to the lowest alternative id.
fn best_alternative(truth: &PrefTable, flow: usize) -> usize {
    let row = truth.row(flow);
    let mut best = 0;
    for (alt, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = alt;
        }
    }
    best
}

/// The paper's inflate-best strategy.
///
/// For each flow, let `b` be the cheater's true-best alternative. The
/// combined-maximum selection rule picks `argmax(d_cheater + d_other)`, so
/// the cheater needs `d(b) + other(b) >= d(x) + other(x)` for every `x`.
/// It first raises `d(b)` just enough (preserving its other disclosed
/// values, and hence their relative ordering); if `+P` clamping leaves
/// some competitor still winning, it lowers those competitors just enough
/// instead.
fn inflate_best(
    truth: &PrefTable,
    other: &PrefTable,
    p: i32,
    defaults: &[IcxId],
    rows: impl Iterator<Item = usize>,
    out: &mut PrefTable,
) {
    let k = truth.num_alternatives();
    for flow in rows {
        let b = best_alternative(truth, flow);
        let row = out.row_mut(flow);
        row.copy_from_slice(truth.row(flow));
        let target_sum =
            |row: &[i32], x: usize| row[x] as i64 + other.get(flow, IcxId::new(x)) as i64;
        // Raise d(b) until it is the (weak) combined maximum, clamped at P.
        let needed = (0..k)
            .filter(|&x| x != b)
            .map(|x| target_sum(row, x))
            .max()
            .unwrap_or(i64::MIN);
        if needed > i64::MIN {
            let other_b = other.get(flow, IcxId::new(b)) as i64;
            let want = (needed - other_b).clamp(i64::from(-p), i64::from(p)) as i32;
            row[b] = row[b].max(want).min(p);
            // If clamping left competitors above, deflate them to just
            // below the best alternative's sum.
            let best_sum = target_sum(row, b);
            for x in 0..k {
                if x == b {
                    continue;
                }
                if target_sum(row, x) > best_sum {
                    let other_x = other.get(flow, IcxId::new(x)) as i64;
                    row[x] = ((best_sum - other_x).clamp(i64::from(-p), i64::from(p))) as i32;
                }
            }
        }
        // Defaults keep class 0 in honest tables, but the cheater is free
        // to move even the default's disclosed class; the paper's strategy
        // only adjusts relative to sums, so nothing special is needed.
        let _ = defaults;
    }
}

/// Naive blind maximization.
fn blind_max(
    truth: &PrefTable,
    p: i32,
    _defaults: &[IcxId],
    rows: impl Iterator<Item = usize>,
    out: &mut PrefTable,
) {
    for flow in rows {
        let b = best_alternative(truth, flow);
        for (x, cell) in out.row_mut(flow).iter_mut().enumerate() {
            *cell = if x == b { p } else { -p };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table<R: AsRef<[i32]>>(rows: &[R]) -> PrefTable {
        PrefTable::from_rows(rows)
    }

    #[test]
    fn truthful_is_identity() {
        let t = table(&[vec![0, 3, -2]]);
        let o = table(&[vec![0, 0, 0]]);
        let d = DisclosurePolicy::Truthful.disclose(&t, &o, 10, &[IcxId(0)]);
        assert_eq!(d, t);
        assert!(!DisclosurePolicy::Truthful.is_cheating());
    }

    #[test]
    fn inflate_best_makes_best_win_combined() {
        // Cheater truly prefers alt 1 (+3), but the other ISP loves alt 2
        // (+9): truthfully, combined max is alt 2 (3+...: [0+0, 3+0, 1+9]
        // = [0, 3, 10]). The cheater must inflate alt 1 to win.
        let t = table(&[vec![0, 3, 1]]);
        let o = table(&[vec![0, 0, 9]]);
        let d = DisclosurePolicy::InflateBest.disclose(&t, &o, 10, &[IcxId(0)]);
        let combined: Vec<i32> = (0..3)
            .map(|x| d.get(0, IcxId::new(x)) + o.get(0, IcxId::new(x)))
            .collect();
        let best = combined.iter().max().unwrap();
        assert_eq!(
            combined[1], *best,
            "cheater's alt must reach max sum: {combined:?}"
        );
        assert!(d.within_range(10));
    }

    #[test]
    fn inflate_best_deflates_when_clamped() {
        // Other ISP's alt 2 preference is so high that even +P on alt 1
        // cannot reach it; the cheater must deflate alt 2.
        let t = table(&[vec![0, 3, 1]]);
        let o = table(&[vec![0, -9, 10]]);
        let d = DisclosurePolicy::InflateBest.disclose(&t, &o, 10, &[IcxId(0)]);
        let sum = |x: usize| d.get(0, IcxId::new(x)) + o.get(0, IcxId::new(x));
        assert!(
            sum(1) >= sum(2),
            "alt 1 (sum {}) must beat alt 2 (sum {})",
            sum(1),
            sum(2)
        );
        assert!(d.within_range(10));
    }

    #[test]
    fn inflate_preserves_relative_order_where_possible() {
        // Only the best alternative is raised; others keep their truthful
        // relative ordering when no deflation is required.
        let t = table(&[vec![0, 5, 2, -3]]);
        let o = table(&[vec![0, 0, 0, 0]]);
        let d = DisclosurePolicy::InflateBest.disclose(&t, &o, 10, &[IcxId(0)]);
        assert_eq!(d.get(0, IcxId(2)), 2);
        assert_eq!(d.get(0, IcxId(3)), -3);
        assert!(d.get(0, IcxId(1)) >= 5);
    }

    #[test]
    fn blind_max_is_all_or_nothing() {
        let t = table(&[vec![0, 4, 2], vec![0, -1, -5]]);
        let o = table(&[vec![0, 0, 0], vec![0, 0, 0]]);
        let d = DisclosurePolicy::BlindMax.disclose(&t, &o, 10, &[IcxId(0), IcxId(0)]);
        assert_eq!(d.row(0), &[-10, 10, -10]);
        assert_eq!(d.row(1), &[10, -10, -10]);
        assert!(DisclosurePolicy::BlindMax.is_cheating());
    }

    #[test]
    fn disclose_into_writes_the_live_rows_only() {
        let t = table(&[vec![0, 4, 2], vec![0, -3, 5], vec![0, 1, -1]]);
        let o = table(&[vec![0, 0, 9], vec![0, 7, 0], vec![0, 0, 0]]);
        let defaults = [IcxId(0); 3];
        for policy in [
            DisclosurePolicy::Truthful,
            DisclosurePolicy::InflateBest,
            DisclosurePolicy::BlindMax,
        ] {
            let whole = policy.disclose(&t, &o, 10, &defaults);
            let mut out = table(&[[77; 3]; 3]);
            policy.disclose_into(&t, &o, 10, &defaults, &[true, false, true], &mut out);
            assert_eq!(out.row(0), whole.row(0));
            assert_eq!(out.row(1), &[77; 3], "a settled row was rewritten");
            assert_eq!(out.row(2), whole.row(2));
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_row(k: usize, p: i32) -> impl Strategy<Value = Vec<i32>> {
            proptest::collection::vec(-p..=p, k).prop_map(|mut r| {
                r[0] = 0;
                r
            })
        }

        proptest! {
            #[test]
            fn inflate_best_always_within_range_and_wins(
                t_row in arb_row(4, 10),
                o_row in arb_row(4, 10),
            ) {
                let t = PrefTable::from_rows(std::slice::from_ref(&t_row));
                let o = PrefTable::from_rows(std::slice::from_ref(&o_row));
                let d = DisclosurePolicy::InflateBest.disclose(&t, &o, 10, &[IcxId(0)]);
                prop_assert!(d.within_range(10));
                // The cheater's true-best alternative must be a combined
                // (weak) maximum whenever the range permits.
                let b = super::best_alternative(&t, 0);
                let sum = |x: usize| d.get(0, IcxId::new(x)) as i64 + o_row[x] as i64;
                let max = (0..4).map(&sum).max().unwrap();
                // With deflation the best is always reachable unless the
                // other row's spread exceeds 2P, impossible here... except
                // when competitor sums pin at the clamp; allow equality.
                prop_assert!(sum(b) >= max, "best {} sums {:?}", b,
                    (0..4).map(&sum).collect::<Vec<_>>());
            }
        }
    }
}
