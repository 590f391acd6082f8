//! Pure selection functions shared by the in-process engine and the
//! distributed wire-protocol agents.
//!
//! Both implementations must take bit-identical decisions from the same
//! disclosed state — the centralized engine ([`crate::engine`]) for
//! simulation speed, and the message-passing agents
//! (`nexit-proto`) for deployment fidelity — so the decision rules live
//! here, parameterized only on data.
//!
//! [`combined_best`] and the test-only `select_proposal` and
//! `projected_gain` are the *reference* implementations: straightforward
//! full-table scans whose semantics define the protocol. The round loop
//! ([`crate::machine::NegotiationMachine`]) executes the incrementally
//! maintained [`crate::index::CandidateIndex`] instead; the scans are its
//! test oracle, which the index is property-tested to match decision for
//! decision. A session shape the index cannot hold is refused at
//! construction, so no production path rescans the table.

use crate::outcome::Side;
#[cfg(test)]
use crate::policies::ProposalRule;
use crate::policies::TurnPolicy;
use crate::prefs::PrefTable;
use nexit_topology::IcxId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Negotiable state visible to selection: which local flows remain and
/// which (flow, alternative) pairs were withdrawn by veto.
///
/// Withdrawn alternatives live in one flat bitset and the remaining-flow
/// count is maintained on every accept, so the per-round checks the
/// machine performs ([`TableState::is_banned`],
/// [`TableState::num_remaining`]) are O(1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableState {
    /// `true` while the local flow is still on the table.
    remaining: Vec<bool>,
    /// Flat bitset over `flow * num_alternatives + alt`; a set bit marks
    /// a vetoed (withdrawn) alternative.
    banned: Vec<u64>,
    num_alternatives: usize,
    num_remaining: usize,
}

impl TableState {
    /// Fresh state with all flows on the table.
    pub fn new(num_flows: usize, num_alternatives: usize) -> Self {
        let bits = num_flows * num_alternatives;
        Self {
            remaining: vec![true; num_flows],
            banned: vec![0; bits.div_ceil(64)],
            num_alternatives,
            num_remaining: num_flows,
        }
    }

    /// Number of flows the state covers (remaining or not).
    #[inline]
    pub fn num_flows(&self) -> usize {
        self.remaining.len()
    }

    /// Number of alternatives per flow.
    #[inline]
    pub fn num_alternatives(&self) -> usize {
        self.num_alternatives
    }

    /// Number of flows still on the table. O(1): the counter is
    /// maintained on every [`TableState::accept`].
    #[inline]
    pub fn num_remaining(&self) -> usize {
        self.num_remaining
    }

    /// Whether the flow is still on the table.
    #[inline]
    pub fn is_remaining(&self, flow: usize) -> bool {
        self.remaining[flow]
    }

    /// [`TableState::is_remaining`] for every flow, in flow order.
    #[inline]
    pub fn remaining(&self) -> &[bool] {
        &self.remaining
    }

    /// Whether the (flow, alternative) cell was withdrawn by veto.
    #[inline]
    pub fn is_banned(&self, flow: usize, alt: usize) -> bool {
        let bit = flow * self.num_alternatives + alt;
        self.banned[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Settle a flow (an accepted proposal removes it from the table).
    pub fn accept(&mut self, flow: usize) {
        debug_assert!(self.remaining[flow], "flow accepted twice");
        self.remaining[flow] = false;
        self.num_remaining -= 1;
    }

    /// Withdraw one (flow, alternative) cell (a vetoed proposal).
    pub fn ban(&mut self, flow: usize, alt: usize) {
        debug_assert!(alt < self.num_alternatives);
        let bit = flow * self.num_alternatives + alt;
        self.banned[bit / 64] |= 1 << (bit % 64);
    }
}

/// The combined-maximum alternative of one flow and its combined sum.
/// Used for stop projections. Ties prefer the flow's *default*
/// alternative (no movement without reason), then the lowest id.
pub fn combined_best(
    d_own: &PrefTable,
    d_other: &PrefTable,
    state: &TableState,
    local: usize,
    num_alternatives: usize,
    default: IcxId,
) -> (IcxId, i64) {
    let mut best_alt = IcxId::new(0);
    let mut best_sum = i64::MIN;
    let mut best_is_default = false;
    for alt in 0..num_alternatives {
        if state.is_banned(local, alt) {
            continue;
        }
        let id = IcxId::new(alt);
        let sum = i64::from(d_own.get(local, id)) + i64::from(d_other.get(local, id));
        let is_default = id == default;
        if sum > best_sum || (sum == best_sum && is_default && !best_is_default) {
            best_sum = sum;
            best_alt = id;
            best_is_default = is_default;
        }
    }
    (best_alt, best_sum)
}

/// The proposer's choice of (local flow, alternative), or `None` when
/// nothing is proposable.
///
/// `self_guard` carries `(own_true_table, own_cumulative_gain)` when the
/// veto accept-rule is active: the proposer never proposes an alternative
/// that would push its own true cumulative gain negative.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel arrays indexed together
pub fn select_proposal(
    d_own: &PrefTable,
    d_other: &PrefTable,
    state: &TableState,
    num_alternatives: usize,
    rule: ProposalRule,
    self_guard: Option<(&PrefTable, i64)>,
    defaults: &[IcxId],
) -> Option<(usize, IcxId)> {
    // Key: (primary, secondary, prefer-default-on-tie). The default
    // alternative wins full ties so ISPs never move a flow without a
    // disclosed reason (movement at all-zero preferences would otherwise
    // leak unmeasured real-metric losses).
    let mut best: Option<((i64, i64, i64), usize, IcxId)> = None;
    for local in 0..state.num_flows() {
        if !state.is_remaining(local) {
            continue;
        }
        for alt in 0..num_alternatives {
            if state.is_banned(local, alt) {
                continue;
            }
            let alt_id = IcxId::new(alt);
            if let Some((own_true, own_cum)) = self_guard {
                if own_cum + i64::from(own_true.get(local, alt_id)) < 0 {
                    continue;
                }
            }
            let o = i64::from(d_own.get(local, alt_id));
            let t = i64::from(d_other.get(local, alt_id));
            let default_bias = i64::from(alt_id == defaults[local]);
            let key = match rule {
                ProposalRule::MaxCombined => (o + t, o, default_bias),
                ProposalRule::BestLocalMinHarm => (o, t, default_bias),
            };
            if best.is_none_or(|(bk, _, _)| key > bk) {
                best = Some((key, local, alt_id));
            }
        }
    }
    best.map(|(_, local, alt)| (local, alt))
}

/// Early-termination projection: the best *nonempty* prefix sum of
/// `own_true` preferences over the remaining flows, in combined-selection
/// order (see the engine's documentation for semantics). Returns 0 when
/// no flows remain.
#[cfg(test)]
#[allow(clippy::needless_range_loop)] // parallel arrays indexed together
pub fn projected_gain(
    own_true: &PrefTable,
    d_own: &PrefTable,
    d_other: &PrefTable,
    state: &TableState,
    num_alternatives: usize,
    defaults: &[IcxId],
) -> i64 {
    let mut picks: Vec<(i64, i64)> = Vec::new(); // (combined, own true)
    for local in 0..state.num_flows() {
        if !state.is_remaining(local) {
            continue;
        }
        let (alt, combined) = combined_best(
            d_own,
            d_other,
            state,
            local,
            num_alternatives,
            defaults[local],
        );
        picks.push((combined, i64::from(own_true.get(local, alt))));
    }
    picks.sort_by_key(|&(combined, _)| std::cmp::Reverse(combined));
    let mut best = i64::MIN;
    let mut run = 0i64;
    for (_, own) in picks {
        run += own;
        best = best.max(run);
    }
    if best == i64::MIN {
        0
    } else {
        best
    }
}

/// One side's negative accepted moves in the order the rollback reverts
/// them — `(class, log index)` ascending: worst first, ties to the
/// earliest round — with every move before `next` already reverted.
struct RevertQueue {
    moves: Vec<(i32, u32)>,
    next: usize,
}

impl RevertQueue {
    fn new(table: &PrefTable, accepted: &[(usize, IcxId)]) -> Self {
        let mut moves: Vec<(i32, u32)> = accepted
            .iter()
            .enumerate()
            .filter_map(|(i, &(local, alt))| {
                let class = table.get(local, alt);
                let i = u32::try_from(i).expect("a session has fewer than 2^32 flows");
                (class < 0).then_some((class, i))
            })
            .collect();
        moves.sort_unstable();
        Self { moves, next: 0 }
    }

    /// Whether the move lies behind the cursor, i.e. was reverted.
    fn passed(&self, class: i32, idx: u32) -> bool {
        self.next > 0 && (class, idx) <= self.moves[self.next - 1]
    }
}

/// The deterministic end-of-session rollback plan for
/// [`crate::AcceptRule::CreditVeto`].
///
/// `accepted` lists the accepted moves in round order as
/// `(local_flow, alternative)`. While either side's cumulative disclosed
/// gain is negative, the plan reverts that side's disclosedly-worst
/// remaining move (ties to the earliest round). Returns the indices into
/// `accepted` to revert, in revert order. Both sides of a distributed
/// session compute this identically from shared state.
///
/// O(n log n): a side's negative moves are sorted once, the first time
/// it is the negative side, and a cursor walks them. The only moves a
/// cursor can meet already reverted are the other side's reverts, and
/// those are exactly the ones behind the other side's cursor — so no
/// per-move flag is kept, and a session that ends with both gains
/// non-negative allocates nothing.
pub fn rollback_plan(
    d_a: &PrefTable,
    d_b: &PrefTable,
    accepted: &[(usize, IcxId)],
    gain_a: i64,
    gain_b: i64,
) -> Vec<usize> {
    let tables = [d_a, d_b];
    let mut gains = [gain_a, gain_b];
    let mut queues: [Option<RevertQueue>; 2] = [None, None];
    let mut plan = Vec::new();
    while let Some(side) = gains.iter().position(|&gain| gain < 0) {
        let idx = loop {
            let queue =
                queues[side].get_or_insert_with(|| RevertQueue::new(tables[side], accepted));
            let Some(&(_, idx)) = queue.moves.get(queue.next) else {
                return plan; // nothing left to revert for the negative side
            };
            queue.next += 1;
            let (local, alt) = accepted[idx as usize];
            let other_class = tables[1 - side].get(local, alt);
            let other = &queues[1 - side];
            if !other.as_ref().is_some_and(|q| q.passed(other_class, idx)) {
                break idx as usize;
            }
        };
        let (local, alt) = accepted[idx];
        for (gain, table) in gains.iter_mut().zip(tables) {
            *gain -= i64::from(table.get(local, alt));
        }
        plan.push(idx);
    }
    plan
}

/// Whose turn it is in `round`, given the policy and current disclosed
/// cumulative gains. Both sides of a distributed session compute this
/// identically.
pub fn decide_turn(
    policy: TurnPolicy,
    round: usize,
    disclosed_gain_a: i64,
    disclosed_gain_b: i64,
) -> Side {
    match policy {
        TurnPolicy::Alternate => {
            if round.is_multiple_of(2) {
                Side::A
            } else {
                Side::B
            }
        }
        TurnPolicy::LowerGain => {
            use std::cmp::Ordering;
            match disclosed_gain_a.cmp(&disclosed_gain_b) {
                Ordering::Less => Side::A,
                Ordering::Greater => Side::B,
                Ordering::Equal => {
                    if round.is_multiple_of(2) {
                        Side::A
                    } else {
                        Side::B
                    }
                }
            }
        }
        TurnPolicy::CoinToss { seed } => {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9E3779B97F4A7C15));
            if rng.gen_bool(0.5) {
                Side::A
            } else {
                Side::B
            }
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
    fn table_state_counter_and_bitset() {
        // 70 alternatives per flow: cells span multiple bitset words.
        let mut state = TableState::new(3, 70);
        assert_eq!(state.num_remaining(), 3);
        state.ban(0, 0);
        state.ban(2, 69);
        assert!(state.is_banned(0, 0));
        assert!(state.is_banned(2, 69));
        assert!(!state.is_banned(1, 0));
        assert!(!state.is_banned(2, 68));
        state.accept(1);
        assert_eq!(state.num_remaining(), 2);
        assert!(!state.is_remaining(1));
        state.accept(0);
        state.accept(2);
        assert_eq!(state.num_remaining(), 0);
    }

    #[test]
    fn combined_best_skips_banned() {
        let a = table(&[vec![0, 5, 3]]);
        let b = table(&[vec![0, 5, 4]]);
        let mut state = TableState::new(1, 3);
        assert_eq!(
            combined_best(&a, &b, &state, 0, 3, IcxId(0)),
            (IcxId(1), 10)
        );
        state.ban(0, 1);
        assert_eq!(combined_best(&a, &b, &state, 0, 3, IcxId(0)), (IcxId(2), 7));
    }

    #[test]
    fn combined_best_prefers_default_on_tie() {
        let a = table(&[vec![0, 0, 0]]);
        let b = table(&[vec![0, 0, 0]]);
        let state = TableState::new(1, 3);
        assert_eq!(combined_best(&a, &b, &state, 0, 3, IcxId(2)), (IcxId(2), 0));
    }

    #[test]
    fn proposal_respects_guard() {
        let own = table(&[vec![0, -5]]);
        let other = table(&[vec![0, 10]]);
        let state = TableState::new(1, 2);
        let defaults = [IcxId(0)];
        // Without guard: combined max picks alt 1 (sum 5).
        let p = select_proposal(
            &own,
            &other,
            &state,
            2,
            ProposalRule::MaxCombined,
            None,
            &defaults,
        );
        assert_eq!(p, Some((0, IcxId(1))));
        // With guard at cum 0, alt 1 would go to -5: only the default left.
        let p = select_proposal(
            &own,
            &other,
            &state,
            2,
            ProposalRule::MaxCombined,
            Some((&own, 0)),
            &defaults,
        );
        assert_eq!(p, Some((0, IcxId(0))));
        // With banked gain 5, alt 1 is acceptable again.
        let p = select_proposal(
            &own,
            &other,
            &state,
            2,
            ProposalRule::MaxCombined,
            Some((&own, 5)),
            &defaults,
        );
        assert_eq!(p, Some((0, IcxId(1))));
    }

    #[test]
    fn projection_empty_is_zero() {
        let t = table::<[i32; 0]>(&[]);
        let state = TableState::new(0, 2);
        assert_eq!(projected_gain(&t, &t, &t, &state, 2, &[]), 0);
    }

    #[test]
    fn rollback_reverts_worst_until_nonnegative() {
        // Moves: (A -5, B +9), (A +3, B 0), (A -1, B +2). gains A=-3, B=11.
        let d_a = table(&[vec![0, -5], vec![0, 3], vec![0, -1]]);
        let d_b = table(&[vec![0, 9], vec![0, 0], vec![0, 2]]);
        let accepted = vec![(0, IcxId(1)), (1, IcxId(1)), (2, IcxId(1))];
        let plan = rollback_plan(&d_a, &d_b, &accepted, -3, 11);
        // A reverts its worst move (idx 0, -5): gains A=2, B=2; done.
        assert_eq!(plan, vec![0]);
    }

    #[test]
    fn rollback_noop_when_both_nonnegative() {
        let d = table(&[vec![0, 1]]);
        assert!(rollback_plan(&d, &d, &[(0, IcxId(1))], 1, 1).is_empty());
    }

    /// [`rollback_plan`] as it was first written, and still its
    /// definition: one scan of the whole log per revert.
    fn quadratic_rollback_plan(
        d_a: &PrefTable,
        d_b: &PrefTable,
        accepted: &[(usize, IcxId)],
        mut gain_a: i64,
        mut gain_b: i64,
    ) -> Vec<usize> {
        let mut reverted = vec![false; accepted.len()];
        let mut plan = Vec::new();
        loop {
            let side_a = if gain_a < 0 {
                true
            } else if gain_b < 0 {
                false
            } else {
                return plan;
            };
            let table = if side_a { d_a } else { d_b };
            let mut worst: Option<(i64, usize)> = None;
            for (i, &(local, alt)) in accepted.iter().enumerate() {
                if reverted[i] {
                    continue;
                }
                let pref = i64::from(table.get(local, alt));
                if pref < 0 && worst.is_none_or(|(wp, _)| pref < wp) {
                    worst = Some((pref, i));
                }
            }
            let Some((_, idx)) = worst else {
                return plan; // nothing left to revert for the negative side
            };
            let (local, alt) = accepted[idx];
            reverted[idx] = true;
            gain_a -= i64::from(d_a.get(local, alt));
            gain_b -= i64::from(d_b.get(local, alt));
            plan.push(idx);
        }
    }

    #[test]
    fn rollback_skips_what_the_other_side_reverted() {
        // Move 0 is negative for both sides. A (priority while negative)
        // reverts it as its worst; B then goes through its own list,
        // where move 0 comes first and is already gone.
        let d_a = table(&[vec![0, -6], vec![0, -1], vec![0, 4]]);
        let d_b = table(&[vec![0, -9], vec![0, 8], vec![0, -3]]);
        let accepted = vec![(0, IcxId(1)), (1, IcxId(1)), (2, IcxId(1))];
        let plan = rollback_plan(&d_a, &d_b, &accepted, -3, -4);
        // A: revert 0 -> (3, 5). Nobody negative: done.
        assert_eq!(plan, vec![0]);
        // Start B deeper in the red: A reverts 0 -> (3, -1); B skips
        // move 0 and reverts 2 -> (-1, 2); A reverts 1 -> (0, -6); B has
        // nothing left.
        let plan = rollback_plan(&d_a, &d_b, &accepted, -3, -10);
        assert_eq!(plan, vec![0, 2, 1]);
        assert_eq!(
            plan,
            quadratic_rollback_plan(&d_a, &d_b, &accepted, -3, -10)
        );
    }

    #[test]
    fn rollback_stops_when_the_negative_side_has_nothing_left() {
        // A is negative beyond what its one negative move explains (the
        // tables were reassigned since): the plan reverts it and stops.
        let d_a = table(&[vec![0, -2], vec![0, 3]]);
        let d_b = table(&[vec![0, 5], vec![0, 1]]);
        let accepted = vec![(0, IcxId(1)), (1, IcxId(1))];
        assert_eq!(rollback_plan(&d_a, &d_b, &accepted, -7, 6), vec![0]);
        assert!(rollback_plan(&d_a, &d_b, &[], -1, -1).is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            // Random logs over a narrow class range, so ties in class
            // and moves negative for both sides are the common case.
            // The starting gains are either the log's own sums (what a
            // session without reassignment hands over) or arbitrary
            // (after a reassignment the final tables no longer add up
            // to the running gains), which also reaches "negative with
            // nothing left to revert" and the sides alternating.
            #[test]
            fn rollback_matches_the_quadratic_reference(
                (tables, order, offsets) in (0usize..40, 2usize..4).prop_flat_map(|(n, k)| (
                    collection::vec(
                        (collection::vec(-3i32..=3, k), collection::vec(-3i32..=3, k)),
                        n,
                    ),
                    collection::vec((any::<u32>(), 0..k, any::<bool>()), n),
                    (any::<bool>(), -20i64..20, -20i64..20),
                )),
            ) {
                let (rows_a, rows_b): (Vec<_>, Vec<_>) = tables.into_iter().unzip();
                let (d_a, d_b) = (table(&rows_a), table(&rows_b));
                // A random subset of the flows, accepted in random order.
                let mut log: Vec<(u32, usize, IcxId)> = order
                    .iter()
                    .enumerate()
                    .filter(|(_, &(_, _, taken))| taken)
                    .map(|(flow, &(rank, alt, _))| (rank, flow, IcxId::new(alt)))
                    .collect();
                log.sort_unstable();
                let accepted: Vec<(usize, IcxId)> =
                    log.into_iter().map(|(_, flow, alt)| (flow, alt)).collect();
                let gain = |t: &PrefTable, offset: i64| -> i64 {
                    let sum: i64 = accepted.iter().map(|&(f, a)| i64::from(t.get(f, a))).sum();
                    if offsets.0 { sum + offset } else { sum }
                };
                let (gain_a, gain_b) = (gain(&d_a, offsets.1), gain(&d_b, offsets.2));
                prop_assert_eq!(
                    rollback_plan(&d_a, &d_b, &accepted, gain_a, gain_b),
                    quadratic_rollback_plan(&d_a, &d_b, &accepted, gain_a, gain_b)
                );
            }
        }
    }

    #[test]
    fn turn_policies() {
        assert_eq!(decide_turn(TurnPolicy::Alternate, 0, 0, 0), Side::A);
        assert_eq!(decide_turn(TurnPolicy::Alternate, 1, 0, 0), Side::B);
        assert_eq!(decide_turn(TurnPolicy::LowerGain, 0, 3, 1), Side::B);
        assert_eq!(decide_turn(TurnPolicy::LowerGain, 0, 1, 3), Side::A);
        // Coin toss: deterministic per (seed, round).
        let t1 = decide_turn(TurnPolicy::CoinToss { seed: 5 }, 7, 0, 0);
        let t2 = decide_turn(TurnPolicy::CoinToss { seed: 5 }, 7, 0, 0);
        assert_eq!(t1, t2);
    }
}
