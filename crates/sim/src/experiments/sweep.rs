//! The one pair sweep behind every figure: which pairs a figure reads
//! ([`Pairs`]), the fan-out over them ([`sweep_pairs`]), the failure
//! scenarios of the bandwidth figures ([`sweep_failures`]) and the
//! win-win gate every negotiating target reports ([`WinWinGate`]).
//!
//! Rows come back in pair order for every thread count: the fan-out is
//! [`par_map_with`], which places each pair's result by its index.

use crate::experiments::bandwidth::{FailureScenario, LpSkip, PairFailureSweep};
use crate::pairdata::ExpConfig;
use crate::parallel::par_map_with;
use nexit_baselines::{BandwidthLp, BandwidthOptimum};
use nexit_core::{NegotiationOutcome, Side, TableArena};
use nexit_lp::WarmStats;
use nexit_topology::Universe;
use nexit_workload::CapacityModel;

/// The pairs a figure sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairs {
    /// §5.1: two or more interconnections, no mesh ISP.
    Distance,
    /// §5.2: three or more interconnections, so one can fail and leave a
    /// choice.
    Bandwidth,
}

impl Pairs {
    /// Every eligible pair index of `universe`, in universe order.
    pub fn eligible(self, universe: &Universe) -> Vec<usize> {
        match self {
            Pairs::Distance => universe.eligible_pairs(2, true),
            Pairs::Bandwidth => universe.eligible_pairs(3, false),
        }
    }
}

/// Sessions negotiated under a win-win close (credit veto + rollback),
/// and how many of them left a protected side's final gain negative.
/// The close guarantees none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WinWinGate {
    /// Win-win sessions counted.
    pub sessions: usize,
    /// Of those, sessions with a negative final gain on a protected side.
    pub negative_sessions: usize,
}

impl WinWinGate {
    /// The gate of one session: both sides are protected.
    pub fn of(outcome: &NegotiationOutcome) -> Self {
        Self {
            sessions: 1,
            negative_sessions: usize::from(outcome.gain_a < 0 || outcome.gain_b < 0),
        }
    }

    /// The gate of a session with a cheater: only the `honest` side is
    /// protected (§5.4's cheating can hurt the cheater).
    pub fn of_honest(outcome: &NegotiationOutcome, honest: Side) -> Self {
        Self {
            sessions: 1,
            negative_sessions: usize::from(outcome.gain(honest) < 0),
        }
    }

    /// Print the gate's report line, `note` appended.
    pub fn print(&self, note: &str) {
        println!(
            "   negative final gain: {} of {} sessions{note}",
            self.negative_sessions, self.sessions
        );
    }
}

impl std::ops::Add for WinWinGate {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            sessions: self.sessions + other.sessions,
            negative_sessions: self.negative_sessions + other.negative_sessions,
        }
    }
}

impl std::iter::Sum for WinWinGate {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |total, gate| total + gate)
    }
}

/// A figure's rows, in pair order, and the gate of the sessions behind
/// them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rows<R> {
    /// One row per pair (or per swept value).
    pub rows: Vec<R>,
    /// Every win-win session behind the rows.
    pub gate: WinWinGate,
}

/// Run `f(arena, position, pair index)` over the `kind` pairs on
/// `cfg.threads` workers, each threading one [`TableArena`] through its
/// pairs (buffer reuse, never values). The sweep takes the first
/// `cfg.max_pairs` pairs, and at most `limit` when one is given. `f`
/// returns the pair's row and the gate of its sessions.
pub fn sweep_pairs<R, F>(
    universe: &Universe,
    cfg: &ExpConfig,
    kind: Pairs,
    limit: Option<usize>,
    f: F,
) -> Rows<R>
where
    R: Send,
    F: Fn(&mut TableArena, usize, usize) -> (R, WinWinGate) + Sync,
{
    let mut pairs = kind.eligible(universe);
    let cap = match (cfg.max_pairs, limit) {
        (Some(max), Some(limit)) => Some(max.min(limit)),
        (max, limit) => max.or(limit),
    };
    if let Some(cap) = cap {
        pairs.truncate(cap);
    }
    let per_pair = par_map_with(cfg.threads, pairs.len(), TableArena::new, |arena, i| {
        f(arena, i, pairs[i])
    });
    let gate = per_pair.iter().map(|&(_, gate)| gate).sum();
    Rows {
        rows: per_pair.into_iter().map(|(row, _)| row).collect(),
        gate,
    }
}

/// The rows of a failure sweep (pair, then scenario order), their gate,
/// and what the pair-scoped LP sessions did.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRows<R> {
    /// One row per evaluated scenario.
    pub rows: Vec<R>,
    /// Every win-win session behind the rows.
    pub gate: WinWinGate,
    /// Scenarios whose LP exceeded the `max_lp_variables` budget.
    pub skipped_lp_size: usize,
    /// Scenarios whose LP solve failed (iteration cap or numerical
    /// trouble).
    pub failed_lp: usize,
    /// How the LP sessions resolved their solves.
    pub lp_stats: WarmStats,
}

impl<R> Default for FailureRows<R> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            gate: WinWinGate::default(),
            skipped_lp_size: 0,
            failed_lp: 0,
            lp_stats: WarmStats::default(),
        }
    }
}

/// The failure-scenario loop of every bandwidth figure: each
/// [`Pairs::Bandwidth`] pair's [`PairFailureSweep`] under `capacity`,
/// each scenario's optimum from the pair's warm LP session, then
/// `f(scenario, optimum, session, arena)` for the scenario's row and gate
/// (`None` drops the scenario). The LP session is pair-scoped, so warm
/// state never crosses pairs and the rows do not depend on scheduling.
pub fn sweep_failures<R, F>(
    universe: &Universe,
    cfg: &ExpConfig,
    limit: Option<usize>,
    capacity: &CapacityModel,
    f: F,
) -> FailureRows<R>
where
    R: Send,
    F: Fn(
            &FailureScenario<'_>,
            &BandwidthOptimum,
            &mut BandwidthLp<'_>,
            &mut TableArena,
        ) -> Option<(R, WinWinGate)>
        + Sync,
{
    let per_pair = sweep_pairs(universe, cfg, Pairs::Bandwidth, limit, |arena, _, idx| {
        let sweep = PairFailureSweep::build(universe, idx, cfg, capacity);
        let mut session = sweep.lp_session(cfg.max_lp_variables);
        let mut out = FailureRows::default();
        for scenario in &sweep.scenarios {
            match scenario.optimum_in(&mut session) {
                Ok(optimum) => {
                    if let Some((row, gate)) = f(scenario, &optimum, &mut session, arena) {
                        out.rows.push(row);
                        out.gate = out.gate + gate;
                    }
                }
                Err(LpSkip::Size) => out.skipped_lp_size += 1,
                Err(LpSkip::Solver(_)) => out.failed_lp += 1,
            }
        }
        out.lp_stats = session.warm_stats();
        let gate = out.gate;
        (out, gate)
    });
    let mut out = FailureRows {
        gate: per_pair.gate,
        ..FailureRows::default()
    };
    for pair in per_pair.rows {
        out.rows.extend(pair.rows);
        out.skipped_lp_size += pair.skipped_lp_size;
        out.failed_lp += pair.failed_lp;
        out.lp_stats.absorb(pair.lp_stats);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexit_core::Termination;
    use nexit_routing::Assignment;

    fn outcome(gain_a: i64, gain_b: i64) -> NegotiationOutcome {
        NegotiationOutcome {
            assignment: Assignment::from_choices(vec![]),
            transcript: Vec::new(),
            gain_a,
            gain_b,
            disclosed_gain_a: gain_a,
            disclosed_gain_b: gain_b,
            termination: Termination::Exhausted,
            reassignments: 0,
        }
    }

    #[test]
    fn the_gate_counts_a_session_negative_on_either_side() {
        let gate: WinWinGate = [(0, 0), (3, -1), (-2, 5), (-1, -1)]
            .iter()
            .map(|&(a, b)| WinWinGate::of(&outcome(a, b)))
            .sum();
        assert_eq!(
            gate,
            WinWinGate {
                sessions: 4,
                negative_sessions: 3
            }
        );
        // Under a cheater only the honest side counts.
        assert_eq!(
            WinWinGate::of_honest(&outcome(3, -1), Side::A).negative_sessions,
            0
        );
        assert_eq!(
            WinWinGate::of_honest(&outcome(3, -1), Side::B).negative_sessions,
            1
        );
    }
}
