//! What every machine test leans on: the machine's own invariant check,
//! fixed and load-like mappers, and pair construction and pumping.

use super::super::*;
use crate::selection;
use nexit_routing::FlowId;

impl<M: PreferenceMapper> NegotiationMachine<M> {
    /// Assert what the protocol state must satisfy on its own, and what
    /// the accelerators must agree with it on:
    ///
    /// * a flow is settled exactly when it is in the accepted log, once;
    /// * `my_gain` and both disclosed gains are the current tables summed
    ///   over the accepted moves the rollback kept — a settled row
    ///   re-priced after its accept shows here;
    /// * the assignment is the defaults overlaid with those moves;
    /// * the reassignment count and the volume since the last one replay
    ///   from the accepted log;
    /// * wherever the index is keyed on the current tables, its `select`
    ///   at the machine's own guard floor and its stop projection equal
    ///   the reference scans, and its own invariants hold.
    pub(super) fn check_invariants(&self) {
        let (s, input) = (&self.state, &self.input);
        let mut accepted = vec![0; input.len()];
        for &(local, _) in &s.accepted_log {
            accepted[local] += 1;
        }
        for (flow, &times) in accepted.iter().enumerate() {
            let settled = usize::from(!s.table.is_remaining(flow));
            assert_eq!(times, settled, "flow {flow}: settled iff accepted, once");
        }
        let mut kept = vec![true; s.accepted_log.len()];
        for &idx in &s.reverted {
            kept[idx] = false;
        }
        let moves = || (s.accepted_log.iter().zip(&kept)).filter_map(|(&m, &k)| k.then_some(m));
        let sum = |t: &PrefTable| -> i64 { moves().map(|(f, alt)| i64::from(t.get(f, alt))).sum() };
        let (d_a, d_b) = s.disclosed_tables(self.side);
        assert_eq!(
            (s.my_gain, s.disclosed_gain_a, s.disclosed_gain_b),
            (sum(&s.my_true), sum(d_a), sum(d_b)),
            "the gain ledger disagrees with the current tables"
        );
        let mut choices = input.defaults.clone();
        for (local, alt) in moves() {
            choices[local] = alt;
        }
        for (&flow, &alt) in input.flow_ids.iter().zip(&choices) {
            assert_eq!(s.assignment.choice(flow), alt, "assignment of {flow:?}");
        }
        // The trigger worked out from the session, not the cached threshold.
        let threshold = (self.config.reassign_interval_frac).map(|f| f * input.total_volume());
        let (mut since, mut fired) = (0.0, 0);
        for (i, &(local, _)) in s.accepted_log.iter().enumerate() {
            since += input.volumes[local];
            if threshold.is_some_and(|t| since >= t) && i + 1 < input.len() {
                (since, fired) = (0.0, fired + 1);
            }
        }
        assert_eq!(
            (Volume(since), fired),
            (s.volume_since_reassign, s.reassignments),
            "reassignment pacing disagrees with the accepted log"
        );
        if matches!(
            s.phase,
            Phase::Disclose | Phase::AwaitReassign | Phase::Failed
        ) {
            return; // the index is rebuilt once both tables are in
        }
        let (own, theirs, index) = (&s.my_disclosed, &s.their_disclosed, &self.acc.index);
        index.check_invariants(own, theirs, &s.my_true, &s.table);
        let (k, rule, defaults) = (
            input.num_alternatives,
            self.config.proposal,
            &input.defaults,
        );
        let guard = self.guard_floor().map(|floor| (&s.my_true, floor));
        let reference = selection::select_proposal(own, theirs, &s.table, k, rule, guard, defaults);
        assert_eq!(
            index.peek(own, theirs, &s.table, guard),
            reference,
            "select"
        );
        if self.config.stop == StopPolicy::Early {
            let reference =
                selection::projected_gain(&s.my_true, own, theirs, &s.table, k, defaults);
            assert_eq!(index.projected_gain(), reference, "projected gain");
        }
    }
}

pub(super) fn input(n: usize, k: usize) -> SessionInput {
    SessionInput {
        flow_ids: (0..n).map(FlowId::new).collect(),
        defaults: vec![IcxId(0); n],
        volumes: vec![1.0; n],
        num_alternatives: k,
    }
}

/// One side of a session over `inp` (flows `0..n`) in `arena`, A
/// disclosing first.
pub(super) fn machine_in<M: PreferenceMapper>(
    arena: &mut TableArena,
    side: Side,
    inp: SessionInput,
    mapper: M,
    disclosure: DisclosurePolicy,
    config: NexitConfig,
) -> Result<NegotiationMachine<M>, MachineError> {
    let default = Assignment::from_choices(inp.defaults.clone());
    NegotiationMachine::new_in(
        arena,
        side,
        Side::A,
        inp,
        default,
        mapper,
        disclosure,
        config,
    )
}

/// A truthful pair over flows `0..n` replaying fixed gain rows.
pub(super) fn pair(
    gains_a: &[Vec<f64>],
    gains_b: &[Vec<f64>],
    config: NexitConfig,
) -> (
    NegotiationMachine<CrowdedMapper>,
    NegotiationMachine<CrowdedMapper>,
) {
    let inp = input(gains_a.len(), gains_a.first().map_or(1, Vec::len));
    let (a, b) = (
        CrowdedMapper::new(gains_a, 0.0),
        CrowdedMapper::new(gains_b, 0.0),
    );
    pair_in(&mut TableArena::new(), inp, a, b, config)
}

/// A truthful pair over `inp`, buffers drawn from `arena`.
pub(super) fn pair_in<M: PreferenceMapper>(
    arena: &mut TableArena,
    inp: SessionInput,
    mapper_a: M,
    mapper_b: M,
    config: NexitConfig,
) -> (NegotiationMachine<M>, NegotiationMachine<M>) {
    let truthful = DisclosurePolicy::Truthful;
    let a = machine_in(arena, Side::A, inp.clone(), mapper_a, truthful, config).unwrap();
    let b = machine_in(arena, Side::B, inp, mapper_b, truthful, config).unwrap();
    (a, b)
}

/// Hand `action`, drained from `from`, to `to`, then check both
/// machines' invariants.
pub(super) fn deliver<M: PreferenceMapper>(
    from: &NegotiationMachine<M>,
    to: &mut NegotiationMachine<M>,
    action: Action,
) {
    to.handle(from.peer_event(action)).unwrap();
    from.check_invariants();
    to.check_invariants();
}

/// Shuttle events until both machines are done.
pub(super) fn pump<M: PreferenceMapper>(
    a: &mut NegotiationMachine<M>,
    b: &mut NegotiationMachine<M>,
) -> (MachineOutcome, MachineOutcome) {
    for _ in 0..10_000 {
        let mut progressed = false;
        while let Some(action) = a.poll_action() {
            deliver(a, b, action);
            progressed = true;
        }
        while let Some(action) = b.poll_action() {
            deliver(b, a, action);
            progressed = true;
        }
        if a.is_done() && b.is_done() {
            return (a.outcome().unwrap(), b.outcome().unwrap());
        }
        assert!(progressed, "machine pair deadlocked");
    }
    panic!("machine pair did not terminate");
}

/// A load-like objective: a fixed table less a charge for every flow
/// `current` already routes over the alternative (beyond the
/// default's riders), so each accepted move re-prices every row the
/// mapper is asked for again; at charge 0 it replays the table. A
/// default's own cell is 0. Records the flows of each fill.
pub(super) struct CrowdedMapper {
    base: GainTable,
    charge: f64,
    pub(super) fills: Vec<Vec<FlowId>>,
}

impl CrowdedMapper {
    pub(super) fn new<R: AsRef<[f64]>>(rows: &[R], charge: f64) -> Self {
        Self {
            base: GainTable::from_rows(rows),
            charge,
            fills: Vec::new(),
        }
    }
}

impl PreferenceMapper for CrowdedMapper {
    fn gains(&mut self, input: &SessionInput, current: &Assignment, out: &mut GainTable) {
        self.fills.push(input.flow_ids.clone());
        let mut riders = vec![0.0; input.num_alternatives];
        for (_, alt) in current.iter() {
            riders[alt.index()] += 1.0;
        }
        for (row, (flow, default)) in input.flow_ids.iter().zip(&input.defaults).enumerate() {
            for (alt, cell) in out.row_mut(row).iter_mut().enumerate() {
                if alt != default.index() {
                    *cell = self.base.get(flow.index(), alt)
                        - self.charge * (riders[alt] - riders[default.index()]);
                }
            }
        }
    }
}

/// Deterministic `n x 3` gain rows in `[-8, 10]`, default column 0.
pub(super) fn seeded_gains(n: usize, seed: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|f| {
            let g = |alt: usize| ((f * 7 + alt * 13 + seed * 5) % 19) as f64 - 8.0;
            vec![0.0, g(1), g(2)]
        })
        .collect()
}
