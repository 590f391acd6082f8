#!/usr/bin/env python3
"""Bench-regression gate for the CI perf trajectory.

Compares a freshly generated bench report (the JSON array of
``{"name", "mean_ns", "iters"}`` rows that the vendored criterion
substitute writes via ``NEXIT_BENCH_JSON``) against the committed
baseline ``BENCH_engine.json`` and fails when any tracked row regresses
by more than a configurable threshold.

Because the committed baseline and the CI runner are different
machines, the comparison is **normalized** by default: every row's
current/baseline ratio is divided by the median ratio across all shared
rows, so a uniform machine-speed difference cancels out and only rows
that regressed *relative to the rest of the suite* trip the gate. Pass
``--absolute`` to compare raw ratios instead (same-machine trend
tracking). A uniform slowdown of the entire suite is invisible to the
normalized mode by construction — that is the price of
machine-portability, and the per-push artifacts still record absolute
numbers for offline inspection.

Exit codes: 0 = ok, 1 = regression (or baseline row missing from the
current report), 2 = usage/IO error.

Beyond per-row regressions, ``--require-ratio NUM:DEN:MIN`` (repeatable)
asserts structural speedups *within* the current report: the row named
``NUM`` must be at least ``MIN`` times the row named ``DEN`` — e.g.
``scenario_sweep/cold:scenario_sweep/warm:2.75`` enforces that the
warm-started rhs re-solves stay at least 2.75x as fast as cold ones.
Ratios are machine-independent (both rows come from the same run), so
they hold absolutely, not merely relative to the suite.

``--require-row NAME`` (repeatable) asserts that the current report
contains a row named ``NAME``. The per-row comparison already flags
rows that exist in the baseline but vanished from the current run;
``--require-row`` is stronger — it pins the contract in the CI
invocation itself, so a row silently dropped from *both* the bench
suite and the regenerated baseline (the failure mode that cost us the
``simplex/warm_rhs`` row) still fails the gate.

Usage:
    bench_gate.py --baseline BENCH_engine.json --current fresh.json \
                  [--threshold 25] [--absolute] \
                  [--require-ratio num:den:min ...] \
                  [--require-row name ...]
    bench_gate.py --self-test
"""

import argparse
import json
import os
import statistics
import sys


def load_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = {}
    for row in data:
        name, mean = row.get("name"), row.get("mean_ns")
        if not isinstance(name, str) or not isinstance(mean, (int, float)) or mean <= 0:
            raise ValueError(f"{path}: malformed row {row!r}")
        rows[name] = float(mean)
    if not rows:
        raise ValueError(f"{path}: empty report")
    return rows


def compare(baseline, current, threshold_pct, normalize):
    """Return (regressions, report_lines). A regression is
    (name, normalized_ratio); missing baseline rows are reported as
    regressions with ratio None."""
    shared = sorted(set(baseline) & set(current))
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))

    lines = []
    regressions = [(name, None) for name in missing]
    for name in missing:
        lines.append(f"MISSING  {name}: in baseline but not in current report")
    for name in new:
        lines.append(f"new      {name}: {current[name]:.0f} ns (no baseline yet)")

    if shared:
        ratios = {name: current[name] / baseline[name] for name in shared}
        scale = statistics.median(ratios.values()) if normalize else 1.0
        if normalize:
            lines.append(f"machine-speed normalization: median ratio {scale:.3f}")
        limit = 1.0 + threshold_pct / 100.0
        for name in shared:
            norm = ratios[name] / scale
            verdict = "ok"
            if norm > limit:
                verdict = "REGRESSED"
                regressions.append((name, norm))
            lines.append(
                f"{verdict:9}{name}: {baseline[name]:.0f} -> {current[name]:.0f} ns"
                f" ({'+' if norm >= 1 else ''}{100.0 * (norm - 1.0):.1f}% vs suite)"
            )
    return regressions, lines


def check_ratios(current, specs):
    """Return (failures, lines) for ``num:den:min`` ratio requirements
    evaluated against the current report (same machine, same run)."""
    failures = []
    lines = []
    for spec in specs:
        try:
            num, den, minimum = spec.rsplit(":", 2)
            minimum = float(minimum)
        except ValueError as exc:
            raise ValueError(f"bad --require-ratio {spec!r}: {exc}") from exc
        if num not in current or den not in current:
            missing = [r for r in (num, den) if r not in current]
            failures.append((spec, None))
            lines.append(f"RATIO    {spec}: missing row(s) {', '.join(missing)}")
            continue
        ratio = current[num] / current[den]
        ok = ratio >= minimum
        verdict = "ratio ok" if ok else "RATIO"
        lines.append(
            f"{verdict:9}{num} / {den} = {ratio:.2f}x (required >= {minimum:.2f}x)"
        )
        if not ok:
            failures.append((spec, ratio))
    return failures, lines


def check_required_rows(current, names):
    """Return (failures, lines): every name must be a row of the
    current report."""
    failures = []
    lines = []
    for name in names:
        if name in current:
            lines.append(f"row ok   {name}: {current[name]:.0f} ns")
        else:
            failures.append(name)
            lines.append(f"ROW      {name}: required row missing from current report")
    return failures, lines


def self_test():
    base = {"a": 100.0, "b": 200.0, "c": 1000.0}

    # Uniform 3x machine slowdown: normalized gate stays green.
    cur = {k: v * 3.0 for k, v in base.items()}
    regs, _ = compare(base, cur, 25.0, normalize=True)
    assert not regs, f"uniform slowdown tripped the gate: {regs}"

    # One row regresses 2x beyond the others: gate fires.
    cur = {"a": 100.0, "b": 200.0, "c": 2000.0}
    regs, _ = compare(base, cur, 25.0, normalize=True)
    assert [r[0] for r in regs] == ["c"], f"expected c to regress: {regs}"

    # Inside the threshold: green.
    cur = {"a": 110.0, "b": 200.0, "c": 1000.0}
    regs, _ = compare(base, cur, 25.0, normalize=True)
    assert not regs, f"noise tripped the gate: {regs}"

    # A deleted row is a failure (silent bench removal hides regressions).
    cur = {"a": 100.0, "b": 200.0}
    regs, _ = compare(base, cur, 25.0, normalize=True)
    assert [r[0] for r in regs] == ["c"], f"missing row not flagged: {regs}"

    # Absolute mode flags a uniform slowdown.
    cur = {k: v * 2.0 for k, v in base.items()}
    regs, _ = compare(base, cur, 25.0, normalize=False)
    assert len(regs) == 3, f"absolute mode missed the slowdown: {regs}"

    # Ratio requirements: cold/warm >= 2 holds, fires, and flags missing
    # rows.
    cur = {"grid/cold": 300.0, "grid/warm": 100.0}
    fails, _ = check_ratios(cur, ["grid/cold:grid/warm:2.0"])
    assert not fails, f"satisfied ratio tripped the gate: {fails}"
    cur = {"grid/cold": 150.0, "grid/warm": 100.0}
    fails, _ = check_ratios(cur, ["grid/cold:grid/warm:2.0"])
    assert len(fails) == 1, f"violated ratio not flagged: {fails}"
    fails, _ = check_ratios(cur, ["grid/cold:grid/missing:2.0"])
    assert len(fails) == 1, f"missing ratio row not flagged: {fails}"

    # Required rows: present rows pass, a row dropped from the bench
    # suite (and hence from a regenerated baseline) still fails.
    cur = {
        "simplex/cold": 20000.0,
        "simplex/warm_rhs": 4000.0,
        "simplex/pivot_row": 1400.0,
    }
    fails, _ = check_required_rows(
        cur, ["simplex/cold", "simplex/warm_rhs", "simplex/pivot_row"]
    )
    assert not fails, f"present required rows tripped the gate: {fails}"
    del cur["simplex/warm_rhs"]
    fails, _ = check_required_rows(
        cur, ["simplex/cold", "simplex/warm_rhs", "simplex/pivot_row"]
    )
    assert fails == ["simplex/warm_rhs"], f"dropped row not flagged: {fails}"

    # The churn wiring: bench-smoke pins both feed-replay rows with
    # --require-row AND gates the incremental replay >= 1.25x under the
    # per-event cold rebuild with --require-ratio; exercise the exact
    # row names and spec the job passes.
    cur = {"churn/replay": 3_700_000.0, "churn/cold_replay": 7_800_000.0}
    fails, _ = check_ratios(cur, ["churn/cold_replay:churn/replay:1.25"])
    assert not fails, f"healthy churn ratio tripped the gate: {fails}"
    fails, _ = check_required_rows(cur, ["churn/replay", "churn/cold_replay"])
    assert not fails, f"present churn rows tripped the gate: {fails}"
    # A live-driver regression dragging the incremental replay within
    # 1.25x of cold fires the ratio gate even with both rows present.
    cur = {"churn/replay": 7_000_000.0, "churn/cold_replay": 7_800_000.0}
    fails, _ = check_ratios(cur, ["churn/cold_replay:churn/replay:1.25"])
    assert len(fails) == 1, f"churn ratio regression not flagged: {fails}"
    # Dropping the incremental row (e.g. a bench refactor losing the
    # group) is caught by the row pin, not just the ratio's missing-row
    # path.
    fails, _ = check_required_rows(
        {"churn/cold_replay": 7_800_000.0}, ["churn/replay", "churn/cold_replay"]
    )
    assert fails == ["churn/replay"], f"dropped churn row not flagged: {fails}"

    # The bandwidth-objective churn rows ride the same wiring: both
    # pinned with --require-row, incremental >= 1.5x under cold via
    # --require-ratio; exercise the exact row names the job passes.
    cur = {"churn/bw_replay": 5_100_000.0, "churn/bw_cold_replay": 8_200_000.0}
    fails, _ = check_ratios(cur, ["churn/bw_cold_replay:churn/bw_replay:1.5"])
    assert not fails, f"healthy bw churn ratio tripped the gate: {fails}"
    fails, _ = check_required_rows(cur, ["churn/bw_replay", "churn/bw_cold_replay"])
    assert not fails, f"present bw churn rows tripped the gate: {fails}"
    cur = {"churn/bw_replay": 7_000_000.0, "churn/bw_cold_replay": 8_200_000.0}
    fails, _ = check_ratios(cur, ["churn/bw_cold_replay:churn/bw_replay:1.5"])
    assert len(fails) == 1, f"bw churn ratio regression not flagged: {fails}"
    fails, _ = check_required_rows(
        {"churn/bw_cold_replay": 8_200_000.0},
        ["churn/bw_replay", "churn/bw_cold_replay"],
    )
    assert fails == ["churn/bw_replay"], f"dropped bw churn row not flagged: {fails}"

    # The session-close row: pinned with --require-row and gated like
    # any other row. Its fixture is the only one that rolls moves back,
    # so a quadratic close shows as this row regressing several-fold
    # while the rest of negotiate/* holds still.
    base = {
        "negotiate/large/2000x8": 1_680_000.0,
        "negotiate/reassignment_5pct": 370_000.0,
        "negotiate/rollback_2000x4": 1_030_000.0,
    }
    cur = dict(base)
    fails, _ = check_required_rows(cur, ["negotiate/rollback_2000x4"])
    assert not fails, f"present rollback row tripped the gate: {fails}"
    cur["negotiate/rollback_2000x4"] = 5_450_000.0
    regs, _ = compare(base, cur, 25.0, normalize=True)
    assert [r[0] for r in regs] == ["negotiate/rollback_2000x4"], (
        f"quadratic close not flagged: {regs}"
    )
    del cur["negotiate/rollback_2000x4"]
    fails, _ = check_required_rows(cur, ["negotiate/rollback_2000x4"])
    assert fails == ["negotiate/rollback_2000x4"], (
        f"dropped rollback row not flagged: {fails}"
    )

    print("bench_gate self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--current", help="freshly generated JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("NEXIT_BENCH_GATE_PCT", "25")),
        help="allowed per-row regression in percent (default 25, "
        "or NEXIT_BENCH_GATE_PCT)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw ratios instead of normalizing by the median "
        "(use when baseline and current ran on the same machine)",
    )
    parser.add_argument(
        "--require-ratio",
        action="append",
        default=[],
        metavar="NUM:DEN:MIN",
        help="require current[NUM] / current[DEN] >= MIN (repeatable; "
        "evaluated within the current report, so machine-independent)",
    )
    parser.add_argument(
        "--require-row",
        action="append",
        default=[],
        metavar="NAME",
        help="require the current report to contain a row named NAME "
        "(repeatable; catches rows silently dropped from the bench suite)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required (or --self-test)")

    try:
        baseline = load_rows(args.baseline)
        current = load_rows(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"bench_gate: {exc}", file=sys.stderr)
        return 2

    regressions, lines = compare(baseline, current, args.threshold, not args.absolute)
    try:
        ratio_failures, ratio_lines = check_ratios(current, args.require_ratio)
    except ValueError as exc:
        print(f"bench_gate: {exc}", file=sys.stderr)
        return 2
    row_failures, row_lines = check_required_rows(current, args.require_row)
    for line in lines + ratio_lines + row_lines:
        print(line)
    if regressions or ratio_failures or row_failures:
        if regressions:
            print(
                f"bench_gate: {len(regressions)} row(s) regressed beyond "
                f"{args.threshold:.0f}% (or went missing)",
                file=sys.stderr,
            )
        if ratio_failures:
            print(
                f"bench_gate: {len(ratio_failures)} required speedup "
                "ratio(s) not met",
                file=sys.stderr,
            )
        if row_failures:
            print(
                f"bench_gate: {len(row_failures)} required row(s) missing "
                "from the current report",
                file=sys.stderr,
            )
        return 1
    verdict = f"bench_gate: all rows within {args.threshold:.0f}%"
    if args.require_ratio:
        verdict += f"; {len(args.require_ratio)} ratio requirement(s) ok"
    if args.require_row:
        verdict += f"; {len(args.require_row)} required row(s) present"
    print(verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
