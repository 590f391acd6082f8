#!/usr/bin/env python3
"""Write and check the no-regression records under ``bench_runs/``.

A record holds one or more campaigns of alternating parent/change runs of
the benchmark of record (``perfbench/``). Each campaign lists, per
workload, the runs as ``pairs`` (``[parent, change]`` whichever ran
first, each side the campaign's ``columns`` in order) and a ``median``
block derived from them: for every end-to-end metric the parent's and the
change's median,
``delta_pct`` = (change - parent) / parent of the medians, and
``parent_iqr_pct`` = the parent runs' interquartile range over their
median. Medians come from ``statistics.median``, quartiles from
``statistics.quantiles(n=4)`` (its default, exclusive method); both
percentages are rounded to one decimal and the medians to the five
significant digits the runs are recorded at.

Write mode adds (or replaces) one campaign. Each ``WORKLOAD=PARENT,CHANGE``
names two files of the benchmark's result lines (the JSON object it prints
last), the parent's runs and the change's, each in run order; the k-th
lines of the two form the k-th pair. Which side of a pair ran first is the
campaign's business (alternate it) and not recorded here:

    python3 scripts/bench_record.py --out bench_runs/pr-NN.json \\
        --about "parent abc1234 vs this change, ..." \\
        --campaign "seed 11, 5 s runs, 10 pairs" --seed 11 --seconds 5 \\
        pair_pipeline=runs/pp.parent.jsonl,runs/pp.change.jsonl

Check mode re-derives every median, ``delta_pct`` and ``parent_iqr_pct``
from the pairs and exits 1 on any mismatch (2 on unreadable input):

    python3 scripts/bench_record.py --check bench_runs/*.json
"""

import argparse
import json
import math
import pathlib
import re
import statistics
import sys

METRICS = ["ops_per_s", "latency_ms_p50", "latency_ms_tail", "setup_s", "peak_rss_mb"]
COLUMNS = METRICS + ["failed"]


def significant(x, digits=5):
    """``x`` rounded to ``digits`` significant digits."""
    return float(f"{x:.{digits}g}")


def derive(parent, change):
    """The median block of one metric from its parent and change runs,
    medians unrounded."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    return {
        "parent": mp,
        "change": mc,
        "delta_pct": round((mc - mp) / mp * 100, 1),
        "parent_iqr_pct": round((q3 - q1) / mp * 100, 1),
    }


def same_median(recorded, derived):
    """Whether a recorded median is the derived one at the recorded
    precision: within half a unit of its fifth significant digit, either
    way at a tie (runs are themselves recorded at five digits, so a
    median of two can fall exactly between two five-digit values)."""
    if derived == 0:
        return recorded == 0
    unit = 10 ** (math.floor(math.log10(abs(derived))) - 4)
    return abs(recorded - derived) <= unit / 2 * (1 + 1e-9)


def check_record(path):
    """Mismatch messages for one record file."""
    errors = []
    for campaign in json.loads(path.read_text())["campaigns"]:
        columns = campaign["columns"]
        for workload, data in campaign["workloads"].items():
            where = f"{path}: {campaign['campaign']}: {workload}"
            pairs = data["pairs"]
            if any(len(side) != len(columns) for pair in pairs for side in pair):
                errors.append(f"{where}: a run does not have {len(columns)} columns")
                continue
            for metric, recorded in data["median"].items():
                k = columns.index(metric)
                want = derive([p[0][k] for p in pairs], [p[1][k] for p in pairs])
                for key in ("parent", "change"):
                    if not same_median(recorded[key], want[key]):
                        errors.append(f"{where}: {metric} {key} {recorded[key]} != {want[key]}")
                for key in ("delta_pct", "parent_iqr_pct"):
                    if recorded[key] != want[key]:
                        errors.append(f"{where}: {metric} {key} {recorded[key]} != {want[key]}")
    return errors


def run_row(line):
    """One run's columns from a benchmark result line."""
    result = json.loads(line)
    return [significant(result["metrics"][m]["value"]) for m in METRICS] + [result["failed"]]


def campaign(name, seed, seconds, runs):
    """A campaign from ``{workload: (parent result lines, change result
    lines)}``."""
    workloads = {}
    for workload, (parent, change) in runs.items():
        if len(parent) != len(change) or len(parent) < 2:
            raise ValueError(f"{workload}: {len(parent)} parent and {len(change)} change "
                             "runs are not two or more pairs")
        pairs = [[run_row(p), run_row(c)] for p, c in zip(parent, change)]
        median = {}
        for k, m in enumerate(METRICS):
            block = derive([p[0][k] for p in pairs], [p[1][k] for p in pairs])
            median[m] = {key: significant(v) if key in ("parent", "change") else v
                         for key, v in block.items()}
        workloads[workload] = {"median": median, "pairs": pairs}
    return {"campaign": name, "seed": seed, "seconds": seconds, "columns": COLUMNS,
            "workloads": workloads}


def dumps(record):
    """``json.dumps`` with one-space indents and every list of scalars on
    one line, the layout of the committed records."""
    text = json.dumps(record, indent=1, ensure_ascii=False)
    flat = re.compile(r"\[\s*([^\[\]{}]*?)\s*\]", re.S)
    return flat.sub(lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]", text) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", nargs="+", metavar="RECORD", type=pathlib.Path)
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--about")
    parser.add_argument("--campaign")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("runs", nargs="*", metavar="WORKLOAD=PARENT,CHANGE")
    args = parser.parse_args()

    if args.check:
        try:
            errors = [e for path in args.check for e in check_record(path)]
        except (OSError, ValueError, KeyError) as e:
            print(f"bench_record: {e}", file=sys.stderr)
            return 2
        for e in errors:
            print(e)
        print(f"{len(args.check)} record(s), {len(errors)} mismatch(es)")
        return 1 if errors else 0

    if not (args.out and args.campaign and args.seed is not None and args.seconds and args.runs):
        parser.error("write mode needs --out, --campaign, --seed, --seconds and "
                     "WORKLOAD=PARENT,CHANGE")
    runs = {}
    for spec in args.runs:
        workload, _, files = spec.partition("=")
        sides = files.split(",")
        if len(sides) != 2:
            parser.error(f"{spec}: expected WORKLOAD=PARENT,CHANGE")
        runs[workload] = tuple(
            [line for line in pathlib.Path(f).read_text().splitlines() if line.strip()]
            for f in sides)
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    new = campaign(args.campaign, args.seed, seconds, runs)
    record = json.loads(args.out.read_text()) if args.out.exists() else {"campaigns": []}
    if args.about:
        record = {"about": args.about, **{k: v for k, v in record.items() if k != "about"}}
    record["campaigns"] = [c for c in record["campaigns"] if c["campaign"] != new["campaign"]]
    record["campaigns"].append(new)
    args.out.write_text(dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
