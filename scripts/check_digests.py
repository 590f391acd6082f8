#!/usr/bin/env python3
"""Check the benchmark of record's result digests against their pins.

Runs the benchmark (``perfbench/``) once per workload pinned in
``scripts/result_digests.txt``, reads ``result_digest`` from the first
JSON line it prints, and compares it with the pin for the chosen seed.
Every run's output is echoed. Exit codes: 0 = every digest matches,
1 = a mismatch or a failed run, 2 = usage/IO error.

Usage:
    python3 scripts/check_digests.py [--seed 11|12] [--benchmark PATH]

``--benchmark`` runs a prebuilt benchmark binary instead of
``cargo run --manifest-path perfbench/Cargo.toml``. Each workload runs
for 2 s; the digest is the same on every pass, so run length does not
change it.
"""

import argparse
import json
import pathlib
import subprocess
import sys

PINS = pathlib.Path(__file__).with_name("result_digests.txt")
SEEDS = (11, 12)


def read_pins(path):
    """``{workload: {seed: digest}}`` from the pins file."""
    pins = {}
    for line in path.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 1 + len(SEEDS):
            raise ValueError(f"{path}: malformed line {line!r}")
        pins[fields[0]] = dict(zip(SEEDS, fields[1:]))
    return pins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, choices=SEEDS, default=SEEDS[0])
    parser.add_argument("--benchmark", help="prebuilt benchmark binary")
    args = parser.parse_args()
    try:
        pins = read_pins(PINS)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.benchmark:
        command = [args.benchmark]
    else:
        command = ["cargo", "run", "--release", "--offline", "--quiet",
                   "--manifest-path", "perfbench/Cargo.toml",
                   "--bin", "benchmark", "--"]
    failed = []
    for workload, digests in pins.items():
        run = subprocess.run(
            command + ["--workload", workload, "--seed", str(args.seed),
                       "--seconds", "2"],
            stdout=subprocess.PIPE, text=True)
        print(run.stdout, end="", flush=True)
        if run.returncode != 0:
            failed.append(f"{workload}: benchmark exited {run.returncode}")
            continue
        try:
            got = json.loads(run.stdout.splitlines()[0])["result_digest"]
        except (IndexError, ValueError, TypeError, KeyError):
            failed.append(f"{workload}: no result_digest in output")
            continue
        want = digests[args.seed]
        if got != want:
            failed.append(f"{workload}: result_digest {got}, pinned {want}")
    for failure in failed:
        print(f"::error::seed {args.seed} {failure} ({PINS.name})")
    if not failed:
        print(f"seed {args.seed}: {len(pins)} result digests match {PINS.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
