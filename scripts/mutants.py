#!/usr/bin/env python3
"""Run the hand-made mutants of scripts/mutants.txt and record what kills them.

Exports the tree (``git archive`` of the committed tree plus tracked
edits) into a scratch directory that keeps one cargo target directory,
so each mutant rebuilds incrementally. The unmutated baseline runs
first and must pass every check. Then each mutant is applied, built
(a mutant that does not compile is ``stillborn``), put through every
check and reverted:

  tests          cargo test --workspace --no-fail-fast (debug, so every
                 LP optimum is certified); failing tests are listed by name
  faults models fig7
                 experiments <target> --smoke (release), by exit code
  all churn      experiments all --smoke / churn --smoke --objective both,
                 stdout diffed against scripts/smoke_all.txt / smoke_churn.txt
  perfbench      cargo test --manifest-path perfbench/Cargo.toml
  digests:11 digests:12
                 scripts/check_digests.py at each seed

Each check runs in its own process group with a timeout of four times
its baseline duration (at least a minute); a check that times out is
killed with its whole group and counts as a ``timeout`` kill. The table goes to scripts/mutants_result.txt. Everything below
its ``NOTES`` line is kept across runs; a note line ``equivalent: ID
reason`` turns a survivor's verdict into ``equivalent``.

Usage:
    python3 scripts/mutants.py --check        # every line matches once; no build
    python3 scripts/mutants.py [--scratch DIR] # the whole table (about an hour)
    python3 scripts/mutants.py --only M07 M08  # rerun these mutants into the table
"""

import argparse
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = REPO / "scripts" / "mutants.txt"
RESULT = REPO / "scripts" / "mutants_result.txt"
NOTES = "# NOTES (kept by mutants.py)"
FORBIDDEN = ("perfbench/", "vendor/")

BUILD_TIMEOUT = 1800
FIRST_TIMEOUT = 1800
TIMEOUT_FACTOR = 4
MIN_TIMEOUT = 60


def parse_mutants(path=MUTANTS):
    """``{id: {"guarantee": str, "edits": [(file, original, replacement)]}}``."""
    mutants = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ValueError(f"{path.name}:{number}: want 5 tab-separated fields")
        ident, file, original, replacement, guarantee = fields
        mutant = mutants.setdefault(ident, {"guarantee": guarantee, "edits": []})
        mutant["edits"].append((file, original, replacement))
    return mutants


def test_module_start(lines):
    """Index of the first line of the file's ``#[cfg(test)] mod``, if any."""
    for i in range(len(lines) - 1):
        if lines[i].strip() == "#[cfg(test)]" and lines[i + 1].startswith("mod "):
            return i
    return len(lines)


def locate(root, edits):
    """``{file: [(line index, replacement line)]}``; raise on any bad edit."""
    plan = {}
    for file, original, replacement in edits:
        if file.startswith(FORBIDDEN) or "/tests/" in file or file.endswith("tests.rs"):
            raise ValueError(f"{file}: mutate product code only")
        lines = (root / file).read_text().splitlines(keepends=True)
        hits = [i for i, line in enumerate(lines) if line.strip() == original]
        if len(hits) != 1:
            raise ValueError(f"{file}: {original!r} matches {len(hits)} lines, want 1")
        if hits[0] >= test_module_start(lines):
            raise ValueError(f"{file}:{hits[0] + 1}: inside the test module")
        line = lines[hits[0]]
        indent = line[: len(line) - len(line.lstrip())]
        plan.setdefault(file, []).append((hits[0], indent + replacement + "\n"))
    return plan


def check_lines(mutants):
    errors = []
    for ident, mutant in mutants.items():
        try:
            locate(REPO, mutant["edits"])
        except (OSError, ValueError) as err:
            errors.append(f"{ident}: {err}")
    return errors


def export(scratch):
    """Sync the tree into ``scratch/tree``, rewriting only changed files."""
    stash = subprocess.run(["git", "stash", "create"], cwd=REPO, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    fresh = scratch / "export"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", stash or "HEAD"], cwd=REPO,
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(fresh)], input=archive, check=True)
    tree = scratch / "tree"
    tree.mkdir(exist_ok=True)
    wanted = set()
    for src in fresh.rglob("*"):
        if src.is_dir():
            continue
        rel = src.relative_to(fresh)
        wanted.add(rel)
        dst = tree / rel
        if not dst.exists() or dst.read_bytes() != src.read_bytes():
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dst)
    for dst in list(tree.rglob("*")):
        if dst.is_file() and dst.relative_to(tree) not in wanted:
            dst.unlink()
    shutil.rmtree(fresh)
    return tree


def run(cmd, cwd, env, timeout, merge_stderr=True):
    """Run in a new process group; ``(returncode or "timeout", output)``."""
    with tempfile.TemporaryFile() as out:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT if merge_stderr
                                else subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        out.seek(0)
        return code, out.read().decode(errors="replace")


BINARY = re.compile(r"Running (?:unittests )?\S+ \(.*/deps/([A-Za-z0-9_]+)-[0-9a-f]+\)")
DOCTESTS = re.compile(r"Doc-tests (\S+)")
FAILED = re.compile(r"^---- (.+?) stdout ----$")


def failing_tests(output):
    """``binary::test`` names of every failing test in cargo test output."""
    names, binary = [], "?"
    for line in output.splitlines():
        if m := BINARY.search(line) or DOCTESTS.search(line):
            binary = m.group(1)
        elif m := FAILED.match(line.strip()):
            names.append(f"{binary}::{m.group(1)}")
    return names


class Checks:
    """Builds the tree and runs every check on it."""

    def __init__(self, tree, target):
        self.tree = tree
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(target), CARGO_NET_OFFLINE="true")
        self.experiments = target / "release" / "experiments"
        self.benchmark = target / "release" / "benchmark"
        self.timeouts = {}

    def build(self):
        """``None`` when everything compiles, else the failing build's output."""
        perfbench = ["--manifest-path", "perfbench/Cargo.toml"]
        for cmd in (["cargo", "test", "-q", "--workspace", "--no-run"],
                    ["cargo", "build", "-q", "--release", "-p", "nexit-sim", "--bin", "experiments"],
                    ["cargo", "build", "-q", "--release", *perfbench, "--bin", "benchmark"],
                    ["cargo", "test", "-q", *perfbench, "--no-run"]):
            code, output = run(cmd, self.tree, self.env, BUILD_TIMEOUT)
            if code != 0:
                return f"{' '.join(cmd)}: {code}\n{output[-2000:]}"
        return None

    def commands(self):
        """``(check, command, pinned stdout file or None, lists test names)``."""
        experiments = str(self.experiments)
        yield "tests", ["cargo", "test", "--workspace", "--no-fail-fast", "--", "--quiet"], None, True
        for target in ("faults", "models", "fig7"):
            yield target, [experiments, target, "--smoke"], None, False
        yield "all", [experiments, "all", "--smoke"], "smoke_all.txt", False
        yield ("churn", [experiments, "churn", "--smoke", "--objective", "both"],
               "smoke_churn.txt", False)
        yield ("perfbench", ["cargo", "test", "--manifest-path", "perfbench/Cargo.toml",
                             "--", "--quiet"], None, True)
        for seed in ("11", "12"):
            yield (f"digests:{seed}", [sys.executable, "scripts/check_digests.py", "--seed", seed,
                                       "--benchmark", str(self.benchmark)], None, False)

    def run_all(self):
        """``{check: (verdict, [failing test names])}``; verdict ok|fail|timeout.

        The first call (the baseline) sets each check's timeout to
        ``TIMEOUT_FACTOR`` times its own duration, at least ``MIN_TIMEOUT``."""
        results = {}
        for name, cmd, pinned, lists_tests in self.commands():
            started = time.time()
            code, output = run(cmd, self.tree, self.env, self.timeouts.get(name, FIRST_TIMEOUT),
                               merge_stderr=pinned is None)
            self.timeouts.setdefault(name, max(MIN_TIMEOUT, TIMEOUT_FACTOR * (time.time() - started)))
            if pinned and code == 0 and output != (self.tree / "scripts" / pinned).read_text():
                code = 1
            verdict = "ok" if code == 0 else "timeout" if code == "timeout" else "fail"
            results[name] = (verdict, failing_tests(output) if lists_tests else [])
            if name == "tests":
                self.passed = sum(int(n) for n in
                                  re.findall(r"test result: \w+\. (\d+) passed", output))
        return results


def apply(tree, plan):
    """Write the mutant into ``tree``; return the originals to restore."""
    originals = {}
    for file, edits in plan.items():
        path = tree / file
        originals[path] = path.read_text()
        lines = originals[path].splitlines(keepends=True)
        for index, line in edits:
            lines[index] = line
        path.write_text("".join(lines))
    return originals


def verdict(results):
    if results is None:
        return "stillborn"
    verdicts = [v for v, _ in results.values()]
    return "killed" if "fail" in verdicts else "timeout" if "timeout" in verdicts else "survived"


def block(ident, mutant, results, equivalent):
    v = verdict(results)
    if v == "survived" and ident in equivalent:
        v = "equivalent"
    lines = [f"{ident} {v}: {mutant['guarantee']}"]
    for name, (check, tests) in (results or {}).items():
        if check != "ok":
            suffix = f" ({len(tests)}): " + ", ".join(sorted(tests)) if tests else ""
            lines.append(f"    {name} {check}{suffix}")
    return "\n".join(lines)


def read_result():
    """``(blocks by id, notes text)`` of the committed table."""
    if not RESULT.exists():
        return {}, NOTES + "\n"
    text = RESULT.read_text()
    table, _, notes = text.partition(NOTES)
    blocks = {}
    for chunk in re.split(r"\n(?=M\d+ )", table):
        if re.match(r"M\d+ ", chunk):
            blocks[chunk.split()[0]] = chunk.rstrip("\n")
    return blocks, NOTES + notes


def write_result(mutants, blocks, notes, baseline):
    kinds = [b.split()[1].rstrip(":") for b in blocks.values()]
    summary = ", ".join(f"{kinds.count(k)} {k}" for k in
                        ("killed", "timeout", "equivalent", "survived", "stillborn") if k in kinds)
    header = (f"# Kill table of scripts/mutants.txt, written by scripts/mutants.py.\n"
              f"# {len(blocks)} mutants: {summary}.\n# {baseline}\n"
              f"# Per mutant: verdict, guarantee, then each check that failed or\n"
              f"# timed out, with the failing test names (binary::test).\n\n")
    body = "\n".join(blocks[i] for i in mutants if i in blocks)
    RESULT.write_text(header + body + "\n\n" + notes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="validate mutants.txt only")
    parser.add_argument("--only", nargs="+", metavar="ID", help="rerun these mutants")
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "nexit-mutants"),
                        help="scratch directory (tree copy and cargo target)")
    args = parser.parse_args()
    try:
        mutants = parse_mutants()
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    errors = check_lines(mutants)
    for error in errors:
        print(f"::error::{MUTANTS.name}: {error}")
    if errors or args.check:
        if not errors:
            print(f"{len(mutants)} mutants, every line matches exactly once")
        return 1 if errors else 0
    unknown = set(args.only or ()) - set(mutants)
    if unknown:
        print(f"error: no mutant {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # A terminated run still kills its checks and reverts the tree.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    scratch = pathlib.Path(args.scratch).resolve()
    tree = export(scratch)
    checks = Checks(tree, scratch / "target")
    blocks, notes = read_result()
    equivalent = set(re.findall(r"^equivalent: (M\d+)", notes, re.M))

    started = time.time()
    failure = checks.build()
    results = None if failure else checks.run_all()
    if results is None or verdict(results) != "survived":
        print(failure or block("baseline", {"guarantee": "unmutated"}, results, set()))
        print("error: the unmutated baseline must pass every check", file=sys.stderr)
        return 1
    baseline = (f"Baseline: every check passes ({checks.passed} tests passed, "
                f"{time.time() - started:.0f} s with builds).")
    print(baseline, flush=True)

    for ident in args.only or mutants:
        started = time.time()
        originals = apply(tree, locate(tree, mutants[ident]["edits"]))
        try:
            results = None if checks.build() else checks.run_all()
        finally:
            for path, text in originals.items():
                path.write_text(text)
        blocks[ident] = block(ident, mutants[ident], results, equivalent)
        print(f"{blocks[ident]}\n    ({time.time() - started:.0f} s)", flush=True)
        write_result(mutants, blocks, notes, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
