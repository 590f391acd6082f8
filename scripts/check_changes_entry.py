#!/usr/bin/env python3
"""Fail when the newest CHANGES.md entry is longer than `MAX_BYTES`.

An entry is a top-level bullet that starts with `- PR NN`, running to the
next such bullet or the end of the file; the newest is the one with the
highest PR number. Its UTF-8 size must not exceed `MAX_BYTES` (claim,
method and result, with campaign data kept elsewhere). Older entries are
not checked. Run from the repository root:

    python3 scripts/check_changes_entry.py
"""

import re
import sys

MAX_BYTES = 1536
ENTRY = re.compile(r"^- PR (\d+)\b", re.MULTILINE)


def newest_entry(text):
    """(PR number, entry text) of the highest-numbered entry, or None."""
    starts = list(ENTRY.finditer(text))
    if not starts:
        return None
    bounds = zip(starts, [m.start() for m in starts[1:]] + [len(text)])
    entries = [(int(m.group(1)), text[m.start():end].rstrip()) for m, end in bounds]
    return max(entries, key=lambda entry: entry[0])


def main():
    with open("CHANGES.md", encoding="utf-8") as f:
        entry = newest_entry(f.read())
    if entry is None:
        print("CHANGES.md: no `- PR NN` entry found")
        return 1
    number, body = entry
    size = len(body.encode("utf-8"))
    verdict = "within" if size <= MAX_BYTES else "exceeds"
    print(f"PR {number} entry: {size} bytes, {verdict} the {MAX_BYTES}-byte cap")
    return 0 if size <= MAX_BYTES else 1


if __name__ == "__main__":
    sys.exit(main())
