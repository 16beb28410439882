#!/usr/bin/env python3
"""Validate `hswx campaign --telemetry` export artifacts.

Stdlib-only (CI runners have no extra packages). Checks the two formats
the sampler emits:

* CSV (`*.csv`): magic comment `# hswx-telemetry v1 bucket_ps=N`, a
  header row starting with `bucket_start_ps`, every data row with the
  same column count, non-negative integer cells, and bucket starts that
  advance by exactly `bucket_ps` from zero (the sampler's determinism
  contract — see DESIGN.md).
* OpenMetrics (`*.om`): magic comment, `# TYPE`/`# HELP` metadata before
  first use of each metric family, sample lines shaped like
  `name{channel="..."} value [timestamp]`, and the mandatory trailing
  `# EOF`.

Exits nonzero with a line-qualified message on the first violation.

Usage: validate_telemetry.py FILE.csv [FILE.om ...]
"""

import re
import sys

MAGIC = re.compile(r"^# hswx-telemetry v(\d+)(?: bucket_ps=(\d+))?$")
SAMPLE = re.compile(
    r'^hswx_telemetry(?:_bucket_ps|\{channel="[^"{}]+"\})? \d+(?:\.\d+)?(?: \d+(?:\.\d+)?)?$'
)


def fail(path, line_no, msg):
    sys.exit(f"{path}:{line_no}: {msg}")


def check_csv(path, lines):
    m = MAGIC.match(lines[0]) if lines else None
    if not m or not m.group(2):
        fail(path, 1, "missing `# hswx-telemetry vN bucket_ps=N` magic")
    bucket_ps = int(m.group(2))
    if bucket_ps == 0:
        fail(path, 1, "bucket_ps must be positive")
    if len(lines) < 2 or not lines[1].startswith("bucket_start_ps"):
        fail(path, 2, "header row must start with `bucket_start_ps`")
    columns = len(lines[1].split(","))
    for row, line in enumerate(lines[2:]):
        line_no = row + 3
        cells = line.split(",")
        if len(cells) != columns:
            fail(path, line_no, f"expected {columns} columns, got {len(cells)}")
        for cell in cells:
            if not cell.isdigit():
                fail(path, line_no, f"non-integer cell {cell!r}")
        if int(cells[0]) != row * bucket_ps:
            fail(
                path,
                line_no,
                f"bucket_start_ps {cells[0]} != row*bucket_ps {row * bucket_ps}",
            )
    channels = columns - 1
    buckets = len(lines) - 2
    print(f"{path}: ok ({channels} channels, {buckets} buckets, {bucket_ps} ps/bucket)")


def check_openmetrics(path, lines):
    if not lines or not MAGIC.match(lines[0]):
        fail(path, 1, "missing `# hswx-telemetry vN` magic")
    if lines[-1] != "# EOF":
        fail(path, len(lines), "OpenMetrics text must end with `# EOF`")
    declared = set()
    samples = 0
    for i, line in enumerate(lines[1:-1]):
        line_no = i + 2
        typed = re.match(r"^# (TYPE|HELP) (\S+) ", line)
        if typed:
            declared.add(typed.group(2))
            continue
        if line.startswith("#"):
            fail(path, line_no, f"unexpected comment {line!r}")
        if not SAMPLE.match(line):
            fail(path, line_no, f"malformed sample line {line!r}")
        family = line.split("{", 1)[0].split(" ", 1)[0]
        if family not in declared:
            fail(path, line_no, f"sample for {family} before its # TYPE/# HELP")
        samples += 1
    print(f"{path}: ok ({samples} samples, {len(declared)} metric families)")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip())
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        if path.endswith(".om"):
            check_openmetrics(path, lines)
        else:
            check_csv(path, lines)


if __name__ == "__main__":
    main()
