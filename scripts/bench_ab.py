#!/usr/bin/env python3
"""A/B the benchmark of a base revision against this checkout on one host.

Stdlib-only. Exports BASE with `git archive` into a temporary directory
outside the checkout and builds the benchmark of each side there, into a
CARGO_TARGET_DIR of its own. For every workload of this checkout's
BENCHMARK.json it runs PAIRS pairs of runs of `run_seconds` each, pair i
with `--seed i`, alternating which side goes first. Every end-to-end
metric of every workload gets one row: both sides' medians, the paired
change/base ratios, the base runs' spread and a verdict (see `verdict`).

Exits 1 if a run exits nonzero or reports a wrong output, naming the
side, workload and seed, or if any row is `regressed`. It is a coarse
guard against regressions beyond the bounds; a claimed gain needs more
pairs than this.

Usage: bench_ab.py BASE
Tests: python3 -m doctest scripts/bench_ab.py
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 3
ROOT = Path(__file__).resolve().parent.parent


def spread(xs):
    """Interquartile range over median, as `statistics.quantiles` cuts it.

    >>> round(spread([8.0, 8.2, 8.1]), 4)
    0.0247
    """
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def verdict(better, bound, base, change):
    """Verdict on one metric from its paired runs `base[i]`, `change[i]`.

    `regressed` takes all three of: the median change/base ratio lies
    beyond `bound` in the metric's bad direction, every pair is worse,
    and the base runs' spread is within `bound`. A median beyond the
    bound without the other two is `unresolved`; anything else is `ok`.

    >>> verdict("lower", 0.25, [8.0, 8.2, 8.1], [10.4, 10.9, 10.6])
    'regressed'
    >>> verdict("lower", 0.25, [8.0, 8.2, 8.1], [8.5, 9.0, 8.3])
    'ok'
    >>> verdict("higher", 0.25, [2.0e6, 2.1e6, 2.05e6], [1.4e6, 1.5e6, 1.45e6])
    'regressed'
    >>> verdict("lower", 0.25, [8.0, 8.2, 8.1], [10.4, 7.9, 10.6])
    'unresolved'
    >>> verdict("lower", 0.25, [6.0, 8.2, 8.1], [10.4, 10.9, 10.6])
    'unresolved'
    """
    ratios = [c / b for b, c in zip(base, change)]
    if better == "lower":
        worse, beyond = all(r > 1 for r in ratios), statistics.median(ratios) > 1 + bound
    else:
        worse, beyond = all(r < 1 for r in ratios), statistics.median(ratios) < 1 - bound
    if not beyond:
        return "ok"
    return "regressed" if worse and spread(base) <= bound else "unresolved"


def run(side, root, env, argv, workload, seed):
    """The end-to-end metrics of one run of `side`; exits 1 if it failed."""
    out = subprocess.run(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        last = json.loads(out.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        last = {}
    if out.returncode or last.get("correct") is not True or last.get("failed", 1) > 0:
        sys.exit(f"error: {side} run of {workload} --seed {seed} failed (exit "
                 f"{out.returncode}, correct {last.get('correct')}, failed {last.get('failed')})")
    return {name: m["value"] for name, m in last["metrics"].items()}


def main(args):
    if len(args) != 1 or args[0].startswith("-"):
        sys.exit("usage: bench_ab.py BASE")
    base_rev = args[0]
    # Unwind on SIGTERM as on Ctrl-C: kill the running child, remove the directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    with tempfile.TemporaryDirectory(prefix="bench-ab-") as tmp:
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, stdout=subprocess.PIPE)
        roots = {"base": Path(tmp, "base"), "change": ROOT}
        roots["base"].mkdir()
        if archive.returncode or subprocess.run(
            ["tar", "-x", "-C", str(roots["base"])], input=archive.stdout
        ).returncode:
            sys.exit(f"error: cannot export {base_rev} with git archive")
        envs = {s: dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp, s + "-target"))) for s in roots}
        print(f"base {base_rev} vs change {ROOT}: {PAIRS} pairs of {seconds} s runs per workload")
        print(f"{'workload':<17}{'metric':<13}{'base':>10}{'change':>10}"
              f"  {'change/base by pair':<22}{'spread':>7}  verdict", flush=True)
        regressed = False
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for seed in range(PAIRS):
                for side in ("base", "change") if seed % 2 == 0 else ("change", "base"):
                    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                              "--seconds", seconds]
                    runs[side].append(run(side, roots[side], envs[side], argv, workload, seed))
            for metric in spec["end_to_end"]:
                name = metric["name"]
                base = [r[name] for r in runs["base"]]
                change = [r[name] for r in runs["change"]]
                v = verdict(metric["better"], metric["bound"], base, change)
                regressed |= v == "regressed"
                ratios = " ".join(f"{c / b:.3f}" for b, c in zip(base, change))
                print(f"{workload:<17}{name:<13}{statistics.median(base):>10.4g}"
                      f"{statistics.median(change):>10.4g}  {ratios:<22}"
                      f"{spread(base):>7.3f}  {v}", flush=True)
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
