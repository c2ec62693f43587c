"""Paired base/change runs of the benchmark: did a change move an end-to-end metric?

Run from anywhere in a checkout as

    python tools/ab.py --base REV [--workload W ...]

The base side is the tree of REV, exported with ``git archive REV | tar -x``
into a temporary directory that is deleted at the end; the change side is the
working tree.  The command, the run length (run_seconds), the workloads and
the end-to-end metrics come from the working tree's BENCHMARK.json.  The
runs get this process's environment without PYTHONDONTWRITEBYTECODE, so the
benchmark's first, unsampled import writes each tree's bytecode caches.
Each workload runs 10 pairs.  Pair k runs ``COMMAND --workload W --seed k
--seconds run_seconds --trace 0`` once in each tree, one run at a time: base
first in odd pairs, change first in even ones.

For each workload and end-to-end metric it prints the base and change
medians and interquartile ranges (IQR), the pairs the change wins (ties
count for neither), and the median of the change/base ratios with an
order-statistic interval: the j-th smallest and j-th largest ratio, for the
largest j that covers the median ratio with at least 95 % probability (the
2nd and 9th of 10 pairs, 97.9 %).  The quartiles are perfbench/sweep.py's.
A gain is shown when the change wins at least nine tenths of the pairs and
its median is better than the base's by more than the base's IQR.  The table
comes first, then one JSON line with every run's values.  A run that exits
non-zero or reports a result that is not correct stops the tool with exit 1
and names its pair.  This is a report, not a gate: it sets no bound.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from sweep import summarise  # noqa: E402  (the benchmark's own quartiles)

PAIRS = 10
COVERAGE = 0.95   # least probability with which the ratio interval covers the median ratio


class Refused(Exception):
    """A run whose result cannot be compared."""


def export(repo: Path, rev: str, dest: Path) -> None:
    """Write the tree of rev, in the git repository at repo, into the directory dest."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev],
                             capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def run_once(command: list[str], tree: Path, env: dict[str, str], workload: str, seed: int,
             seconds: float) -> dict:
    """Run the benchmark once in tree; return its result, the JSON of its last line."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    if done.returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        stderr = done.stderr.strip().splitlines()
        raise Refused(f"exit {done.returncode}, last line {last!r}"
                      + (f", stderr ends {stderr[-1]!r}" if stderr else ""))
    return result


def interval_rank(n: int) -> tuple[int, float]:
    """The largest j for which the j-th smallest and j-th largest of n paired ratios cover
    their median with probability COVERAGE or more (1 when none does), and that probability."""
    def coverage(j: int) -> float:
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(j)) / 2 ** n

    j = 1
    while j + 1 <= n // 2 and coverage(j + 1) >= COVERAGE:
        j += 1
    return j, coverage(j)


def summarize(base: list[float], change: list[float], better: str) -> dict:
    """Compare one metric's paired values; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    n = len(base)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    ratios = sorted(c / b for b, c in zip(base, change))
    j, coverage = interval_rank(n)
    base_q, change_q = summarise(base), summarise(change)
    base_iqr = base_q["q3"] - base_q["q1"]
    return {
        "base_median": base_q["median"], "base_iqr": base_iqr,
        "change_median": change_q["median"], "change_iqr": change_q["q3"] - change_q["q1"],
        "wins": wins, "pairs": n,
        "ratio_median": statistics.median(ratios),
        "ratio_interval": [ratios[j - 1], ratios[-j]], "coverage": coverage,
        "gain": (10 * wins >= 9 * n
                 and sign * (base_q["median"] - change_q["median"]) > base_iqr),
        "base": base, "change": change,
    }


def measure(command: list[str], trees: dict[str, Path], env: dict[str, str], workload: str,
            seconds: float, metrics: list[str]) -> dict[str, dict[str, list[float]]]:
    """Run the pairs of one workload; return each metric's values, by side, in pair order."""
    values = {name: {"base": [], "change": []} for name in metrics}
    for k in range(1, PAIRS + 1):
        order = ("base", "change") if k % 2 else ("change", "base")
        for side in order:
            try:
                result = run_once(command, trees[side], env, workload, k, seconds)
            except Refused as exc:
                raise Refused(f"{workload} pair {k}: the {side} run: {exc}") from None
            for name in metrics:
                values[name][side].append(result["metrics"][name]["value"])
        print(f"{workload} pair {k}/{PAIRS} done ({order[0]} first)", file=sys.stderr, flush=True)
    return values


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="a workload to run (repeatable; default: all)")
    args = parser.parse_args(argv)

    command, seconds = spec["command"], spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONDONTWRITEBYTECODE"}
    base_tree = Path(tempfile.mkdtemp(prefix="fisherinfo-ab-"))
    try:
        try:
            export(ROOT, args.base, base_tree)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot export {args.base!r}: "
                  f"{(exc.stderr or b'').decode(errors='replace').strip()}", file=sys.stderr)
            return 2
        trees = {"base": base_tree, "change": ROOT}
        report = {}
        for workload in args.workload or workloads:
            values = measure(command, trees, env, workload, seconds, list(better))
            report[workload] = {name: summarize(v["base"], v["change"], better[name])
                                for name, v in values.items()}
    except Refused as exc:
        print(f"REFUSED: {exc}")
        return 1
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    coverage = interval_rank(PAIRS)[1]
    print(f"{PAIRS} pairs of {seconds:g} s, base {args.base} against the working "
          f"tree; ratio = change/base, interval covers its median with {coverage:.1%}")
    print(f"{'workload':<12} {'metric':<14} {'base median [IQR]':>22} "
          f"{'change median [IQR]':>22} {'wins':>6} {'ratio [interval]':>26}  gain")
    for workload, rows in report.items():
        for name, s in rows.items():
            base = f"{s['base_median']:.4g} [{s['base_iqr']:.3g}]"
            change = f"{s['change_median']:.4g} [{s['change_iqr']:.3g}]"
            wins = f"{s['wins']}/{s['pairs']}"
            lo, hi = s["ratio_interval"]
            ratio = f"{s['ratio_median']:.4f} [{lo:.4f}, {hi:.4f}]"
            print(f"{workload:<12} {name:<14} {base:>22} {change:>22} {wins:>6} {ratio:>26}  "
                  f"{'yes' if s['gain'] else 'no'}")
    print(json.dumps({"base": args.base, "pairs": PAIRS, "seconds": seconds,
                      "coverage": coverage, "workloads": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
