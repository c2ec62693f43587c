"""Run every workload over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py [--seeds 1-10] [--record perfbench/baseline.json]

Each seed, BENCHMARK.json workload and trace setting (0 for the end-to-end
metrics, 1 for the per-layer ones) is one `run.py` invocation with
BENCHMARK.json's run_seconds.  For every metric the sweep prints the median
over seeds, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, next to the metric's bound.  --record writes the
summaries, every run's result, each workload's state-count histogram and the
environment to a file.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    traces = (0, 1)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results: dict[str, dict] = {w: {f"trace{t}": [] for t in traces} for w in workloads}
    histograms: dict[str, dict] = {}
    env = None

    for seed in args.seeds:
        for workload in workloads:
            for trace in traces:
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                       "--trace", str(trace)]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                details = json.loads((BENCH / "out" / f"{workload}-trace{trace}.json")
                                     .read_text(encoding="utf-8"))
                env = details["env"]
                histograms.setdefault(workload, details["histogram"])
                results[workload][f"trace{trace}"].append({"seed": seed, **result})
                print(f"seed {seed} {workload} trace {trace}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"env: {json.dumps(env)}")
    summary: dict[str, dict] = {}
    for workload in workloads:
        print(f"\n{workload}: states per window {histograms[workload]}")
        for trace_key, runs in results[workload].items():
            names = runs[0]["metrics"].keys()
            table = {}
            for name in names:
                stats = summarise([r["metrics"][name]["value"] for r in runs])
                table[name] = {**stats, "unit": units[name]}
                bound = bounds.get(name)
                verdict = ""
                if bound is not None:
                    verdict = (f"  bound {bound}: "
                               + ("ok" if stats["spread"] < bound / 3 else
                                  "within" if stats["spread"] <= bound else "OVER"))
                print(f"  {name}: median {stats['median']:.6g} {units[name]}, "
                      f"q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                      f"spread {stats['spread']:.2%} over {len(runs)} seeds{verdict}")
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"  fail_ratio: {failed}/{attempted}")
            summary.setdefault(workload, {})[trace_key] = table

    if args.record:
        record = {"env": env, "run_seconds": spec["run_seconds"], "seeds": args.seeds,
                  "histograms": histograms, "summary": summary, "runs": results}
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
