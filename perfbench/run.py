"""Benchmark of the fisherinfo CLI on seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is recorded in BENCHMARK.json):
  demo       the paper's offline USA GDP + population run, 54 x 2
  mixed_w8   10 000 x 2 piecewise quiet / turbulent / random-walk series, w=8
  wide_w128  25 000 x 8 i.i.d. Gaussian, estimated state sizes, w=128, step 64

The benchmark is a closed loop with one client: it runs the real CLI,
`python -m fisherinfo.cli ...` with PYTHONPATH=src, as one child process at a
time, for as many runs as fit in S seconds (at least MIN_RUNS).  Inputs are
generated from the seed and written to CSV before any timing starts.  Set-up
time is sampled in fresh interpreters spread over the same interval.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
alternates untraced runs with runs of tracer.py, which calls
fisherinfo.cli.main with the same arguments and records a span around each
layer, and reports the per-layer metrics (medians over at least MIN_RUNS
traced runs); trace.overhead_s is the median, over those pairs, of a traced
run's wall time minus that of the untraced run just before it.

Every run's outputs are checked (outcheck.py): exit code, window count,
CSV/JSON agreement, sampled windows against the brute-force oracle, the demo
verdict, and byte-identical outputs across runs of one seed.  Lines before
the last name every metric with its unit, the environment and the inputs'
state-count histogram; the last line is the JSON result.  Run details, and
the spans of a traced run, are written to perfbench/out/ at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import outcheck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORK_DIR = BENCH / ".work"

MIN_RUNS = 3          # untraced runs, or traced pairs, whatever --seconds says
SETUP_SAMPLES = 11    # fresh-interpreter imports timed per measurement
CHILD_TIMEOUT_S = 120.0
SETUP_CODE = (
    "import time; t = time.perf_counter(); import fisherinfo.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FISHERINFO_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, int, object]:
    """Run cmd in ROOT; return wall time from spawn to exit, exit code and the child's rusage."""
    with open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


class Measurement:
    """One workload's runs: spawns the CLI, checks each run, keeps the records."""

    def __init__(self, inp: inputs.Inputs, workdir: Path, seed: int):
        self.inp = inp
        self.workdir = workdir
        self.env = child_env()
        self.outputs = {fmt: workdir / f"fi.{fmt}" for fmt in ("csv", "json", "svg")}
        self.cli_args = [*inp.argv,
                         "--out-csv", _rel(self.outputs["csv"]),
                         "--out-json", _rel(self.outputs["json"]),
                         "--plot", _rel(self.outputs["svg"])]
        self.oracle = outcheck.load_oracle(ROOT)
        self.rng = np.random.default_rng([seed, 1])
        self.reference: dict[str, str] | None = None   # digests of the first correct run
        self.histogram: dict[int, int] = {}             # state counts of that run
        self.runs: list[dict] = []
        self.spans: list[dict] = []
        self.import_problems: list[str] = []

    def time_import(self) -> float | None:
        """Seconds a fresh interpreter spends on `import fisherinfo.cli`; None if it fails."""
        try:
            done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if done.returncode == 0:
                return float(done.stdout)
            problem = f"import fisherinfo.cli exit code {done.returncode}: {done.stderr[-300:]}"
        except (subprocess.TimeoutExpired, ValueError) as exc:
            problem = f"import fisherinfo.cli: {exc!r}"
        self.import_problems.append(problem)
        return None

    def run(self, traced: bool) -> dict:
        spans_path = self.workdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *self.cli_args]
        else:
            cmd = [sys.executable, "-m", "fisherinfo.cli", *self.cli_args]
        for path in (*self.outputs.values(), spans_path):
            path.unlink(missing_ok=True)
        stderr_path = self.workdir / "stderr.txt"
        wall, code, usage = spawn(cmd, self.env, stderr_path)
        record = {"traced": traced, "wall_s": wall, "exit_code": code,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB
                  "problems": self._check(code, stderr_path),
                  "out_bytes": {fmt: path.stat().st_size if path.exists() else 0
                                for fmt, path in self.outputs.items()}}
        if traced and spans_path.exists():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            self.spans.append({"run": len(self.runs), "spans": spans})
            record["layers"] = layer_totals(spans)
        self.runs.append(record)
        return record

    def _check(self, code: int, stderr_path: Path) -> list[str]:
        if code != 0:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
            return [f"exit code {code}: {tail[-300:]}"]
        digests = {fmt: _sha256(path) for fmt, path in self.outputs.items()
                   if path.exists()}
        if self.reference is not None:
            if digests == self.reference:
                return []
            return ["outputs differ from an earlier run with the same inputs"]
        problems = outcheck.check_outputs(self.inp, self.outputs["csv"], self.outputs["json"],
                                          self.outputs["svg"], self.oracle, self.rng)
        if not problems:
            self.reference = digests
            self.histogram = outcheck.state_histogram(self.outputs["csv"])
        return problems


def layer_totals(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [total seconds, self seconds, calls].

    Self time is a span's duration minus the part of it that its child spans
    cover.
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, list[float]] = {}
    for span_id, name, start, end, _ in spans:
        covered = _covered(sorted(children.get(span_id, ())), start, end)
        entry = totals.setdefault(name, [0.0, 0.0, 0])
        entry[0] += end - start
        entry[1] += end - start - covered
        entry[2] += 1
    return totals


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    length, reach = 0.0, lo
    for start, end in intervals:
        start, end = max(start, reach), min(end, hi)
        if end > start:
            length += end - start
            reach = end
    return length


def end_to_end_metrics(bench: Measurement, setup: list[float], windows: int) -> dict[str, float]:
    plain = [r for r in bench.runs if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in plain)
    if not setup:
        raise RuntimeError("no import of fisherinfo.cli succeeded")
    return {
        "wall_s": wall,
        "windows_per_s": windows / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer_metrics(bench: Measurement, windows: int, states: int) -> dict[str, float]:
    # runs alternate untraced, traced: pair each traced run with the one before it
    pairs = [(plain, traced) for plain, traced in zip(bench.runs[::2], bench.runs[1::2])
             if "layers" in traced]
    if not pairs:
        raise RuntimeError("no traced run recorded spans")
    in_bytes = sum(path.stat().st_size for path in bench.inp.files)

    def one_run(plain: dict, record: dict) -> dict[str, float]:
        layers = defaultdict(lambda: [0.0, 0.0, 0], record["layers"])
        sliding = layers["engine.sliding_fi"][0]
        return {
            "cli.main.s": layers["cli.main"][0],
            "cli.main.self_s": layers["cli.main"][1],
            "worldbank.demo_matrix.s": layers["worldbank.demo_matrix"][0],
            "io.read_csv.s": layers["io.read_csv"][0],
            "io.read_csv.self_s": layers["io.read_csv"][1],
            "core.validate_matrix.s": layers["core.validate_matrix"][0],
            "io.in_bytes": in_bytes,
            "engine.estimate_state_size.s": layers["engine.estimate_state_size"][0],
            "engine.sliding_fi.s": sliding,
            "engine.sliding_fi.self_s": layers["engine.sliding_fi"][1],
            "engine.sliding_fi.us_per_window": sliding / windows * 1e6,
            "binning.bin_window.s": layers["binning.bin_window"][0],
            "binning.bin_window.calls": layers["binning.bin_window"][2],
            "binning.states": states,
            "binning.states_per_window": states / windows,
            "engine.score.s": (layers["engine.state_probabilities"][0]
                               + layers["engine.fisher_index"][0]),
            "engine.score.calls": layers["engine.fisher_index"][2],
            "regimes.classify_regime.s": layers["regimes.classify_regime"][0],
            "regimes.local_maxima.s": layers["regimes.local_maxima"][0],
            "io.write_results.csv.s": layers["io.write_results.csv"][0],
            "io.write_results.json.s": layers["io.write_results.json"][0],
            "io.emit_plot.s": layers["io.emit_plot"][0],
            "io.out_bytes.csv": record["out_bytes"]["csv"],
            "io.out_bytes.json": record["out_bytes"]["json"],
            "io.out_bytes.svg": record["out_bytes"]["svg"],
            "trace.overhead_s": record["wall_s"] - plain["wall_s"],
        }

    per_run = [one_run(plain, traced) for plain, traced in pairs]
    return {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": np.__version__,
           "cpu_model": "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache_dir.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _describe(name: str, unit: str, value: float, samples: list[float] | None) -> str:
    line = f"{name}: {value!r} {unit}"
    if samples:
        ordered = sorted(samples)
        line += f" (median of {len(ordered)}, min {ordered[0]:.6g}, max {ordered[-1]:.6g}"
        if len(ordered) > 10:   # highest percentile with ten samples beyond it
            pct = 100.0 * (len(ordered) - 10) / len(ordered)
            line += f", p{pct:.0f} {ordered[-11]:.6g}"
        line += ")"
    return line


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workdir = WORK_DIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inp = inputs.make_inputs(workload, seed, workdir, ROOT)
        bench = Measurement(inp, workdir, seed)
        bench.time_import()   # writes the bytecode caches; not a sample
        setup: list[float] = []
        imports = 0

        def sample_setup(share: float) -> None:
            nonlocal imports
            while not trace and imports < share * SETUP_SAMPLES:
                imports += 1
                took = bench.time_import()
                if took is not None:
                    setup.append(took)

        started = time.perf_counter()
        rounds = 0
        while True:
            round_started = time.perf_counter()
            # untraced runs only; with tracing, each round pairs one of each
            for traced in ((False, True) if trace else (False,)):
                # spread the import samples over the measured interval
                sample_setup(min(1.0, (time.perf_counter() - started) / seconds))
                bench.run(traced)
            rounds += 1
            now = time.perf_counter()
            if rounds >= MIN_RUNS and now - started + (now - round_started) > seconds:
                break   # the next round would not fit in the measured interval
        sample_setup(1.0)

        histogram = bench.histogram
        windows = sum(histogram.values()) or inp.window_count
        states = sum(m * c for m, c in histogram.items())
        try:
            if trace:
                values = per_layer_metrics(bench, windows, states)
            else:
                values = end_to_end_metrics(bench, setup, windows)
        except RuntimeError:
            if not (bench.import_problems or any(r["problems"] for r in bench.runs)):
                raise
            values = dict.fromkeys(declared)   # nothing to measure: every run failed
        missing = set(declared) - set(values)
        if missing:
            raise RuntimeError(f"BENCHMARK.json declares metrics not measured: {sorted(missing)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass   # another measurement is using it

    # a failed import sample counts as one more failed, attempted operation
    failed = sum(1 for r in bench.runs if r["problems"]) + len(bench.import_problems)
    attempted = len(bench.runs) + len(bench.import_problems)
    env = environment()
    print(f"env: {json.dumps(env)}")
    print(f"workload {workload} seed {seed}: {len(inp.times)} steps x {inp.points.shape[1]} "
          f"variables, window {inp.window}, increment {inp.increment}, {windows} windows")
    print("states per window (count: windows): "
          + ", ".join(f"{m}: {c}" for m, c in histogram.items()))
    samples = {"wall_s": [r["wall_s"] for r in bench.runs if not r["traced"]],
               "setup_s": setup,
               "peak_rss_mb": [r["peak_rss_mb"] for r in bench.runs if not r["traced"]]}
    for name, unit in declared.items():
        print(_describe(name, unit, values[name], None if trace else samples.get(name)))
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted!r}")
    for problem in bench.import_problems[:5]:
        print(f"set-up: {problem}")
    for i, r in enumerate(bench.runs):
        for problem in r["problems"][:5]:
            print(f"run {i}: {problem}")
        if len(r["problems"]) > 5:
            print(f"run {i}: ... and {len(r['problems']) - 5} more problem(s)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "env": env, "histogram": histogram, "setup_samples": setup,
               "runs": [{k: v for k, v in r.items() if k != "layers"} for r in bench.runs],
               "result": result}
    (OUT_DIR / f"{workload}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(OUT_DIR / f"{workload}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(bench.spans, fh)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "fisherinfo" / "cli.py", ROOT / "tests" / "oracle.py",
              ROOT / "BENCHMARK.json"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"error: not a fisherinfo checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
