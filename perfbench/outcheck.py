"""Check one CLI run's outputs against the inputs and the brute-force oracle.

The oracle is `tests/oracle.py`, loaded read-only from the checkout: a plain
Python greedy sweep and the literal index formula, independent of the
package under test.
"""
from __future__ import annotations

import csv
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

from inputs import Inputs

FI_ATOL = 1e-12
SD_RTOL = 1e-9     # estimated state size against k * brute sample SD
RANDOM_SAMPLE = 20
SPECIAL_SAMPLE = 5  # single-state and all-distinct windows each


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_csv_rows(path: Path) -> list[tuple[str, str, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["time", "fi", "m_states"]:
            raise ValueError(f"{path.name}: header is not time,fi,m_states")
        return [(t, fi, int(m)) for t, fi, m in reader]


def state_histogram(csv_path: Path) -> dict[int, int]:
    """Number of windows per state count, from an output CSV."""
    return dict(sorted(Counter(m for _, _, m in read_csv_rows(csv_path)).items()))


def sample_windows(m_states: list[int], window: int, rng: np.random.Generator) -> list[int]:
    """First and last window, some single-state and all-distinct ones, some at random."""
    n = len(m_states)
    picked = {0, n - 1}
    for wanted in (1, window):
        matching = [i for i, m in enumerate(m_states) if m == wanted]
        if matching:
            take = min(SPECIAL_SAMPLE, len(matching))
            picked.update(int(i) for i in rng.choice(matching, size=take, replace=False))
    picked.update(int(i) for i in rng.integers(0, n, size=min(RANDOM_SAMPLE, n)))
    return sorted(picked)


def check_outputs(inp: Inputs, csv_path: Path, json_path: Path, svg_path: Path,
                  oracle, rng: np.random.Generator) -> list[str]:
    """Return the problems found in one run's outputs; empty means correct."""
    try:
        return _problems(inp, csv_path, json_path, svg_path, oracle, rng)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable or malformed output: {exc!r}"]


def _problems(inp: Inputs, csv_path: Path, json_path: Path, svg_path: Path,
              oracle, rng: np.random.Generator) -> list[str]:
    rows = read_csv_rows(csv_path)
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    svg = svg_path.read_text(encoding="utf-8")

    problems = []
    if len(rows) != inp.window_count:
        problems.append(f"CSV has {len(rows)} rows, expected {inp.window_count} windows")
    if not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>"):
        problems.append("SVG is not a complete <svg> document")

    points = doc.get("fi_points", [])
    if len(points) != len(rows):
        problems.append(f"JSON has {len(points)} fi_points, CSV has {len(rows)} rows")
    for i, ((t, fi, m), p) in enumerate(zip(rows, points)):
        start = i * inp.increment
        end = start + inp.window - 1
        if (float(t) != inp.times[end] or p["time"] != float(t) or p["fi"] != float(fi)
                or p["m_states"] != m or p["window_start_index"] != start
                or p["window_end_index"] != end):
            problems.append(f"window {i}: CSV row {(t, fi, m)} and JSON point {p} "
                            f"disagree or are misplaced")
            break
    if problems:
        return problems

    delta = _state_size(inp, doc, oracle, problems)
    m_states = [m for _, _, m in rows]
    for i in sample_windows(m_states, inp.window, rng):
        start = i * inp.increment
        window = inp.points[start:start + inp.window].tolist()
        states = oracle.brute_bin(window, delta)
        expected = oracle.brute_fi_from_counts([len(s) for s in states], inp.window)
        fi = float(rows[i][1])
        if m_states[i] != len(states):
            problems.append(f"window {i}: m_states {m_states[i]}, oracle {len(states)}")
        if abs(fi - expected) > FI_ATOL:
            problems.append(f"window {i}: fi {fi!r}, oracle {expected!r}")

    if inp.verdict is not None:
        category, lo, hi = inp.verdict
        verdict = doc.get("verdict") or {}
        a, b = verdict.get("slope_window", (0, 0))
        labels = (float(rows[a][0]), float(rows[b][0]))
        if verdict.get("category") != category or labels != (lo, hi):
            problems.append(f"verdict {verdict}, expected {category} over {lo:g}..{hi:g}")
    return problems


def _state_size(inp: Inputs, doc: dict, oracle, problems: list[str]) -> list[float]:
    used = [float(d) for d in doc["metadata"]["state_size"]]
    if inp.sos is not None:
        if used != list(inp.sos):
            problems.append(f"state sizes {used}, given {list(inp.sos)}")
        return list(inp.sos)
    for i, d in enumerate(used):
        expected = inp.k * oracle.brute_sample_sd(inp.points[:, i].tolist())
        if abs(d - expected) > SD_RTOL * expected:
            problems.append(f"variable {i}: state size {d!r}, oracle {expected!r}")
    return used
