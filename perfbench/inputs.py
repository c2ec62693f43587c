"""Seeded inputs for the benchmark workloads.

Every workload is described by an `Inputs` record: the CLI arguments (minus
the three output options), the exact system points the program will see,
and the window scheme, so that the output check can recompute any window
independently.  Generated series are written as CSV with `repr(float)`
cells, so the program parses back exactly the floats held here.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("demo", "mixed_w8", "wide_w128")

# The paper's demonstration, run exactly as the README shows it.
DEMO_SOS = "985.82,10307105.62"
DEMO_SLOPE_RANGE = (1975.0, 2013.0)
DEMO_FIXTURES = ("USA_NY.GDP.PCAP.CD_1960-2013.csv", "USA_SP.POP.TOTL_1960-2013.csv")

# Series are sized so one CLI run takes about a second on a 2 vCPU Xeon: a
# measurement of run_seconds then holds a few dozen runs, and its median
# stays steady on a host whose speed swings over seconds.
MIXED_STEPS = 10_000
MIXED_SOS = (0.5, 0.5)
# Block lengths in steps; each length is used once by every regime in turn,
# so the three regimes hold equal shares of the series whatever the seed
# (about fifteen cycles of the three).
MIXED_BLOCK = (40, 400)
QUIET_SD = 0.1        # every point within 0.5 of the first: one state
TURBULENT_SD = 2.0    # points rarely share a state: mostly 8 states
WALK_STEP_SD = 0.4    # drifts out of a state every few steps

WIDE_STEPS = 25_000
WIDE_VARS = 8


@dataclass(frozen=True)
class Inputs:
    argv: tuple[str, ...]   # CLI arguments, output options excluded
    times: tuple[float, ...]
    points: np.ndarray      # (steps, variables), exactly as the program reads it
    window: int
    increment: int
    sos: tuple[float, ...] | None   # None: the program estimates k * sample SD
    k: float | None
    files: tuple[Path, ...]         # input files the program reads
    verdict: tuple[str, float, float] | None = None  # category over first..last label

    @property
    def window_count(self) -> int:
        return (len(self.times) - self.window) // self.increment + 1


def mixed_series(rng: np.random.Generator, steps: int = MIXED_STEPS) -> np.ndarray:
    """Two variables cycling through quiet noise, turbulent noise and a random walk."""
    blocks = []
    level = np.zeros(2)
    total = 0
    while total < steps:
        length = int(rng.integers(MIXED_BLOCK[0], MIXED_BLOCK[1] + 1))
        quiet = level + rng.normal(0.0, QUIET_SD, size=(length, 2))
        turbulent = level + rng.normal(0.0, TURBULENT_SD, size=(length, 2))
        walk = level + np.cumsum(rng.normal(0.0, WALK_STEP_SD, size=(length, 2)), axis=0)
        level = walk[-1]
        blocks += [quiet, turbulent, walk]
        total += 3 * length
    return np.concatenate(blocks)[:steps]


def wide_series(rng: np.random.Generator) -> np.ndarray:
    """Eight i.i.d. standard Gaussian variables."""
    return rng.normal(0.0, 1.0, size=(WIDE_STEPS, WIDE_VARS))


def write_csv(path: Path, values: np.ndarray) -> tuple[float, ...]:
    """Write `t,Y1,..` with integer time labels 1..T; returns the time labels."""
    header = ",".join(["t", *(f"Y{i + 1}" for i in range(values.shape[1]))])
    lines = [header]
    for t, row in enumerate(values.tolist(), start=1):
        lines.append(",".join([str(t), *map(repr, row)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tuple(float(t) for t in range(1, len(values) + 1))


def _read_fixture(path: Path) -> tuple[list[float], list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = sorted((int(r[0]), float(r[1])) for r in list(csv.reader(fh))[1:] if r)
    return [float(y) for y, _ in rows], [v for _, v in rows]


def make_inputs(name: str, seed: int, workdir: Path, root: Path) -> Inputs:
    """Build workload `name` for `seed`, writing any input CSV into workdir.

    root is the checkout holding `src/fisherinfo`; paths handed to the CLI
    are relative to it, because the CLI runs with root as its directory.
    """
    rng = np.random.default_rng(seed)
    if name == "demo":
        data = root / "src" / "fisherinfo" / "data"
        files = tuple(data / f for f in DEMO_FIXTURES)
        gdp_years, gdp = _read_fixture(files[0])
        pop_years, pop = _read_fixture(files[1])
        if gdp_years != pop_years:
            raise ValueError("demo fixtures cover different years")
        lo, hi = DEMO_SLOPE_RANGE
        return Inputs(
            argv=("demo", "--sos", DEMO_SOS, "--slope-range", f"{lo:g}:{hi:g}"),
            times=tuple(gdp_years),
            points=np.column_stack([gdp, pop]),
            window=8, increment=1,
            sos=tuple(float(d) for d in DEMO_SOS.split(",")), k=None,
            files=files, verdict=("stable", lo, hi),
        )
    if name == "mixed_w8":
        values = mixed_series(rng)
        path = workdir / "mixed_w8.csv"
        times = write_csv(path, values)
        return Inputs(
            argv=("compute", _rel(path, root), "--sos", ",".join(map(repr, MIXED_SOS)),
                  "--window-size", "8", "--increment", "1"),
            times=times, points=values, window=8, increment=1,
            sos=MIXED_SOS, k=None, files=(path,),
        )
    if name == "wide_w128":
        values = wide_series(rng)
        path = workdir / "wide_w128.csv"
        times = write_csv(path, values)
        return Inputs(
            argv=("compute", _rel(path, root), "--k", "2",
                  "--window-size", "128", "--increment", "64"),
            times=times, points=values, window=128, increment=64,
            sos=None, k=2.0, files=(path,),
        )
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def _rel(path: Path, root: Path) -> str:
    return str(path.resolve().relative_to(root.resolve()))
