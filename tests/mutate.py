"""Mutation check of the test suite: every planted one-line fault must fail tier-1.

Run from anywhere as ``python tests/mutate.py``.  It copies src/, tests/,
perfbench/ (tier-1 reads its input generators), tools/ (tier-1 tests them)
and pyproject.toml into a temporary directory outside the checkout and runs tier-1 there once
unchanged (which must pass).  Then, for each mutant, with that one line
replaced, it runs the test file the mutant names, and all of tier-1 only
when that file passes, each stopping at the first failure (-x).  Each
mutant's old text must occur exactly once in its file, so a mutant that no
longer matches the code fails loudly before anything runs.

Exits 0 only when the unchanged copy passes and every mutant fails a test.
pytest does not collect this file: its name does not start with test_.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/fisherinfo, old text, new text, test file under tests/ that catches it):
# each one fault the tests must catch
MUTANTS = [
    # the inclusive box made strict
    ("binning.py", "members &= np.abs(x, out=x) <= d_i", "members &= np.abs(x, out=x) < d_i",
     "test_binning.py"),
    # a nan seed no longer forced into its own state
    ("binning.py", "members[:, 0] = True", "members[:, 0] = members[:, 0]", "test_binning.py"),
    # ragged points left to numpy's bare ValueError
    ("binning.py", "if not _uneven(points):", "if True:", "test_binning.py"),
    # one number taken for a window of points
    ("binning.py", "pts.ndim not in (1, 2)", "pts.ndim > 2", "test_binning.py"),
    # a None coordinate binned as a nan
    ("binning.py", "if np.isnan(pts).any() and", "if False and", "test_binning.py"),
    # a state assignment holding one index twice accepted as a partition
    ("binning.py", "seen = sorted(i for state in self.states for i in state)",
     "seen = sorted({i for state in self.states for i in state})", "test_binning.py"),
    # a point left unbinned after it joins a state, so it joins later states too
    ("binning.py", "unbinned[seeding, s:] &= ~members", "pass", "test_engine.py"),
    # the right zero pad dropped
    ("engine.py", "for c in counts), 0.0)", "for c in counts))", "test_engine.py"),
    # the stamp moved to the window's first row
    ("engine.py", "time=matrix.times[start + (w - 1)]", "time=matrix.times[start]",
     "test_engine.py"),
    # a difference squared by libm pow instead of the IEEE product
    ("engine.py", "math.fsum((a - b) * (a - b) for", "math.fsum((a - b) ** 2 for",
     "test_engine.py"),
    # a finite value with an infinite square no longer an OverflowError
    ("engine.py", "if not math.isfinite(total) and", "if False and", "test_engine.py"),
    # each window's first row taken one row apart whatever the increment
    ("engine.py", "return np.arange(len(self.fi)) * self.config.increment",
     "return np.arange(len(self.fi))", "test_engine.py"),
    # a plateau counted as a peak
    ("regimes.py", "(inner > values[:-2])", "(inner >= values[:-2])", "test_regimes.py"),
    # the tolerance slack dropped
    ("regimes.py", "bound = tol * (1.0 + _TOL_REL_SLACK)", "bound = tol", "test_regimes.py"),
    # a slope exactly on the negative bound called declining
    ("regimes.py", "if slope < -bound:", "if slope <= -bound:", "test_regimes.py"),
    # a slope exactly on the positive bound called increasing
    ("regimes.py", "elif slope > bound:", "elif slope >= bound:", "test_regimes.py"),
    # the fault line taken one line early
    ("io.py", "line_no = reader.line_num ", "line_no = reader.line_num - 1 ", "test_io.py"),
    # the CSV syntax fault taken one line early
    ("io.py", 'line {reader.line_num}: {exc}", line=reader.line_num)',
     'line {reader.line_num - 1}: {exc}", line=reader.line_num - 1)', "test_io.py"),
    # the bad byte's line counted one too low
    ("io.py", 'line = 1 + head.count("\\n")', 'line = head.count("\\n")', "test_io.py"),
    # a document's peaks left empty
    ("io.py", "return local_maxima(self.series)", "return ()", "test_io.py"),
    # a spacing exactly on the tolerance refused
    ("core.py", "np.abs(spacings - ref) > SPACING_RTOL", "np.abs(spacings - ref) >= SPACING_RTOL",
     "test_core.py"),
    # a one-point stable range accepted
    ("core.py", "if not (0 <= a < b):", "if not (0 <= a <= b):", "test_engine.py"),
    # a two-row time axis left unchecked
    ("core.py", "if len(times) < 2:", "if len(times) <= 2:", "test_core.py"),
    # a grid of the right length but not of rows of n numbers served
    ("core.py", "if grid.shape[1:] != (n,):", "if False:", "test_core.py"),
    # a slope tolerance of 0 accepted
    ("cli.py", "if not value > 0:", "if not value >= 0:", "test_cli.py"),
    # a run of exactly ten points printed without its per-point lines
    ("cli.py", "if len(series) <= 10:", "if len(series) < 10:", "test_cli.py"),
    # a slope range of one index point passed on to the slope
    ("cli.py", "if len(idx) < 2:", "if len(idx) < 1:", "test_cli.py"),
    # a cache file over other years of the same count served
    ("worldbank.py", "if matrix.times.tolist() != list(years):",
     "if len(matrix.times) != len(years):", "test_worldbank.py"),
    # a cache file with more than one value column served
    ("worldbank.py", "if matrix.n_vars != 1:", "if False:", "test_worldbank.py"),
    # the temporary file of a failed cache write left behind
    ("worldbank.py", "os.unlink(tmp)", "pass", "test_worldbank.py"),
    # the demo's sources keyed by each cache file's full path
    ("worldbank.py", "sources=tuple((Path(path).name, digest)", "sources=tuple((path, digest)",
     "test_worldbank.py"),
]


def tier1(copy: Path, *paths: str) -> tuple[int, str]:
    """Run tier-1 in copy with -x, or only the given test paths; return pytest's status
    and its failures or last line."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *paths],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    last = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return done.returncode, "; ".join(failed or last)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fisherinfo-mutate-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                      "out", ".work")
        for tree in ("src", "tests", "perfbench", "tools"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        for name, old, _, _ in MUTANTS:
            found = (copy / "src" / "fisherinfo" / name).read_text().count(old)
            if found != 1:
                print(f"stale mutant: {old!r} occurs {found} times in {name}")
                return 1

        status, summary = tier1(copy)
        if status != 0:
            print(f"unchanged copy fails tier-1 (status {status}): {summary}")
            return 1
        print("unchanged copy passes tier-1")

        survivors = 0
        for name, old, new, test_file in MUTANTS:
            path = copy / "src" / "fisherinfo" / name
            text = path.read_text()
            path.write_text(text.replace(old, new))
            started = time.perf_counter()
            try:
                status, summary = tier1(copy, f"tests/{test_file}")
                if status == 0:  # its own test file missed it: the rest of tier-1 may not
                    status, summary = tier1(copy)
            finally:
                path.write_text(text)
            # 1 is pytest's "tests failed"; any other status is no evidence either way
            killed = status == 1
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} ({status}, "
                  f"{time.perf_counter() - started:.1f} s) {name}: {old!r} -> {new!r}: {summary}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
