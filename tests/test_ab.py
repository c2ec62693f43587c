"""tools/ab.py, the paired base/change benchmark runner, driven with a stand-in benchmark
in a throwaway git repository."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# change/base ratio of the stand-in's quick workload, by seed: sorted, the 2nd is 0.6,
# the 9th 0.98, and the median (0.9 + 0.95) / 2; the change is better in 9 of 10
RATIOS = [0.95, 1.1, 0.6, 0.98, 0.5, 0.9, 0.97, 0.7, 0.96, 0.8]
VALUES = {
    # base IQR 0: wall_s shows a gain in 9 of 10 pairs, windows_per_s (higher is
    # better) loses 9 of 10 with the same ratios
    "quick": {"wall_s": {"base": [2.0] * 10, "change": [2.0 * r for r in RATIOS]},
              "windows_per_s": {"base": [100.0] * 10, "change": [100.0 * r for r in RATIOS]}},
    # wall_s wins all 10 pairs by 0.5, less than the base IQR of 5.5; windows_per_s
    # wins 8 of 10 by 10, more than the base IQR of 0
    "spread": {"wall_s": {"base": [float(k) for k in range(1, 11)],
                          "change": [k - 0.5 for k in range(1, 11)]},
               "windows_per_s": {"base": [100.0] * 10, "change": [110.0] * 8 + [90.0] * 2}},
    # the change's seed-2 run is not correct
    "broken": {"wall_s": {"base": [1.0] * 10, "change": [1.0] * 10},
               "windows_per_s": {"base": [1.0] * 10, "change": [1.0] * 10}},
}

STAND_IN = """\
import argparse, json, os
from pathlib import Path

parser = argparse.ArgumentParser()
for option in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(option, required=True)
args = parser.parse_args()
config = json.loads(Path(__file__).with_name("stand_in.json").read_text())
side = Path("side.txt").read_text().strip()
with open(config["log"], "a") as fh:
    fh.write(json.dumps([side, args.workload, args.seed, args.seconds, args.trace,
                         os.getcwd(), os.environ.get("PYTHONDONTWRITEBYTECODE")]) + "\\n")
seed = int(args.seed)
values = config["values"][args.workload]
print("wall_s: a line the tool ignores")
print(json.dumps({
    "correct": not (args.workload == "broken" and side == "change" and seed == 2),
    "metrics": {name: {"value": v[side][seed - 1]} for name, v in values.items()},
}))
"""


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
         "-c", "commit.gpgsign=false", *args],
        check=True, capture_output=True, text=True,
    ).stdout


def committed_repo(repo: Path, files: dict[str, str]) -> Path:
    repo.mkdir()
    git(repo, "init", "-q")
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    return repo


@pytest.fixture
def bench_repo(tmp_path):
    """A repository whose benchmark is the stand-in; HEAD says base, the working tree change."""
    spec = {
        "command": [sys.executable, "bench.py"],
        "run_seconds": 2,
        "workloads": [{"name": name} for name in VALUES],
        "end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "windows_per_s", "better": "higher"}],
    }
    repo = committed_repo(tmp_path / "repo", {
        "BENCHMARK.json": json.dumps(spec),
        "bench.py": STAND_IN,
        "stand_in.json": json.dumps({"log": str(tmp_path / "runs.log"), "values": VALUES}),
        "side.txt": "base\n",
        "tools/ab.py": TOOL.read_text(),
        "perfbench/sweep.py": (ROOT / "perfbench" / "sweep.py").read_text(),
    })
    (repo / "side.txt").write_text("change\n")
    return repo


def run_tool(repo: Path, *args: str) -> tuple[subprocess.CompletedProcess, list[list]]:
    done = subprocess.run(
        [sys.executable, "tools/ab.py", *args], cwd=repo, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    log = repo.parent / "runs.log"
    runs = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
    return done, runs


def test_pairs_alternate_and_each_metric_is_compared_by_its_rule(bench_repo):
    done, runs = run_tool(bench_repo, "--base", "HEAD", "--workload", "quick",
                          "--workload", "spread")
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert (report["pairs"], report["seconds"]) == (10, 2)
    assert report["coverage"] == pytest.approx(1 - 2 * 11 / 1024)

    # one run at a time, base first in odd pairs, with the seed, the length from
    # BENCHMARK.json, tracing off and bytecode writing allowed
    expected = []
    for workload in ("quick", "spread"):
        for k in range(1, 11):
            order = ("base", "change") if k % 2 else ("change", "base")
            expected += [[side, workload, str(k), "2", "0"] for side in order]
    assert [run[:5] for run in runs] == expected
    assert all(run[6] is None for run in runs)
    base_dirs = {run[5] for run in runs if run[0] == "base"}
    assert {run[5] for run in runs if run[0] == "change"} == {str(bench_repo)}
    (base_dir,) = base_dirs
    assert not Path(base_dir).exists()

    quick = report["workloads"]["quick"]
    for name in ("wall_s", "windows_per_s"):
        assert quick[name]["ratio_median"] == pytest.approx(0.925)
        assert quick[name]["ratio_interval"] == pytest.approx([0.6, 0.98])
        assert quick[name]["base"] == VALUES["quick"][name]["base"]
        assert quick[name]["change"] == VALUES["quick"][name]["change"]
    assert (quick["wall_s"]["wins"], quick["wall_s"]["gain"]) == (9, True)
    assert quick["wall_s"]["base_median"] == 2.0
    assert quick["wall_s"]["change_median"] == pytest.approx(1.85)
    assert quick["wall_s"]["base_iqr"] == 0.0
    assert (quick["windows_per_s"]["wins"], quick["windows_per_s"]["gain"]) == (1, False)

    spread = report["workloads"]["spread"]
    assert spread["wall_s"]["base_iqr"] == pytest.approx(5.5)
    assert (spread["wall_s"]["wins"], spread["wall_s"]["gain"]) == (10, False)
    assert (spread["windows_per_s"]["wins"], spread["windows_per_s"]["gain"]) == (8, False)
    assert spread["windows_per_s"]["ratio_median"] == pytest.approx(1.1)
    assert spread["windows_per_s"]["ratio_interval"] == pytest.approx([0.9, 1.1])

    table = done.stdout.splitlines()[:-1]
    rows = [line.split() for line in table if line.startswith(("quick", "spread"))]
    assert [(row[0], row[1], row[-1]) for row in rows] == [
        ("quick", "wall_s", "yes"), ("quick", "windows_per_s", "no"),
        ("spread", "wall_s", "no"), ("spread", "windows_per_s", "no")]


def test_a_run_not_correct_is_refused_with_its_pair(bench_repo):
    done, runs = run_tool(bench_repo, "--base", "HEAD", "--workload", "broken")
    assert done.returncode == 1
    (line,) = done.stdout.splitlines()
    assert line.startswith("REFUSED: broken pair 2: the change run: exit 0, last line ")
    assert '"correct": false' in line
    # pair 2 runs the change first, and nothing runs after it
    assert [run[:3] for run in runs] == [
        ["base", "broken", "1"], ["change", "broken", "1"], ["change", "broken", "2"]]
    assert not Path(runs[0][5]).exists()


def test_export_writes_the_committed_tree_and_leaves_the_repository_clean(tmp_path):
    files = {"a.txt": "one\n", "sub/b.py": "print(2)\n"}
    repo = committed_repo(tmp_path / "repo", files)
    dest = tmp_path / "out"
    dest.mkdir()
    ab.export(repo, "HEAD", dest)
    assert {p.relative_to(dest).as_posix(): p.read_text()
            for p in dest.rglob("*") if p.is_file()} == files
    assert git(repo, "status", "--porcelain", "--untracked-files=all") == ""
    with pytest.raises(subprocess.CalledProcessError):
        ab.export(repo, "no-such-revision", dest)


@pytest.mark.parametrize("n, j, coverage", [
    (2, 1, 0.5), (5, 1, 1 - 2 / 32), (10, 2, 1 - 2 * 11 / 1024), (20, 6, 1 - 2 * 21700 / 2**20),
])
def test_interval_is_the_widest_rank_with_95_percent_coverage(n, j, coverage):
    assert ab.interval_rank(n) == (j, pytest.approx(coverage))

