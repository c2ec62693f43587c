"""Tests of the benchmark's own pieces: seeded inputs, the output check, spans.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import inputs
import outcheck
from run import Measurement, layer_totals

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fisherinfo.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", ["mixed_w8", "wide_w128"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    def csv_bytes(seed, tag):
        workdir = tmp_path / tag
        workdir.mkdir()
        inp = inputs.make_inputs(workload, seed, workdir, tmp_path)
        return inp.files[0].read_bytes()

    first = csv_bytes(7, "a")
    assert first == csv_bytes(7, "b")
    assert first != csv_bytes(8, "c")


@pytest.fixture
def small_run(tmp_path):
    """Genuine outputs of the CLI on 2000 steps of the mixed_w8 generator."""
    values = inputs.mixed_series(np.random.default_rng(3), steps=2000)
    path = tmp_path / "small.csv"
    times = inputs.write_csv(path, values)
    inp = inputs.Inputs(
        argv=(), times=times, points=values, window=8, increment=1,
        sos=inputs.MIXED_SOS, k=None, files=(path,),
    )
    out = {fmt: tmp_path / f"fi.{fmt}" for fmt in ("csv", "json", "svg")}
    code = cli_main(["compute", str(path), "--sos", "0.5,0.5",
                     "--out-csv", str(out["csv"]), "--out-json", str(out["json"]),
                     "--plot", str(out["svg"])])
    assert code == 0
    return inp, out


def _check(inp, out):
    return outcheck.check_outputs(inp, out["csv"], out["json"], out["svg"],
                                  outcheck.load_oracle(ROOT), np.random.default_rng(0))


def _rewrite_csv_row(path, index, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[index + 1] = ",".join(edit(lines[index + 1].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_check_accepts_genuine_outputs(small_run, capsys):
    inp, out = small_run
    assert _check(inp, out) == []
    histogram = outcheck.state_histogram(out["csv"])
    assert sum(histogram.values()) == inp.window_count
    assert 1 in histogram and inp.window in histogram


def test_check_rejects_fi_changed_in_last_digit(small_run, capsys):
    inp, out = small_run
    rows = outcheck.read_csv_rows(out["csv"])
    index = next(i for i, (_, fi, _) in enumerate(rows) if len(fi) > 12)
    fi = rows[index][1]
    changed = fi[:-1] + ("1" if fi[-1] == "9" else str(int(fi[-1]) + 1))
    assert float(changed) != float(fi)
    _rewrite_csv_row(out["csv"], index, lambda cells: [cells[0], changed, cells[2]])
    assert _check(inp, out)


def test_check_rejects_wrong_m_states(small_run, capsys):
    inp, out = small_run
    # change both files alike, so only the oracle comparison can catch it
    _rewrite_csv_row(out["csv"], 0, lambda cells: [cells[0], cells[1], str(int(cells[2]) + 1)])
    doc = json.loads(out["json"].read_text(encoding="utf-8"))
    doc["fi_points"][0]["m_states"] += 1
    out["json"].write_text(json.dumps(doc), encoding="utf-8")
    problems = _check(inp, out)
    assert any("m_states" in p and "oracle" in p for p in problems)


def test_failed_import_is_recorded_not_raised(tmp_path):
    # no fisherinfo package on this PYTHONPATH
    bench = SimpleNamespace(env={"PYTHONPATH": str(tmp_path)}, import_problems=[])
    assert Measurement.time_import(bench) is None
    assert len(bench.import_problems) == 1


def test_self_time_excludes_child_spans():
    spans = [
        [0, "cli.main", 0.0, 10.0, None],
        [1, "io.read_csv", 1.0, 4.0, 0],
        [2, "core.validate_matrix", 3.0, 4.0, 1],
        [3, "engine.sliding_fi", 5.0, 9.0, 0],
    ]
    totals = layer_totals(spans)
    assert totals["cli.main"] == [10.0, 3.0, 1]
    assert totals["io.read_csv"] == [3.0, 2.0, 1]
    assert totals["engine.sliding_fi"] == [4.0, 4.0, 1]
