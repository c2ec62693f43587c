"""Byte-for-byte comparison of CLI outputs with committed golden files.

tests/golden/ holds, per case, the CSV, JSON and SVG outputs and the
standard output of one CLI run, all written by an earlier version of the
program.  Any change to a number, a byte of formatting or the exit code
fails here.  The compute cases read the input CSVs committed next to them;
the demo case reads the shipped World Bank fixture.
"""
import shutil
from pathlib import Path

import pytest

from fisherinfo.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = ("--out-csv", "csv"), ("--out-json", "json"), ("--plot", "svg")

CASES = {
    "worked_sos": ["compute", "worked.csv", "--sos", "0.5,1"],
    "worked_estimated": ["compute", "worked.csv"],
    "worked_w4": ["compute", "worked.csv", "--sos", "0.5,1", "--window-size", "4"],
    "mixed_w16": ["compute", "mixed.csv", "--window-size", "16", "--increment", "3",
                  "--k", "1", "--stable-range", "0:99"],
    "demo": ["demo", "--sos", "985.82,10307105.62", "--slope-range", "1975:2013"],
}


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FISHERINFO_CACHE_DIR", raising=False)
    # compute records the input path as given, so run from a copy of the inputs
    for name in ("worked.csv", "mixed.csv"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    argv = list(CASES[case])
    for option, suffix in OUTPUTS:
        argv += [option, f"out.{suffix}"]

    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    for _, suffix in OUTPUTS:
        assert (tmp_path / f"out.{suffix}").read_bytes() == (
            GOLDEN / f"{case}.{suffix}"
        ).read_bytes(), f"{case}.{suffix} differs from the golden file"
