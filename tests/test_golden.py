"""Byte-for-byte comparison of CLI outputs with committed golden files.

tests/golden/ holds, per case, the CSV, JSON and SVG outputs and the
standard output of one CLI run, all written by an earlier version of the
program.  Any change to a number, a byte of formatting or the exit code
fails here.  The compute cases read the input CSVs committed next to them;
the demo case reads the shipped World Bank fixture.
"""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
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


def _argv_in_copy(case: str, directory: Path) -> list[str]:
    """The case's arguments, run from `directory`, which gets copies of the inputs.

    compute records the input path as given, so every case runs beside its
    own copy of the inputs and writes out.csv, out.json and out.svg there.
    """
    for name in ("worked.csv", "mixed.csv"):
        shutil.copy(GOLDEN / name, directory / name)
    argv = list(CASES[case])
    for option, suffix in OUTPUTS:
        argv += [option, f"out.{suffix}"]
    return argv


def _assert_files_match(case: str, directory: Path) -> None:
    for _, suffix in OUTPUTS:
        assert (directory / f"out.{suffix}").read_bytes() == (
            GOLDEN / f"{case}.{suffix}"
        ).read_bytes(), f"{case}.{suffix} differs from the golden file"


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FISHERINFO_CACHE_DIR", raising=False)
    argv = _argv_in_copy(case, tmp_path)
    monkeypatch.chdir(tmp_path)

    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    _assert_files_match(case, tmp_path)


@pytest.mark.parametrize("case", ["demo", "worked_sos"])
def test_process_exit_keeps_buffered_output(case, tmp_path):
    """`python -m fisherinfo.cli` with stdout block-buffered on a pipe loses no byte at exit."""
    argv = _argv_in_copy(case, tmp_path)

    done = subprocess.run([sys.executable, "-m", "fisherinfo.cli", *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == b""
    assert done.stdout == (GOLDEN / f"{case}.out").read_bytes()
    _assert_files_match(case, tmp_path)
