import argparse
import builtins
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fisherinfo.cli as cli
import fisherinfo.io as fio
import fisherinfo.worldbank as wb
from fisherinfo import SosPrecedenceWarning
from fisherinfo.cli import main

from conftest import WORKED_CSV, child_env

PUBLISHED_SOS = "985.82,10307105.62"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_worked_example(self, worked_csv_path, capsys, tmp_path):
        out_csv = tmp_path / "fi.csv"
        code, out, _ = run(
            ["compute", str(worked_csv_path), "--sos", "0.5,1",
             "--window-size", "8", "--increment", "1",
             "--out-csv", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert "1 index point(s)" in out
        lines = out_csv.read_text().splitlines()
        time_text, fi_text, m_text = lines[1].split(",")
        assert time_text == "8"
        assert abs(float(fi_text) - 2.136) <= 0.005
        assert m_text == "4"

    def test_writes_json_and_plot(self, worked_csv_path, capsys, tmp_path):
        out_json = tmp_path / "fi.json"
        out_svg = tmp_path / "fi.svg"
        code, _, _ = run(
            ["compute", str(worked_csv_path), "--sos", "0.5,1",
             "--out-json", str(out_json), "--plot", str(out_svg)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["sos_source"] == "explicit"
        assert payload["metadata"]["state_size"] == [0.5, 1.0]
        assert payload["metadata"]["window_size"] == 8
        assert len(payload["fi_points"]) == 1
        assert out_svg.read_text().startswith("<svg")

    def test_json_window_rows_follow_the_increment(self, capsys, tmp_path):
        path = tmp_path / "thirty.csv"
        path.write_text("t,a\n" + "".join(f"{t},{t % 5}\n" for t in range(1, 31)))
        out_json = tmp_path / "fi.json"
        code, _, _ = run(["compute", str(path), "--sos", "1", "--increment", "3",
                          "--out-json", str(out_json)], capsys)
        assert code == 0
        points = json.loads(out_json.read_text())["fi_points"]
        assert [p["window_start_index"] for p in points] == [3 * k for k in range(8)]
        assert [p["window_end_index"] for p in points] == [3 * k + 7 for k in range(8)]
        assert [p["time"] for p in points] == [3 * k + 8 for k in range(8)]

    def test_estimated_sos_is_the_default(self, worked_csv_path, capsys, tmp_path):
        out_json = tmp_path / "fi.json"
        code, _, _ = run(
            ["compute", str(worked_csv_path), "--out-json", str(out_json)], capsys
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["sos_source"] == "estimated"
        assert payload["metadata"]["k"] == 2.0

    def test_series_shorter_than_window_exits_1(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("t,Y1\n1,0.5\n2,0.25\n")
        code, _, err = run(["compute", str(path)], capsys)
        assert code == 1
        assert "SeriesTooShort" in err

    def test_non_finite_cell_exits_1_naming_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,a,b\n1,1,2\n2,3,nan\n3,4,5\n")
        code, _, err = run(["compute", str(path)], capsys)
        assert code == 1
        assert err == f"error: MissingValue: {path}: line 3, column 'b': non-finite value nan\n"

    def test_time_gap_exits_1_naming_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,a\n1,1\n2,2\n3,3\n5,4\n6,5\n")
        code, _, err = run(["compute", str(path)], capsys)
        assert code == 1
        assert err == (f"error: NonUniformTimeAxis: {path}: line 5: "
                       "spacing changes at step 3: 2.0 differs from 1.0\n")

    def test_oversized_cell_exits_1_naming_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("t,a\n1,1\n2," + "1" * 200_000 + "\n")
        code, _, err = run(["compute", str(path)], capsys)
        assert code == 1
        assert err == (f"error: ParseError: {path}: line 3: "
                       "field larger than field limit (131072)\n")

    @pytest.mark.parametrize("scale", ["1e200", "1e308"])
    def test_values_near_the_float_limit_run(self, capsys, tmp_path, scale):
        path = tmp_path / "huge.csv"
        path.write_text("t,a\n" + "".join(f"{t},{'-' * (t % 2)}{scale}\n" for t in range(1, 10)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["compute", str(path)], capsys)
        assert code == 0
        assert "2 index point(s)" in out
        assert err == ""
        assert [str(w.message) for w in caught] == []

    def test_time_labels_are_rendered_once_per_run(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,a\n" + "".join(f"{t},{t % 7}\n" for t in range(1, 208)))
        outputs = ["--out-csv", str(tmp_path / "fi.csv"), "--out-json", str(tmp_path / "fi.json"),
                   "--plot", str(tmp_path / "fi.svg")]
        with mock.patch.object(fio, "format_time_labels", wraps=fio.format_time_labels) as in_io, \
                mock.patch.object(cli, "format_time_labels", wraps=cli.format_time_labels) as in_cli:
            code, out, _ = run(["compute", str(path), "--sos", "1", *outputs], capsys)
        assert code == 0
        assert "200 index point(s), 8..207" in out

        def rendered(calls) -> int:
            return sum(len(call.args[0]) for call in calls.call_args_list)

        # one column for both writers and the SVG's ticks; stdout renders only what
        # it prints: first, last, the verdict's range and the peaks
        assert rendered(in_io) <= 200 + 10
        (maxima,) = [line for line in out.splitlines() if line.startswith("local maxima at: ")]
        assert rendered(in_cli) == 2 + 2 + len(maxima.split(", "))

    def test_csv_and_json_share_one_rendering_of_each_column(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,a\n" + "".join(f"{t},{t % 7}\n" for t in range(1, 28)))
        outputs = ["--out-csv", str(tmp_path / "fi.csv"), "--out-json", str(tmp_path / "fi.json"),
                   "--plot", str(tmp_path / "fi.svg")]
        with mock.patch.object(fio, "_texts", wraps=fio._texts) as texts:
            code, out, _ = run(["compute", str(path), "--sos", "1", *outputs], capsys)
        assert code == 0
        assert "20 index point(s)" in out
        # fi and m_states for both writers, and the SVG's y coordinates
        assert texts.call_count == 3

    def test_digest_is_of_the_bytes_read_from_a_pipe(self, tmp_path):
        env = child_env()
        out_json = tmp_path / "fi.json"
        data = WORKED_CSV.encode("utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "fisherinfo.cli", "compute", "/dev/stdin", "--sos", "0.5,1",
             "--out-json", str(out_json)],
            input=data, env=env, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        digests = json.loads(out_json.read_text())["metadata"]["inputs_sha256"]
        assert digests == {"/dev/stdin": hashlib.sha256(data).hexdigest()}

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(["compute", "/no/such/file.csv"], capsys)
        assert code == 1
        assert "file.csv" in err

    def test_infinite_settings_write_strict_json_that_reruns(self, worked_csv_path, capsys,
                                                             tmp_path):
        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        first, again = tmp_path / "first.json", tmp_path / "again.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run(["compute", str(worked_csv_path), "--sos", "inf,inf",
                              "--window-size", "4", "--slope-tol", "inf",
                              "--slope-range=-inf:inf", "--out-json", str(first)], capsys)
        assert code == 0
        meta = json.loads(first.read_text(), parse_constant=refuse)["metadata"]
        assert meta["state_size"] == ["inf", "inf"]
        assert meta["slope_tol"] == "inf"
        assert meta["slope_range_labels"] == ["-inf", "inf"]
        # the recorded strings are valid option values: the run replays
        lo, hi = meta["slope_range_labels"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run(["compute", str(worked_csv_path),
                              "--sos", ",".join(meta["state_size"]), "--window-size", "4",
                              "--slope-tol", meta["slope_tol"], f"--slope-range={lo}:{hi}",
                              "--out-json", str(again)], capsys)
        assert code == 0
        assert again.read_bytes() == first.read_bytes()

    def test_estimated_infinite_state_size_is_strict_json(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("t,a\n" + "".join(f"{t},{'-' * (t % 2)}1e308\n" for t in range(1, 10)))
        out = tmp_path / "fi.json"
        code, _, _ = run(["compute", str(path), "--out-json", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text(), parse_constant=lambda token: 1 / 0)
        assert payload["metadata"]["state_size"] == ["inf"]

    def test_explicit_sos_wins_with_warning(self, worked_csv_path, capsys, tmp_path):
        out_json = tmp_path / "fi.json"
        with pytest.warns(SosPrecedenceWarning):
            code = main(
                ["compute", str(worked_csv_path), "--sos", "0.5,1",
                 "--stable-range", "0:7", "--out-json", str(out_json)]
            )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["sos_source"] == "explicit"
        assert payload["metadata"]["state_size"] == [0.5, 1.0]

    def test_wrong_sos_arity_exits_1(self, worked_csv_path, capsys):
        code, _, err = run(["compute", str(worked_csv_path), "--sos", "0.5"], capsys)
        assert code == 1
        assert "DimensionMismatch" in err

    @pytest.mark.parametrize("sos", ["nan", "-1", "0.5,nan", "x"])
    def test_invalid_sos_is_a_usage_error_naming_the_option(self, worked_csv_path, capsys, sos):
        # rejected at parse time, before the arity check that would exit 1
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(worked_csv_path), "--sos", sos])
        assert exc.value.code == 2
        assert "--sos" in capsys.readouterr().err

    def test_bad_range_syntax_exits_2(self, worked_csv_path):
        with pytest.raises(SystemExit) as exc:
            main(["compute", str(worked_csv_path), "--stable-range", "5:2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rows, listed", [(17, 10), (18, 0)])
    def test_points_are_listed_one_per_line_up_to_ten(self, capsys, tmp_path, rows, listed):
        path = tmp_path / "in.csv"
        path.write_text("t,a\n" + "".join(f"{t},{t % 3}\n" for t in range(rows)))
        code, out, _ = run(["compute", str(path), "--sos", "1"], capsys)
        assert code == 0
        assert f"{rows - 7} index point(s)" in out
        assert len([line for line in out.splitlines() if line.startswith("  t=")]) == listed

    def test_small_window_warns_but_runs(self, worked_csv_path, capsys):
        from fisherinfo import SmallWindowWarning

        with pytest.warns(SmallWindowWarning):
            code = main(
                ["compute", str(worked_csv_path), "--sos", "0.5,1", "--window-size", "4"]
            )
        capsys.readouterr()
        assert code == 0


class TestWarnings:
    def test_each_warning_prints_as_one_line(self, tmp_path):
        env = child_env()
        env.pop("PYTHONWARNINGS", None)
        path = tmp_path / "const.csv"
        path.write_text("t,a,b\n" + "".join(f"{t},{t % 3},5\n" for t in range(12)))
        done = subprocess.run(
            [sys.executable, "-m", "fisherinfo.cli", "compute", str(path), "--window-size", "4"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 2, done.stderr
        assert lines[0].startswith("warning: SmallWindowWarning: ")
        assert lines[1].startswith("warning: ConstantVariableWarning: ")
        assert ".py:" not in done.stderr

    def test_warning_format_is_one_line(self):
        text = cli._format_warning("a message", SosPrecedenceWarning, "/x/cli.py", 7, "src")
        assert text == "warning: SosPrecedenceWarning: a message\n"

    def test_step_beyond_the_float_range_exits_1_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("t,a\n-1.7e308,1\n1.7e308,1\n1.79e308,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # shown as the CLI shows them, on stderr
            code, out, err = run(["compute", str(path), "--sos", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"error: NonUniformTimeAxis: {path}: line 4: spacing changes at step 2: "
                       "9.000000000000002e+306 differs from inf\n")

    def test_main_restores_the_warning_format(self, worked_csv_path, capsys):
        before = warnings.formatwarning
        with pytest.warns(SosPrecedenceWarning):
            main(["compute", str(worked_csv_path), "--sos", "0.5,1", "--k", "2"])
        with pytest.raises(SystemExit):
            main(["compute", str(worked_csv_path), "--window-size", "1"])
        capsys.readouterr()
        assert warnings.formatwarning is before


class TestEstimateSos:
    def test_prints_per_variable_deltas(self, worked_csv_path, capsys):
        code, out, _ = run(["estimate-sos", str(worked_csv_path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("Y1: ")
        assert lines[1].startswith("Y2: ")
        assert float(lines[0].split(": ")[1]) == pytest.approx(2.394897850, rel=1e-9)
        assert float(lines[1].split(": ")[1]) == pytest.approx(2.670339732, rel=1e-9)

    def test_constant_column_warns_and_prints_zero(self, capsys, tmp_path):
        from fisherinfo import ConstantVariableWarning

        path = tmp_path / "const.csv"
        path.write_text("t,Y1\n1,5\n2,5\n3,5\n")
        with pytest.warns(ConstantVariableWarning):
            code = main(["estimate-sos", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Y1: 0.0" in out

    def test_reversed_range_exits_2(self, worked_csv_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate-sos", str(worked_csv_path), "--stable-range", "5:2"])
        assert exc.value.code == 2


class TestDemo:
    def test_offline_demo_with_published_sos(self, capsys, tmp_path):
        out_csv = tmp_path / "demo.csv"
        code, out, _ = run(
            ["demo", "--sos", PUBLISHED_SOS, "--slope-range", "1975:2013",
             "--out-csv", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert "47 index point(s), 1967..2013" in out
        assert "verdict: stable" in out
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 48
        assert lines[1].startswith("1967,")
        assert lines[-1].startswith("2013,")

    @pytest.mark.parametrize("slope_range, window, selected", [
        ("1975.2:1975.8", "8", 0), ("1900:1967", "8", 1), ("-inf:inf", "54", 1),
    ])
    def test_slope_range_of_fewer_than_two_index_points_exits_1(self, capsys, slope_range,
                                                                 window, selected):
        code, out, err = run(["demo", "--sos", PUBLISHED_SOS, "--window-size", window,
                              f"--slope-range={slope_range}"], capsys)
        assert code == 1
        assert out == ""
        assert err == (f"error: DegenerateRange: --slope-range {slope_range} selects {selected} "
                       "index point(s); need at least 2\n")

    def test_offline_demo_estimates_sos_by_default(self, capsys, tmp_path):
        out_json = tmp_path / "demo.json"
        code, _, _ = run(["demo", "--out-json", str(out_json)], capsys)
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["sos_source"] == "estimated"
        assert len(payload["fi_points"]) == 47

    def test_empty_cache_dir_offline_exits_1(self, capsys, tmp_path):
        code, _, err = run(["demo", "--cache-dir", str(tmp_path), "--offline"], capsys)
        assert code == 1
        assert "NetworkError" in err

    def test_truncated_cache_exits_1(self, capsys, tmp_path):
        for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION):
            req = wb.IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS)
            lines = wb.cache_path(req, wb.fixture_cache_dir()).read_text().splitlines()
            wb.cache_path(req, tmp_path).write_text("\n".join(lines[:-1]) + "\n")
        code, _, err = run(["demo", "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert "GapInSeries" in err

    def test_non_finite_cache_value_exits_1_naming_file_line_and_column(self, capsys, tmp_path):
        for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION):
            req = wb.IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS)
            lines = wb.cache_path(req, wb.fixture_cache_dir()).read_text().splitlines()
            if indicator == wb.GDP_PER_CAPITA:
                assert lines[11].startswith("1970,")
                lines[11] = "1970,nan"
                bad = wb.cache_path(req, tmp_path)
            wb.cache_path(req, tmp_path).write_text("\n".join(lines) + "\n")
        code, out, err = run(["demo", "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err == f"error: MissingValue: {bad}: line 12, column 'value': non-finite value nan\n"
        assert out == ""

    @staticmethod
    def fixture_copy(tmp_path):
        """A copy of the shipped cache and its files in demo order."""
        cache = tmp_path / "cache"
        shutil.copytree(wb.fixture_cache_dir(), cache)
        requests = [wb.IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS)
                    for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION)]
        return cache, [wb.cache_path(req, cache) for req in requests]

    def test_digest_is_of_the_bytes_parsed(self, capsys, tmp_path, monkeypatch):
        cache, paths = self.fixture_copy(tmp_path)
        parsed = [(path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in paths]
        read_csv = wb.read_csv

        def read_then_replace(path):
            result = read_csv(path)
            path.write_bytes(b"year,value\nreplaced after parsing\n")
            return result

        monkeypatch.setattr(wb, "read_csv", read_then_replace)
        out_json = tmp_path / "demo.json"
        code, _, _ = run(["demo", "--sos", PUBLISHED_SOS, "--cache-dir", str(cache),
                          "--out-json", str(out_json)], capsys)
        assert code == 0
        assert all(path.read_bytes().endswith(b"replaced after parsing\n") for path in paths)
        digests = json.loads(out_json.read_text())["metadata"]["inputs_sha256"]
        assert list(digests.items()) == parsed

    def test_each_cache_file_is_read_once(self, capsys, tmp_path, monkeypatch):
        cache, paths = self.fixture_copy(tmp_path)
        opened = []
        real_open, real_path_open = builtins.open, Path.open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        def recording_path_open(self, *args, **kwargs):
            opened.append(str(self))
            return real_path_open(self, *args, **kwargs)

        # Path.read_bytes opens through Path.open, which does not look up builtins.open
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(Path, "open", recording_path_open)
        code, _, _ = run(["demo", "--sos", PUBLISHED_SOS, "--cache-dir", str(cache),
                          "--out-json", str(tmp_path / "demo.json")], capsys)
        assert code == 0
        assert sorted(name for name in opened if Path(name).parent == cache) == sorted(
            str(path) for path in paths)

    def test_cache_dir_env_override(self, capsys, tmp_path, monkeypatch):
        from fisherinfo.worldbank import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code, _, err = run(["demo"], capsys)
        assert code == 1
        assert "NetworkError" in err

    def test_empty_cache_dir_means_the_default(self, capsys, monkeypatch):
        monkeypatch.delenv(wb.CACHE_DIR_ENV, raising=False)
        expected = run(["demo", "--sos", PUBLISHED_SOS], capsys)
        assert expected[0] == 0
        assert run(["demo", "--sos", PUBLISHED_SOS, "--cache-dir", ""], capsys) == expected


class TestFetch:
    def test_fetch_from_fixture_cache_offline(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, stdout, _ = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "USA/SP.POP.TOTL: 54 year(s) 1960..2013" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "year,value"
        assert len(lines) == 55

    def test_fetch_prints_the_cache_file_it_parsed(self, capsys, tmp_path):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        path = Path(shutil.copy(wb.cache_path(req, wb.fixture_cache_dir()), tmp_path))
        code, out, err = run(["fetch", "--indicator", wb.TOTAL_POPULATION, "--offline",
                              "--cache-dir", str(tmp_path)], capsys)
        assert (code, err) == (0, "")
        assert out == f"USA/SP.POP.TOTL: 54 year(s) 1960..2013 (cache: {path})\n"

    def test_fetch_cache_miss_offline_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            ["fetch", "--indicator", "XX.YY", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "NetworkError" in err

    def test_out_has_the_cache_file_bytes(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        code, _, _ = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--out", str(out)], capsys
        )
        assert code == 0
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        assert out.read_bytes() == wb.cache_path(req, wb.fixture_cache_dir()).read_bytes()

    def test_truncated_cache_exits_1_naming_the_file(self, capsys, tmp_path):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        fixture = wb.cache_path(req, wb.fixture_cache_dir()).read_text().splitlines()
        path = wb.cache_path(req, tmp_path)
        path.write_text("\n".join(fixture[:30]) + "\n")  # header + 1960..1988
        code, out, err = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "GapInSeries" in err
        assert str(path) in err
        assert out == ""

    @pytest.mark.parametrize("bad_line, fault", [
        ("1961,lots", "line 3, column 'value': cannot parse 'lots' as a number"),
        ("1961", "line 3 has 1 cells, expected 2"),
    ], ids=["non_numeric", "one_cell"])
    def test_malformed_cache_exits_1_naming_file_line_and_column(
        self, capsys, tmp_path, bad_line, fault
    ):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        path = wb.cache_path(req, tmp_path)
        path.write_text(f"year,value\n1960,1.0\n{bad_line}\n")
        code, _, err = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err == f"error: ParseError: {path}: {fault}\n"

    @pytest.mark.parametrize("mode", [["--offline"], []], ids=["offline", "live"])
    def test_country_code_cannot_leave_the_cache_dir(self, capsys, tmp_path, monkeypatch, mode):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        outside = tmp_path / "outside"
        outside.mkdir()
        planted = shutil.copy(wb.cache_path(req, wb.fixture_cache_dir()), outside)
        monkeypatch.setattr(wb, "_get_json", mock.Mock(side_effect=AssertionError("fetched")))
        with pytest.raises(SystemExit) as exc:
            main(["fetch", "--country", "../outside/USA", "--indicator", wb.TOTAL_POPULATION,
                  *mode, "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        assert "country_code must be a letter or digit" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == [outside, Path(planted)]

    def test_non_utf8_cache_exits_1_naming_the_file(self, capsys, tmp_path):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        path = wb.cache_path(req, tmp_path)
        path.write_bytes(b"year,value\n1960,\xff\n")
        code, _, err = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err == f"error: ParseError: {path}: line 2: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("records", [
        [{"date": "2000a", "value": 1.0}],
        ["2000"],
        [{"value": 1.0}],
        [{"date": "2000", "value": "lots"}],
        [{"date": "2000", "value": float("nan")}],
        [{"date": "2000", "value": "1e999"}],
    ], ids=["bad_date", "not_a_dict", "no_date", "bad_value", "nan_value", "inf_value"])
    def test_malformed_api_record_exits_1_naming_it(self, capsys, tmp_path, monkeypatch, records):
        monkeypatch.setattr(wb, "_get_json", lambda url, params, timeout: [{"page": 1}, records])
        code, out, err = run(
            ["fetch", "--start", "2000", "--end", "2000", "--cache-dir", str(tmp_path)], capsys
        )
        assert code == 1
        assert out == ""
        assert err == (f"error: NetworkError: malformed World Bank record for "
                       f"USA/NY.GDP.PCAP.CD: {records[0]!r}\n")
        assert list(tmp_path.iterdir()) == []  # nothing cached

    def test_data_block_that_is_not_a_list_exits_1(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(wb, "_get_json", lambda url, params, timeout: [{"page": 1}, 5])
        code, _, err = run(["fetch", "--cache-dir", str(tmp_path)], capsys)
        assert code == 1
        assert err == "error: NetworkError: unexpected API response shape: data is int\n"

    def test_reversed_years_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fetch", "--start", "2010", "--end", "2000"])
        assert exc.value.code == 2
        assert "exceeds" in capsys.readouterr().err


def demo_cache_file(indicator, directory):
    return wb.cache_path(wb.IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS), directory)


def line_12(text):
    """An edit of a cache file's lines: line 12, the year 1970, becomes text."""
    return lambda lines: lines[:11] + [text] + lines[12:]


class TestMalformedCache:
    """A malformed cache fails fetch and demo alike, with the error compute gives the same fault."""

    @pytest.mark.parametrize("edit, fault", [
        (line_12("1970,lots"), "ParseError: {}: line 12, column 'value': "),
        (line_12("1970"), "ParseError: {}: line 12 has 1 cells"),
        (line_12("1970,nan"), "MissingValue: {}: line 12, column 'value': "),
        (line_12("inf,1.0"), "NonUniformTimeAxis: {}: line 12: "),
        (line_12("1969,1.0"), "NonUniformTimeAxis: {}: line 12: "),
        (lambda lines: lines[:10] + [lines[11], lines[10]] + lines[12:],
         "NonUniformTimeAxis: {}: line 12: "),
        (line_12("1970.5,1.0"), "NonUniformTimeAxis: {}: line 12: "),
        (lambda lines: lines[:1], "EmptyInput: {}: header only"),
        (lambda lines: [line.split(",")[0] for line in lines],
         "EmptyInput: {}: header has no variable columns"),
        (lambda lines: [line + ",1" for line in lines],
         "ParseError: {}: expected one value column"),
        (lambda lines: lines[:-1], "GapInSeries: {}: "),
        (lambda lines: lines[:1] + [f"{int(line[:4]) + 1}{line[4:]}" for line in lines[1:]],
         "GapInSeries: {}: "),
    ], ids=["non_numeric", "one_cell", "nan_value", "inf_year", "duplicate_year", "unsorted",
            "uneven_year", "header_only", "one_column", "two_value_columns", "truncated",
            "shifted"])
    @pytest.mark.parametrize("command", ["fetch", "demo"])
    def test_exits_1_naming_the_file(self, capsys, tmp_path, command, edit, fault):
        lines = demo_cache_file(wb.GDP_PER_CAPITA, wb.fixture_cache_dir()).read_text().splitlines()
        assert lines[11].startswith("1970,")
        gdp = demo_cache_file(wb.GDP_PER_CAPITA, tmp_path)
        gdp.write_text("\n".join(edit(lines)) + "\n")
        shutil.copy(demo_cache_file(wb.TOTAL_POPULATION, wb.fixture_cache_dir()), tmp_path)
        argv = ["fetch", "--indicator", wb.GDP_PER_CAPITA] if command == "fetch" else ["demo"]
        code, out, err = run(argv + ["--offline", "--cache-dir", str(tmp_path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: " + fault.format(gdp))


MISSING = "/no/such/input.csv"

# what each subcommand reads: none of them may run before an argument is accepted
READERS = ("read_csv", "demo_matrix", "fetch_indicator")


def subcommand_options() -> dict[str, list[tuple[str, bool]]]:
    """(option, takes a value) for every option of each subcommand but --help."""
    (sub,) = (action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction))
    return {name: [(option, action.nargs != 0) for action in cmd._actions
                   for option in action.option_strings if option not in ("-h", "--help")]
            for name, cmd in sub.choices.items()}


OPTIONS = subcommand_options()

# arguments that come before the options: an input, cache and network off where one exists
LEAD = {
    "compute": ["compute", MISSING],
    "estimate-sos": ["estimate-sos", MISSING],
    "demo": ["demo", "--cache-dir", MISSING],
    "fetch": ["fetch", "--offline", "--cache-dir", MISSING],
}


@contextlib.contextmanager
def counted_reads():
    """Count the calls of each reader the subcommands use; each still runs."""
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(mock.patch.object(cli, name, wraps=getattr(cli, name)))
               for name in READERS]


class TestExitCodes:
    """2: an argument value refused before any file is read; 1: bad input; traceback: a bug."""

    @pytest.mark.parametrize("argv", [
        ["compute", MISSING, "--window-size", "0"],
        ["compute", MISSING, "--window-size", "1"],
        ["compute", MISSING, "--window-size", "8", "--increment", "9"],
        ["compute", MISSING, "--k", "0"],
        ["compute", MISSING, "--k", "-1"],
        ["compute", MISSING, "--k", "inf"],
        ["compute", MISSING, "--stable-range", "5:2"],
        ["compute", MISSING, "--sos", "0.5,1", "--stable-range", "5:2"],
        ["estimate-sos", MISSING, "--k", "0"],
        ["demo", "--cache-dir", MISSING, "--window-size", "1"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--start", "2010", "--end", "2000"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--country", ""],
        ["compute", MISSING, "--stable-range", "3:3"],
        ["estimate-sos", MISSING, "--stable-range", "0:0"],
        ["compute", MISSING, "--slope-range", "5:5"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--country", "../outside/USA"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--indicator", "SP.POP/../X"],
        ["compute", MISSING, "--stable-range", "3:1"],
        ["compute", MISSING, "--slope-tol", "0"],
        ["compute", MISSING, "--sos", "0.5,0.5", "--out-csv", "", "--plot="],
        ["compute", MISSING, "--out-json", ""],
        ["demo", "--cache-dir", MISSING, "--plot", ""],
        ["fetch", "--offline", "--cache-dir", MISSING, "--out", ""],
    ])
    def test_bad_argument_exits_2_even_without_input(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "No such file" not in err

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in OPTIONS.items() for option, _ in options
    ])
    def test_every_option_written_equals_dashdash_exits_2_before_any_read(
        self, capsys, command, option
    ):
        # argparse gives '--opt=--' an empty list, without calling the option's type
        with counted_reads() as readers, pytest.raises(SystemExit) as exc:
            main(LEAD[command] + [f"{option}=--"])
        assert exc.value.code == 2
        assert not any(reader.called for reader in readers)
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fisherinfo {command} [-h]")
        assert f"\nfisherinfo {command}: error: argument {option}" in err

    @pytest.mark.parametrize("command, option", [
        (command, option) for command in ("compute", "demo")
        for option in ("--out-csv", "--out-json", "--plot")
    ] + [("fetch", "--out")])
    def test_empty_output_path_exits_2_before_any_read(self, capsys, command, option):
        with counted_reads() as readers, pytest.raises(SystemExit) as exc:
            main(LEAD[command] + [option, ""])
        assert exc.value.code == 2
        assert not any(reader.called for reader in readers)
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fisherinfo {command} [-h]")
        assert err.endswith(f"\nfisherinfo {command}: error: argument {option}: "
                            "expected a file path, got ''\n")

    @pytest.mark.parametrize("argv", [
        ["compute", MISSING, "--window-size", "1"],
        ["estimate-sos", MISSING, "--k", "0"],
        ["demo", "--cache-dir", MISSING, "--increment", "0"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--country", ""],
        ["compute", MISSING, "--stable-range", "3:3"],
        ["demo", "--cache-dir", MISSING, "--slope-range", "1975:1975"],
    ], ids=["compute", "estimate-sos", "demo", "fetch", "one_point_stable", "one_point_slope"])
    def test_refused_value_prints_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fisherinfo {argv[0]} [-h]")
        assert f"\nfisherinfo {argv[0]}: error: " in err

    def test_slope_tol_that_is_no_number_exits_2_before_any_read(self, capsys):
        with counted_reads() as readers, pytest.raises(SystemExit) as exc:
            main(["compute", MISSING, "--slope-tol", "abc"])
        assert exc.value.code == 2
        assert not any(reader.called for reader in readers)
        err = capsys.readouterr().err
        assert err.startswith("usage: fisherinfo compute [-h]")
        assert err.endswith("\nfisherinfo compute: error: argument --slope-tol: "
                            "'abc' is not a number\n")

    @pytest.mark.parametrize("pair", ["nan:5", "5:nan", "nan:nan"])
    def test_nan_slope_range_bound_exits_2_before_reading_input(self, capsys, pair):
        with pytest.raises(SystemExit) as exc:
            main(["compute", MISSING, f"--slope-range={pair}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fisherinfo compute [-h]")
        assert f"error: argument --slope-range: need first < last, got '{pair}'" in err
        assert "No such file" not in err

    @pytest.mark.parametrize("option, pair, message", [
        ("--stable-range", "3:1", "need first < last, got '3:1'"),
        ("--stable-range", "1.5:3", "'1.5:3' is not an index pair 'first:last'"),
        ("--stable-range", "1:2:3", "'1:2:3' is not an index pair 'first:last'"),
        ("--slope-range", "2000:1990", "need first < last, got '2000:1990'"),
        ("--slope-range", "a:1", "'a:1' is not a time-label pair 'first:last'"),
        ("--slope-range", "1990", "'1990' is not a time-label pair 'first:last'"),
    ])
    def test_range_pairs_are_refused_by_one_parser(self, capsys, option, pair, message):
        with pytest.raises(SystemExit) as exc:
            main(["compute", MISSING, f"{option}={pair}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fisherinfo compute [-h]")
        assert err.endswith(f"\nfisherinfo compute: error: argument {option}: {message}\n")

    @pytest.mark.parametrize("command", ["compute", "estimate-sos"])
    def test_negative_stable_range_reaches_its_check_in_the_equals_form(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, MISSING, "--stable-range=-1:3"])
        assert exc.value.code == 2
        assert ("error: stable_range must satisfy 0 <= first < last, got -1:3"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["compute", "estimate-sos", "demo"])
    def test_help_names_the_equals_form_for_ranges(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "400")  # one line per option
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--stable-range=FIRST:LAST" in out
        if command != "estimate-sos":
            assert "--slope-range=FIRST:LAST" in out

    @pytest.mark.parametrize("option", ["--k", "--stable-range"])
    def test_estimation_options_read_the_same_in_every_help(self, capsys, monkeypatch, option):
        monkeypatch.setenv("COLUMNS", "400")  # one line per option
        helps = set()
        for command in ("compute", "estimate-sos", "demo"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            # the help text follows the option's metavar, on its line or the next
            entry = re.search(rf"^  {option} \S+\s+(.+)$", capsys.readouterr().out, re.M)
            helps.add(entry.group(1))
        assert len(helps) == 1, helps

    @pytest.mark.parametrize("content, kind", [
        (None, "FileNotFoundError"),
        (b"t,a\n1,1\n2,x\n", "ParseError"),
        (b"t,a\n1,1\n2,\xff\n", "ParseError"),
        (b"t,a\n1,1\n2,2\n4,3\n", "NonUniformTimeAxis"),
    ], ids=["missing", "bad_cell", "not_utf8", "time_gap"])
    @pytest.mark.parametrize("command", ["compute", "estimate-sos"])
    def test_bad_input_exits_1_naming_the_file(self, capsys, tmp_path, command, content, kind):
        path = tmp_path / "in.csv"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run([command, str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {kind}: ")
        assert str(path) in err

    @pytest.mark.parametrize("command, pair", [
        ("estimate-sos", "7:8"),   # one row in the data, one past it
        ("compute", "0:99"),       # past the last of the 8 data rows
    ])
    def test_stable_range_the_data_cannot_hold_exits_1_naming_the_pair(
        self, worked_csv_path, capsys, command, pair
    ):
        code, out, err = run([command, str(worked_csv_path), f"--stable-range={pair}"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: DegenerateRange: stable_range {pair} must lie within 0:7 (8 points) "
            "and hold at least 2"
        ]

    def test_internal_value_error_is_not_a_usage_error(self, worked_csv_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("broken invariant")

        monkeypatch.setattr(cli, "sliding_fi", broken)
        with pytest.raises(ValueError, match="broken invariant"):
            main(["compute", str(worked_csv_path), "--sos", "0.5,1"])

    def test_process_statuses_and_no_traceback(self, worked_csv_path, tmp_path):
        # runs the __main__ block as -m does, with an atexit handler that runs
        # after the process entry has exited; a usage error leaves before the freeze
        code = ("import atexit, gc, runpy; "
                "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0)); "
                "runpy.run_module('fisherinfo.cli', run_name='__main__')")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,a\n1,\xff\n")
        for argv, status in ((["compute", str(worked_csv_path), "--sos", "0.5,1"], 0),
                             (["compute", MISSING, "--window-size", "1"], 2),
                             (["compute", str(bad)], 1)):
            done = subprocess.run([sys.executable, "-c", code, *argv],
                                  env=child_env(), capture_output=True, text=True, timeout=60)
            assert done.returncode == status, done.stderr
            assert ("error: " in done.stderr) == (status != 0)
            assert "Traceback" not in done.stderr
            assert done.stdout.splitlines()[-1] == f"frozen: {status != 2}"


# values every option is tried with, besides valid ones
ODD_VALUES = ["--", "-", "", "nan", "inf", "-inf", "0", "-1", "1e999", "\u00e9t\u00e9"]
VALID_VALUES = {
    "--window-size": ["4", "8"],
    "--increment": ["1", "3"],
    "--sos": ["0.5,1"],
    "--k": ["2", "0.5"],
    "--stable-range": ["0:5"],
    "--slope-tol": ["0.02", "1"],
    "--slope-range": ["1:12", "1961:2013"],
    "--out-csv": ["fi.csv"],
    "--out-json": ["fi.json"],
    "--plot": ["fi.svg"],
    "--out": ["series.csv"],
    "--country": ["USA"],
    "--indicator": ["SP.POP.TOTL"],
    "--start": ["1960"],
    "--end": ["2013"],
    "--cache-dir": [str(wb.fixture_cache_dir())],
}
OUTPUTS = ("--out-csv", "--out-json", "--plot", "--out")


@st.composite
def argvs(draw):
    """A subcommand and up to four of its options, each valid or odd, in either form.

    --live is never drawn and fetch always runs --offline, so no run goes online.
    """
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = {"compute": ["compute", "in.csv"], "estimate-sos": ["estimate-sos", "in.csv"],
            "demo": ["demo"], "fetch": ["fetch", "--offline"]}[command]
    written = {}
    options = [pair for pair in OPTIONS[command] if pair[0] != "--live"]
    for option, takes_value in draw(st.lists(st.sampled_from(options), unique=True, max_size=4)):
        if not takes_value:
            argv.append(option)
            continue
        value = draw(st.sampled_from(VALID_VALUES[option] + ODD_VALUES))
        argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
        written[option] = value
    return command, argv, written


class TestArgumentGrammar:
    @given(argvs())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_argv_exits_2_before_a_read_or_runs_cleanly(self, case):
        command, argv, written = case
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, counted_reads() as readers, \
                mock.patch.object(wb, "_get_json", side_effect=AssertionError("network")):
            os.chdir(tmp)
            try:
                Path("in.csv").write_text(
                    "t,a,b\n" + "".join(f"{t},{t % 3},{t % 5 / 2}\n" for t in range(1, 13)))
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                        assert code == 2, err.getvalue()
                        assert err.getvalue().startswith(f"usage: fisherinfo {command} [-h]")
                        assert not any(reader.called for reader in readers)
                        return
                assert code in (0, 1), code
                errors = [line for line in err.getvalue().splitlines()
                          if line.startswith("error:")]
                assert len(errors) == code, err.getvalue()
                if code == 0:
                    for option in OUTPUTS:
                        if written.get(option):
                            assert Path(written[option]).is_file(), option
            finally:
                os.chdir(cwd)


class TestProcessEntry:
    """run() is the process entry; it alone touches the garbage collector."""

    @pytest.mark.parametrize("status", [0, 1, 2])
    def test_main_leaves_the_collector_alone(self, worked_csv_path, capsys, status):
        argv = {0: ["compute", str(worked_csv_path), "--sos", "0.5,1"],
                1: ["compute", MISSING],
                2: ["compute", MISSING, "--window-size", "1"]}[status]
        before = gc.isenabled(), gc.get_freeze_count()
        if status == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == status
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_run_exits_with_mains_status_after_the_freeze(self, worked_csv_path, capsys):
        argv = ["fisherinfo", "compute", str(worked_csv_path), "--sos", "0.5,1"]
        try:
            with mock.patch.object(sys, "argv", argv), pytest.raises(SystemExit) as exc:
                cli.run()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("1 index point(s), 8..8, window 8")

    def test_module_run_as_main_calls_run(self, worked_csv_path, capsys):
        argv = ["fisherinfo.cli", "compute", str(worked_csv_path), "--sos", "0.5,1"]
        try:
            # runpy warns that it runs a module that is already imported
            with mock.patch.object(sys, "argv", argv), pytest.raises(SystemExit) as exc, \
                    pytest.warns(RuntimeWarning, match="'fisherinfo.cli' found in sys.modules"):
                runpy.run_module("fisherinfo.cli", run_name="__main__")
        finally:
            gc.unfreeze()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("1 index point(s), 8..8, window 8")

    def test_console_script_is_run(self):
        # read as text: Python 3.10 has no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        entries = [line.replace(" ", "") for line in section.splitlines() if line.strip()]
        assert entries == ['fisherinfo="fisherinfo.cli:run"']


class TestDeterminism:
    def test_compute_outputs_byte_identical(self, worked_csv_path, capsys, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            csv_p = tmp_path / f"{tag}.csv"
            json_p = tmp_path / f"{tag}.json"
            svg_p = tmp_path / f"{tag}.svg"
            code, _, _ = run(
                ["compute", str(worked_csv_path), "--sos", "0.5,1",
                 "--out-csv", str(csv_p), "--out-json", str(json_p),
                 "--plot", str(svg_p)],
                capsys,
            )
            assert code == 0
            blobs.append((csv_p.read_bytes(), json_p.read_bytes(), svg_p.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_demo_outputs_byte_identical(self, capsys, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            json_p = tmp_path / f"{tag}.json"
            code, _, _ = run(
                ["demo", "--sos", PUBLISHED_SOS, "--out-json", str(json_p)], capsys
            )
            assert code == 0
            blobs.append(json_p.read_bytes())
        assert blobs[0] == blobs[1]


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
