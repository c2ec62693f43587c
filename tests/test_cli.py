import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import fisherinfo
import fisherinfo.cli as cli
import fisherinfo.io as fio
import fisherinfo.worldbank as wb
from fisherinfo import SosPrecedenceWarning
from fisherinfo.cli import main

from conftest import WORKED_CSV

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
        with mock.patch.object(fio, "format_time_label", wraps=fio.format_time_label) as in_io, \
                mock.patch.object(cli, "format_time_label", wraps=cli.format_time_label) as in_cli:
            code, out, _ = run(["compute", str(path), "--sos", "1", *outputs], capsys)
        assert code == 0
        assert "200 index point(s), 8..207" in out
        # one column for both writers and the SVG's ticks; stdout renders what
        # it prints (first, last, the verdict's range, the peaks) as columns too
        assert in_io.call_count <= 200 + 10
        assert in_cli.call_count == 0

    def test_digest_is_of_the_bytes_read_from_a_pipe(self, tmp_path):
        src = str(Path(fisherinfo.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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
        src = str(Path(fisherinfo.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
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
        assert err == f"error: ParseError: {bad}: line 12, column 'value': non-finite value nan\n"
        assert out == ""

    def test_cache_dir_env_override(self, capsys, tmp_path, monkeypatch):
        from fisherinfo.worldbank import CACHE_DIR_ENV

        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        code, _, err = run(["demo"], capsys)
        assert code == 1
        assert "NetworkError" in err


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

    @pytest.mark.parametrize("bad_line", ["1961,lots", "1961"], ids=["non_numeric", "one_cell"])
    def test_malformed_cache_exits_1_naming_file_line_and_column(
        self, capsys, tmp_path, bad_line
    ):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        path = wb.cache_path(req, tmp_path)
        path.write_text(f"year,value\n1960,1.0\n{bad_line}\n")
        code, _, err = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "ParseError" in err
        assert f"{path}: line 3, column 'value'" in err

    def test_non_utf8_cache_exits_1_naming_the_file(self, capsys, tmp_path):
        req = wb.IndicatorRequest(wb.DEMO_COUNTRY, wb.TOTAL_POPULATION, wb.DEMO_YEARS)
        path = wb.cache_path(req, tmp_path)
        path.write_bytes(b"year,value\n1960,\xff\n")
        code, _, err = run(
            ["fetch", "--indicator", "SP.POP.TOTL", "--offline", "--cache-dir", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err == f"error: ParseError: {path}: not UTF-8 text (invalid start byte)\n"

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


MISSING = "/no/such/input.csv"


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
    ])
    def test_bad_argument_exits_2_even_without_input(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "No such file" not in err

    @pytest.mark.parametrize("argv", [
        ["compute", MISSING, "--window-size", "1"],
        ["estimate-sos", MISSING, "--k", "0"],
        ["demo", "--cache-dir", MISSING, "--increment", "0"],
        ["fetch", "--offline", "--cache-dir", MISSING, "--country", ""],
    ], ids=["compute", "estimate-sos", "demo", "fetch"])
    def test_refused_value_prints_the_subcommand_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fisherinfo {argv[0]} [-h]")
        assert f"\nfisherinfo {argv[0]}: error: " in err

    @pytest.mark.parametrize("pair", ["nan:5", "5:nan", "nan:nan"])
    def test_nan_slope_range_bound_exits_2_before_reading_input(self, capsys, pair):
        with pytest.raises(SystemExit) as exc:
            main(["compute", MISSING, f"--slope-range={pair}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fisherinfo compute [-h]")
        assert f"error: argument --slope-range: need first <= last, got '{pair}'" in err
        assert "No such file" not in err

    @pytest.mark.parametrize("command", ["compute", "estimate-sos"])
    def test_negative_stable_range_reaches_its_check_in_the_equals_form(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, MISSING, "--stable-range=-1:3"])
        assert exc.value.code == 2
        assert ("error: stable_range must satisfy 0 <= first <= last, got -1:3"
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
        ("estimate-sos", "4:4"),   # one row
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

    def test_process_statuses_and_no_traceback(self, tmp_path):
        src = str(Path(fisherinfo.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,a\n1,\xff\n")
        for argv, status in ((["compute", MISSING, "--window-size", "1"], 2),
                             (["compute", str(bad)], 1)):
            done = subprocess.run([sys.executable, "-m", "fisherinfo.cli", *argv],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == status, done.stderr
            assert "error: " in done.stderr
            assert "Traceback" not in done.stderr


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
