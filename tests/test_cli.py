import json

import pytest

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

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(["compute", "/no/such/file.csv"], capsys)
        assert code == 1
        assert "file.csv" in err

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

    def test_reversed_years_exit_2(self, capsys):
        code, _, err = run(["fetch", "--start", "2010", "--end", "2000"], capsys)
        assert code == 2
        assert "exceeds" in err


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
