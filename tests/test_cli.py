"""Command-line interface: report round-trips, formats, exit codes."""

import csv
import io
import json
import math

import pytest

import cyclewindow.cli as cli
from cyclewindow import __version__
from cyclewindow.cli import Report, emit_figure_data, run
from cyclewindow.errors import DomainError, ToleranceNotMet


def run_capture(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestReport:
    def test_json_round_trip(self):
        rep = Report(command="qp", params={"r": 3, "lam": 0.25},
                     results={"pmf": [0.5, 0.25, 0.25]}, elapsed_ms=1.25,
                     seed=7)
        back = Report.from_json(rep.to_json())
        assert back == rep

    def test_json_omits_null_sections(self):
        rep = Report(command="x", params={}, results={"v": 1.0})
        data = json.loads(rep.to_json())
        assert "errors" not in data and "seed" not in data
        assert data["version"] == __version__

    def test_table_contains_values(self):
        rep = Report(command="qp", params={"r": 2},
                     results={"pmf": [0.25, 0.5, 0.25], "window": [2, 3]})
        text = rep.to_table()
        assert "pmf:" in text and "0: 0.25" in text
        assert "window: [2, 3]" in text  # short lists shown inline

    def test_csv_keeps_longest_aligned_lists(self):
        rep = Report(command="exact-pmf", params={},
                     results={"window": [2, 4], "pmf": [0.5, 0.25, 0.25]})
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0] == ["i", "pmf"]
        assert rows[1] == ["0", "0.5"]
        assert len(rows) == 4


class TestSubcommands:
    def test_limit_pmf_worked_example(self, capsys):
        rc, out, _ = run_capture(capsys, "limit-pmf", "--gamma", "1/4",
                                 "--delta", "1/3", "--json")
        assert rc == 0
        pmf = json.loads(out)["results"]["pmf"]
        want = (0.749730273494709, 0.216825522017386, 0.0294760630293188,
                0.00396814145858568)
        assert len(pmf) == 5
        for a, b in zip(pmf, want):
            assert a == pytest.approx(b, abs=1e-4)

    def test_qp_matches_library(self, capsys):
        rc, out, _ = run_capture(capsys, "qp", "--r", "3", "--lambda",
                                 "0.28768207245178093", "--json")
        assert rc == 0
        pmf = json.loads(out)["results"]["pmf"]
        assert pmf[0] == pytest.approx(0.749730273494709, abs=1e-12)

    def test_exact_pmf_rational(self, capsys):
        rc, out, _ = run_capture(capsys, "exact-pmf", "--n", "4", "--gamma",
                                 "1/2", "--delta", "1", "--exact-rational",
                                 "--json")
        assert rc == 0
        res = json.loads(out)["results"]
        assert res["window"] == [2, 4]
        assert res["pmf"] == ["1/24", "5/6", "1/8"]

    def test_exact_moment(self, capsys):
        rc, out, _ = run_capture(capsys, "exact-moment", "--n", "10",
                                 "--a", "6", "--b", "10", "--r", "1",
                                 "--json")
        assert rc == 0
        res = json.loads(out)["results"]
        assert res["moment"] == "1627/2520"
        assert res["moment_float"] == pytest.approx(1627 / 2520, abs=1e-15)

    def test_limit_moment_with_error(self, capsys):
        rc, out, _ = run_capture(capsys, "limit-moment", "--r", "2",
                                 "--gamma", "0.4", "--delta", "1", "--json")
        assert rc == 0
        rep = json.loads(out)
        assert rep["results"]["q_r"] == pytest.approx(0.0932205874128116,
                                                      abs=1e-9)
        assert 0 <= rep["errors"]["estimate"] < 1e-9

    def test_gamma_star(self, capsys):
        rc, out, _ = run_capture(capsys, "gamma-star", "--json")
        assert rc == 0
        res = json.loads(out)["results"]
        assert res["gamma_star"] == pytest.approx(0.37754066879814544,
                                                  abs=1e-9)
        assert res["P1"] == pytest.approx(0.828499506858, abs=1e-6)

    def test_sample_deterministic_and_seed_echoed(self, capsys):
        args = ("sample", "--n", "50", "--gamma", "1/4", "--delta", "1/2",
                "--draws", "2000", "--seed", "31", "--json")
        rc1, out1, _ = run_capture(capsys, *args)
        rc2, out2, _ = run_capture(capsys, *args)
        assert rc1 == rc2 == 0
        rep1, rep2 = json.loads(out1), json.loads(out2)
        assert rep1["seed"] == 31
        assert rep1["results"]["counts"] == rep2["results"]["counts"]
        assert rep1["results"]["window"] == [13, 25]

    def test_buchstab(self, capsys):
        rc, out, _ = run_capture(capsys, "buchstab", "--u", "3", "--json")
        assert rc == 0
        assert json.loads(out)["results"]["omega"] == pytest.approx(
            (1 + math.log(2)) / 3, abs=1e-10)

    def test_dilog(self, capsys):
        rc, out, _ = run_capture(capsys, "dilog", "--x", "1", "--json")
        assert rc == 0
        assert json.loads(out)["results"]["Li2"] == pytest.approx(
            math.pi ** 2 / 6, abs=1e-14)

    def test_ewens_lambda(self, capsys):
        rc, out, _ = run_capture(capsys, "ewens-lambda", "--gamma", "1/4",
                                 "--delta", "1/2", "--sigma", "2", "--json")
        assert rc == 0
        assert json.loads(out)["results"]["lambda"] == pytest.approx(
            math.log(2) - 0.25, abs=1e-10)

    def test_table_output_default(self, capsys):
        rc, out, _ = run_capture(capsys, "qp", "--r", "2", "--lambda", "0.5")
        assert rc == 0
        assert "command: qp" in out and "pmf" in out

    def test_version(self, capsys):
        assert run(["--version"]) == 0
        assert __version__ in capsys.readouterr().out


class TestFigure:
    def test_rows_are_normalized_and_finite(self, capsys):
        rc, out, _ = run_capture(capsys, "figure", "--lo", "0.3334",
                                 "--hi", "1", "--points", "200", "--json")
        assert rc == 0
        rep = json.loads(out)
        assert rep["results"]["rows_columns"] == ["gamma", "P0", "P1", "P2"]
        rows = rep["results"]["rows"]
        assert len(rows) == 200
        for g, p0, p1, p2 in rows:
            assert all(math.isfinite(v) and v >= -1e-12
                       for v in (p0, p1, p2)), g
            assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-8), g

    def test_continuous_across_half(self, capsys):
        lo = emit_figure_data(0.499, 0.501, 3)
        p_lo, p_hi = lo[0], lo[-1]
        assert p_lo[1] == pytest.approx(p_hi[1], abs=5e-2)

    def test_default_format_is_csv(self, capsys):
        rc, out, _ = run_capture(capsys, "figure", "--lo", "0.4", "--hi",
                                 "0.9", "--points", "5")
        assert rc == 0
        header = out.splitlines()[0]
        assert header == "gamma,P0,P1,P2"
        assert len(out.splitlines()) == 6

    def test_domain(self):
        with pytest.raises(DomainError):
            emit_figure_data(0.2, 0.9, 10)
        with pytest.raises(DomainError):
            emit_figure_data(0.4, 1.1, 10)
        with pytest.raises(DomainError):
            emit_figure_data(0.4, 0.9, 1)


class TestExitCodes:
    def test_domain_error_exits_2(self, capsys):
        rc, _, err = run_capture(capsys, "limit-pmf", "--gamma", "0.5",
                                 "--delta", "0.4")
        assert rc == 2
        assert "error:" in err

    def test_non_finite_sigma_exits_2(self, capsys):
        rc, _, err = run_capture(capsys, "sample", "--n", "10", "--gamma",
                                 "1/4", "--delta", "1/2", "--draws", "100",
                                 "--seed", "1", "--sigma", "inf")
        assert rc == 2
        assert "error:" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["no-such-command"]) == 2

    def test_missing_required_arg_exits_2(self, capsys):
        assert run(["qp", "--r", "3"]) == 2

    def test_tolerance_failure_exits_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ToleranceNotMet("quadrature stalled", value=0.1,
                                  achieved=1e-9, requested=1e-11)
        monkeypatch.setattr(cli, "sliced_cube_integral", boom)
        rc, _, err = run_capture(capsys, "limit-moment", "--r", "2",
                                 "--gamma", "0.4", "--delta", "1")
        assert rc == 3
        assert "achieved" in err

    def test_csv_exact_pmf_header(self, capsys):
        rc, out, _ = run_capture(capsys, "exact-pmf", "--n", "4", "--gamma",
                                 "0.5", "--delta", "1", "--csv")
        assert rc == 0
        assert out.splitlines()[0] == "i,pmf"
