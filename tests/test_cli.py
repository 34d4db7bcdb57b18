"""Command-line interface: report round-trips, formats, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cyclewindow.cli as cli
from cyclewindow import __version__, limit_integrals
from cyclewindow.cli import Report, emit_figure_data, run
from cyclewindow.errors import DomainError, ToleranceNotMet
from cyclewindow.exact_finite import IntWindow, exact_falling_moment
from cyclewindow.limit_integrals import Interval, p_limit


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

    def test_table_shows_a_rows_result_row_by_row(self):
        rep = Report(command="figure", params={},
                     results={"rows": [[0.25, 0.5], [0.75, 1.0]], "rows_columns": ["a", "b"]})
        lines = rep.to_table().splitlines()
        assert lines[1:4] == ["rows:", "  0.25  0.5", "  0.75  1.0"]

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

    def test_qp_past_support_170(self, capsys):
        rc, out, err = run_capture(capsys, "qp", "--r", "200", "--lambda", "0.5",
                                   "--json")
        assert rc == 0, err
        pmf = json.loads(out)["results"]["pmf"]
        assert len(pmf) == 201
        assert pmf[1] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-14)

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

    def test_limit_moment_above_the_slice_is_zero(self, capsys):
        rc, out, _ = run_capture(capsys, "limit-moment", "--r", "1000000000",
                                 "--gamma", "1/2", "--delta", "1", "--json")
        assert rc == 0
        assert json.loads(out)["results"]["q_r"] == 0.0

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
        assert rep1["results"]["variates"] == rep2["results"]["variates"] > 2000

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

    @pytest.mark.parametrize("lo,hi,points", [
        (0.34, 1.0, 400), (1 / 3, 1.0, 300), (0.499, 0.501, 3), (0.6, 0.9, 50)])
    def test_rows_match_per_window_p_limit(self, lo, hi, points):
        # the rows are read off one ladder for (lo, 1]; each must match the
        # pmf of its own window (gamma, 1], zero-padded to P0..P2; at
        # gamma = 1 the window is empty and no cycle falls in it
        rows = emit_figure_data(lo, hi, points)
        assert len(rows) == points
        for g, *got in rows:
            want = (1.0, 0.0, 0.0) if g == 1.0 else (
                p_limit(Interval(g, 1.0)).as_floats() + (0.0,) * 2)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15, g

    def test_one_steps_pass_and_no_ladder_or_p_limit(self, monkeypatch):
        # every row is read off one pass of the steps: no table is built, no
        # moment is inverted and p_limit is never called
        steps, step = [], cli._steps_pmf

        def boom(*args, **kwargs):
            raise AssertionError("called")

        for module, name in [(limit_integrals, "_antiderivative"), (limit_integrals, "_ladder"),
                             (limit_integrals, "pmf_from_falling_moments"),
                             (limit_integrals, "p_limit"), (cli, "p_limit")]:
            monkeypatch.setattr(module, name, boom)
        monkeypatch.setattr(cli, "_steps_pmf", lambda *args: steps.append(args) or step(*args))
        assert len(emit_figure_data(0.34, 1.0, 400)) == 400
        assert len(steps) == 1 and len(steps[0][0]) == 400

    def test_rows_match_the_closed_form(self):
        # on (gamma, 1] with 1/3 <= gamma <= 1/2: q1 = -ln gamma, q2 from the
        # dilogarithm closed form and q3 = 0, so P2 = q2/2, P1 = q1 - q2 and
        # P0 = 1 - q1 + q2/2; a route that shares no code with the steps
        rows = emit_figure_data(1 / 3, 0.5, 2000)
        assert len(rows) == 2000
        for g, p0, p1, p2 in rows:
            q1, q2 = -math.log(g), limit_integrals.q2_closed_form(Interval(g, 1.0))
            want = (1.0 - q1 + q2 / 2, q1 - q2, q2 / 2)
            assert max(abs(a - b) for a, b in zip((p0, p1, p2), want)) <= 1e-14, g

    @pytest.mark.parametrize("lo,hi,points", [(0.34, 1.0, 400), (1 / 3, 1.0, 10**5)])
    def test_rows_equal_the_per_row_construction(self, lo, hi, points):
        # gammas in Python floats in the same order of operations, and a list per row
        gammas = [lo + (hi - lo) * j / (points - 1) for j in range(points)]
        pmfs = cli._steps_pmf([1 / g for g in gammas], 2).tolist()
        rows = emit_figure_data(lo, hi, points)
        assert rows == [[g, *p] for g, p in zip(gammas, pmfs)]
        assert all(type(v) is float for row in rows for v in row)

    @pytest.mark.parametrize("lo,hi,points", [
        (1 / 3, 1.0, 3001), (1 / 3, 1 / 3 + 1e-9, 50), (0.34, 1.0, 400), (0.5, 1.0, 7)])
    def test_every_row_sums_to_one(self, lo, hi, points):
        # a row is the whole pmf of (gamma, 1]: below gamma = 1/3 the rows cut
        # off P3, and (1/3 - 1e-3, 0.34] summed to 1 - 2.03e-8
        for g, *p in emit_figure_data(lo, hi, points):
            assert len(p) == 3 and abs(math.fsum(p) - 1.0) <= 1e-15, g

    def test_lo_below_one_third_refused(self, capsys):
        with pytest.raises(DomainError, match="1/3"):
            emit_figure_data(1 / 3 - 1e-3, 0.34, 2)
        rc, _, err = run_capture(capsys, "figure", "--lo", "0.3333", "--hi", "1",
                                 "--points", "5")
        assert rc == 2 and "error:" in err

    def test_points_over_the_cap_exit_2(self, capsys):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "figure", "--lo", "0.34", "--hi", "1",
                                 "--points", "1000000000")
        assert rc == 2
        assert "error:" in err and "points" in err
        assert time.perf_counter() - t0 < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            emit_figure_data(0.2, 0.9, 10)
        with pytest.raises(DomainError):
            emit_figure_data(0.4, 1.1, 10)
        with pytest.raises(DomainError):
            emit_figure_data(0.4, 0.9, 1)

    @pytest.mark.parametrize("points", [3.5, 4.0, "4"])
    def test_non_integer_points_refused(self, points):
        # 3.5 gave 4 rows, the last at gamma = 1.132, past hi and outside (0, 1]
        with pytest.raises(DomainError, match="points must be an integer"):
            emit_figure_data(0.34, 1.0, points)


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

    def test_negative_seed_exits_2(self, capsys):
        rc, _, err = run_capture(capsys, "sample", "--n", "10", "--gamma",
                                 "1/4", "--delta", "1/2", "--draws", "10",
                                 "--seed", "-1")
        assert rc == 2
        assert "error:" in err and "seed" in err

    def test_nan_sigma_ewens_lambda_exits_2(self, capsys):
        rc, _, err = run_capture(capsys, "ewens-lambda", "--gamma", "1/4",
                                 "--delta", "1/3", "--sigma", "nan")
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [("limit-moment", "--r", "2"), ("ewens-lambda", "--sigma", "2")])
    def test_gamma_below_float64_exits_2(self, capsys, argv):
        # these exited 1 with a ZeroDivisionError or ValueError traceback
        rc, out, err = run_capture(capsys, *argv, "--gamma", "1/1e400", "--delta", "1/2")
        assert rc == 2
        assert out == "" and "error:" in err and "underflows float64" in err

    @pytest.mark.parametrize("argv", [
        ("exact-pmf", "--n", "10"), ("sample", "--n", "10", "--draws", "10", "--seed", "0")])
    def test_gamma_below_float64_runs_the_finite_routes(self, capsys, argv):
        rc, out, _ = run_capture(capsys, *argv, "--gamma", "1/1e400", "--delta", "1/2", "--json")
        assert rc == 0
        assert json.loads(out)["results"]["window"] == [1, 5]

    def test_overflowing_ewens_lambda_exits_2(self, capsys):
        # about 1/sigma on (1/4, 1]: this printed "lambda": Infinity, which is
        # not JSON, and exited 0
        rc, out, err = run_capture(capsys, "ewens-lambda", "--gamma", "1/4", "--delta",
                                   "1", "--sigma", "5e-324", "--json")
        assert rc == 2
        assert out == "" and "error:" in err and "sigma" in err

    def test_oversized_exact_pmf_exits_2(self, capsys):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "exact-pmf", "--n", "1000000",
                                 "--gamma", "1/1000000", "--delta", "1")
        assert rc == 2
        assert "error:" in err and "n = 1000000" in err
        assert time.perf_counter() - t0 < 1.0

    def test_oversized_limit_pmf_exits_2(self, capsys):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "limit-pmf", "--gamma", "1/5000",
                                 "--delta", "1")
        assert rc == 2
        assert "error:" in err and "ladder" in err
        assert time.perf_counter() - t0 < 1.0

    def test_oversized_sample_exits_2(self, capsys):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "sample", "--n", "1000000000", "--gamma",
                                 "1/4", "--delta", "1/2", "--draws", "10",
                                 "--seed", "1")
        assert rc == 2
        assert "error:" in err and "n = 1000000000" in err
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("n,a", [("20000", "10"), ("100000", "1")])
    def test_oversized_exact_moment_exits_2(self, capsys, n, a):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "exact-moment", "--n", n, "--a", a,
                                 "--b", n, "--r", "2")
        assert rc == 2
        assert "error:" in err and f"n = {n}" in err
        assert time.perf_counter() - t0 < 1.0

    def test_once_oversized_exact_moment_runs(self, capsys):
        # the convolution route refused this call; the recurrence takes milliseconds
        t0 = time.perf_counter()
        rc, out, _ = run_capture(capsys, "exact-moment", "--n", "800", "--a", "1",
                                 "--b", "400", "--r", "10", "--json")
        assert time.perf_counter() - t0 < 1.0
        assert rc == 0
        assert json.loads(out)["results"]["moment"] == \
            str(exact_falling_moment(800, IntWindow(1, 400), 10))

    def test_tol_is_not_an_option(self, capsys):
        assert run(["ewens-lambda", "--gamma", "1/4", "--delta", "1/3",
                    "--sigma", "2", "--tol", "1e-9"]) == 2

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

    @pytest.mark.parametrize("u", ["inf", "nan"])
    def test_non_finite_buchstab_exits_2(self, capsys, u):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "buchstab", "--u", u)
        assert rc == 2
        assert "error:" in err
        assert time.perf_counter() - t0 < 1.0

    def test_zero_denominator_exits_2(self, capsys):
        rc, _, err = run_capture(capsys, "limit-pmf", "--gamma", "1/0", "--delta", "1")
        assert rc == 2
        assert "--gamma" in err and "Traceback" not in err

    def test_bad_ratio_is_named_as_a_ratio(self, capsys):
        rc, _, err = run_capture(capsys, "limit-pmf", "--gamma", "1/x", "--delta", "1")
        assert rc == 2
        assert "invalid ratio value: '1/x'" in err

    def test_ratio_with_a_decimal_part_is_exact(self, capsys):
        # the near-cap window (1/990.5, 0.9] once exited 2, "invalid _ratio value"
        rc, out, _ = run_capture(capsys, "limit-pmf", "--gamma", "1/990.5", "--delta", "0.9",
                                 "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["params"]["gamma"] == "2/1981" and data["results"]["support"] == 990
        assert data["results"]["pmf"] == list(p_limit(Interval(1 / 990.5, 0.9)).as_floats())

    @pytest.mark.parametrize("gamma,delta", [("nan", "1"), ("inf", "1"), ("-1", "1/2"),
                                             ("1/2", "1/2"), ("0.2", "2")])
    def test_window_outside_interval_rule_exits_2(self, capsys, gamma, delta):
        for cmd in (("exact-pmf",), ("sample", "--draws", "10", "--seed", "1")):
            rc, _, err = run_capture(capsys, *cmd, "--n", "10", "--gamma", gamma,
                                     "--delta", delta)
            assert rc == 2
            assert "error:" in err

    def test_moment_that_lost_its_sign_exits_2(self, capsys):
        # once printed q_r: 0.0 next to an error estimate (5.1e87 at order 200)
        rc, out, err = run_capture(capsys, "limit-moment", "--r", "300",
                                   "--gamma", "1/1000", "--delta", "0.9")
        assert rc == 2
        assert "lost its sign" in err and out == ""

    def test_moment_that_underflows_prints_valid_json(self, capsys):
        # once printed q_r: 0.0 and estimate: NaN, which is not JSON; the true
        # value underflows, so 0.0 stands next to a finite estimate
        rc, out, _ = run_capture(capsys, "limit-moment", "--r", "999", "--gamma",
                                 "0.0010005", "--delta", "0.999", "--json")
        assert rc == 0
        data = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in {out}"))
        assert data["results"]["q_r"] == 0.0 and math.isfinite(data["errors"]["estimate"])

    def test_oversized_qp_exits_2(self, capsys):
        t0 = time.perf_counter()
        rc, _, err = run_capture(capsys, "qp", "--r", "1000000000", "--lambda", "0.5")
        assert rc == 2
        assert "error:" in err and "1000000000" in err
        assert time.perf_counter() - t0 < 1.0

    def test_csv_exact_pmf_header(self, capsys):
        rc, out, _ = run_capture(capsys, "exact-pmf", "--n", "4", "--gamma",
                                 "0.5", "--delta", "1", "--csv")
        assert rc == 0
        assert out.splitlines()[0] == "i,pmf"

    def test_csv_scalars_are_name_value_rows(self, capsys):
        rc, out, _ = run_capture(capsys, "gamma-star", "--csv")
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [row[0] for row in rows] == ["name", "gamma_star", "P0", "P1", "P2"]
        assert float(rows[1][1]) == pytest.approx(1 / (1 + math.exp(0.5)), abs=1e-9)


def _package_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["cyclewindow", "cyclewindow.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run([sys.executable, "-m", module, "gamma-star", "--json"],
                          capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)["results"]["gamma_star"]
    assert got == pytest.approx(1.0 / (1.0 + math.exp(0.5)), abs=1e-12)


def test_python_dash_m_refuses_a_sigma_the_walk_cannot_bucket():
    # at sigma = 1e-310 the hazard total is subnormal; this once ran 1.2 s of n-pass lookups
    proc = subprocess.run([sys.executable, "-m", "cyclewindow", "sample", "--n", "400000",
                           "--gamma", "1/4", "--delta", "1/2", "--sigma", "1e-310",
                           "--draws", "1000", "--seed", "0"],
                          capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "error:" in proc.stderr and "n = 400000" in proc.stderr


def _readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command-line interface", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split(">")[0].split()[1:]
            for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_block_matches_the_subcommand_table(capsys):
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == set(cli.SUBCOMMANDS)
    for argv in commands:
        rc, out, err = run_capture(capsys, *argv, "--json")
        assert rc == 0, (argv, err)
        declared = [opt.replace("-", "_") for opt in cli.SUBCOMMANDS[argv[0]][1]]
        assert list(json.loads(out)["params"]) == [k for k in declared if k != "seed"]


def test_readme_cli_block_prints_plain_numbers(capsys):
    # the table format prints floats by repr, so a numpy scalar would show
    # as np.float64(...) under numpy 2
    for argv in _readme_cli_commands():
        rc, out, err = run_capture(capsys, *(a for a in argv if a != "--json"))
        assert rc == 0, (argv, err)
        assert "np.float64(" not in out, argv


def test_import_raises_no_warning():
    # the rule is built at import; a deprecation warning there fails the import
    proc = subprocess.run([sys.executable, "-W", "error", "-c", "import cyclewindow"],
                          capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
