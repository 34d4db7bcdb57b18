"""Command-line interface: compute, compare, and export the distributions.

Every subcommand prints a Report: a human table by default, machine JSON with
--json, CSV with --csv (the `figure` subcommand defaults to CSV since its
output is a data file).  Exit codes: 0 success, 2 argument or domain errors,
3 quadrature tolerance not met (the achieved error is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .errors import DomainError, InvalidMomentsError, ToleranceNotMet
from .exact_finite import IntWindow, exact_falling_moment, exact_pmf, normalized_window
from .limit_integrals import (
    Interval, QuadratureConfig, argmax_p, ewens_lambda, gamma_star, p_limit,
    q2_closed_form, sliced_cube_integral,
)
from .quasi_poisson import qp_pmf
from .sampler import estimate_pmf
from .special_fn import buchstab, dilog


@dataclass
class Report:
    """One command's results; fields restricted to JSON-native values only."""

    command: str
    params: dict
    results: dict
    errors: dict | None = None
    elapsed_ms: float = 0.0
    seed: int | None = None
    version: str = __version__

    def to_json(self):
        payload = {
            "command": self.command,
            "params": self.params,
            "results": self.results,
        }
        if self.errors is not None:
            payload["errors"] = self.errors
        payload["elapsed_ms"] = self.elapsed_ms
        if self.seed is not None:
            payload["seed"] = self.seed
        payload["version"] = self.version
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(
            command=data["command"],
            params=data["params"],
            results=data["results"],
            errors=data.get("errors"),
            elapsed_ms=data["elapsed_ms"],
            seed=data.get("seed"),
            version=data["version"],
        )

    def to_table(self):
        lines = [f"command: {self.command}"]
        for key, val in self.params.items():
            lines.append(f"  {key} = {val}")
        for key, val in self.results.items():
            if isinstance(val, list) and val and isinstance(val[0], list):
                lines.append(f"{key}:")
                for row in val:
                    lines.append("  " + "  ".join(_fmt(x) for x in row))
            elif isinstance(val, list) and len(val) <= 2:
                lines.append(f"{key}: [{', '.join(_fmt(x) for x in val)}]")
            elif isinstance(val, list):
                lines.append(f"{key}:")
                for i, x in enumerate(val):
                    lines.append(f"  {i}: {_fmt(x)}")
            else:
                lines.append(f"{key}: {_fmt(val)}")
        if self.errors:
            for key, val in self.errors.items():
                lines.append(f"error[{key}]: {_fmt(val)}")
        lines.append(f"elapsed_ms: {self.elapsed_ms:.3f}")
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        lines.append(f"version: {self.version}")
        return "\n".join(lines)

    def to_csv(self):
        lists = {k: v for k, v in self.results.items()
                 if isinstance(v, list) and v and not isinstance(v[0], list)}
        rows_key = next((k for k, v in self.results.items()
                         if isinstance(v, list) and v and isinstance(v[0], list)), None)
        if rows_key is not None:
            header = self.results.get(rows_key + "_columns") or [
                f"c{j}" for j in range(len(self.results[rows_key][0]))]
            out = [",".join(header)]
            out += [",".join(_fmt(x) for x in row) for row in self.results[rows_key]]
            return "\n".join(out) + "\n"
        if lists:
            # columns are the longest aligned lists (drops short metadata
            # like a 2-entry window next to a pmf)
            length = max(len(v) for v in lists.values())
            keys = [k for k, v in lists.items() if len(v) == length]
            out = [",".join(["i"] + keys)]
            for i in range(length):
                out.append(",".join([str(i)] + [_fmt(lists[k][i]) for k in keys]))
            return "\n".join(out) + "\n"
        out = ["name,value"]
        out += [f"{k},{_fmt(v)}" for k, v in self.results.items()]
        return "\n".join(out) + "\n"


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _ratio(text):
    """Parse '1/3' exactly as a Fraction, or a decimal as float."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    return float(s)


def _cfg_from(args):
    tol = getattr(args, "tol", None)
    if tol is None:
        return None
    return QuadratureConfig(abs_tol=tol)


def _pmf_list(pmf, rational=False):
    if rational:
        return [str(p) for p in pmf.probs]
    return list(pmf.as_floats())


def emit_figure_data(lo, hi, points, cfg=None):
    """Rows (gamma, P0, P1, P2) of the limiting window (gamma, 1] pmf.

    Quadrature-backed below gamma = 1/2; closed forms P0 = 1 + ln(gamma),
    P1 = -ln(gamma), P2 = 0 at and above it.
    """
    if not (1 / 3 - 1e-3 <= lo < hi <= 1.0):
        raise DomainError(f"need 1/3 <= lo < hi <= 1, got ({lo}, {hi})")
    if points < 2:
        raise DomainError(f"need at least 2 points, got {points}")
    rows = []
    for j in range(points):
        g = lo + (hi - lo) * j / (points - 1)
        if g >= 0.5 - 1e-12:
            lg = math.log(g)
            rows.append([g, 1.0 + lg, -lg, 0.0])
        else:
            p = p_limit(Interval(g, 1.0), cfg).as_floats()
            p = p + (0.0,) * (3 - len(p))
            rows.append([g, p[0], p[1], p[2]])
    return rows


def _run_limit_pmf(args):
    iv = Interval(args.gamma, args.delta)
    pmf = p_limit(iv, _cfg_from(args))
    return Report(
        command="limit-pmf",
        params={"gamma": str(args.gamma), "delta": str(args.delta)},
        results={"pmf": _pmf_list(pmf), "support": len(pmf) - 1},
    )


def _run_limit_moment(args):
    iv = Interval(args.gamma, args.delta)
    val, err = sliced_cube_integral(args.r, iv, 1.0, _cfg_from(args),
                                    with_error=True)
    return Report(
        command="limit-moment",
        params={"r": args.r, "gamma": str(args.gamma), "delta": str(args.delta)},
        results={"q_r": val},
        errors={"estimate": err},
    )


def _run_exact_pmf(args):
    w = normalized_window(args.n, args.gamma, args.delta)
    rational = True if args.exact_rational else None
    pmf = exact_pmf(args.n, w, rational=rational)
    return Report(
        command="exact-pmf",
        params={"n": args.n, "gamma": str(args.gamma), "delta": str(args.delta),
                "exact_rational": bool(args.exact_rational)},
        results={"window": [w.a, w.b],
                 "pmf": _pmf_list(pmf, rational=bool(args.exact_rational))},
    )


def _run_exact_moment(args):
    val = exact_falling_moment(args.n, IntWindow(args.a, args.b), args.r)
    return Report(
        command="exact-moment",
        params={"n": args.n, "a": args.a, "b": args.b, "r": args.r},
        results={"moment": str(val), "moment_float": float(val)},
    )


def _run_qp(args):
    pmf = qp_pmf(args.r, args.lam)
    return Report(
        command="qp",
        params={"r": args.r, "lambda": args.lam},
        results={"pmf": _pmf_list(pmf)},
    )


def _run_sample(args):
    iv = Interval(args.gamma, args.delta)
    est = estimate_pmf(args.n, iv, args.sigma, args.draws, args.seed,
                       workers=args.workers)
    w = normalized_window(args.n, args.gamma, args.delta)
    return Report(
        command="sample",
        params={"n": args.n, "gamma": str(args.gamma), "delta": str(args.delta),
                "sigma": args.sigma, "draws": args.draws,
                "workers": args.workers},
        results={"window": [w.a, w.b], "counts": list(est.counts),
                 "pmf_hat": list(est.pmf_hat), "stderr": list(est.stderr),
                 "mean": est.mean, "mean_stderr": est.mean_stderr},
        seed=args.seed,
    )


def _run_gamma_star(args):
    g0 = gamma_star()
    p = p_limit(Interval(g0, 1.0), _cfg_from(args)).as_floats()
    return Report(
        command="gamma-star",
        params={},
        results={"gamma_star": g0, "P0": p[0], "P1": p[1], "P2": p[2]},
    )


def _run_argmax(args):
    g = argmax_p(args.i, args.lo, args.hi, _cfg_from(args))
    p = p_limit(Interval(g, 1.0), _cfg_from(args)).as_floats()
    val = p[args.i] if args.i < len(p) else 0.0
    return Report(
        command="argmax",
        params={"i": args.i, "lo": args.lo, "hi": args.hi},
        results={"argmax": g, "p_i": val},
    )


def _run_figure(args):
    rows = emit_figure_data(args.lo, args.hi, args.points, _cfg_from(args))
    return Report(
        command="figure",
        params={"lo": args.lo, "hi": args.hi, "points": args.points},
        results={"rows": rows, "rows_columns": ["gamma", "P0", "P1", "P2"]},
    )


def _run_buchstab(args):
    return Report(
        command="buchstab",
        params={"u": args.u},
        results={"omega": buchstab(args.u)},
    )


def _run_dilog(args):
    return Report(
        command="dilog",
        params={"x": args.x},
        results={"Li2": dilog(args.x)},
    )


def _run_ewens_lambda(args):
    iv = Interval(args.gamma, args.delta)
    val = ewens_lambda(iv, args.sigma, _cfg_from(args))
    return Report(
        command="ewens-lambda",
        params={"gamma": str(args.gamma), "delta": str(args.delta),
                "sigma": args.sigma},
        results={"lambda": val},
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclewindow",
        description="Distribution of the number of cycles of a random "
                    "permutation with normalized length in a window.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, default_format="table"):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler, default_format=default_format)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")
        return p

    p = add("limit-pmf", _run_limit_pmf)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--delta", type=_ratio, required=True)
    p.add_argument("--tol", type=float)

    p = add("limit-moment", _run_limit_moment)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--delta", type=_ratio, required=True)
    p.add_argument("--tol", type=float)

    p = add("exact-pmf", _run_exact_pmf)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--delta", type=_ratio, required=True)
    p.add_argument("--exact-rational", action="store_true")

    p = add("exact-moment", _run_exact_moment)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = add("qp", _run_qp)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)

    p = add("sample", _run_sample)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--delta", type=_ratio, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)

    add("gamma-star", _run_gamma_star).add_argument("--tol", type=float)

    p = add("argmax", _run_argmax)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--tol", type=float)

    p = add("figure", _run_figure, default_format="csv")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--tol", type=float)

    p = add("buchstab", _run_buchstab)
    p.add_argument("--u", type=float, required=True)

    p = add("dilog", _run_dilog)
    p.add_argument("--x", type=float, required=True)

    p = add("ewens-lambda", _run_ewens_lambda)
    p.add_argument("--gamma", type=_ratio, required=True)
    p.add_argument("--delta", type=_ratio, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--tol", type=float)

    return parser


def run(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        report = args.handler(args)
    except (DomainError, InvalidMomentsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceNotMet as exc:
        achieved = getattr(exc, "achieved", None)
        requested = getattr(exc, "requested", None)
        detail = f"tolerance not met: {exc}"
        if achieved is not None:
            detail += f" (achieved {achieved:.3e}"
            detail += f", requested {requested:.3e})" if requested is not None else ")"
        print(detail, file=sys.stderr)
        return 3
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        print(report.to_json())
    elif args.csv or args.default_format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_table())
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
