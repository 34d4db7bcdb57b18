"""Command-line interface: compute, compare, and export the distributions.

Each subcommand is one row of SUBCOMMANDS: a compute function and the options
it declares.  Every subcommand prints a Report: a
human table by default, machine JSON with --json, CSV with --csv (the `figure`
subcommand defaults to CSV since its output is a data file).  Exit codes:
0 success, 2 argument or domain errors, 3 quadrature tolerance not met (the
achieved error is printed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import DomainError, InvalidMomentsError, ToleranceNotMet
from .exact_finite import IntWindow, exact_falling_moment, exact_pmf, normalized_window
from .limit_integrals import (
    Interval, _steps_pmf, argmax_p, ewens_lambda, gamma_star, p_limit, sliced_cube_integral,
)
from .quasi_poisson import qp_pmf
from .sampler import estimate_pmf
from .special_fn import buchstab, dilog

FIGURE_MAX_POINTS = 10**5  # 10**5 rows take about 0.3 s on 2 vCPU, most of it in the steps


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
        """The fields in order as a JSON object; errors and seed only when set."""
        return json.dumps({k: v for k, v in asdict(self).items()
                           if v is not None or k not in ("errors", "seed")}, indent=2)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))

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
    """Parse 'a/b' exactly as Fraction(a) / Fraction(b), so '1/990.5' is 2/1981, else a float."""
    if "/" not in text:
        return float(text)
    num, den = text.split("/")
    try:
        return Fraction(num) / Fraction(den)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def emit_figure_data(lo, hi, points):
    """Rows (gamma, P0, P1, P2) of the limiting window (gamma, 1] pmf.

    Every row is F read at u = 1/gamma off one pass of the steps of p_limit.
    A window (gamma, 1] with gamma >= 1/3 holds at most two cycles, so each
    row is its whole pmf; a lower lo raises DomainError.
    """
    if not (1 / 3 <= lo < hi <= 1.0):
        raise DomainError(f"need 1/3 <= lo < hi <= 1, got ({lo}, {hi})")
    if not 2 <= points <= FIGURE_MAX_POINTS:
        raise DomainError(f"need 2 <= points <= {FIGURE_MAX_POINTS}, got {points}")
    gammas = lo + (hi - lo) * np.arange(points) / (points - 1)
    return np.column_stack((gammas, _steps_pmf(1 / gammas, 2))).tolist()


# Compute functions take the parsed options (keyed by argparse dest) and
# return results or (results, errors).  They read library names from the
# module globals at call time, so rebinding cli.p_limit or cli.emit_figure_data
# reaches them.

def _limit_pmf(o):
    pmf = p_limit(Interval(o["gamma"], o["delta"]))
    return {"pmf": list(pmf.as_floats()), "support": len(pmf) - 1}


def _limit_moment(o):
    val, err = sliced_cube_integral(o["r"], Interval(o["gamma"], o["delta"]), 1.0,
                                    with_error=True)
    return {"q_r": val}, {"estimate": err}


def _exact_pmf(o):
    w = normalized_window(o["n"], o["gamma"], o["delta"])
    rational = o["exact_rational"]
    pmf = exact_pmf(o["n"], w, rational=True if rational else None)
    return {"window": [w.a, w.b],
            "pmf": [str(p) for p in pmf.probs] if rational else list(pmf.as_floats())}


def _exact_moment(o):
    val = exact_falling_moment(o["n"], IntWindow(o["a"], o["b"]), o["r"])
    return {"moment": str(val), "moment_float": float(val)}


def _sample(o):
    est = estimate_pmf(o["n"], Interval(o["gamma"], o["delta"]), o["sigma"], o["draws"],
                       o["seed"])
    w = normalized_window(o["n"], o["gamma"], o["delta"])
    return {"window": [w.a, w.b], "counts": list(est.counts),
            "pmf_hat": list(est.pmf_hat), "stderr": list(est.stderr),
            "mean": est.mean, "mean_stderr": est.mean_stderr, "variates": est.variates}


def _gamma_star(o):
    g0 = gamma_star()
    p = p_limit(Interval(g0, 1.0)).as_floats()
    return {"gamma_star": g0, "P0": p[0], "P1": p[1], "P2": p[2]}


def _argmax(o):
    g = argmax_p(o["i"], o["lo"], o["hi"])
    p = p_limit(Interval(g, 1.0)).as_floats()
    return {"argmax": g, "p_i": p[o["i"]] if o["i"] < len(p) else 0.0}


_ratio.__name__ = "ratio"  # argparse names the type in "invalid ratio value"
_WINDOW = {"gamma": _ratio, "delta": _ratio}

# name -> (compute, options).  An option's kind is a type for a required
# option, (type, default) for an optional one, or bool for a flag.
SUBCOMMANDS = {
    "limit-pmf": (_limit_pmf, _WINDOW),
    "limit-moment": (_limit_moment, {"r": int, **_WINDOW}),
    "exact-pmf": (_exact_pmf, {"n": int, **_WINDOW, "exact-rational": bool}),
    "exact-moment": (_exact_moment, {"n": int, "a": int, "b": int, "r": int}),
    "qp": (lambda o: {"pmf": list(qp_pmf(o["r"], o["lambda"]).as_floats())},
           {"r": int, "lambda": float}),
    "sample": (_sample, {"n": int, **_WINDOW, "sigma": (float, 1.0), "draws": int,
                         "seed": int}),
    "gamma-star": (_gamma_star, {}),
    "argmax": (_argmax, {"i": int, "lo": float, "hi": float}),
    "figure": (lambda o: {
        "rows": emit_figure_data(o["lo"], o["hi"], o["points"]),
        "rows_columns": ["gamma", "P0", "P1", "P2"]},
        {"lo": float, "hi": float, "points": int}),
    "buchstab": (lambda o: {"omega": buchstab(o["u"])}, {"u": float}),
    "dilog": (lambda o: {"Li2": dilog(o["x"])}, {"x": float}),
    "ewens-lambda": (lambda o: {
        "lambda": ewens_lambda(Interval(o["gamma"], o["delta"]), o["sigma"])},
        {**_WINDOW, "sigma": float}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cyclewindow",
        description="Distribution of the number of cycles of a random "
                    "permutation with normalized length in a window.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--json", action="store_true")
        p.add_argument("--csv", action="store_true")
        for opt, kind in options.items():
            if kind is bool:
                p.add_argument("--" + opt, action="store_true")
            elif isinstance(kind, tuple):
                p.add_argument("--" + opt, type=kind[0], default=kind[1])
            else:
                p.add_argument("--" + opt, type=kind, required=True)
    return parser


def run(argv):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    compute, options = SUBCOMMANDS[args.subcommand]
    opts = vars(args)
    started = time.perf_counter()
    try:
        out = compute(opts)
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
    results, errors = out if isinstance(out, tuple) else (out, None)
    params = {}
    for opt, kind in options.items():
        key = opt.replace("-", "_")
        if key != "seed":
            params[key] = str(opts[key]) if kind is _ratio else opts[key]
    report = Report(command=args.subcommand, params=params, results=results,
                    errors=errors, seed=opts.get("seed"))
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    if args.json:
        print(report.to_json())
    elif args.csv or args.subcommand == "figure":
        sys.stdout.write(report.to_csv())
    else:
        print(report.to_table())
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
