"""The benchmark's workloads: seeded operations on cyclewindow and their checks.

An operation is one public call.  Each one carries a check against a route
that does not share its code path (falling moments of the full box,
Q_recurrence, the q2 dilogarithm closed form, gamma_star, the exact DP, the
quasi-Poisson law, the Ewens closed-form mean), and at the default seed a
comparison with reference values recorded from the seed commit.

Every call goes through the module attribute at call time, so the tracer's
rebinding in tracing.py sees it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cyclewindow import cli, exact_finite, limit_integrals, sampler
from cyclewindow.exact_finite import IntWindow, normalized_window
from cyclewindow.limit_integrals import Interval, support_bound
from cyclewindow.quasi_poisson import Pmf, falling_moment, qp_pmf

DEFAULT_SEED = 20260815
REFERENCE = Path(__file__).with_name("reference.json")

REF_TOL = 1e-12          # limit and float DP outputs against the seed commit
ARGMAX_TOL = 1e-7        # argmax_p's own abscissa tolerance
BOX_MOMENT_TOL = 1e-12   # falling moments of the full box, ln(delta/gamma)^r
RECURRENCE_TOL = 1e-7    # q_k against Q_recurrence on delta = 1 windows
CLOSED_FORM_TOL = 1e-9   # figure rows against q2_closed_form
GAMMA_STAR_TOL = 1e-6
TV_TOL = 1e-3            # exact_pmf(2e4) against quasi-Poisson(3, ln 4/3)
Z_MAX = 4.0              # Monte Carlo agreement, in standard errors


@dataclass
class Op:
    """One public call with the check its output must pass.

    fn: the public function called; ROUTES maps it to its summed-time bucket.
    window: a per-window p_limit call, counted in the latency percentiles.
    ref_tol: tolerance against the stored reference; None for no reference.
    """

    name: str
    fn: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    window: bool = False
    ref_tol: float | None = REF_TOL
    draws: int = 0


ROUTES = {"p_limit": "limit", "argmax_p": "limit", "emit_figure_data": "limit",
          "exact_pmf": "exact", "exact_falling_moment": "exact",
          "estimate_pmf": "mc"}


@dataclass
class Workload:
    ops: list
    cap_s: float  # a pass still running after this long is cut off


# --- checks ------------------------------------------------------------------

def _window_check(iv):
    """p_limit(iv): full-box falling moments and, for delta = 1, Q_recurrence."""
    g, d = float(iv.gamma), float(iv.delta)

    def check(p):
        if len(p) != support_bound(iv.gamma) + 1:
            return f"support {len(p)} for {iv}"
        box = math.log(d / g)
        for r in range(1, min(int(math.floor(1.0 / d + 1e-9)), len(p) - 1) + 1):
            err = abs(falling_moment(p, r) - box ** r)
            if err > BOX_MOMENT_TOL:
                return f"moment {r} off ln(delta/gamma)^{r} by {err:.2e}"
        if d == 1.0:
            for k in range(2, min(4, len(p) - 1) + 1):
                err = abs(falling_moment(p, k) - limit_integrals.Q_recurrence(k, g))
                if err > RECURRENCE_TOL:
                    return f"q_{k} off Q_recurrence by {err:.2e}"
        return None

    return check


def _figure_check(rows):
    # window (g, 1] with g >= 1/3: q1 = -ln g, q2 from the dilog closed form,
    # q3 = 0, so P2 = q2/2, P1 = q1 - q2 and P0 = 1 - q1 + q2/2
    for g, p0, p1, p2 in rows:
        q1 = -math.log(g)
        q2 = limit_integrals.q2_closed_form(Interval(g, 1.0)) if g < 0.5 else 0.0
        err = max(abs(p0 - (1.0 - q1 + q2 / 2)), abs(p1 - (q1 - q2)), abs(p2 - q2 / 2))
        if err > CLOSED_FORM_TOL:
            return f"row at gamma={g} off the closed form by {err:.2e}"
    return None


def _argmax_check(x):
    err = abs(x - limit_integrals.gamma_star())
    return f"argmax off gamma_star by {err:.2e}" if err > GAMMA_STAR_TOL else None


def _harmonic(a, b, exact):
    one = Fraction(1) if exact else 1.0
    return (sum(one / k for k in range(a, b + 1)) if exact
            else math.fsum(1.0 / k for k in range(a, b + 1)))


def _exact_mean_check(w):
    """E[X] = sum of 1/k over window lengths: exactly for Fractions, else 1e-9."""
    def check(p):
        exact = not isinstance(p[0], float)
        err = falling_moment(p, 1) - _harmonic(w.a, w.b, exact)
        if (err != 0) if exact else abs(err) > 1e-9:
            return f"mean off the harmonic sum by {float(err):.2e}"
        return None
    return check


def _tv_check(p):
    tv = p.total_variation(qp_pmf(3, math.log(4 / 3)))
    return f"TV to quasi-Poisson(3, ln 4/3) is {tv:.2e}" if tv > TV_TOL else None


def _moment_check(n, w, r):
    def check(m):
        want = falling_moment(exact_finite.exact_pmf(n, w, rational=True), r)
        return None if m == want else f"falling moment {float(m)!r} != {float(want)!r} from the DP"
    return check


def _mc_vs_exact_check(n, w):
    def check(est):
        ref = exact_finite.exact_pmf(n, w).as_floats()
        if len(ref) != len(est.pmf_hat):
            return f"support {len(est.pmf_hat)} != {len(ref)}"
        for i, (ph, p) in enumerate(zip(est.pmf_hat, ref)):
            se = math.sqrt(p * (1.0 - p) / est.samples)
            if abs(ph - p) > Z_MAX * se + 1e-12:
                return f"p_{i} = {ph} vs exact {p}: {abs(ph - p) / se:.1f} stderr"
        return None
    return check


def _ewens_mean_check(iv, theta):
    g, d = float(iv.gamma), float(iv.delta)
    # window mean of Ewens(theta) for theta = 2: theta * int (1-x)/x dx
    want = theta * (math.log(d / g) - (d - g))

    def check(est):
        z = (est.mean - want) / est.mean_stderr
        return f"mean {est.mean} is {z:+.1f} stderr from {want}" if abs(z) > Z_MAX else None
    return check


# --- workloads ----------------------------------------------------------------

def _jitter(rng, k):
    # 1/(k+u): keeps floor(1/x) = k; u stays inside (0, 1) away from the
    # ends, where the kink layout of the nested levels changes
    return 1.0 / (k + rng.uniform(0.05, 0.6))


def _p_limit_op(name, iv, window=False):
    return Op(name, "p_limit", lambda: limit_integrals.p_limit(iv),
              _window_check(iv), window=window)


def limit_deep(seed):
    """Three deep windows: nested level builds dominate (supports 20, 10, 8)."""
    rng = random.Random(seed)
    windows = [
        ("deep_20_10", Interval(_jitter(rng, 20), _jitter(rng, 10))),
        ("deep_10_1", Interval(_jitter(rng, 10), 1.0)),
        ("deep_8_2", Interval(_jitter(rng, 8), _jitter(rng, 2))),
    ]
    return Workload([_p_limit_op(name, iv) for name, iv in windows], cap_s=90.0)


SWEEP_WINDOWS = 200


def limit_sweep(seed):
    """Many shallow windows (support <= 5), the figure and argmax_p."""
    # one gamma per stratum of [0.2, 0.5], and the delta < 1 windows one per
    # stratum of their range in seeded order: a plain uniform draw lets the
    # count of costly support-5 windows, and with it the pass time, swing
    # by a third between seeds
    rng = random.Random(seed)
    half = SWEEP_WINDOWS // 2
    delta_strata = rng.sample(range(half), half)
    ops = []
    for i in range(SWEEP_WINDOWS):
        g = 0.2 + 0.3 * (i + rng.random()) / SWEEP_WINDOWS
        d = 1.0
        if i % 2:
            lo = g + 0.01
            d = lo + (1.0 - lo) * (delta_strata[i // 2] + rng.random()) / half
        ops.append(_p_limit_op(f"window_{i}", Interval(g, d), window=True))
    ops.append(Op("figure", "emit_figure_data", lambda: cli.emit_figure_data(0.34, 1.0, 400),
                  _figure_check))
    ops.append(Op("argmax", "argmax_p", lambda: limit_integrals.argmax_p(1, 0.34, 0.49),
                  _argmax_check, ref_tol=ARGMAX_TOL))
    return Workload(ops, cap_s=30.0)


MC_N = 2000
# Calls of a few seconds leave too few samples per run for a steady fastest
# time under host contention: 2e5 draws take 5 s, and the moment enumerator
# takes 2.3 s at n = 300 against 0.8 s at n = 200.
MC_DRAWS = 50_000
MOMENT_N = 200


def finite_n(seed):
    """Exact DP in floats and rationals, the moment enumerator and Monte Carlo."""
    quarter = Interval(Fraction(1, 4), Fraction(1, 3))
    w_quarter = normalized_window(20_000, quarter.gamma, quarter.delta)
    w_twentieth = normalized_window(20_000, Fraction(1, 20), Fraction(1, 10))
    w_tenth = normalized_window(600, Fraction(1, 10), 1)
    w_moment = IntWindow(20, MOMENT_N)
    w_mc = normalized_window(MC_N, quarter.gamma, quarter.delta)

    def mc(sigma):
        return lambda: sampler.estimate_pmf(MC_N, quarter, sigma, MC_DRAWS, seed)

    ops = [
        Op("exact_pmf_20000_quarter", "exact_pmf",
           lambda: exact_finite.exact_pmf(20_000, w_quarter), _tv_check),
        Op("exact_pmf_20000_twentieth", "exact_pmf",
           lambda: exact_finite.exact_pmf(20_000, w_twentieth),
           _exact_mean_check(w_twentieth)),
        Op("exact_pmf_600_rational", "exact_pmf",
           lambda: exact_finite.exact_pmf(600, w_tenth, rational=True),
           _exact_mean_check(w_tenth)),
        Op("exact_falling_moment", "exact_falling_moment",
           lambda: exact_finite.exact_falling_moment(MOMENT_N, w_moment, 3),
           _moment_check(MOMENT_N, w_moment, 3)),
        Op("estimate_pmf_sigma1", "estimate_pmf", mc(1.0), _mc_vs_exact_check(MC_N, w_mc),
           ref_tol=None, draws=MC_DRAWS),
        Op("estimate_pmf_sigma2", "estimate_pmf", mc(2.0), _ewens_mean_check(quarter, 2.0),
           ref_tol=None, draws=MC_DRAWS),
    ]
    return Workload(ops, cap_s=90.0)


WORKLOADS = {"limit-deep": limit_deep, "limit-sweep": limit_sweep, "finite-n": finite_n}


def probe_ops(seed):
    """One small call per layer, traced when a workload leaves that layer idle."""
    quarter = Interval(Fraction(1, 4), Fraction(1, 3))
    w = normalized_window(2000, quarter.gamma, quarter.delta)
    return [
        Op("probe_p_limit", "p_limit", lambda: limit_integrals.p_limit(quarter), None),
        Op("probe_figure", "emit_figure_data", lambda: cli.emit_figure_data(0.34, 1.0, 3), None),
        Op("probe_exact_pmf", "exact_pmf", lambda: exact_finite.exact_pmf(2000, w), None),
        Op("probe_moment", "exact_falling_moment",
           lambda: exact_finite.exact_falling_moment(60, IntWindow(6, 60), 2), None),
        Op("probe_estimate", "estimate_pmf",
           lambda: sampler.estimate_pmf(200, quarter, 1.0, 2000, seed), None),
    ]


# --- reference values from the seed commit -------------------------------------

def encode(out):
    """Flat JSON-able list of an output's numbers; Fractions as exact strings."""
    if isinstance(out, Pmf):
        vals = list(out.probs)
    elif isinstance(out, list):
        vals = [x for row in out for x in row]
    else:
        vals = [out]
    return [str(v) if isinstance(v, Fraction) else float(v) for v in vals]


def compare_reference(out, want, tol):
    """Check an output against its stored reference: exact for Fractions."""
    got = encode(out)
    if len(got) != len(want):
        return f"{len(got)} values, reference has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if isinstance(b, str):
            if a != b:
                return f"value {i} differs from the exact reference"
        elif abs(a - b) > tol:
            return f"value {i} off the reference by {abs(a - b):.2e}"
    return None


def load_reference(workload):
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {})
