"""Spans around the public layer functions of cyclewindow, recorded from outside.

`instrumented(tracer)` rebinds each traced function under the name its
callers look it up by, and restores the originals on exit.  Integrand
evaluations are far too many to keep as spans (about 5e5 per deep window),
so each `integrate` span carries their count and summed time instead.
Spans stay in memory; the caller writes them out once, at the end.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import time

from cyclewindow import cli, exact_finite, limit_integrals, sampler
from cyclewindow.errors import ToleranceNotMet

_now = time.perf_counter


def _exact_pmf_attrs(args):
    n, w = args["n"], args["w"]
    return {"dp_cells": n * (n // w.a + 1) if w.a <= n else 0}


def _estimate_attrs(args):
    return {"draws": args["samples"]}


# (module, attribute its callers look up, span name, span attributes from the
# bound call arguments).  limit_integrals imports integrate and
# pmf_from_falling_moments by name, p_limit reaches q_limit and
# sliced_cube_integral through module globals, and cli imports p_limit by
# name, so each binding is replaced where it is read.
_TARGETS = (
    (limit_integrals, "pmf_from_falling_moments", "quasi_poisson.pmf_from_falling_moments", None),
    (limit_integrals, "sliced_cube_integral", "limit_integrals.sliced_cube_integral", None),
    (limit_integrals, "q_limit", "limit_integrals.q_limit", None),
    (limit_integrals, "p_limit", "limit_integrals.p_limit", None),
    (cli, "p_limit", "limit_integrals.p_limit", None),
    (limit_integrals, "argmax_p", "limit_integrals.argmax_p", None),
    (cli, "emit_figure_data", "cli.emit_figure_data", None),
    (exact_finite, "exact_pmf", "exact_finite.exact_pmf", _exact_pmf_attrs),
    (exact_finite, "exact_falling_moment", "exact_finite.exact_falling_moment", None),
    (sampler, "estimate_pmf", "sampler.estimate_pmf", _estimate_attrs),
)


class Tracer:
    """In-memory spans: name, start, end, parent index and counters."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        span = {"name": name, "start": _now(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span["end"] = _now()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(name)
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_integrate(self, fn):
        def traced(f, lo, hi, cfg=None, breakpoints=()):
            span = self._open("quadrature.integrate")
            span["evals"] = 0
            span["integrand_s"] = 0.0

            def counted(x):
                t0 = _now()
                try:
                    return f(x)
                finally:
                    span["integrand_s"] += _now() - t0
                    span["evals"] += 1

            try:
                return fn(counted, lo, hi, cfg, breakpoints)
            except ToleranceNotMet:
                span["tolerance_failure"] = True
                raise
            finally:
                self._close(span)

        return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Route every traced call through `tracer` while the block runs."""
    saved = [(limit_integrals, "integrate", limit_integrals.integrate)]
    saved += [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _TARGETS]
    try:
        limit_integrals.integrate = tracer.wrap_integrate(limit_integrals.integrate)
        for mod, attr, name, attrs in _TARGETS:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), attrs))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# --- per-layer metrics from one traced stage --------------------------------

MODULES = ("quadrature", "limit_integrals", "quasi_poisson", "exact_finite",
           "sampler", "cli")


def _module(span):
    return span["name"].split(".", 1)[0]


def _dur(span):
    return span["end"] - span["start"]


def _busy(spans, module):
    # time in the module's outermost spans; nested calls of the same module
    # (p_limit -> q_limit -> sliced_cube_integral) are counted once
    total = 0.0
    for s in spans:
        if _module(s) != module:
            continue
        p = s["parent"]
        while p is not None and _module(spans[p]) != module:
            p = spans[p]["parent"]
        if p is None:
            total += _dur(s)
    return total


def module_calls(spans, module):
    return sum(1 for s in spans if _module(s) == module)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, module):
    """The `<module>.<metric>` figures of one module from one stage's spans."""
    named = lambda n: [s for s in spans if s["name"] == n]
    integ = named("quadrature.integrate")
    evals = sum(s["evals"] for s in integ)
    integrand_s = sum(s["integrand_s"] for s in integ)
    windows = len(named("limit_integrals.p_limit"))
    if module == "quadrature":
        busy = sum(_dur(s) for s in integ)
        return {"integrate_calls": len(integ), "integrand_evals": evals,
                "gk15_panels": evals // 15, "busy_s": busy,
                "self_s": busy - integrand_s,
                "tolerance_failures": sum(1 for s in integ if s.get("tolerance_failure"))}
    if module == "limit_integrals":
        return {"p_limit_calls": windows,
                "q_limit_calls": len(named("limit_integrals.q_limit")),
                "busy_s": _busy(spans, "limit_integrals"),
                "integrand_s": integrand_s,
                "integrate_calls_per_window": _ratio(len(integ), windows),
                "integrand_evals_per_window": _ratio(evals, windows)}
    if module == "quasi_poisson":
        inv = named("quasi_poisson.pmf_from_falling_moments")
        return {"inversion_calls": len(inv), "inversion_s": sum(map(_dur, inv))}
    if module == "exact_finite":
        dp = named("exact_finite.exact_pmf")
        cells = sum(s["dp_cells"] for s in dp)
        dp_s = sum(map(_dur, dp))
        return {"exact_pmf_calls": len(dp), "dp_cells": cells, "dp_s": dp_s,
                "dp_cells_per_s": _ratio(cells, dp_s),
                "moment_s": sum(map(_dur, named("exact_finite.exact_falling_moment")))}
    if module == "sampler":
        est = named("sampler.estimate_pmf")
        draws = sum(s["draws"] for s in est)
        est_s = sum(map(_dur, est))
        return {"estimate_calls": len(est), "draws": draws, "estimate_s": est_s,
                "draws_per_s": _ratio(draws, est_s)}
    if module == "cli":
        return {"figure_s": sum(map(_dur, named("cli.emit_figure_data")))}
    raise ValueError(module)


def median_metrics(per_pass):
    """Entrywise median of a list of {name: value} dicts with equal keys."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
