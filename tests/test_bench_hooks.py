"""The names that the benchmark in perfbench/ rebinds and calls still exist.

perfbench/tracing.py wraps library functions under the names their callers
look them up by; a renamed or deleted function would break the benchmark
rather than the library's own tests, so this guards the hooks from here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import cyclewindow
from cyclewindow import limit_integrals

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve():
    for module in (cyclewindow, limit_integrals):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_probe_ops_record_a_span_each():
    tracing, workloads = _load("tracing"), _load("workloads")
    before = limit_integrals.p_limit
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        ops = workloads.probe_ops(workloads.DEFAULT_SEED)
        for op in ops:
            op.call()
    assert limit_integrals.p_limit is before
    names = {span["name"] for span in tracer.spans}
    for op in ops:
        assert any(name.endswith("." + op.fn) for name in names), (op.fn, names)
    assert "quasi_poisson.pmf_from_falling_moments" in names
    assert all(span["end"] is not None for span in tracer.spans)


@pytest.mark.parametrize("seed", [20260815, 7, 11])
def test_finite_n_monte_carlo_checks_pass(seed):
    # the benchmark counts a failed check as a failed operation; a change to
    # the sampler's stream that flips one of its 4-stderr checks shows here
    workloads = _load("workloads")
    ops = [op for op in workloads.finite_n(seed).ops if op.fn == "estimate_pmf"]
    assert len(ops) == 2
    for op in ops:
        assert op.check(op.call()) is None, (seed, op.name)


def test_finite_n_exact_checks_pass():
    # the workload's exact operations, three exact_pmf calls and the moment
    # enumerator, against their checks (quasi-Poisson TV, the harmonic mean
    # in floats and in Fractions, the DP's moment) and their references
    workloads = _load("workloads")
    reference = workloads.load_reference("finite-n")
    ops = [op for op in workloads.finite_n(workloads.DEFAULT_SEED).ops
           if op.fn != "estimate_pmf"]
    assert [op.fn for op in ops] == ["exact_pmf"] * 3 + ["exact_falling_moment"]
    assert {op.name for op in ops} == set(reference)
    for op in ops:
        out = op.call()
        assert op.check(out) is None, op.name
        assert workloads.compare_reference(out, reference[op.name], op.ref_tol) is None, op.name


@pytest.mark.parametrize("workload", ["limit-deep", "limit-sweep"])
def test_limit_workload_checks_pass(workload):
    # every operation of the workload, whatever its function, against its own
    # check and its reference at its ref_tol (REF_TOL but for argmax_p's
    # abscissa), as the benchmark's first pass checks it: the p_limit windows,
    # and the figure and argmax_p against their independent checks (q2 closed
    # form, gamma_star).  A change to the level tables that moves an output
    # past that gate fails here before it fails the benchmark
    workloads = _load("workloads")
    reference = workloads.load_reference(workload)
    ops = workloads.WORKLOADS[workload](workloads.DEFAULT_SEED).ops
    assert {op.name for op in ops} == set(reference)
    windows = [op for op in ops if op.fn == "p_limit"]
    assert len(windows) == {"limit-deep": 3, "limit-sweep": workloads.SWEEP_WINDOWS}[workload]
    others = {"limit-deep": set(), "limit-sweep": {"figure", "argmax"}}[workload]
    assert {op.name for op in ops if op.fn != "p_limit"} == others
    for op in ops:
        out = op.call()
        assert op.check(out) is None, op.name
        assert workloads.compare_reference(out, reference[op.name], op.ref_tol) is None, op.name


def test_limit_sweep_windows_build_below_the_top_and_read_closed_forms(monkeypatch):
    # every delta = 1 sweep window takes the steps once and builds no table;
    # every delta < 1 window builds tables for orders 2..r-2 only (none when
    # the box lies under the slice); and on every window each order the
    # ladder reads as ln(delta/gamma)^m, level 1 among them, has the full
    # ladder's bits
    workloads = _load("workloads")
    windows, builds, steps, p_limit = [], [], [], limit_integrals.p_limit
    monkeypatch.setattr(limit_integrals, "p_limit", lambda iv: windows.append(iv) or p_limit(iv))
    for op in workloads.limit_sweep(workloads.DEFAULT_SEED).ops:
        if op.fn == "p_limit":
            op.call()
    assert len(windows) == workloads.SWEEP_WINDOWS
    build, step = limit_integrals._antiderivative, limit_integrals._steps_pmf
    monkeypatch.setattr(limit_integrals, "_antiderivative",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(limit_integrals, "_steps_pmf",
                        lambda *args: steps.append(args) or step(*args))
    for iv in windows:
        g, d, r = iv.g, iv.d, limit_integrals.support_bound(iv.gamma)
        builds.clear()
        steps.clear()
        p_limit(iv)
        ladder_builds = 0 if r * d <= 1 else max(r - 3, 0)
        assert (len(builds), len(steps)) == ((0, 1) if d == 1 else (ladder_builds, 0)), iv
        values, _ = limit_integrals._moments(r, g, d, 1.0)
        levels, _ = limit_integrals._ladder(r, g, d, 1.0)
        for m in range(1, len(values) + 1):
            if m * d <= 1:
                closed = limit_integrals._box_moment(m, g, d).hex()
                assert values[m - 1].hex() == closed == float(levels[m - 1](1.0)).hex(), (iv, m)


def test_limit_sweep_figure_builds_no_table(monkeypatch):
    # the figure's 400 rows are one pass of the steps: no ladder table is
    # built and no moment is inverted
    workloads = _load("workloads")
    (figure,) = [op for op in workloads.limit_sweep(workloads.DEFAULT_SEED).ops
                 if op.fn == "emit_figure_data"]
    calls = []
    for name in ("_antiderivative", "pmf_from_falling_moments"):
        fn = getattr(limit_integrals, name)
        monkeypatch.setattr(limit_integrals, name,
                            lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    rows = figure.call()
    assert len(rows) == 400 and figure.check(rows) is None
    assert calls == []
