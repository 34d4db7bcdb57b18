"""Benchmark of cyclewindow's three routes, run from outside the package.

    python3 perfbench/run.py --workload limit-deep --seed 1 --seconds 20 --trace 0

Imports cyclewindow from `src/` of the checkout this file sits in, repeats
passes over the workload's operations for `--seconds`, checks every output
(see workloads.py) and prints, as its last line, one JSON object with keys
correct, attempted, failed and metrics.  With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json; with `--trace 1`, untraced and traced
passes alternate and the metrics are the per-layer ones.  `--workload all`
runs every workload, untraced and traced, each in a fresh process.

Everything runs in this one process with workers=1; the only child
processes are the fresh interpreters that time `import cyclewindow`.
Results, provenance and spans are written to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "cyclewindow"
OUT_DIR = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("limit-deep", "limit-sweep", "finite-n")
SETUP_REPEATS = 5
RUN_CAP_S = 150.0  # all passes of a run together, so the run ends within 180 s
MB = 1024 * 1024

_now = time.perf_counter


class PassTimeout(BaseException):
    """Raised by the pass timer; a BaseException so library handlers pass it on."""


def _on_alarm(signum, frame):
    raise PassTimeout


@dataclass
class PassResult:
    wall_s: float
    times: list    # seconds per operation, None where it never finished
    outs: list
    errors: list   # None, or why the operation failed


def run_pass(ops, cap_s):
    """Run every operation once; operations unfinished after cap_s fail."""
    n = len(ops)
    times, outs = [None] * n, [None] * n
    errors = ["not run: pass cut off"] * n
    i = 0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = _now()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        for i, op in enumerate(ops):
            t0 = _now()
            try:
                outs[i] = op.call()
                errors[i] = None
            except Exception as exc:
                errors[i] = f"{type(exc).__name__}: {exc}"
            times[i] = _now() - t0
    except PassTimeout:
        errors[i] = f"timeout: pass exceeded {cap_s:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return PassResult(_now() - start, times, outs, errors)


def check_first(ops, res, reference, compare_reference):
    """Failures of the first pass as (name, reason).

    Each output is checked against an independent route and, when a
    reference is given, against the stored reference value.
    """
    failures = []
    for op, out, err in zip(ops, res.outs, res.errors):
        if err is None:
            try:
                err = op.check(out)
                if err is None and op.ref_tol is not None and op.name in reference:
                    err = compare_reference(out, reference[op.name], op.ref_tol)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((op.name, err))
    return failures


def check_repeat(ops, first, res):
    """Failures of a later pass: each output must repeat the first bit for bit.

    The outputs are dropped afterwards, so memory does not grow with passes.
    """
    failures = [(op.name, err if err is not None else "output differs from the first pass")
                for op, out, err, base in zip(ops, res.outs, res.errors, first.outs)
                if err is not None or out != base]
    res.outs = None
    return failures


# --- end-to-end figures --------------------------------------------------------

_IMPORT_TIMER = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cyclewindow\n"
    "print(time.perf_counter() - t0, cyclewindow.__file__)\n"
)


def time_imports(repeats):
    """Wall time of `import cyclewindow` in fresh interpreters, in seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, path = proc.stdout.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != PACKAGE:
            raise RuntimeError(f"fresh interpreter imported {path.strip()}")
        times.append(float(seconds))
    return times


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest_times(passes):
    """Each operation's fastest time over the passes; None if it never finished.

    Contention on a shared host only ever adds time, and on this kind of host
    it comes in spells of seconds that slow a whole pass by up to half.  The
    fastest time of each call is the figure that repeats from run to run.
    """
    return [min((t for t in ts if t is not None), default=None)
            for ts in zip(*(r.times for r in passes))]


def route_report(ops, times):
    """Figures of the routes the workload runs, from per-operation times."""
    from workloads import ROUTES
    out = {}
    for route in sorted({ROUTES[op.fn] for op in ops}):
        out[f"{route}_s"] = sum(t for op, t in zip(ops, times)
                                if ROUTES[op.fn] == route and t is not None)
    lat = [t * 1e3 for op, t in zip(ops, times) if op.window and t is not None]
    if len(lat) >= 2:
        out["op_p50_ms"] = statistics.median(lat)
        out["op_p95_ms"] = _percentile(lat, 95)
    if out.get("mc_s"):
        out["mc_draws_per_s"] = sum(op.draws for op in ops) / out["mc_s"]
    return out


_REPORT_UNITS = {"limit_s": "s", "exact_s": "s", "mc_s": "s", "op_p50_ms": "ms",
                 "op_p95_ms": "ms", "mc_draws_per_s": "1/s", "ops_failed_frac": "1"}


# --- per-layer figures ------------------------------------------------------------

def panels_per_second(repeats=5):
    """GK15 panels per second of integrate on a cheap oscillatory integrand."""
    from cyclewindow.quadrature import integrate
    evals = 0

    def counted(x):
        nonlocal evals
        evals += 1
        return math.cos(40.0 * x)

    integrate(counted, 0.0, 10.0)
    f = lambda x: math.cos(40.0 * x)
    times = []
    for _ in range(repeats):
        t0 = _now()
        integrate(f, 0.0, 10.0)
        times.append(_now() - t0)
    return evals / 15 / statistics.median(times)


def peak_traced_mb(ops, fn):
    """Largest tracemalloc peak over the calls of `fn` among ops, in MB."""
    peak = 0
    for op in ops:
        if op.fn != fn:
            continue
        tracemalloc.start()
        try:
            op.call()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / MB


def layer_report(workload_ops, probe, traced, traced_s, untraced_s):
    """Every `<module>.<metric>` figure, median over the traced passes.

    A module the workload never calls is read from the probe stage instead,
    so every figure is a measurement of that module.
    """
    import tracing as tr
    out = {}
    probe_ops, probe_spans = probe
    for module in tr.MODULES:
        busy = tr.module_calls(traced[0].spans, module) > 0
        per_pass = ([tr.layer_metrics(t.spans, module) for t in traced] if busy
                    else [tr.layer_metrics(probe_spans, module)])
        for key, value in tr.median_metrics(per_pass).items():
            out[f"{module}.{key}"] = value
        if module == "exact_finite":
            out["exact_finite.dp_peak_mb"] = peak_traced_mb(
                workload_ops if busy else probe_ops, "exact_pmf")
        if module == "sampler":
            out["sampler.peak_mb"] = peak_traced_mb(
                workload_ops if busy else probe_ops, "estimate_pmf")
    out["quadrature.panels_per_s"] = panels_per_second()
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


# --- provenance ---------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args):
    import numpy
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "source_sha256": digest.hexdigest()}


# --- running a workload --------------------------------------------------------------

def _spec_metrics(kind):
    with open(SPEC) as fh:
        return json.load(fh)[kind]


def _emit(values, kind):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in _spec_metrics(kind)}


def run_workload(args):
    import workloads as wl
    from tracing import Tracer, instrumented

    workload = wl.WORKLOADS[args.workload](args.seed)
    ops = workload.ops
    reference = wl.load_reference(args.workload) if args.seed == wl.DEFAULT_SEED else {}

    passes, untraced, traced, tracers, failures = [], [], [], [], []
    start = _now()
    while True:
        cap_s = max(min(workload.cap_s, start + RUN_CAP_S - _now()), 1e-3)
        if args.trace and len(passes) % 2 == 1:
            tracer = Tracer()
            with instrumented(tracer):
                res = run_pass(ops, cap_s)
            tracers.append(tracer)
            traced.append(res)
        else:
            res = run_pass(ops, cap_s)
            untraced.append(res)
        if passes:
            failures += [(len(passes),) + f for f in check_repeat(ops, passes[0], res)]
        passes.append(res)
        if any(t is None for t in res.times):
            break
        if _now() >= start + args.seconds and (not args.trace or len(passes) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [(0,) + f for f in check_first(ops, passes[0], reference,
                                              wl.compare_reference)] + failures
    attempted = len(ops) * len(passes)
    fastest = fastest_times(untraced)
    pass_s = sum(t for t in fastest if t is not None)
    report = route_report(ops, fastest)
    report["passes"] = len(passes)

    record = {"provenance": provenance(args)}
    if args.trace:
        if len(tracers) == 0:
            metrics = None
        else:
            probe_ops = wl.probe_ops(args.seed)
            probe_tracer = Tracer()
            with instrumented(probe_tracer):
                probe_res = run_pass(probe_ops, 60.0)
            attempted += len(probe_ops)
            failures += [(None, op.name, e) for op, e in zip(probe_ops, probe_res.errors)
                         if e is not None]
            traced_s = sum(t for t in fastest_times(traced) if t is not None)
            metrics = layer_report(ops, (probe_ops, probe_tracer.spans), tracers,
                                   traced_s, pass_s)
            record["spans"] = {"last_traced_pass": tracers[-1].spans,
                               "probe": probe_tracer.spans}
        kind = "per_layer"
    else:
        metrics = {"wall_s": pass_s,
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(time_imports(SETUP_REPEATS))}
        kind = "end_to_end"

    report["ops_failed_frac"] = len(failures) / attempted
    result = {"correct": not failures and metrics is not None,
              "attempted": attempted, "failed": len(failures),
              "metrics": _emit(metrics, kind) if metrics is not None else {}}
    record.update(report=report, failures=failures, result=result,
                  pass_walls=[r.wall_s for r in passes],
                  op_times={op.name: [r.times[i] for r in passes] for i, op in enumerate(ops)})
    OUT_DIR.mkdir(exist_ok=True)
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / record_name, "w") as fh:
        json.dump(record, fh)

    print("provenance " + json.dumps(record["provenance"]))
    for pass_no, name, reason in failures[:20]:
        print(f"FAILED {name} (pass {pass_no}): {reason}")
    if len(failures) > 20:
        print(f"FAILED {len(failures) - 20} more; see {OUT_DIR / record_name}")
    for k, v in report.items():
        print(f"report {args.workload} {k} = {v:.6g} {_REPORT_UNITS.get(k, '')}".rstrip())
    for k, v in result["metrics"].items():
        print(f"metric {args.workload} {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout[: proc.stdout.rstrip().rfind("\n") + 1])
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for k, v in last["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no cyclewindow package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cyclewindow
    if Path(cyclewindow.__file__).resolve().parent != PACKAGE:
        print(f"error: imported cyclewindow from {cyclewindow.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
