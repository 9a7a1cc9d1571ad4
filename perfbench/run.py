"""Benchmark of the dicke_fcs package: one workload per invocation.

    python3 perfbench/run.py --workload {sweep,transient,oracle} \
        --seed N --seconds S --trace {0,1}

One client drives the package in a closed loop: the next request is issued
when the previous one has returned, and every output is checked after the
clock stops.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it replays a fixed request set alternately untraced and
traced and reports per-layer metrics plus the tracing overhead.  The last
line of standard output is the result as one JSON object; the line before
it is a report with the environment, sample counts and failures.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics as st
import subprocess
import sys
import time
from pathlib import Path

import checkout

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
#: at least ten latency samples beyond p90
MIN_REQUESTS = 100
#: fresh-interpreter set-up measurements per run, spread over the run so
#: they see the same machine load as the requests; the median is reported
SETUP_SAMPLES = 9
#: no request starts after this many seconds of wall time, so a run ends
#: well inside three minutes even on a slow machine
WALL_LIMIT_S = 130.0
#: per-layer time metrics: (metric, span name, "total" or "self")
SPAN_TIMES = (
    ("cli.cmd_scan.self_ms", "cli.cmd_scan", "self"),
    ("cli.cmd_evolve.self_ms", "cli.cmd_evolve", "self"),
    ("statistics.cumulants.ms", "statistics.cumulants", "total"),
    ("statistics.occupations.ms", "statistics.occupations", "total"),
    ("bogoliubov.frame_coefficients.ms", "bogoliubov.frame_coefficients",
     "total"),
    ("prep_dynamics.solve_ivp.ms", "prep_dynamics.solve_ivp", "total"),
    ("oracle.spsolve.ms", "oracle.spsolve", "total"),
    ("oracle.steady_state_vector.self_ms", "oracle.steady_state_vector",
     "self"),
    ("oracle.eigs.ms", "oracle.eigs", "total"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "transient", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads() -> dict:
    """Thread counts of the OpenBLAS builds bundled with numpy and scipy."""
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _setup_sample(workload: str) -> float:
    """Seconds of import plus warm-up in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class _Outcome:
    """Attempted / failed counts and the first few problem messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problems[0])


def _call(wl, req):
    """Run one request; returns (seconds, output, error message or None)."""
    start = time.perf_counter()
    try:
        out = wl.execute(req)
    except Exception as exc:  # a request that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, None, error
    return time.perf_counter() - start, out, None


def _checked(wl, req, out, error) -> list:
    return [error] if error else wl.check(req, out)


def untraced_run(wl, seed: int, seconds: float, t_start: float):
    latencies = []
    setup = []
    outcome = _Outcome()
    first = None
    busy = 0.0
    for req in wl.schedule(seed):
        # runs end on a cycle boundary, so every run has the same mix
        if len(latencies) % wl.cycle_length == 0:
            if (busy >= seconds and len(latencies) >= MIN_REQUESTS
                    or time.perf_counter() - t_start > WALL_LIMIT_S):
                break
            # set-up samples are taken between cycles, from the start of
            # the run to its end, never while a request is timed
            due = (SETUP_SAMPLES - 1) * min(1.0, busy / seconds)
            while len(setup) <= due:
                setup.append(_setup_sample(wl.name))
        dt, out, error = _call(wl, req)
        latencies.append(dt)
        busy += dt
        outcome.record(_checked(wl, req, out, error))
        if first is None and error is None:
            first = (req, out)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(wl.name))
    if first is not None:
        problems = wl.reissue_check(*first)
        if problems is not None:
            outcome.record(problems)
    cuts = st.quantiles(latencies, n=10, method="inclusive")
    p90 = cuts[8]
    metrics = {
        "throughput_rps": _metric(len(latencies) / busy, "1/s"),
        "latency_p50_ms": _metric(st.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": _metric(p90 * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "setup_s": _metric(st.median(setup), "s"),
    }
    report = {"samples": len(latencies),
              "beyond_p90": sum(1 for x in latencies if x > p90),
              "busy_s": busy, "setup_samples_s": setup}
    return metrics, outcome, report


def _pass(wl, requests, tracer=None):
    """One closed-loop pass over ``requests``; returns (busy s, outputs)."""
    busy = 0.0
    outputs = []
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(index)
        try:
            dt, out, error = _call(wl, req)
        finally:
            if tracer is not None:
                tracer.end_request()
        busy += dt
        outputs.append((out, error))
    return busy, outputs


def _snapshot(tracer) -> dict:
    counts = {name: agg.calls for name, agg in tracer.aggregates.items()}
    counts.update(tracer.counters)
    return counts


def traced_run(wl, seed: int, seconds: float, t_start: float):
    from tracer import LAYERS, Tracer

    requests = list(itertools.islice(wl.schedule(seed), wl.cycle_length))
    tracer = Tracer()
    outcome = _Outcome()
    untraced_s, traced_s, pass_counts = [], [], []

    def record(outputs, check: bool):
        """Every request counts as attempted; the first untraced pass is
        checked in full, the others only for raised errors."""
        for req, (out, error) in zip(requests, outputs):
            outcome.record(_checked(wl, req, out, error) if check
                           else [error] if error else [])

    def untraced_pass():
        busy, outputs = _pass(wl, requests)
        untraced_s.append(busy)
        record(outputs, check=len(untraced_s) == 1)

    def traced_pass():
        before = _snapshot(tracer)
        tracer.keep_spans = not traced_s
        tracer.install()
        try:
            busy, outputs = _pass(wl, requests, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(busy)
        after = _snapshot(tracer)
        pass_counts.append({k: v - before.get(k, 0) for k, v in after.items()})
        record(outputs, check=False)

    # pairs alternate which side runs first, so warm-up and drift within a
    # run fall on both sides of the overhead difference
    for pair in itertools.count():
        if pair and (sum(untraced_s) + sum(traced_s) >= seconds
                     or time.perf_counter() - t_start > WALL_LIMIT_S):
            break
        sides = (untraced_pass, traced_pass)
        for side in sides if pair % 2 == 0 else reversed(sides):
            side()

    counts = pass_counts[0]
    n_req = len(requests) * len(traced_s)
    agg = tracer.aggregates

    def per_request_ms(name, kind="total"):
        a = agg.get(name)
        if a is None:
            return 0.0
        return (a.self_ns if kind == "self" else a.total_ns) / 1e6 / n_req

    def ratio(num, den):
        return counts.get(num, 0) / den if den else 0.0

    def count(name):
        return counts.get(name, 0)

    points = sum(req.points for req in requests)
    rhs_evals = count("rhs_evals")
    solve_ns = agg["prep_dynamics.solve_ivp"].total_ns / len(traced_s) \
        if "prep_dynamics.solve_ivp" in agg else 0
    jet_ops = sum(v for k, v in counts.items() if k.startswith("jets."))
    exact = {
        "prep_dynamics.rhs_evals": rhs_evals,
        "jets.seq_mul.calls": count("jets.seq_mul"),
        "statistics.system_frame.calls_per_request":
            ratio("statistics.system_frame", len(requests)),
        "model.critical_couplings.calls_per_point":
            ratio("model.critical_couplings", points),
        "oracle.spsolve.calls": count("oracle.spsolve"),
        "oracle.eigs.calls": count("oracle.eigs"),
        "oracle.dimension_sum": count("dimension_sum"),
        "oracle.nnz_sum": count("nnz_sum"),
    }
    metrics = {name: _metric(value, "count") for name, value in exact.items()}
    for layer in LAYERS:
        self_ns = sum(a.self_ns for name, a in agg.items()
                      if tracer.layer_of(name) == layer)
        metrics[f"{layer}.self_ms"] = _metric(self_ns / 1e6 / n_req, "ms")
    for metric, span, kind in SPAN_TIMES:
        metrics[metric] = _metric(per_request_ms(span, kind), "ms")
    untraced_mean = sum(untraced_s) / len(untraced_s)
    traced_mean = sum(traced_s) / len(traced_s)
    metrics.update({
        "cli.bytes_out": _metric(count("bytes_out"), "bytes"),
        "prep_dynamics.log_gaussian_mass.calls":
            _metric(count("prep_dynamics.log_gaussian_mass"), "count"),
        "prep_dynamics.us_per_rhs_eval":
            _metric(solve_ns / 1e3 / rhs_evals if rhs_evals else 0.0, "us"),
        "bogoliubov.stiffness_matrix.calls_per_frame": _metric(
            ratio("bogoliubov.stiffness_matrix",
                  count("bogoliubov.frame_coefficients")), "count"),
        "jets.ops_per_request": _metric(jet_ops / len(requests), "count"),
        "oracle.build.calls_per_eigenvalue": _metric(
            ratio("oracle.build_rwa_liouvillian",
                  count("oracle.dominant_eigenvalue")), "count"),
        "trace.requests": _metric(len(requests), "count"),
        "trace.overhead_ms": _metric(
            (traced_mean - untraced_mean) * 1e3 / len(requests), "ms"),
        "trace.overhead_pct": _metric(
            100.0 * (traced_mean - untraced_mean) / untraced_mean, "%"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write_spans(span_file)
    report = {
        "passes": len(traced_s), "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s, "exact_counts": exact,
        "counts_repeat": all(c == counts for c in pass_counts),
        "spans": len(tracer.spans),
        "span_file": str(span_file.relative_to(checkout.ROOT)),
    }
    return metrics, outcome, report


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = _parse_args(argv)
    # single-threaded BLAS unless the caller chose otherwise: with one BLAS
    # thread per core, any other load on a 2-core machine made sparse
    # solves several times slower and the run-to-run spread unusable
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    checkout.use_checkout_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    wl.warm_up()
    if args.trace:
        metrics, outcome, report = traced_run(wl, args.seed, args.seconds,
                                              t_start)
    else:
        metrics, outcome, report = untraced_run(wl, args.seed, args.seconds,
                                                t_start)
    report.update({
        "environment": _environment(args),
        "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_ratio": outcome.failed / max(1, outcome.attempted),
        "problems": outcome.problems,
        "wall_s": time.perf_counter() - t_start,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
