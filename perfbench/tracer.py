"""Span tracing of the dicke_fcs layers, installed from outside the package.

Every public function of the package modules is wrapped where a calling
module binds it (``dicke_fcs.statistics.system_frame``,
``dicke_fcs.prep_dynamics.solve_ivp``, ``dicke_fcs.oracle.spsolve`` ...), so
a call is timed whichever module makes it.  The layer of a span is the
module that defines the function; the three scipy solvers belong to the
module that binds them.

A span is (id, parent id, request id, name, start ns, end ns).  Spans are
kept in memory and written out by :meth:`Tracer.write_spans`.  The jets
primitives and ``CountingJet`` methods run tens of thousands of times per
request, so they are counted and timed (their time is still subtracted from
the parent's self time) but not stored one by one.
"""

from __future__ import annotations

import functools
import time

from dicke_fcs import (bogoliubov, cli, jets, model, oracle, prep_dynamics,
                       statistics)

LAYERS = ("cli", "statistics", "prep_dynamics", "bogoliubov", "model",
          "jets", "oracle")
MODULES = {"cli": cli, "statistics": statistics,
           "prep_dynamics": prep_dynamics, "bogoliubov": bogoliubov,
           "model": model, "jets": jets, "oracle": oracle}
#: third-party solvers, traced under the module that binds them
FOREIGN = {"prep_dynamics": ("solve_ivp",), "oracle": ("spsolve", "eigs")}
JET_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "reciprocal", "exp", "log", "sqrt", "derivative", "constant",
               "variable")


class _Aggregate:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


def _targets() -> dict:
    """Map each traced function object to (span name, layer)."""
    found = {}
    for layer, module in MODULES.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if (callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", "") == module.__name__):
                found[fn] = (f"{layer}.{attr}", layer)
        for attr in FOREIGN.get(layer, ()):
            found[getattr(module, attr)] = (f"{layer}.{attr}", layer)
    return found


class Tracer:
    """Installs wrappers for one traced pass at a time and aggregates them.

    ``begin_request`` / ``end_request`` bracket each request; spans opened
    in between get that request id.  Counters extracted from call arguments
    and results (RHS evaluations, solved dimensions, output bytes) live in
    ``counters``.
    """

    def __init__(self):
        self.spans: list = []
        self.aggregates: dict = {}
        self.counters = {"rhs_evals": 0, "dimension_sum": 0, "nnz_sum": 0,
                         "bytes_out": 0}
        self.keep_spans = True
        self._stack: list = []
        self._next_id = 0
        self._request = -1
        self._installed: list = []
        self._layers: dict = {}

    # -- bookkeeping --------------------------------------------------
    def begin_request(self, request_id: int):
        self._request = request_id
        self._stack = [[0, -1]]

    def end_request(self):
        self._stack = []
        self._request = -1

    def layer_of(self, name: str) -> str:
        return self._layers[name]

    # -- wrapping -----------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, store: bool):
        tracer = self
        agg = self.aggregates.setdefault(name, _Aggregate())
        self._layers[name] = layer
        extract = _EXTRACTORS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1]
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stack[-1][0] += dur
                agg.calls += 1
                agg.total_ns += dur
                agg.self_ns += dur - frame[0]
                if store and tracer.keep_spans:
                    tracer.spans.append((span_id, parent, tracer._request,
                                         name, start, end))
            if extract is not None:
                extract(tracer.counters, args, result)
            return result

        return traced

    def install(self):
        """Wrap every binding of every target; undone by :meth:`uninstall`."""
        wrappers = {}
        for fn, (name, layer) in _targets().items():
            wrappers[fn] = self._wrap(fn, name, layer, store=layer != "jets")
        for module in MODULES.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        cls = jets.CountingJet
        for attr in JET_METHODS:
            raw = cls.__dict__[attr]
            name = f"jets.CountingJet.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(raw.__func__, name, "jets", store=False))
            else:
                wrapped = self._wrap(raw, name, "jets", store=False)
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- output -------------------------------------------------------
    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,request,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")


def _count_solve(counters, args, result):
    counters["rhs_evals"] += int(result.nfev)


def _count_sparse(counters, args, result):
    matrix = args[0]
    counters["dimension_sum"] += int(matrix.shape[0])
    counters["nnz_sum"] += int(matrix.nnz)


def _count_bytes(counters, args, result):
    counters["bytes_out"] += len(result.encode())


_EXTRACTORS = {
    "prep_dynamics.solve_ivp": _count_solve,
    "oracle.spsolve": _count_sparse,
    "cli.cmd_scan": _count_bytes,
    "cli.cmd_evolve": _count_bytes,
}
