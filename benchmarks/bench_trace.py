"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces fraclap's public functions by wrappers at every module
attribute that holds them, which is where the program looks them up at call
time (``dynamics.power_from_factorization``, ``stability.rk45_integrate``,
``dynamics.adaptive_simpson`` ...), so nothing under ``src/`` changes.  Spans
are kept in memory; the workload process writes them out when it ends.
A span is ``[name, start, end, parent index, job]``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# (module, function) -> span name.
FUNCTION_SPANS = {
    ("graphs", "load_graph"): "graphs.load",
    ("graphs", "combinatorial_laplacian"): "graphs.laplacian",
    ("graphs", "directed_laplacians"): "graphs.laplacian",
    ("graphs", "normalized_laplacians"): "graphs.laplacian",
    ("graphs", "all_pairs_distances"): "graphs.distances",
    ("matfun", "sym_eig"): "matfun.decompose",
    ("matfun", "triangular_factorization"): "matfun.decompose",
    ("matfun", "power_from_factorization"): "matfun.power",
    ("matfun", "fractional_power_sym"): "matfun.power",
    ("integrators", "rk45_integrate"): "integrators.integrate",
    ("integrators", "bdf_integrate"): "integrators.integrate",
    ("quadrature", "adaptive_simpson"): "quadrature.integrate",
    ("stability", "floquet_exponents"): "stability.floquet",
    ("trajio", "write_trajectory"): "trajio.write",
    ("trajio", "write_matrix"): "trajio.write",
    ("trajio", "write_json"): "trajio.write",
}
# Position of the output path among the arguments of each trajio writer.
_PATH_ARG = {"write_trajectory": 2, "write_matrix": 1, "write_json": 1}
# (class, method) in fraclap.dynamics -> span name.
METHOD_SPANS = {
    ("SpectralGenerator", "from_matrix"): "dynamics.generator",
    ("GeneralGenerator", "from_matrix"): "dynamics.generator",
    ("KPathGenerator", "from_graph"): "dynamics.generator",
    ("SpectralGenerator", "matrix"): "dynamics.matrix",
    ("GeneralGenerator", "matrix"): "dynamics.matrix",
    ("KPathGenerator", "matrix"): "dynamics.kpath_matrix",
}
_STEP_COUNTERS = {"accepted": "integrators.steps",
                  "rejected": "integrators.rejected",
                  "rhs_evals": "integrators.rhs_evals",
                  "linear_solves": "integrators.linear_solves"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                  self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _count_integrand(self, args, kwargs):
        f = args[0]

        def counted(t):
            self.counts["quadrature.integrand_evals"] += 1
            return f(t)
        return (counted, *args[1:]), kwargs

    def _count_steps(self, args, kwargs):
        stats = kwargs.get("stats")
        if stats is not None:
            for field, key in _STEP_COUNTERS.items():
                self.counts[key] += getattr(stats, field)

    def _count_bytes(self, index):
        def after(args, kwargs):
            self.counts["trajio.bytes"] += os.path.getsize(args[index])
        return after

    def install(self) -> None:
        """Wrap the traced functions at every fraclap attribute holding them."""
        for module, _ in FUNCTION_SPANS:
            importlib.import_module(f"fraclap.{module}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fraclap" or key.startswith("fraclap.")]
        for (module, attr), name in FUNCTION_SPANS.items():
            original = getattr(sys.modules[f"fraclap.{module}"], attr)
            before = after = None
            if name == "quadrature.integrate":
                before = self._count_integrand
            elif name == "integrators.integrate":
                after = self._count_steps
            elif name == "trajio.write":
                after = self._count_bytes(_PATH_ARG[attr])
            wrapped = self._wrap(name, original, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        dynamics = sys.modules["fraclap.dynamics"]
        for (cls_name, attr), name in METHOD_SPANS.items():
            cls = getattr(dynamics, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))
        counting = sys.modules["fraclap.schedules"].ClampCountingSchedule
        evaluate = counting.__call__

        def counted_call(schedule, t):
            self.counts["schedules.evals"] += 1
            return evaluate(schedule, t)
        self._set(counting, "__call__", counted_call)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per span name: (calls, total time, self time = total minus children)."""
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    calls, total, own = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - children[i]
    return calls, total, own


# Per-layer metric -> unit.
LAYER_UNITS = {
    "graphs.load_s": "s",
    "graphs.laplacian_s": "s",
    "graphs.distances_s": "s",
    "graphs.distances_calls": "count",
    "matfun.decompose_s": "s",
    "matfun.power_s": "s",
    "matfun.power_calls": "count",
    "dynamics.generator_s": "s",
    "dynamics.assemblies": "count",
    "dynamics.assemblies_per_rhs": "ratio",
    "dynamics.kpath_matrix_s": "s",
    "integrators.self_s": "s",
    "integrators.steps": "count",
    "integrators.rejected": "count",
    "integrators.rhs_evals": "count",
    "integrators.linear_solves": "count",
    "quadrature.self_s": "s",
    "quadrature.integrand_evals": "count",
    "schedules.evals": "count",
    "stability.floquet_self_s": "s",
    "trajio.write_s": "s",
    "trajio.bytes": "B",
}


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced workload process."""
    calls, total, own = self_times(spans)
    assemblies = calls["dynamics.matrix"] + calls["dynamics.kpath_matrix"]
    rhs = counts.get("integrators.rhs_evals", 0)
    metrics = {
        "graphs.load_s": total["graphs.load"],
        "graphs.laplacian_s": total["graphs.laplacian"],
        "graphs.distances_s": total["graphs.distances"],
        "graphs.distances_calls": calls["graphs.distances"],
        "matfun.decompose_s": total["matfun.decompose"],
        "matfun.power_s": total["matfun.power"],
        "matfun.power_calls": calls["matfun.power"],
        "dynamics.generator_s": own["dynamics.generator"],
        "dynamics.assemblies": assemblies,
        "dynamics.assemblies_per_rhs": assemblies / rhs if rhs else 0.0,
        "dynamics.kpath_matrix_s": total["dynamics.kpath_matrix"],
        "integrators.self_s": own["integrators.integrate"],
        "quadrature.self_s": own["quadrature.integrate"],
        "stability.floquet_self_s": own["stability.floquet"],
        "trajio.write_s": total["trajio.write"],
    }
    for key in ("integrators.steps", "integrators.rejected",
                "integrators.rhs_evals", "integrators.linear_solves",
                "quadrature.integrand_evals", "schedules.evals",
                "trajio.bytes"):
        metrics[key] = counts.get(key, 0)
    return {key: metrics[key] for key in LAYER_UNITS}
