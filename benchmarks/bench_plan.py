"""The jobs of each workload, shared by the workload process and the checks.

A job is one call into fraclap in the order the CLI makes it: ``simulate``
(``fraclap simulate``), ``floquet`` (``fraclap floquet``), ``power``
(``fraclap power``) or ``kpath`` (``fraclap kpath``), each followed by the
write of its output file.
"""

from __future__ import annotations

SIN = "sin:0.5,0.4,12.566370614359172"
SAW = "saw:0.2,0.9,0.5"
EXPSAT = "expsat:2"
CONST = "const:0.5"
PERIOD = 0.5

# Per workload: graph name -> what set-up builds from it.  "comb", "out" and
# "nrw" build a fractional generator from that Laplacian, "kpath" the
# hop-coupling generator, "out-matrix" only the out-degree Laplacian and
# "graph" nothing beyond the loaded graph.
GENERATORS = {
    "spectral-sweep": {"spectral_a": "comb", "spectral_b": "comb"},
    "directed-sweep": {"dir30": "out", "nrw24": "nrw", "dir10": "out",
                       "dir60": "out-matrix"},
    "kpath-hops": {"kpath": "kpath"},
}


def _simulate(graph, model, schedule, method, horizon):
    return {"name": f"{graph}.{model}.{schedule.split(':')[0]}.{method}",
            "kind": "simulate", "graph": graph, "model": model,
            "schedule": schedule, "method": method, "horizon": horizon}


def _spectral_jobs():
    jobs = []
    for graph in GENERATORS["spectral-sweep"]:
        for schedule in (SIN, SAW, EXPSAT):
            for method in ("bdf", "rk45", "exact"):
                jobs.append(_simulate(graph, "heat", schedule, method, 2.0))
        jobs.append(_simulate(graph, "schrodinger", SIN, "rk45", 2.0))
        for schedule in (SIN, SAW):
            jobs.append({"name": f"{graph}.floquet.{schedule.split(':')[0]}",
                         "kind": "floquet", "graph": graph,
                         "schedule": schedule, "period": PERIOD})
    return jobs


JOBS = {
    "spectral-sweep": _spectral_jobs(),
    "directed-sweep": [
        _simulate("dir30", "heat", SIN, "bdf", 1.0),
        _simulate("dir30", "heat", CONST, "rk45", 1.0),
        _simulate("nrw24", "heat", SAW, "bdf", 1.0),
        {"name": "dir10.floquet.sin", "kind": "floquet", "graph": "dir10",
         "schedule": SIN, "period": PERIOD},
        {"name": "dir60.power", "kind": "power", "graph": "dir60",
         "alpha": 0.5},
    ],
    "kpath-hops": [
        _simulate("kpath", "heat", SAW, "bdf", 1.0),
        _simulate("kpath", "heat", CONST, "bdf", 1.0),
        {"name": "kpath.matrix", "kind": "kpath", "graph": "kpath",
         "alpha": 1.0},
    ],
}

# The k-path generator matrix is also dumped at this exponent for checking.
KPATH_CHECK_ALPHA = 0.5

WORKLOADS = tuple(JOBS)
