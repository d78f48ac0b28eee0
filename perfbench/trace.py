"""Run one disklab CLI command with every public function timed in spans.

Usage: python3 perfbench/trace.py SPANS_JSON TRACE_ID <disklab arguments>

Before the command runs, each public function of the disklab modules is
replaced, in every module that binds its name, by a wrapper that records
a span (id, name, start, end, parent id). Public methods are wrapped on
their class, and ``TaylorSeries.__mul__`` is recorded as ``series.mul``.
Spans and the work counters stay in memory and are written to
SPANS_JSON, together with TRACE_ID, when the command ends. The report goes
to standard output and the exit code is the command's, as with
``python -m disklab``.

The exact scalar ``GaussianRational`` is left unwrapped: a span per
arithmetic operation would swamp the run, and its cost already lands in
the moment-table spans that call it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter

import numpy as np

from disklab import cli, dbr, dirichlet, moments, quadrature, series, weights

LAYERS = {
    "quadrature": quadrature,
    "weights": weights,
    "series": series,
    "dirichlet": dirichlet,
    "moments": moments,
    "dbr": dbr,
    "cli": cli,
}
UNWRAPPED_CLASSES = {"GaussianRational"}
OPERATORS = {"__mul__": "mul"}

# span name -> (counter name, work done by one call, from its result and arguments)
COUNTERS = {
    "quadrature.make_disk_grid": ("quadrature.grid_nodes", lambda out, *a, **k: out.size),
    "quadrature.integrate": ("quadrature.integrand_evals", lambda out, grid, f: grid.size),
    "weights.eval_many": ("weights.eval_points", lambda out, self, z: np.size(z)),
    "series.evaluate_many": (
        "series.horner_terms",
        lambda out, self, z: np.size(z) * (self.order + 1),
    ),
}


class Tracer:
    """In-memory span recorder; one instance per traced command."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter({c: 0 for c, _ in COUNTERS.values()})
        self.names: set[str] = set()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        self.names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [len(self.spans), name, 0.0, 0.0,
                      self.stack[-1] if self.stack else None]
            self.spans.append(record)
            self.stack.append(record[0])
            record[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                self.counts[counter[0]] += int(counter[1](out, *args, **kwargs))
            return out

        return traced

    def install(self) -> None:
        wrapped: dict = {}
        for layer, module in LAYERS.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type) and attr not in UNWRAPPED_CLASSES:
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and (
                            not meth.startswith("_") or meth in OPERATORS
                        ):
                            name = f"{layer}.{OPERATORS.get(meth, meth)}"
                            setattr(obj, meth, self.wrap(name, fn))
        # rebind the name in every module that imported it
        for module in LAYERS.values():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        # the suite dispatch table holds the suite functions themselves
        for suite, fn in list(cli._SUITE_RUNNERS.items()):
            cli._SUITE_RUNNERS[suite] = wrapped[fn]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "names": sorted(self.names),
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def main() -> int:
    spans_path, trace_id, *argv = sys.argv[1:]
    tracer = Tracer(trace_id)
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
