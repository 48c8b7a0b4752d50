"""Spans and counts around calls into the uclt layers, for traced benchmark runs.

`install()` replaces each traced function with a wrapper wherever callers
look the name up: every binding of the same function object in a loaded
`uclt` module (for example `uclt.cli.estimate_moment_curves`,
`uclt.integrals.psi_lower_star`, `uclt.simulate.w_operator`), or the class
attribute for a method.  Untraced runs never import this module.

Spans are kept in memory as (name, parent, start, end) records.  A layer's
self time is the time inside its spans minus the time inside their child
spans, so nested layers are not counted twice.  Each thread keeps its own
span stack; with the default single worker thread every span nests under
`cli.main`.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# span name -> functions, as (module, attribute path).  The metric for a
# span is "<span>_s", its self time.
SPANS = {
    "cli.self": [("uclt.cli", "main")],
    "psi.lower_star": [("uclt.psi", "psi_lower_star")],
    "integrals.self": [("uclt.integrals", name) for name in (
        "measure_profile", "entropy_integral", "integrand_trace", "moment_level_check",
        "subq_level_check", "exponent_comparison")],
    "distances.matrix": [("uclt.distances", "distance_matrix")],
    "distances.field_csv": [("uclt.distances", "PairwiseMomentField.to_csv_dir")],
    "simulate.moment_curves": [("uclt.simulate", "estimate_moment_curves")],
    "simulate.clt": [("uclt.simulate", "clt_diagnostic")],
    "simulate.osekowski": [("uclt.simulate", "osekowski_check")],
    "simulate.tail_domination": [("uclt.simulate", "tail_domination_check")],
    # the engine's variate generator: one call per chunk of every engine pass
    "simulate.generate": [("uclt.simulate", "_generate")],
    "tails.w_operator": [("uclt.tails", "w_operator")],
    "covering.sweep": [("uclt.covering", "covering_numbers_greedy")],
    "covering.load": [("uclt.covering", "load_coords_csv")],
}

# call counters without a span: cheap enough for functions called tens of
# thousands of times inside another layer's span
COUNTED = {"tails.second_moment_calls": ("uclt.tails", "tail_second_moment")}


class Tracer:
    def __init__(self):
        self.records: list[list] = []       # [name, parent index or None, start, end]
        self.counts: dict[str, int] = {name: 0 for name in COUNTED}
        self.draws = 0
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(self.records))
            self.records.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if name == "simulate.generate":
                self.draws += int(result.size)   # count * n * points of one chunk
            return result
        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function; raises LookupError if one is gone."""
        for name, targets in SPANS.items():
            for module, attr in targets:
                _replace(module, attr, lambda fn, name=name: self.span(name, fn))
        for name, (module, attr) in COUNTED.items():
            _replace(module, attr, lambda fn, name=name: self.counter(name, fn))

    def metrics(self) -> dict[str, float]:
        """Self time per span name plus the counts, keyed by metric name."""
        child = [0.0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent is not None:
                child[parent] += end - start
        out = {f"{name}_s": 0.0 for name in SPANS}
        for (name, _, start, end), inner in zip(self.records, child):
            out[f"{name}_s"] += (end - start) - inner
        out["psi.lower_star_calls"] = sum(1 for r in self.records if r[0] == "psi.lower_star")
        out.update(self.counts)
        out["simulate.draws"] = self.draws
        gen = out["simulate.generate_s"]
        out["simulate.draws_per_s"] = self.draws / gen if gen > 0 else 0.0
        return out


def _replace(module: str, attr: str, make_wrapper) -> None:
    mod = importlib.import_module(module)
    owner_path, _, leaf = attr.rpartition(".")
    owner = mod
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    try:
        original = getattr(owner, leaf)
    except AttributeError:
        raise LookupError(f"trace hook {module}.{attr} not found; bench/tracer.py "
                          f"must follow the rename") from None
    wrapper = make_wrapper(original)
    if owner is not mod:                       # a method: patch the class
        setattr(owner, leaf, wrapper)
        return
    for name, loaded in list(sys.modules.items()):
        if name != "uclt" and not name.startswith("uclt."):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapper)
