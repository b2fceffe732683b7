"""Span tracing for the traced benchmark run.

The tracer wraps functions of ``impartial`` from outside: every module
attribute that refers to a traced function is swapped for a wrapper while
a traced pass runs, so each caller resolves the wrapper under the name it
already uses (``impartial.harness.experiment.fit_total``,
``impartial.cli.load_csv``, ...). QR is traced at ``scipy.linalg.qr`` and
``numpy.linalg.qr``, the public entry points the package calls through.

Each call records a span ``[name, start, end, parent, pass_id]``. Spans
stay in memory and are written out once, when the run ends. Counts that
belong to a call (QR flops and bytes, tree nodes, stratification
fallbacks) are recorded at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy
import scipy.linalg

import impartial.cli
import impartial.data
import impartial.decomposition
import impartial.estimators
import impartial.harness.calders
import impartial.harness.experiment
import impartial.harness.trees
import impartial.linalg
import impartial.metrics


def _qr_counts(counters, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    m, n = numpy.shape(a)
    big, small = max(m, n), min(m, n)
    # Householder QR of an m x n matrix (m >= n): 2mn^2 - 2n^3/3 flops.
    counters["linalg.qr.flops_computed"] += 2 * big * small**2 - 2 * small**3 / 3
    counters["linalg.qr.bytes_computed"] += 8 * m * n


def _tree_counts(counters, args, kwargs, result):
    # The fitted trees are private to BaggedTrees; their value arrays hold
    # one entry per node.
    counters["harness.trees.nodes"] += sum(t.value.size for t in result._trees)


def _calders_counts(counters, args, kwargs, result):
    counters["harness.calders.bins"] += len(result.bin_fits)
    counters["harness.calders.fallback_bins"] += sum(
        isinstance(b, float) for b in result.bin_fits
    )


# (span name, owner object, attribute, counter hook). Module-level functions
# are patched wherever an impartial module holds a reference to them.
TARGETS = (
    ("data.load_csv", impartial.data, "load_csv", None),
    ("data.encode", impartial.data, "encode", None),
    ("data.take", impartial.data, "take", None),
    ("data.take_design", impartial.data, "take_design", None),
    ("data.fingerprint", impartial.data.EncodedDesign, "fingerprint", None),
    ("linalg.solve_least_squares", impartial.linalg, "solve_least_squares", None),
    (
        "linalg.solve_least_squares_multi",
        impartial.linalg,
        "solve_least_squares_multi",
        None,
    ),
    ("linalg.project", impartial.linalg, "project", None),
    ("linalg.qr", scipy.linalg, "qr", _qr_counts),
    ("linalg.qr", numpy.linalg, "qr", _qr_counts),
    ("estimators.fit_total", impartial.estimators, "fit_total", None),
    ("estimators.predict", impartial.estimators, "predict", None),
    ("estimators.correct_blackbox", impartial.estimators, "correct_blackbox", None),
    ("decomposition.decompose", impartial.decomposition, "decompose", None),
    ("metrics.impartiality_score", impartial.metrics, "impartiality_score", None),
    ("metrics.discrimination_score", impartial.metrics, "discrimination_score", None),
    ("harness.trees.fit", impartial.harness.trees.BaggedTrees, "fit", _tree_counts),
    ("harness.trees.predict", impartial.harness.trees.BaggedTrees, "predict", None),
    ("harness.calders.fit", impartial.harness.calders, "fit_calders", _calders_counts),
    ("harness.calders.predict", impartial.harness.calders, "predict_calders", None),
    (
        "harness.experiment.kfold_validate",
        impartial.harness.experiment,
        "kfold_validate",
        None,
    ),
    ("cli.main", impartial.cli, "main", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in TARGETS))


class Tracer:
    """In-memory span recorder; patches the targets only inside ``traced``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._pass_id = -1

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                    tracer._pass_id]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counters[tracer._pass_id], args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def traced(self, pass_id: int):
        """Patch every target for the duration of one pass."""
        self._pass_id = pass_id
        self.counters[pass_id] = defaultdict(int)
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "impartial" or k.startswith("impartial."))
        ]
        patched = []
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            holders = [owner] if isinstance(owner, type) else [owner, *modules]
            for holder in dict.fromkeys(holders):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patched.append((holder, key, original))
                        setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for holder, key, original in reversed(patched):
                setattr(holder, key, original)
            self._pass_id = -1

    def pass_totals(self, pass_ids) -> dict[int, dict[str, dict[str, float]]]:
        """Per pass and span name: total time, self time and call count."""
        child = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = {p: {n: {"time_s": 0.0, "self_s": 0.0, "calls": 0} for n in SPAN_NAMES}
               for p in pass_ids}
        for idx, span in enumerate(self.spans):
            if span[4] not in out:
                continue
            entry = out[span[4]][span[0]]
            duration = span[2] - span[1]
            entry["time_s"] += duration
            entry["self_s"] += duration - child[idx]
            entry["calls"] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, pass_ids, overhead_s: float):
    """Per-layer metrics over the traced passes, plus the count mismatches.

    Times are medians over passes of the per-pass totals. Counts are taken
    from the first traced pass; any pass whose counts differ is listed,
    because these counts must repeat exactly.
    """
    by_pass = tracer.pass_totals(pass_ids)
    totals = [by_pass[p] for p in pass_ids]
    metrics: dict[str, float] = {"trace.overhead_s": overhead_s}
    for name in SPAN_NAMES:
        for field in ("time_s", "self_s"):
            metrics[f"{name}.{field}"] = statistics.median(t[name][field] for t in totals)

    def counts(p, t):
        c = tracer.counters[p]
        out = {f"{name}.calls": t[name]["calls"] for name in SPAN_NAMES}
        out["linalg.qr.flops_computed"] = c["linalg.qr.flops_computed"]
        out["linalg.qr.bytes_computed"] = c["linalg.qr.bytes_computed"]
        out["harness.trees.nodes"] = c["harness.trees.nodes"]
        fits = t["estimators.fit_total"]["calls"]
        out["linalg.qr_per_fit"] = t["linalg.qr"]["calls"] / fits if fits else 0.0
        bins = c["harness.calders.bins"]
        out["harness.calders.fallback_ratio"] = (
            c["harness.calders.fallback_bins"] / bins if bins else 0.0
        )
        return out

    per_pass = [counts(p, t) for p, t in zip(pass_ids, totals)]
    metrics.update(per_pass[0])
    unequal = sorted(k for k in per_pass[0] if any(c[k] != per_pass[0][k] for c in per_pass))
    return metrics, unequal
