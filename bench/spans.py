"""Span recorder for the traced benchmark run.

The recorder wraps functions of the ``convres`` modules from outside:
it swaps each target for a timing wrapper at every binding in the
package, because ``from .groebner import syzygy_basis`` copies the
function into ``complexes`` and ``observability`` (and ``__init__``
re-exports most of them).  Spans stay in memory as
``(name, start, end, parent, op)`` and are summarised at the end; a
few boundary counters are read from arguments and return values.
``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import sys
import time

# Functions traced per module, as named in the per-layer metrics.
TARGETS = {
    "cli": ("parse_input", "run_command"),
    "algebra": ("parse_poly",),
    "complexes": ("minimal_resolution", "validate_complex", "check_resolution",
                  "check_reduced", "check_pd", "leading_term_complex",
                  "homogenize_complex", "minimality_witness", "pd_failure_witness"),
    "groebner": ("groebner_basis", "syzygy_basis", "minimal_generators", "membership",
                 "module_equal", "normal_form", "matrix_kernel", "left_kernel"),
    "invariants": ("hilbert_values",),
    "observability": ("is_observable", "prop3_spot_check", "monic_irreducibles"),
    "oracle": ("hilbert_oracle", "truncated_code_space", "truncated_exactness",
               "rref_mod_p"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


def _count_groebner_basis(c, args, result):
    c["groebner.groebner_basis.basis_len"] += len(result)


def _count_syzygy_basis(c, args, result):
    c["groebner.syzygy_basis.in_cols"] += args[0].ncols
    c["groebner.syzygy_basis.out_cols"] += result.ncols


def _count_minimal_generators(c, args, result):
    c["groebner.minimal_generators.kept"] += result.ncols
    c["groebner.minimal_generators.inspected"] += len(args[0].generators)


def _count_rref(c, args, result):
    rows, cols = args[0].shape
    c["oracle.rref_mod_p.cells"] += rows * cols


def _count_minimal_resolution(c, args, result):
    c["complexes.minimal_resolution.out_cols"] += sum(result.complex.sizes)


def _count_irreducibles(c, args, result):
    c["observability.monic_irreducibles.count"] += len(result)


COUNTERS = {
    "groebner.groebner_basis": _count_groebner_basis,
    "groebner.syzygy_basis": _count_syzygy_basis,
    "groebner.minimal_generators": _count_minimal_generators,
    "oracle.rref_mod_p": _count_rref,
    "complexes.minimal_resolution": _count_minimal_resolution,
    "observability.monic_irreducibles": _count_irreducibles,
}

# Counters reported as they are; minimal_generators' kept and inspected
# are reported as their ratio.
COUNTS = ("groebner.groebner_basis.basis_len", "groebner.syzygy_basis.in_cols",
          "groebner.syzygy_basis.out_cols", "oracle.rref_mod_p.cells",
          "complexes.minimal_resolution.out_cols", "observability.monic_irreducibles.count")
COUNTER_NAMES = COUNTS + ("groebner.minimal_generators.kept",
                          "groebner.minimal_generators.inspected")


class SpanRecorder:
    """Records one span per call of each target while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.op = -1
        self.missing: list = []
        self._stack: list = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def install(self, package: str = "convres"):
        """Wrap every target at each of its bindings in the loaded package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod, fns in TARGETS.items():
            home = sys.modules.get(f"{package}.{mod}")
            for fn in fns:
                original = getattr(home, fn, None)
                if original is None:
                    self.missing.append(f"{mod}.{fn}")
                    continue
                traced = self.wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            self._patched.append((m, attr, original))

    def restore(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()


def summarize(spans) -> dict:
    """Per-name calls, total and self seconds from finished spans.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.  A
    span inside another span of the same name adds to ``calls`` and
    ``self_s`` but not again to ``total_s``.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[idx]
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["total_s"] += end - start
    return out


def layer_metrics(recorder: SpanRecorder) -> dict:
    """``{metric name: (value, unit)}`` for every span name and counter."""
    summary = summarize(recorder.spans)
    metrics = {}
    for name in SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.total_s"] = (row["total_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    c = recorder.counters
    for name in COUNTS:
        metrics[name] = (c[name], "count")
    inspected = c["groebner.minimal_generators.inspected"]
    metrics["groebner.minimal_generators.kept_ratio"] = (
        c["groebner.minimal_generators.kept"] / inspected if inspected else 0.0, "ratio")
    return metrics
