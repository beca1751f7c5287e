"""Span tracer for the per-layer benchmark run.

The tracer is installed from outside the package: it replaces each traced
function in its defining module and every other name bound to the same
object (``from .flinalg import rank_gf5`` makes ``transfer.rank_gf5`` such
a name), so the program's own files stay untouched.  Spans (group, start,
end, parent) are kept in memory and summarised once the workload ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "hopfext"


def _array_entries(args, kwargs, out) -> int:
    """Entries of every ndarray argument."""
    return sum(a.size for a in list(args) + list(kwargs.values())
               if isinstance(a, np.ndarray))


def _result_entries(args, kwargs, out) -> int:
    return int(out.size)


def _contraction_words(args, kwargs, out) -> int:
    return sum(len(words) for words in out.words.values())


# (group, module, attribute, size function) for every span-traced function.
# A group's size counts ``entries`` (matrix entries) or ``words`` (basis
# words); for memoised functions only calls that computed (cache misses)
# add to it.  diagonal_valuations lives in transfer but is an elimination
# kernel, so it is grouped and named with flinalg.
SPANS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("wordcx.contraction", "wordcx", "reduced_contraction", _contraction_words),
    ("wordcx.contraction", "wordcx", "block_contraction", _contraction_words),
    ("flinalg.gf5", "flinalg", "rref_gf5", _array_entries),
    ("flinalg.gf5", "flinalg", "rank_gf5", _array_entries),
    ("flinalg.gf5", "flinalg", "nullspace_gf5", _array_entries),
    ("flinalg.gf5", "flinalg", "inv_gf5", _array_entries),
    ("flinalg.mod", "flinalg", "rref_mod", _array_entries),
    ("flinalg.mod", "flinalg", "rank_mod", _array_entries),
    ("flinalg.mod", "flinalg", "nullspace_mod", _array_entries),
    ("flinalg.mod", "flinalg", "inv_mod", _array_entries),
    ("flinalg.mod", "flinalg", "solve_mod", _array_entries),
    ("flinalg.mod", "flinalg", "matmul_mod", _array_entries),
    ("flinalg.diagonal_valuations", "transfer", "diagonal_valuations",
     _array_entries),
    ("transfer.transferred_matrix", "transfer", "transferred_matrix",
     _result_entries),
    ("algebroid.eta_R", "algebroid", "eta_R", None),
    ("coefficients.kernel_saturated", "coefficients", "kernel_saturated", None),
    ("coefficients.smith_normal_form", "coefficients", "smith_normal_form",
     None),
    ("invariants.invariant_basis", "invariants", "invariant_basis", None),
    ("invariants.is_invariant", "invariants", "is_invariant", None),
    ("invariants.new_generators", "invariants", "new_generators", None),
    ("v1algebra.presented_dim", "v1algebra", "presented_dim", None),
)

# (group, module, class or None, attribute) for call-count-only functions;
# these run too often for a span each.
COUNTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("algebroid.push_coefficient", "algebroid", None, "push_coefficient"),
    ("gradedpoly.mul", "gradedpoly", "Polynomial", "__mul__"),
)

# Groups whose memo hit ratio is reported.
CACHED = ("wordcx.contraction", "transfer.transferred_matrix",
          "v1algebra.presented_dim")

SPAN_GROUPS = tuple(dict.fromkeys(g for g, *_ in SPANS))
COUNT_GROUPS = tuple(g for g, *_ in COUNTS)
SIZE_STAT = {g: ("words" if fn is _contraction_words else "entries")
             for g, _, _, fn in SPANS if fn is not None}


class Tracer:
    """Collects spans and counters; one instance per traced process."""

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.sizes: Counter = Counter()
        self.memos: Dict[str, list] = {}

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _rebind(self, orig, wrapper) -> None:
        """Point every module or class name bound to `orig` at `wrapper`."""
        for mod in self._modules():
            holders = [mod] + [v for v in vars(mod).values()
                               if isinstance(v, type)
                               and v.__module__ == mod.__name__]
            for holder in holders:
                for name, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, name, wrapper)

    def _span_wrapper(self, group: str, fn, size_of):
        spans, stack, sizes = self.spans, self.stack, self.sizes
        memo = fn if hasattr(fn, "cache_info") else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            misses = memo.cache_info().misses if memo is not None else 0
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (group, start, end, parent)
            if size_of is not None and (
                    memo is None or memo.cache_info().misses > misses):
                sizes[group] += size_of(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, group: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function; the package must already be imported."""
        for group, modname, attr, size_of in SPANS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            fn = getattr(mod, attr)
            if hasattr(fn, "cache_info"):
                self.memos.setdefault(group, []).append(fn)
            self._rebind(fn, self._span_wrapper(group, fn, size_of))
        for group, modname, cls, attr in COUNTS:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            holder = getattr(mod, cls) if cls else mod
            fn = vars(holder)[attr]
            self._rebind(fn, self._count_wrapper(group, fn))

    def summary(self, compute_s: float) -> Dict[str, Dict[str, float]]:
        """Per-group calls, self time, sizes and memo hit ratio.

        Self time is a span's duration minus the durations of its direct
        children.  Time outside every span goes to ``unattributed``."""
        child = [0.0] * len(self.spans)
        root = 0.0
        for group, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                root += end - start
        out: Dict[str, Dict[str, float]] = {
            g: {"calls": 0, "self_s": 0.0} for g in SPAN_GROUPS}
        for sid, (group, start, end, parent) in enumerate(self.spans):
            out[group]["calls"] += 1
            out[group]["self_s"] += end - start - child[sid]
        for group, stat in SIZE_STAT.items():
            out[group][stat] = self.sizes[group]
        for group in CACHED:
            hits = misses = 0
            for memo in self.memos.get(group, ()):
                info = memo.cache_info()
                hits += info.hits
                misses += info.misses
            out[group]["cache_hit"] = hits / (hits + misses) if hits + misses else 0.0
            out[group]["cache_lookups"] = hits + misses
        for group in COUNT_GROUPS:
            out[group] = {"calls": self.counts[group]}
        out["unattributed"] = {"self_s": compute_s - root}
        return out
