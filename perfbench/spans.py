"""Spans around the library's layers, recorded from outside the library.

Each traced function is replaced, as it is bound in the module that
calls it, by a wrapper that records a span: layer name, start, end, the
index of the enclosing span, and for enumerations the number of items
returned. Spans of one op are kept in memory and folded into per-layer
totals when the op ends. A layer's self time is its span minus the
spans directly inside it; busy time counts only spans not nested in a
span of the same layer.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, module whose binding is replaced, attribute, count items returned)
LAYERS = [
    ("laurent.enum_fp", "wreathconj.depth", "enumerate_split_subgroups_fp", True),
    ("laurent.enum_z", "wreathconj.depth", "enumerate_split_subgroups_z", True),
    ("laurent.quotient_test", "wreathconj.depth", "conjugate_in_split_quotient", False),
    ("laurent.same_class", "wreathconj.depth", "same_conjugacy_class", False),
    ("depth.split_depth", "wreathconj.depth", "split_conjugacy_depth", False),
    ("depth.sweep", "wreathconj.depth", "depth_sweep", False),
    ("depth.classes", "wreathconj.depth", "conjugacy_classes", True),
    ("depth.quotient_key", "wreathconj.depth", "quotient_class_key", False),
    ("wreath.conjugate_test", "wreathconj.wreath", "conjugate_test", False),
    ("wreath.conjugate_test", "wreathconj.witness", "conjugate_test", False),
    ("wreath.reduce", "wreathconj.wreath", "reduce", False),
    ("wreath.reduce", "wreathconj.witness", "reduce", False),
    ("wreath.reduce", "wreathconj.depth", "reduce", False),
    ("witness.full_witness", "wreathconj.witness", "full_witness", False),
    ("witness.separating_modulus", "wreathconj.witness", "separating_modulus", False),
    ("abelian.quotient_mod", "wreathconj.witness", "quotient_mod", False),
    ("abelian.solve_multiple", "wreathconj.witness", "solve_multiple", False),
    ("abelian.solve_multiple", "wreathconj.wreath", "solve_multiple", False),
]

ROOT = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, layer: str, fn, count: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                items = len(result) if count and result is not None else 0
                spans[idx] = (layer, start, end, parent, items)

        return traced

    def install(self) -> None:
        for layer, module, attr, count in LAYERS:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(layer, getattr(mod, attr), count))

    def run_op(self, fn):
        """Run one op under a root span, keeping only the op's spans."""
        self.spans.clear()
        self._stack.clear()
        return self.wrap(ROOT, fn, False)()


def fold(spans: list) -> dict:
    """Per-layer [calls, busy_s, self_s, items] from one op's spans.

    A span left as None was cut by an exception raised outside the
    wrapper's reach and is skipped."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in filter(None, spans):
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for idx, span in enumerate(spans):
        if span is None:
            continue
        layer, start, end, parent, items = span
        dur = end - start
        row = out.setdefault(layer, [0, 0.0, 0.0, 0])
        row[0] += 1
        row[2] += dur - child_time[idx]
        row[3] += items
        p = parent
        while p >= 0 and spans[p] is not None and spans[p][0] != layer:
            p = spans[p][3]
        if p < 0:
            row[1] += dur
    return out
