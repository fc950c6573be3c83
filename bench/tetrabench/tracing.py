"""Span tracing around the public functions of every ``tetra`` module.

``install`` replaces each public function binding in each module -- also
the names one module imported from another, such as
``tetra.interpolate.membership`` -- with a wrapper that records a span.  A
span is named after the function's defining module (``tetrablock.membership``
whichever module called it) and carries its parent span and the op it
belongs to, so calls crossing a layer boundary are recorded where they
happen.  Spans of one op are kept in memory and folded into per-function
aggregates when the op ends; ``uninstall`` restores every original binding.
"""
from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

from tetra.errors import TetraError

from .spec import CLI_SUBCOMMANDS

MODULES = ("linalg", "tetrablock", "metrics", "autgroup", "interpolate", "musyn", "cli")
# spans under which membership/op_norm calls are counted per unit of work
COUNTED_UNDER = ("musyn.mu_diag", "interpolate.verify_interpolant")
COUNTED = ("tetrablock.membership", "linalg.op_norm")

# span fields
NAME, PARENT, OP, START, END, FAILED, TAGS = range(7)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.  Spans are in start order."""
    covered = [0] * len(spans)
    reach = {}
    for s in spans:
        p = s[PARENT]
        if p < 0:
            continue
        lo = max(s[START], spans[p][START], reach.get(p, s[START]))
        hi = min(s[END], spans[p][END])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def _cli_subcommand(argv):
    return next((a for a in argv if a in CLI_SUBCOMMANDS), "none")


def _variant_tags(args, kwargs, phi):
    return {"variant": phi.variant, "flipped": phi.flipped}


def _sep_tags(args, kwargs, result):
    return {"degree": result[1].get("degree")}


def _verify_tags(args, kwargs, report):
    return {"samples": report.samples}


TAPS = {
    "interpolate.solve_schwarz": _variant_tags,
    "interpolate.solve_with_sigma": _variant_tags,
    "tetrablock.separating_polynomial": _sep_tags,
    "interpolate.verify_interpolant": _verify_tags,
}


class Tracer:
    """Records spans of wrapped calls and folds them per op."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.op = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.fails = defaultdict(int)
        self.counted = defaultdict(int)    # (ancestor, name) -> calls
        self.units = defaultdict(int)      # ancestor -> calls, or samples audited
        self.tags = defaultdict(list)      # (name, tag) -> values
        self._saved = []

    def wrap(self, name, fn):
        tracer, clock, tap = self, self.clock, TAPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            span_name = name
            if name == "cli.run":
                span_name = f"cli.run.{_cli_subcommand(args[0] if args else kwargs['argv'])}"
            span = [span_name, stack[-1] if stack else -1, tracer.op, clock(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except TetraError:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if tap is not None:
                span[TAGS] = tap(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function binding of every module."""
        wrappers = {}
        targets = [importlib.import_module("tetra")]
        targets += [importlib.import_module(f"tetra.{m}") for m in MODULES]
        for module in targets:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith("tetra.")
                    or attr == "main"
                ):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def end_op(self):
        """Fold the finished op's spans into the aggregates."""
        spans = self.spans
        nearest = [-1] * len(spans)    # nearest COUNTED_UNDER ancestor
        for i, (s, st) in enumerate(zip(spans, self_times(spans))):
            name, p = s[NAME], s[PARENT]
            self.calls[name] += 1
            self.self_ns[name] += st
            if s[FAILED]:
                self.fails[name] += 1
            anc = nearest[p] if p >= 0 else -1
            if name in COUNTED and anc >= 0:
                self.counted[(spans[anc][NAME], name)] += 1
            if name in COUNTED_UNDER:
                nearest[i] = i
                self.units[name] += (s[TAGS] or {}).get("samples", 1)
            else:
                nearest[i] = anc
            if s[TAGS]:
                for key, value in s[TAGS].items():
                    self.tags[(name, key)].append(value)
        spans.clear()
        self.op += 1
