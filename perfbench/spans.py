"""Spans around the public entry points of each sortweaver module.

The tracer wraps functions from the outside: every module attribute that is
the original function object is replaced by a wrapper for the traced run and
restored afterwards, so the CLI code path itself is unchanged.  Hot inner
helpers (``lifted_callees``, ``callers_of``) stay unwrapped to keep the
overhead small.

A span is ``[name, start, end, parent index]``; spans live in memory and are
summarised when the run ends.  A layer's self time is its spans' durations
minus the time covered by their child spans.  Counts are read from the
values the wrapped functions return.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _count_lifted(stats, result, args, kwargs):
    policy = kwargs.get("policy", args[1] if len(args) > 1 else None) or args[0].policy
    key = f"model.lifted_edges.{policy.value if hasattr(policy, 'value') else policy}"
    stats.peak[key] = max(stats.peak[key], len(result))


def _count_load(stats, result, args, kwargs):
    stats.sums["model.loads"] += 1
    stats.peak["model.methods"] = max(stats.peak["model.methods"], len(result.methods))
    stats.peak["model.calls"] = max(stats.peak["model.calls"], len(result.calls))


def _count_seeds(key):
    def count(stats, result, args, kwargs):
        stats.sums[key] += len(result)
        if key == "mining.fanin_seeds":
            stats.sums["mining.fanin_examined"] += len(args[0].methods)
    return count


def _count_query(stats, result, args, kwargs):
    stats.sums["queries.hits"] += len(result.hits)
    if result.sort.value in ("EC", "EP"):
        stats.sums["queries.chains"] += len(result.hits)


def _count_plan(stats, result, args, kwargs):
    stats.sums["plans.edits"] += len(result.edits)
    stats.sums["plans.warnings"] += len(result.warnings)


def _count_sum(key, measure=len):
    def count(stats, result, args, kwargs):
        stats.sums[key] += measure(result)
    return count


#: (layer name, module, attribute or Class.method, count hook)
LAYERS = (
    ("lexer.tokenize", "sortweaver.minilang.lexer", "tokenize", _count_sum("lexer.tokens")),
    ("parser.parse", "sortweaver.minilang.parser", "parse", None),
    ("extract.extract_facts", "sortweaver.minilang.extract", "extract_facts",
     _count_sum("extract.records", lambda r: len(r.records))),
    ("extract.to_jsonl", "sortweaver.minilang.extract", "ExtractResult.to_jsonl",
     _count_sum("extract.bytes", lambda r: len(r.encode("utf-8")))),
    ("model.load_facts", "sortweaver.model", "load_facts", None),
    ("model.load_records", "sortweaver.model", "load_records", _count_load),
    ("model.lifted_edges", "sortweaver.model", "SourceModel.lifted_edges", _count_lifted),
    ("mining.fan_in_analysis", "sortweaver.mining", "fan_in_analysis",
     _count_seeds("mining.fanin_seeds")),
    ("mining.grouped_calls_analysis", "sortweaver.mining", "grouped_calls_analysis",
     _count_seeds("mining.grouped_seeds")),
    ("mining.find_redirectors", "sortweaver.mining", "find_redirectors",
     _count_seeds("mining.redirect_seeds")),
    *(
        (f"queries.query_{sort}", "sortweaver.queries", f"query_{sort}", _count_query)
        for sort in ("cb", "rl", "ec", "ep", "rsi", "sc")
    ),
    ("queries.execute_binding", "sortweaver.queries", "execute_binding", None),
    ("queries.expand_seed", "sortweaver.queries", "expand_seed", None),
    ("concerns.load_model", "sortweaver.concerns", "load_model", None),
    ("concerns.run_all", "sortweaver.concerns", "run_all", _count_sum("concerns.instances")),
    ("concerns.save_model", "sortweaver.concerns", "save_model", None),
    ("plans.plan_for", "sortweaver.refactoring.plans", "plan_for", _count_plan),
    ("plans.combine_plans", "sortweaver.refactoring.plans", "combine_plans", None),
    ("plans.check_precedence", "sortweaver.refactoring.plans", "check_precedence",
     _count_sum("plans.warnings")),
    ("plans.apply_edits", "sortweaver.refactoring.plans", "apply_edits", None),
    ("aspect_text.render_doc", "sortweaver.refactoring.aspect_text", "render_doc", None),
)

COUNTS = (
    "lexer.tokens", "extract.records", "extract.bytes",
    "model.loads", "model.methods", "model.calls",
    "model.lifted_edges.static_only", "model.lifted_edges.lift_to_ancestors",
    "model.lifted_edges.lift_both",
    "mining.fanin_seeds", "mining.grouped_seeds", "mining.redirect_seeds",
    "queries.hits", "queries.chains", "concerns.instances", "plans.edits", "plans.warnings",
)


class _Stats:
    def __init__(self):
        self.sums: dict[str, float] = defaultdict(float)
        self.peak: dict[str, float] = defaultdict(float)


class Tracer:
    """Records spans for the layers in :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stats = _Stats()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, stats, clock = self.spans, self.stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(stats, result, args, kwargs)
            return result

        return wrapper

    @contextmanager
    def root(self, name: str):
        """A top-level span for one workload step (a CLI command or a check)."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1])
        self.stack.append(index)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "sortweaver" or n.startswith("sortweaver.")]
        for name, module_name, attr, count in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def summary(self, total_s: float) -> dict[str, float]:
        """Per-layer self times and counts; ``cli.self_s`` is the command
        time no layer span covers, ``script.self_s`` the rest of total_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}_s": 0.0 for layer, *_ in LAYERS}
        out["cli.self_s"] = 0.0
        out["script.self_s"] = total_s
        for (name, start, end, parent), covered in zip(self.spans, child_time):
            own = end - start - covered
            if parent >= 0:
                out[f"{name}_s"] += own
                continue
            out["script.self_s"] -= end - start
            out["cli.self_s" if name.startswith("cli.") else "script.self_s"] += own
        for key in COUNTS:
            out[key] = self.stats.sums.get(key, 0.0) + self.stats.peak.get(key, 0.0)
        examined = self.stats.sums.get("mining.fanin_examined", 0.0)
        out["mining.fanin_yield"] = out["mining.fanin_seeds"] / examined if examined else 0.0
        out["trace.spans"] = float(len(self.spans))
        layers = sum(v for k, v in out.items() if k.endswith("_s") and k != "script.self_s")
        out["trace.accounted_ratio"] = layers / total_s if total_s else 0.0
        return out
