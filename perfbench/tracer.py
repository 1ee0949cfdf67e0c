"""Spans around the public functions of ``foi``'s modules, from outside.

``install`` replaces every public function defined in each traced module
with a wrapper that records a span (name, start, end, parent) and counts
calls and exceptions. Modules are reached through
``sys.modules["foi.<mod>"]``: on the package, ``foi.classify`` is the
*function* ``classify``, not the module. Names bound elsewhere by
``from ... import`` (``foi.cli.load_panel``, ``foi.reference.classify``,
...) and module-level dicts that hold functions (``foi.cli.COMMANDS``)
are found by identity and patched too, so every call goes through a
wrapper. A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "manifest", "panel", "rescale", "pillar", "classify", "report", "factor", "reference")

# Public functions at the time the benchmark was written. Each gets an
# ``.errors`` metric; the named metrics below refer to some of them.
FUNCTIONS = {
    "cli": ("build_parser", "cmd_ingest", "cmd_rescale", "cmd_indices", "cmd_classify", "cmd_shift",
            "cmd_factors", "cmd_verify", "cmd_export", "main"),
    "manifest": ("manifest_from_records", "load_manifest", "default_manifest"),
    "panel": ("load_panel", "write_panel", "validate_panel"),
    "rescale": ("min_max_rescale", "rescale_panel"),
    "pillar": ("compute_pillar_scores", "rank_countries"),
    "classify": ("classify", "classify_epoch", "shift_report"),
    "report": ("round_half_up", "scores_to_rows", "render_scores", "assignments_to_rows",
               "render_assignments", "render_shift", "factor_model_to_json", "factor_scores_to_csv",
               "write_text"),
    "factor": ("correlation_matrix", "bartlett_test", "anti_image_correlations", "kmo_statistic",
               "pca_extract", "kaiser_count", "varimax_criterion", "varimax_rotate", "variance_explained",
               "factor_scores", "fit_factor_model", "synthesize_known_factors", "load_variable_matrix",
               "congruence"),
    "reference": ("load_fixture", "verify_reference"),
}

# names bound by ``from ... import`` that ``install`` must cover (see the tests)
ALIASES = {
    "cli": ("load_panel", "validate_panel", "write_panel", "rescale_panel", "classify_epoch",
            "shift_report", "verify_reference", "default_manifest", "load_manifest"),
    "reference": ("classify",),
}

RENDER = ("report.render_scores", "report.render_assignments", "report.render_shift",
          "report.factor_model_to_json", "report.factor_scores_to_csv")
MANIFEST_LOAD = ("manifest.default_manifest", "manifest.load_manifest")


def _facts(name, result):
    """Sizes taken from a traced function's result."""
    if name == "panel.load_panel":
        return {"cells": result.values.size}
    if name == "factor.correlation_matrix":
        return {"pairs": result.p * (result.p - 1) // 2}
    if name == "factor.varimax_rotate":
        return {"converged": int(bool(result[3]))}
    return None


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.op = -1
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.facts: list[tuple[int, str, dict]] = []

    def begin_op(self) -> None:
        self.op += 1
        self.stack.clear()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([self.op, name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self.spans[idx][3] = time.perf_counter()
                self.stack.pop()
            facts = _facts(name, result)
            if facts:
                self.facts.append((self.op, name, facts))
            return result

        return traced

    def per_op(self) -> list[dict]:
        """Per op: ``{"self": {name: s}, "incl": {name: s}, "calls": {name: n}, "facts": {...}}``."""
        ops = [
            {"self": defaultdict(float), "incl": defaultdict(float), "calls": Counter(), "facts": defaultdict(float)}
            for _ in range(self.op + 1)
        ]
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (op, name, start, end, parent) in enumerate(self.spans):
            rec = ops[op]
            rec["self"][name] += (end - start) - child[i]
            rec["incl"][name] += end - start
            rec["calls"][name] += 1
        for op, name, facts in self.facts:
            for key, value in facts.items():
                ops[op]["facts"][f"{name}.{key}"] += value
        return ops


class Installed:
    """Patched names; ``restore`` puts the originals back."""

    def __init__(self):
        self.patches: list[tuple[dict, object, object]] = []
        self.wrapped: set[str] = set()

    def restore(self) -> None:
        for space, key, original in reversed(self.patches):
            space[key] = original
        self.patches.clear()


def _foi_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "foi" or name.startswith("foi."))]


def install(tracer: Tracer) -> Installed:
    """Wrap every public function of the traced modules, and every name
    or dict entry in a loaded ``foi`` module that is bound to one."""
    wrappers: dict[int, tuple[object, object]] = {}
    done = Installed()
    for mod in MODULES:
        module = sys.modules.get(f"foi.{mod}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrappers[id(obj)] = (obj, tracer.wrap(f"{mod}.{name}", obj))
            done.wrapped.add(f"{mod}.{name}")
    for module in _foi_modules():
        space = vars(module)
        for key, value in list(space.items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                done.patches.append((space, key, value))
                space[key] = wrappers[id(value)][1]
            elif isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if id(v) in wrappers and wrappers[id(v)][0] is v:
                        done.patches.append((value, k, v))
                        value[k] = wrappers[id(v)][1]
    return done


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    return [name for name, _ in LAYER_METRICS] + [
        f"{mod}.{fn}.errors" for mod, fns in FUNCTIONS.items() for fn in fns
    ]


def _self_ms(fn):
    return lambda ops, run: _median([1e3 * o["self"][fn] for o in ops if fn in o["calls"]])


def _incl_ms(*fns):
    def metric(ops, run):
        hit = [o for o in ops if any(f in o["calls"] for f in fns)]
        return _median([1e3 * sum(o["incl"][f] for f in fns) for o in hit])

    return metric


def _calls(fn):
    return lambda ops, run: _median([o["calls"][fn] for o in ops if fn in o["calls"]])


def _fact(fn, key):
    return lambda ops, run: _median([o["facts"][f"{fn}.{key}"] for o in ops if fn in o["calls"]])


def _cells_per_s(ops, run):
    cells = sum(o["facts"]["panel.load_panel.cells"] for o in ops)
    secs = sum(o["incl"]["panel.load_panel"] for o in ops)
    return cells / secs if secs else 0.0


def _converged(ops, run):
    calls = sum(o["calls"]["factor.varimax_rotate"] for o in ops)
    return sum(o["facts"]["factor.varimax_rotate.converged"] for o in ops) / calls if calls else 0.0


def _run(key):
    return lambda ops, run: run[key]


# name -> (how it is computed from the per-op records and the run facts, unit)
LAYER_METRICS = [
    ("import.foi_ms", (_run("import.foi_ms"), "ms")),
    ("import.scipy_stats_ms", (_run("import.scipy_stats_ms"), "ms")),
    ("import.numpy_ms", (_run("import.numpy_ms"), "ms")),
    ("import.modules", (_run("import.modules"), "count")),
    ("import.scipy_stats_loaded", (_run("import.scipy_stats_loaded"), "bool")),
    ("manifest.load_ms", (_incl_ms(*MANIFEST_LOAD), "ms")),
    ("panel.load_panel.ms", (_self_ms("panel.load_panel"), "ms")),
    ("panel.load_panel.calls", (_calls("panel.load_panel"), "count")),
    ("panel.load_panel.cells_per_s", (_cells_per_s, "1/s")),
    ("panel.validate_panel.ms", (_self_ms("panel.validate_panel"), "ms")),
    ("panel.write_panel.ms", (_self_ms("panel.write_panel"), "ms")),
    ("rescale.rescale_panel.ms", (_self_ms("rescale.rescale_panel"), "ms")),
    ("pillar.compute_pillar_scores.ms", (_self_ms("pillar.compute_pillar_scores"), "ms")),
    ("pillar.rank_countries.ms", (_self_ms("pillar.rank_countries"), "ms")),
    ("classify.classify_epoch.ms", (_self_ms("classify.classify_epoch"), "ms")),
    ("classify.classify.calls", (_calls("classify.classify"), "count")),
    ("classify.shift_report.ms", (_self_ms("classify.shift_report"), "ms")),
    ("cli.cmd_rescale.self_ms", (_self_ms("cli.cmd_rescale"), "ms")),
    ("report.render.ms", (_incl_ms(*RENDER), "ms")),
    ("report.write_text.ms", (_self_ms("report.write_text"), "ms")),
    ("report.bytes_out", (_run("report.bytes_out"), "bytes")),
    ("factor.load_variable_matrix.ms", (_self_ms("factor.load_variable_matrix"), "ms")),
    ("factor.correlation_matrix.ms", (_self_ms("factor.correlation_matrix"), "ms")),
    ("factor.correlation_matrix.pairs", (_fact("factor.correlation_matrix", "pairs"), "count")),
    ("factor.bartlett_test.ms", (_self_ms("factor.bartlett_test"), "ms")),
    ("factor.kmo_statistic.ms", (_self_ms("factor.kmo_statistic"), "ms")),
    ("factor.pca_extract.ms", (_self_ms("factor.pca_extract"), "ms")),
    ("factor.pca_extract.calls", (_calls("factor.pca_extract"), "count")),
    ("factor.varimax_rotate.ms", (_self_ms("factor.varimax_rotate"), "ms")),
    ("factor.varimax_rotate.converged", (_converged, "ratio")),
    ("factor.factor_scores.ms", (_self_ms("factor.factor_scores"), "ms")),
    ("factor.fit_factor_model.self_ms", (_self_ms("factor.fit_factor_model"), "ms")),
    ("reference.load_fixture.ms", (_self_ms("reference.load_fixture"), "ms")),
    ("reference.verify_reference.ms", (_self_ms("reference.verify_reference"), "ms")),
    ("trace.overhead_ms", (_run("trace.overhead_ms"), "ms")),
]

# metric -> the traced functions it needs; a metric is absent when one is gone
_NEEDS = {"manifest.load_ms": MANIFEST_LOAD, "report.render.ms": RENDER}


def _needs(metric: str) -> tuple[str, ...]:
    if metric in _NEEDS:
        return _NEEDS[metric]
    if metric.startswith(("import.", "trace.")) or metric == "report.bytes_out":
        return ()
    mod, fn = metric.split(".")[:2]
    return (f"{mod}.{fn}",)


def layer_metrics(tracer: Tracer, wrapped: set[str], run: dict) -> tuple[dict, list[str]]:
    """``({name: {"value", "unit"}}, absent names)``. An absent metric reads
    0: a function it needs was not found in the program."""
    ops = tracer.per_op()
    how = dict(LAYER_METRICS)
    out, absent = {}, []
    for name in layer_metric_names():
        if not all(f in wrapped for f in _needs(name)):
            absent.append(name)
            value = 0.0
        elif name.endswith(".errors"):
            value = float(tracer.errors[name[: -len(".errors")]])
        else:
            value = float(how[name][0](ops, run))
        out[name] = {"value": value, "unit": how[name][1] if name in how else "count"}
    return out, absent
