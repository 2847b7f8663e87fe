"""Spans and counters around the public functions of the tetrainst modules.

The wrappers live here, outside the package, and are installed only in the
forked child that runs one traced op.  Callers import these functions by
name (``from .algebra import bracket_eval``), so each wrapper replaces every
module attribute bound to the original function, not just the attribute of
the defining module; patching the defining module alone would record nothing.
"""

from __future__ import annotations

import importlib
import json
import re
import statistics
import sys
from pathlib import Path
from time import perf_counter

LAYERS = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())["layers"]
MODULES = ("algebra", "partitions", "vertex", "series", "formulas", "localization", "cli")
MEASURES = ("bracket_eval", "euler_eval", "theta_eval")
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans and raw counters of one op, kept in memory until the op ends.

    A span is ``(span_id, parent_id, name, start, end)``; the op id is added
    when the parent collects the spans.  Parent ``-1`` marks the root.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"mul_calls": 0, "measure_calls": 0, "poles": 0, "builds": 0,
                       "terms": 0, "vertices": 0, "sampler_tries": 0}
        self.configs = {}
        self.built = set()

    def span(self, name, fn, on_result=None, pole_error=()):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``on_result(args, result)`` runs after each call that returns; each
        ``pole_error`` raised through the wrapper is counted as a pole.
        """
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except pole_error:
                counts["poles"] += 1
                raise
            finally:
                spans[sid] = (sid, parent, name, start, perf_counter())
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap the spanned functions of every layer at every binding."""
        mods = {m: importlib.import_module(f"tetrainst.{m}") for m in MODULES}
        counts = self.counts

        def on_configurations(args, result):
            self.configs[(tuple(args[0]), args[1])] = len(result)

        def on_build(args, result):
            counts["builds"] += 1
            self.built.add(args[0])

        def on_vertex(args, result):
            counts["vertices"] += 1
            counts["terms"] += len(result.terms)

        def on_measure(args, result):
            counts["measure_calls"] += 1

        def on_sample(args, result):
            counts["sampler_tries"] += result[2]

        hooks = {
            "enumerate_configurations": on_configurations,
            "build_fixed_point": on_build,
            "vertex": on_vertex,
            "sample_until": on_sample,
        }
        pole = mods["algebra"].PoleAtPointError
        replace = {}
        for layer, spec in LAYERS.items():
            if layer == "cli":  # the root span is opened by the op runner
                continue
            for name in spec.get("spans", ()):
                fn = getattr(mods[layer], name)
                is_measure = name in MEASURES
                replace[id(fn)] = self.span(
                    f"{layer}.{name}",
                    fn,
                    on_measure if is_measure else hooks.get(name),
                    pole if is_measure else (),
                )
        # ids are safe keys: every original stays alive inside its wrapper
        for mod in [sys.modules["tetrainst"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

        qseries = mods["series"].QSeries
        mul = qseries.__mul__

        def counted_mul(a, b):
            counts["mul_calls"] += 1
            return mul(a, b)

        qseries.__mul__ = counted_mul

    def record(self):
        """Everything the parent needs, as plain data."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts,
                           configurations=sum(self.configs.values()),
                           unique_builds=len(self.built)),
        }


_RATIONAL = re.compile(r"^-?(\d+)(?:/(\d+))?$")


def coeff_digits_max(doc):
    """Largest digit count of a numerator or denominator among the report's rationals."""
    best = 0
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str):
            m = _RATIONAL.match(item)
            if m:
                best = max(best, len(m.group(1)), len(m.group(2) or ""))
    return best


def point_yield(doc):
    """Points used / points tried, summed over the report's sampled checks."""
    if "checks" in doc:
        used = sum(c["points_used"] for c in doc["checks"])
        tried = sum(c["points_tried"] for c in doc["checks"])
    else:
        used, tried = 1, doc["meta"]["points_tried"]
    return used / tried if tried else 1.0


def self_times(spans):
    """Self seconds per span name: duration minus the time direct children cover.

    Calls are sequential in one thread, so the direct children of a span do
    not overlap and their durations add up to the time they cover.
    """
    child = [0.0] * len(spans)
    for _sid, parent, _name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for sid, _parent, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child[sid]
    return out


def op_layer_times(spans):
    """Per-layer self seconds of one op, keyed by metric name."""
    by_name = self_times(spans)

    def layer(prefix):
        return sum(v for k, v in by_name.items() if k.startswith(prefix + "."))

    return {
        "partitions.self_s": layer("partitions"),
        "vertex.self_s": layer("vertex"),
        "algebra.bracket_s": by_name.get("algebra.bracket_eval", 0.0),
        "algebra.euler_s": by_name.get("algebra.euler_eval", 0.0),
        "algebra.theta_s": by_name.get("algebra.theta_eval", 0.0),
        "series.pexp_s": by_name.get("series.plethystic_exp", 0.0),
        "series.macmahon_s": by_name.get("series.macmahon_power", 0.0),
        "formulas.self_s": layer("formulas"),
        "localization.self_s": layer("localization"),
        "cli.self_s": by_name.get(ROOT_SPAN, 0.0),
    }


def op_counts(record, doc):
    """The deterministic counts of one traced op, keyed by metric name."""
    c = record["counts"]
    return {
        "partitions.configurations": c["configurations"],
        "vertex.builds": c["builds"],
        "vertex.unique_ratio": c["unique_builds"] / c["builds"] if c["builds"] else 1.0,
        "vertex.terms_mean": c["terms"] / c["vertices"] if c["vertices"] else 0.0,
        "algebra.measure_calls": c["measure_calls"],
        "algebra.poles": c["poles"],
        "series.mul_calls": c["mul_calls"],
        "series.coeff_digits_max": coeff_digits_max(doc),
        "localization.sampler_tries": c["sampler_tries"],
        "localization.point_yield": point_yield(doc),
    }


def layer_metrics(traced, untraced_p50):
    """Per-layer metrics of a run from its traced ops.

    ``traced`` is a list of ``(op_id, wall_s, record, doc)`` in seed order.
    Times are medians over the ops; counts are those of the first op, whose
    seed is the run's base seed, so they repeat exactly for a given seed.
    """
    times = [op_layer_times(rec["spans"]) for _op, _wall, rec, _doc in traced]
    out = {k: statistics.median(t[k] for t in times) for k in times[0]}
    _op, _wall, record, doc = traced[0]
    out.update(op_counts(record, doc))
    out["trace.overhead_ratio"] = statistics.median(w for _op, w, _r, _d in traced) / untraced_p50
    return out


def write_spans(path, traced):
    """Write every span of the run as ``[op_id, span_id, parent_id, name, start, end]`` rows."""
    path.parent.mkdir(exist_ok=True)
    rows = [[op, *span] for op, _wall, rec, _doc in traced for span in rec["spans"]]
    path.write_text(json.dumps(rows, separators=(",", ":")))


def metric_units():
    """Unit of every per-layer metric, from workloads.json."""
    return {name: spec["unit"] for layer in LAYERS.values() for name, spec in layer["metrics"].items()}
