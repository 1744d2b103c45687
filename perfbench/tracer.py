"""Spans and work counters around the public functions of ``excursions`` modules.

The tracer works from outside the package: it replaces each listed
function with a timing wrapper in every ``excursions`` module that holds
the function under its name (``iia`` imports ``inverse_cdf_sample`` by
name, ``gpsim`` imports ``batch_ci``, ``cli`` imports most entry points),
so calls are seen whichever module makes them.
Spans stay in memory and are written as JSON when the job ends.

A span's parent is the innermost open span of the same thread.  A span
opened in a thread with no open span (the workers of ``cli._parallel_map``)
has the root span ``cli`` as its parent.  Self time is a span's duration
minus the part of it that its children cover, so overlapping children in
worker threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

ROOT = "cli"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


# span name -> work extractor (args, kwargs, result) -> {counter: amount}
SPANS = {
    "numerics.inverse_cdf_sample":
        lambda a, k, r: {"draws": _size(_arg(a, k, 2, "uniform"))},
    "iia.build_iia": None,
    "iia.sample_excursion": lambda a, k, r: {"samples": _arg(a, k, 2, "n")},
    "slepian.expected_clipped_up": None,
    "persistency.fit_persistency":
        lambda a, k, r: {"samples": len(_arg(a, k, 0, "samples"))},
    "persistency.batch_ci": None,
    "gpsim.simulate_gp_batch":
        lambda a, k, r: {"samples": _arg(a, k, 2, "n") * _arg(a, k, 3, "count")},
    "gpsim.extract_excursions": lambda a, k, r: {"crossings": r.crossing_count},
    "gpsim.persistency_from_trajectories": None,
}


class Tracer:
    """Records the spans of one process, with their work counters."""

    def __init__(self):
        self.spans = []        # (id, parent, name, thread, start, end, work)
        self._local = threading.local()
        self._ids = itertools.count(1)   # id 0 is the root span

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name, fn, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work = extract(args, kwargs, result) if extract else None
            self.spans.append((sid, parent, name, threading.get_ident(),
                               start, end, work))
            return result
        return wrapper

    def install(self):
        """Wrap every listed function in every loaded ``excursions`` module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "excursions" or n.startswith("excursions."))]
        wrappers = {}
        for name, extract in SPANS.items():
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules.get("excursions." + mod_name), fn_name, None)
            if original is None:
                continue        # a layer that no longer exists reads as 0 calls
            wrappers[id(original)] = self._span_wrapper(name, original, extract)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    setattr(mod, attr, wrappers[id(value)])

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span ``cli``."""
        self._stack().append(0)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((0, None, ROOT, threading.get_ident(), start,
                               time.perf_counter(), None))
            self._stack().pop()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _summarize(path):
    """Per-layer totals of one traced job (none without a path).

    Returns ``(layers, by_parent)``: ``layers[name]`` holds
    ``calls``, ``self_s`` and summed work counters; ``by_parent[(name,
    parent_name)]`` holds the work counters of the spans of ``name``
    opened directly under ``parent_name``.
    """
    spans = []
    if path is not None:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
    names = {sid: name for sid, _, name, *_ in spans}
    children = defaultdict(list)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    layers = defaultdict(lambda: defaultdict(int))
    by_parent = defaultdict(lambda: defaultdict(int))
    for sid, parent, name, _, start, end, work in spans:
        row = layers[name]
        row["calls"] += 1
        row["self_s"] += end - start - _covered(children.get(sid, ()))
        for key, amount in (work or {}).items():
            row[key] += amount
            by_parent[(name, names.get(parent))][key] += amount
    return layers, by_parent


# span name -> reported fields: a counter, or (metric, counter, scale) for
# self time per unit of that counter
FIELDS = {
    "numerics.inverse_cdf_sample":
        ("calls", "draws", "self_s", ("ns_per_draw", "draws", 1e9)),
    "iia.sample_excursion": ("calls", "self_s"),
    "iia.build_iia": ("calls", "self_s"),
    "slepian.expected_clipped_up": ("calls", "self_s"),
    "persistency.fit_persistency":
        ("calls", "samples", "self_s", ("ns_per_sample", "samples", 1e9)),
    "persistency.batch_ci": ("self_s",),
    "gpsim.simulate_gp_batch":
        ("calls", "samples", "self_s", ("ns_per_sample", "samples", 1e9)),
    "gpsim.extract_excursions": ("calls", "crossings", "self_s"),
    "gpsim.persistency_from_trajectories": ("self_s",),
    ROOT: ("self_s",),
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(path):
    """The per-layer metrics of one traced job, by metric name; all 0 without a path."""
    layers, by_parent = _summarize(path)
    out = {}
    for name, fields in FIELDS.items():
        row = layers.get(name, {})
        for field in fields:
            if isinstance(field, tuple):
                metric, per, scale = field
                out[f"{name}.{metric}"] = _ratio(row.get("self_s", 0.0),
                                                 row.get(per, 0.0), scale)
            else:
                out[f"{name}.{field}"] = row.get(field, 0.0)
    # inverse-CDF draws per excursion sample: 1 + E[nu - 1] for the side
    sample = layers.get("iia.sample_excursion", {})
    nested = by_parent.get(("numerics.inverse_cdf_sample", "iia.sample_excursion"), {})
    out["iia.sample_excursion.draws_per_sample"] = _ratio(nested.get("draws", 0.0),
                                                          sample.get("samples", 0.0))
    return out
