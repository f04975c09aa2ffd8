"""Spans around equising's public layer functions, recorded from outside.

``install`` replaces each wrapped function in every ``equising`` module that
binds it (the library imports names with ``from ... import``, so patching
only the defining module would miss most calls).  Each call then records a
span (name, start, end, parent span, family id) in memory, and a few
result hooks add operation counters.  ``summarize`` turns spans and
counters into the per-layer metrics; a span's self time is its duration
minus the durations of its direct children (calls are strictly nested in
one thread, so children never overlap).

Stdlib only: the orchestrator imports ``summarize`` without importing
equising.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

SPAN_LAYERS = (
    "limits.whitney",
    "algebra.substitute_arc",
    "algebra.wedge3",
    "zariski.check",
    "projection.strong",
    "algebra.series_reversion",
    "algebra.series_compose",
    "modifications.build",
    "modifications.factorization",
    "rolle.certificate",
    "family.load",
    "bench.family",
)
COUNTERS = (
    ("limits.regimes", "count", "lower"),
    ("limits.refinements", "count", "lower"),
    ("limits.unresolved", "count", "lower"),
    ("limits.decisive_frac", "ratio", "higher"),
    ("projection.fibers", "count", "lower"),
    ("projection.confirmed_frac", "ratio", "higher"),
    ("projection.truncation_sum", "count", "lower"),
    ("modifications.skipped", "count", "lower"),
    ("rolle.separation_ok_frac", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)
# (metric name, unit, better) for every per-layer metric, in report order
PER_LAYER = tuple(
    m for layer in SPAN_LAYERS
    for m in ((f"{layer}.calls", "count", "lower"),
              (f"{layer}.self_s", "s", "lower"))
) + COUNTERS

ROOT = "bench.family"


def _walk_regimes(records):
    for rec in records:
        yield rec
        yield from _walk_regimes(rec.refinements)


def _count_whitney(counts: Counter, joint) -> None:
    for part in (joint.part_a, joint.part_b):
        for rec in _walk_regimes(part.regimes):
            counts["limits.regimes"] += 1
            counts["limits.refinements"] += bool(rec.refinements)
            counts["limits.unresolved"] += rec.status == "unresolved"
    counts["limits.decisive"] += str(joint.verdict) != "Inconclusive"


def _count_strong(counts: Counter, result) -> None:
    for _, seq in result.sequences:
        counts["projection.fibers"] += 1
        counts["projection.confirmed"] += seq.confirmed
        counts["projection.truncation_sum"] += seq.truncation


def _count_rolle(counts: Counter, cert) -> None:
    counts["rolle.separation_ok"] += bool(cert.separation_ok)


# layer name -> [(module, attribute)], plus an optional result hook
_TARGETS = {
    "limits.whitney": ([("equising.limits", "whitney_check")], _count_whitney),
    "algebra.substitute_arc": ([("equising.algebra", "substitute_arc")], None),
    "algebra.wedge3": ([("equising.algebra", "wedge3")], None),
    "zariski.check": ([("equising.zariski", "zariski_check")], None),
    "projection.strong": (
        [("equising.projection", "strong_equisingularity_check")], _count_strong),
    "algebra.series_reversion": ([("equising.algebra", "series_reversion")], None),
    "modifications.build": ([("equising.modifications", "blowup_singular_locus"),
                             ("equising.modifications", "nash_modification")], None),
    "modifications.factorization": (
        [("equising.modifications", "check_factorization")], None),
    "rolle.certificate": ([("equising.rolle", "rolle_for_map")], _count_rolle),
    "family.load": ([("equising.family", "load_family"),
                     ("equising.family", "family_from_strings")], None),
}


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, family]
        self.counts: Counter = Counter()
        self.family = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.family]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, result)
            return result
        return traced


def merge_spans(span_lists) -> list[list]:
    """Concatenate the spans of several processes, renumbering parents."""
    out: list[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([n, s, e, None if p is None else p + base, f]
                   for n, s, e, p, f in spans)
    return out


def write_spans(path, spans) -> None:
    """Write spans as JSON lines: [name, start, end, parent, family]."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def install(rec: Recorder) -> None:
    """Route every binding of the traced functions through ``rec``.

    Call after ``import equising`` has loaded all of its modules.
    """
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "equising" or n.startswith("equising."))]
    for name, (targets, hook) in _TARGETS.items():
        for mod_name, attr in targets:
            original = getattr(sys.modules[mod_name], attr)
            traced = rec.wrap(name, original, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
    series_t = sys.modules["equising.algebra"].SeriesT
    series_t.compose = rec.wrap("algebra.series_compose", series_t.compose)


def summarize(spans, counts, *, wall_s: float, untraced_wall_s: float,
              import_s: float) -> dict[str, float]:
    """Per-layer metrics from spans and counters of one traced run.

    ``wall_s`` is the traced loop's wall time; everything in it that no
    root span covers is reported as ``trace.remainder_s``.
    """
    counts = Counter(counts)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    root_total = 0.0
    for sid, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        if name == ROOT:
            root_total += end - start
    out: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    whitney = calls["limits.whitney"]
    fibers = counts["projection.fibers"]
    certs = calls["rolle.certificate"]
    out.update({
        "limits.regimes": counts["limits.regimes"],
        "limits.refinements": counts["limits.refinements"],
        "limits.unresolved": counts["limits.unresolved"],
        "limits.decisive_frac": counts["limits.decisive"] / whitney if whitney else 0.0,
        "projection.fibers": fibers,
        "projection.confirmed_frac":
            counts["projection.confirmed"] / fibers if fibers else 0.0,
        "projection.truncation_sum": counts["projection.truncation_sum"],
        "modifications.skipped": counts["modifications.build.errors"],
        "rolle.separation_ok_frac":
            counts["rolle.separation_ok"] / certs if certs else 0.0,
        "cli.import_s": import_s,
        "trace.wall_s": wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.self_sum_s": root_total,
        "trace.remainder_s": wall_s - root_total,
        "trace.spans": len(spans),
    })
    return out
