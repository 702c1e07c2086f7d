"""Out-of-tree span tracing: wrap the callables named in a probe table,
record one span per call, and derive per-layer times from the spans.

The program under test is not edited.  :class:`Tracer` resolves each
probe's dotted entry point, replaces it with a recording wrapper —
on the owning module *and* on every ``repro.*`` module that imported the
function by name, or on the owning class and every subclass that
overrides the method — and puts the originals back on
:meth:`Tracer.uninstall`.  A probe that no longer resolves is counted in
:attr:`Tracer.unresolved` and skipped: a rename inside ``src/`` degrades
one number, it never breaks the ruler.

Spans are kept in memory as ``(probe, start, end, parent, op)`` tuples
and analysed after the run.  The arithmetic lives in two pure functions
so it can be tested without tracing anything:

* :func:`self_times` — a span's self time is its duration minus the
  durations of its direct children, so self times partition the root;
* :func:`outermost` — marks spans with no ancestor in the same group, so
  an inclusive total over a group of names (``lex_rank`` calls
  ``pack_rows``; both feed ``gpu.sort_s``) counts nested or recursive
  calls once.
"""

from __future__ import annotations

import importlib
import sys
from collections import namedtuple
from time import perf_counter

import numpy as np

#: One row of the probe table.  ``metric`` names the inclusive-seconds
#: metric the span feeds (or None); ``counts`` is an optional
#: ``(args, result) -> {counter: number}`` read at the same boundary.
Probe = namedtuple("Probe", "layer name target metric counts", defaults=(None, None))

#: ``(probe index, start, end, parent span index, op id)``; the root span
#: of an op has probe index -1 and parent -1.  The recording wrappers
#: store plain tuples in this field order (a namedtuple costs a
#: Python-level constructor call per span).
Span = namedtuple("Span", "probe start end parent op")

ROOT = -1


def self_times(starts, ends, parents) -> np.ndarray:
    """Per-span self time: duration minus the time its direct children
    cover.  Children of one span never overlap each other (one thread),
    so the covered time is the sum of their durations."""
    duration = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def outermost(groups, parents) -> np.ndarray:
    """Boolean mask: span ``i`` is in a group (``groups[i]`` is not None)
    and none of its ancestors is in the same group.  Spans must be in
    entry order (a parent's index is smaller than its children's)."""
    mask = np.zeros(len(groups), dtype=bool)
    #: Per span: the groups open on the path from the root down to it.
    open_groups: list[frozenset] = []
    for i, (group, parent) in enumerate(zip(groups, parents)):
        inherited = open_groups[parent] if parent >= 0 else frozenset()
        if group is None or group in inherited:
            open_groups.append(inherited)
        else:
            mask[i] = True
            open_groups.append(inherited | {group})
    return mask


def tail_percentile(n: int) -> float | None:
    """The highest of p99/p95/p90/p75 that still has at least ten of ``n``
    samples beyond it — the only tail a sample of that size supports —
    or None when even p75 does not."""
    for percent in (99, 95, 90, 75):
        if n * (100 - percent) >= 10 * 100:  # integers: 100 * 0.1 is not 10.0
            return percent / 100
    return None


def _resolve(target: str):
    """``(owner, attribute name)`` of a dotted entry point: the longest
    importable module prefix, then attributes.  Raises ImportError or
    AttributeError when the name no longer exists."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:-1]:
            owner = getattr(owner, attribute)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no importable module in {target!r}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Records spans for the probes of one table while an op is open."""

    def __init__(self, probes):
        self.probes = list(probes)
        self.spans: list = []
        #: ``(op id, counter name, value)`` events from probe ``counts``.
        self.counts: list[tuple[int, str, float]] = []
        #: Probes (or count readers) that no longer match the program.
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._op = ROOT  # no op open: wrappers pass straight through
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, function, index: int):
        spans, stack = self.spans, self._stack
        reader = self.probes[index].counts
        tracer = self

        def traced(*args, **kwargs):
            op = tracer._op
            if op < 0:
                return function(*args, **kwargs)
            slot = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(slot)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (index, start, end, parent, op)
            if reader is not None:
                tracer._read_counts(index, reader, args, result, op)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", "traced")
        return traced

    def _read_counts(self, index, reader, args, result, op) -> None:
        try:
            values = reader(args, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            # The object the reader looked into changed shape: degrade.
            name = self.probes[index].target + " (counts)"
            if name not in self.unresolved:
                self.unresolved.append(name)
            return
        for name, value in values.items():
            self.counts.append((op, name, value))

    def install(self) -> None:
        for index, probe in enumerate(self.probes):
            try:
                owner, attribute = _resolve(probe.target)
            except (ImportError, AttributeError):
                self.unresolved.append(probe.target)
                continue
            if isinstance(owner, type):
                for cls in [owner, *_subclasses(owner)]:
                    raw = cls.__dict__.get(attribute)
                    if raw is None:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(raw.__func__, index))
                    else:
                        wrapped = self._wrap(raw, index)
                    self._patched.append((cls, attribute, raw))
                    setattr(cls, attribute, wrapped)
            else:
                function = getattr(owner, attribute)
                wrapped = self._wrap(function, index)
                # ``from .kernels import lex_rank`` bound the function in
                # the importer's namespace too: rebind every alias.
                for name, module in list(sys.modules.items()):
                    if module is None or not name.startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is function:
                            self._patched.append((module, alias, function))
                            setattr(module, alias, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    # -- ops -------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(None)
        self._root_start = perf_counter()

    def end_op(self) -> float:
        """Close the op's root span; returns its wall seconds."""
        end = perf_counter()
        slot = self._stack.pop()
        self.spans[slot] = (ROOT, self._root_start, end, ROOT, self._op)
        self._op = ROOT
        return end - self._root_start


def summarize(
    tracer: Tracer, calls: int, count_calls: int, units: int = 1
) -> dict[str, float]:
    """Per-layer metrics of one traced run, each *per timed op* (a timed
    call completes ``units`` ops).

    Times (``*.self_s`` and the probes' inclusive ``metric`` seconds) are
    averaged over all ``calls`` traced calls.  Counts (``*.calls`` and
    the probes' ``counts``) are averaged over the first ``count_calls``
    only: a run measures for a fixed time, not a fixed number of ops, so
    only a fixed prefix of a deterministic op sequence repeats exactly
    from run to run."""
    n_ops, count_ops = calls * units, count_calls * units
    probes = tracer.probes
    index, starts, ends, parents, ops = (
        np.array(field) for field in zip(*tracer.spans)
    )
    # Per-probe lookup tables with one extra last slot, so that the root
    # spans' probe index (-1) lands on "bench" / "no metric".
    layers = sorted({p.layer for p in probes} | {"bench"})
    metrics = sorted({p.metric for p in probes if p.metric})
    layer_of = np.array(
        [layers.index(p.layer) for p in probes] + [layers.index("bench")]
    )[index]
    metric_of = np.array(
        [metrics.index(p.metric) if p.metric else -1 for p in probes] + [-1]
    )[index]
    own = self_times(starts, ends, parents)
    out: dict[str, float] = {}
    self_by_layer = np.bincount(layer_of, weights=own, minlength=len(layers))
    calls_by_layer = np.bincount(layer_of[ops < count_calls], minlength=len(layers))
    for k, layer in enumerate(layers):
        out[f"{layer}.self_s"] = self_by_layer[k] / n_ops
        if layer != "bench":
            out[f"{layer}.calls"] = calls_by_layer[k] / count_ops
    top = outermost([None if g < 0 else g for g in metric_of.tolist()], parents.tolist())
    for k, metric in enumerate(metrics):
        member = top & (metric_of == k)
        out[metric] = float((ends[member] - starts[member]).sum()) / n_ops
    totals: dict[str, float] = {}
    for op, name, value in tracer.counts:
        if op < count_calls:
            totals[name] = totals.get(name, 0.0) + value
    for name, value in totals.items():
        out[name] = value / count_ops
    wall = float((ends[index == ROOT] - starts[index == ROOT]).sum()) / n_ops
    out["trace.coverage_share"] = 1.0 - out["bench.self_s"] / wall
    out["trace.unresolved_probes"] = float(len(tracer.unresolved))
    return out


def dump(tracer: Tracer, max_op: int) -> dict:
    """The spans of ops ``< max_op`` in a JSON-ready form (times relative
    to the first span's start, in seconds)."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    position = {}
    rows = []
    for old, span in enumerate(map(Span._make, tracer.spans)):
        if span.op >= max_op:
            continue
        position[old] = len(rows)
        probe = tracer.probes[span.probe] if span.probe != ROOT else None
        rows.append(
            {
                "name": f"{probe.layer}.{probe.name}" if probe else "bench.op",
                "layer": probe.layer if probe else "bench",
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "parent": position.get(span.parent, ROOT),
                "op": span.op,
            }
        )
    return {"unresolved_probes": tracer.unresolved, "spans": rows}
