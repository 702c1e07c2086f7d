"""Chrome trace-event / Perfetto JSON export for collected spans.

The output is the classic trace-event JSON object format —
``{"traceEvents": [...]}`` with complete events (``ph: "X"``), instants
(``ph: "i"``), and thread-name metadata (``ph: "M"``) — which both
``chrome://tracing`` and https://ui.perfetto.dev open directly.

Timestamps are the spans' *modeled* seconds converted to integer-ish
microseconds; nothing host-clock-derived enters the file, and the
serializer sorts keys and orders events deterministically, so two
same-seed runs export byte-identical JSON (the bench_obs gate).

Tracks become threads: each distinct ``Span.track`` gets a ``tid`` in
sorted-name order, announced by a ``thread_name`` metadata event, so
per-device and per-request lanes render as parallel rows.
"""

from __future__ import annotations

import json

from .tracer import Span

__all__ = [
    "dumps_trace_events",
    "export_perfetto",
    "to_trace_events",
    "validate_trace_events",
]

_PID = 1
#: Modeled-seconds -> trace microseconds.  Floats survive round-trip
#: (Perfetto accepts fractional us), so no precision is invented or lost.
_US = 1e6


def _category(span: Span) -> str:
    """Trace-event category: the subsystem prefix of the span name
    (``serve.request`` -> ``serve``), or the kind for bare names."""
    head, dot, _ = span.name.partition(".")
    return head if dot else span.kind


def to_trace_events(spans: list[Span], *, pid: int = _PID) -> dict:
    """Lower spans to a trace-event JSON object (a plain dict)."""
    tracks = sorted({span.track for span in spans})
    tids = {track: index + 1 for index, track in enumerate(tracks)}
    events: list[dict] = []
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    # Spans export in collection order (already deterministic); sorting
    # at read time is the viewer's job, and keeping creation order makes
    # the JSON diffable against the span list.
    for span in spans:
        args = {
            "span_id": span.span_id,
            "trace_id": span.trace_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key in sorted(span.attrs):
            args[key] = span.attrs[key]
        event = {
            "pid": pid,
            "tid": tids[span.track],
            "name": span.name,
            "cat": _category(span),
            "ts": span.start_s * _US,
            "args": args,
        }
        if span.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            end = span.end_s if span.end_s is not None else span.start_s
            event["dur"] = (end - span.start_s) * _US
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dumps_trace_events(spans: list[Span]) -> str:
    """Deterministic serialization: sorted keys, fixed separators."""
    return json.dumps(to_trace_events(spans), sort_keys=True, separators=(",", ":"))


def export_perfetto(spans: list[Span], path) -> dict:
    """Write the trace-event JSON to ``path``; returns the object."""
    obj = to_trace_events(spans)
    with open(path, "w") as handle:
        handle.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
    return obj


# ---------------------------------------------------------------------
# Schema validation (the CI trace-smoke gate).

_PHASES = {"X", "i", "M"}
#: Containment tolerance in trace microseconds (1 modeled nanosecond):
#: parent and child endpoints are computed by differently-associated
#: float sums of the same device counters, so the last ulps may differ.
_EPS = 1e-3


def validate_trace_events(obj: dict) -> int:
    """Check ``obj`` against the trace-event schema; returns the number
    of events, raises ``ValueError`` on the first violation.

    Beyond field shapes, this enforces the structural invariants the
    profiler relies on: every ``parent_id`` resolves to an exported
    span, and every child's interval lies inside its parent's — the
    span tree really is a tree over the modeled timeline.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        raise ValueError("top level must be an object with a traceEvents list")
    events = obj["traceEvents"]
    intervals: dict[str, tuple[float, float]] = {}
    parents: list[tuple[str, str]] = []
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError(f"{where}: ph must be one of {sorted(_PHASES)}, got {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where}: missing name")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                raise ValueError(f"{where}: {field} must be an int")
        if not isinstance(event.get("args"), dict):
            raise ValueError(f"{where}: args must be an object")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < -_EPS:
            raise ValueError(f"{where}: ts must be a non-negative number, got {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < -_EPS:
                raise ValueError(f"{where}: dur must be a non-negative number")
            end = ts + dur
        else:  # instant
            if event.get("s") not in {"t", "p", "g"}:
                raise ValueError(f"{where}: instant events need a scope 's'")
            end = ts
        span_id = event["args"].get("span_id")
        if not isinstance(span_id, str):
            raise ValueError(f"{where}: args.span_id must be a string")
        if span_id in intervals:
            raise ValueError(f"{where}: duplicate span_id {span_id}")
        intervals[span_id] = (ts, end)
        parent_id = event["args"].get("parent_id")
        if parent_id is not None:
            parents.append((span_id, parent_id))
    for span_id, parent_id in parents:
        if parent_id not in intervals:
            raise ValueError(f"span {span_id}: parent_id {parent_id} not exported")
        start, end = intervals[span_id]
        pstart, pend = intervals[parent_id]
        if start < pstart - _EPS or end > pend + _EPS:
            raise ValueError(
                f"span {span_id} [{start}, {end}] escapes parent "
                f"{parent_id} [{pstart}, {pend}]"
            )
    return len(events)
