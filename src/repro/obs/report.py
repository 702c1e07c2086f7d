"""Text reports over collected spans.

:func:`profile` renders the span tree top-down (aggregated by name
path, with totals, counts, and per-phase percentages) followed by a
flat self-time table — where did the modeled seconds actually go.

:func:`explain_run` joins PR 5's :class:`~repro.stats.PlanFeedback`
estimated-vs-observed cardinalities onto the per-rule variant spans, so
a mis-estimate is printed next to the modeled seconds it cost.
"""

from __future__ import annotations

from .tracer import Span

__all__ = ["explain_run", "profile"]


def _spans_of(source) -> list[Span]:
    spans = getattr(source, "spans", source)
    return list(spans)


class _Node:
    __slots__ = ("name", "total_s", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.total_s = 0.0
        self.count = 0
        self.children: dict[str, _Node] = {}


def _build_tree(spans: list[Span]) -> tuple[_Node, float]:
    """Aggregate spans into a tree keyed by the name path from each
    root: two ``stratum`` spans under the same ``engine.run`` fold into
    one node with count=2.  Returns (synthetic root, trace duration)."""
    by_id = {span.span_id: span for span in spans}
    paths: dict[str, tuple[str, ...]] = {}

    def path_of(span: Span) -> tuple[str, ...]:
        cached = paths.get(span.span_id)
        if cached is None:
            parent = by_id.get(span.parent_id) if span.parent_id else None
            prefix = path_of(parent) if parent is not None else ()
            cached = paths[span.span_id] = prefix + (span.name,)
        return cached

    root = _Node("<root>")
    t_min = float("inf")
    t_max = float("-inf")
    for span in spans:
        if span.kind == "instant":
            continue
        t_min = min(t_min, span.start_s)
        t_max = max(t_max, span.end_s if span.end_s is not None else span.start_s)
        node = root
        for name in path_of(span):
            child = node.children.get(name)
            if child is None:
                child = node.children[name] = _Node(name)
            node = child
        node.total_s += span.duration_s
        node.count += 1
    duration = (t_max - t_min) if t_max >= t_min else 0.0
    return root, duration


def _self_seconds(node: _Node) -> float:
    return max(0.0, node.total_s - sum(c.total_s for c in node.children.values()))


def profile(source, *, title: str = "trace profile", max_depth: int = 12) -> str:
    """Render the aggregated span tree plus a flat self-time table."""
    spans = _spans_of(source)
    root, duration = _build_tree(spans)
    n_instants = sum(1 for span in spans if span.kind == "instant")
    lines = [
        title,
        f"  spans: {len(spans) - n_instants}  instants: {n_instants}  "
        f"modeled duration: {duration * 1e3:.3f} ms",
        "",
        f"  {'total ms':>10}  {'self ms':>10}  {'%':>6}  {'count':>6}  name",
    ]
    denominator = duration or 1.0

    def render(node: _Node, depth: int) -> None:
        if depth > max_depth:
            return
        # Children in descending total time — the hot path reads top-down.
        ordered = sorted(
            node.children.values(), key=lambda c: (-c.total_s, c.name)
        )
        for child in ordered:
            lines.append(
                f"  {child.total_s * 1e3:>10.3f}  {_self_seconds(child) * 1e3:>10.3f}  "
                f"{100.0 * child.total_s / denominator:>5.1f}%  {child.count:>6}  "
                f"{'  ' * depth}{child.name}"
            )
            render(child, depth + 1)

    render(root, 0)

    # Flat self-time: fold every node with the same name, sort by self.
    flat: dict[str, tuple[float, int]] = {}

    def collect(node: _Node) -> None:
        for child in node.children.values():
            seconds, count = flat.get(child.name, (0.0, 0))
            flat[child.name] = (seconds + _self_seconds(child), count + child.count)
            collect(child)

    collect(root)
    lines += ["", f"  {'self ms':>10}  {'%':>6}  {'count':>6}  name (flat)"]
    for name, (seconds, count) in sorted(
        flat.items(), key=lambda item: (-item[1][0], item[0])
    ):
        lines.append(
            f"  {seconds * 1e3:>10.3f}  {100.0 * seconds / denominator:>5.1f}%  "
            f"{count:>6}  {name}"
        )
    return "\n".join(lines)


def explain_run(result, source=None, *, title: str = "explain run") -> str:
    """Per-rule plan diagnosis: estimated vs observed output rows (and
    the drift ratio) from :attr:`ExecutionResult.feedback`, joined with
    the modeled seconds spent in that rule's variant spans when a trace
    is supplied.  Rules whose estimates were wildly off appear next to
    the time the mis-estimate cost."""
    feedback = getattr(result, "feedback", None)
    if feedback is None:
        return f"{title}\n  (no feedback on this result — run an adaptive engine)"
    rule_seconds: dict[str, float] = {}
    if source is not None:
        for span in _spans_of(source):
            rule = span.attrs.get("rule")
            if rule is None or span.kind == "instant":
                continue
            rule_seconds[rule] = rule_seconds.get(rule, 0.0) + span.duration_s
    keys = sorted(
        set(feedback.rule_estimates) | set(feedback.rule_actuals) | set(rule_seconds)
    )
    lines = [
        title,
        f"  stats bucket: {feedback.stats_bucket or '(none)'}  "
        f"max drift: {feedback.max_drift():.2f}x",
        "",
        f"  {'rule':>8}  {'est rows':>10}  {'obs rows':>10}  {'drift':>7}  "
        f"{'modeled ms':>11}",
    ]
    for key in keys:
        estimate = feedback.rule_estimates.get(key)
        actual = feedback.rule_actuals.get(key)
        if estimate is not None and actual is not None:
            low, high = sorted((max(estimate, 1.0), max(float(actual), 1.0)))
            drift = f"{high / low:>6.1f}x"
        else:
            drift = f"{'-':>7}"
        seconds = rule_seconds.get(key)
        lines.append(
            f"  {key:>8}  "
            f"{estimate if estimate is not None else '-':>10}  "
            f"{actual if actual is not None else '-':>10}  {drift}  "
            f"{f'{seconds * 1e3:.3f}' if seconds is not None else '-':>11}"
        )
    return "\n".join(lines)
