"""Stratum offload scheduling (§5.3).

Relations start in host memory; the scheduler decides when to ship them to
the device and back.  The paper's heuristic: find the longest-running
stratum (estimated by its count of recursive joins), then expand the
device-resident window forwards and backwards through adjacent strata, so
intermediate relations never round-trip over the bus.  The transfer cost
model of :class:`~repro.gpu.device.VirtualDevice` charges each crossing
at the window's edges.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from .compiler import ApmProgram
from . import instructions as I

#: Transfer plan per stratum index: (relations in, relations out).
TransferPlan = dict[int, tuple[tuple[str, ...], tuple[str, ...]]]

#: Plans memoized per compiled program (compile once, plan once): the
#: plan depends only on the program, and compiled programs are shared
#: across engines through the program cache.
_PLAN_CACHE: "WeakKeyDictionary[ApmProgram, TransferPlan]" = WeakKeyDictionary()


def cached_plan(program: ApmProgram) -> TransferPlan:
    """Memoized :func:`plan_transfers` keyed on program identity."""
    plan = _PLAN_CACHE.get(program)
    if plan is None:
        plan = _PLAN_CACHE.setdefault(program, plan_transfers(program))
    return plan


def stratum_inputs(program: ApmProgram, index: int) -> set[str]:
    """Relations scanned by stratum ``index``."""
    read: set[str] = set()
    for rule in program.strata[index].rules:
        for variant in rule.variants + rule.delta_variants:
            for instruction in variant.instructions:
                if isinstance(instruction, I.Load):
                    read.add(instruction.predicate)
    return read


def stratum_outputs(program: ApmProgram, index: int) -> set[str]:
    return {rule.target for rule in program.strata[index].rules}


def plan_transfers(program: ApmProgram) -> TransferPlan:
    """Compute per-stratum host<->device transfer sets.

    Returns a map ``stratum index -> (in_relations, out_relations)``;
    strata absent from the map incur no transfers at their boundary.
    Only the window's first and last strata appear.
    """
    n = len(program.strata)
    if n == 0:
        return {}

    # One contiguous device window around the hottest stratum.
    scores = [stratum.score for stratum in program.strata]
    hottest = max(range(n), key=lambda index: scores[index])
    start = hottest
    end = hottest
    # Expand over any adjacent stratum that exchanges data with the
    # window — shipping it too avoids a round trip of its inputs/outputs.
    changed = True
    while changed:
        changed = False
        if start > 0 and (
            stratum_outputs(program, start - 1) & _window_inputs(program, start, end)
        ):
            start -= 1
            changed = True
        if end < n - 1 and (
            stratum_inputs(program, end + 1) & _window_outputs(program, start, end)
        ):
            end += 1
            changed = True

    window_in = tuple(sorted(_window_inputs(program, start, end)))
    window_out = tuple(sorted(_window_outputs(program, start, end)))
    if start == end:
        return {start: (window_in, window_out)}
    return {start: (window_in, ()), end: ((), window_out)}


def _window_inputs(program: ApmProgram, start: int, end: int) -> set[str]:
    produced: set[str] = set()
    needed: set[str] = set()
    for index in range(start, end + 1):
        needed |= stratum_inputs(program, index) - produced
        produced |= stratum_outputs(program, index)
    return needed


def _window_outputs(program: ApmProgram, start: int, end: int) -> set[str]:
    out: set[str] = set()
    for index in range(start, end + 1):
        out |= stratum_outputs(program, index)
    return out & set(program.queries) | (
        out & _downstream_inputs(program, end)
    )


def _downstream_inputs(program: ApmProgram, end: int) -> set[str]:
    needed: set[str] = set()
    for index in range(end + 1, len(program.strata)):
        needed |= stratum_inputs(program, index)
    return needed
