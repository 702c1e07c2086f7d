"""Workload characterization: does the suite cover the space?

SPEC CPU2026's representativeness methodology (PAPERS.md) argues a
benchmark suite is only trustworthy if you can *see* where its workloads
sit in the behavior space.  This module computes that placement for the
repo's benchmark workloads from machinery that already exists — the
``stats/`` sketches, the planner feedback an adaptive run records, and
the modeled :class:`~repro.gpu.device.DeviceProfile` clocks — and
renders it into the versioned markdown summary, so a reader can check
the suite spans selective and explosive joins, uniform and skewed keys,
and shallow and deep recursion.

Per workload (all on fixed seeds, so the report is deterministic and the
tests pin it):

* ``edb_rows`` / ``idb_rows`` — input size and derived output size;
* ``iterations`` — fix-point depth (recursion character);
* ``join_selectivity`` — StoreDelta rows / Probe rows: the fraction of
  raw join matches that survives filters and dedup into storage;
* ``probe_amplification`` — Probe rows / EDB rows: join fan-out
  relative to the input (explosiveness);
* ``key_skew`` — max over EDB columns of the CMS heavy-hitter fraction
  (:meth:`~repro.stats.relation_stats.ColumnStats.skew`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.analytics import CSPA

__all__ = [
    "WorkloadCharacter",
    "characterize_workloads",
    "default_workloads",
    "render_markdown",
]

TC = """
rel path(x, y) :- edge(x, y) or (path(x, z) and edge(z, y)).
query path
"""

SAMEGEN = """
rel sg(x, y) :- parent(z, x) and parent(z, y) and x != y.
rel sg(x, y) :- parent(a, x) and sg(a, b) and parent(b, y).
query sg
"""

SKEWED_JOIN = """
rel hit(x, z) :- big_a(x, y) and big_b(y, z) and tiny(x).
query hit
"""


def _tc_uniform_facts():
    rng = np.random.default_rng(17)
    edges = {
        (int(a), int(b))
        for a, b in rng.integers(0, 40, size=(100, 2))
        if a != b
    }
    return {"edge": sorted(edges)}


def _tc_skewed_facts():
    # A hub fanning out to every spoke plus a long chain: heavy-hitter
    # key distribution and deep recursion in one graph.
    edges = {(0, s) for s in range(1, 40)}
    edges |= {(i, i + 1) for i in range(40, 70)}
    edges |= {(5, 40)}
    return {"edge": sorted(edges)}


def _cspa_facts():
    rng = np.random.default_rng(23)
    n_vars = 30
    assign = {
        (int(a), int(b))
        for a, b in rng.integers(0, n_vars, size=(n_vars * 2, 2))
        if a != b
    }
    deref = {
        (int(a), int(b))
        for a, b in rng.integers(0, n_vars, size=(n_vars // 2, 2))
    }
    return {"assign": sorted(assign), "dereference": sorted(deref)}


def _samegen_facts():
    # A balanced binary tree: same-generation pairs, bounded depth.
    parent = [(i, 2 * i + 1) for i in range(31)] + [
        (i, 2 * i + 2) for i in range(31)
    ]
    return {"parent": sorted(parent)}


def _skewed_join_facts():
    rng = np.random.default_rng(7)
    n, domain = 800, 40
    big_a = [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))]
    big_b = [(int(a), int(b)) for a, b in rng.integers(0, domain, size=(n, 2))]
    tiny = [(i,) for i in range(3)]
    return {"big_a": big_a, "big_b": big_b, "tiny": tiny}


def default_workloads() -> dict:
    """The characterized workload set, mirroring the benchmark suite's
    families: ``(source, query, fact loader)`` per name."""
    return {
        "TC/uniform": (TC, "path", _tc_uniform_facts),
        "TC/skewed-hub": (TC, "path", _tc_skewed_facts),
        "CSPA": (CSPA, "value_flow", _cspa_facts),
        "samegen": (SAMEGEN, "sg", _samegen_facts),
        "skewed-join": (SKEWED_JOIN, "hit", _skewed_join_facts),
    }


@dataclass
class WorkloadCharacter:
    """One workload's coordinates in the behavior space."""

    workload: str
    edb_rows: int
    idb_rows: int
    iterations: int
    join_selectivity: float
    probe_amplification: float
    key_skew: float

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "edb_rows": self.edb_rows,
            "idb_rows": self.idb_rows,
            "iterations": self.iterations,
            "join_selectivity": round(self.join_selectivity, 6),
            "probe_amplification": round(self.probe_amplification, 6),
            "key_skew": round(self.key_skew, 6),
        }


def _populate(engine, facts):
    db = engine.create_database()
    for name, rows in facts.items():
        db.add_facts(name, rows)
    return db


def characterize_one(name, source, query, facts) -> WorkloadCharacter:
    """Characterize one workload with one cheap adaptive run: plan
    feedback cardinalities plus the catalog's sketches."""
    from .. import LobsterEngine

    edb_rows = sum(len(rows) for rows in facts.values())

    engine = LobsterEngine(source, provenance="unit", adaptive=True)
    db = _populate(engine, facts)
    result = engine.run(db)
    feedback = result.feedback
    probe = feedback.instruction_rows.get("Probe", 0) if feedback else 0
    store = feedback.instruction_rows.get("StoreDelta", 0) if feedback else 0
    idb_rows = db.result(query).n_rows
    catalog = db.stats_catalog()
    skew = 0.0
    for fact_name in facts:
        stats = catalog.get(fact_name)
        if stats is None:
            continue
        for column in stats.columns:
            skew = max(skew, column.skew())

    return WorkloadCharacter(
        workload=name,
        edb_rows=edb_rows,
        idb_rows=idb_rows,
        iterations=result.iterations,
        join_selectivity=store / probe if probe else 0.0,
        probe_amplification=probe / edb_rows if edb_rows else 0.0,
        key_skew=skew,
    )


def characterize_workloads(workloads: dict | None = None) -> list[WorkloadCharacter]:
    """Characterize every workload in ``workloads`` (default set when
    None).  Deterministic: fixed seeds in, modeled clocks out."""
    if workloads is None:
        workloads = default_workloads()
    return [
        characterize_one(name, source, query, loader())
        for name, (source, query, loader) in workloads.items()
    ]


def render_markdown(characters: list[WorkloadCharacter]) -> list[str]:
    """The characterization table for the versioned summary."""
    lines = [
        "| workload | EDB rows | IDB rows | iters | join sel. | "
        "probe ampl. | key skew |",
        "|---|---|---|---|---|---|---|",
    ]
    for ch in characters:
        lines.append(
            f"| {ch.workload} | {ch.edb_rows} | {ch.idb_rows} | "
            f"{ch.iterations} | {ch.join_selectivity:.3f} | "
            f"{ch.probe_amplification:.2f} | {ch.key_skew:.3f} |"
        )
    return lines
