"""Shared test fixtures and helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro import LobsterEngine

from _helpers import TC_PROGRAM, random_digraph  # noqa: F401 (re-exported)

# Tier-1 is a gate, so it must say the same thing on every checkout:
# examples are derived from each test's source, not from a random seed or
# whatever a local ``.hypothesis/`` database has accumulated.  Exploration
# is CI's separate, non-gating ``--hypothesis-seed=random`` step; the blob
# it prints for a new failure becomes an ``@example`` here.
settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def run_tc(edges, provenance="unit", **kwargs):
    """Run transitive closure on the device engine; returns (engine, db)."""
    engine = LobsterEngine(TC_PROGRAM, provenance=provenance, **kwargs)
    database = engine.create_database()
    database.add_facts("edge", edges)
    engine.run(database)
    return engine, database


def brute_force_closure(edges) -> set[tuple[int, int]]:
    """Reference transitive closure via repeated squaring over sets."""
    closure = set(edges)
    while True:
        extra = {
            (a, d)
            for a, b in closure
            for c, d in closure
            if b == c and (a, d) not in closure
        }
        if not extra:
            return closure
        closure |= extra
