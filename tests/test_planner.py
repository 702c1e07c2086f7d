"""Syntactic join ordering: stable tie-breaking.

The heuristic breaks equal scores by original body position, so plans
are a pure function of the source text and content-addressed cache keys
never wobble.
"""

from __future__ import annotations

from repro.datalog import ast
from repro.ram import planner


def atom(pred: str, *vars_: str) -> ast.Atom:
    return ast.Atom(pred, tuple(ast.Var(v) for v in vars_))


class TestTieBreaking:
    """order_atoms must break equal scores by original body position."""

    def test_equal_share_counts_keep_original_order(self):
        atoms = [atom("r", "x", "y"), atom("s", "y", "z"), atom("t", "y", "w")]
        ordered = planner.order_atoms(atoms)
        # s and t both share exactly {y} with the bound set after r; the
        # textually first (s) must win the tie.
        assert [a.predicate for a in ordered] == ["r", "s", "t"]

    def test_all_disconnected_atoms_stay_in_order(self):
        atoms = [atom("a", "x"), atom("b", "y"), atom("c", "z")]
        ordered = planner.order_atoms(atoms)
        assert [a.predicate for a in ordered] == ["a", "b", "c"]

    def test_tie_break_is_first_not_last(self):
        # Regression: a >= comparison would pick the *last* equal-score
        # atom and silently change every cached plan's content address.
        atoms = [
            atom("seed", "x"),
            atom("left", "x", "y"),
            atom("right", "x", "z"),
        ]
        ordered = planner.order_atoms(atoms)
        assert [a.predicate for a in ordered] == ["seed", "left", "right"]
