"""Front-end typing: every column and every variable gets one dtype, once.

The resolver decides each column's dtype (``i64`` or ``f64``) and each
rule variable's; the runtime then never converts a key.  Every rejection
is a :class:`~repro.errors.ResolutionError` at construction, the same
from :class:`~repro.LobsterEngine` and from the Scallop baseline, which
resolves through the same front end.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import LobsterEngine, ResolutionError
from repro.baselines.scallop import ScallopInterpreter
from repro.datalog import compile_source

F64, I64 = np.dtype(np.float64), np.dtype(np.int64)

REJECTED = {
    # A declared column keeps its type: this used to store r(1.5).
    "float head into declared int": (
        "type a(f64)\ntype r(i64)\nrel r(x) :- a(x).",
        "rule `r(x) :- a(x)`: head term x is f64, not r[0]: i64",
    ),
    # ...and this used to come out float64.
    "float relation into declared int": (
        "type a(f64)\nrel r(x) :- a(x).\ntype s(i64)\nrel s(y) :- r(y).",
        "rule `s(y) :- r(y)`: head term y is f64, not s[0]: i64",
    ),
    "join variable": (
        "type a(i64)\ntype b(f64)\nrel t(x) :- b(x), a(x).",
        "rule `t(x) :- b(x), a(x)`: variable 'x' is b[0]: f64 and a[0]: i64",
    ),
    "negated variable": (
        "type a(i64)\ntype b(f64)\nrel s(x) :- b(x), ~a(x).",
        "rule `s(x) :- b(x), ~a(x)`: variable 'x' is b[0]: f64 and a[0]: i64",
    ),
    "repeated variable in one atom": (
        "type p(i64, f64)\nrel r(x) :- p(x, x).",
        "rule `r(x) :- p(x, x)`: variable 'x' is p[0]: i64 and p[1]: f64",
    ),
    "comparison of two variables": (
        "type a(i64)\ntype b(f64)\nrel r(x, y) :- a(x), b(y), x < y.",
        "rule `r(x, y) :- a(x), b(y), x < y`: variable 'x' is a[0]: i64 and "
        "'y' is b[0]: f64, so `x < y` mixes dtypes",
    ),
    "int literal into f64 column": (
        "type a(f64)\nrel r(x, y) :- a(x), a(y).\nrel r(x, 0) :- a(x).",
        "rule `r(x, 0) :- a(x)`: head term 0 is i64, not r[1]: f64",
    ),
    "division into declared int": (
        "type a(i64)\ntype r(i64)\nrel r(x / 2) :- a(x).",
        "rule `r((x / 2)) :- a(x)`: head term (x / 2) is f64, not r[0]: i64",
    ),
    "float fact into declared int": (
        "type e(i64, i64)\nrel e = {(1, 2), (1.5, 3)}",
        "fact block for 'e' puts a float into e[0]: i64",
    ),
}


@pytest.mark.parametrize("source, message", REJECTED.values(), ids=REJECTED.keys())
def test_both_engines_refuse_with_one_message(source, message):
    for engine_cls in (LobsterEngine, ScallopInterpreter):
        with pytest.raises(ResolutionError) as caught:
            engine_cls(source, provenance="unit")
        assert str(caught.value) == message, engine_cls.__name__


ACCEPTED = {
    # Undeclared columns take float-ness from rule heads and fact blocks.
    "inferred float head": ("type a(f64)\nrel r(x) :- a(x).", {"r": (F64,)}),
    "fact block floats": ("rel e = {(1, 2), (1.5, 3)}", {"e": (F64, I64)}),
    # Arithmetic promotes; ``/`` is always a float.
    "promoting arithmetic": (
        "type a(i64)\ntype b(f64)\nrel r(x + y, x / 2, x * 2) :- a(x), b(y).",
        {"r": (F64, F64, I64)},
    ),
    "float literal into f64 column": (
        "type a(f64)\ntype r(f64, f64)\nrel r(x, 0.0) :- a(x).",
        {"r": (F64, F64)},
    ),
    # Literals compare by numeric promotion, in comparisons and atoms.
    "literal comparisons": (
        "type a(f64, i64)\nrel r(x, y) :- a(x, y), x < 1, y > 0.5, a(x, 3), a(2, y).",
        {"r": (F64, I64)},
    ),
    "comparison against arithmetic": (
        "type a(i64)\ntype b(f64)\nrel r(x) :- a(x), b(y), y < x + 1.",
        {"r": (I64,)},
    ),
    # As add_facts: an integer fits a float column.
    "int fact into f64 column": (
        "type e(f64, i64)\nrel e = {(1, 2), (1.5, 3)}",
        {"e": (F64, I64)},
    ),
}


@pytest.mark.parametrize("source, schemas", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_well_typed_programs_resolve(source, schemas):
    resolved = compile_source(source)
    for relation, dtypes in schemas.items():
        assert resolved.schemas[relation] == dtypes, relation


def test_literal_comparisons_promote_as_in_scallop():
    """A float variable against an int literal (and the reverse) compares
    numbers, exactly as Scallop's Python comparison does."""
    source = ACCEPTED["literal comparisons"][0]
    rows = [(0.5, 1), (0.5, 3), (2.0, 1), (2.0, 3), (math.inf, 1)]
    answers = []
    for engine_cls in (LobsterEngine, ScallopInterpreter):
        engine = engine_cls(source, provenance="unit")
        database = engine.create_database()
        database.add_facts("a", rows)
        engine.run(database)
        answers.append(
            sorted(database.result("r").rows())
            if engine_cls is LobsterEngine
            else sorted(database.rows("r"))
        )
    assert answers[0] == answers[1] == [(0.5, 1), (0.5, 3)]
