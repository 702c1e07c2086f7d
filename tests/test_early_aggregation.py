"""Early aggregation in rule bodies against the lowering it extends.

Under a semiring whose ⊗ distributes over ⊕ bitwise (``unit``,
``minmaxprob``), the RAM lowering follows every join but a rule's last
with a distinct projection onto the variables still read later, lowered
to ``EvalProject`` + ``Dedup``.  The oracle here is the lowering without
it: :func:`oracle_compile_rule` is the previous ``compile_rule`` loop,
kept verbatim, and :func:`oracle_program` the ``compile_program`` loop
around it.

* Generated 3–4-atom rules (dying variables, comparisons applied late,
  negated atoms, arithmetic and arity-0 heads, division in heads and
  comparisons, repeated variables, recursion, ``f64`` columns holding
  NaN and ±0.0, one relation of the other dtype) must leave every IDB
  relation's ``full`` table — columns and tags — bitwise equal under both
  lowerings, and agree with the tuple-at-a-time Scallop interpreter.  A
  generated rule that types a variable both ``i64`` and ``f64`` must be
  refused by both engines with one ``ResolutionError`` naming it.
* Every other semiring compiles the ten bundled programs to exactly the
  oracle's instructions.
* Incremental, DRed-maintained and batched CSPA runs through the new
  instruction agree with cold evaluation.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import LobsterEngine, OptimizationConfig
from repro.apm import instructions as I
from repro.apm.compiler import compile_ram
from repro.apm.interpreter import ApmInterpreter
from repro.apm.optimizer import optimize
from repro.baselines import ScallopInterpreter
from repro.datalog.program import compile_source as resolve_source
from repro.errors import CompileError, ResolutionError
from repro.gpu.device import VirtualDevice
from repro.provenance import create
from repro.ram import planner
from repro.ram.compile_datalog import (
    _antijoin,
    _apply_ready_comparisons,
    _compile_atom,
    _join,
    _term_to_expr,
)
from repro.ram.ir import Project, RamProgram, RamRule, RamStratum, scans_of
from repro.runtime.cache import compile_source
from repro.runtime.database import Database
from repro.workloads.analytics import CSPA

ROOT = Path(__file__).resolve().parents[1]
PROGRAMS = ROOT / "benchmarks" / "e2e" / "programs"


def _load_reference():
    spec = importlib.util.spec_from_file_location(
        "e2e_reference", ROOT / "benchmarks" / "e2e" / "reference.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _load_reference()


# ---------------------------------------------------------------------------
# The oracle: the lowering without early aggregation, verbatim.


def oracle_compile_rule(rule, resolved):
    if not rule.positives:
        raise CompileError(
            f"rule for {rule.head!r} has no positive body atoms; "
            "use a fact block for ground facts"
        )
    ordered = planner.order_atoms(rule.positives)

    current, layout = _compile_atom(ordered[0], resolved)
    applied: set[int] = set()
    current, layout = _apply_ready_comparisons(current, layout, rule.comparisons, applied)

    for atom in ordered[1:]:
        side, side_layout = _compile_atom(atom, resolved)
        current, layout = _join(current, layout, side, side_layout)
        current, layout = _apply_ready_comparisons(current, layout, rule.comparisons, applied)

    if len(applied) != len(rule.comparisons):
        raise CompileError(f"rule for {rule.head!r} has unapplicable comparisons")

    for negated in rule.negatives:
        current, layout = _antijoin(current, layout, negated, resolved)

    head_exprs = tuple(_term_to_expr(term, layout) for term in rule.head_terms)
    return Project(current, head_exprs)


def oracle_program(resolved) -> RamProgram:
    strata: list[RamStratum] = []
    for stratum in resolved.strata:
        pred_set = set(stratum.predicates)
        ram_rules: list[RamRule] = []
        for rule in stratum.rules:
            expr = oracle_compile_rule(rule, resolved)
            scans = scans_of(expr)
            recursive_atoms = tuple(
                index for index, scan in enumerate(scans) if scan.predicate in pred_set
            )
            ram_rules.append(RamRule(rule.head, expr, recursive_atoms))
        strata.append(RamStratum(stratum.predicates, ram_rules, stratum.recursive))
    return RamProgram(strata, dict(resolved.schemas), list(resolved.queries))


def oracle_apm(source: str):
    return optimize(compile_ram(oracle_program(resolve_source(source))))


def lowered(source: str, provenance: str):
    return compile_source(source, provenance, OptimizationConfig()).apm


def dedup_count(apm) -> int:
    return sum(
        isinstance(instruction, I.Dedup)
        for stratum in apm.strata
        for rule in stratum.rules
        for variant in rule.variants + rule.delta_variants
        for instruction in variant.instructions
    )


# ---------------------------------------------------------------------------
# Generated programs: one rule of 3–4 positive atoms over four EDB
# relations, optionally made recursive by a second rule.

VARS = ("a", "b", "c", "d")
FLOATS = (0.0, -0.0, 1.0, 2.0, math.nan)
PROBS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def rule_programs(draw):
    """``(source, facts, refused)``: ``refused`` holds the variables typed
    both ``i64`` and ``f64`` — at columns of both dtypes, or compared with
    a variable of the other — one of which the refusal must name (empty
    for a well-typed program)."""
    kind = draw(st.sampled_from(("i64", "f64")))
    kinds = [kind] * 4
    if draw(st.booleans()):
        # One relation of the other dtype: a variable meeting it and a
        # relation of ``kind`` is typed twice.
        kinds[draw(st.integers(0, 3))] = "f64" if kind == "i64" else "i64"
    arities = [draw(st.integers(1, 3)) for _ in range(4)]
    atoms = []
    for _ in range(draw(st.integers(3, 4))):
        relation = draw(st.integers(0, 3))
        atoms.append((f"e{relation}", [draw(st.sampled_from(VARS)) for _ in range(arities[relation])]))
    bound = sorted({name for _, args in atoms for name in args})
    head = draw(st.lists(st.sampled_from(bound), max_size=3))
    arithmetic = None
    if head and draw(st.booleans()):
        # ``/`` tells -0.0 from 0.0 (1 / -0.0 is -inf), which ``-`` does not.
        if kind == "i64":
            arithmetic = f"{head[0]} + 1"
        elif draw(st.booleans()):
            arithmetic = f"-{head[0]}"
        else:
            arithmetic = f"{head[0]} / {draw(st.sampled_from(bound))}"
    comparisons = []
    if len(bound) > 1 and draw(st.booleans()):
        lhs, rhs = draw(st.permutations(bound))[:2]
        if kind == "f64" and draw(st.booleans()):
            lhs = f"{lhs} / {draw(st.sampled_from(bound))}"
        comparisons.append(f"{lhs} {draw(st.sampled_from(('<', '<=', '!=', '==')))} {rhs}")
    negated = []
    if draw(st.booleans()):
        relation = draw(st.integers(0, 3))
        negated.append((f"e{relation}", [draw(st.sampled_from(bound)) for _ in range(arities[relation])]))
    # A second rule with r in place of the first atom, when that leaves
    # every variable the rule reads bound.
    rest = set(head).union(*(args for _, args in atoms[1:]))
    read = {name for _, args in negated for name in args}
    read |= {name for text in comparisons for name in text.split()[::2]}
    recursive = (
        arithmetic is None and bool(head) and read <= rest
        and set(atoms[0][1]) <= rest and draw(st.booleans())
    )
    facts = {}
    for relation, arity in enumerate(arities):
        values = st.sampled_from(FLOATS) if kinds[relation] == "f64" else st.integers(0, 3)
        rows = draw(st.lists(st.tuples(*[values] * arity), max_size=7))
        probs = [draw(st.sampled_from(PROBS)) for _ in rows]
        facts[f"e{relation}"] = (rows, probs)
    typed: dict[str, set[str]] = {}
    for name, args in atoms + negated:
        for arg in args:
            typed.setdefault(arg, set()).add(kinds[int(name[1:])])
    refused = {name for name, dtypes in typed.items() if len(dtypes) > 1}
    for text in comparisons:
        terms = text.split()
        if len(terms) == 3 and typed[terms[0]] != typed[terms[2]]:
            refused |= {terms[0], terms[2]}
    source = render(kinds, arities, atoms, head, arithmetic, comparisons, negated, recursive)
    return source, facts, frozenset(refused)


def render(kinds, arities, atoms, head, arithmetic, comparisons, negated, recursive) -> str:
    lines = [f"type e{j}({', '.join([kinds[j]] * arity)})" for j, arity in enumerate(arities)]
    terms = list(head)
    if arithmetic is not None:
        terms[0] = arithmetic
    body = [f"{name}({', '.join(args)})" for name, args in atoms]
    body += [f"~{name}({', '.join(args)})" for name, args in negated]
    body += comparisons
    lines.append(f"rel r({', '.join(terms)}) :- {', '.join(body)}.")
    if recursive:
        # r re-enters its own body in place of the first atom.
        again = [f"r({', '.join(head)})"] + body[1:]
        lines.append(f"rel r({', '.join(terms)}) :- {', '.join(again)}.")
    return "\n".join(lines) + "\n"


def evaluate(apm, source: str, provenance: str, facts) -> dict:
    """Every IDB relation's ``full`` table after a cold run of ``apm``."""
    resolved = resolve_source(source)
    database = Database(dict(resolved.schemas), create(provenance))
    for relation, (rows, probs) in facts.items():
        database.add_facts(relation, rows, probs=None if provenance == "unit" else probs)
    ApmInterpreter(VirtualDevice()).run(apm, database)
    return {
        predicate: database.relation(predicate).full
        for stratum in apm.strata
        for predicate in stratum.predicates
    }


def assert_bitwise(actual: dict, expected: dict) -> None:
    assert actual.keys() == expected.keys()
    for predicate, table in expected.items():
        other = actual[predicate]
        assert other.n_rows == table.n_rows, predicate
        for mine, theirs in zip(other.columns, table.columns):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), predicate
        assert other.tags.tobytes() == table.tags.tobytes(), predicate


def scallop(source: str, provenance: str, facts, relations) -> dict:
    """The reference answer."""
    interpreter = ScallopInterpreter(source, provenance)
    database = interpreter.create_database()
    for relation, (rows, probs) in facts.items():
        database.add_facts(relation, rows, probs=None if provenance == "unit" else probs)
    interpreter.run(database)
    return {
        relation: {row: database.prob(relation, row) for row in database.rows(relation)}
        for relation in relations
    }


def probs_of(table, provenance: str) -> dict:
    probs = create(provenance).prob(table.tags)
    return dict(zip(table.rows(), (float(p) for p in probs)))


F2 = "type e0(f64, f64)\ntype e1(f64, f64)\ntype e2(f64)\ntype e3(f64)\n"
I2 = "type e0(i64, i64)\ntype e1(i64, i64)\ntype e2(i64)\ntype e3(i64)\n"
NAN, NEG0 = math.nan, -0.0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=rule_programs())
# z dies after the first join; the deduplicated intermediate holds rows
# equal only up to the sign of zero, which stay apart.
@example(case=(
    F2 + "rel r(x, y) :- e0(z, x), e1(z, w), e0(w, y).\n",
    {"e0": ([(0.0, 1.0), (NEG0, 2.0), (1.0, 1.0), (2.0, NEG0)], [0.5, 1.0, 0.25, 0.5]),
     "e1": ([(0.0, 1.0), (NEG0, 2.0), (0.0, 2.0)], [1.0, 0.5, 0.25]),
     "e2": ([], []), "e3": ([], [])},
    frozenset(),
)).via("dying variable, signed zeros")
# ``z < w`` reads z, which no atom after the second reads: z stays live
# until w is bound by the third.
@example(case=(
    I2 + "rel r(x) :- e0(z, x), e1(x, v), e0(v, w), z < w.\n",
    {"e0": ([(0, 1), (1, 2), (2, 3), (3, 1), (0, 2)], [0.5, 1.0, 0.25, 0.5, 0.0]),
     "e1": ([(1, 1), (2, 0), (1, 3)], [1.0, 0.5, 0.25]),
     "e2": ([], []), "e3": ([], [])},
    frozenset(),
)).via("late comparison over a dying variable")
# ~e2(z): z would be dead after the second join but for the negation.
@example(case=(
    I2 + "rel r(x, y) :- e0(z, x), e1(x, w), e0(w, y), ~e2(z).\n",
    {"e0": ([(0, 1), (1, 2), (2, 3), (3, 1)], [0.5, 1.0, 0.25, 0.5]),
     "e1": ([(1, 1), (2, 0), (1, 3)], [1.0, 0.5, 0.25]),
     "e2": ([(0,), (3,)], [1.0, 0.5]), "e3": ([], [])},
    frozenset(),
)).via("negation keeps a variable live")
# An arithmetic head over NaN and signed zeros; a repeated variable.
@example(case=(
    F2 + "rel r(-x, y) :- e0(x, x), e1(x, w), e0(w, y), e3(y).\n",
    {"e0": ([(NAN, NAN), (0.0, 0.0), (NEG0, NEG0), (NAN, 1.0), (1.0, NEG0)], [0.5, 1.0, 0.25, 0.5, 1.0]),
     "e1": ([(NAN, 1.0), (0.0, NAN), (NEG0, 1.0)], [1.0, 0.5, 0.25]),
     "e2": ([], []), "e3": ([(0.0,), (NAN,), (NEG0,)], [1.0, 0.25, 0.5])},
    frozenset(),
)).via("arithmetic head, NaN, repeated variable")
# Arity-0 head: x, y and z all die after the first join, whose
# intermediate collapses to one column-less row.
@example(case=(
    I2 + "rel r() :- e0(x, y), e1(y, z), e2(w), e3(w).\n",
    {"e0": ([(0, 1), (1, 2), (2, 1)], [0.5, 1.0, 0.25]),
     "e1": ([(1, 0), (2, 0), (1, 1)], [1.0, 0.5, 0.25]),
     "e2": ([(0,), (1,)], [0.5, 0.25]), "e3": ([(0,), (2,)], [1.0, 0.5])},
    frozenset(),
)).via("arity-0 head")
# Recursion: the distinct projection sits in the RECENT variants.
@example(case=(
    I2 + "rel r(x, y) :- e0(x, y).\nrel r(x, y) :- r(z, x), e1(z, w), e0(w, y).\n",
    {"e0": ([(0, 1), (1, 2), (2, 3), (3, 0)], [0.5, 1.0, 0.25, 0.75]),
     "e1": ([(0, 1), (1, 2), (0, 2), (2, 3)], [1.0, 0.5, 0.25, 0.5]),
     "e2": ([], []), "e3": ([], [])},
    frozenset(),
)).via("recursive rule")
# A recursive body whose deduplicated intermediate holds rows equal only
# up to -0.0/NaN: the head keeps its representative only because Dedup
# keeps first-occurrence order: sorted order stores r(0.0, 0.0) where
# the oracle lowering stores r(-0.0, 0.0).
@example(case=(
    F2 + "rel r(x, y) :- e1(x, y).\nrel r(x, y) :- e0(z, x), r(z, w), e1(w, y).\n",
    {"e0": ([(NEG0, NEG0), (NAN, 0.0), (2.0, NEG0)], [1.0, 0.25, 0.25]),
     "e1": ([(0.0, NAN), (NAN, 1.0), (2.0, 0.0), (1.0, 0.0), (NEG0, 2.0)], [1.0, 0.25, 1.0, 0.5, 0.25]),
     "e2": ([], []), "e3": ([], [])},
    frozenset(),
)).via("first-occurrence order")
# Division tells the zeros apart: 1 / -0.0 is -inf, 1 / 0.0 is inf.  w
# is kept alone after the first join; a Dedup under row equality, where
# -0.0 == 0.0, would lose r(inf).
@example(case=(
    "type e0(f64, f64)\ntype e1(f64)\ntype e2(f64)\ntype e3(f64)\n"
    "rel r(y / w) :- e0(z, w), e1(z), e2(y).\n",
    {"e0": ([(1.0, NEG0), (2.0, 0.0)], [0.5, 1.0]), "e1": ([(1.0,), (2.0,)], [1.0, 1.0]),
     "e2": ([(1.0,)], [1.0]), "e3": ([], [])},
    frozenset(),
)).via("division head over signed zeros")
# The same through a comparison applied after the last join: only the
# -0.0 path passes, so r(1.0) must carry that path's tag alone.
@example(case=(
    "type e0(f64, f64)\ntype e1(f64)\ntype e2(f64)\ntype e3(f64)\n"
    "rel r(y) :- e0(z, w), e1(z), e2(y), y / w < y.\n",
    {"e0": ([(1.0, NEG0), (2.0, 0.0)], [0.5, 1.0]), "e1": ([(1.0,), (2.0,)], [1.0, 1.0]),
     "e2": ([(1.0,)], [1.0]), "e3": ([], [])},
    frozenset(),
)).via("late dividing comparison over signed zeros")
# One relation of the other dtype that no variable meets twice: typed.
@example(case=(
    I2.replace("e1(i64, i64)", "e1(f64, f64)") + "rel r(x, z) :- e0(x, y), e1(z, w), e2(y).\n",
    {"e0": ([(0, 1), (1, 2)], [0.5, 1.0]), "e1": ([(NEG0, 1.0), (NAN, 2.0)], [1.0, 0.5]),
     "e2": ([(1,), (2,)], [0.25, 1.0]), "e3": ([], [])},
    frozenset(),
)).via("mixed relations, well typed")
# y meets an i64 and an f64 column; x only through a negation; z and x
# only through a comparison.
@example(case=(
    I2.replace("e1(i64, i64)", "e1(f64, f64)") + "rel r(x) :- e0(x, y), e1(y, z), e2(z).\n",
    {"e0": ([], []), "e1": ([], []), "e2": ([], []), "e3": ([], [])},
    frozenset({"y", "z"}),
)).via("join variable typed twice")
@example(case=(
    I2.replace("e1(i64, i64)", "e1(f64, f64)") + "rel r(x) :- e0(x, y), e2(y), e3(x), ~e1(x, x).\n",
    {"e0": ([], []), "e1": ([], []), "e2": ([], []), "e3": ([], [])},
    frozenset({"x"}),
)).via("negated variable typed twice")
@example(case=(
    I2.replace("e1(i64, i64)", "e1(f64, f64)") + "rel r(x) :- e0(x, y), e1(z, w), e2(y), z < x.\n",
    {"e0": ([], []), "e1": ([], []), "e2": ([], []), "e3": ([], [])},
    frozenset({"z", "x"}),
)).via("comparison across dtypes")
def test_generated_rules_match_the_oracle_lowering(case):
    source, facts, refused = case
    if refused:
        messages = set()
        for engine_cls in (LobsterEngine, ScallopInterpreter):
            with pytest.raises(ResolutionError) as caught:
                engine_cls(source, provenance="unit")
            messages.add(str(caught.value))
        (message,) = messages
        assert any(f"variable {name!r}" in message for name in refused), message
        return
    values = [value for rows, _ in facts.values() for row in rows for value in row]
    # Scallop keys rows by Python ``==``, so it is no reference once a
    # NaN is stored, and it reads x / 0 as inf whatever the signs.
    comparable = not any(isinstance(value, float) and math.isnan(value) for value in values)
    comparable &= "/" not in source or 0 not in values
    oracle = oracle_apm(source)
    for provenance in ("unit", "minmaxprob"):
        apm = lowered(source, provenance)
        actual = evaluate(apm, source, provenance, facts)
        assert_bitwise(actual, evaluate(oracle, source, provenance, facts))
        if comparable:
            expected = scallop(source, provenance, facts, list(actual))
            for predicate, table in actual.items():
                assert reference.same_probs(
                    probs_of(table, provenance), expected[predicate], reference.PROB_TOL
                ), predicate


def test_pinned_rules_take_the_new_instruction():
    """The early projection fires where a variable dies mid-body and
    stays out where a later literal still reads it."""
    dies = I2 + "rel r(x, y) :- e0(z, x), e1(z, w), e0(w, y).\n"
    late = I2 + "rel r(x, y) :- e0(z, x), e1(z, w), e0(w, y), z < y.\n"
    negated = I2 + "rel r(x, y) :- e0(z, x), e1(z, w), e0(w, y), ~e2(z).\n"
    last_join = I2 + "rel r(x) :- e0(z, x), e1(z, w).\n"
    # The rule's one variant and its three delta variants.
    assert dedup_count(lowered(dies, "minmaxprob")) == 4
    assert dedup_count(lowered(dies, "diff-minmaxprob")) == 0
    for source in (late, negated, last_join):
        assert dedup_count(lowered(source, "minmaxprob")) == 0


# ---------------------------------------------------------------------------
# Byte identity for every semiring that does not declare distributivity.

BUNDLED = sorted(path.stem for path in PROGRAMS.glob("*.dl"))
UNCHANGED = ("diff-top-1-proofs", "prob-top-1-proofs", "diff-minmaxprob", "addmultprob")


def variant_lists(apm) -> list:
    out = []
    for stratum in apm.strata:
        for rule in stratum.rules:
            out.append([variant.instructions for variant in rule.variants])
            out.append([variant.instructions for variant in rule.delta_variants])
            rederive = rule.rederive_variant
            out.append(None if rederive is None else rederive.instructions)
            out.append(rule.rederive_filters)
    return out


def test_ten_bundled_programs():
    assert len(BUNDLED) == 10


@pytest.mark.parametrize("provenance", UNCHANGED)
@pytest.mark.parametrize("name", BUNDLED)
def test_undeclared_semirings_compile_the_oracle_program(name, provenance):
    source = (PROGRAMS / f"{name}.dl").read_text()
    assert repr(variant_lists(lowered(source, provenance))) == repr(
        variant_lists(oracle_apm(source))
    )


def test_tc_under_minmaxprob_is_unchanged():
    """Two-atom bodies have no join but their last: nothing to project."""
    source = (PROGRAMS / "tc.dl").read_text()
    assert repr(variant_lists(lowered(source, "minmaxprob"))) == repr(
        variant_lists(oracle_apm(source))
    )


# ---------------------------------------------------------------------------
# Run modes through the new instruction: CSPA under minmaxprob.


def cspa_facts(seed: int, n: int = 14):
    rng = np.random.default_rng(seed)
    facts = {}
    for relation, count in (("assign", 22), ("dereference", 14)):
        rows = sorted({(int(a), int(b)) for a, b in rng.integers(0, n, (count, 2))})
        facts[relation] = (rows, [float(p) for p in rng.choice([0.25, 0.5, 0.75, 1.0], len(rows))])
    return facts


CSPA_IDB = ("value_flow", "memory_alias", "value_alias")


def cold_cspa(facts) -> dict:
    engine = LobsterEngine(CSPA, provenance="minmaxprob")
    database = engine.create_database()
    for relation, (rows, probs) in facts.items():
        database.add_facts(relation, rows, probs=probs)
    engine.run(database)
    return {r: engine.query_probs(database, r) for r in CSPA_IDB}


def test_cspa_lowers_dedup_under_minmaxprob():
    assert dedup_count(LobsterEngine(CSPA, provenance="minmaxprob").apm) > 0


@pytest.mark.parametrize("seed", [3, 11])
def test_incremental_run_matches_cold(seed):
    facts = cspa_facts(seed)
    engine = LobsterEngine(CSPA, provenance="minmaxprob")
    database = engine.create_database()
    for relation, (rows, probs) in facts.items():
        half = len(rows) // 2
        database.add_facts(relation, rows[:half], probs=probs[:half])
    engine.run(database)
    for relation, (rows, probs) in facts.items():
        half = len(rows) // 2
        database.add_facts(relation, rows[half:], probs=probs[half:])
    result = engine.run(database)
    assert result.incremental
    warm = {r: engine.query_probs(database, r) for r in CSPA_IDB}
    assert warm == cold_cspa(facts)


@pytest.mark.parametrize("seed", [3, 11])
def test_dred_maintain_matches_cold(seed):
    """Retraction runs DRed, whose re-derive step reads
    ``rederive_filters`` built by ``column_origins`` over the distinct
    projection."""
    facts = cspa_facts(seed)
    engine = LobsterEngine(CSPA, provenance="minmaxprob")
    database = engine.create_database()
    for relation, (rows, probs) in facts.items():
        database.add_facts(relation, rows, probs=probs)
    engine.run(database)
    gone = {relation: rows[::3] for relation, (rows, _) in facts.items()}
    for relation, rows in gone.items():
        database.retract_facts(relation, rows)
    result = engine.run(database)
    assert result.maintained and result.maintain_fallback is None
    kept = {}
    for relation, (rows, probs) in facts.items():
        pairs = [(row, prob) for row, prob in zip(rows, probs) if row not in gone[relation]]
        kept[relation] = ([row for row, _ in pairs], [prob for _, prob in pairs])
    warm = {r: engine.query_probs(database, r) for r in CSPA_IDB}
    assert warm == cold_cspa(kept)


def test_batched_matches_per_sample_runs():
    samples = [cspa_facts(seed, n=10) for seed in (5, 6, 7)]
    engine = LobsterEngine(CSPA, provenance="minmaxprob", batched=True)
    assert dedup_count(engine.apm) > 0
    database = engine.create_database()
    for sample, facts in enumerate(samples):
        for relation, (rows, probs) in facts.items():
            engine.add_batch_facts(database, relation, sample, rows, probs=probs)
    engine.run(database)
    for relation in CSPA_IDB:
        by_sample = engine.query_by_sample(database, relation)
        for sample, facts in enumerate(samples):
            assert by_sample.get(sample, {}) == cold_cspa(facts)[relation], (relation, sample)
