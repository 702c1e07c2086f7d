"""Lowering: resolved Datalog rules -> RAM relational algebra.

Each rule body becomes a left-deep tree of joins over its positive atoms
(ordered by the planner), with selections applied as soon as their
variables are bound, anti-joins for negated atoms, and a final projection
computing the head terms.  Under a semiring whose ⊗ distributes over ⊕
(:attr:`~repro.provenance.base.Provenance.distributive`), every join but
the last is followed by a *distinct* projection onto the variables a
later atom, comparison, negated atom or head term still reads: the dead
join variables go, and the intermediate is ⊕-deduplicated before the
next join instead of being expanded by it (early aggregation).  This
mirrors the mid-level representation the paper assumes as input ("we
assume an existing Datalog compiler is capable of converting a
user-level program to a mid-level program based on relational algebra",
§3).

Atom order comes from the syntactic heuristic
(:func:`repro.ram.planner.order_atoms`), so the lowering is a pure
function of the source text.
"""

from __future__ import annotations

from ..datalog import ast
from ..datalog.resolver import ResolvedProgram, ResolvedRule
from ..errors import CompileError
from . import exprs as E
from . import planner
from .ir import (
    Antijoin,
    Join,
    Product,
    Project,
    RamProgram,
    RamRule,
    RamStratum,
    Scan,
    Select,
    scans_of,
)


def compile_program(resolved: ResolvedProgram, distributive: bool = False) -> RamProgram:
    """Lower a resolved Datalog program to RAM.  ``distributive`` enables
    the early distinct projections (the semiring's ⊗ distributes over ⊕
    bitwise); without it the lowering is the plain one."""
    strata: list[RamStratum] = []
    for stratum in resolved.strata:
        pred_set = set(stratum.predicates)
        ram_rules: list[RamRule] = []
        for rule in stratum.rules:
            expr = compile_rule(rule, resolved, distributive)
            scans = scans_of(expr)
            recursive_atoms = tuple(
                index for index, scan in enumerate(scans) if scan.predicate in pred_set
            )
            ram_rules.append(RamRule(rule.head, expr, recursive_atoms))
        strata.append(RamStratum(stratum.predicates, ram_rules, stratum.recursive))
    return RamProgram(strata, dict(resolved.schemas), list(resolved.queries))


def compile_rule(rule: ResolvedRule, resolved: ResolvedProgram, distributive: bool = False):
    if not rule.positives:
        raise CompileError(
            f"rule for {rule.head!r} has no positive body atoms; "
            "use a fact block for ground facts"
        )
    ordered = planner.order_atoms(rule.positives)

    current, layout = _compile_atom(ordered[0], resolved)
    applied: set[int] = set()
    current, layout = _apply_ready_comparisons(current, layout, rule.comparisons, applied)

    for position in range(1, len(ordered)):
        side, side_layout = _compile_atom(ordered[position], resolved)
        current, layout = _join(current, layout, side, side_layout)
        current, layout = _apply_ready_comparisons(current, layout, rule.comparisons, applied)
        if distributive and position + 1 < len(ordered):
            current, layout = _project_live(
                current, layout, rule, ordered[position + 1 :], applied
            )

    if len(applied) != len(rule.comparisons):
        raise CompileError(f"rule for {rule.head!r} has unapplicable comparisons")

    for negated in rule.negatives:
        current, layout = _antijoin(current, layout, negated, resolved)

    head_exprs = tuple(_term_to_expr(term, layout) for term in rule.head_terms)
    return Project(current, head_exprs)


# ---------------------------------------------------------------------------


def _compile_atom(atom: ast.Atom, resolved: ResolvedProgram):
    """Compile one atom into Scan / Select / Project, returning the variable
    layout of the projected columns."""
    expr = Scan(atom.predicate)
    conditions: list[E.Expr] = []
    first_position: dict[str, int] = {}
    layout: list[str] = []

    for position, arg in enumerate(atom.args):
        if isinstance(arg, ast.Wildcard):
            continue
        if isinstance(arg, ast.Var):
            if arg.name in first_position:
                conditions.append(
                    E.Binary("==", E.Col(position), E.Col(first_position[arg.name]))
                )
            else:
                first_position[arg.name] = position
                layout.append(arg.name)
            continue
        if isinstance(arg, ast.IntConst):
            conditions.append(E.Binary("==", E.Col(position), E.Const(int(arg.value))))
            continue
        if isinstance(arg, ast.FloatConst):
            conditions.append(E.Binary("==", E.Col(position), E.Const(float(arg.value))))
            continue
        raise CompileError(
            f"argument {arg!r} of body atom {atom.predicate!r} must be a "
            "variable, wildcard, or constant"
        )

    if conditions:
        expr = Select(expr, _conjoin(conditions))

    arity = len(resolved.schemas[atom.predicate])
    wanted = [first_position[name] for name in layout]
    if wanted != list(range(arity)):
        expr = Project(expr, tuple(E.Col(position) for position in wanted))
    return expr, layout


def _join(left, left_layout: list[str], right, right_layout: list[str]):
    shared = [name for name in left_layout if name in right_layout]
    if not shared:
        return Product(left, right), left_layout + right_layout
    left = _permute(left, left_layout, shared)
    right = _permute(right, right_layout, shared)
    left_rest = [name for name in left_layout if name not in shared]
    right_rest = [name for name in right_layout if name not in shared]
    joined = Join(left, right, len(shared))
    return joined, shared + left_rest + right_rest


def _project_live(current, layout: list[str], rule: ResolvedRule, later, applied: set[int]):
    """Drop the variables nothing after this join reads, as a distinct
    projection (the intermediate is ⊕-deduplicated).  The next atom's
    shared variables lead, so the next join needs no permutation."""
    later_vars = [planner.atom_vars(atom) for atom in later]
    live = set().union(*later_vars)
    for index, comparison in enumerate(rule.comparisons):
        if index not in applied:
            live |= planner.term_vars(comparison.lhs) | planner.term_vars(comparison.rhs)
    for negated in rule.negatives:
        live |= planner.atom_vars(negated)
    for term in rule.head_terms:
        live |= planner.term_vars(term)
    if live.issuperset(layout):
        return current, layout
    kept = [name for name in layout if name in later_vars[0]]
    kept += [name for name in layout if name in live and name not in kept]
    exprs = tuple(E.Col(layout.index(name)) for name in kept)
    return Project(current, exprs, distinct=True), kept


def _antijoin(current, layout: list[str], atom: ast.Atom, resolved: ResolvedProgram):
    side, side_layout = _compile_atom(
        ast.Atom(atom.predicate, atom.args, negated=False), resolved
    )
    shared = [name for name in layout if name in side_layout]
    current = _permute(current, layout, shared)
    side = _permute_exact(side, side_layout, shared)
    new_layout = shared + [name for name in layout if name not in shared]
    return Antijoin(current, side, len(shared)), new_layout


def _permute(expr, layout: list[str], prefix: list[str]):
    """Project so ``prefix`` variables come first (rest keep their order)."""
    new_order = prefix + [name for name in layout if name not in prefix]
    if new_order == layout:
        return expr
    return Project(expr, tuple(E.Col(layout.index(name)) for name in new_order))


def _permute_exact(expr, layout: list[str], wanted: list[str]):
    """Project to exactly the ``wanted`` variables, in order."""
    if wanted == layout:
        return expr
    return Project(expr, tuple(E.Col(layout.index(name)) for name in wanted))


def _apply_ready_comparisons(expr, layout, comparisons, applied: set[int]):
    bound = set(layout)
    for index in planner.ready_comparisons(list(comparisons), bound, applied):
        comparison = comparisons[index]
        predicate = E.Binary(
            comparison.op,
            _term_to_expr(comparison.lhs, layout),
            _term_to_expr(comparison.rhs, layout),
        )
        expr = Select(expr, predicate)
        applied.add(index)
    return expr, layout


def _term_to_expr(term: ast.Term, layout: list[str]) -> E.Expr:
    if isinstance(term, ast.Var):
        try:
            return E.Col(layout.index(term.name))
        except ValueError:
            raise CompileError(f"variable {term.name!r} not bound") from None
    if isinstance(term, ast.IntConst):
        return E.Const(int(term.value))
    if isinstance(term, ast.FloatConst):
        return E.Const(float(term.value))
    if isinstance(term, ast.BinOp):
        return E.Binary(term.op, _term_to_expr(term.lhs, layout), _term_to_expr(term.rhs, layout))
    if isinstance(term, ast.Neg):
        return E.Unary("neg", _term_to_expr(term.operand, layout))
    raise CompileError(f"cannot compile term {term!r}")


def _conjoin(conditions: list[E.Expr]) -> E.Expr:
    expr = conditions[0]
    for condition in conditions[1:]:
        expr = E.Binary("and", expr, condition)
    return expr
