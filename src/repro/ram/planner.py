"""Query planning for the Datalog -> RAM lowering.

Two planners share this module:

* :func:`order_atoms` — the syntactic greedy heuristic Lobster inherits
  from Scallop's front-end (§5): start from the first body atom, then
  repeatedly pick the atom sharing the most variables with the bound set.
  **Tie-breaking is stable by construction**: candidates are scored in
  original body order and a candidate replaces the incumbent only on a
  *strictly* greater score, so among equally scored atoms the textually
  first always wins.  Plans are therefore a pure function of the source
  text — the property the program cache's content addressing relies on.
* :func:`plan_atoms` — the statistics-driven cost-based planner.  Given a
  :class:`~repro.stats.StatsCatalog` it estimates per-atom and per-join
  cardinalities (:mod:`repro.stats.estimate`), then searches join orders:
  a bushy-avoiding (left-deep) dynamic program over atom subsets up to
  :data:`DP_LIMIT` atoms, greedy smallest-output extension beyond.  Cross
  products are deferred: a state only considers disconnected atoms when
  no connected atom remains.  Comparison selectivities are applied at the
  earliest position where their variables are bound, mirroring the
  lowering's eager selection placement.  With no statistics the planner
  falls back to :func:`order_atoms`, producing bit-identical artifacts to
  the historical pipeline — cost-based planning only ever changes
  *operator order*, never results.

Ties in the cost search break toward the lexicographically smallest
original-position order, so equal-cost plans are deterministic too.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog import ast
from ..stats.estimate import (
    Binding,
    CostModel,
    atom_binding,
    join_bindings,
    range_selectivity,
)
from ..stats.relation_stats import StatsCatalog

#: Bodies up to this many positive atoms get the exhaustive left-deep
#: dynamic program; longer bodies use greedy smallest-output extension.
DP_LIMIT = 8


def term_vars(term: ast.Term) -> set[str]:
    if isinstance(term, ast.Var):
        return {term.name}
    if isinstance(term, ast.BinOp):
        return term_vars(term.lhs) | term_vars(term.rhs)
    if isinstance(term, ast.Neg):
        return term_vars(term.operand)
    return set()


def atom_vars(atom: ast.Atom) -> set[str]:
    out: set[str] = set()
    for arg in atom.args:
        out |= term_vars(arg)
    return out


def order_atoms(atoms: list[ast.Atom]) -> list[ast.Atom]:
    """Greedy join-order heuristic (the zero-statistics fallback).

    Ties are broken by original body position: the scan walks candidates
    in order and only a strictly better score displaces the incumbent,
    so the first equally scored atom is always chosen.  Keep the ``>``
    strict — relaxing it to ``>=`` would silently reverse tie order and
    change every cached plan's content address.
    """
    if len(atoms) <= 1:
        return list(atoms)
    remaining = list(atoms)
    ordered = [remaining.pop(0)]
    bound = atom_vars(ordered[0])
    while remaining:
        best_index = 0
        best_score = -1
        for index, atom in enumerate(remaining):
            score = len(atom_vars(atom) & bound)
            if score > best_score:  # strict: first equal-score atom wins
                best_score = score
                best_index = index
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= atom_vars(chosen)
    return ordered


def ready_comparisons(
    comparisons: list[ast.Comparison], bound: set[str], applied: set[int]
) -> list[int]:
    """Indices of not-yet-applied comparisons whose variables are bound."""
    ready: list[int] = []
    for index, comparison in enumerate(comparisons):
        if index in applied:
            continue
        needed = term_vars(comparison.lhs) | term_vars(comparison.rhs)
        if needed <= bound:
            ready.append(index)
    return ready


# ---------------------------------------------------------------------------
# Cost-based planning


@dataclass
class RulePlan:
    """One rule body's chosen plan plus its cost-model annotations."""

    order: list[ast.Atom]
    #: Estimated rows one full evaluation of the body produces (None for
    #: the zero-statistics fallback — nothing was estimated).
    estimated_rows: float | None = None
    #: Estimated total plan cost in tuple units.
    estimated_cost: float | None = None
    #: Whether statistics actually drove the ordering.
    used_stats: bool = False


def _arg_kinds(atom: ast.Atom) -> list[tuple[str, object]]:
    """Argument shapes for :func:`repro.stats.estimate.atom_binding`."""
    kinds: list[tuple[str, object]] = []
    for arg in atom.args:
        if isinstance(arg, ast.Var):
            kinds.append(("var", arg.name))
        elif isinstance(arg, ast.IntConst):
            kinds.append(("const", int(arg.value)))
        elif isinstance(arg, ast.FloatConst):
            kinds.append(("const", float(arg.value)))
        else:
            kinds.append(("other", None))
    return kinds


def _comparison_selectivity(
    comparison: ast.Comparison, binding: Binding
) -> float:
    """Estimated pass rate of one comparison over ``binding``'s rows."""
    lhs, rhs = comparison.lhs, comparison.rhs
    op = comparison.op

    def const_of(term):
        if isinstance(term, ast.IntConst):
            return float(term.value)
        if isinstance(term, ast.FloatConst):
            return float(term.value)
        return None

    if op == "==":
        distincts = [
            binding.vars[name].n_distinct
            for name in term_vars(lhs) | term_vars(rhs)
            if name in binding.vars
        ]
        return 1.0 / max(max(distincts, default=1.0), 1.0)
    if op == "!=":
        return 0.9
    # Range comparison: interpolate when one side is a plain variable and
    # the other a constant; otherwise assume a third passes.
    for var_term, const_term, flip in ((lhs, rhs, False), (rhs, lhs, True)):
        value = const_of(const_term)
        if isinstance(var_term, ast.Var) and value is not None:
            stats = binding.vars.get(var_term.name)
            column = stats.column if stats is not None else None
            effective = op
            if flip:
                effective = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return range_selectivity(column, effective, value)
    return 1.0 / 3.0


def _apply_ready(
    binding: Binding,
    comparisons: list[ast.Comparison],
    bound: set[str],
    applied: set[int],
) -> Binding:
    """Fold newly applicable comparison selectivities into ``binding``."""
    for index in ready_comparisons(comparisons, bound, applied):
        binding.rows *= _comparison_selectivity(comparisons[index], binding)
        applied.add(index)
    return binding.clamp()


def plan_atoms(
    atoms: list[ast.Atom],
    comparisons: list[ast.Comparison],
    catalog: StatsCatalog | None,
    cost_model: CostModel | None = None,
) -> RulePlan:
    """Choose a join order for one rule body.

    Falls back to :func:`order_atoms` when no statistics are available,
    so a stats-free compilation is bit-identical to the historical
    pipeline.  Results never depend on the order chosen — only cost does
    — because the stratum-boundary sort/unique⟨⊕⟩/merge canonicalizes
    every delta (the bitwise-equality tests pin this down).
    """
    if catalog is None or not catalog:
        return RulePlan(order_atoms(atoms))
    model = cost_model or CostModel()
    if len(atoms) <= 1:
        binding = (
            atom_binding(atoms[0].predicate, _arg_kinds(atoms[0]), catalog)
            if atoms
            else Binding(1.0, {})
        )
        applied: set[int] = set()
        binding = _apply_ready(
            binding, comparisons, atom_vars(atoms[0]) if atoms else set(), applied
        )
        return RulePlan(
            list(atoms), binding.rows, binding.rows, used_stats=True
        )

    bindings = [
        atom_binding(atom.predicate, _arg_kinds(atom), catalog) for atom in atoms
    ]
    var_sets = [atom_vars(atom) for atom in atoms]

    if len(atoms) <= DP_LIMIT:
        order = _plan_dp(atoms, bindings, var_sets, comparisons, model)
    else:
        order = _plan_greedy(atoms, bindings, var_sets, comparisons, model)

    # Re-walk the chosen order once to report its estimates.
    rows, cost = _walk_cost(order, atoms, bindings, var_sets, comparisons, model)
    return RulePlan(
        [atoms[i] for i in order], rows, cost, used_stats=True
    )


def _walk_cost(
    order: list[int],
    atoms: list[ast.Atom],
    bindings: list[Binding],
    var_sets: list[set[str]],
    comparisons: list[ast.Comparison],
    model: CostModel,
) -> tuple[float, float]:
    """(final rows, total cost) of executing atoms in ``order``."""
    applied: set[int] = set()
    first = order[0]
    binding = bindings[first].copy()
    bound = set(var_sets[first])
    cost = model.tuple_cost * binding.rows
    binding = _apply_ready(binding, comparisons, bound, applied)
    for index in order[1:]:
        side = bindings[index]
        shared = sorted(bound & var_sets[index])
        out = join_bindings(binding, side, shared)
        cost += model.join_cost(binding.rows, side.rows, out.rows)
        bound |= var_sets[index]
        binding = _apply_ready(out, comparisons, bound, applied)
    return binding.rows, cost


def _plan_dp(
    atoms: list[ast.Atom],
    bindings: list[Binding],
    var_sets: list[set[str]],
    comparisons: list[ast.Comparison],
    model: CostModel,
) -> list[int]:
    """Exhaustive left-deep DP over atom subsets (bushy plans avoided:
    the right side of every join is a base atom)."""
    n = len(atoms)
    # state: frozenset -> (cost, order_tuple, binding)
    states: dict[frozenset[int], tuple[float, tuple[int, ...], Binding]] = {}
    for i in range(n):
        applied: set[int] = set()
        binding = _apply_ready(
            bindings[i].copy(), comparisons, set(var_sets[i]), applied
        )
        states[frozenset([i])] = (
            model.tuple_cost * bindings[i].rows,
            (i,),
            binding,
        )

    for _size in range(1, n):
        next_states: dict[frozenset[int], tuple[float, tuple[int, ...], Binding]] = {}
        for subset, (cost, order, binding) in states.items():
            if len(subset) != _size:
                continue
            bound = set().union(*(var_sets[i] for i in subset))
            remaining = [i for i in range(n) if i not in subset]
            connected = [i for i in remaining if bound & var_sets[i]]
            candidates = connected or remaining
            for j in candidates:
                shared = sorted(bound & var_sets[j])
                out = join_bindings(binding, bindings[j], shared)
                step = model.join_cost(binding.rows, bindings[j].rows, out.rows)
                # Comparisons ready under the *prior* bound set were all
                # applied while this state was built (every step applies
                # everything ready), so reconstructing the applied set
                # from `bound` is exact — no need to carry it in the
                # state.
                applied = set(ready_comparisons(comparisons, bound, set()))
                out = _apply_ready(out, comparisons, bound | var_sets[j], applied)
                key = subset | {j}
                entry = (cost + step, order + (j,), out)
                incumbent = next_states.get(frozenset(key))
                if incumbent is None or (entry[0], entry[1]) < (
                    incumbent[0],
                    incumbent[1],
                ):
                    next_states[frozenset(key)] = entry
        states.update(next_states)

    full = frozenset(range(n))
    _cost, order, _binding = states[full]
    return list(order)


def _plan_greedy(
    atoms: list[ast.Atom],
    bindings: list[Binding],
    var_sets: list[set[str]],
    comparisons: list[ast.Comparison],
    model: CostModel,
) -> list[int]:
    """Smallest-estimated-output extension for long bodies (> DP_LIMIT)."""
    n = len(atoms)
    start = min(range(n), key=lambda i: (bindings[i].rows, i))
    order = [start]
    applied: set[int] = set()
    binding = _apply_ready(
        bindings[start].copy(), comparisons, set(var_sets[start]), applied
    )
    bound = set(var_sets[start])
    remaining = [i for i in range(n) if i != start]
    while remaining:
        connected = [i for i in remaining if bound & var_sets[i]]
        candidates = connected or remaining
        best = None
        best_key = None
        best_out = None
        for j in candidates:
            shared = sorted(bound & var_sets[j])
            out = join_bindings(binding, bindings[j], shared)
            key = (out.rows, j)
            if best_key is None or key < best_key:
                best, best_key, best_out = j, key, out
        order.append(best)
        remaining.remove(best)
        bound |= var_sets[best]
        binding = _apply_ready(best_out, comparisons, bound, applied)
    return order
