"""Query planning for the Datalog -> RAM lowering.

:func:`order_atoms` is the syntactic greedy heuristic Lobster inherits
from Scallop's front-end (§5): start from the first body atom, then
repeatedly pick the atom sharing the most variables with the bound set.
**Tie-breaking is stable by construction**: candidates are scored in
original body order and a candidate replaces the incumbent only on a
*strictly* greater score, so among equally scored atoms the textually
first always wins.  Plans are therefore a pure function of the source
text — the property the program cache's content addressing relies on.
A body order the heuristic gets wrong is fixed in the source: the
textually first atom always leads the plan.
"""

from __future__ import annotations

from ..datalog import ast


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
    """Greedy join-order heuristic.

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
