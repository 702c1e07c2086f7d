"""Batched evaluation (§4.3).

Lobster folds a batch of databases into one by prepending a *sample id*
column to every relation.  No new APM or RAM constructs are needed: the
program itself is rewritten so that a fresh variable rides along every
atom's first argument — joins then implicitly extend their width by one,
so facts from different samples can never combine, and parallelism over
the batch falls out of the existing row parallelism.

:func:`stack_databases` and :func:`split_database` are the fold the
serving path runs on a micro-batch of cold databases: stack their loaded
relations behind sample ids ``0..k-1``, run the rewritten program once,
and slice every derived relation back.  Relations keep ``full`` sorted
with the sample column first, so each member's rows are one contiguous
run, already in the order a run of that database alone leaves them.
"""

from __future__ import annotations

import numpy as np

from ..apm import instructions as I
from ..apm.compiler import ApmProgram
from ..datalog import ast
from .database import Database
from .table import Table

#: Name of the injected batch variable; double underscores keep it out of
#: the user's namespace.
SAMPLE_VAR = "__sample__"
SAMPLE_TYPE = "usize"


def batch_transform(program: ast.ProgramAst) -> ast.ProgramAst:
    """Rewrite a program for batched evaluation."""
    sample = ast.Var(SAMPLE_VAR)

    def widen_atom(atom: ast.Atom) -> ast.Atom:
        return ast.Atom(atom.predicate, (sample,) + atom.args, atom.negated)

    def widen_formula(formula: ast.Formula) -> ast.Formula:
        if isinstance(formula, ast.Atom):
            return widen_atom(formula)
        if isinstance(formula, ast.Comparison):
            return formula
        if isinstance(formula, ast.Conj):
            return ast.Conj(tuple(widen_formula(item) for item in formula.items))
        if isinstance(formula, ast.Disj):
            return ast.Disj(tuple(widen_formula(item) for item in formula.items))
        raise TypeError(f"unexpected formula {formula!r}")

    out = ast.ProgramAst()
    out.type_aliases = list(program.type_aliases)
    out.relation_decls = [
        ast.RelationDecl(
            decl.name,
            (SAMPLE_VAR,) + decl.arg_names,
            (SAMPLE_TYPE,) + decl.arg_types,
        )
        for decl in program.relation_decls
    ]
    out.rules = [
        ast.Rule(widen_atom(rule.head), widen_formula(rule.body))
        for rule in program.rules
    ]
    # Fact blocks are replicated per sample at load time by the engine.
    out.fact_blocks = list(program.fact_blocks)
    out.queries = list(program.queries)
    return out


def prepend_sample(rows: list[tuple], sample_id: int) -> list[tuple]:
    return [(sample_id,) + tuple(row) for row in rows]


def run_relations(program: ApmProgram) -> list[str]:
    """The relations a cold run of ``program`` opens, in the order it
    opens them: each stratum's predicates, then the relations its rules
    load (every variant runs in a stratum's first iteration)."""
    opened: dict[str, None] = {}
    for stratum in program.strata:
        opened.update(dict.fromkeys(stratum.predicates))
        for rule in stratum.rules:
            for variant in rule.variants:
                for instruction in variant.instructions:
                    if isinstance(instruction, I.Load):
                        opened.setdefault(instruction.predicate)
    return list(opened)


def sample_bounds(samples: np.ndarray, ids: np.ndarray) -> list[int]:
    """Row bounds of each sample's run in a sample-first sorted column:
    sample ``ids[i]`` holds rows ``[bounds[i], bounds[i + 1])``.  ``ids``
    must be ascending and name every sample the column holds."""
    return np.searchsorted(samples, ids).tolist() + [len(samples)]


def stack_databases(members: list[Database], folded: Database, names: list[str]) -> None:
    """Load the finalized ``members``' relations ``names`` into
    ``folded`` (a finalized, empty database of the batched program),
    member ``i``'s rows behind sample id ``i``, with their tags and
    ``recent``/``changed`` masks.  A relation no member holds is left for
    the run to open."""
    for name in names:
        held = [
            (sample, member.relations[name])
            for sample, member in enumerate(members)
            if name in member.relations
        ]
        if not held:
            continue
        sizes = [relation.full.n_rows for _, relation in held]
        ids = np.array([sample for sample, _ in held], dtype=folded.schemas[name][0])
        columns = [np.repeat(ids, sizes)] + [
            np.concatenate(parts)
            for parts in zip(*(relation.full.columns for _, relation in held))
        ]
        target = folded.relation(name)
        target.full = Table(
            columns,
            np.concatenate([relation.full.tags for _, relation in held]),
            sum(sizes),
        )
        target.recent_mask = np.concatenate([r.recent_mask for _, r in held])
        target.changed_mask = np.concatenate([r.changed_mask for _, r in held])


def split_database(
    folded: Database, members: list[Database], names: list[str], derived: set[str]
) -> None:
    """Hand each member its slice of the folded run: open ``names`` in
    every member in order (as its own run would), and give it the rows,
    tags and ``recent``/``changed`` masks of each ``derived`` relation
    under its sample id.  The slices are views of the folded arrays,
    each member's disjoint from every other's."""
    ids = np.arange(len(members))
    for name in names:
        targets = [member.relation(name) for member in members]
        if name not in derived:
            continue
        source = folded.relations[name]
        full = source.full
        bounds = sample_bounds(full.columns[0], ids)
        for target, lo, hi in zip(targets, bounds[:-1], bounds[1:]):
            target.full = Table([c[lo:hi] for c in full.columns[1:]], full.tags[lo:hi], hi - lo)
            target.recent_mask = source.recent_mask[lo:hi]
            target.changed_mask = source.changed_mask[lo:hi]
