"""The Scallop baseline: a tuple-at-a-time CPU engine with provenance.

Scallop is the paper's primary comparison target — the state-of-the-art
CPU neurosymbolic framework.  This stand-in shares Lobster's front-end
(parser, resolver, stratifier, planner — mirroring how Lobster itself
reuses Scallop's front-end, §5) and the same provenance semantics via each
semiring's *scalar* interface, but executes rules one tuple at a time with
nested-loop joins over hash indices, like a classic bottom-up Datalog
interpreter.  The per-tuple interpretation overhead versus Lobster's
whole-column kernels is precisely the CPU-vs-GPU contrast the paper
measures.

Unlike the device engine, this baseline supports the general top-k-proofs
semiring (the paper's §3.5 limitation cuts the other way here).
"""

from __future__ import annotations

import time

import numpy as np

from ..datalog import ast
from ..datalog.program import compile_source
from ..datalog.resolver import ResolvedRule
from ..errors import EvaluationTimeout, LobsterError
from ..provenance import registry
from ..provenance.base import Provenance
from ..ram import planner


class ScallopDatabase:
    """Tuple-level fact store: predicate -> {row: tag}."""

    def __init__(self, provenance: Provenance):
        self.provenance = provenance
        self.facts: dict[str, dict[tuple, object]] = {}
        self._probs: list[float] = []
        self._groups: list[int] = []
        self._pending: list[tuple[str, tuple, int]] = []
        self._next_group = 0
        self._finalized = False

    @property
    def n_input_facts(self) -> int:
        return len(self._probs)

    def new_exclusion_group(self) -> int:
        group = self._next_group
        self._next_group += 1
        return group

    def add_facts(self, name, rows, probs=None, exclusive=False, group=None) -> np.ndarray:
        if probs is None:
            self._pending.extend((name, tuple(row), -1) for row in rows)
            return np.full(len(rows), -1, dtype=np.int64)
        if group is None:
            group = -1
            if exclusive:
                group = self.new_exclusion_group()
        start = len(self._probs)
        for row, prob in zip(rows, probs):
            self._pending.append((name, tuple(row), len(self._probs)))
            self._probs.append(float(prob))
            self._groups.append(group)
        return np.arange(start, start + len(rows), dtype=np.int64)

    def finalize(self) -> None:
        if self._finalized:
            return
        self.provenance.setup(
            np.asarray(self._probs, dtype=np.float64),
            np.asarray(self._groups, dtype=np.int64),
        )
        for name, row, fact_id in self._pending:
            tag = self.provenance.scalar_input(fact_id)
            store = self.facts.setdefault(name, {})
            if row in store:
                store[row] = self.provenance.scalar_oplus(store[row], tag)
            else:
                store[row] = tag
        # A fact tagged with the absorbing zero is absent, as in the engine.
        for store in self.facts.values():
            for row in [row for row, tag in store.items() if self.provenance.scalar_is_zero(tag)]:
                del store[row]
        self._finalized = True

    def rows(self, name: str) -> dict[tuple, object]:
        return self.facts.get(name, {})

    def prob(self, name: str, row: tuple) -> float:
        tag = self.facts.get(name, {}).get(tuple(row))
        if tag is None:
            return 0.0
        return self.provenance.scalar_prob(tag)


class ScallopInterpreter:
    """Semi-naive tuple-at-a-time evaluation with tag saturation."""

    def __init__(
        self,
        source: str,
        provenance: str | Provenance = "unit",
        timeout_seconds: float | None = None,
        max_iterations: int = 100_000,
        **provenance_kwargs,
    ):
        self.resolved = compile_source(source)
        if isinstance(provenance, Provenance):
            self._provenance_factory = lambda: type(provenance)()
        else:
            self._provenance_factory = lambda: registry.create(
                provenance, **provenance_kwargs
            )
        self.timeout_seconds = timeout_seconds
        self.max_iterations = max_iterations
        self.iterations_run = 0

    # ------------------------------------------------------------------

    def create_database(self) -> ScallopDatabase:
        database = ScallopDatabase(self._provenance_factory())
        for predicate, rows in self.resolved.facts.items():
            database.add_facts(predicate, rows)
        return database

    def run(self, database: ScallopDatabase) -> None:
        database.finalize()
        deadline = (
            time.perf_counter() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        for stratum in self.resolved.strata:
            self._run_stratum(stratum, database, deadline)

    # ------------------------------------------------------------------

    def _run_stratum(self, stratum, database: ScallopDatabase, deadline) -> None:
        provenance = database.provenance
        pred_set = set(stratum.predicates)
        recent: dict[str, set[tuple]] = {
            predicate: set(database.rows(predicate)) for predicate in pred_set
        }
        ordered_rules = [
            (rule, planner.order_atoms(rule.positives)) for rule in stratum.rules
        ]

        iteration = 0
        while True:
            iteration += 1
            self.iterations_run += 1
            if deadline is not None and time.perf_counter() > deadline:
                raise EvaluationTimeout(
                    f"Scallop baseline exceeded {self.timeout_seconds}s"
                )
            derived: dict[str, dict[tuple, object]] = {}
            for rule, ordered in ordered_rules:
                recursive_positions = [
                    index
                    for index, atom in enumerate(ordered)
                    if atom.predicate in pred_set
                ]
                if recursive_positions and iteration >= 1:
                    variants = recursive_positions
                elif iteration == 1:
                    variants = [None]
                else:
                    continue
                for recent_position in variants:
                    self._eval_rule(
                        rule, ordered, recent_position, database, recent, derived
                    )

            frontier: dict[str, set[tuple]] = {p: set() for p in pred_set}
            for predicate, rows in derived.items():
                store = database.facts.setdefault(predicate, {})
                for row, tag in rows.items():
                    if provenance.scalar_is_zero(tag):
                        continue
                    existing = store.get(row)
                    if existing is None:
                        store[row] = tag
                        frontier[predicate].add(row)
                    elif provenance.scalar_improved(existing, tag):
                        store[row] = provenance.scalar_oplus(existing, tag)
                        frontier[predicate].add(row)
            recent = frontier
            if not any(recent.values()):
                break
            if iteration >= self.max_iterations:
                raise LobsterError("scallop baseline failed to saturate")

    # ------------------------------------------------------------------

    def _eval_rule(
        self,
        rule: ResolvedRule,
        ordered: list[ast.Atom],
        recent_position: int | None,
        database: ScallopDatabase,
        recent: dict[str, set[tuple]],
        derived: dict[str, dict[tuple, object]],
    ) -> None:
        provenance = database.provenance

        def atom_rows(position: int):
            atom = ordered[position]
            store = database.rows(atom.predicate)
            if position == recent_position:
                for row in recent.get(atom.predicate, ()):
                    tag = store.get(row)
                    if tag is not None:
                        yield row, tag
            else:
                yield from store.items()

        def extend(position: int, env: dict[str, object], tag) -> None:
            if position == len(ordered):
                self._finish(rule, env, tag, database, derived)
                return
            atom = ordered[position]
            for row, row_tag in atom_rows(position):
                bound = self._unify(atom, row, env)
                if bound is None:
                    continue
                if not self._comparisons_hold(rule, bound):
                    continue
                extend(position + 1, bound, provenance.scalar_otimes(tag, row_tag))

        extend(0, {}, provenance.scalar_one())

    def _finish(self, rule, env, tag, database, derived) -> None:
        provenance = database.provenance
        for atom in rule.negatives:
            row = tuple(self._eval_term(arg, env) for arg in atom.args)
            if row in database.rows(atom.predicate):
                return
        head_row = tuple(self._eval_term(term, env) for term in rule.head_terms)
        bucket = derived.setdefault(rule.head, {})
        if head_row in bucket:
            bucket[head_row] = provenance.scalar_oplus(bucket[head_row], tag)
        else:
            bucket[head_row] = tag

    @staticmethod
    def _unify(atom: ast.Atom, row: tuple, env: dict) -> dict | None:
        bound = dict(env)
        for arg, value in zip(atom.args, row):
            if isinstance(arg, ast.Wildcard):
                continue
            if isinstance(arg, ast.Var):
                existing = bound.get(arg.name)
                if existing is None:
                    bound[arg.name] = value
                elif existing != value:
                    return None
                continue
            if isinstance(arg, ast.IntConst):
                if value != arg.value:
                    return None
                continue
            if isinstance(arg, ast.FloatConst):
                if value != arg.value:
                    return None
                continue
            return None
        return bound

    def _comparisons_hold(self, rule: ResolvedRule, env: dict) -> bool:
        for comparison in rule.comparisons:
            lhs = self._try_eval(comparison.lhs, env)
            rhs = self._try_eval(comparison.rhs, env)
            if lhs is None or rhs is None:
                continue  # not yet bound; checked again when complete
            op = comparison.op
            ok = (
                lhs == rhs
                if op == "=="
                else lhs != rhs
                if op == "!="
                else lhs < rhs
                if op == "<"
                else lhs <= rhs
                if op == "<="
                else lhs > rhs
                if op == ">"
                else lhs >= rhs
            )
            if not ok:
                return False
        return True

    def _try_eval(self, term: ast.Term, env: dict):
        try:
            return self._eval_term(term, env)
        except KeyError:
            return None

    def _eval_term(self, term: ast.Term, env: dict):
        if isinstance(term, ast.Var):
            return env[term.name]
        if isinstance(term, (ast.IntConst, ast.FloatConst)):
            return term.value
        if isinstance(term, ast.BinOp):
            lhs = self._eval_term(term.lhs, env)
            rhs = self._eval_term(term.rhs, env)
            op = term.op
            if op == "+":
                return lhs + rhs
            if op == "-":
                return lhs - rhs
            if op == "*":
                return lhs * rhs
            if op == "/":
                return lhs / rhs if rhs != 0 else float("inf")
            if op == "%":
                return lhs % rhs if rhs != 0 else 0
            raise LobsterError(f"unknown operator {op!r}")
        if isinstance(term, ast.Neg):
            return -self._eval_term(term.operand, env)
        raise LobsterError(f"cannot evaluate term {term!r}")
