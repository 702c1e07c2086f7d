"""Name/type resolution, safety checking, and rule normalization.

Converts a parsed :class:`~repro.datalog.ast.ProgramAst` into a
:class:`ResolvedProgram`:

* relation schemas are computed: declared types, resolved through
  aliases, are final; undeclared relations are inferred, with float
  columns propagated into them to a fixed point through rule heads and
  fact blocks;
* every rule is typed once: a variable has one dtype over all its
  positive and negated atoms and the comparisons of two variables, and
  every head term — literals included — has its column's dtype
  (arithmetic promotes, ``/`` gives a float; comparisons against literals
  promote too).  A conflict is a :class:`~repro.errors.ResolutionError`
  naming the rule, the variable and both columns, so the runtime never
  converts a key;
* bodies are desugared to DNF and split into positive atoms, negated atoms,
  and comparisons;
* string constants are interned to int64 symbol ids;
* range-restriction (safety) is enforced: every head/negation/comparison
  variable must be bound by a positive body atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ast
from .desugar import desugar_rules
from .stratify import stratify
from ..errors import ResolutionError
from ..interning import SymbolTable

INT = np.dtype(np.int64)
FLOAT = np.dtype(np.float64)

_FLOAT_TYPE_NAMES = {"f32", "f64", "float", "Float"}
_SYMBOL_TYPE_NAMES = {"String", "str", "Symbol", "string"}
_INT_TYPE_NAMES = {
    f"{sign}{width}" for sign in "iu" for width in (8, 16, 32, 64, 128)
} | {"isize", "usize"}


@dataclass
class ResolvedRule:
    head: str
    head_terms: tuple[ast.Term, ...]
    positives: list[ast.Atom]
    negatives: list[ast.Atom]
    comparisons: list[ast.Comparison]

    def body_predicates(self) -> list[tuple[str, bool]]:
        out = [(atom.predicate, False) for atom in self.positives]
        out += [(atom.predicate, True) for atom in self.negatives]
        return out


@dataclass
class Stratum:
    predicates: list[str]
    rules: list[ResolvedRule]
    recursive: bool


@dataclass
class ResolvedProgram:
    schemas: dict[str, tuple[np.dtype, ...]]
    rules: list[ResolvedRule]
    strata: list[Stratum]
    queries: list[str]
    facts: dict[str, list[tuple]]
    symbols: SymbolTable
    edb_predicates: set[str] = field(default_factory=set)
    idb_predicates: set[str] = field(default_factory=set)

    def arity(self, predicate: str) -> int:
        return len(self.schemas[predicate])


def resolve(program: ast.ProgramAst, symbols: SymbolTable | None = None) -> ResolvedProgram:
    symbols = symbols if symbols is not None else SymbolTable()

    aliases = _resolve_aliases(program.type_aliases)
    schemas: dict[str, tuple[np.dtype, ...]] = {}
    declared: dict[str, tuple[str, ...]] = {}
    for decl in program.relation_decls:
        types = tuple(aliases.get(t, t) for t in decl.arg_types)
        previous = declared.setdefault(decl.name, types)
        if previous != types:
            raise ResolutionError(
                f"relation {decl.name!r} is declared twice with different "
                f"types: {decl.name}({', '.join(previous)}) and "
                f"{decl.name}({', '.join(types)})"
            )
        schemas[decl.name] = tuple(
            _dtype_of(t, decl.name, column) for column, t in enumerate(types)
        )

    flat = desugar_rules(program.rules)
    rules: list[ResolvedRule] = []
    for head, body in flat:
        positives = [lit for lit in body if isinstance(lit, ast.Atom) and not lit.negated]
        negatives = [lit for lit in body if isinstance(lit, ast.Atom) and lit.negated]
        comparisons = [lit for lit in body if isinstance(lit, ast.Comparison)]
        head_interned = ast.Atom(head.predicate, tuple(_intern(t, symbols) for t in head.args))
        positives = [_intern_atom(a, symbols) for a in positives]
        negatives = [_intern_atom(a, symbols) for a in negatives]
        comparisons = [
            ast.Comparison(c.op, _intern(c.lhs, symbols), _intern(c.rhs, symbols))
            for c in comparisons
        ]
        rule = ResolvedRule(
            head_interned.predicate, head_interned.args, positives, negatives, comparisons
        )
        _check_safety(rule)
        rules.append(rule)

    facts = _resolve_fact_blocks(program.fact_blocks, symbols)

    _infer_schemas(schemas, set(declared), rules, facts)
    _check_types(schemas, rules, flat)

    idb = {rule.head for rule in rules}
    referenced = {
        atom.predicate for rule in rules for atom in rule.positives + rule.negatives
    }
    edb = (referenced | set(facts)) - idb

    dependencies = [
        (pred, rule.head, negated)
        for rule in rules
        for pred, negated in rule.body_predicates()
    ]
    strata_preds = stratify(sorted(idb), dependencies)

    strata: list[Stratum] = []
    for predicates in strata_preds:
        pred_set = set(predicates)
        stratum_rules = [rule for rule in rules if rule.head in pred_set]
        recursive = any(
            pred in pred_set
            for rule in stratum_rules
            for pred, _ in rule.body_predicates()
        )
        strata.append(Stratum(predicates, stratum_rules, recursive))

    queries = [q.predicate for q in program.queries]
    if not queries:
        queries = sorted(idb)

    return ResolvedProgram(
        schemas=schemas,
        rules=rules,
        strata=strata,
        queries=queries,
        facts=facts,
        symbols=symbols,
        edb_predicates=edb,
        idb_predicates=idb,
    )


# ---------------------------------------------------------------------------


def _resolve_aliases(aliases: list[ast.TypeAlias]) -> dict[str, str]:
    mapping = {alias.name: alias.base for alias in aliases}
    resolved: dict[str, str] = {}
    for name in mapping:
        seen = {name}
        base = mapping[name]
        while base in mapping:
            if base in seen:
                raise ResolutionError(f"cyclic type alias through {name!r}")
            seen.add(base)
            base = mapping[base]
        resolved[name] = base
    return resolved


def _dtype_of(type_name: str, relation: str, column: int) -> np.dtype:
    if type_name in _FLOAT_TYPE_NAMES:
        return FLOAT
    if type_name in _SYMBOL_TYPE_NAMES or type_name in _INT_TYPE_NAMES:
        # All integer widths live in int64 registers on the device.
        return INT
    raise ResolutionError(
        f"unknown type {type_name!r} for column {column} of relation "
        f"{relation!r} (expected an integer width such as i32/u64/usize, "
        f"a float or symbol type, or a declared alias)"
    )


def _intern(term: ast.Term, symbols: SymbolTable) -> ast.Term:
    if isinstance(term, ast.StringConst):
        return ast.IntConst(symbols.intern(term.value))
    if isinstance(term, ast.BinOp):
        return ast.BinOp(term.op, _intern(term.lhs, symbols), _intern(term.rhs, symbols))
    if isinstance(term, ast.Neg):
        return ast.Neg(_intern(term.operand, symbols))
    return term


def _intern_atom(atom: ast.Atom, symbols: SymbolTable) -> ast.Atom:
    return ast.Atom(atom.predicate, tuple(_intern(t, symbols) for t in atom.args), atom.negated)


def _resolve_fact_blocks(
    blocks: list[ast.FactBlock], symbols: SymbolTable
) -> dict[str, list[tuple]]:
    facts: dict[str, list[tuple]] = {}
    for block in blocks:
        rows = facts.setdefault(block.predicate, [])
        for fact in block.facts:
            row = []
            for term in fact:
                term = _intern(term, symbols)
                if isinstance(term, ast.IntConst):
                    row.append(int(term.value))
                elif isinstance(term, ast.FloatConst):
                    row.append(float(term.value))
                elif isinstance(term, ast.Neg) and isinstance(term.operand, ast.IntConst):
                    row.append(-int(term.operand.value))
                else:
                    raise ResolutionError(
                        f"fact block for {block.predicate!r} must contain constants"
                    )
            rows.append(tuple(row))
    return facts


def _check_safety(rule: ResolvedRule) -> None:
    bound: set[str] = set()
    for atom in rule.positives:
        for term in atom.args:
            bound |= _vars_of(term)
    for term in rule.head_terms:
        missing = _vars_of(term) - bound
        if missing:
            raise ResolutionError(
                f"unsafe rule for {rule.head!r}: head variables {sorted(missing)} "
                "not bound by a positive body atom"
            )
    for atom in rule.negatives:
        for term in atom.args:
            missing = _vars_of(term) - bound
            if missing:
                raise ResolutionError(
                    f"unsafe negation of {atom.predicate!r}: variables "
                    f"{sorted(missing)} unbound"
                )
    for comparison in rule.comparisons:
        missing = (_vars_of(comparison.lhs) | _vars_of(comparison.rhs)) - bound
        if missing:
            raise ResolutionError(
                f"comparison in rule for {rule.head!r} uses unbound variables "
                f"{sorted(missing)}"
            )


def _vars_of(term: ast.Term) -> set[str]:
    if isinstance(term, ast.Var):
        return {term.name}
    if isinstance(term, ast.BinOp):
        return _vars_of(term.lhs) | _vars_of(term.rhs)
    if isinstance(term, ast.Neg):
        return _vars_of(term.operand)
    return set()


def _infer_schemas(
    schemas: dict[str, tuple[np.dtype, ...]],
    declared: set[str],
    rules: list[ResolvedRule],
    facts: dict[str, list[tuple]],
) -> None:
    """Fill in schemas for undeclared relations, propagating float columns
    into them to a fixed point; declared columns keep their types."""

    def ensure(pred: str, arity: int) -> None:
        existing = schemas.get(pred)
        if existing is None:
            schemas[pred] = tuple([INT] * arity)
        elif len(existing) != arity:
            raise ResolutionError(
                f"relation {pred!r} used with arity {arity}, declared {len(existing)}"
            )

    for rule in rules:
        ensure(rule.head, len(rule.head_terms))
        for atom in rule.positives + rule.negatives:
            ensure(atom.predicate, len(atom.args))
    for pred, rows in facts.items():
        if not rows:
            continue
        ensure(pred, len(rows[0]))
        floats = [any(isinstance(row[j], float) for row in rows) for j in range(len(rows[0]))]
        if pred in declared:
            # As add_facts: an integer fits a float column, a float never
            # fits an integer one.
            for j, dtype in enumerate(schemas[pred]):
                if floats[j] and dtype != FLOAT:
                    raise ResolutionError(
                        f"fact block for {pred!r} puts a float into "
                        f"{_column(pred, j, dtype)}"
                    )
        else:
            schemas[pred] = tuple(
                FLOAT if is_float else dt for is_float, dt in zip(floats, schemas[pred])
            )

    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head in declared:
                continue
            var_types = {
                term.name: dtype
                for atom in rule.positives
                for term, dtype in zip(atom.args, schemas[atom.predicate])
                if isinstance(term, ast.Var) and dtype == FLOAT
            }
            head_dtypes = list(schemas[rule.head])
            for j, term in enumerate(rule.head_terms):
                if _term_dtype(term, var_types) == FLOAT and head_dtypes[j] != FLOAT:
                    head_dtypes[j] = FLOAT
                    changed = True
            schemas[rule.head] = tuple(head_dtypes)


def _check_types(
    schemas: dict[str, tuple[np.dtype, ...]],
    rules: list[ResolvedRule],
    flat: list[tuple[ast.Atom, list[ast.Literal]]],
) -> None:
    """One dtype per variable per rule — over positive and negated atoms
    and comparisons of two variables — and every head term of its
    column's dtype, so the runtime never converts a key.  ``flat`` holds
    each rule as written, for the error message."""
    for rule, (head, body) in zip(rules, flat):
        var_types: dict[str, np.dtype] = {}
        first_at: dict[str, tuple[str, int]] = {}

        def mismatch(problem: str) -> ResolutionError:
            return ResolutionError(f"rule `{_rule_text(head, body)}`: {problem}")

        def at(name: str) -> str:
            pred, j = first_at[name]
            return _column(pred, j, var_types[name])

        for atom in rule.positives + rule.negatives:
            for j, (term, dtype) in enumerate(zip(atom.args, schemas[atom.predicate])):
                if not isinstance(term, ast.Var):
                    continue
                if term.name not in var_types:
                    var_types[term.name] = dtype
                    first_at[term.name] = (atom.predicate, j)
                elif var_types[term.name] != dtype:
                    raise mismatch(
                        f"variable {term.name!r} is {at(term.name)} and "
                        f"{_column(atom.predicate, j, dtype)}"
                    )
        for comparison in rule.comparisons:
            lhs, rhs = comparison.lhs, comparison.rhs
            if (
                isinstance(lhs, ast.Var)
                and isinstance(rhs, ast.Var)
                and var_types[lhs.name] != var_types[rhs.name]
            ):
                raise mismatch(
                    f"variable {lhs.name!r} is {at(lhs.name)} and {rhs.name!r} is "
                    f"{at(rhs.name)}, so `{lhs.name} {comparison.op} {rhs.name}` "
                    "mixes dtypes"
                )
        for j, (term, dtype) in enumerate(zip(rule.head_terms, schemas[rule.head])):
            got = _term_dtype(term, var_types)
            if got != dtype:
                raise mismatch(
                    f"head term {_term_text(head.args[j])} is {_DTYPE_NAMES[got]}, "
                    f"not {_column(rule.head, j, dtype)}"
                )


_DTYPE_NAMES = {INT: "i64", FLOAT: "f64"}


def _rule_text(head: ast.Atom, body: list[ast.Literal]) -> str:
    def literal(lit: ast.Literal) -> str:
        if isinstance(lit, ast.Comparison):
            return f"{_term_text(lit.lhs)} {lit.op} {_term_text(lit.rhs)}"
        args = ", ".join(_term_text(t) for t in lit.args)
        return f"{'~' if lit.negated else ''}{lit.predicate}({args})"

    return f"{literal(head)} :- {', '.join(literal(lit) for lit in body)}"


def _term_text(term: ast.Term) -> str:
    if isinstance(term, ast.Var):
        return term.name
    if isinstance(term, ast.Wildcard):
        return "_"
    if isinstance(term, ast.StringConst):
        return f'"{term.value}"'
    if isinstance(term, ast.BinOp):
        return f"({_term_text(term.lhs)} {term.op} {_term_text(term.rhs)})"
    if isinstance(term, ast.Neg):
        return f"-{_term_text(term.operand)}"
    return repr(term.value)


def _column(relation: str, index: int, dtype: np.dtype) -> str:
    return f"{relation}[{index}]: {_DTYPE_NAMES[dtype]}"


def _term_dtype(term: ast.Term, var_types: dict[str, np.dtype]) -> np.dtype:
    """The dtype a head term evaluates to: a literal's own, a variable's
    (INT when untyped), and for arithmetic the usual promotion, ``/``
    always FLOAT."""
    if isinstance(term, ast.FloatConst):
        return FLOAT
    if isinstance(term, ast.Var):
        return var_types.get(term.name, INT)
    if isinstance(term, ast.BinOp):
        if term.op == "/":
            return FLOAT
        sides = (_term_dtype(term.lhs, var_types), _term_dtype(term.rhs, var_types))
        return FLOAT if FLOAT in sides else INT
    if isinstance(term, ast.Neg):
        return _term_dtype(term.operand, var_types)
    return INT
