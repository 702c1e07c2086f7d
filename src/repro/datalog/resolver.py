"""Name/type resolution, safety checking, and rule normalization.

Converts a parsed :class:`~repro.datalog.ast.ProgramAst` into a
:class:`ResolvedProgram`:

* relation schemas are computed (declared types resolved through aliases;
  undeclared relations inferred, with float columns propagated to a fixed
  point through rule heads);
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

    _infer_schemas(schemas, rules, facts)

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
    rules: list[ResolvedRule],
    facts: dict[str, list[tuple]],
) -> None:
    """Fill in schemas for undeclared relations; propagate float columns."""

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
        if rows:
            ensure(pred, len(rows[0]))
            if any(isinstance(v, float) for row in rows for v in row):
                schemas[pred] = tuple(
                    FLOAT if any(isinstance(row[j], float) for row in rows) else dt
                    for j, dt in enumerate(schemas[pred])
                )

    # Propagate float-ness through rule heads to a fixed point.
    changed = True
    while changed:
        changed = False
        for rule in rules:
            var_types: dict[str, np.dtype] = {}
            for atom in rule.positives:
                dtypes = schemas[atom.predicate]
                for term, dtype in zip(atom.args, dtypes):
                    if isinstance(term, ast.Var) and dtype == FLOAT:
                        var_types[term.name] = FLOAT
            head_dtypes = list(schemas[rule.head])
            for j, term in enumerate(rule.head_terms):
                if _term_is_float(term, var_types) and head_dtypes[j] != FLOAT:
                    head_dtypes[j] = FLOAT
                    changed = True
            schemas[rule.head] = tuple(head_dtypes)


def _term_is_float(term: ast.Term, var_types: dict[str, np.dtype]) -> bool:
    if isinstance(term, ast.FloatConst):
        return True
    if isinstance(term, ast.Var):
        # ``is`` matters: np.dtype(None) equals float64, so a missing entry
        # must not compare equal to FLOAT.
        return var_types.get(term.name) is FLOAT
    if isinstance(term, ast.BinOp):
        if term.op == "/":
            return True
        return _term_is_float(term.lhs, var_types) or _term_is_float(term.rhs, var_types)
    if isinstance(term, ast.Neg):
        return _term_is_float(term.operand, var_types)
    return False
