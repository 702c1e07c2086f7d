"""Abstract syntax tree for the Datalog surface language.

The surface language follows Scallop's (Fig. 3c): ``type`` declarations,
``rel`` rules with ``:-`` or ``=`` bodies, conjunction via ``,``/``and``,
disjunction via ``or``, comparisons, arithmetic in terms, and stratified
negation via ``not`` (an extension; see docs/architecture.md, "Front end").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Wildcard:
    pass


@dataclass(frozen=True)
class IntConst:
    value: int


@dataclass(frozen=True)
class FloatConst:
    value: float


@dataclass(frozen=True)
class StringConst:
    value: str


@dataclass(frozen=True)
class BinOp:
    """Arithmetic over terms: op in {+, -, *, /, //, %}."""

    op: str
    lhs: "Term"
    rhs: "Term"


@dataclass(frozen=True)
class Neg:
    operand: "Term"


Term = Union[Var, Wildcard, IntConst, FloatConst, StringConst, BinOp, Neg]

# ---------------------------------------------------------------------------
# Literals


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class Comparison:
    """op in {==, !=, <, <=, >, >=}."""

    op: str
    lhs: Term
    rhs: Term


Literal = Union[Atom, Comparison]

# ---------------------------------------------------------------------------
# Body formulas (pre-desugaring)


@dataclass(frozen=True)
class Conj:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class Disj:
    items: tuple["Formula", ...]


Formula = Union[Atom, Comparison, Conj, Disj]

# ---------------------------------------------------------------------------
# Declarations, rules, program


@dataclass(frozen=True)
class TypeAlias:
    """``type Cell = u32``"""

    name: str
    base: str


@dataclass(frozen=True)
class RelationDecl:
    """``type edge(x: Cell, y: Cell)``"""

    name: str
    arg_names: tuple[str, ...]
    arg_types: tuple[str, ...]


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: Formula


@dataclass(frozen=True)
class FactBlock:
    """``rel edge = {(0, 1), (1, 2)}`` — inline ground facts."""

    predicate: str
    facts: tuple[tuple[Term, ...], ...]


@dataclass(frozen=True)
class Query:
    predicate: str


@dataclass
class ProgramAst:
    type_aliases: list[TypeAlias] = field(default_factory=list)
    relation_decls: list[RelationDecl] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    fact_blocks: list[FactBlock] = field(default_factory=list)
    queries: list[Query] = field(default_factory=list)
