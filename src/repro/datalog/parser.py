"""Recursive-descent parser for the Datalog surface language.

Grammar (items end with an optional ``.``):

    item      := type_alias | rel_decl | rule | fact_block | query
    type_alias:= "type" IDENT "=" IDENT
    rel_decl  := "type" IDENT "(" [IDENT ":" IDENT ("," ...)*] ")"
    rule      := "rel" atom (":-" | "=") formula
    fact_block:= "rel" IDENT "=" "{" tuple ("," tuple)* "}"
    query     := "query" IDENT
    formula   := conj ("or" conj)*
    conj      := unit (("," | "and") unit)*
    unit      := "(" formula ")" | ("not"|"~") atom | atom | comparison
    atom      := IDENT "(" [term ("," term)*] ")"
    term      := additive with * / % precedence, unary minus, parens
"""

from __future__ import annotations

from . import ast
from .lexer import Token, tokenize
from ..errors import ParseError

_COMPARISON_OPS = {"==", "!=", "<", "<=", ">", ">="}
_INT64_MAX = 2**63 - 1


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind: str, value: str | None = None) -> bool:
        token = self.peek()
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            want = value or kind
            raise ParseError(f"expected {want!r}, got {got.value!r}", got.line, got.column)
        return token

    # -- program ---------------------------------------------------------

    def parse_program(self) -> ast.ProgramAst:
        program = ast.ProgramAst()
        while not self.check("eof"):
            if self.check("keyword", "type"):
                self._parse_type_item(program)
            elif self.check("keyword", "rel"):
                self._parse_rel_item(program)
            elif self.check("keyword", "query"):
                self.advance()
                name = self.expect("ident").value
                program.queries.append(ast.Query(name))
            else:
                got = self.peek()
                raise ParseError(
                    f"expected 'type', 'rel', or 'query', got {got.value!r}",
                    got.line,
                    got.column,
                )
            self.accept("symbol", ".")
        return program

    def _parse_type_item(self, program: ast.ProgramAst) -> None:
        self.expect("keyword", "type")
        name = self.expect("ident").value
        if self.accept("symbol", "="):
            base = self.expect("ident").value
            program.type_aliases.append(ast.TypeAlias(name, base))
            return
        self.expect("symbol", "(")
        arg_names: list[str] = []
        arg_types: list[str] = []
        if not self.check("symbol", ")"):
            while True:
                first = self.expect("ident").value
                if self.accept("symbol", ":"):
                    arg_names.append(first)
                    arg_types.append(self.expect("ident").value)
                else:
                    arg_names.append(f"arg{len(arg_names)}")
                    arg_types.append(first)
                if not self.accept("symbol", ","):
                    break
        self.expect("symbol", ")")
        program.relation_decls.append(
            ast.RelationDecl(name, tuple(arg_names), tuple(arg_types))
        )

    def _parse_rel_item(self, program: ast.ProgramAst) -> None:
        self.expect("keyword", "rel")
        name = self.expect("ident").value
        if self.check("symbol", "=") and self.peek(1).kind == "symbol" and self.peek(1).value == "{":
            self.advance()  # =
            program.fact_blocks.append(self._parse_fact_block(name))
            return
        head = self._parse_atom_with_name(name)
        if self.accept("symbol", ":-") is None:
            self.expect("symbol", "=")
        body = self.parse_formula()
        program.rules.append(ast.Rule(head, body))

    def _parse_fact_block(self, name: str) -> ast.FactBlock:
        self.expect("symbol", "{")
        facts: list[tuple[ast.Term, ...]] = []
        if not self.check("symbol", "}"):
            while True:
                if self.accept("symbol", "("):
                    row: list[ast.Term] = []
                    if not self.check("symbol", ")"):
                        while True:
                            row.append(self.parse_term())
                            if not self.accept("symbol", ","):
                                break
                    self.expect("symbol", ")")
                    facts.append(tuple(row))
                else:
                    facts.append((self.parse_term(),))
                if not self.accept("symbol", ","):
                    break
        self.expect("symbol", "}")
        return ast.FactBlock(name, tuple(facts))

    # -- formulas ----------------------------------------------------------

    def parse_formula(self) -> ast.Formula:
        items = [self.parse_conjunction()]
        while self.accept("keyword", "or"):
            items.append(self.parse_conjunction())
        if len(items) == 1:
            return items[0]
        return ast.Disj(tuple(items))

    def parse_conjunction(self) -> ast.Formula:
        items = [self.parse_unit()]
        while True:
            if self.accept("symbol", ",") or self.accept("keyword", "and"):
                items.append(self.parse_unit())
            else:
                break
        if len(items) == 1:
            return items[0]
        return ast.Conj(tuple(items))

    def parse_unit(self) -> ast.Formula:
        if self.accept("symbol", "("):
            inner = self.parse_formula()
            self.expect("symbol", ")")
            return inner
        if self.accept("keyword", "not") or self.accept("symbol", "~"):
            token = self.peek()
            atom = self.parse_atom()
            if not isinstance(atom, ast.Atom):
                raise ParseError("negation applies to atoms only", token.line, token.column)
            return ast.Atom(atom.predicate, atom.args, negated=True)
        # Atom iff an identifier directly followed by "(".
        if self.check("ident") and self.peek(1).kind == "symbol" and self.peek(1).value == "(":
            return self.parse_atom()
        # Otherwise a comparison between two terms.
        lhs = self.parse_term()
        op_token = self.peek()
        if op_token.kind == "symbol" and op_token.value in _COMPARISON_OPS:
            self.advance()
            rhs = self.parse_term()
            return ast.Comparison(op_token.value, lhs, rhs)
        if op_token.kind == "symbol" and op_token.value == "=":
            self.advance()
            rhs = self.parse_term()
            return ast.Comparison("==", lhs, rhs)
        raise ParseError(
            f"expected comparison operator, got {op_token.value!r}",
            op_token.line,
            op_token.column,
        )

    def parse_atom(self) -> ast.Atom:
        name = self.expect("ident").value
        return self._parse_atom_with_name(name)

    def _parse_atom_with_name(self, name: str) -> ast.Atom:
        self.expect("symbol", "(")
        args: list[ast.Term] = []
        if not self.check("symbol", ")"):
            while True:
                args.append(self.parse_term())
                if not self.accept("symbol", ","):
                    break
        self.expect("symbol", ")")
        return ast.Atom(name, tuple(args))

    # -- terms -------------------------------------------------------------

    def parse_term(self) -> ast.Term:
        return self._parse_additive()

    def _parse_additive(self) -> ast.Term:
        node = self._parse_multiplicative()
        while True:
            if self.accept("symbol", "+"):
                node = ast.BinOp("+", node, self._parse_multiplicative())
            elif self.accept("symbol", "-"):
                node = ast.BinOp("-", node, self._parse_multiplicative())
            else:
                return node

    def _parse_multiplicative(self) -> ast.Term:
        node = self._parse_unary()
        while True:
            if self.accept("symbol", "*"):
                node = ast.BinOp("*", node, self._parse_unary())
            elif self.accept("symbol", "/"):
                node = ast.BinOp("/", node, self._parse_unary())
            elif self.accept("symbol", "%"):
                node = ast.BinOp("%", node, self._parse_unary())
            else:
                return node

    def _parse_unary(self) -> ast.Term:
        if self.accept("symbol", "-"):
            return ast.Neg(self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Term:
        token = self.peek()
        if token.kind == "int":
            self.advance()
            value = int(token.value)
            if value > _INT64_MAX:
                raise ParseError(
                    f"integer literal {token.value} is outside the 64-bit range",
                    token.line,
                    token.column,
                )
            return ast.IntConst(value)
        if token.kind == "float":
            self.advance()
            return ast.FloatConst(float(token.value))
        if token.kind == "string":
            self.advance()
            return ast.StringConst(token.value)
        if token.kind == "ident":
            self.advance()
            if token.value == "_":
                return ast.Wildcard()
            return ast.Var(token.value)
        if self.accept("symbol", "("):
            inner = self.parse_term()
            self.expect("symbol", ")")
            return inner
        raise ParseError(f"expected a term, got {token.value!r}", token.line, token.column)


def parse(source: str) -> ast.ProgramAst:
    """Parse Datalog source text into a :class:`~repro.datalog.ast.ProgramAst`."""
    return Parser(source).parse_program()
