"""Lexer, parser, resolver, and stratifier tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datalog import ast, compile_source, parse
from repro.datalog.desugar import body_to_dnf
from repro.datalog.lexer import tokenize
from repro.datalog.stratify import stratify
from repro.errors import ParseError, ResolutionError, StratificationError


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("rel path(x, y) :- edge(x, y).")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert tokens[-1].kind == "eof"

    def test_comments_stripped(self):
        tokens = tokenize("// comment\nrel /* block */ foo(x) :- bar(x).")
        values = [t.value for t in tokens if t.kind != "eof"]
        assert "comment" not in values and "block" not in values

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 0.25")
        assert [t.kind for t in tokens[:-1]] == ["int", "float", "float", "float"]
        tokens = tokenize("1e-3 1E3 2.5e+1")
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("float", "1e-3"), ("float", "1E3"), ("float", "2.5e+1"),
        ]

    @pytest.mark.parametrize(
        "source, column",
        [("rel p(4e).", 7), ("rel p(x) :- q(x), x < 1e+.", 23)],
        ids=["bare", "signed"],
    )
    def test_float_without_exponent_digits_is_a_parse_error(self, source, column):
        """It used to lex, then escape the parser's float() as ValueError."""
        from repro import LobsterEngine

        with pytest.raises(ParseError, match="exponent") as raised:
            LobsterEngine(source)
        assert (raised.value.line, raised.value.column) == (1, column)

    def test_string_literal(self):
        tokens = tokenize('rel name = {("alice")}')
        assert any(t.kind == "string" and t.value == "alice" for t in tokens)

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('foo("oops')

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("rel foo(x) :- bar(x) @ baz(x)")

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]


class TestParser:
    def test_disjunction_and_conjunction(self):
        program = parse("rel p(x, y) :- e(x, y) or (p(x, z) and e(z, y)).")
        assert isinstance(program.rules[0].body, ast.Disj)

    def test_both_rule_syntaxes(self):
        a = parse("rel p(x) :- q(x).")
        b = parse("rel p(x) = q(x).")
        assert a.rules[0].head == b.rules[0].head

    def test_fact_block(self):
        program = parse("rel edge = {(0, 1), (1, 2)}")
        assert program.fact_blocks[0].predicate == "edge"
        assert len(program.fact_blocks[0].facts) == 2

    def test_scalar_fact_block(self):
        program = parse("rel flag = {1, 2, 3}")
        assert len(program.fact_blocks[0].facts) == 3

    def test_negation(self):
        program = parse("rel p(x) :- q(x), not r(x).")
        literals = program.rules[0].body.items
        assert any(isinstance(l, ast.Atom) and l.negated for l in literals)

    def test_arithmetic_precedence(self):
        program = parse("rel p(x + y * 2) :- q(x, y).")
        term = program.rules[0].head.args[0]
        assert term.op == "+"
        assert term.rhs.op == "*"

    def test_comparison(self):
        program = parse("rel p(x) :- q(x, y), x != y, x <= 10.")
        comparisons = [
            l for l in program.rules[0].body.items if isinstance(l, ast.Comparison)
        ]
        assert {c.op for c in comparisons} == {"!=", "<="}

    def test_relation_decl(self):
        program = parse("type edge(x: Cell, y: Cell)")
        decl = program.relation_decls[0]
        assert decl.arg_types == ("Cell", "Cell")

    def test_type_alias(self):
        program = parse("type Cell = u32")
        assert program.type_aliases[0].base == "u32"

    def test_query(self):
        program = parse("rel p(x) :- q(x). query p")
        assert program.queries[0].predicate == "p"

    def test_parse_error_has_location(self):
        with pytest.raises(ParseError, match=r"\d+:\d+"):
            parse("rel p(x :- q(x).")

    @pytest.mark.parametrize(
        "rule, column",
        [
            ("rel p(a) = q(a) and a == 99999999999999999999999999", 26),
            ("rel p(a + 9223372036854775808) = q(a)", 11),
        ],
        ids=["filter", "head"],
    )
    def test_integer_literal_outside_int64_is_a_parse_error(self, rule, column):
        """It used to compile and then die in the run (np.full overflow)."""
        from repro import LobsterEngine

        with pytest.raises(ParseError, match="64-bit") as raised:
            LobsterEngine("type q(i64)\n" + rule)
        assert (raised.value.line, raised.value.column) == (2, column)
        parse("rel p(a) = q(a) and a == 9223372036854775807")  # the largest fits

    def test_wildcard(self):
        program = parse("rel p(x) :- q(x, _).")
        atom = program.rules[0].body
        assert isinstance(atom.args[1], ast.Wildcard)


class TestDesugar:
    def test_dnf_distribution(self):
        program = parse("rel p(x) :- a(x), (b(x) or c(x)).")
        dnf = body_to_dnf(program.rules[0].body)
        assert len(dnf) == 2
        assert all(len(conj) == 2 for conj in dnf)

    def test_nested_disjunction(self):
        program = parse("rel p(x) :- (a(x) or b(x)), (c(x) or d(x)).")
        assert len(body_to_dnf(program.rules[0].body)) == 4


class TestResolver:
    def test_schema_inference(self):
        resolved = compile_source("rel p(x / y) :- q(x, y).")
        assert resolved.schemas["p"][0] == np.dtype(np.float64)
        assert resolved.schemas["q"][0] == np.dtype(np.int64)

    def test_string_interning(self):
        resolved = compile_source('rel likes = {("alice", "bob"), ("bob", "alice")}')
        assert len(resolved.symbols) == 2
        rows = resolved.facts["likes"]
        assert rows[0] == (0, 1)

    def test_unsafe_head_rejected(self):
        with pytest.raises(ResolutionError, match="unsafe"):
            compile_source("rel p(x, y) :- q(x).")

    def test_unsafe_negation_rejected(self):
        with pytest.raises(ResolutionError, match="unsafe negation"):
            compile_source("rel p(x) :- q(x), not r(y).")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ResolutionError, match="arity"):
            compile_source("rel p(x) :- q(x, y), q(x).")

    def test_edb_idb_split(self):
        resolved = compile_source("rel p(x) :- q(x). rel r(x) :- p(x).")
        assert resolved.edb_predicates == {"q"}
        assert resolved.idb_predicates == {"p", "r"}

    def test_declared_float_schema(self):
        resolved = compile_source("type v(x: f64)\nrel p(x) :- v(x).")
        assert resolved.schemas["p"][0] == np.dtype(np.float64)

    def test_cyclic_alias_rejected(self):
        with pytest.raises(ResolutionError, match="cyclic"):
            compile_source("type A = B\ntype B = A\n")

    @pytest.mark.parametrize("name", ["banana", "i99", "flaot", "Cel"])
    def test_unknown_type_name_rejected(self, name):
        with pytest.raises(ResolutionError, match=rf"'{name}'.*column 1.*'q'"):
            compile_source(f"type Cell = u32\ntype q(a: Cell, b: {name})\n")

    @pytest.mark.parametrize(
        "name", ["i8", "u16", "i32", "u64", "i128", "usize", "isize", "Cell"]
    )
    def test_integer_widths_and_aliases_resolve_to_int64(self, name):
        resolved = compile_source(f"type Cell = u32\ntype q({name})\n")
        assert resolved.schemas["q"] == (np.dtype(np.int64),)

    @pytest.mark.parametrize(
        "source, signatures",
        [
            (
                "type q(i32)\ntype q(i64, i64)\nrel p(x) :- q(x, y).",
                r"q\(i32\) and q\(i64, i64\)",
            ),
            ("type q(i32)\ntype q(i64)\n", r"q\(i32\) and q\(i64\)"),
        ],
    )
    def test_conflicting_redeclaration_rejected(self, source, signatures):
        with pytest.raises(ResolutionError, match=rf"'q'.*{signatures}"):
            compile_source(source)

    def test_identical_redeclaration_allowed(self):
        resolved = compile_source(
            "type Id = i64\ntype q(i64, f64)\ntype q(Id, f64)\nrel p(x) :- q(x, y)."
        )
        assert resolved.schemas["q"] == (np.dtype(np.int64), np.dtype(np.float64))


class TestStratify:
    def test_linear_dependencies(self):
        strata = stratify(["a", "b"], [("a", "b", False)])
        assert strata == [["a"], ["b"]]

    def test_mutual_recursion_one_stratum(self):
        strata = stratify(["a", "b"], [("a", "b", False), ("b", "a", False)])
        assert strata == [["a", "b"]]

    def test_negation_cycle_rejected(self):
        with pytest.raises(StratificationError):
            stratify(["a", "b"], [("a", "b", True), ("b", "a", False)])

    def test_negation_across_strata_ok(self):
        strata = stratify(["a", "b"], [("a", "b", True)])
        assert strata == [["a"], ["b"]]

    def test_program_stratum_order(self):
        resolved = compile_source(
            """
            rel tc(x, y) :- e(x, y) or (tc(x, z) and e(z, y)).
            rel unreached(x) :- node(x), not tc(0, x).
            """
        )
        assert [s.predicates for s in resolved.strata] == [["tc"], ["unreached"]]
