"""Tokenizer for the Datalog surface language."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ParseError

KEYWORDS = {"type", "rel", "query", "and", "or", "not"}

# Multi-character operators first so maximal munch works.
SYMBOLS = [
    ":-",
    "!=",
    "==",
    "<=",
    ">=",
    "(",
    ")",
    "{",
    "}",
    ",",
    ".",
    ":",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "~",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "int", "float", "string", "symbol", "eof"
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind}:{self.value!r}"


def tokenize(source: str) -> list[Token]:
    """Convert source text into a token list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)

    def column() -> int:
        return i - line_start + 1

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == "/" and source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise ParseError("unterminated block comment", line, column())
            line += source.count("\n", i, end)
            i = end + 2
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            col = column()
            while i < n and source[i].isdigit():
                i += 1
            is_float = False
            if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
                is_float = True
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                is_float = True
                i += 1
                if i < n and source[i] in "+-":
                    i += 1
                if i == n or not source[i].isdigit():
                    raise ParseError(
                        f"float literal {source[start:i]!r} has no exponent digits",
                        line,
                        col,
                    )
                while i < n and source[i].isdigit():
                    i += 1
            kind = "float" if is_float else "int"
            tokens.append(Token(kind, source[start:i], line, col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            col = column()
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            continue
        if ch == '"':
            col = column()
            end = source.find('"', i + 1)
            if end == -1:
                raise ParseError("unterminated string literal", line, col)
            tokens.append(Token("string", source[i + 1 : end], line, col))
            i = end + 1
            continue
        matched = False
        for symbol in SYMBOLS:
            if source.startswith(symbol, i):
                # A lone "/" inside "//" comment handling already happened;
                # here "//" is integer division.
                tokens.append(Token("symbol", symbol, line, column()))
                i += len(symbol)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", line, column())

    tokens.append(Token("eof", "", line, column()))
    return tokens
