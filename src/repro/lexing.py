"""The one scanner, the one token cursor and the one home for literal syntax.

The mediator reads three small languages -- OQL (queries and partial
answers), ODL (schema declarations) and the small SQL dialect the SQL source
speaks -- and writes two of them back.  What differs between them is *data*:
which words are reserved, which operators exist, how a string literal is
delimited and escaped, and whether keywords fold to lower or upper case.  A
:class:`Dialect` states that data once, for the reader (:func:`tokenize`)
and for the writers (``dialect.quote``), so the text the mediator writes is
text the mediator reads.

Adding to a language is one table entry plus the grammar rule that uses it
(docs/ARCHITECTURE.md, "Adding a keyword, an operator or a literal form").

This module depends only on :mod:`repro.errors`, so ``repro.algebra`` and
the SQL source's parser (which reads into the algebra) can use their dialect
without importing ``repro.oql``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TypeVar

from repro.errors import ParseError

_T = TypeVar("_T")


@dataclass(frozen=True)
class Token:
    """One lexical token and the half-open source span it was read from."""

    kind: str  # KEYWORD, IDENT, NUMBER, STRING, OP, EOF
    #: keywords case-folded, strings unquoted, everything else as written.
    text: str
    offset: int
    end: int

    def is_keyword(self, word: str) -> bool:
        """True when this token is the keyword ``word`` (in the dialect's case)."""
        return self.kind == "KEYWORD" and self.text == word

    def is_op(self, text: str) -> bool:
        """True when this token is the operator ``text``."""
        return self.kind == "OP" and self.text == text


#: digits, an optional fraction (``1.`` is 1.0) and an optional exponent --
#: every finite number ``str()``/``repr()`` writes.  ``1.2.3`` is therefore
#: NUMBER ``.`` NUMBER, which no grammar accepts.
_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_SPACE_AND_COMMENTS = r"(?:\s+|//[^\n]*)+"


@dataclass(frozen=True, kw_only=True)
class Dialect:
    """The lexical table of one language: pure data, compiled once.

    ``string`` and ``quote``/``unquote`` state a string literal's syntax in
    both directions: ``string`` matches exactly the texts ``quote`` can
    produce (and every hand-written spelling of them), ``unquote`` is the
    inverse of ``quote``.
    """

    name: str
    keywords: frozenset[str]
    operators: tuple[str, ...]
    #: case folding applied to a word before the keyword lookup.
    fold: Callable[[str], str]
    string: str
    quote: Callable[[str], str]
    unquote: Callable[[str], str]
    number: str = _NUMBER
    skip: str = _SPACE_AND_COMMENTS
    #: optionally, further single characters read as operators, not errors.
    opaque: str | None = None

    @cached_property
    def pattern(self) -> re.Pattern[str]:
        """The single alternation :func:`tokenize` scans with."""
        # Longest operator first, so "<=" is never read as "<" then "=".
        operators = [re.escape(op) for op in sorted(self.operators, key=len, reverse=True)]
        if self.opaque is not None:
            operators.append(self.opaque)
        operator = "|".join(operators)
        return re.compile(
            f"(?P<SKIP>{self.skip})|(?P<STRING>{self.string})|(?P<NUMBER>{self.number})"
            rf"|(?P<WORD>[^\W\d]\w*)|(?P<OP>{operator})|(?P<BAD>.)",
            re.DOTALL,
        )


def tokenize(dialect: Dialect, text: str) -> list[Token]:
    """Scan the whole of ``text``, ending with an EOF token."""
    tokens: list[Token] = []
    for match in dialect.pattern.finditer(text):
        kind, value = match.lastgroup, match.group()
        if kind == "SKIP":
            continue
        if kind == "WORD":
            folded = dialect.fold(value)
            kind, value = ("KEYWORD", folded) if folded in dialect.keywords else ("IDENT", value)
        elif kind == "STRING":
            value = dialect.unquote(value)
        elif kind == "BAD":
            if value == dialect.quote("")[0]:  # a quote that opened no complete string
                problem = f"unterminated {dialect.name} string literal"
            else:
                problem = f"unexpected character {value!r} in {dialect.name}"
            raise parse_error(problem, text, match.start())
        tokens.append(Token(kind, value, match.start(), match.end()))
    tokens.append(Token("EOF", "", len(text), len(text)))
    return tokens


def parse_error(message: str, text: str, offset: int) -> ParseError:
    """A :class:`ParseError` pointing at ``offset`` in ``text``.

    Line and column are worked out here, from the offset, because an error
    message is the only thing that ever reads them.
    """
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, line=text.count("\n", 0, offset) + 1, column=offset - line_start + 1)


def number_value(text: str) -> int | float:
    """The value of a NUMBER token: an int unless it has a fraction or exponent."""
    try:
        return int(text)
    except ValueError:
        return float(text)


class TokenStream:
    """The token cursor every recursive-descent parser here is built on.

    Subclasses set ``dialect`` and add grammar rules; none of them touches
    ``_tokens``/``_index`` directly.
    """

    dialect: Dialect

    def __init__(self, text: str):
        self.text = text
        self._tokens = tokenize(self.dialect, text)
        self._index = 0

    def error(self, message: str, token: Token) -> ParseError:
        """A :class:`ParseError` positioned at ``token``."""
        return parse_error(message, self.text, token.offset)

    def _peek(self, offset: int = 0) -> Token:
        # The EOF token repeats forever, so lookahead never runs off the end.
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._advance()
        if token.kind != kind:
            raise self.error(f"expected {kind}, got {token.text!r}", token)
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if not token.is_keyword(word):
            raise self.error(f"expected {word!r}, got {token.text!r}", token)
        return token

    def _expect_op(self, text: str) -> Token:
        token = self._advance()
        if not token.is_op(text):
            raise self.error(f"expected {text!r}, got {token.text!r}", token)
        return token

    def _match_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _match_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._advance()
            return True
        return False

    def _parenthesized(self, item: Callable[[], _T], allow_empty: bool = True) -> tuple[_T, ...]:
        """``'(' [item (',' item)*] ')'`` -- the list shape all three grammars share."""
        self._expect_op("(")
        items: list[_T] = []
        if not (allow_empty and self._peek().is_op(")")):
            items.append(item())
            while self._match_op(","):
                items.append(item())
        self._expect_op(")")
        return tuple(items)


# -- the three dialects -------------------------------------------------------------
def _quote_backslash(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _unquote_backslash(literal: str) -> str:
    return re.sub(r"\\(.)", r"\1", literal[1:-1], flags=re.DOTALL)


def _quote_doubled(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _unquote_doubled(literal: str) -> str:
    return literal[1:-1].replace("''", "'")


OQL = Dialect(
    name="OQL",
    keywords=frozenset(
        {
            "select",
            "from",
            "in",
            "where",
            "and",
            "or",
            "not",
            "union",
            "flatten",
            # "Bag(...)" (capitalised, as in the paper's answers) folds to the
            # same keyword as "bag(...)".
            "bag",
            "struct",
            "define",
            "as",
            "distinct",
            # NOTE: "limit", "group" and "by" are deliberately NOT reserved --
            # they are *soft* keywords recognized positionally by the parser,
            # so schemas with an attribute or collection called "limit"
            # (x.limit, rate limits, ...) stay queryable.
            "true",
            "false",
            "nil",
        }
    ),
    operators=(
        "<=",
        ">=",
        "!=",
        "<>",
        "=",
        "<",
        ">",
        "+",
        "-",
        "*",
        "/",
        "(",
        ")",
        ",",
        ".",
        ":",
        ";",
    ),
    fold=str.lower,
    # "..." where a backslash makes the next character literal, so \" and
    # \\ are the only escapes a writer needs.
    string=r'"(?:[^"\\]|\\.)*"',
    quote=_quote_backslash,
    unquote=_unquote_backslash,
)

# The body of a define is OQL, so ODL is OQL's literal syntax (strings,
# numbers, comments, case folding) under different words.
ODL = replace(
    OQL,
    name="ODL",
    keywords=frozenset(
        {
            "interface",
            "attribute",
            "extent",
            "of",
            "wrapper",
            "repository",
            "map",
            "define",
            "as",
        }
    ),
    operators=("{", "}", "(", ")", ":", ";", ",", "=", "*"),
    # Characters outside the ODL grammar (".", "+", ">", ...) appear inside
    # `define ... as <OQL>` bodies, which the ODL parser skips over and hands
    # verbatim to the OQL parser.  Tokenise every other printable character
    # as an opaque one-character operator; the declaration grammar rejects
    # them anywhere else.  Control characters stay errors, and so does a
    # quote that opens no complete string.
    opaque=r'[^\x00-\x1f\x7f-\x9f"]',
)

SQL = Dialect(
    name="SQL",
    keywords=frozenset(
        {
            "SELECT",
            "FROM",
            "WHERE",
            "JOIN",
            "ON",
            "LIMIT",
            "GROUP",
            "BY",
            "AND",
            "OR",
            "NOT",
            "AS",
            "IN",
            "TRUE",
            "FALSE",
            "NULL",
        }
    ),
    operators=("<=", ">=", "<>", "!=", "=", "<", ">", "*", ",", ".", "(", ")"),
    fold=str.upper,
    # '' escapes a quote inside a string literal; there is no other escape.
    string=r"'(?:[^']|'')*'",
    quote=_quote_doubled,
    unquote=_unquote_doubled,
    # The dialect has no arithmetic, so a "-" before a digit is a sign.
    number="-?" + _NUMBER,
    skip=r"\s+",  # no comments
)
