"""Recursive-descent parser for ODL with the DISCO extensions."""

from __future__ import annotations

from repro.lexing import ODL, TokenStream
from repro.odl.ast import (
    AttributeDecl,
    DefineDecl,
    ExtentDecl,
    InterfaceDecl,
    RepositoryDecl,
)


class OdlParser(TokenStream):
    """Parse a sequence of ODL declarations."""

    dialect = ODL

    # -- declarations ------------------------------------------------------------------
    def parse(self) -> list[object]:
        """Parse every declaration in the input."""
        declarations: list[object] = []
        while self._peek().kind != "EOF":
            declarations.append(self._declaration())
        return declarations

    def _declaration(self) -> object:
        token = self._peek()
        if token.is_keyword("interface"):
            return self._interface()
        if token.is_keyword("extent"):
            return self._extent()
        if token.is_keyword("define"):
            return self._define()
        if token.is_keyword("repository"):
            return self._repository()
        raise self.error(f"expected a declaration, got {token.text!r}", token)

    def _interface(self) -> InterfaceDecl:
        self._expect_keyword("interface")
        name = self._expect("IDENT").text
        supertype = None
        extent_name = None
        if self._match_op(":"):
            supertype = self._expect("IDENT").text
        if self._match_op("("):
            self._expect_keyword("extent")
            extent_name = self._expect("IDENT").text
            self._expect_op(")")
        self._expect_op("{")
        attributes: list[AttributeDecl] = []
        while not self._peek().is_op("}"):
            self._expect_keyword("attribute")
            type_name = self._expect("IDENT").text
            attribute_name = self._expect("IDENT").text
            self._expect_op(";")
            attributes.append(AttributeDecl(type_name=type_name, name=attribute_name))
        self._expect_op("}")
        self._match_op(";")
        return InterfaceDecl(
            name=name,
            attributes=tuple(attributes),
            supertype=supertype,
            extent_name=extent_name,
        )

    def _extent(self) -> ExtentDecl:
        self._expect_keyword("extent")
        name = self._expect("IDENT").text
        self._expect_keyword("of")
        interface = self._expect("IDENT").text
        self._expect_keyword("wrapper")
        wrapper = self._expect("IDENT").text
        self._expect_keyword("repository")
        repository = self._expect("IDENT").text
        # ``map ((a=b), (c=d), ...)`` -- the paper's list-of-strings map.
        map_pairs: tuple[tuple[str, str], ...] = ()
        if self._match_keyword("map"):
            map_pairs = self._parenthesized(self._map_pair, allow_empty=False)
        self._expect_op(";")
        return ExtentDecl(
            name=name,
            interface=interface,
            wrapper=wrapper,
            repository=repository,
            map_pairs=map_pairs,
        )

    def _map_pair(self) -> tuple[str, str]:
        self._expect_op("(")
        left = self._expect("IDENT").text
        self._expect_op("=")
        right = self._expect("IDENT").text
        self._expect_op(")")
        return left, right

    def _define(self) -> DefineDecl:
        self._expect_keyword("define")
        name = self._expect("IDENT").text
        as_token = self._expect_keyword("as")
        # The view body is raw OQL: slice the source text from just after
        # "as" to the terminating semicolon at nesting depth zero.
        start = as_token.end
        depth = 0
        while True:
            token = self._peek()
            if token.kind == "EOF":
                raise self.error(f"unterminated define {name!r}", token)
            if token.is_op("("):
                depth += 1
            elif token.is_op(")"):
                depth -= 1
            elif token.is_op(";") and depth == 0:
                end = token.offset
                self._advance()
                return DefineDecl(name=name, query_text=self.text[start:end].strip())
            self._advance()

    def _repository(self) -> RepositoryDecl:
        self._expect_keyword("repository")
        name = self._expect("IDENT").text
        properties: list[tuple[str, str]] = []
        if self._match_op("("):
            while not self._peek().is_op(")"):
                key = self._expect("IDENT").text
                self._expect_op("=")
                token = self._advance()
                if token.kind not in ("STRING", "IDENT", "NUMBER"):
                    raise self.error(
                        f"expected a value for repository property {key!r}, got {token.text!r}",
                        token,
                    )
                properties.append((key, token.text))
                self._match_op(",")
            self._expect_op(")")
        self._expect_op(";")
        return RepositoryDecl(name=name, properties=tuple(properties))


def parse_odl(text: str) -> list[object]:
    """Parse ``text`` as a sequence of ODL declarations."""
    return OdlParser(text).parse()
