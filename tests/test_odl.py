"""Tests for the ODL parser and loader, driven by the paper's declarations."""

import pytest

from repro.core.registry import Registry
from repro.datamodel.repository import Repository
from repro.errors import ParseError, SchemaError
from repro.odl.ast import DefineDecl, ExtentDecl, InterfaceDecl, RepositoryDecl
from repro.odl.loader import OdlLoader
from repro.odl.parser import parse_odl

PAPER_ODL = """
interface Person (extent person) {
    attribute String name;
    attribute Short salary;
}

interface Student : Person { }

interface PersonPrime {
    attribute String n;
    attribute Short s;
}

repository r0 (host="rodin", name="db", address="123.45.6.7");
repository r1 (host="umiacs");

extent person0 of Person wrapper w0 repository r0;
extent person1 of Person wrapper w0 repository r1;
extent personprime0 of PersonPrime wrapper w0 repository r0
    map ((person0=personprime0), (name=n), (salary=s));

define double as
    select struct(name: x.name, salary: x.salary + y.salary)
    from x in person0 and y in person1
    where x.id = y.id;
"""


class TestOdlParser:
    def test_parses_every_declaration_kind(self):
        declarations = parse_odl(PAPER_ODL)
        kinds = [type(d).__name__ for d in declarations]
        assert kinds == [
            "InterfaceDecl",
            "InterfaceDecl",
            "InterfaceDecl",
            "RepositoryDecl",
            "RepositoryDecl",
            "ExtentDecl",
            "ExtentDecl",
            "ExtentDecl",
            "DefineDecl",
        ]

    def test_interface_with_extent_and_attributes(self):
        person = parse_odl(PAPER_ODL)[0]
        assert isinstance(person, InterfaceDecl)
        assert person.name == "Person"
        assert person.extent_name == "person"
        assert [(a.type_name, a.name) for a in person.attributes] == [
            ("String", "name"),
            ("Short", "salary"),
        ]

    def test_interface_with_supertype(self):
        student = parse_odl(PAPER_ODL)[1]
        assert student.supertype == "Person"
        assert student.attributes == ()

    def test_extent_declaration(self):
        extent = parse_odl(PAPER_ODL)[5]
        assert isinstance(extent, ExtentDecl)
        assert (extent.name, extent.interface, extent.wrapper, extent.repository) == (
            "person0",
            "Person",
            "w0",
            "r0",
        )
        assert extent.map_pairs == ()

    def test_extent_with_map(self):
        extent = parse_odl(PAPER_ODL)[7]
        assert extent.map_pairs == (
            ("person0", "personprime0"),
            ("name", "n"),
            ("salary", "s"),
        )

    def test_define_keeps_raw_query_text(self):
        define = parse_odl(PAPER_ODL)[8]
        assert isinstance(define, DefineDecl)
        assert define.name == "double"
        assert define.query_text.startswith("select struct(name: x.name")
        assert define.query_text.endswith("x.id = y.id")

    def test_repository_properties(self):
        repository = parse_odl(PAPER_ODL)[3]
        assert isinstance(repository, RepositoryDecl)
        assert repository.property_dict() == {
            "host": "rodin",
            "name": "db",
            "address": "123.45.6.7",
        }

    def test_comments_are_ignored(self):
        declarations = parse_odl("// a comment\ninterface T { attribute Long x; }")
        assert declarations[0].name == "T"

    def test_unknown_declaration_raises(self):
        with pytest.raises(ParseError):
            parse_odl("table person (name);")

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError, match="unterminated ODL string literal"):
            parse_odl('repository r0 (host="rodin);')

    def test_unterminated_define_raises(self):
        with pytest.raises(ParseError):
            parse_odl("define v as select x from x in person")

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_odl("extent e0 of T wrapper w repository r")


class TestOdlLoader:
    class FakeWrapper:
        def submit_functionality(self):  # pragma: no cover - never called here
            raise NotImplementedError

    def load(self):
        registry = Registry()
        registry.add_wrapper("w0", self.FakeWrapper())
        OdlLoader(registry).load(PAPER_ODL)
        return registry

    def test_interfaces_are_defined(self):
        registry = self.load()
        assert registry.interface("Person").extent_name == "person"
        assert registry.interface("Student").supertype == "Person"

    def test_repositories_are_created(self):
        registry = self.load()
        assert registry.repository("r0").host == "rodin"
        assert registry.repository("r0").address == "123.45.6.7"

    def test_extents_create_metaextent_objects(self):
        registry = self.load()
        assert {meta.name for meta in registry.extents()} == {
            "person0",
            "person1",
            "personprime0",
        }

    def test_map_is_attached_to_extent(self):
        registry = self.load()
        meta = registry.extent("personprime0")
        assert meta.map.attribute_to_source("n") == "name"
        assert meta.source_name() == "person0"

    def test_view_is_registered(self):
        registry = self.load()
        assert "double" in [view.name for view in registry.views()]

    def test_view_body_with_an_escaped_quote_loads_and_answers(self, paper_mediator):
        """The body of a define is OQL, so ODL reads strings the way OQL does:
        ``\\"`` inside a literal does not end it (nor the define)."""
        body = 'select x.name from x in person where x.name != "a\\"b;" and x.salary > 10'
        (define,) = parse_odl(f"define loud as {body};")
        assert define.query_text == body
        paper_mediator.load_odl(f"define loud as {body};")
        inline = paper_mediator.query(body).data
        assert sorted(inline) == ["Mary", "Sam"]
        assert paper_mediator.query("select y from y in loud").data == inline

    def test_repository_property_values_are_unquoted_like_oql_strings(self):
        (repository,) = parse_odl('repository r0 (host="ro\\"din", port=8080);')
        assert repository.property_dict() == {"host": 'ro"din', "port": "8080"}

    def test_unknown_attribute_types_are_accepted_as_any(self):
        registry = Registry()
        OdlLoader(registry).load("interface T { attribute Whatever x; };")
        assert registry.interface("T").has_attribute("x")

    def test_extent_for_unknown_wrapper_fails(self):
        registry = Registry()
        loader = OdlLoader(registry)
        with pytest.raises(SchemaError):
            loader.load(
                "interface T { attribute Long x; } repository r0; "
                "extent t0 of T wrapper missing repository r0;"
            )
