"""Tests for MetaExtent, repositories and the registry's definitions."""

import pytest

from repro.core.registry import Registry, ViewDefinition
from repro.datamodel.extent import MetaExtent
from repro.datamodel.mapping import LocalTransformationMap
from repro.datamodel.repository import Repository
from repro.datamodel.types import AttributeSpec, InterfaceType, PrimitiveType
from repro.errors import RepositoryError, SchemaError, ViewDefinitionError


class FakeWrapper:
    """A stand-in wrapper object; the registry only stores it."""


def base_registry():
    registry = Registry()
    registry.define_interface(
        InterfaceType(
            name="Person",
            attributes=(
                AttributeSpec("name", PrimitiveType.from_name("String")),
                AttributeSpec("salary", PrimitiveType.from_name("Short")),
            ),
        )
    )
    registry.define_interface(InterfaceType(name="Student", supertype="Person"))
    registry.add_repository(Repository(name="r0", host="rodin"))
    registry.add_repository(Repository(name="r1"))
    registry.add_wrapper("w0", FakeWrapper())
    return registry


class TestRepository:
    def test_requires_a_name(self):
        with pytest.raises(RepositoryError):
            Repository(name="")

    def test_describe_includes_properties(self):
        repo = Repository(name="r0", host="rodin", properties={"cost": "low"})
        assert repo.describe()["cost"] == "low"
        assert repo.describe()["host"] == "rodin"

    def test_bind_attaches_a_server(self):
        repo = Repository(name="r0")
        assert not repo.is_bound()
        repo.bind(object())
        assert repo.is_bound()


class TestExtent:
    def test_source_name_defaults_to_extent_name(self):
        meta = MetaExtent("person0", "Person", "w0", Repository(name="r0"))
        assert meta.source_name() == "person0"

    def test_source_name_uses_map(self):
        mapping = LocalTransformationMap.from_pairs([("person0", "personprime0")])
        meta = MetaExtent("personprime0", "PersonPrime", "w0", Repository(name="r0"), map=mapping)
        assert meta.source_name() == "person0"

    def test_metaextent_describes_its_declaration(self):
        meta = MetaExtent("person0", "Person", "w0", Repository(name="r0"))
        assert meta.name == "person0"
        assert meta.interface == "Person"
        assert meta.wrapper == "w0"
        assert meta.describe()["repository"] == "r0"


class TestSchema:
    def test_add_extent_records_metaextent(self):
        registry = base_registry()
        meta = registry.add_extent("person0", "Person", "w0", "r0")
        assert registry.extent("person0") is meta
        assert registry.resolve_collection("person0").extents == (meta,)
        assert [m.name for m in registry.extents()] == ["person0"]

    def test_add_extent_unknown_interface_raises(self):
        registry = base_registry()
        with pytest.raises(SchemaError):
            registry.add_extent("x0", "Nope", "w0", "r0")

    def test_add_extent_unknown_wrapper_raises(self):
        registry = base_registry()
        with pytest.raises(SchemaError):
            registry.add_extent("x0", "Person", "nope", "r0")

    def test_add_extent_unknown_repository_raises(self):
        registry = base_registry()
        with pytest.raises(SchemaError):
            registry.add_extent("x0", "Person", "w0", "nope")

    def test_duplicate_extent_raises(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        with pytest.raises(SchemaError):
            registry.add_extent("person0", "Person", "w0", "r1")

    def test_drop_extent(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        registry.drop_extent("person0")
        assert registry.extents() == []
        with pytest.raises(SchemaError):
            registry.drop_extent("person0")

    def test_extents_of_interface_non_recursive(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        registry.add_extent("student0", "Student", "w0", "r1")
        names = [m.name for m in registry.extents_of_interface("Person")]
        assert names == ["person0"]

    def test_extents_of_interface_recursive_includes_subtypes(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        registry.add_extent("student0", "Student", "w0", "r1")
        names = {m.name for m in registry.extents_of_interface("Person", recursive=True)}
        assert names == {"person0", "student0"}

    def test_views_are_registered_and_unique(self):
        registry = base_registry()
        registry.define_view_text("rich", "select x from x in person")
        assert [view.name for view in registry.views()] == ["rich"]
        with pytest.raises(SchemaError):
            registry.define_view_text("rich", "select 1 from x in person")

    def test_view_name_may_not_collide_with_extent(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        with pytest.raises(SchemaError):
            registry.define_view_text("person0", "select x from x in person")

    def test_empty_view_body_rejected(self):
        with pytest.raises(ViewDefinitionError):
            ViewDefinition(name="v", query_text="   ")

    def test_drop_view(self):
        registry = base_registry()
        registry.define_view_text("rich", "select x from x in person")
        registry.drop_view("rich")
        assert registry.views() == []

    def test_statement_count_tracks_definitions(self):
        registry = base_registry()
        before = registry.statement_count()
        registry.add_extent("person0", "Person", "w0", "r0")
        assert registry.statement_count() == before + 1

    def test_describe_summarises_everything(self):
        registry = base_registry()
        registry.add_extent("person0", "Person", "w0", "r0")
        description = registry.describe()
        assert "Person" in description["interfaces"]
        assert description["extents"][0]["name"] == "person0"
        assert "w0" in description["wrappers"]
