"""Unit and property tests for the OQL value universe (Bag, Struct)."""

import copy
import os
import pickle
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.datamodel.values import Bag, Struct, make_bag, make_struct

#: the nightly CI job raises this tenfold via DISCO_KERNEL_EXAMPLES
EXAMPLES = int(os.environ.get("DISCO_KERNEL_EXAMPLES", "600")) // 6


class TestStruct:
    def test_attribute_and_subscript_access(self):
        s = make_struct(name="Mary", salary=200)
        assert s.name == "Mary"
        assert s["salary"] == 200

    def test_missing_field_raises_attribute_error(self):
        s = make_struct(name="Mary")
        with pytest.raises(AttributeError):
            _ = s.salary

    def test_structs_are_immutable(self):
        s = make_struct(name="Mary")
        with pytest.raises(AttributeError):
            s.name = "Sam"

    def test_repr_is_the_oql_constructor(self):
        assert repr(make_struct(a=1)) == "struct(a: 1)"
        assert repr(Struct({"n": "Mary", "s": None})) == "struct(n: 'Mary', s: None)"

    def test_a_field_named_like_a_dict_method_is_read_by_subscript(self):
        """Attribute access is shadowed by the dict method of the same name."""
        s = Struct({"copy": 1, "items": 2, "name": "Mary"})
        assert s["copy"] == 1 and s["items"] == 2 and s.name == "Mary"
        assert callable(s.copy) and callable(s.items)

    def test_equality_ignores_field_order(self):
        assert Struct({"a": 1, "b": 2}) == Struct({"b": 2, "a": 1})

    def test_equality_with_plain_dict(self):
        assert make_struct(a=1) == {"a": 1}

    def test_project_keeps_only_named_fields(self):
        s = make_struct(name="Mary", salary=200, id=1)
        assert s.project(["name"]) == make_struct(name="Mary")

    def test_renamed_applies_mapping(self):
        s = make_struct(n="Mary", s=50)
        assert s.renamed({"n": "name", "s": "salary"}) == make_struct(name="Mary", salary=50)

    def test_mapping_protocol(self):
        s = make_struct(a=1, b=2)
        assert set(s) == {"a", "b"}
        assert len(s) == 2
        assert dict(s) == {"a": 1, "b": 2}

    def test_hash_equal_structs_collide(self):
        assert hash(make_struct(a=1)) == hash(Struct({"a": 1}))

    def test_fields_returns_copy(self):
        s = make_struct(a=1)
        fields = s.fields()
        fields["a"] = 99
        assert s.a == 1


NAMES = st.sampled_from(["a", "b", "name", "items", "copy", "update", "pop", "get", "keys"]) | st.text(max_size=4)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3).map(Struct),
    max_leaves=6,
)
FIELDS = st.dictionaries(NAMES, VALUES, max_size=6)
#: every public mutator of a dict, as (name, call on a struct)
MUTATORS = [
    ("setitem", lambda s: s.__setitem__("a", 1)),
    ("delitem", lambda s: s.__delitem__(next(iter(s), "a"))),
    ("update", lambda s: s.update({"a": 1})),
    ("update keywords", lambda s: s.update(a=1)),
    ("pop", lambda s: s.pop(next(iter(s), "a"), None)),
    ("popitem", lambda s: s.popitem()),
    ("setdefault", lambda s: s.setdefault("a", 1)),
    ("clear", lambda s: s.clear()),
    ("ior", lambda s: s.__ior__({"a": 1})),
    ("setattr", lambda s: setattr(s, "a", 1)),
    ("delattr", lambda s: delattr(s, "a")),
]


def assert_immutable(s: Struct) -> None:
    before = list(s.items())
    for name, mutate in MUTATORS:
        with pytest.raises((TypeError, AttributeError)):
            mutate(s)
        assert list(s.items()) == before, name


class TestStructProperties:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(FIELDS)
    def test_every_mutator_raises_and_changes_nothing(self, fields):
        s = Struct(fields)
        assert_immutable(s)
        augmented = s
        with pytest.raises(TypeError):
            augmented |= {"a": 1}
        assert augmented is s and dict(s) == fields

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(FIELDS, FIELDS, st.randoms(use_true_random=False))
    def test_equality_and_hash_agree_with_a_plain_dict(self, left, right, rng):
        shuffled = list(left.items())
        rng.shuffle(shuffled)
        reordered = Struct(shuffled)
        assert Struct(left) == left and reordered == left and reordered == Struct(left)
        assert hash(reordered) == hash(Struct(left))
        assert (Struct(left) == Struct(right)) == (left == right)
        assert (Struct(left) == right) == (left == right)
        if left == right:
            assert hash(Struct(left)) == hash(Struct(right))

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(FIELDS)
    def test_pickle_and_copies_give_back_an_immutable_struct(self, fields):
        s = Struct(fields)
        for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
            assert type(back) is Struct and back == s and list(back) == list(s)
            assert_immutable(back)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(FIELDS)
    def test_repr_and_mapping(self, fields):
        s = Struct(fields)
        assert repr(s) == "struct(" + ", ".join(f"{k}: {v!r}" for k, v in fields.items()) + ")"
        assert isinstance(s, Mapping)


class TestBag:
    def test_equality_ignores_order(self):
        assert make_bag(1, 2, 3) == make_bag(3, 1, 2)

    def test_equality_respects_multiplicity(self):
        assert make_bag(1, 1, 2) != make_bag(1, 2, 2)
        assert make_bag(1, 1) != make_bag(1)

    def test_union_adds_multiplicities(self):
        assert make_bag("Mary").union(make_bag("Sam")) == make_bag("Mary", "Sam")
        assert make_bag(1).union(make_bag(1)) == make_bag(1, 1)

    def test_paper_answer_bag(self):
        assert make_bag("Mary", "Sam") == Bag(["Sam", "Mary"])

    def test_flatten_one_level(self):
        nested = Bag([Bag([1, 2]), Bag([3])])
        assert nested.flatten() == make_bag(1, 2, 3)

    def test_flatten_leaves_scalars(self):
        assert make_bag(1, 2).flatten() == make_bag(1, 2)

    def test_map_and_filter(self):
        bag = make_bag(1, 2, 3)
        assert bag.map(lambda x: x * 10) == make_bag(10, 20, 30)
        assert bag.filter(lambda x: x > 1) == make_bag(2, 3)

    def test_distinct(self):
        assert make_bag(1, 1, 2).distinct() == make_bag(1, 2)

    def test_contains_and_len(self):
        bag = make_bag("a", "b")
        assert "a" in bag
        assert len(bag) == 2

    def test_bag_of_unhashable_elements_compares(self):
        left = Bag([{"a": 1}, {"a": 2}])
        right = Bag([{"a": 2}, {"a": 1}])
        assert left == right

    def test_add_and_extend(self):
        bag = Bag()
        bag.add(1)
        bag.extend([2, 3])
        assert bag == make_bag(1, 2, 3)

    def test_sorted_is_deterministic(self):
        assert make_bag(3, 1, 2).sorted(key=lambda x: x) == [1, 2, 3]


class TestBagProperties:
    @given(st.lists(st.integers()), st.lists(st.integers()))
    def test_union_is_commutative(self, left, right):
        assert Bag(left).union(Bag(right)) == Bag(right).union(Bag(left))

    @given(st.lists(st.integers()), st.lists(st.integers()), st.lists(st.integers()))
    def test_union_is_associative(self, a, b, c):
        left = Bag(a).union(Bag(b)).union(Bag(c))
        right = Bag(a).union(Bag(b).union(Bag(c)))
        assert left == right

    @given(st.lists(st.integers()))
    def test_union_with_empty_is_identity(self, items):
        assert Bag(items).union(Bag()) == Bag(items)

    @given(st.lists(st.integers()))
    def test_length_of_union_is_sum(self, items):
        assert len(Bag(items).union(Bag(items))) == 2 * len(items)

    @given(st.lists(st.integers()))
    def test_distinct_is_idempotent(self, items):
        bag = Bag(items)
        assert bag.distinct() == bag.distinct().distinct()

    @given(st.lists(st.integers(min_value=-5, max_value=5)))
    def test_equality_is_permutation_invariant(self, items):
        assert Bag(items) == Bag(list(reversed(items)))
