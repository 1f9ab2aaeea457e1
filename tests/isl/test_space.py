"""Tests for tuple spaces."""

import pytest

from tests.polyhedral.isl.space import Space


class TestSetSpace:
    def test_basic_properties(self):
        space = Space.set_space(("i", "j"), name="S")
        assert space.in_dims == ("i", "j")
        assert space.out_dims == ()
        assert not space.is_map
        assert space.n_in == 2 and space.n_out == 0
        assert space.name == "S"

    def test_duplicate_dims_rejected(self):
        with pytest.raises(ValueError):
            Space.set_space(("i", "i"))

    def test_bind(self):
        space = Space.set_space(("i", "j"))
        assert space.bind((3, 4)) == {"i": 3, "j": 4}

    def test_bind_wrong_arity(self):
        with pytest.raises(ValueError):
            Space.set_space(("i",)).bind((1, 2))

    def test_range_space_requires_map(self):
        with pytest.raises(ValueError):
            Space.set_space(("i",)).range_space()

    def test_reversed_requires_map(self):
        with pytest.raises(ValueError):
            Space.set_space(("i",)).reversed()


class TestMapSpace:
    def test_basic_properties(self):
        space = Space.map_space(("i",), ("j", "k"))
        assert space.is_map
        assert space.all_dims == ("i", "j", "k")
        assert space.n_in == 1 and space.n_out == 2

    def test_domain_and_range_spaces(self):
        space = Space.map_space(("i",), ("j",))
        assert space.domain_space().in_dims == ("i",)
        assert space.range_space().in_dims == ("j",)

    def test_reversed(self):
        space = Space.map_space(("i",), ("j",)).reversed()
        assert space.in_dims == ("j",)
        assert space.out_dims == ("i",)

    def test_split_point(self):
        space = Space.map_space(("i",), ("j", "k"))
        assert space.split_point((1, 2, 3)) == ((1,), (2, 3))

    def test_duplicate_across_tuples_rejected(self):
        with pytest.raises(ValueError):
            Space.map_space(("i",), ("i",))

    def test_compatible_with(self):
        a = Space.map_space(("i",), ("j",))
        b = Space.map_space(("x",), ("y",))
        c = Space.map_space(("x", "y"), ("z",))
        assert a.compatible_with(b)
        assert not a.compatible_with(c)

    def test_with_name(self):
        space = Space.set_space(("i",)).with_name("T")
        assert space.name == "T"

    def test_equality_and_hash(self):
        a = Space.map_space(("i",), ("j",))
        b = Space.map_space(("i",), ("j",))
        assert a == b and hash(a) == hash(b)
        assert a != Space.map_space(("i",), ("k",))
