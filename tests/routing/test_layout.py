"""Tests for logical-to-physical layouts."""

import pytest

from repro.routing.layout import Layout


class TestConstruction:
    def test_trivial_layout(self):
        layout = Layout.trivial(3, 5)
        assert layout.as_list() == [0, 1, 2]
        assert layout.logical(3) is None

    def test_too_many_logical_qubits_rejected(self):
        with pytest.raises(ValueError):
            Layout(5, 3)

    def test_explicit_placement(self):
        layout = Layout(2, 4, {0: 3, 1: 1})
        assert layout.physical(0) == 3
        assert layout.logical(1) == 1
        assert layout.logical(0) is None

    def test_placement_from_sequence(self):
        layout = Layout(3, 5, [4, 0, 2])
        assert layout.as_dict() == {0: 4, 1: 0, 2: 2}

    def test_duplicate_physical_rejected(self):
        with pytest.raises(ValueError):
            Layout(2, 4, {0: 1, 1: 1})

    def test_missing_logical_rejected(self):
        with pytest.raises(ValueError):
            Layout(3, 4, {0: 0, 1: 1})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Layout(2, 4, {0: 0, 1: 7})


class TestSwaps:
    def test_swap_two_occupied(self):
        layout = Layout.trivial(2, 3)
        layout.swap_physical(0, 1)
        assert layout.physical(0) == 1 and layout.physical(1) == 0

    def test_swap_with_empty_location(self):
        layout = Layout.trivial(2, 4)
        layout.swap_physical(1, 3)
        assert layout.physical(1) == 3
        assert layout.logical(1) is None

    def test_swap_two_empty_is_noop(self):
        layout = Layout.trivial(1, 4)
        layout.swap_physical(2, 3)
        assert layout.physical(0) == 0

    def test_double_swap_restores(self):
        layout = Layout.trivial(3, 5)
        layout.swap_physical(0, 4)
        layout.swap_physical(0, 4)
        assert layout.as_list() == [0, 1, 2]


class TestAssignAndCopy:
    def test_assign_moves_logical_qubit(self):
        layout = Layout.trivial(2, 4)
        layout.assign(0, 3)
        assert layout.physical(0) == 3
        assert layout.logical(0) is None

    def test_assign_to_occupied_rejected(self):
        layout = Layout.trivial(2, 4)
        with pytest.raises(ValueError):
            layout.assign(0, 1)

    def test_copy_is_independent(self):
        layout = Layout.trivial(2, 4)
        clone = layout.copy()
        clone.swap_physical(0, 1)
        assert layout.physical(0) == 0
        assert clone.physical(0) == 1

    def test_equality(self):
        assert Layout.trivial(2, 4) == Layout(2, 4, {0: 0, 1: 1})
        assert Layout.trivial(2, 4) != Layout(2, 4, {0: 1, 1: 0})
