"""Tests for affine qubit access relations."""

from repro.affine.access import AffineAccess
from tests.polyhedral.isl.counting import card
from tests.polyhedral.views import access_map


class TestFit:
    def test_single_value(self):
        access = AffineAccess.fit([7])
        assert access == AffineAccess(0, 7)
        assert access.is_constant()

    def test_two_values_define_progression(self):
        assert AffineAccess.fit([3, 5]) == AffineAccess(2, 3)

    def test_uniform_progression(self):
        assert AffineAccess.fit([1, 3, 5, 7]) == AffineAccess(2, 1)

    def test_identity_progression(self):
        assert AffineAccess.fit([0, 1, 2, 3]) == AffineAccess(1, 0)

    def test_non_affine_rejected(self):
        assert AffineAccess.fit([0, 1, 3]) is None

    def test_empty_rejected(self):
        assert AffineAccess.fit([]) is None

    def test_negative_step(self):
        assert AffineAccess.fit([9, 6, 3]) == AffineAccess(-3, 9)


class TestEvaluation:
    def test_qubit_at(self):
        access = AffineAccess(2, 1)
        assert [access.qubit_at(i) for i in range(4)] == [1, 3, 5, 7]

    def test_paper_example_accesses(self):
        """The QRANE example in Sec. III-C: q1 = [i]->[i], q2 = [i]->[2i+1]."""
        first_operands = [0, 1, 2, 3]
        second_operands = [1, 3, 5, 7]
        assert AffineAccess.fit(first_operands) == AffineAccess(1, 0)
        assert AffineAccess.fit(second_operands) == AffineAccess(2, 1)

    def test_to_map_enumerates_accesses(self):
        access = AffineAccess(2, 1)
        relation = access_map(access, trip_count=4)
        assert sorted(relation.pairs()) == [
            ((0,), (1,)), ((1,), (3,)), ((2,), (5,)), ((3,), (7,)),
        ]
        assert card(relation) == 4

    def test_repr(self):
        assert repr(AffineAccess(1, 0)) == "{[i] -> [i]}"
        assert repr(AffineAccess(0, 4)) == "{[i] -> [4]}"
        assert repr(AffineAccess(2, 1)) == "{[i] -> [2i + 1]}"
