"""Tests for the gate model."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.circuit.gate import Gate, cx, h, swap


class TestConstruction:
    def test_name_is_lowercased(self):
        assert Gate("CX", (0, 1)).name == "cx"

    def test_qubits_are_ints(self):
        gate = Gate("cx", ("0", "1"))
        assert gate.qubits == (0, 1)

    def test_repeated_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate("cx", (1, 1))
        with pytest.raises(ValueError, match="repeated"):
            Gate("ccx", (0, 1, 0))

    def test_empty_operands_rejected(self):
        with pytest.raises(ValueError):
            Gate("h", ())

    def test_barrier_may_have_no_operands(self):
        assert Gate("barrier", ()).is_barrier

    def test_params_are_floats(self):
        gate = Gate("rz", (0,), (1,))
        assert gate.params == (1.0,)

    def test_params_must_be_iterable(self):
        # A scalar angle is not a parameter list, zero included.
        with pytest.raises(TypeError):
            Gate("rz", [0], 0.0)
        with pytest.raises(TypeError):
            Gate("rz", [0], 0.5)
        with pytest.raises(TypeError):
            Gate("h", [0], None)


class TestClassification:
    def test_two_qubit(self):
        assert cx(0, 1).is_two_qubit
        assert not h(0).is_two_qubit

    def test_swap(self):
        assert swap(0, 1).is_swap
        assert swap(0, 1).is_two_qubit
        assert not cx(0, 1).is_swap

    def test_measurement(self):
        assert Gate("measure", (0,)).is_measurement

    def test_num_qubits(self):
        assert Gate("ccx", (0, 1, 2)).num_qubits == 3


class TestTransformation:
    def test_remap_with_dict(self):
        gate = cx(0, 1).remap({0: 5, 1: 7})
        assert gate.qubits == (5, 7)
        assert gate.name == "cx"

    def test_remap_with_list(self):
        gate = cx(0, 2).remap([10, 11, 12])
        assert gate.qubits == (10, 12)

    def test_remap_keeps_the_parameters(self):
        gate = Gate("rz", (0,), (0.5,)).remap({0: 3})
        assert gate.qubits == (3,)
        assert gate.params == (0.5,)

    def test_gates_are_immutable_and_hashable(self):
        a = cx(0, 1)
        b = cx(0, 1)
        assert a == b
        assert hash(a) == hash(b)
        with pytest.raises(FrozenInstanceError):
            a.name = "cz"
        with pytest.raises(FrozenInstanceError):
            del a.qubits
        assert a.name == "cx" and a.qubits == (0, 1)
        gate = Gate("rz", (3,), (0.5,), label="turn")
        assert pickle.loads(pickle.dumps(gate)) == gate
        assert copy.deepcopy(gate) == gate
        assert a != ("cx", (0, 1), (), "")
        assert ("cx", (0, 1), (), "") != a

    def test_equality_and_hash_cover_all_four_fields(self):
        base = Gate("rz", (0,), (0.5,), "a")
        for other in (
            Gate("rx", (0,), (0.5,), "a"),
            Gate("rz", (1,), (0.5,), "a"),
            Gate("rz", (0,), (0.25,), "a"),
            Gate("rz", (0,), (0.5,), "b"),
        ):
            assert base != other
        assert hash(base) == hash(Gate("RZ", ["0"], [0.5], "a"))

    def test_record_is_slotted_and_not_a_tuple(self):
        gate = cx(0, 1)
        assert not hasattr(gate, "__dict__")
        assert not isinstance(gate, tuple)
        with pytest.raises(TypeError):
            iter(gate)

    def test_repr(self):
        assert repr(cx(0, 1)) == "cx q[0], q[1]"
        assert "rz(0.5)" in repr(Gate("rz", (2,), (0.5,)))
