"""Tests for macro-gates (lifted statements)."""

import pytest

from repro.affine.access import AffineAccess
from repro.affine.program import AffineProgram
from repro.affine.statement import MacroGate
from tests.polyhedral.views import access_maps, iteration_domain, schedule_map


def chain_macro(trip_count: int = 4) -> MacroGate:
    """The macro-gate of a CNOT chain: CX(i, i+1) for i in [0, trip_count)."""
    return MacroGate(
        name="S0",
        gate_name="cx",
        accesses=(AffineAccess(1, 0), AffineAccess(1, 1)),
        trip_count=trip_count,
        start_time=0,
        time_stride=1,
    )


class TestInstances:
    def test_instance_qubits(self):
        macro = chain_macro()
        assert macro.instance_qubits(0) == (0, 1)
        assert macro.instance_qubits(3) == (3, 4)

    def test_instance_out_of_range(self):
        with pytest.raises(IndexError):
            chain_macro().instance_qubits(4)

    def test_instance_time_uses_stride(self):
        macro = MacroGate(
            name="S1",
            gate_name="h",
            accesses=(AffineAccess(1, 0),),
            trip_count=3,
            start_time=5,
            time_stride=2,
        )
        assert [macro.instance_time(i) for i in range(3)] == [5, 7, 9]

    def test_instance_gate_carries_params(self):
        macro = MacroGate(
            name="S2",
            gate_name="rz",
            accesses=(AffineAccess(0, 2),),
            trip_count=2,
            start_time=0,
            time_stride=1,
            params=(0.25,),
        )
        gate = macro.instance_gate(1)
        assert gate.name == "rz" and gate.qubits == (2,) and gate.params == (0.25,)

    def test_gates_and_len(self):
        macro = chain_macro(5)
        assert len(macro) == 5
        assert len(macro.gates()) == 5


class TestPolyhedralViews:
    def test_iteration_domain(self):
        domain = iteration_domain(chain_macro(6))
        assert domain.count() == 6

    def test_access_maps_arity(self):
        maps = access_maps(chain_macro(3))
        assert len(maps) == 2
        assert maps[0].count() == 3

    def test_schedule_is_injective(self):
        schedule = schedule_map(chain_macro(4))
        times = [pair[1] for pair in schedule.pairs()]
        assert len(set(times)) == 4


class TestAffineProgram:
    def test_program_statistics(self):
        program = AffineProgram(5, [chain_macro(4)])
        assert program.num_gate_instances == 4
        assert len(program) == 1
        assert program.compression_ratio() == 4.0

    def test_empty_program_ratio(self):
        assert AffineProgram(2).compression_ratio() == 1.0

    def test_to_circuit_orders_by_time(self):
        early = chain_macro(2)
        late = MacroGate(
            name="S1",
            gate_name="h",
            accesses=(AffineAccess(0, 0),),
            trip_count=1,
            start_time=2,
            time_stride=1,
        )
        program = AffineProgram(3, [late, early])
        circuit = program.to_circuit()
        assert [g.name for g in circuit] == ["cx", "cx", "h"]
