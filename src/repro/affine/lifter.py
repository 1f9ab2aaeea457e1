"""Lifting circuits to the affine IR (the QRANE pass of the pipeline).

The lifter scans the gate trace in program order and greedily groups maximal
runs of consecutive gates that share a gate name, parameters and arity and
whose operands follow affine progressions ``a*i + b`` in the run's iteration
variable.  Every gate belongs to exactly one macro-gate (runs of length one
are kept as singleton statements), so the lifted program reconstructs the
original circuit exactly.
"""

from __future__ import annotations

from repro.affine.access import AffineAccess
from repro.affine.program import AffineProgram
from repro.affine.statement import MacroGate
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


def lift_circuit(circuit: QuantumCircuit) -> AffineProgram:
    """Lift a circuit into an :class:`~repro.affine.program.AffineProgram`.

    Barriers end the open run and are dropped from the lifted program; every
    other gate becomes an instance of exactly one macro-gate.
    """
    statements: list[MacroGate] = []
    run_gates: list[tuple[int, Gate]] = []

    def flush() -> None:
        if not run_gates:
            return
        start_index, first = run_gates[0]
        accesses = []
        for operand in range(first.num_qubits):
            values = [gate.qubits[operand] for _, gate in run_gates]
            access = AffineAccess.fit(values)
            if access is None:
                raise AssertionError("run invariants violated: non-affine operand values")
            accesses.append(access)
        statements.append(
            MacroGate(
                name=f"S{len(statements)}",
                gate_name=first.name,
                accesses=tuple(accesses),
                trip_count=len(run_gates),
                start_time=start_index,
                time_stride=1,
                params=first.params,
            )
        )
        run_gates.clear()

    def run_can_extend(gate: Gate) -> bool:
        if not run_gates:
            return True
        _, first = run_gates[0]
        if gate.name != first.name or gate.params != first.params:
            return False
        if gate.num_qubits != first.num_qubits:
            return False
        if len(run_gates) < 2:
            return True
        # Every operand of the run already steps by the difference between its
        # first two gates, so the candidate only has to keep that step from the
        # run's last gate.
        second = run_gates[1][1]
        last = run_gates[-1][1]
        return all(
            candidate - previous == step_to - step_from
            for candidate, previous, step_from, step_to in zip(
                gate.qubits, last.qubits, first.qubits, second.qubits
            )
        )

    position = 0
    for gate in circuit.gates:
        if gate.is_barrier:
            flush()
            continue
        if not run_can_extend(gate):
            flush()
        run_gates.append((position, gate))
        position += 1
    flush()

    program = AffineProgram(circuit.num_qubits, statements, name=f"{circuit.name}-affine")
    return program


def lifting_report(program: AffineProgram) -> dict[str, float | int]:
    """Summary statistics of a lifted program (for logging and tests)."""
    sizes = [s.trip_count for s in program.statements]
    return {
        "num_statements": len(program.statements),
        "num_instances": program.num_gate_instances,
        "compression_ratio": program.compression_ratio(),
        "largest_macro_gate": max(sizes, default=0),
        "singleton_statements": sum(1 for s in sizes if s == 1),
    }
