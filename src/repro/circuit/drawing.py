"""ASCII circuit drawing.

A small text renderer for circuits, used by the examples and handy when
inspecting routed circuits in a terminal: each qubit is a horizontal wire,
each gate occupies one column (gates on disjoint qubits that could execute in
parallel still get separate columns -- the drawing reflects program order,
not the scheduled depth).
"""

from __future__ import annotations

from repro.circuit.circuit import QuantumCircuit


def _gate_symbols(gate) -> dict[int, str]:
    """Per-qubit cell text for one gate."""
    if gate.is_swap:
        return {gate.qubits[0]: "x", gate.qubits[1]: "x"}
    if gate.name in ("cx", "cnot"):
        return {gate.qubits[0]: "o", gate.qubits[1]: "X"}
    if gate.num_qubits == 2:
        return {gate.qubits[0]: "o", gate.qubits[1]: gate.name[:3].upper()}
    label = gate.name[:3].upper()
    return {qubit: label for qubit in gate.qubits}


def draw_circuit(circuit: QuantumCircuit, max_columns: int = 80) -> str:
    """Render a circuit as ASCII art (one row per qubit, one column per gate).

    Circuits longer than ``max_columns`` gates are truncated with an ellipsis
    marker so the output stays terminal-friendly.
    """
    gates = [g for g in circuit.gates if not g.is_barrier]
    truncated = len(gates) > max_columns
    gates = gates[:max_columns]

    cell_width = 5
    rows: list[list[str]] = [
        [f"q{qubit:<3d}"] for qubit in range(circuit.num_qubits)
    ]
    for gate in gates:
        symbols = _gate_symbols(gate)
        involved = sorted(gate.qubits)
        span = range(involved[0], involved[-1] + 1) if len(involved) > 1 else involved
        for qubit in range(circuit.num_qubits):
            if qubit in symbols:
                cell = f"-{symbols[qubit]:-<{cell_width - 1}}"
            elif len(involved) > 1 and qubit in span:
                cell = "-" * (cell_width // 2) + "|" + "-" * (cell_width - cell_width // 2 - 1)
            else:
                cell = "-" * cell_width
            rows[qubit].append(cell)
    if truncated:
        for row in rows:
            row.append(" ...")
    return "\n".join("".join(row) for row in rows)
