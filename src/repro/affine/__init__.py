"""Affine abstraction of quantum circuits (QRANE-style lifting).

The paper lifts QASM circuits into an affine intermediate representation:
gates whose qubit operands follow the same affine access pattern ``a*i + b``
are grouped into *macro-gates* (statements) with an iteration domain,
per-operand accesses and a schedule (QRANE: Gerard, Grosser & Kong,
CC 2022).  ``repro-map info`` reports the lifting:

* :class:`~repro.affine.access.AffineAccess` -- an affine qubit access ``a*i + b``,
* :class:`~repro.affine.statement.MacroGate` -- a lifted statement,
* :class:`~repro.affine.program.AffineProgram` -- the lifted circuit,
* :func:`~repro.affine.lifter.lift_circuit` -- circuit -> affine IR.

The router does not read this IR.  It takes the dependence weight ``omega``
of Eq. 1 from the engine's own DAG (``CircuitDAG.descendant_counts()``);
the polyhedral form of Eq. 1 (use map, ``Rdep``, its closure ``R+``) lives
under ``tests/polyhedral/`` as the oracle those counts are checked against.
"""

from repro.affine.access import AffineAccess
from repro.affine.statement import MacroGate
from repro.affine.program import AffineProgram
from repro.affine.lifter import lift_circuit

__all__ = [
    "AffineAccess",
    "MacroGate",
    "AffineProgram",
    "lift_circuit",
]
