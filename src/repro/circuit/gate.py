"""Gate model: a single quantum operation on one or more qubits.

:class:`Gate` is a hand-written ``__slots__`` record, not a frozen
dataclass, because gate construction sits on every hot producer of gates: a
cache hit rebuilds every routed gate from its gate table, the route pass
emits one gate per executed gate and SWAP, and full validation recovers the
logical circuit gate by gate.  A frozen dataclass would pay seven
``object.__setattr__`` calls per gate (four in ``__init__``, three in
``__post_init__``); the record normalises with builtins and writes its four
slots directly, at about half the cost.  It keeps the dataclass contract:
value equality and hashing over the four fields,
:class:`dataclasses.FrozenInstanceError` on assignment and deletion, and
pickling (through ``__reduce__``, i.e. through the checked constructor).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Iterable, Sequence

#: Names of standard single-qubit gates recognised by the QASM front-end.
SINGLE_QUBIT_GATES = frozenset(
    {
        "id",
        "x",
        "y",
        "z",
        "h",
        "s",
        "sdg",
        "t",
        "tdg",
        "sx",
        "sxdg",
        "rx",
        "ry",
        "rz",
        "u",
        "u1",
        "u2",
        "u3",
        "p",
        "reset",
        "measure",
    }
)

#: Names of standard two-qubit gates recognised by the QASM front-end.
TWO_QUBIT_GATES = frozenset(
    {
        "cx",
        "cnot",
        "cz",
        "cy",
        "ch",
        "swap",
        "iswap",
        "crx",
        "cry",
        "crz",
        "cp",
        "cu1",
        "cu3",
        "rxx",
        "ryy",
        "rzz",
        "ecr",
    }
)

#: Names of supported three-qubit gates (decomposed before mapping).
THREE_QUBIT_GATES = frozenset({"ccx", "toffoli", "cswap", "fredkin"})


class Gate:
    """A quantum gate applied to an ordered tuple of qubit indices.

    Attributes:
        name: lower-case gate name, e.g. ``"cx"``, ``"h"``, ``"swap"``.
        qubits: ordered qubit indices the gate acts on (logical indices in an
            unmapped circuit, physical indices in a routed circuit).
        params: optional real parameters (rotation angles, ...).
        label: optional user label carried through transformations.

    The constructor normalises its arguments: the name is lower-cased,
    operands go through ``int()`` and parameters through ``float()``, so the
    gate-table decoder hands it unparsed words.  Gates are immutable:
    assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("name", "qubits", "params", "label")

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]
    label: str

    def __init__(
        self,
        name: str,
        qubits: Iterable[int],
        params: Iterable[float] = (),
        label: str = "",
    ):
        name = name.lower()
        qubits = tuple(map(int, qubits))
        # Skip only the already-normal empty tuple; a scalar still raises.
        if params.__class__ is not tuple or params:
            params = tuple(map(float, params))
        # Operands are distinct; only gates wider than two build a set.
        count = len(qubits)
        if count == 2 and qubits[0] == qubits[1] or count > 2 and len(set(qubits)) != count:
            raise ValueError(f"gate {name} has repeated qubit operands {qubits}")
        if not count and name != "barrier":
            raise ValueError(f"gate {name} must act on at least one qubit")
        _set_name(self, name)
        _set_qubits(self, qubits)
        _set_params(self, params)
        _set_label(self, label)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.qubits, self.params, self.label) == (
            other.name,
            other.qubits,
            other.params,
            other.label,
        )

    def __hash__(self) -> int:
        return hash((self.name, self.qubits, self.params, self.label))

    def __reduce__(self):
        return (Gate, (self.name, self.qubits, self.params, self.label))

    # -- classification ----------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubit operands."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for gates acting on exactly two qubits (excluding barriers)."""
        return self.num_qubits == 2 and self.name != "barrier"

    @property
    def is_swap(self) -> bool:
        """True for SWAP gates."""
        return self.name == "swap"

    @property
    def is_barrier(self) -> bool:
        """True for barrier pseudo-gates."""
        return self.name == "barrier"

    @property
    def is_measurement(self) -> bool:
        """True for measurement operations."""
        return self.name == "measure"

    # -- transformations ----------------------------------------------------

    def remap(self, mapping: Sequence[int] | dict[int, int]) -> "Gate":
        """Return a copy of the gate with qubit indices remapped."""
        return Gate(self.name, [mapping[q] for q in self.qubits], self.params, self.label)

    def with_qubits(self, qubits: Sequence[int]) -> "Gate":
        """Return a copy of the gate acting on different qubits."""
        return Gate(self.name, qubits, self.params, self.label)

    def __repr__(self) -> str:
        operands = ", ".join(f"q[{q}]" for q in self.qubits)
        if self.params:
            params = ", ".join(f"{p:g}" for p in self.params)
            return f"{self.name}({params}) {operands}"
        return f"{self.name} {operands}"


# Direct slot writes for ``Gate.__init__``: the slot descriptors' setters,
# which bypass the class's read-only ``__setattr__``.
_set_name = Gate.name.__set__
_set_qubits = Gate.qubits.__set__
_set_params = Gate.params.__set__
_set_label = Gate.label.__set__


def cx(control: int, target: int) -> Gate:
    """Convenience constructor for a CNOT gate."""
    return Gate("cx", (control, target))


def swap(a: int, b: int) -> Gate:
    """Convenience constructor for a SWAP gate."""
    return Gate("swap", (a, b))


def h(qubit: int) -> Gate:
    """Convenience constructor for a Hadamard gate."""
    return Gate("h", (qubit,))
