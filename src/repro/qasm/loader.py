"""Read OpenQASM 2.0 source into a :class:`~repro.circuit.circuit.QuantumCircuit`.

One reader turns source text into a circuit.  A single regular expression
splits the text into token strings, dropping whitespace and ``//``
comments; the reader then walks those tokens a statement at a time, with
no token objects and no syntax tree:

* First the declarations: the ``OPENQASM`` header, ``include``,
  ``qreg``/``creg``, ``gate … { }``, ``opaque`` and the ``if (…)`` prefix.
  They fill a ``{register: (offset, size)}`` table (quantum registers are
  flattened in declaration order) and a table of user gates.  Every other
  statement is only located, so a register or gate may be used before the
  statement that declares it.
* Then the quantum statements in source order: gate calls, ``barrier``,
  ``measure`` and ``reset``.  Operands resolve through the register table,
  whole-register operands broadcast element-wise, user gates expand inline
  (their parameter expressions are evaluated per call, in the call's
  environment), and each :class:`~repro.circuit.gate.Gate` is appended as
  it is read.

Parameter expressions take numbers, ``pi``, ``+ - * / ^``, parentheses and
the six OpenQASM functions ``sin cos tan exp ln sqrt``.  A register name may
be declared once, by ``qreg`` or by ``creg``.

Every error names the source line of the token it is about; the line is
computed only when raising.  :class:`QasmSyntaxError` is raised for a
character no token starts with, :class:`QasmParseError` for tokens out of
place and :class:`QasmSemanticError` for well-formed statements that make
no sense (unknown or redeclared registers, arity mismatches...).  A program
with several errors reports its first stray character, else its first
malformed statement, else the first error met while building.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path
from typing import Mapping, NoReturn

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate


class QasmSyntaxError(ValueError):
    """Raised when the source text cannot be tokenized or parsed."""


class QasmParseError(QasmSyntaxError):
    """Raised when the tokens do not form a valid program."""


class QasmSemanticError(QasmParseError):
    """Raised for semantically invalid programs (unknown registers, arity mismatch...)."""


#: One token per match, after any whitespace and comments: a symbol, a
#: name, a number, a string, or any other single character (a lexical
#: error, raised where the reader meets it).  Past the last token the group
#: is empty.
_TOKEN = re.compile(
    r"""\s*(?://[^\n]*\s*)*
    ( [()\[\]{},;+*/^]
    | [A-Za-z_][A-Za-z0-9_]*
    | \d+(?:\.\d*)?(?:[eE][+-]?\d+)? | \.\d+(?:[eE][+-]?\d+)?
    | -> | - | ==
    | "[^"]*"
    | . )?""",
    re.VERBOSE,
)

#: Reserved words: never a register, gate or parameter name.
_KEYWORDS = frozenset(
    {"OPENQASM", "include", "qreg", "creg", "gate", "opaque"}
    | {"barrier", "measure", "reset", "if", "pi"}
)
#: The words that start a statement read with the declarations.
_DECLARATIONS = frozenset({"qreg", "creg", "gate", "include", "opaque", "if"})
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SYMBOLS = frozenset({"->", "==", "(", ")", "[", "]", "{", "}", ",", ";", "+", "-", "*", "/", "^"})
_FUNCTIONS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}
#: Three-qubit gates decomposed into one- and two-qubit gates on request.
_DECOMPOSED = frozenset({"ccx", "toffoli", "cswap", "fredkin"})
#: How far past the last token the reader may look: that many end sentinels.
_LOOKAHEAD = 4
#: User-gate expansion deeper than this is taken for recursion.
_MAX_DEPTH = 32


def _is_identifier(token: str) -> bool:
    return token[:1] in _NAME_START and token not in _KEYWORDS


def _is_stray(token: str) -> bool:
    """True for a character that starts no token (a lone ``"`` or ``.`` too)."""
    return (
        len(token) == 1
        and token not in _SYMBOLS
        and token not in _NAME_START
        and not token.isdecimal()
    )


def circuit_from_qasm(
    source: str,
    include_measurements: bool = False,
    decompose_multiqubit: bool = True,
    name: str = "qasm-circuit",
) -> QuantumCircuit:
    """Read QASM source text into a circuit over flattened qubit indices.

    Quantum registers are flattened in declaration order, whole-register gate
    applications are broadcast element-wise, user-defined gates are expanded
    inline, and (optionally) three-qubit standard gates are decomposed into
    one- and two-qubit gates so the result is directly mappable.
    """
    try:
        return _Reader(source).circuit(include_measurements, decompose_multiqubit, name)
    except Exception:
        # Whatever building raised (a QASM error, or a ValueError, TypeError
        # or ArithmeticError from a gate or an expression), an error the text
        # shows comes first (``_Reader.check``); else it is re-raised.
        _Reader(source).check()
        raise


def load_qasm_file(
    path: str | Path,
    include_measurements: bool = False,
    decompose_multiqubit: bool = True,
) -> QuantumCircuit:
    """Load a circuit from an OpenQASM 2.0 file."""
    path = Path(path)
    return circuit_from_qasm(
        path.read_text(),
        include_measurements=include_measurements,
        decompose_multiqubit=decompose_multiqubit,
        name=path.stem,
    )


def evaluate_expression(text: str, env: Mapping[str, float] | None = None) -> float:
    """Evaluate a QASM parameter expression (numbers, pi, + - * / ^, functions, names in env)."""
    reader = _Reader(text)
    try:
        return reader.evaluate(0, reader.end, env or {})
    except Exception:
        reader.check_characters()
        raise


class _Reader:
    """The token strings of one source text and the tables its declarations fill."""

    def __init__(self, source: str):
        tokens = _TOKEN.findall(source)
        while tokens and not tokens[-1]:
            tokens.pop()
        self.source = source
        self.end = len(tokens)
        self.tokens = tokens + [""] * _LOOKAHEAD
        #: Quantum register name -> (offset of its first qubit, size).
        self.registers: dict[str, tuple[int, int]] = {}
        self.classical: set[str] = set()
        self.width = 0
        #: Lower-case gate name -> (parameter names, qubit arguments, body);
        #: a body statement is (name, expression spans, arguments, token index).
        self.gates: dict[str, tuple] = {}
        # Set by circuit(): the circuit built, its append, and what to keep.
        self.target: QuantumCircuit | None = None
        self.append = None
        self.measurements = False
        self.decompose = True

    # -- errors --------------------------------------------------------------

    def line(self, index: int) -> int:
        """The source line of token ``index`` (the last line past the end)."""
        if index < self.end:
            match = next(itertools.islice(_TOKEN.finditer(self.source), index, None))
            return self.source.count("\n", 0, match.start(1)) + 1
        return self.source.count("\n") + 1

    def unexpected(self, index: int, expected: str = "", context: str = "") -> NoReturn:
        token = self.tokens[index]
        where = f"line {self.line(index)}"
        if expected:
            raise QasmParseError(f"expected {expected} on {where}, found {token!r}")
        raise QasmParseError(f"unexpected token {token!r}{context} on {where}")

    def invalid(self, index: int, message: str) -> NoReturn:
        raise QasmSemanticError(f"{message} on line {self.line(index)}")

    def expect(self, index: int, symbol: str) -> int:
        if self.tokens[index] != symbol:
            self.unexpected(index, repr(symbol))
        return index + 1

    def unterminated(self, index: int) -> NoReturn:
        raise QasmParseError(f"unterminated expression at end of input on line {self.line(index)}")

    # -- declarations --------------------------------------------------------

    def declare(self, check: bool = False) -> list[int]:
        """Read every declaration; return the token index of every other statement.

        With ``check``, every other statement is checked where it stands and
        a register declared twice is let pass: what the text shows comes first.
        """
        tokens, end = self.tokens, self.end
        operations: list[int] = []
        i = 0
        if tokens[0] == "OPENQASM":
            i = 1
            if i < end:  # the version: any token
                if _is_stray(tokens[i]):
                    self.unexpected(i)
                i += 1
            i = self.expect(i, ";")
        while i < end:
            word = tokens[i]
            if word not in _DECLARATIONS:
                if word[:1] not in _NAME_START:
                    self.unexpected(i)
                if check:
                    i = self.operation(i, build=False)
                    continue
                operations.append(i)
                try:
                    i = tokens.index(";", i, end) + 1
                except ValueError:
                    i = end
            elif word == "qreg" or word == "creg":
                i = self.register(i, check)
            elif word == "gate":
                i = self.gate(i)
            elif word == "include":
                if tokens[i + 1][:1] != '"' or _is_stray(tokens[i + 1]):
                    self.unexpected(i + 1, "string")
                i = self.expect(i + 2, ";")
            elif word == "opaque":
                i = self.skip(i)
            else:
                i = self.condition(i)
        return operations

    def register(self, i: int, check: bool = False) -> int:
        tokens = self.tokens
        name, size = tokens[i + 1], tokens[i + 3]
        if not _is_identifier(name):
            self.unexpected(i + 1, "identifier")
        self.expect(i + 2, "[")
        if not size.isdecimal():
            self.unexpected(i + 3, "integer")
        self.expect(i + 4, "]")
        self.expect(i + 5, ";")
        if not check and (name in self.registers or name in self.classical):
            raise QasmSemanticError(
                f"register {name!r} is declared twice (again on line {self.line(i + 1)})"
            )
        if tokens[i] == "qreg":
            self.registers[name] = (self.width, int(size))
            self.width += int(size)
        else:
            self.classical.add(name)
        return i + 6

    def gate(self, i: int) -> int:
        tokens = self.tokens
        name = tokens[i + 1]
        if not _is_identifier(name):
            self.unexpected(i + 1, "identifier")
        params: list[str] = []
        i += 2
        if tokens[i] == "(":
            params, i = self.names(i + 1, ")")
            i += 1
        args, i = self.names(i, "{")
        i += 1
        body = []
        while tokens[i] != "}":
            if tokens[i] == "barrier":
                i = self.skip(i)
                continue
            call = tokens[i]
            if i >= self.end or call[:1] == '"' or _is_stray(call):
                self.unexpected(i, "identifier")
            j, spans = i + 1, ()
            if tokens[j] == "(":
                spans, j = self.spans(j)
            call_args, j = self.names(j, ";")
            body.append((call.lower(), spans, call_args, i))
            i = j + 1
        self.gates[name.lower()] = (params, args, body)
        return i + 1

    def names(self, i: int, stop: str) -> tuple[list[str], int]:
        """Identifiers, commas optional, up to the token ``stop`` (its index returned)."""
        tokens = self.tokens
        names = []
        while tokens[i] != stop:
            if not _is_identifier(tokens[i]):
                self.unexpected(i, "identifier")
            names.append(tokens[i])
            i += 1
            if tokens[i] == ",":
                i += 1
        return names, i

    def skip(self, i: int) -> int:
        """Pass over a statement up to and including its ``;`` (or to the end)."""
        try:
            stop = self.tokens.index(";", i, self.end) + 1
        except ValueError:
            stop = self.end
        for k in range(i, stop):
            if _is_stray(self.tokens[k]):
                self.unexpected(k)
        return stop

    def condition(self, i: int) -> int:
        """Pass over an ``if (…)`` prefix; the statement it guards is read as any other."""
        tokens = self.tokens
        i = self.expect(i + 1, "(")
        depth = 0
        while True:
            if i >= self.end:
                self.unterminated(i)
            token = tokens[i]
            if token == ")":
                if not depth:
                    return i + 1
                depth -= 1
            elif token == "(":
                depth += 1
            elif _is_stray(token):
                self.unexpected(i)
            i += 1

    def spans(self, i: int) -> tuple[list[tuple[int, int]], int]:
        """The ``(start, stop)`` token spans of the expressions in the parentheses at ``i``."""
        tokens = self.tokens
        i += 1
        if tokens[i] == ")":
            return [], i + 1
        spans = []
        start = i
        depth = 0
        while True:
            if i >= self.end:
                self.unterminated(i)
            token = tokens[i]
            if token == "(":
                depth += 1
            elif token == ")":
                if not depth:
                    spans.append((start, i))
                    return spans, i + 1
                depth -= 1
            elif token == "," and not depth:
                spans.append((start, i))
                start = i + 1
            elif _is_stray(token):
                self.unexpected(i)
            i += 1

    # -- expressions ---------------------------------------------------------

    def evaluate(self, start: int, stop: int, env: Mapping[str, float]) -> float:
        value, i = self.sum(start, env)
        if i != stop:
            self.unexpected(i, context=" in expression")
        return value

    def sum(self, i: int, env: Mapping[str, float]) -> tuple[float, int]:
        value, i = self.product(i, env)
        while (op := self.tokens[i]) == "+" or op == "-":
            rhs, i = self.product(i + 1, env)
            value = value + rhs if op == "+" else value - rhs
        return value, i

    def product(self, i: int, env: Mapping[str, float]) -> tuple[float, int]:
        value, i = self.power(i, env)
        while (op := self.tokens[i]) == "*" or op == "/":
            rhs, i = self.power(i + 1, env)
            value = value * rhs if op == "*" else value / rhs
        return value, i

    def power(self, i: int, env: Mapping[str, float]) -> tuple[float, int]:
        token = self.tokens[i]
        if token == "-":
            value, i = self.power(i + 1, env)
            return -value, i
        if token == "+":
            return self.power(i + 1, env)
        value, i = self.atom(i, env)
        if self.tokens[i] == "^":
            exponent, i = self.power(i + 1, env)
            value = value**exponent
        return value, i

    def atom(self, i: int, env: Mapping[str, float]) -> tuple[float, int]:
        token = self.tokens[i]
        first = token[:1]
        if first.isdecimal() or first == "." and len(token) > 1:
            return float(token), i + 1
        if token == "pi":
            return math.pi, i + 1
        if token == "(":
            value, i = self.sum(i + 1, env)
            return value, self.expect(i, ")")
        if _is_identifier(token):
            if token in env:
                return float(env[token]), i + 1
            function = _FUNCTIONS.get(token)
            if function is not None and self.tokens[i + 1] == "(":
                value, i = self.sum(i + 2, env)
                i = self.expect(i, ")")
                return function(value), i
            raise QasmParseError(f"unknown name {token!r} in expression on line {self.line(i)}")
        self.unexpected(i, context=" in expression")

    # -- quantum statements --------------------------------------------------

    def circuit(self, include_measurements: bool, decompose: bool, name: str) -> QuantumCircuit:
        operations = self.declare()
        if not self.width:
            raise QasmSemanticError("program declares no quantum registers")
        self.target = QuantumCircuit(self.width, name=name)
        self.append = self.target.append
        self.measurements = include_measurements
        self.decompose = decompose
        for start in operations:
            self.operation(start)
        return self.target

    def check(self) -> None:
        """Raise the first error the text shows before any meaning is given to it.

        That is a stray character, else the first malformed statement (or
        unevaluable gate-call parameter) in source order: an invalid program
        reports the same kind of error whichever of its errors the reader
        met first.
        """
        self.check_characters()
        self.declare(check=True)

    def check_characters(self) -> None:
        """Raise :class:`QasmSyntaxError` for the first character that starts no token."""
        for index in range(self.end):
            if _is_stray(self.tokens[index]):
                raise QasmSyntaxError(
                    f"unexpected character {self.tokens[index]!r} on line {self.line(index)}"
                )

    def operation(self, start: int, build: bool = True) -> int:
        """Read the quantum statement at ``start`` (only check it unless ``build``).

        Returns the index of the token after its ``;``.
        """
        tokens = self.tokens
        word = tokens[start]
        params = ()
        if word == "barrier":
            operands, i = self.operands(start + 1, build, empty=";")
        elif word == "measure":
            build = build and self.measurements
            operands, i = self.operands(start + 1, build, one=True)
            if tokens[i] != "->":
                self.unexpected(i, "'->'")
            _, i = self.operands(i + 1, False, one=True)
        elif word == "reset":
            operands, i = self.operands(start + 1, build, one=True)
        else:
            i = start + 1
            if tokens[i] == "(":
                spans, i = self.spans(i)
                params = tuple([self.evaluate(a, b, {}) for a, b in spans])
            operands, i = self.operands(i, build)
        if tokens[i] != ";":
            self.unexpected(i, "';'")
        if build:
            if word == "barrier" or word == "measure":
                qubits = [
                    qubit for op in operands for qubit in (op if op.__class__ is range else (op,))
                ]
                if word == "barrier":
                    self.target.barrier(*qubits)
                else:
                    for qubit in qubits:
                        self.target.measure(qubit)
            elif range in map(type, operands):
                self.broadcast(word.lower(), params, operands, start)
            else:
                self.call(word.lower(), params, operands, 0, start)
        return i + 1

    def operands(
        self, i: int, resolve: bool, empty: str | None = None, one: bool = False
    ) -> tuple[list, int]:
        """Comma-separated ``name`` or ``name[index]`` operands from token ``i``.

        Just one with ``one``; none at all only where the next token is
        ``empty``.  A resolved operand is its qubit, or the range of a whole
        register's qubits; an unresolved one (``resolve`` false) is ``None``.
        Returns the operands and the index of the token after them.
        """
        tokens, registers = self.tokens, self.registers
        operands: list = []
        if tokens[i] == empty:
            return operands, i
        while True:
            name = tokens[i]
            register = registers.get(name)
            if register is None:
                if not _is_identifier(name):
                    self.unexpected(i, "identifier")
                if resolve:
                    self.invalid(i, f"unknown quantum register {name!r}")
            operand = None
            if tokens[i + 1] != "[":
                if resolve:
                    operand = range(register[0], register[0] + register[1])
                i += 1
            else:
                index = tokens[i + 2]
                if not index.isdecimal():
                    self.unexpected(i + 2, "integer")
                if tokens[i + 3] != "]":
                    self.unexpected(i + 3, "']'")
                if resolve:
                    offset, size = register
                    index = int(index)
                    if index >= size:
                        self.invalid(i + 2, f"index {index} out of range for register {name!r}")
                    operand = offset + index
                i += 4
            operands.append(operand)
            if one or tokens[i] != ",":
                return operands, i
            i += 1

    def broadcast(self, name: str, params: tuple, operands: list, index: int) -> None:
        """Apply a gate call element-wise across its whole-register operands."""
        wide = [op for op in operands if op.__class__ is range]
        widths = {len(op) for op in wide if len(op) > 1}
        if len(widths) > 1:
            self.invalid(index, "mismatched register sizes in broadcast gate application")
        if not all(wide):
            self.invalid(index, f"gate {name!r} is applied to an empty register")
        for k in range(max(widths, default=1)):
            qubits = [
                op if op.__class__ is not range else op[k] if len(op) > 1 else op[0]
                for op in operands
            ]
            self.call(name, params, qubits, 0, index)

    def call(self, name: str, params: tuple, qubits: list, depth: int, index: int) -> None:
        """Emit one gate, expanding a user gate into its body."""
        if depth > _MAX_DEPTH:
            self.invalid(index, f"gate expansion too deep (recursive gate {name!r}?)")
        gate = self.gates.get(name)
        if gate is None:
            if len(qubits) == 3 and self.decompose and name in _DECOMPOSED:
                control, a, b = qubits
                if name == "ccx" or name == "toffoli":
                    gates = _decompose_ccx(control, a, b)
                else:  # a Fredkin gate is a Toffoli between two CNOTs
                    gates = [Gate("cx", (b, a)), *_decompose_ccx(control, a, b)]
                    gates.append(Gate("cx", (b, a)))
                for gate in gates:
                    self.append(gate)
            else:
                self.append(Gate(name, qubits, params))
            return
        param_names, args, body = gate
        if len(args) != len(qubits):
            self.invalid(index, f"gate {name!r} expects {len(args)} qubits, got {len(qubits)}")
        if len(param_names) != len(params):
            self.invalid(
                index, f"gate {name!r} expects {len(param_names)} parameters, got {len(params)}"
            )
        env = dict(zip(param_names, params))
        binding = dict(zip(args, qubits))
        for child, spans, child_args, at in body:
            child_params = tuple([self.evaluate(a, b, env) for a, b in spans])
            try:
                child_qubits = [binding[arg] for arg in child_args]
            except KeyError as exc:
                self.invalid(at, f"gate {name!r} has no qubit argument {exc.args[0]!r}")
            self.call(child, child_params, child_qubits, depth + 1, at)


def _decompose_ccx(control1: int, control2: int, target: int) -> list[Gate]:
    """Standard Toffoli decomposition into H, T, Tdg and six CNOT gates."""
    return [
        Gate("h", (target,)),
        Gate("cx", (control2, target)),
        Gate("tdg", (target,)),
        Gate("cx", (control1, target)),
        Gate("t", (target,)),
        Gate("cx", (control2, target)),
        Gate("tdg", (target,)),
        Gate("cx", (control1, target)),
        Gate("t", (control2,)),
        Gate("t", (target,)),
        Gate("h", (target,)),
        Gate("cx", (control1, control2)),
        Gate("t", (control1,)),
        Gate("tdg", (control2,)),
        Gate("cx", (control1, control2)),
    ]
