"""OpenQASM 2.0 front-end: one reader from source text to circuit, and a writer.

The paper's tool-chain consumes circuits in their QASM representation before
lifting them to the affine IR.  :func:`circuit_from_qasm` (and
:func:`load_qasm_file` for files) reads the language subset used by the
QUEKO and QASMBench suites a statement at a time from the source's token
strings, with no token objects and no syntax tree, appending each gate as
it is read: register declarations, standard-library and user-defined
gates (expanded inline, with whole-register broadcast), ``opaque``, ``if``,
barriers, resets and measurements.  Its errors -- :class:`QasmSyntaxError`
and its subclasses :class:`QasmParseError` and :class:`QasmSemanticError`
-- name the source line they are about.  :func:`circuit_to_qasm` writes
circuits back out.
"""

from repro.qasm.loader import (
    QasmParseError,
    QasmSemanticError,
    QasmSyntaxError,
    circuit_from_qasm,
    evaluate_expression,
    load_qasm_file,
)
from repro.qasm.writer import circuit_to_qasm, write_qasm_file

__all__ = [
    "QasmSyntaxError",
    "QasmParseError",
    "QasmSemanticError",
    "circuit_from_qasm",
    "evaluate_expression",
    "load_qasm_file",
    "circuit_to_qasm",
    "write_qasm_file",
]
