"""Qlosure: dependence-driven, scalable quantum circuit mapping with affine abstractions.

This package is a from-scratch reproduction of the CGO 2026 paper
"Dependence-Driven, Scalable Quantum Circuit Mapping with Affine
Abstractions".  It contains the Qlosure mapper (the paper's contribution) and
every substrate it depends on: an OpenQASM 2.0 front-end, a circuit IR with
dependence analysis, hardware coupling-graph models, reimplementations of the
four baseline mappers, and the QUEKO / QASMBench-style workload generators
used by the evaluation.  The polyhedral-lite integer set/map library is the
test oracle of the dependence weights and lives under ``tests/polyhedral/``.

Every circuit is routed through :mod:`repro.api`; everything else is imported
from its subpackage (``repro.circuit``, ``repro.hardware``, ...).

Quickstart::

    from repro.api import CompileRequest, compile
    from repro.benchgen.qasmbench import ghz_circuit

    result = compile(CompileRequest(circuit=ghz_circuit(20), backend="sherbrooke",
                                    router="qlosure", validation="full"))
    print(result.swaps_added, result.routed_depth)
"""

from repro import api
from repro.api import (
    BatchResult,
    CompileError,
    CompileRequest,
    CompileResult,
    compile_many,
    register_router,
)

from repro._version import __version__

__all__ = [
    "api",
    "BatchResult",
    "CompileError",
    "CompileRequest",
    "CompileResult",
    "compile_many",
    "register_router",
    "__version__",
]
