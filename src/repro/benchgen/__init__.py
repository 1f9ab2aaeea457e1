"""Workload generators for the evaluation (QUEKO and QASMBench-style circuits).

* :mod:`repro.benchgen.queko` -- the QUEKO methodology (Tan & Cong): circuits
  with a *known optimal depth* on a chosen device, used to measure how far a
  mapper's output is from the optimum, plus the paper's custom 81- and
  256-qubit benchmark sets generated on dense 8-neighbour grids.
* :mod:`repro.benchgen.qasmbench` -- generators for the application-circuit
  families the paper evaluates from QASMBench (GHZ, QFT, adder, multiplier,
  QRAM, QuGAN, Ising, BV, cat state, W state, ...), parameterised by qubit
  count so the 20-81 qubit range of the paper's tables can be reproduced.
* :mod:`repro.benchgen.random_circuits` -- random circuit generators used by
  property-based testing.
"""

from repro.benchgen.queko import QuekoCircuit, generate_queko_circuit, queko_dataset
from repro.benchgen.qasmbench import (
    ghz_circuit,
    qft_circuit,
    adder_circuit,
    multiplier_circuit,
    qram_circuit,
    qugan_circuit,
    ising_circuit,
    bv_circuit,
    cat_state_circuit,
    w_state_circuit,
    qaoa_circuit,
    qasmbench_suite,
    qasmbench_circuit,
)
from repro.benchgen.random_circuits import random_circuit, random_two_qubit_circuit

__all__ = [
    "QuekoCircuit",
    "generate_queko_circuit",
    "queko_dataset",
    "ghz_circuit",
    "qft_circuit",
    "adder_circuit",
    "multiplier_circuit",
    "qram_circuit",
    "qugan_circuit",
    "ising_circuit",
    "bv_circuit",
    "cat_state_circuit",
    "w_state_circuit",
    "qaoa_circuit",
    "qasmbench_suite",
    "qasmbench_circuit",
    "random_circuit",
    "random_two_qubit_circuit",
]
