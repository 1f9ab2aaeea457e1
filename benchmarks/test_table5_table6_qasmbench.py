"""Tables V and VI: QASMBench circuits on Sherbrooke (V) and Ankaa-3 (VI).

The paper reports, for 41 QASMBench circuits between 20 and 81 qubits, the
SWAP count and routed depth of every mapper plus an "average improvement" row
(how much lower Qlosure's swaps/depth are relative to each baseline):

    Sherbrooke (Table V):  +7.40% swaps / +3.96% depth vs LightSABRE,
                           +11.89% / +26.40% vs QMAP, +13.31% / +14.16% vs Cirq,
                           +14.28% / +10.25% vs pytket.
    Ankaa-3   (Table VI):  +10.36% / +5.59% vs LightSABRE, +8.37% / +27.95% vs
                           QMAP, +21.20% / +15.46% vs Cirq, +6.73% / +5.96% vs pytket.

At the default reduced scale a smaller circuit set (same families, smaller
qubit counts) is used; the asserted property is that Qlosure's average SWAP
improvement over every baseline is non-negative (within a small tolerance).
Set ``REPRO_BENCH_SCALE>=2`` to run the paper-sized circuits.
"""

from __future__ import annotations

from repro.analysis.config import bench_scale
from repro.analysis.experiments import compare_mappers, qasmbench_table
from repro.analysis.report import format_table
from repro.benchgen.qasmbench import qasmbench_circuit
from repro.hardware.backends import ankaa3, sherbrooke

from benchmarks.conftest import print_table

#: (family, reduced-scale qubits, paper-scale qubits)
CIRCUIT_SET = (
    ("qram", 20, 20),
    ("qugan", 24, 40),
    ("qft", 24, 63),
    ("adder", 28, 64),
    ("multiplier", 20, 45),
    ("qaoa", 24, 36),
)


def _circuits():
    paper_scale = bench_scale().scale >= 2.0
    circuits = []
    for family, reduced, full in CIRCUIT_SET:
        qubits = full if paper_scale else reduced
        circuits.append(qasmbench_circuit(family, qubits))
    return circuits


def _run(backend):
    return compare_mappers(_circuits(), backend)


def _render(table):
    rows = []
    for circuit, per_mapper in sorted(table["rows"].items()):
        for mapper, values in sorted(per_mapper.items()):
            rows.append([circuit, values["qubits"], values["qops"], mapper,
                         values["swaps"], values["depth"]])
    body = format_table(["circuit", "qubits", "qops", "mapper", "swaps", "depth"], rows)
    improvement_rows = [
        [mapper, f"{vals['swaps']:+.2f}%", f"{vals['depth']:+.2f}%"]
        for mapper, vals in sorted(table["improvement"].items())
    ]
    improvements = format_table(
        ["baseline", "swap improvement", "depth improvement"],
        improvement_rows,
        title="Qlosure average improvement",
    )
    return body + "\n\n" + improvements


def _check(table, backend_name):
    for mapper, values in table["improvement"].items():
        assert values["swaps"] >= -5.0, (
            f"Qlosure's average SWAP improvement vs {mapper} on {backend_name} "
            f"should be non-negative (got {values['swaps']:.2f}%)"
        )


def test_table5_qasmbench_sherbrooke(benchmark):
    records = benchmark.pedantic(lambda: _run(sherbrooke()), rounds=1, iterations=1)
    table = qasmbench_table(records)
    print_table("Table V (reduced scale) - QASMBench on Sherbrooke", _render(table))
    _check(table, "sherbrooke")


def test_table6_qasmbench_ankaa(benchmark):
    records = benchmark.pedantic(lambda: _run(ankaa3()), rounds=1, iterations=1)
    table = qasmbench_table(records)
    print_table("Table VI (reduced scale) - QASMBench on Ankaa-3", _render(table))
    _check(table, "ankaa3")
