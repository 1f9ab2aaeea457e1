"""Table IV: average mapping times on the QUEKO 54-qubit dataset.

Paper values (seconds, Xeon E5-2680; LightSABRE is a Rust implementation):

    Mapper     Sherbrooke        Ankaa-3          Sherbrooke-2X
               Med    Large      Med    Large     Med     Large
    SABRE      0.64   1.57       0.66   1.52      0.67    1.77
    QMAP       10.36  23.49      8.45   19.59     11.48   26.10
    Cirq       5.85   13.14      4.56   9.89      6.07    13.48
    Pytket     14.54  32.99      9.49   20.90     15.84   37.95
    Qlosure    6.07   10.13      4.07   6.09      7.36    12.77

The timed span is the route pass of :func:`repro.api.compile`
(``CompileResult.route_seconds``), the same span ``repro-map bench`` records
in ``BENCH_routing.json``; loading, placement, validation and metrics are
outside it.  The records come through the default compile cache, so a cache
hit replays the route time of the run that stored it.

Absolute numbers are not comparable (the original baselines are C++/Rust and
this reproduction is pure Python), but two shape properties carry over:

* Qlosure is faster than the QMAP-style search (the slowest tool); this is
  asserted, and the test prints the ratio of the two summed times.
* Qlosure's medium -> large growth factor stays below the baselines' growth
  (the paper reports 1.5-1.7x for Qlosure vs 2.2-2.6x for the others); this
  is reported, not asserted.  The test prints Qlosure's growth factor.
"""

from __future__ import annotations

from repro.analysis.experiments import mapping_time_table
from repro.analysis.report import render_nested_table

from benchmarks.conftest import print_table
from benchmarks.queko_fixtures import queko_records, split_depth


def _regenerate():
    table = {}
    for backend in ("sherbrooke", "ankaa3"):
        records, depths = queko_records(backend)
        table[backend] = mapping_time_table(records, split_depth=split_depth(depths))
    return table


def test_table4_mapping_time(benchmark):
    table = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    for backend, per_mapper in table.items():
        print_table(
            f"Table IV (reduced scale) - average mapping time (s) on {backend}",
            render_nested_table(per_mapper),
        )
        qlosure = per_mapper["qlosure"]
        qmap = per_mapper.get("qmap")
        if qmap:
            ratio = sum(qlosure.values()) / sum(qmap.values())
            print(f"qlosure / qmap summed mapping time on {backend}: {ratio:.2f}")
            assert sum(qlosure.values()) <= sum(qmap.values()), (
                f"Qlosure should map faster than the QMAP-style search on {backend}"
            )
        if "large" in qlosure and "medium" in qlosure and qlosure["medium"] > 0:
            growth = qlosure["large"] / qlosure["medium"]
            print(f"qlosure medium->large growth on {backend}: {growth:.2f}x")
