"""Export and reload of experiment records (CSV / JSON).

The benchmark harness keeps its regenerated tables as plain text; downstream
analysis (plotting, statistics across machines, regression tracking) needs
the raw records in a machine-readable form.  This module serialises lists of
:class:`~repro.analysis.experiments.ComparisonRecord` to CSV or JSON and
loads them back, so results from different runs or machines can be compared.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable

from repro.analysis.experiments import ComparisonRecord

#: Column order of the CSV export (ComparisonRecord.as_dict() plus the counters).
CSV_FIELDS = (
    "circuit",
    "backend",
    "mapper",
    "qubits",
    "qops",
    "two_qubit_gates",
    "initial_depth",
    "optimal_depth",
    "swaps",
    "routed_depth",
    "depth_factor",
    "runtime_seconds",
    "cost_evaluations",
)


def _record_row(record: ComparisonRecord) -> dict:
    row = record.as_dict()
    row["two_qubit_gates"] = record.two_qubit_gates
    row["cost_evaluations"] = record.cost_evaluations
    return {field: row.get(field, "") for field in CSV_FIELDS}


def export_records_csv(records: Iterable[ComparisonRecord], path: str | Path) -> Path:
    """Write records to a CSV file and return its path."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(CSV_FIELDS))
        writer.writeheader()
        for record in records:
            writer.writerow(_record_row(record))
    return path


def export_records_json(records: Iterable[ComparisonRecord], path: str | Path) -> Path:
    """Write records to a JSON file (list of flat objects) and return its path."""
    path = Path(path)
    payload = [_record_row(record) for record in records]
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def _coerce(row: dict) -> ComparisonRecord:
    def as_int(value, default=0):
        return int(value) if value not in ("", None) else default

    optimal = row.get("optimal_depth")
    return ComparisonRecord(
        circuit_name=row["circuit"],
        backend_name=row["backend"],
        mapper_name=row["mapper"],
        num_qubits=as_int(row.get("qubits")),
        qops=as_int(row.get("qops")),
        two_qubit_gates=as_int(row.get("two_qubit_gates")),
        initial_depth=as_int(row.get("initial_depth")),
        optimal_depth=as_int(optimal) if optimal not in ("", None) else None,
        swaps=as_int(row.get("swaps")),
        routed_depth=as_int(row.get("routed_depth")),
        runtime_seconds=float(row.get("runtime_seconds") or 0.0),
        cost_evaluations=as_int(row.get("cost_evaluations")),
    )


def load_records_csv(path: str | Path) -> list[ComparisonRecord]:
    """Load records previously written by :func:`export_records_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        return [_coerce(row) for row in csv.DictReader(handle)]


def load_records_json(path: str | Path) -> list[ComparisonRecord]:
    """Load records previously written by :func:`export_records_json`."""
    payload = json.loads(Path(path).read_text())
    return [_coerce(row) for row in payload]
