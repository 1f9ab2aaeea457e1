"""Fast self-test of the benchmark harness (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Runs every workload on tiny sizes (one small circuit each) with tracing off
and on, and fails unless:

* the last line of standard output is the result object, with every metric
  ``BENCHMARK.json`` names for that mode, each with its unit, and nothing
  else; ``correct`` is true and ``attempted`` is at least 1;
* ``repro-map trace summarize`` on the traced run's trace file shows the same
  means as the record for every per-layer metric it prints (see
  ``layers.summary_rows``);
* the per-layer metrics each workload reaches are not 0.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import summary_disagreements  # noqa: E402

#: Per-layer metrics each workload must move even at tiny sizes.  A wrapped
#: call that a later program version bypasses would otherwise read 0.
EXERCISED = {
    "route-256": ("route_ms.sabre", "kernel.cost_evaluations.qlosure", "place_ms", "load_ms",
                  "decode_ms", "lookup_ms.memory"),
    "batch-54": ("route_ms.qmap", "load_ms", "qasm.gates_per_s", "fingerprint_ms",
                 "lookup_ms.disk", "lookup_ms.miss", "store_ms", "encode_ms", "decode_ms",
                 "payload_kib", "disk_bytes"),
    "serve-mix": ("handle_ms", "http_ms", "decode_ms", "encode_ms", "payload_kib", "store_ms",
                  "fingerprint_ms", "lookup_ms.memory", "response_encode_ms", "response_kib",
                  "batch_overhead_ms"),
}


def run(command: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, scratch: Path) -> list[str]:
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        trace_file = scratch / f"{workload}.trace.jsonl"
        record_file = scratch / f"{workload}.{trace}.json"
        done = run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", "1",
                "--seconds", "2",
                "--trace", str(trace),
                "--tiny",
                "--trace-out", str(trace_file),
                "--record", str(record_file),
            ]
        )
        where = f"{workload} --trace {trace}"
        if done.returncode != 0:
            problems.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}{done.stdout[-2000:]}")
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
            problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
        expected = {metric["name"]: metric["unit"] for metric in spec[section]}
        emitted = {name: value.get("unit") for name, value in result["metrics"].items()}
        if emitted != expected:
            missing = sorted(set(expected) - set(emitted))
            extra = sorted(set(emitted) - set(expected))
            wrong = sorted(n for n in set(expected) & set(emitted) if expected[n] != emitted[n])
            problems.append(f"{where}: missing {missing}, extra {extra}, wrong units {wrong}")
        for name, value in result["metrics"].items():
            if not isinstance(value.get("value"), (int, float)):
                problems.append(f"{where}: {name} has no numeric value")
        if trace == 1:
            shown = run([sys.executable, "-m", "repro", "trace", "summarize", str(trace_file)])
            record = json.loads(record_file.read_text())
            metrics = {name: value["value"] for name, value in record["metrics"].items()}
            problems.extend(
                f"{where}: {line}" for line in summary_disagreements(metrics, shown.stdout)
            )
            problems.extend(
                f"{where}: {name} is 0, but this workload reaches that layer"
                for name in EXERCISED[workload]
                if not metrics[name]
            )
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench-work" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        # route-256 is not in BENCHMARK.json (see README.md) but still runs.
        for workload in EXERCISED:
            found = check_workload(spec, workload, scratch)
            print(f"{workload:10s} {'ok' if not found else 'FAILED'}")
            problems.extend(found)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # a benchmark run's directory is still there
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
