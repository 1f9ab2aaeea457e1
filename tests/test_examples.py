"""Smoke tests for ``examples/``: every script runs to completion.

Each offline example runs as its own interpreter, the way a reader runs it;
``serve_client.py`` runs against a loopback compile service.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from serve.test_http_loopback import LoopbackServer
from tests.polyhedral.dependence import dependence_relation, dependence_weights
from tests.polyhedral.isl.closure import transitive_closure

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"
OFFLINE_EXAMPLES = sorted(
    path.name for path in EXAMPLES.glob("*.py") if path.name != "serve_client.py"
)


def run_example(name, *args):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", OFFLINE_EXAMPLES)
def test_offline_example_exits_0(name):
    completed = run_example(name)
    assert completed.returncode == 0, completed.stderr


def test_dependence_tour_prints_the_counts_of_eq_1(paper_example_circuit):
    """The tour reads |Rdep|, |R+| and omega off the DAG; they are the oracle's on Fig. 1."""
    completed = run_example("dependence_analysis_tour.py")
    assert completed.returncode == 0, completed.stderr
    printed = re.findall(r"^ +(\|Rdep\||\|R\+\||omega\(G\d+\)) += (\d+)", completed.stdout, re.M)
    relation = dependence_relation(paper_example_circuit)
    expected = {
        "|Rdep|": relation.count(),
        "|R+|": transitive_closure(relation).count(),
        **{f"omega(G{time})": weight for time, weight in dependence_weights(paper_example_circuit).items()},
    }
    assert {name: int(count) for name, count in printed} == expected


def test_serve_client_against_loopback_server():
    server = LoopbackServer(workers=1, queue_size=8)
    try:
        completed = run_example("serve_client.py", "127.0.0.1", str(server._port))
    finally:
        server.drain_and_join()
    assert completed.returncode == 0, completed.stderr
    assert "cached=True" in completed.stdout
