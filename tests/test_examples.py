"""Smoke tests: every example entry point runs with tiny arguments.

Examples drift silently — they import public APIs no unit test touches
in quite the same way.  Each one is executed as a real subprocess (the
way a user runs it) with arguments chosen to finish in a couple of
seconds; a table-driven parametrisation plus a coverage check keep new
examples from escaping the net.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

#: Tiny-argument invocations, one per example file.
EXAMPLE_ARGS = {
    "batched_ensemble.py": ["--batch", "4", "--m", "16", "--d", "2"],
    "communication_cost_study.py": ["--d", "5", "--m-exp", "12"],
    "convergence_study.py": ["--matrices", "2", "--max-m", "16"],
    "ordering_explorer.py": ["--e", "4", "--d", "3"],
    "pipelined_execution.py": ["--d", "2", "--m", "16"],
    "quickstart.py": ["--m", "16", "--d", "2"],
    "spmd_message_passing.py": ["--d", "2", "--m", "16"],
    "streaming_service.py": ["--count", "6", "--m", "16", "--d", "2",
                             "--max-batch", "3"],
    "svd_low_rank.py": ["--n", "32", "--m", "16", "--rank", "2",
                        "--d", "2"],
    "svd_service.py": ["--count", "6", "--n", "24", "--m", "12",
                       "--d", "2", "--max-batch", "3"],
}


def test_every_example_has_smoke_args():
    """A new example must register tiny arguments here (and a removed
    one must drop them) — this is what makes example drift fail CI."""
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(EXAMPLE_ARGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_ARGS))
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)] + EXAMPLE_ARGS[name],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=str(REPO))
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}")
    assert proc.stdout.strip(), f"{name} printed nothing"
