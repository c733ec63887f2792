"""The benchmark's own checks pass on this tree: every workload's ops give the
outputs and exit codes it expects, and the resolver agrees with the
exhaustive reference on the oracle's instances.

Each case runs ``perfbench/run.py`` as a user would, for one second per
workload and seed, and reads only its last line of stdout; nothing under
``perfbench/`` is imported or changed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

WORKLOADS = ["platform", "ladder", "cliff", "unsat"]


def run_bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# seed 10 draws a platform resolve request whose reference sub-index leaves
# out a package that a version inside it conflicts with
@pytest.mark.parametrize(
    "workload, seed",
    [(workload, "1") for workload in WORKLOADS] + [("platform", "10")],
    ids=WORKLOADS + ["platform-seed-10"],
)
def test_workload_passes_its_checks(workload, seed):
    result = run_bench("--workload", workload, "--seed", seed, "--seconds", "1")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_oracle_finds_no_mismatch():
    result = run_bench("--oracle", "50", "--seed", "1")
    assert result["instances"] == 50
    assert result["mismatches"] == 0
