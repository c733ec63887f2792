#!/usr/bin/env python3
"""Hand-written mutants of pickforge, and the tests that kill each one.

Run from the repository root:

    python3 scripts/mutants.py

Each mutant replaces one exact text, which occurs once in its file.  The
script copies the repository without ``__pycache__`` into a temporary
directory, as ``scripts/op_ab.py`` copies its trees.  It runs the tests once
on the unmutated copy, then applies each mutant in turn, runs the tests
again and restores the file.  A test kills a mutant when it fails with the
mutant and passed without it; a mutant whose run outlasts ``TIMEOUT_S`` is
killed too.  Each run passes ``--hypothesis-seed=0`` and starts without
hypothesis's example database, so the kill lists are the same from one
run of the script to the next; tier-1 itself keeps drawing random cases.

The tests are the fast part of tier-1: they leave out acceptance criteria 1
and 2, the differential test against the exhaustive reference (about 40 s),
and the benchmark contract, which runs the benchmark harness.  A mutant
marked equivalent changes how the search runs, not what it answers, and
should survive.  The script exits 1 if a mutant that is not equivalent
survives, or if an equivalent one is killed, and 2 if pytest itself fails
(interrupted, an internal or usage error) or the unmutated run times out.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER = "src/pickforge/solver.py"
BUILDRUN = "src/pickforge/buildrun.py"
REFERENCE = "src/pickforge/reference.py"
POLICY = "src/pickforge/policy.py"

Mutant = namedtuple("Mutant", "name path text replacement effect equivalent", defaults=(False,))

MUTANTS = (
    Mutant(
        "equal-count-replaces-incumbent", SOLVER,
        "max_out = len(failure) - 1", "max_out = len(failure)",
        "a later selection with as many optionals replaces the incumbent, so a tie goes to "
        "the worse selection",
    ),
    Mutant(
        "no-stray-check", SOLVER,
        "failure = stray_conflict()", "failure = None",
        "a selection may hold a package that no mandatory package or included optional reaches",
    ),
    Mutant(
        "lost-dev-filter", SOLVER,
        "fits[k] and (req.include_dev or not dev)", "fits[k]",
        "dev snapshots are candidates without --include-dev",
    ),
    Mutant(
        "lone-culprit-never-isolated", SOLVER,
        "if self.solve(frozenset(trial), ()) is None:",
        "if self.solve(frozenset(trial), ()) is None and len(trial) > 1:",
        "the core keeps at least two packages, so a lone culprit is reported with a bystander",
    ),
    Mutant(
        "no-propagation", SOLVER,
        "ids[name] = kept\n                todo.update(table.dependents[name])",
        "ids[name] = kept",
        "pruning a candidate does not revisit the packages that depend on it",
    ),
    Mutant(
        "latest-blocking-level", SOLVER,
        "return {min(levels)}", "return {max(levels)}",
        "a refuted candidate's conflict set names the latest blocking level instead of the "
        "earliest; either level refutes the candidate, so only the search's speed changes",
        True,
    ),
    Mutant(
        "reason-scans-dependencies-in-reverse", SOLVER,
        "for dep, constraint in manifest.depends:",
        "for dep, constraint in reversed(manifest.depends):",
        "of two selected dependencies that are both violated, the reason names the last",
    ),
    Mutant(
        "reason-scans-missing-dependencies-in-reverse", SOLVER,
        "for dep, _ in manifest.depends:", "for dep, _ in reversed(manifest.depends):",
        "of two unselected dependencies that both have no version, the reason names the last",
    ),
    Mutant(
        "core-deletes-in-reverse", SOLVER,
        "for name in sorted(self.req.mandatory):",
        "for name in sorted(self.req.mandatory, reverse=True):",
        "where the mandatory set has several minimal cores, deletion from the last name "
        "finds another one than deletion from the first",
    ),
    Mutant(
        "smoke-failure-dooms-dependents", BUILDRUN,
        "outcomes[dep].status in (BUILD_FAILED, SKIPPED)",
        "outcomes[dep].status in (BUILD_FAILED, SKIPPED, SMOKE_FAILED)",
        "a dependency that built but failed its smoke test skips its dependents",
    ),
    Mutant(
        "skip-does-not-propagate", BUILDRUN,
        "outcomes[dep].status in (BUILD_FAILED, SKIPPED)",
        "outcomes[dep].status in (BUILD_FAILED,)",
        "a step whose dependency was skipped runs anyway",
    ),
    Mutant(
        "waves-unsorted", BUILDRUN,
        "wave = sorted(sorter.get_ready())", "wave = sorter.get_ready()",
        "ready packages enter the plan in the sorter's order, not by name",
    ),
    Mutant(
        "sorter-fed-in-dict-order", BUILDRUN,
        "for name in sorted(edges):", "for name in edges:",
        "the sorter is fed in the plan's dict order, so which of several cycles is named "
        "depends on that order",
    ),
    Mutant(
        "cycle-not-rotated", BUILDRUN,
        "raise CycleError(cycle[pivot:] + cycle[:pivot])", "raise CycleError(cycle)",
        "a cycle is named from where the sorter's walk entered it, not from its smallest name",
    ),
    Mutant(
        "verifier-ignores-conflicts", REFERENCE,
        "if other in pick.selected and satisfies(pick.selected[other], constraint):",
        "if False:",
        "a pick holding two packages that conflict passes the verifier",
    ),
    Mutant(
        "verifier-ignores-missing-dependencies", REFERENCE,
        "if dep not in pick.selected:\n                violations.append(",
        "if dep not in pick.selected:\n                continue\n                violations.append(",
        "a pick that lacks a selected package's dependency passes the verifier",
    ),
    Mutant(
        "removals-ignore-deprecation", POLICY,
        "if manifest is None or not manifest.deprecated:", "if True:",
        "a package dropped after its deprecation is still flagged",
    ),
    Mutant(
        "removals-consult-the-oldest-version", POLICY,
        "if name not in newest or version > newest[name]:",
        "if name not in newest or version < newest[name]:",
        "the deprecation of the oldest version the previous release selected decides a drop",
    ),
    Mutant(
        "removals-read-one-pick", POLICY,
        "kept = {name for pick in candidate.picks for name in pick.selected}",
        "kept = set(candidate.picks[-1].selected)",
        "a package that another pick of the candidate still selects is flagged as dropped",
    ),
    Mutant(
        "coordination-prefers-dev", POLICY,
        "key=lambda v: manifests[v].dev", "key=lambda v: not manifests[v].dev",
        "a dev snapshot is reported where a released version is already compatible",
    ),
    Mutant(
        "succession-keeps-the-oldest-witness", POLICY,
        "witness = version  #", "witness = witness or version  #",
        "the oldest bridging version is named instead of the newest",
    ),
)

SLOW_TESTS = (
    "tests/test_acceptance.py::test_criterion_1_solver_matches_oracle",
    "tests/test_acceptance.py::test_criterion_2_soundness_and_minimal_culprits",
)


# the fast tests take one to two minutes; a mutant that makes the search loop forever stops here
TIMEOUT_S = 600


def failing_tests(tree: Path) -> set[str] | None:
    """The ids of the tests that fail or error in ``tree``, or None if they time out."""
    # tests/test_mutants.py fails under every mutant: it looks for the mutant's text
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
            "--ignore=tests/test_benchmark_contract.py", "--hypothesis-seed=0"]
    argv += [f"--deselect={test}" for test in SLOW_TESTS]
    # a seeded run without the examples earlier runs saved draws the same cases each time
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # a session of its own, so a timeout also stops the CLI processes the tests start
    with subprocess.Popen(argv, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, start_new_session=True) as proc:
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None
    # 0: all passed, 1: some failed; anything else prints no verdict per test
    if proc.returncode not in (0, 1):
        print(f"{output}pytest exited {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return {
        line.split()[1]
        for line in output.splitlines()
        if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    sys.stdout.reconfigure(line_buffering=True)  # each verdict as soon as it is known

    wrong = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            "__pycache__", ".git", ".pytest_cache", ".hypothesis", ".perfbench"))
        baseline = failing_tests(tree)
        if baseline is None:
            print(f"the unmutated tests outlast {TIMEOUT_S} s", file=sys.stderr)
            sys.exit(2)
        print(f"unmutated: {len(baseline)} failing: {', '.join(sorted(baseline)) or '-'}")
        for mutant in MUTANTS:
            path = tree / mutant.path
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.text) != 1:
                print(f"{mutant.name}: its text does not occur exactly once in {mutant.path}")
                wrong += 1
                continue
            path.write_text(original.replace(mutant.text, mutant.replacement), encoding="utf-8")
            try:
                failing = failing_tests(tree)
            finally:
                path.write_text(original, encoding="utf-8")
            if failing is None:
                killed = True
                print(f"{mutant.name}: killed by the {TIMEOUT_S} s timeout")
            elif killers := sorted(failing - baseline):
                killed = True
                print(f"{mutant.name}: killed by {len(killers)}: {', '.join(killers)}")
            else:
                killed = False
                print(f"{mutant.name}: SURVIVED ({mutant.effect})")
            wrong += killed == mutant.equivalent
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
