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
RELEASE = "src/pickforge/release.py"
VERSIONING = "src/pickforge/versioning.py"
INDEX = "src/pickforge/index.py"
CLI = "src/pickforge/cli.py"

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
        "dev-only-and-no-version-reasons-swapped", SOLVER,
        'return f"only development snapshots support toolchain {req.toolchain}"\n'
        '                return f"no version supports toolchain {req.toolchain}"',
        'return f"no version supports toolchain {req.toolchain}"\n'
        '                return f"only development snapshots support toolchain {req.toolchain}"',
        "an optional with only dev snapshots for the toolchain is said to have no version, "
        "and one with no version is said to have dev snapshots",
    ),
    Mutant(
        "reason-skips-conflicts-declared-by-the-selection", SOLVER,
        "for other, version in selected.items():", "for other, version in ():",
        "an optional that a selected package declares a conflict with gets another reason, "
        "often the generic one",
    ),
    Mutant(
        "dev-only-reason-read-as-no-version", SOLVER,
        "if any(self.fits[table.toolchain_of[c]] for c in table.ids[name]):", "if False:",
        "an optional with only dev snapshots for the toolchain is said to have no version",
    ),
    Mutant(
        "reason-skips-conflicts-declared-by-the-excluded-package", SOLVER,
        "for other, constraint in manifest.conflicts:", "for other, constraint in ():",
        "an optional that declares a conflict with a selected package gets another reason, "
        "often the generic one",
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
        "reference-prunes-on-undecided-dependencies", REFERENCE,
        "if dep < name and (dep not in assignment", "if (dep not in assignment",
        "the reference's walk drops a prefix whose package depends on a name not yet "
        "decided, so it misses every assignment where a name depends on a later one",
    ),
    Mutant(
        "lockfile-keys-unsorted", RELEASE,
        "json.dumps(payload, sort_keys=True, indent=2)",
        "json.dumps(payload, sort_keys=False, indent=2)",
        "a lockfile's keys come in the order the writer builds them, not sorted",
    ),
    Mutant(
        "lockfile-pick-overlap-unchecked", RELEASE,
        "if overlap:", "if False:",
        "a lockfile pick that both selects and excludes a package is read without error",
    ),
    Mutant(
        "release-duplicate-toolchain-accepted", RELEASE,
        "if a == b:", "if False:",
        "a release, and so a lockfile, may hold two picks of one toolchain",
    ),
    Mutant(
        "release-version-may-equal-predecessor", RELEASE,
        "not version > predecessor", "not version >= predecessor",
        "a release, and so a lockfile, may carry its predecessor's version",
    ),
    Mutant(
        "release-picks-unsorted", RELEASE,
        "picks = tuple(sorted(picks, key=lambda pick: pick.toolchain))", "picks = tuple(picks)",
        "a release keeps its picks in the order given, so the same picks in another order "
        "write another lockfile",
    ),
    Mutant(
        "unknown-field-accepted", INDEX,
        "for key in raw:\n            if key not in fields:",
        "for key in ():\n            if key not in fields:",
        "an index.json, manifest, lockfile or lockfile pick with a field its format does not "
        "define is read without error",
    ),
    Mutant(
        "wrong-type-field-accepted", INDEX,
        "for key, expected in fields.items():", "for key, expected in ():",
        "an index.json, manifest, lockfile or lockfile pick with a field of the wrong type is "
        "read on, to fail later in other words or not at all",
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
        "next((v for v in admitted[i] if", "next((v for v in reversed(admitted[i]) if",
        "the oldest bridging version is named instead of the newest",
    ),
    # the solver and the reference share the code below, or neither runs it,
    # so criteria 1 and 2 cannot kill these mutants; only direct tests can
    Mutant(
        "alternatives-read-as-conjunction", VERSIONING,
        "return any(\n        all(_OP_TESTS", "return all(\n        all(_OP_TESTS",
        "a constraint holds only if every '|' alternative holds, as if '|' were ','",
    ),
    Mutant(
        "suffix-sorts-above-release", VERSIONING,
        'self._key = (segments[:end], suffix is None, suffix or "")',
        'self._key = (segments[:end], suffix is not None, suffix or "")',
        "a suffixed version sorts above its release (2.0-rc1 > 2.0)",
    ),
    Mutant(
        "dangling-dependency-accepted", INDEX,
        "if target != name and target not in repo.packages:",
        'if target != name and target not in repo.packages and verb != "depends on":',
        "validation passes a dependency on an absent package",
    ),
    Mutant(
        "missing-listing-scanned", INDEX,
        'raise RepositoryError(f"missing version listing {listing}") from None',
        "data = json.dumps(sorted(os.path.splitext(entry)[0] for entry in os.listdir(pkg_dir) "
        'if entry.endswith(".json") and entry != "versions.json")).encode()',
        "a local load lists a package's versions by scanning its directory when versions.json "
        "is missing, which an HTTP load cannot do",
    ),
    Mutant(
        "override-toolchain-unchecked", SOLVER,
        "if not satisfies(req.toolchain, manifest.toolchain):\n                raise OverrideError(",
        "if False:\n                raise OverrideError(",
        "an override that pins a version outside the request's toolchain is accepted",
    ),
    Mutant(
        "http-404-read-as-unreachable", INDEX,
        'if getattr(exc, "code", None) == 404:', "if False:",
        "a file an HTTP source lacks reads as a source that is down, not as the missing file "
        "a directory load names",
    ),
    Mutant(
        "http-directory-redirect-followed", INDEX,
        'is_directory = response.url == url + "/"', "is_directory = False",
        "an HTTP server's redirect from a file's path to a directory's is followed, so the "
        "directory listing is parsed as the file instead of reading as a missing file",
    ),
    Mutant(
        "http-body-read-whole", INDEX,
        "data = response.read(FETCH_MAX_BYTES + 1)", "data = response.read()",
        "an HTTP body is read to its end before the cap is checked, so a server that never "
        "ends one fills memory",
    ),
    Mutant(
        "lone-culprit-narrated-as-joint", SOLVER,
        "if len(culprits) == 1:\n        narrative = [", "if not culprits:\n        narrative = [",
        "a lone culprit is reported as a jointly unsatisfiable set, installable alone",
    ),
    Mutant(
        "installable-alone-lines-dropped", SOLVER,
        '*(f"{name}: installable alone but incompatible with the other culprits"\n'
        "              for name in culprits),",
        "",
        "a joint core's report no longer says that each culprit is installable alone",
    ),
    Mutant(
        "unsat-and-io-exit-codes-swapped", CLI,
        "EXIT_UNSAT = 2\nEXIT_IO = 3", "EXIT_UNSAT = 3\nEXIT_IO = 2",
        "an unsatisfiable request exits 3 and an I/O or data error exits 2",
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
