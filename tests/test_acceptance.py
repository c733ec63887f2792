"""End-to-end acceptance criteria.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion.  The randomized solver corpus is seeded and deterministic.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from conftest import (
    DEV_AT_RC,
    GOLDEN_DIR,
    NONE_AT_RC,
    PLATFORM_FIXTURE,
    RELEASE_UNIVERSE_EXCLUDES,
    REPO_ROOT,
    SMOKE_FIXTURE,
    SUCCESSION_VIOLATORS,
)
from pickforge.buildrun import BUILD_FAILED, PASSED, SKIPPED, install_plan, run_plan
from pickforge.index import load_repository, validate_repository
from pickforge.policy import (
    ALREADY_COMPATIBLE,
    DEV_COMPATIBLE,
    NONE_KNOWN,
    check_succession,
    coordinate,
)
from pickforge.release import (
    assemble_release,
    read_lockfile,
    upgrade_path,
    write_lockfile,
)
from pickforge.solver import (
    Pick,
    SelectionRequest,
    UnsatReport,
    enumerate_best,
    resolve_pick,
    verify_pick,
)
from pickforge.versioning import (
    parse_calendar_version,
    parse_constraint,
    parse_version,
)

from strategies import calendar_versions, constraints, version_texts
from strategies import releases as release_strategy

V = parse_version

CORPUS_SIZE = 1000
CORPUS_SEED = 20220100
SPACE_CAP = 30_000


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({label}): FAIL")
        raise
    print(f"acceptance {number} ({label}): PASS")


# --- randomized solver corpus ---------------------------------------------------

# the seeded generator shared with scripts/solver_bench.py and the benchmark's
# oracle mode; scripts/ is not a package, so it is loaded by path
_spec = importlib.util.spec_from_file_location(
    "solver_bench", REPO_ROOT / "scripts" / "solver_bench.py"
)
solver_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_bench)


@pytest.fixture(scope="module")
def solver_corpus():
    """The corpus with both solver results, plus the wall time spent."""
    rng = random.Random(CORPUS_SEED)
    results = []
    started = time.perf_counter()
    for _ in range(CORPUS_SIZE):
        repo, request = solver_bench.random_instance(rng, SPACE_CAP)
        got = resolve_pick(repo, request)
        want = enumerate_best(repo, request)
        results.append((repo, request, got, want))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_1_solver_matches_oracle(solver_corpus):
    results, elapsed = solver_corpus
    with criterion(1, "solver equals exhaustive reference on random corpus"):
        assert len(results) >= 1000
        mismatches = [
            (repo, request)
            for repo, request, got, want in results
            if got != want
        ]
        assert mismatches == []
        assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    print(f"    {len(results)} instances in {elapsed:.1f}s")


def test_criterion_2_soundness_and_minimal_culprits(solver_corpus):
    results, _ = solver_corpus
    with criterion(2, "picks verify clean; unsat culprit sets are minimal"):
        unsat_seen = 0
        for repo, request, got, _ in results:
            if isinstance(got, Pick):
                assert verify_pick(repo, got) == []
                continue
            unsat_seen += 1
            culprits = set(got.culprits)
            # overrides pin versions globally (even for dependency-pulled
            # packages), so satisfiability re-checks must keep them all
            joint = SelectionRequest(
                toolchain=request.toolchain,
                mandatory=frozenset(culprits),
                optional=frozenset(request.overrides) - culprits,
                overrides=dict(request.overrides),
                include_dev=request.include_dev,
            )
            assert isinstance(enumerate_best(repo, joint), UnsatReport)
            for culprit in sorted(culprits):
                rest = culprits - {culprit}
                sub = SelectionRequest(
                    toolchain=request.toolchain,
                    mandatory=frozenset(rest),
                    optional=frozenset(request.overrides) - rest,
                    overrides=dict(request.overrides),
                    include_dev=request.include_dev,
                )
                assert isinstance(enumerate_best(repo, sub), Pick), (
                    f"culprits {sorted(culprits)} not minimal: "
                    f"removing {culprit} still unsatisfiable"
                )
        assert unsat_seen > 0  # the corpus exercises both outcomes
    print(f"    {unsat_seen} unsatisfiable instances checked for minimality")


# --- fixture-based criteria -----------------------------------------------------


@pytest.fixture(scope="module")
def fixture_release():
    repo = load_repository(PLATFORM_FIXTURE)
    assert validate_repository(repo) == []
    universe = frozenset(set(repo.packages) - RELEASE_UNIVERSE_EXCLUDES)
    started = time.perf_counter()
    picks = []
    for toolchain in repo.toolchains:
        result = resolve_pick(
            repo, SelectionRequest(toolchain=toolchain, optional=universe)
        )
        assert isinstance(result, Pick)
        picks.append(result)
    elapsed = time.perf_counter() - started
    release, warnings = assemble_release(
        parse_calendar_version("2022.01.0"), picks, repo=repo
    )
    return repo, release, warnings, elapsed


def _release_cli_args(output: str) -> list[str]:
    index = json.loads((PLATFORM_FIXTURE / "index.json").read_text())
    universe = sorted(set(index["packages"]) - RELEASE_UNIVERSE_EXCLUDES)
    args = [
        sys.executable, "-m", "pickforge.cli", "release",
        "--index", str(PLATFORM_FIXTURE), "--version", "2022.01.0",
        "--output", output,
    ]
    for name in universe:
        args += ["--optional", name]
    return args


def test_criterion_3_fixture_scale_and_lockfile_determinism(fixture_release, tmp_path):
    repo, release, warnings, elapsed = fixture_release
    with criterion(3, "50-package fixture resolves fast with a reproducible lockfile"):
        assert len(repo.packages) == 50
        assert [str(t) for t in repo.toolchains] == ["8.12", "8.13", "8.14", "8.15"]
        assert len(release.picks) == 4
        assert all(len(pick.selected) <= 50 for pick in release.picks)
        assert elapsed < 5.0, f"resolution took {elapsed:.2f}s"
        assert str(release.version) == "2022.01.0"
        # byte-identical lockfiles from two fresh processes
        lockfiles = []
        for name in ("a.lock.json", "b.lock.json"):
            path = tmp_path / name
            proc = subprocess.run(
                _release_cli_args(str(path)), capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            lockfiles.append(path.read_bytes())
        assert lockfiles[0] == lockfiles[1]
        assert lockfiles[0] == write_lockfile(release)
        assert read_lockfile(lockfiles[0]) == release
    print(f"    4 picks in {elapsed:.2f}s, lockfile {len(lockfiles[0])} bytes")


def test_criterion_4_upgrade_path_is_monotone(fixture_release):
    _, release, _, _ = fixture_release
    with criterion(4, "upgrade path 8.13 to 8.15 has two monotone steps"):
        report = upgrade_path(release, V("8.13"), V("8.15"))
        assert len(report.steps) == 2
        hops = [(str(s.from_toolchain), str(s.to_toolchain)) for s in report.steps]
        assert hops == [("8.13", "8.14"), ("8.14", "8.15")]
        for step in report.steps:
            assert step.diff.removed == set()
        assert report.monotone
        sizes = [len(pick.selected) for pick in release.picks]
        for step, (before, after) in zip(report.steps, zip(sizes[1:], sizes[2:])):
            assert after >= before
    sizes = [len(pick.selected) for pick in release.picks]
    print(f"    pick sizes across toolchains: {sizes}")


def test_criterion_5_succession_flags_only_planted_violators(fixture_release):
    repo, _, _, _ = fixture_release
    with criterion(5, "succession check flags exactly the planted violators"):
        flagged = {
            name
            for name in sorted(repo.packages)
            if not check_succession(repo, name).compliant
        }
        assert flagged == SUCCESSION_VIOLATORS
    print(f"    violators: {sorted(flagged)}")


def test_criterion_6_coordination_statuses_and_markdown(fixture_release):
    repo, _, _, _ = fixture_release
    with criterion(6, "coordination classifies planted packages; markdown reproducible"):
        reference = resolve_pick(
            repo,
            SelectionRequest(toolchain=V("8.14"), optional=frozenset(repo.packages)),
        )
        assert isinstance(reference, Pick)
        assert sorted(reference.selected) == sorted(repo.packages)
        report = coordinate(repo, V("8.15"), reference)
        statuses = {entry.package: entry.status for entry in report.entries}
        assert {n for n, s in statuses.items() if s == DEV_COMPATIBLE} == set(DEV_AT_RC)
        assert {n for n, s in statuses.items() if s == NONE_KNOWN} == NONE_AT_RC
        assert {n for n, s in statuses.items() if s == ALREADY_COMPATIBLE} == (
            set(repo.packages) - set(DEV_AT_RC) - NONE_AT_RC
        )
        for entry in report.entries:
            if entry.status == DEV_COMPATIBLE:
                assert entry.source_ref == DEV_AT_RC[entry.package]
        rendered = report.to_markdown()
        golden = (GOLDEN_DIR / "coordination-8.15.md").read_text()
        assert rendered == golden
        assert coordinate(repo, V("8.15"), reference).to_markdown() == rendered
    print(f"    entries: {len(report.entries)} across 3 statuses")


def test_criterion_7_smoke_kit(tmp_path):
    with criterion(7, "smoke kit isolates the planted build failure"):
        started = time.perf_counter()
        repo = load_repository(SMOKE_FIXTURE)
        pick = Pick(
            toolchain=repo.toolchains[0],
            selected={name: max(vs) for name, vs in repo.packages.items()},
        )
        plan = install_plan(repo, pick)
        reports = [
            run_plan(plan, tmp_path / f"box-{jobs}", max_parallel=jobs)
            for jobs in (1, 4)
        ]
        elapsed = time.perf_counter() - started
        for report in reports:
            statuses = {r.name: r.status for r in report.results}
            assert [s for s in statuses.values() if s == BUILD_FAILED] == [BUILD_FAILED]
            assert statuses["brokenbuild"] == BUILD_FAILED
            # exactly the transitive dependents of the failed build are skipped
            assert {n for n, s in statuses.items() if s == SKIPPED} == {
                "cargohold",
                "derrick",
            }
            assert {n for n, s in statuses.items() if s == PASSED} == {
                "anchor",
                "earthworks",
                "gantry",
            }
            assert not report.passed
        assert [(r.name, r.status) for r in reports[0].results] == [
            (r.name, r.status) for r in reports[1].results
        ]
        assert elapsed < 10.0, f"smoke runs took {elapsed:.2f}s"
    print(f"    two runs (jobs=1, jobs=4) in {elapsed:.2f}s")


# --- round-trip and determinism suite -------------------------------------------


def _run_property(label: str, prop) -> None:
    with criterion(8, label):
        prop()


def test_criterion_8a_version_round_trip():
    @settings(max_examples=500, deadline=None)
    @given(version_texts())
    def prop(text):
        assert str(parse_version(text)) == text

    _run_property("version parse/render round-trip, 500 cases", prop)


def test_criterion_8b_constraint_round_trip():
    @settings(max_examples=500, deadline=None)
    @given(constraints)
    def prop(constraint):
        assert parse_constraint(str(constraint)) == constraint
        assert str(parse_constraint(str(constraint))) == str(constraint)

    _run_property("constraint parse/render round-trip, 500 cases", prop)


def test_criterion_8c_calendar_round_trip():
    @settings(max_examples=500, deadline=None)
    @given(calendar_versions)
    def prop(calendar):
        assert parse_calendar_version(str(calendar)) == calendar
        assert str(parse_calendar_version(str(calendar))) == str(calendar)

    _run_property("calendar version round-trip, 500 cases", prop)


def test_criterion_8d_lockfile_round_trip():
    @settings(max_examples=500, deadline=None)
    @given(release_strategy())
    def prop(release):
        data = write_lockfile(release)
        assert data == write_lockfile(release)
        recovered = read_lockfile(data)
        assert recovered == release
        assert write_lockfile(recovered) == data

    _run_property("lockfile identity and byte idempotence, 500 cases", prop)
