from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from conftest import make_repo, mf
from pickforge import solver
from pickforge.index import Repository, UnknownPackageError, validate_repository
from pickforge.solver import (
    DEPENDENCY_MISSING,
    DEPENDENCY_VIOLATION,
    MUTUAL_EXCLUSION,
    SELECTION_OVERLAP,
    TOOLCHAIN_VIOLATION,
    UNKNOWN_VERSION,
    EnumerationLimitError,
    OverrideError,
    Pick,
    SelectionRequest,
    UnsatReport,
    enumerate_best,
    resolve_pick,
    verify_pick,
)
from pickforge.versioning import parse_version

from strategies import repositories, requests_for

V = parse_version


def names_of(pick: Pick) -> dict[str, str]:
    return {name: str(version) for name, version in pick.selected.items()}


class TestSelectionRequest:
    def test_mandatory_optional_disjoint(self):
        with pytest.raises(ValueError, match="both mandatory and optional"):
            SelectionRequest(toolchain=V("8.15"), mandatory={"a"}, optional={"a"})

    def test_override_targets_must_be_requested(self):
        with pytest.raises(ValueError, match="outside the request"):
            SelectionRequest(
                toolchain=V("8.15"), mandatory={"a"}, overrides={"b": V("1.0")}
            )


class TestResolvePick:
    def test_newest_dependency_wins(self):
        repo = make_repo(
            ["8.15"],
            [mf("a", "1.0", depends=[("b", ">=1.0")]), mf("b", "1.0"), mf("b", "1.1")],
        )
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), mandatory={"a"}))
        assert names_of(pick) == {"a": "1.0", "b": "1.1"}

    def test_conflict_excludes_later_name(self):
        repo = make_repo(
            ["8.15"], [mf("a", "1.0", conflicts=[("b", "*")]), mf("b", "1.0")]
        )
        pick = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), optional={"a", "b"})
        )
        assert names_of(pick) == {"a": "1.0"}
        assert pick.excluded == {"b": "conflict with a=1.0"}

    def test_joint_unsat_yields_minimal_culprits(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", depends=[("c", "=1.0")]),
                mf("b", "1.0", depends=[("c", "=2.0")]),
                mf("c", "1.0"),
                mf("c", "2.0"),
            ],
        )
        report = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), mandatory={"a", "b"})
        )
        assert isinstance(report, UnsatReport)
        assert report.culprits == ("a", "b")
        assert any("cannot be jointly satisfied" in line for line in report.narrative)

    def test_culprit_excludes_satisfiable_mandatory(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", toolchain="<8.13"),
                mf("b", "1.0"),
                mf("c", "1.0"),
            ],
        )
        report = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), mandatory={"a", "b", "c"})
        )
        assert isinstance(report, UnsatReport)
        assert report.culprits == ("a",)
        assert "cannot be installed" in report.narrative[0]

    def test_empty_request_empty_pick(self):
        repo = make_repo(["8.15"], [mf("a", "1.0")])
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15")))
        assert pick == Pick(toolchain=V("8.15"))

    def test_transitive_dependencies_are_pulled_in(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("top", "1.0", depends=[("mid", "*")]),
                mf("mid", "1.0", depends=[("base", ">=2.0")]),
                mf("base", "1.0"),
                mf("base", "2.0"),
            ],
        )
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), mandatory={"top"}))
        assert names_of(pick) == {"top": "1.0", "mid": "1.0", "base": "2.0"}

    def test_unjustified_packages_stay_out(self):
        repo = make_repo(["8.15"], [mf("a", "1.0"), mf("b", "1.0")])
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}))
        assert names_of(pick) == {"a": "1.0"}

    def test_older_version_chosen_when_newest_unusable(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", depends=[("b", "<2.0")]),
                mf("b", "1.0"),
                mf("b", "2.0"),
            ],
        )
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), mandatory={"a"}))
        assert names_of(pick) == {"a": "1.0", "b": "1.0"}

    def test_count_beats_name_preference(self):
        # including a alone blocks both b and c; dropping a frees two slots
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", conflicts=[("b", "*"), ("c", "*")]),
                mf("b", "1.0"),
                mf("c", "1.0"),
            ],
        )
        pick = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), optional={"a", "b", "c"})
        )
        assert sorted(pick.selected) == ["b", "c"]
        assert set(pick.excluded) == {"a"}

    def test_unknown_names_error(self):
        repo = make_repo(["8.15"], [mf("a", "1.0")])
        with pytest.raises(UnknownPackageError):
            resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), mandatory={"ghost"}))

    def test_dev_snapshot_needs_opt_in(self):
        repo = make_repo(
            ["8.15"],
            [mf("a", "1.0"), mf("a", "2.0-dev", dev=True, source_ref="abc")],
        )
        base = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}))
        assert names_of(base) == {"a": "1.0"}
        dev = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}, include_dev=True)
        )
        assert names_of(dev) == {"a": "2.0-dev"}

    def test_determinism(self):
        repo = make_repo(
            ["8.15"],
            [mf("a", "1.0", depends=[("b", "*")]), mf("b", "1.0"), mf("b", "2.0")],
        )
        req = SelectionRequest(toolchain=V("8.15"), mandatory={"a"}, optional={"b"})
        assert resolve_pick(repo, req) == resolve_pick(repo, req)

    def test_satisfiable_request_takes_one_search(self, monkeypatch):
        # the first selection found includes a alone; the same search then
        # resumes and finds b and c, with b's newest version forcing m back
        searches = []
        search = solver._search
        monkeypatch.setattr(
            solver, "_search", lambda *args: searches.append(args) or search(*args)
        )
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", conflicts=[("b", "*"), ("c", "*")]),
                mf("b", "1.0"),
                mf("b", "2.0", depends=[("m", "<2.0")]),
                mf("c", "1.0"),
                mf("m", "1.0"),
                mf("m", "2.0"),
            ],
        )
        req = SelectionRequest(toolchain=V("8.15"), mandatory={"m"}, optional={"a", "b", "c"})
        pick = resolve_pick(repo, req)
        assert names_of(pick) == {"b": "2.0", "c": "1.0", "m": "1.0"}
        assert len(searches) == 1
        assert pick == enumerate_best(repo, req)


class TestOverrides:
    def repo(self):
        return make_repo(
            ["8.14", "8.15"],
            [
                mf("a", "1.0"),
                mf("a", "2.0"),
                mf("a", "3.0", toolchain="<8.15"),
                mf("a", "4.0-dev", dev=True, source_ref="abc"),
            ],
        )

    def test_override_pins_older_version(self):
        req = SelectionRequest(
            toolchain=V("8.15"), optional={"a"}, overrides={"a": V("1.0")}
        )
        assert names_of(resolve_pick(self.repo(), req)) == {"a": "1.0"}

    def test_override_violating_toolchain_is_immediate_error(self):
        req = SelectionRequest(
            toolchain=V("8.15"), optional={"a"}, overrides={"a": V("3.0")}
        )
        with pytest.raises(OverrideError, match="toolchain"):
            resolve_pick(self.repo(), req)

    def test_override_unknown_version(self):
        req = SelectionRequest(
            toolchain=V("8.15"), optional={"a"}, overrides={"a": V("9.9")}
        )
        with pytest.raises(OverrideError, match="unknown version"):
            resolve_pick(self.repo(), req)

    def test_override_reaches_dev_snapshot_without_flag(self):
        req = SelectionRequest(
            toolchain=V("8.15"), optional={"a"}, overrides={"a": V("4.0-dev")}
        )
        pick = resolve_pick(self.repo(), req)
        assert names_of(pick) == {"a": "4.0-dev"}
        assert pick == enumerate_best(self.repo(), req)


class TestVerifyPick:
    def repo(self):
        return make_repo(
            ["8.15"],
            [
                mf("a", "1.0", toolchain=">=8.15", depends=[("b", ">=1.1")]),
                mf("b", "1.0"),
                mf("b", "1.1"),
                mf("c", "1.0", conflicts=[("a", "*")]),
            ],
        )

    def test_solver_output_is_valid(self):
        repo = self.repo()
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), mandatory={"a"}))
        assert verify_pick(repo, pick) == []

    def test_dependency_violation(self):
        pick = Pick(toolchain=V("8.15"), selected={"a": V("1.0"), "b": V("1.0")})
        kinds = [v.kind for v in verify_pick(self.repo(), pick)]
        assert kinds == [DEPENDENCY_VIOLATION]

    def test_dependency_missing(self):
        pick = Pick(toolchain=V("8.15"), selected={"a": V("1.0")})
        kinds = [v.kind for v in verify_pick(self.repo(), pick)]
        assert kinds == [DEPENDENCY_MISSING]

    def test_mutual_exclusion(self):
        pick = Pick(
            toolchain=V("8.15"),
            selected={"a": V("1.0"), "b": V("1.1"), "c": V("1.0")},
        )
        kinds = [v.kind for v in verify_pick(self.repo(), pick)]
        assert kinds == [MUTUAL_EXCLUSION]

    def test_toolchain_violation(self):
        pick = Pick(toolchain=V("8.14"), selected={"b": V("1.1")})
        repo = make_repo(["8.14"], [mf("b", "1.1", toolchain=">=8.15")])
        kinds = [v.kind for v in verify_pick(repo, pick)]
        assert kinds == [TOOLCHAIN_VIOLATION]

    def test_unknown_version(self):
        pick = Pick(toolchain=V("8.15"), selected={"b": V("9.9")})
        kinds = [v.kind for v in verify_pick(self.repo(), pick)]
        assert kinds == [UNKNOWN_VERSION]

    def test_selection_overlap(self):
        pick = Pick(
            toolchain=V("8.15"), selected={"b": V("1.1")}, excluded={"b": "why not"}
        )
        kinds = [v.kind for v in verify_pick(self.repo(), pick)]
        assert kinds == [SELECTION_OVERLAP]


class TestEnumerateBest:
    def test_guard_refuses_large_spaces(self):
        repo = make_repo(
            ["8.15"],
            [mf(f"p{i}", v) for i in range(8) for v in ("1.0", "1.1", "2.0")],
        )
        req = SelectionRequest(toolchain=V("8.15"), optional={"p0"})
        with pytest.raises(EnumerationLimitError):
            enumerate_best(repo, req, limit=1000)

    def test_matches_spec_examples(self):
        repo = make_repo(
            ["8.15"],
            [mf("a", "1.0", depends=[("b", ">=1.0")]), mf("b", "1.0"), mf("b", "1.1")],
        )
        req = SelectionRequest(toolchain=V("8.15"), mandatory={"a"})
        assert enumerate_best(repo, req) == resolve_pick(repo, req)

    def test_empty_request(self):
        repo = make_repo(["8.15"], [mf("a", "1.0")])
        req = SelectionRequest(toolchain=V("8.15"))
        assert enumerate_best(repo, req) == Pick(toolchain=V("8.15"))


class TestExclusionReasons:
    def test_no_version_for_toolchain(self):
        repo = make_repo(["8.12", "8.15"], [mf("a", "1.0", toolchain="<8.13")])
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}))
        assert pick.excluded == {"a": "no version supports toolchain 8.15"}

    def test_only_dev_snapshots(self):
        repo = make_repo(
            ["8.15"], [mf("a", "1.0-dev", dev=True, source_ref="abc")]
        )
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}))
        assert pick.excluded == {
            "a": "only development snapshots support toolchain 8.15"
        }

    def test_missing_dependency_reason(self):
        repo = make_repo(
            ["8.12", "8.15"],
            [mf("a", "1.0", depends=[("b", "*")]), mf("b", "1.0", toolchain="<8.13")],
        )
        pick = resolve_pick(repo, SelectionRequest(toolchain=V("8.15"), optional={"a"}))
        assert pick.excluded == {
            "a": "requires b, which has no version for toolchain 8.15"
        }

    def test_dependency_version_clash_reason(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", depends=[("c", "=1.0")]),
                mf("b", "1.0", depends=[("c", "=2.0")]),
                mf("c", "1.0"),
                mf("c", "2.0"),
            ],
        )
        pick = resolve_pick(
            repo, SelectionRequest(toolchain=V("8.15"), mandatory={"b"}, optional={"a"})
        )
        assert pick.excluded == {"a": "requires c =1.0 but c=2.0 is selected"}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_resolver_matches_exhaustive_reference(data):
    repo = data.draw(repositories())
    assert validate_repository(repo) == []
    req = data.draw(requests_for(repo))
    got = resolve_pick(repo, req)
    want = enumerate_best(repo, req)
    assert got == want
    if isinstance(got, Pick):
        assert verify_pick(repo, got) == []
    else:
        # culprits are jointly unsatisfiable and minimal under single removal;
        # overrides pin versions globally, so the re-checks keep all of them
        culprits = set(got.culprits)
        joint = SelectionRequest(
            toolchain=req.toolchain,
            mandatory=frozenset(culprits),
            optional=frozenset(req.overrides) - culprits,
            overrides=dict(req.overrides),
            include_dev=req.include_dev,
        )
        assert isinstance(enumerate_best(repo, joint), UnsatReport)
        for culprit in culprits:
            rest = culprits - {culprit}
            sub = SelectionRequest(
                toolchain=req.toolchain,
                mandatory=frozenset(rest),
                optional=frozenset(req.overrides) - rest,
                overrides=dict(req.overrides),
                include_dev=req.include_dev,
            )
            assert isinstance(enumerate_best(repo, sub), Pick)


# --- structured oracle corpus ----------------------------------------------------

SHAPED_CORPUS_SIZE = 300
SHAPED_CORPUS_SEED = 1993
SHAPED_SPACE_CAP = 3_000


def _shaped_instance(rng: random.Random) -> tuple[Repository, SelectionRequest]:
    """A small cliff- or unsat-shaped instance: multi-version fillers, then a
    planted mutual conflict, hub clash or three-way core, then a tail.

    Each filler version links to up to two earlier fillers, and now and then
    to a planted package, which the search then pulls in.  Half the requests
    make most packages optional and a few fillers mandatory (the planted
    clash forces an exclusion); the rest make the fillers and the core
    mandatory (the clash makes the request unsatisfiable).  Some pin an override, and some add dev snapshots and opt
    into them.
    """
    kind = rng.choice(("conflict", "hub", "triangle"))
    if kind == "conflict":
        core = ["p-a", "p-b"]
        planted = [mf("p-a", "1.0", conflicts=[("p-b", "*")]), mf("p-b", "1.0")]
    elif kind == "hub":
        core = ["p-a", "p-b"]
        hub = rng.choice(("a-hub", "h-hub"))  # sorts before or after the fillers
        planted = [
            mf(hub, "1.0"),
            mf(hub, "2.0"),
            mf("p-a", "1.0", depends=[(hub, "<2.0")]),
            mf("p-b", "1.0", depends=[(hub, ">=2.0")]),
        ]
    else:
        # every pair of the three shares a hub version; all three share none
        core = ["p-a", "p-b", "p-c"]
        planted = [mf("r-hub", version) for version in ("1.0", "2.0", "3.0")]
        planted += [
            mf("p-a", "1.0", depends=[("r-hub", ">=2.0")]),
            mf("p-b", "1.0", depends=[("r-hub", "!=2.0")]),
            mf("p-c", "1.0", depends=[("r-hub", "<=2.0")]),
        ]
    fillers = [f"f{i}" for i in range(rng.randint(2, 5))]
    manifests = []
    for i, name in enumerate(fillers):
        for version in ("1.0", "1.1", "2.0")[: rng.randint(2, 3)]:
            links = sorted(rng.sample(fillers[:i], min(i, rng.randint(0, 2))))
            depends = [(dep, rng.choice(("*", "*", ">=1.1", "<2.0"))) for dep in links]
            if rng.random() < 0.15:
                depends.append((rng.choice(core), "*"))
            manifests.append(mf(name, version, depends=depends))
        if rng.random() < 0.2:
            manifests.append(mf(name, "3.0-dev", dev=True, source_ref="abc"))
    manifests += planted
    earlier = fillers + core
    for i in range(rng.randint(0, 2)):
        links = sorted(rng.sample(earlier, rng.randint(0, 2)))
        manifests.append(mf(f"t{i}", "1.0", depends=[(dep, "*") for dep in links]))
        earlier.append(f"t{i}")
    repo = make_repo(["8.15"], manifests)
    if rng.random() < 0.5:
        mandatory = frozenset(rng.sample(fillers, rng.randint(0, len(fillers) // 2)))
        # the rest can only be pulled in, so version fixing must force them
        optional = frozenset(
            name for name in sorted(repo.packages) if name not in mandatory and rng.random() < 0.75
        )
    else:
        mandatory = frozenset(fillers + core)
        optional = frozenset()
    overrides = {}
    if rng.random() < 0.3:
        name = rng.choice(sorted(mandatory | optional))
        overrides[name] = rng.choice(sorted(repo.packages[name]))
    request = SelectionRequest(
        toolchain=V("8.15"),
        mandatory=mandatory,
        optional=optional,
        overrides=overrides,
        include_dev=rng.random() < 0.3,
    )
    return repo, request


def test_resolver_matches_reference_on_shaped_corpus():
    rng = random.Random(SHAPED_CORPUS_SEED)
    kept = 0
    while kept < SHAPED_CORPUS_SIZE:
        repo, req = _shaped_instance(rng)
        if math.prod(len(versions) + 1 for versions in repo.packages.values()) > SHAPED_SPACE_CAP:
            continue
        kept += 1
        assert validate_repository(repo) == []
        assert resolve_pick(repo, req) == enumerate_best(repo, req), (kept, req)


PULLED_CORPUS_SIZE = 1000
PULLED_CORPUS_SEED = 2012


def _pulled_only_instance(rng: random.Random) -> tuple[Repository, SelectionRequest]:
    """A small instance whose selections consist mostly of pulled-in packages.

    4-8 packages with 1-3 versions each.  Every version depends on each
    earlier name with probability one half and on each later name less
    often, so dependencies are dense and mostly point backwards; now and
    then a version conflicts with another package.  The request names 1-3
    packages, usually the last ones, as mandatory or optional, and the rest
    can only be pulled in.  A pulled package is then often decided before
    every package able to require it, so complete selections with packages
    no root reaches are common.
    """
    names = [chr(ord("a") + i) for i in range(rng.randint(4, 8))]
    manifests = []
    for name in names:
        for version in sorted(rng.sample(("1.0", "1.1", "2.0", "3.0"), rng.randint(1, 3))):
            depends = [
                (other, rng.choice(("*", "*", ">=1.1", "<2.0", "!=2.0")))
                for other in names
                if other != name and rng.random() < (0.5 if other < name else 0.12)
            ]
            conflicts = [
                (other, rng.choice(("*", ">=2.0", "<1.1")))
                for other in names
                if other != name and rng.random() < 0.08
            ]
            manifests.append(mf(name, version, depends=depends, conflicts=conflicts))
    repo = make_repo(["8.15"], manifests)
    if rng.random() < 0.8:
        requested = names[-rng.randint(1, 3):]
    else:
        requested = rng.sample(names, rng.randint(1, 3))
    mandatory = frozenset(name for name in requested if rng.random() < 0.5)
    request = SelectionRequest(
        toolchain=V("8.15"), mandatory=mandatory, optional=frozenset(requested) - mandatory
    )
    return repo, request


def test_resolver_matches_reference_on_pulled_only_corpus():
    rng = random.Random(PULLED_CORPUS_SEED)
    kept = 0
    while kept < PULLED_CORPUS_SIZE:
        repo, req = _pulled_only_instance(rng)
        if math.prod(len(versions) + 1 for versions in repo.packages.values()) > SHAPED_SPACE_CAP:
            continue
        kept += 1
        assert validate_repository(repo) == []
        assert resolve_pick(repo, req) == enumerate_best(repo, req), (kept, req)
