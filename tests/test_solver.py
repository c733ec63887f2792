from __future__ import annotations

import importlib.util
import json
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

from conftest import PLATFORM_FIXTURE, REPO_ROOT, make_repo, mf
from pickforge import cli, solver
from pickforge.index import (
    Repository,
    UnknownPackageError,
    compatible_versions,
    load_repository,
    validate_repository,
)
from pickforge.reference import (
    DEPENDENCY_MISSING,
    DEPENDENCY_VIOLATION,
    MUTUAL_EXCLUSION,
    SELECTION_OVERLAP,
    TOOLCHAIN_VIOLATION,
    UNKNOWN_VERSION,
    EnumerationLimitError,
)
from pickforge.solver import (
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

    def test_sets_become_frozensets_and_overrides_a_copy(self):
        overrides = {"a": V("1.0")}
        req = SelectionRequest(
            toolchain=V("8.15"), mandatory=["a", "a"], optional={"b"}, overrides=overrides
        )
        assert type(req.mandatory) is frozenset and req.mandatory == {"a"}
        assert type(req.optional) is frozenset and req.optional == {"b"}
        overrides["b"] = V("2.0")
        assert req.overrides == {"a": V("1.0")}
        assert SelectionRequest(toolchain=V("8.15")).overrides == {}


def test_resolving_leaves_the_repository_equal_to_a_fresh_load():
    # the cached candidate table is not part of a repository's value
    repo = load_repository(PLATFORM_FIXTURE)
    before = repr(repo)
    for toolchain in repo.toolchains:
        resolve_pick(repo, SelectionRequest(toolchain=toolchain, optional=set(repo.packages)))
    assert repo.search_table is not None
    assert repo == load_repository(PLATFORM_FIXTURE)
    assert repr(repo) == before


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
        solve = solver._Solver.solve
        monkeypatch.setattr(
            solver._Solver, "solve", lambda *args: searches.append(args) or solve(*args)
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

    @pytest.mark.parametrize("typed", ["2.0", "2.0.0"])
    def test_pick_names_the_version_as_the_index_lists_it(self, capsys, typed):
        # versions equal up to trailing zeros, but a lockfile's bytes must
        # not depend on how the pin was typed
        req = SelectionRequest(toolchain=V("8.15"), optional={"a"}, overrides={"a": V(typed)})
        for resolve in (resolve_pick, enumerate_best):
            assert resolve(self.repo(), req).to_json_dict()["selected"] == {"a": "2.0"}
        argv = ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
                "--optional", "aldergrove", "--override", f"aldergrove={typed}", "--format", "json"]
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["selected"] == {"aldergrove": "2.0"}


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

    def test_dependency_closure_gives_the_whole_index_answer(self, platform_repo):
        # the benchmark checks a request against the reference run on the
        # packages its names reach through dependencies; a conflict may still
        # name a package outside them (veilstone 2.0 conflicts with vervain)
        roots = ["veilstone", "briskmarsh", "pinemarten", "ravenmoor"]
        reach = solver._closure(
            roots,
            lambda name: (
                dep for manifest in platform_repo.packages[name].values()
                for dep, _ in manifest.depends
            ),
        )
        sub = Repository(
            toolchains=platform_repo.toolchains,
            packages={name: platform_repo.packages[name] for name in reach},
        )
        assert "vervain" not in sub.packages
        req = SelectionRequest(
            toolchain=V("8.15"),
            mandatory={"veilstone"},
            optional={"briskmarsh", "pinemarten", "ravenmoor"},
            overrides={"briskmarsh": V("1.0")},
        )
        assert enumerate_best(sub, req) == resolve_pick(platform_repo, req)

    def test_names_outside_the_index_admit_nothing_and_block_nothing(self):
        repo = make_repo(
            ["8.15"],
            [
                mf("a", "1.0", conflicts=[("ghost", "*")]),
                mf("b", "1.0", depends=[("c", "*")]),
                mf("c", "1.0", depends=[("phantom", "*")]),
            ],
        )
        req = SelectionRequest(toolchain=V("8.15"), mandatory={"a"}, optional={"b"})
        assert enumerate_best(repo, req) == Pick(
            toolchain=V("8.15"),
            selected={"a": V("1.0")},
            excluded={"b": "cannot be added without breaking the current selection"},
        )


# one case per branch of the exclusion reasons: (toolchains, manifests,
# request arguments, the reasons both resolvers must give)
EXCLUSION_REASONS = {
    "no_version_for_toolchain": (
        ["8.12", "8.15"],
        [mf("a", "1.0", toolchain="<8.13")],
        dict(optional={"a"}),
        {"a": "no version supports toolchain 8.15"},
    ),
    "only_dev_snapshots": (
        ["8.15"],
        [mf("a", "1.0-dev", dev=True, source_ref="abc")],
        dict(optional={"a"}),
        {"a": "only development snapshots support toolchain 8.15"},
    ),
    "conflict_declared_by_the_excluded": (
        ["8.15"],
        [mf("a", "1.0"), mf("b", "1.0", conflicts=[("a", "*")])],
        dict(optional={"a", "b"}),
        {"b": "conflict with a=1.0"},
    ),
    "dependency_version_clash": (
        ["8.15"],
        [
            mf("a", "1.0", depends=[("c", "=1.0")]),
            mf("b", "1.0", depends=[("c", "=2.0")]),
            mf("c", "1.0"),
            mf("c", "2.0"),
        ],
        dict(mandatory={"b"}, optional={"a"}),
        {"a": "requires c =1.0 but c=2.0 is selected"},
    ),
    "missing_dependency": (
        ["8.12", "8.15"],
        [mf("a", "1.0", depends=[("b", "*")]), mf("b", "1.0", toolchain="<8.13")],
        dict(optional={"a"}),
        {"a": "requires b, which has no version for toolchain 8.15"},
    ),
    # with two violated dependencies, the reason names the first the
    # manifest lists, not the first by name
    "first_of_two_dependency_clashes": (
        ["8.15"],
        [
            mf("a", "1.0", depends=[("d", "=1.0"), ("c", "=1.0")]),
            mf("b", "1.0", depends=[("c", "=2.0"), ("d", "=2.0")]),
            mf("c", "1.0"),
            mf("c", "2.0"),
            mf("d", "1.0"),
            mf("d", "2.0"),
        ],
        dict(mandatory={"b"}, optional={"a"}),
        {"a": "requires d =1.0 but d=2.0 is selected"},
    ),
    "first_of_two_missing_dependencies": (
        ["8.12", "8.15"],
        [
            mf("a", "1.0", depends=[("d", "*"), ("c", "*")]),
            mf("c", "1.0", toolchain="<8.13"),
            mf("d", "1.0", toolchain="<8.13"),
        ],
        dict(optional={"a"}),
        {"a": "requires d, which has no version for toolchain 8.15"},
    ),
    "generic_fallback": (
        ["8.15"],
        [
            mf("a", "1.0", depends=[("c", "*")]),
            mf("b", "1.0"),
            mf("c", "1.0", conflicts=[("b", "*")]),
        ],
        dict(mandatory={"b"}, optional={"a"}),
        {"a": "cannot be added without breaking the current selection"},
    ),
    "override_text_differs_from_the_index": (
        ["8.15"],
        [mf("a", "1.0"), mf("a", "2.0"), mf("b", "1.0", conflicts=[("a", "<=1.0")])],
        dict(mandatory={"b"}, optional={"a"}, overrides={"a": V("1.0.0")}),
        {"a": "conflict with b=1.0"},
    ),
}


class TestExclusionReasons:
    @pytest.mark.parametrize("resolver", [resolve_pick, enumerate_best])
    @pytest.mark.parametrize("case", EXCLUSION_REASONS)
    def test_reason(self, case, resolver):
        toolchains, manifests, request, reasons = EXCLUSION_REASONS[case]
        req = SelectionRequest(toolchain=V("8.15"), **request)
        assert resolver(make_repo(toolchains, manifests), req).excluded == reasons


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


# --- one candidate table per repository -------------------------------------------

TOOLCHAINS = ("8.12", "8.13", "8.14", "8.15")
SHARED_CORPUS_SIZE = 150
SHARED_CORPUS_SEED = 2024
SHARED_SPACE_CAP = 400


def _toolchain_instance(rng: random.Random) -> tuple[Repository, SelectionRequest, dict]:
    """A small four-toolchain instance, a request, and an override for it.

    Versions carry toolchain floors, ceilings and exclusions, and some
    packages add a dev snapshot, so each (toolchain, dev filter, override)
    leaves a different set of candidates.  The override may name a dev
    snapshot or a version its toolchain constraint rules out.
    """
    names = [chr(ord("a") + i) for i in range(rng.randint(3, 6))]
    manifests = []
    for name in names:
        for version in sorted(rng.sample(("1.0", "1.1", "2.0", "3.0"), rng.randint(1, 2))):
            depends = [
                (other, rng.choice(("*", ">=1.1", "<2.0")))
                for other in names
                if other != name and rng.random() < 0.3
            ]
            conflicts = [
                (other, rng.choice(("*", ">=2.0")))
                for other in names
                if other != name and rng.random() < 0.08
            ]
            toolchain = rng.choice(("*", "*", ">=8.13", "<8.15", ">=8.14", "!=8.13"))
            manifests.append(
                mf(name, version, toolchain=toolchain, depends=depends, conflicts=conflicts)
            )
        if rng.random() < 0.3:
            toolchain = rng.choice(("*", ">=8.14"))
            manifests.append(mf(name, "9.0-dev", toolchain=toolchain, dev=True, source_ref="c0"))
    repo = make_repo(TOOLCHAINS, manifests)
    mandatory = frozenset(name for name in names if rng.random() < 0.2)
    optional = frozenset(name for name in names if name not in mandatory and rng.random() < 0.8)
    request = SelectionRequest(toolchain=V("8.12"), mandatory=mandatory, optional=optional)
    pinned = rng.choice(sorted(mandatory | optional or {names[0]}))
    return repo, request, {pinned: rng.choice(sorted(repo.packages[pinned]))}


def _outcome(resolve, repo: Repository, req: SelectionRequest):
    try:
        return resolve(repo, req)
    except OverrideError as exc:
        return str(exc)


def test_one_table_serves_every_request_on_a_repository():
    # every request reuses the table the first one built, so a filter or an
    # override pin that leaked into it would change a later request's answer
    rng = random.Random(SHARED_CORPUS_SEED)
    kept = 0
    while kept < SHARED_CORPUS_SIZE:
        repo, base, override = _toolchain_instance(rng)
        if math.prod(len(versions) + 1 for versions in repo.packages.values()) > SHARED_SPACE_CAP:
            continue
        kept += 1
        assert validate_repository(repo) == []
        for toolchain in TOOLCHAINS:
            for include_dev in (False, True):
                for overrides in ({}, override):
                    req = SelectionRequest(
                        toolchain=V(toolchain),
                        mandatory=base.mandatory,
                        optional=base.optional | (frozenset(overrides) - base.mandatory),
                        overrides=overrides,
                        include_dev=include_dev,
                    )
                    want = _outcome(enumerate_best, repo, req)
                    assert _outcome(resolve_pick, repo, req) == want, (kept, req)


def _plainly_pruned(repo: Repository, req: SelectionRequest) -> dict[str, list]:
    """Arc consistency the plain way: sweep every package until no version
    with a dependency that no kept version of its target satisfies is left."""
    kept = {
        name: [req.overrides[name]]
        if name in req.overrides
        else compatible_versions(repo, name, req.toolchain, req.include_dev)
        for name in repo.packages
    }
    changed = True
    while changed:
        changed = False
        for name, versions in kept.items():
            meetable = [
                version
                for version in versions
                if all(
                    any(solver.satisfies(other, constraint) for other in kept[dep])
                    for dep, constraint in repo.packages[name][version].depends
                )
            ]
            if meetable != versions:
                kept[name], changed = meetable, True
    return kept


def test_pruned_candidates_match_a_plain_fixpoint():
    # the pruning starts only from packages whose candidates can have lost
    # a match; it must still reach the fixpoint a full sweep reaches
    rng = random.Random(SHARED_CORPUS_SEED)
    for _ in range(SHARED_CORPUS_SIZE):
        repo, base, override = _toolchain_instance(rng)
        for toolchain in TOOLCHAINS:
            for include_dev in (False, True):
                req = SelectionRequest(
                    toolchain=V(toolchain),
                    optional=frozenset(repo.packages),
                    overrides=override,
                    include_dev=include_dev,
                )
                (pinned, version), = override.items()
                if not solver.satisfies(req.toolchain, repo.packages[pinned][version].toolchain):
                    with pytest.raises(OverrideError):
                        solver._Solver(repo, req)
                    continue
                space = solver._Solver(repo, req)
                got = {
                    name: [space.table.versions[c] for c in ids] for name, ids in space.ids.items()
                }
                assert got == _plainly_pruned(repo, req)


def test_later_toolchains_reuse_the_candidate_table(monkeypatch):
    rng = random.Random(11)
    names = [f"p{i:02d}" for i in range(40)]
    manifests = []
    for i, name in enumerate(names):
        floor = rng.choice(TOOLCHAINS)
        depends = [
            (dep, rng.choice(("*", ">=1.0", "<2.0")))
            for dep in sorted(rng.sample(names[:i], min(i, 3)))
        ]
        for version in ("1.0", "1.1", "2.0")[: rng.randint(1, 3)]:
            manifests.append(mf(name, version, toolchain=f">={floor}", depends=depends))
    repo = make_repo(TOOLCHAINS, manifests)

    def request(toolchain: str) -> SelectionRequest:
        return SelectionRequest(toolchain=V(toolchain), optional=frozenset(names))

    resolve_pick(repo, request("8.12"))
    calls = []
    satisfies = solver.satisfies
    monkeypatch.setattr(
        solver, "satisfies", lambda *args: calls.append(args) or satisfies(*args)
    )
    pick = resolve_pick(repo, request("8.15"))
    # only the toolchain filter tests versions: one call per distinct
    # toolchain constraint, and never one per dependency edge
    assert len(calls) <= len(manifests)
    monkeypatch.setattr(solver, "satisfies", satisfies)
    assert pick == resolve_pick(make_repo(TOOLCHAINS, manifests), request("8.15"))
    assert sorted(pick.selected) == names


def test_request_candidates_match_compatible_versions(platform_repo):
    # the search branches over the table's candidates, and exclusion reasons
    # read them too, so they must admit the versions compatible_versions does
    table = solver._CandidateTable(platform_repo)
    for toolchain in platform_repo.toolchains:
        fits = table.fits(toolchain)
        for include_dev in (False, True):
            req = SelectionRequest(toolchain=toolchain, include_dev=include_dev)
            ids = table.candidates(req, fits)
            for name in platform_repo.packages:
                got = [table.versions[c] for c in ids[name]]
                assert got == compatible_versions(platform_repo, name, toolchain, include_dev)
                for version in platform_repo.versions(name):
                    pinned = SelectionRequest(
                        toolchain=toolchain,
                        optional={name},
                        overrides={name: version},
                        include_dev=include_dev,
                    )
                    pinned_ids = table.candidates(pinned, fits)[name]
                    assert [table.versions[c] for c in pinned_ids] == [version]


def test_a_request_filters_its_candidates_once(monkeypatch):
    # the search and the exclusion reasons read one filter per request
    repo = make_repo(
        ["8.15"],
        [mf("a", "1.0", conflicts=[("b", "*")]), mf("b", "1.0"), mf("c", "1.0", toolchain="<8.15")],
    )
    req = SelectionRequest(toolchain=V("8.15"), optional={"a", "b", "c"})
    calls = []
    for method in ("fits", "candidates"):
        real = getattr(solver._CandidateTable, method)
        monkeypatch.setattr(
            solver._CandidateTable,
            method,
            lambda *args, real=real, method=method: calls.append(method) or real(*args),
        )
    pick = resolve_pick(repo, req)
    assert pick.excluded == {"b": "conflict with a=1.0", "c": "no version supports toolchain 8.15"}
    assert sorted(calls) == ["candidates", "fits"]


def test_exclusion_reasons_test_each_toolchain_constraint_once(monkeypatch):
    # most packages have no version for the toolchain, so a reason that
    # scanned their manifests again would test the same constraints anew
    toolchain = V("8.12")
    manifests = []
    for i in range(30):
        name = f"p{i:02d}"
        floor = ">=8.12" if i % 5 == 0 else ">=8.14"
        for version in ("1.0", "1.1", "2.0"):
            manifests.append(mf(name, version, toolchain=floor))
        if i % 3 == 0:
            manifests.append(mf(name, "3.0-dev", toolchain="*", dev=True, source_ref="c0"))
    repo = make_repo(TOOLCHAINS, manifests)
    req = SelectionRequest(toolchain=toolchain, optional=frozenset(repo.packages))
    pick = resolve_pick(repo, req)
    assert set(pick.excluded.values()) == {
        "no version supports toolchain 8.12",
        "only development snapshots support toolchain 8.12",
    }
    calls = []
    satisfies = solver.satisfies

    def counted(version, constraint):
        if version == toolchain:
            calls.append(constraint)
        return satisfies(version, constraint)

    monkeypatch.setattr(solver, "satisfies", counted)
    monkeypatch.setattr("pickforge.index.satisfies", counted)
    assert solver._Solver(repo, req).pick(pick.selected) == pick
    assert len(set(calls)) == len(calls) <= len(repo.search_table.toolchains) == 3


# --- the committed stress generators ------------------------------------------

# scripts/ is not a package, so the generators are loaded by path
_spec = importlib.util.spec_from_file_location(
    "solver_bench", REPO_ROOT / "scripts" / "solver_bench.py"
)
solver_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_bench)


class TestStressGenerators:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_hub_resolves_to_its_planted_pick(self, k):
        repo, request, planted = solver_bench.hub_instance(k)
        pick = resolve_pick(repo, request)
        assert {name: str(version) for name, version in pick.selected.items()} == planted
        assert pick.excluded == {}

    def test_small_conflicted_instances_match_the_reference(self):
        rng = random.Random(2022)
        for _ in range(100):
            repo, request = solver_bench.conflicted_instance(rng, (4, 7))
            assert resolve_pick(repo, request) == enumerate_best(repo, request)

    @pytest.mark.parametrize("size", [10, 60])
    def test_unsat_reports_its_planted_culprits(self, size):
        repo, request, planted = solver_bench.unsat_instance(random.Random(1), size)
        report = resolve_pick(repo, request)
        assert isinstance(report, UnsatReport)
        assert report.culprits == planted
        assert len(request.mandatory) == size


def test_every_culprit_of_a_joint_conflict_is_installable_alone():
    # with two or more culprits the report calls each one installable alone
    # without a search of its own; the reference must find a pick for each
    rng = random.Random(1)
    joint = 0
    for _ in range(1000):
        repo, req = solver_bench.random_instance(rng, 2000)
        report = resolve_pick(repo, req)
        if not isinstance(report, UnsatReport) or len(report.culprits) < 2:
            continue
        joint += 1
        assert all("installable alone" in line for line in report.narrative[1:])
        for name in report.culprits:
            alone = SelectionRequest(
                toolchain=req.toolchain,
                mandatory={name},
                optional=set(req.overrides) - {name},  # so that every override still pins
                overrides=req.overrides,
                include_dev=req.include_dev,
            )
            assert isinstance(enumerate_best(repo, alone), Pick), (report, name)
    assert joint >= 10
