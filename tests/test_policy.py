from __future__ import annotations

import pytest

from conftest import DEV_AT_RC, NONE_AT_RC, SUCCESSION_VIOLATORS, make_repo, mf
from pickforge.index import UnknownPackageError, compatible_versions
from pickforge.policy import (
    ALREADY_COMPATIBLE,
    DEV_COMPATIBLE,
    NONE_KNOWN,
    REMOVAL_WITHOUT_DEPRECATION,
    PolicyError,
    check_removals,
    check_succession,
    coordinate,
)
from pickforge.release import Release
from pickforge.solver import Pick, SelectionRequest, resolve_pick
from pickforge.versioning import parse_calendar_version, parse_version, satisfies

V = parse_version
CV = parse_calendar_version

TOOLCHAINS = ["8.12", "8.13", "8.14", "8.15"]


class TestCheckSuccession:
    def test_partial_span(self):
        repo = make_repo(TOOLCHAINS, [mf("p", "1.0", toolchain=">=8.13, <8.16")])
        report = check_succession(repo, "p")
        got = {
            (str(pair.lower), str(pair.upper)): pair.witness for pair in report.pairs
        }
        assert got[("8.12", "8.13")] is None
        assert got[("8.13", "8.14")] == V("1.0")
        assert got[("8.14", "8.15")] == V("1.0")
        assert report.compliant

    def test_single_toolchain_versions_violate(self):
        repo = make_repo(
            TOOLCHAINS,
            [mf("p", str(i), toolchain=f"={t}") for i, t in enumerate(TOOLCHAINS, 1)],
        )
        report = check_succession(repo, "p")
        assert all(pair.witness is None for pair in report.pairs)
        assert not report.compliant

    def test_universal_package_bridges_everywhere(self):
        repo = make_repo(TOOLCHAINS, [mf("p", "1.0", toolchain="*")])
        report = check_succession(repo, "p")
        assert all(pair.witness == V("1.0") for pair in report.pairs)
        assert report.compliant

    def test_dev_snapshots_are_not_witnesses(self):
        repo = make_repo(
            TOOLCHAINS,
            [
                mf("p", "1.0", toolchain="=8.12"),
                mf("p", "2.0-dev", toolchain="*", dev=True, source_ref="abc"),
            ],
        )
        assert not check_succession(repo, "p").compliant

    def test_newest_bridging_version_wins(self):
        repo = make_repo(
            TOOLCHAINS,
            [mf("p", "1.0", toolchain="*"), mf("p", "2.0", toolchain="*")],
        )
        report = check_succession(repo, "p")
        assert all(pair.witness == V("2.0") for pair in report.pairs)

    def test_unknown_package(self):
        repo = make_repo(TOOLCHAINS, [mf("p", "1.0")])
        with pytest.raises(UnknownPackageError):
            check_succession(repo, "ghost")

    @pytest.mark.parametrize("toolchains", [[], ["8.15"]], ids=["none", "one"])
    def test_unknown_package_without_a_pair(self, toolchains):
        repo = make_repo(toolchains, [mf("p", "1.0")])
        with pytest.raises(UnknownPackageError, match="'ghost'"):
            check_succession(repo, "ghost")

    def test_single_toolchain_repo_is_vacuously_compliant(self):
        repo = make_repo(["8.15"], [mf("p", "1.0", toolchain="=8.15")])
        report = check_succession(repo, "p")
        assert report.pairs == []
        assert report.compliant

    def test_matches_brute_force_scan(self, platform_repo):
        for name in sorted(platform_repo.packages):
            report = check_succession(platform_repo, name)
            for pair in report.pairs:
                bridging = [
                    version
                    for version, manifest in platform_repo.packages[name].items()
                    if not manifest.dev
                    and satisfies(pair.lower, manifest.toolchain)
                    and satisfies(pair.upper, manifest.toolchain)
                ]
                expected = max(bridging) if bridging else None
                assert pair.witness == expected

    def test_fixture_flags_exactly_the_planted_violators(self, platform_repo):
        flagged = {
            name
            for name in platform_repo.packages
            if not check_succession(platform_repo, name).compliant
        }
        assert flagged == SUCCESSION_VIOLATORS


class TestCoordinate:
    def repo(self):
        return make_repo(
            TOOLCHAINS,
            [
                mf("ready", "2.0", toolchain=">=8.13", maintainer="ada@x.org"),
                mf("pending", "1.0", toolchain="<8.15", maintainer="bob@x.org"),
                mf(
                    "pending",
                    "1.1-dev",
                    toolchain="*",
                    dev=True,
                    source_ref="abc123",
                    maintainer="bob@x.org",
                ),
                mf("stuck", "1.0", toolchain="<8.15", maintainer="ada@x.org"),
            ],
        )

    def reference(self):
        return Pick(
            toolchain=V("8.14"),
            selected={"ready": V("2.0"), "pending": V("1.0"), "stuck": V("1.0")},
        )

    def test_statuses_and_actions(self):
        report = coordinate(self.repo(), V("8.15"), self.reference())
        by_name = {entry.package: entry for entry in report.entries}
        assert by_name["ready"].status == ALREADY_COMPATIBLE
        assert by_name["ready"].version == V("2.0")
        assert by_name["ready"].action == "no action needed"
        assert by_name["pending"].status == DEV_COMPATIBLE
        assert by_name["pending"].source_ref == "abc123"
        assert by_name["pending"].action == "please cut a release from abc123"
        assert by_name["stuck"].status == NONE_KNOWN
        assert by_name["stuck"].action == "please provide a compatible version"

    def test_released_preferred_over_dev(self):
        repo = make_repo(
            TOOLCHAINS,
            [
                mf("p", "1.0", toolchain="*"),
                mf("p", "2.0-dev", toolchain="*", dev=True, source_ref="abc"),
            ],
        )
        reference = Pick(toolchain=V("8.14"), selected={"p": V("1.0")})
        report = coordinate(repo, V("8.15"), reference)
        assert report.entries[0].status == ALREADY_COMPATIBLE

    def test_covers_exactly_the_reference_selection(self):
        report = coordinate(self.repo(), V("8.15"), self.reference())
        assert [e.package for e in report.entries] == sorted(self.reference().selected)

    def test_rc_must_differ_from_reference_toolchain(self):
        with pytest.raises(PolicyError):
            coordinate(self.repo(), V("8.14"), self.reference())

    def test_markdown_groups_by_maintainer(self):
        text = coordinate(self.repo(), V("8.15"), self.reference()).to_markdown()
        ada = text.index("## ada@x.org")
        bob = text.index("## bob@x.org")
        assert ada < bob
        assert text.index("- ready:") > ada
        assert text.index("- stuck:") > ada
        assert text.index("- pending:") > bob

    def test_markdown_deterministic(self):
        a = coordinate(self.repo(), V("8.15"), self.reference()).to_markdown()
        b = coordinate(self.repo(), V("8.15"), self.reference()).to_markdown()
        assert a == b

    def test_status_preference_holds_for_every_entry(self, platform_repo):
        from pickforge.solver import SelectionRequest, resolve_pick

        reference = resolve_pick(
            platform_repo,
            SelectionRequest(
                toolchain=V("8.14"), optional=frozenset(platform_repo.packages)
            ),
        )
        rc = V("8.15")
        report = coordinate(platform_repo, rc, reference)
        for entry in report.entries:
            released = compatible_versions(platform_repo, entry.package, rc)
            dev = [
                v
                for v in compatible_versions(platform_repo, entry.package, rc, True)
                if platform_repo.packages[entry.package][v].dev
            ]
            if released:
                assert entry.status == ALREADY_COMPATIBLE
                assert entry.version == released[0]
            elif dev:
                assert entry.status == DEV_COMPATIBLE
            else:
                assert entry.status == NONE_KNOWN

    def test_fixture_classifies_planted_packages(self, platform_repo):
        reference = resolve_pick(
            platform_repo,
            SelectionRequest(
                toolchain=V("8.14"), optional=frozenset(platform_repo.packages)
            ),
        )
        assert sorted(reference.selected) == sorted(platform_repo.packages)
        report = coordinate(platform_repo, V("8.15"), reference)
        by_status: dict[str, set[str]] = {}
        for entry in report.entries:
            by_status.setdefault(entry.status, set()).add(entry.package)
        assert by_status[DEV_COMPATIBLE] == set(DEV_AT_RC)
        assert by_status[NONE_KNOWN] == NONE_AT_RC
        assert by_status[ALREADY_COMPATIBLE] == (
            set(platform_repo.packages) - set(DEV_AT_RC) - NONE_AT_RC
        )
        for entry in report.entries:
            if entry.status == DEV_COMPATIBLE:
                assert entry.source_ref == DEV_AT_RC[entry.package]


class TestCheckRemovals:
    def releases(self, *, drop_extra: bool, deprecate_extra: bool = False):
        repo = make_repo(
            ["8.14", "8.15"],
            [
                mf("core", "1.0"),
                mf("extra", "1.0", deprecated=deprecate_extra),
            ],
        )
        previous = Release(
            CV("2022.01.0"),
            [Pick(toolchain=V("8.14"), selected={"core": V("1.0"), "extra": V("1.0")})],
        )
        new_selected = {"core": V("1.0")}
        if not drop_extra:
            new_selected["extra"] = V("1.0")
        candidate = Release(
            CV("2022.06.0"),
            [Pick(toolchain=V("8.15"), selected=new_selected)],
            previous.version,
        )
        return repo, previous, candidate

    def test_no_drop_no_violation(self):
        repo, previous, candidate = self.releases(drop_extra=False)
        assert check_removals(previous, candidate, repo) == []

    def test_deprecated_drop_allowed(self):
        repo, previous, candidate = self.releases(drop_extra=True, deprecate_extra=True)
        assert check_removals(previous, candidate, repo) == []

    def test_undeprecated_drop_flagged(self):
        repo, previous, candidate = self.releases(drop_extra=True)
        violations = check_removals(previous, candidate, repo)
        assert [v.kind for v in violations] == [REMOVAL_WITHOUT_DEPRECATION]
        assert violations[0].package == "extra"

    def two_version_releases(self, deprecated: str):
        """``extra`` at 1.0 in one previous pick and at 1.1 in another; only
        the manifest at version ``deprecated`` is marked deprecated."""
        repo = make_repo(
            ["8.14", "8.15"],
            [
                mf("core", "1.0"),
                mf("extra", "1.0", deprecated=deprecated == "1.0"),
                mf("extra", "1.1", deprecated=deprecated == "1.1"),
            ],
        )
        previous = Release(CV("2022.01.0"), [
            Pick(toolchain=V("8.14"), selected={"core": V("1.0"), "extra": V("1.0")}),
            Pick(toolchain=V("8.15"), selected={"core": V("1.0"), "extra": V("1.1")}),
        ])
        candidate = Release(
            CV("2022.06.0"),
            [Pick(toolchain=V("8.15"), selected={"core": V("1.0")})],
            predecessor=previous.version,
        )
        return repo, previous, candidate

    def test_newest_previous_version_deprecated_allows_the_drop(self):
        repo, previous, candidate = self.two_version_releases(deprecated="1.1")
        assert check_removals(previous, candidate, repo) == []

    def test_only_older_previous_version_deprecated_is_flagged(self):
        repo, previous, candidate = self.two_version_releases(deprecated="1.0")
        violations = check_removals(previous, candidate, repo)
        assert [v.package for v in violations] == ["extra"]

    @pytest.mark.parametrize("extra", [[], [mf("extra", "2.0", deprecated=True)]],
                             ids=["no-package", "other-version"])
    def test_drop_whose_manifest_the_repo_lacks_is_flagged(self, extra):
        _, previous, candidate = self.releases(drop_extra=True, deprecate_extra=True)
        repo = make_repo(["8.14", "8.15"], [mf("core", "1.0"), *extra])
        violations = check_removals(previous, candidate, repo)
        assert [v.package for v in violations] == ["extra"]
        assert str(violations[0]) == (
            "RemovalWithoutDeprecation: package extra was selected in 2022.01.0 "
            "but is absent from 2022.06.0 and was not deprecated"
        )

    def test_package_present_in_any_pick_is_not_flagged(self):
        repo, previous, _ = self.releases(drop_extra=False)
        candidate = Release(
            CV("2022.06.0"),
            [Pick(toolchain=V("8.14"), selected={"core": V("1.0")}),
             Pick(toolchain=V("8.15"), selected={"extra": V("1.0")})],
            predecessor=previous.version,
        )
        assert check_removals(previous, candidate, repo) == []

    def test_predecessor_must_match(self):
        repo, previous, candidate = self.releases(drop_extra=False)
        orphan = Release(CV("2023.01.0"), candidate.picks)
        with pytest.raises(PolicyError, match="predecessor"):
            check_removals(previous, orphan, repo)
