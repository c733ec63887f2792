from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given

from conftest import make_repo, mf
from pickforge.policy import REMOVAL_WITHOUT_DEPRECATION, check_removals
from pickforge.release import (
    LockfileError,
    Release,
    ReleaseError,
    diff_picks,
    read_lockfile,
    upgrade_path,
    write_lockfile,
)
from pickforge.solver import Pick, UnsatReport
from pickforge.versioning import parse_calendar_version, parse_version

from strategies import picks as pick_strategy
from strategies import release_arguments
from strategies import releases as release_strategy

V = parse_version
CV = parse_calendar_version
DROP = object()  # an edit that removes the value at its path


def pick(toolchain: str, **selected: str) -> Pick:
    return Pick(
        toolchain=V(toolchain),
        selected={name: V(text) for name, text in selected.items()},
    )


class TestRecordEquality:
    def test_picks_compare_by_value(self):
        a = pick("8.15", x="1.0")
        a.excluded["y"] = "no version supports toolchain 8.15"
        b = Pick(V("8.15.0"), {"x": V("1.0.0")}, {"y": "no version supports toolchain 8.15"})
        assert a == b and not a != b
        assert a != pick("8.15", x="1.1")
        assert a != Pick(V("8.15"), dict(a.selected))
        assert a != UnsatReport((), ())
        assert a != SimpleNamespace(toolchain=a.toolchain, selected=a.selected, excluded=a.excluded)

    def test_releases_compare_by_value(self):
        a = Release(CV("2022.01.0"), [pick("8.15", x="1.0")])
        b = Release(CV("2022.01.0"), [pick("8.15", x="1.0")], predecessor=None)
        assert a == b and not a != b
        assert a != Release(CV("2022.01.1"), [pick("8.15", x="1.0")])
        assert a != Release(CV("2022.01.0"), [pick("8.15", x="1.1")])
        assert a != Release(CV("2022.01.0"), a.picks, predecessor=CV("2021.09.0"))
        assert a != a.picks[0]
        assert a != SimpleNamespace(version=a.version, picks=a.picks, predecessor=None)


class TestAssembleRelease:
    """The rules a ``Release`` keeps, checked as it is built."""

    def test_four_picks(self):
        release = Release(
            CV("2022.01.0"),
            [pick(t, core="1.0") for t in ("8.12", "8.13", "8.14", "8.15")],
        )
        assert [str(t) for t in release.toolchains()] == ["8.12", "8.13", "8.14", "8.15"]
        assert release.predecessor is None

    def test_sorts_picks_by_toolchain(self):
        release = Release(CV("2022.01.0"), [pick("8.15"), pick("8.12")])
        assert [str(t) for t in release.toolchains()] == ["8.12", "8.15"]
        assert isinstance(release.picks, tuple)

    def test_duplicate_toolchain_rejected(self):
        # toolchains compare as versions: 8.15 and 8.15.0 are one
        for toolchains in (["8.15", "8.15"], ["8.15", "8.14", "8.15.0"]):
            with pytest.raises(ReleaseError, match="^duplicate pick for toolchain 8.15$"):
                Release(CV("2022.01.0"), [pick(t) for t in toolchains])

    def test_version_must_advance(self):
        previous = Release(CV("2022.01.0"), [pick("8.15")])
        with pytest.raises(
            ReleaseError,
            match="^release version 2022.01.0 must be greater than predecessor 2022.01.0$",
        ):
            Release(CV("2022.01.0"), [pick("8.15")], previous.version)
        with pytest.raises(ReleaseError, match="greater"):
            Release(CV("2021.12.0"), [pick("8.15")], previous.version)

    def test_empty_rejected(self):
        with pytest.raises(ReleaseError, match="^a release needs at least one pick$"):
            Release(CV("2022.01.0"), [])

    def test_replace_keeps_the_rules(self):
        release = Release(CV("2022.01.0"), [pick("8.15")])
        assert release._replace(picks=[pick("8.15"), pick("8.12")]).toolchains() == [
            V("8.12"), V("8.15")
        ]
        with pytest.raises(ReleaseError, match="duplicate"):
            release._replace(picks=[pick("8.15"), pick("8.15")])

    def test_dropping_package_warns(self):
        # The constructor accepts the drop; the warning is check_removals' to give.
        previous = Release(CV("2022.01.0"), [pick("8.14", core="1.0", extra="1.0")])
        release = Release(CV("2022.06.0"), [pick("8.15", core="1.0")], previous.version)
        assert release.predecessor == previous.version
        repo = make_repo(["8.14", "8.15"], [mf("core", "1.0"), mf("extra", "1.0")])
        warnings = check_removals(previous, release, repo)
        assert [w.kind for w in warnings] == [REMOVAL_WITHOUT_DEPRECATION]
        assert warnings[0].package == "extra"

    def test_deprecated_drop_is_silent(self):
        repo = make_repo(
            ["8.14", "8.15"], [mf("core", "1.0"), mf("extra", "1.0", deprecated=True)]
        )
        previous = Release(CV("2022.01.0"), [pick("8.14", core="1.0", extra="1.0")])
        release = Release(CV("2022.06.0"), [pick("8.15", core="1.0")], previous.version)
        assert check_removals(previous, release, repo) == []


class TestDiffPicks:
    def test_identity(self):
        p = pick("8.15", a="1.0", b="2.0")
        diff = diff_picks(p, p)
        assert diff.unchanged == {"a", "b"}
        assert not diff.added and not diff.removed
        assert not diff.upgraded and not diff.downgraded

    def test_add_and_upgrade(self):
        diff = diff_picks(pick("8.14", r="1.0"), pick("8.15", r="1.1", q="1.0"))
        assert diff.added == {"q"}
        assert diff.upgraded == {"r": (V("1.0"), V("1.1"))}

    def test_drop(self):
        diff = diff_picks(pick("8.14", s="1.0"), pick("8.15"))
        assert diff.removed == {"s"}

    def test_downgrade(self):
        diff = diff_picks(pick("8.14", s="2.0"), pick("8.15", s="1.0"))
        assert diff.downgraded == {"s": (V("2.0"), V("1.0"))}

    @given(pick_strategy(), pick_strategy())
    def test_partition_and_antisymmetry(self, a, b):
        diff = diff_picks(a, b)
        universe = set(a.selected) | set(b.selected)
        parts = [
            diff.added,
            diff.removed,
            set(diff.upgraded),
            set(diff.downgraded),
            diff.unchanged,
        ]
        assert set().union(*parts) == universe
        assert sum(len(p) for p in parts) == len(universe)
        for name, (old, new) in diff.upgraded.items():
            assert old < new
        for name, (old, new) in diff.downgraded.items():
            assert old > new
        back = diff_picks(b, a)
        assert diff.added == back.removed
        assert diff.removed == back.added
        assert set(diff.upgraded) == set(back.downgraded)
        assert diff.unchanged == back.unchanged


class TestUpgradePath:
    def release(self):
        release = Release(
            CV("2022.01.0"),
            [
                pick("8.12", core="1.0"),
                pick("8.13", core="1.0", lib="1.0"),
                pick("8.14", core="1.1", lib="1.0"),
                pick("8.15", core="1.1", lib="1.0", tool="0.9"),
            ],
        )
        return release

    def test_steps_cover_consecutive_toolchains(self):
        report = upgrade_path(self.release(), V("8.13"), V("8.15"))
        hops = [(str(s.from_toolchain), str(s.to_toolchain)) for s in report.steps]
        assert hops == [("8.13", "8.14"), ("8.14", "8.15")]
        assert report.monotone

    def test_same_endpoints_rejected(self):
        with pytest.raises(ReleaseError, match="increasing"):
            upgrade_path(self.release(), V("8.14"), V("8.14"))

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ReleaseError, match="increasing"):
            upgrade_path(self.release(), V("8.15"), V("8.13"))

    def test_missing_endpoint(self):
        with pytest.raises(ReleaseError, match="cover"):
            upgrade_path(self.release(), V("8.13"), V("9.0"))

    def test_removal_breaks_monotonicity(self):
        release = Release(
            CV("2022.01.0"),
            [pick("8.14", core="1.0", lib="1.0"), pick("8.15", core="1.0")],
        )
        report = upgrade_path(release, V("8.14"), V("8.15"))
        assert not report.monotone
        assert report.steps[0].diff.removed == {"lib"}

    def test_steps_compose(self):
        release = self.release()
        report = upgrade_path(release, V("8.12"), V("8.15"))
        state = dict(release.pick_for(V("8.12")).selected)
        for step in report.steps:
            for name in step.diff.removed:
                del state[name]
            for name in step.diff.added:
                state[name] = release.pick_for(step.to_toolchain).selected[name]
            for name, (_, new) in step.diff.upgraded.items():
                state[name] = new
            for name, (_, new) in step.diff.downgraded.items():
                state[name] = new
        assert state == release.pick_for(V("8.15")).selected


class TestLockfile:
    def release(self):
        release = Release(
            CV("2022.01.0"),
            [
                pick("8.14", core="1.0"),
                Pick(
                    toolchain=V("8.15"),
                    selected={"core": V("1.1")},
                    excluded={"legacy": "no version supports toolchain 8.15"},
                ),
            ],
        )
        return release

    def test_write_is_deterministic(self):
        release = self.release()
        assert write_lockfile(release) == write_lockfile(release)

    def test_round_trip(self):
        release = self.release()
        assert read_lockfile(write_lockfile(release)) == release

    def test_write_read_write_idempotent(self):
        data = write_lockfile(self.release())
        assert write_lockfile(read_lockfile(data)) == data

    def test_newline_terminated_sorted_keys(self):
        data = write_lockfile(self.release())
        assert data.endswith(b"\n")
        payload = json.loads(data)
        assert list(payload) == sorted(payload)
        assert list(payload["picks"][0]) == sorted(payload["picks"][0])

    def test_bad_version_text(self):
        payload = json.loads(write_lockfile(self.release()))
        payload["picks"][0]["selected"]["core"] = "not-a-version"
        with pytest.raises(LockfileError, match="core"):
            read_lockfile(json.dumps(payload).encode())

    def test_too_many_digits_names_the_field(self):
        digits = "1" * 5000
        payload = json.loads(write_lockfile(self.release()))
        payload["picks"][0]["selected"]["core"] = f"1.{digits}"
        with pytest.raises(
            LockfileError, match=r"lockfile picks\[0\]: field 'selected\.core': too many digits"
        ):
            read_lockfile(json.dumps(payload).encode())
        payload = json.loads(write_lockfile(self.release()))
        payload["version"] = f"2022.01.{digits}"
        with pytest.raises(LockfileError, match="lockfile: field 'version': too many digits"):
            read_lockfile(json.dumps(payload).encode())

    def test_overlapping_selected_excluded(self):
        payload = json.loads(write_lockfile(self.release()))
        payload["picks"][0]["excluded"]["core"] = "also excluded"
        with pytest.raises(LockfileError, match="core"):
            read_lockfile(json.dumps(payload).encode())

    def test_duplicate_toolchains_rejected(self):
        payload = json.loads(write_lockfile(self.release()))
        payload["picks"][1]["toolchain"] = payload["picks"][0]["toolchain"]
        with pytest.raises(LockfileError, match="duplicate"):
            read_lockfile(json.dumps(payload).encode())

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({(): [1]}, "lockfile: expected an object"),
            # the first missing field in the format's order, not the alphabet's
            ({("picks",): DROP, ("version",): DROP}, "lockfile: missing field 'version'"),
            ({("predecessor",): DROP}, "lockfile: missing field 'predecessor'"),
            ({("surprise",): 1}, "lockfile: unknown field 'surprise'"),
            ({("surprise",): 1, ("picks",): DROP}, "lockfile: missing field 'picks'"),
            ({("version",): 2022}, "lockfile: field 'version' has the wrong type"),
            ({("predecessor",): 2021}, "lockfile: field 'predecessor' has the wrong type"),
            ({("version",): "2022.1"},
             "lockfile: field 'version': expected 3 dotted fields, got 2 at offset 0 in '2022.1'"),
            ({("predecessor",): "22.01.0"},
             "lockfile: field 'predecessor': expected a 4-digit year at offset 0 in '22.01.0'"),
            ({("predecessor",): "2022.01.0"},
             "lockfile: release version 2022.01.0 must be greater than predecessor 2022.01.0"),
            ({("picks",): []}, "lockfile: a release needs at least one pick"),
            ({("picks", 1, "toolchain"): "8.14.0"}, "lockfile: duplicate pick for toolchain 8.14"),
            ({("picks", 0): "8.14"}, "lockfile picks[0]: expected an object"),
            ({("picks", 0, "excluded"): DROP}, "lockfile picks[0]: missing field 'excluded'"),
            ({("picks", 1, "note"): "hi"}, "lockfile picks[1]: unknown field 'note'"),
            ({("picks", 0, "toolchain"): 815},
             "lockfile picks[0]: field 'toolchain' has the wrong type"),
            ({("picks", 0, "toolchain"): "8..15"},
             "lockfile picks[0]: field 'toolchain': expected a digit at offset 2 in '8..15'"),
            ({("picks", 0, "selected"): ["core"]},
             "lockfile picks[0]: field 'selected' has the wrong type"),
            ({("picks", 0, "selected", "core"): 1},
             "lockfile picks[0]: field 'selected' must map names to version strings"),
            ({("picks", 1, "excluded", "legacy"): None},
             "lockfile picks[1]: field 'excluded' must map names to reason strings"),
        ],
        ids=["not-an-object", "missing-fields-in-format-order", "missing-field", "unknown-field",
             "missing-and-unknown-field", "version-not-text", "predecessor-not-text",
             "version-unparsable", "predecessor-unparsable", "version-not-above-predecessor",
             "empty-picks", "duplicate-toolchain", "pick-not-an-object", "pick-missing-field",
             "pick-unknown-field", "toolchain-not-text", "toolchain-unparsable",
             "selected-not-an-object", "selected-version-not-text", "excluded-reason-not-text"],
    )
    def test_bad_field_named(self, edits, message):
        # each edit sets the value at a path of keys, or drops it; the
        # empty path replaces the whole payload
        payload = json.loads(write_lockfile(self.release()))
        for path, value in edits.items():
            if not path:
                payload = value
                continue
            *parents, key = path
            container = payload
            for parent in parents:
                container = container[parent]
            if value is DROP:
                del container[key]
            else:
                container[key] = value
        with pytest.raises(LockfileError) as exc:
            read_lockfile(json.dumps(payload).encode())
        assert str(exc.value) == message

    def test_not_json(self):
        with pytest.raises(LockfileError, match="JSON"):
            read_lockfile(b"{nope")

    @given(release_strategy())
    def test_round_trip_random_releases(self, release):
        data = write_lockfile(release)
        recovered = read_lockfile(data)
        assert recovered == release
        assert write_lockfile(recovered) == data

    def test_round_trip_unordered_picks(self):
        release = Release(CV("2022.01.0"), [pick("8.15", core="1.1"), pick("8.12", core="1.0")])
        data = write_lockfile(release)
        assert [entry["toolchain"] for entry in json.loads(data)["picks"]] == ["8.12", "8.15"]
        assert read_lockfile(data) == release

    @given(release_arguments())
    def test_round_trip_any_release(self, arguments):
        version, picks, predecessor = arguments
        toolchains = [p.toolchain for p in picks]
        valid = (bool(picks) and len(set(toolchains)) == len(toolchains)
                 and (predecessor is None or version > predecessor))
        try:
            release = Release(version, picks, predecessor)
        except ReleaseError:
            assert not valid
            return
        assert valid
        data = write_lockfile(release)
        assert read_lockfile(data) == release
        assert write_lockfile(read_lockfile(data)) == data
