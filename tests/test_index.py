from __future__ import annotations

import json

import pytest

from conftest import PLATFORM_FIXTURE, make_repo, mf, raw_manifest, write_fixture
from pickforge.index import (
    DANGLING_DEPENDENCY,
    KEY_MISMATCH,
    MISSING_SOURCE_REF,
    SELF_CONFLICT,
    SELF_DEPENDENCY,
    UNORDERED_TOOLCHAINS,
    RepositoryError,
    UnknownPackageError,
    compatible_versions,
    load_repository,
    validate_repository,
)
from pickforge.versioning import parse_version, satisfies


class TestLoadLocal:
    def test_small_fixture(self, tmp_path):
        write_fixture(
            tmp_path,
            ["8.14", "8.15"],
            [
                raw_manifest("alpha", "1.0"),
                raw_manifest("alpha", "1.1"),
                raw_manifest("beta", "2.0", depends=[["alpha", ">=1.0"]]),
            ],
        )
        repo = load_repository(tmp_path)
        assert sorted(repo.packages) == ["alpha", "beta"]
        assert len(repo.packages["alpha"]) == 2
        assert [str(t) for t in repo.toolchains] == ["8.14", "8.15"]

    def test_dangling_dependency_names_both_packages(self, tmp_path):
        write_fixture(
            tmp_path,
            ["8.15"],
            [raw_manifest("alpha", "1.0", depends=[["ghost", "*"]])],
        )
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert "alpha" in str(exc.value) and "ghost" in str(exc.value)

    def test_missing_index(self, tmp_path):
        with pytest.raises(RepositoryError, match="unreachable"):
            load_repository(tmp_path / "nope")

    def test_missing_manifest_field(self, tmp_path):
        broken = raw_manifest("alpha", "1.0")
        del broken["maintainer"]
        write_fixture(tmp_path, ["8.15"], [broken])
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert "maintainer" in str(exc.value) and "alpha" in str(exc.value)

    def test_unknown_manifest_field(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0", extra=1)])
        with pytest.raises(RepositoryError, match="extra"):
            load_repository(tmp_path)

    def test_bad_constraint_names_file_and_field(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0", toolchain="==1")])
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert "toolchain" in str(exc.value) and "1.0.json" in str(exc.value)

    def test_version_key_must_match_manifest(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        data = json.loads(path.read_text())
        data["version"] = "2.0"
        path.write_text(json.dumps(data))
        with pytest.raises(RepositoryError, match="version"):
            load_repository(tmp_path)

    def test_listed_version_without_file(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "packages" / "alpha" / "versions.json").write_text('["1.0", "9.9"]')
        with pytest.raises(RepositoryError, match="9.9"):
            load_repository(tmp_path)

    def test_scan_fallback_without_versions_listing(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "packages" / "alpha" / "versions.json").unlink()
        repo = load_repository(tmp_path)
        assert len(repo.packages["alpha"]) == 1

    def test_deterministic(self, tmp_path):
        write_fixture(
            tmp_path,
            ["8.15"],
            [raw_manifest("alpha", "1.0"), raw_manifest("beta", "1.0")],
        )
        assert load_repository(tmp_path) == load_repository(tmp_path)


class TestValidateRepository:
    def test_valid_fixture_is_clean(self, platform_repo):
        assert validate_repository(platform_repo) == []

    def test_self_dependency(self):
        repo = make_repo(["8.15"], [mf("a", "1.0", depends=[("a", "*")])])
        issues = validate_repository(repo)
        assert [i.kind for i in issues] == [SELF_DEPENDENCY]

    def test_self_conflict(self):
        repo = make_repo(["8.15"], [mf("a", "1.0", conflicts=[("a", "*")])])
        assert [i.kind for i in validate_repository(repo)] == [SELF_CONFLICT]

    def test_unordered_toolchains(self):
        repo = make_repo(["8.15", "8.13"], [mf("a", "1.0")])
        assert [i.kind for i in validate_repository(repo)] == [UNORDERED_TOOLCHAINS]

    def test_duplicate_toolchains_are_unordered(self):
        repo = make_repo(["8.15", "8.15"], [mf("a", "1.0")])
        assert [i.kind for i in validate_repository(repo)] == [UNORDERED_TOOLCHAINS]

    def test_dev_without_source_ref(self):
        repo = make_repo(["8.15"], [mf("a", "1.0", dev=True)])
        assert [i.kind for i in validate_repository(repo)] == [MISSING_SOURCE_REF]

    def test_dangling_reference(self):
        repo = make_repo(["8.15"], [mf("a", "1.0", depends=[("ghost", "*")])])
        assert [i.kind for i in validate_repository(repo)] == [DANGLING_DEPENDENCY]

    def test_key_mismatch(self):
        good = mf("a", "1.0")
        repo = make_repo(["8.15"], [good])
        repo.packages["b"] = {parse_version("1.0"): good}
        kinds = [i.kind for i in validate_repository(repo)]
        assert KEY_MISMATCH in kinds

    def test_never_mutates(self):
        repo = make_repo(["8.15", "8.13"], [mf("a", "1.0", depends=[("ghost", "*")])])
        before = repr(repo)
        validate_repository(repo)
        assert repr(repo) == before


class TestCompatibleVersions:
    def repo(self):
        return make_repo(
            ["8.12", "8.13", "8.14", "8.15"],
            [
                mf("p", "1.0", toolchain="<8.15"),
                mf("p", "2.0", toolchain=">=8.14"),
                mf("q", "3.0-dev", toolchain=">=8.15", dev=True, source_ref="abc"),
            ],
        )

    def test_both_satisfy(self):
        got = compatible_versions(self.repo(), "p", parse_version("8.14"))
        assert [str(v) for v in got] == ["2.0", "1.0"]

    def test_constraint_excludes(self):
        got = compatible_versions(self.repo(), "p", parse_version("8.15"))
        assert [str(v) for v in got] == ["2.0"]

    def test_dev_filter(self):
        repo = self.repo()
        assert compatible_versions(repo, "q", parse_version("8.15")) == []
        got = compatible_versions(repo, "q", parse_version("8.15"), include_dev=True)
        assert [str(v) for v in got] == ["3.0-dev"]

    def test_unknown_package(self):
        with pytest.raises(UnknownPackageError):
            compatible_versions(self.repo(), "ghost", parse_version("8.15"))

    def test_matches_brute_force_over_fixture(self, platform_repo):
        for name in sorted(platform_repo.packages):
            for toolchain in platform_repo.toolchains:
                for include_dev in (False, True):
                    got = compatible_versions(platform_repo, name, toolchain, include_dev)
                    want = sorted(
                        (
                            v
                            for v, m in platform_repo.packages[name].items()
                            if satisfies(toolchain, m.toolchain)
                            and (include_dev or not m.dev)
                        ),
                        reverse=True,
                    )
                    assert got == want
                    assert all(a > b for a, b in zip(got, got[1:]))


class TestHttpIngestion:
    def test_second_load_hits_cache(self, serve_index, tmp_path):
        start, requests = serve_index
        url = start(PLATFORM_FIXTURE)
        first = load_repository(url, cache_dir=tmp_path)
        first_count = len(requests)
        assert first_count > 1  # index plus per-package files
        second = load_repository(url, cache_dir=tmp_path)
        assert second == first
        # only index.json is re-fetched to learn the digest
        assert requests[first_count:] == ["/index.json"]

    def test_changed_index_is_mirrored_afresh(self, serve_index, tmp_path):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        cache = tmp_path / "cache"
        url = start(source)
        first = load_repository(url, cache_dir=cache)
        # publish a new version: the index digest changes, so a fresh mirror
        # is built instead of serving the stale cache entry
        (source / "packages" / "alpha" / "2.0.json").write_text(
            json.dumps(raw_manifest("alpha", "2.0"))
        )
        (source / "packages" / "alpha" / "versions.json").write_text('["1.0", "2.0"]')
        (source / "index.json").write_text(
            json.dumps({"toolchains": ["8.15"], "packages": ["alpha"]}, indent=1)
        )
        second = load_repository(url, cache_dir=cache)
        assert len(first.packages["alpha"]) == 1
        assert len(second.packages["alpha"]) == 2

    def test_cache_env_var(self, serve_index, tmp_path, monkeypatch):
        start, _ = serve_index
        url = start(PLATFORM_FIXTURE)
        monkeypatch.setenv("PICKFORGE_CACHE", str(tmp_path / "env-cache"))
        repo = load_repository(url)
        assert len(repo.packages) == 50
        assert any((tmp_path / "env-cache").iterdir())

    def test_failed_mirror_leaves_no_cache_entry(self, serve_index, tmp_path):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        (source / "packages" / "alpha" / "1.0.json").unlink()  # listed but absent
        cache = tmp_path / "cache"
        url = start(source)
        with pytest.raises(RepositoryError, match="unreachable"):
            load_repository(url, cache_dir=cache)
        assert not any(p for p in cache.glob("*") if p.is_dir())

    @pytest.mark.parametrize("hostile", ["name", "version"])
    def test_hostile_listing_writes_nothing_outside_cache(self, serve_index, tmp_path, hostile):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        if hostile == "name":
            (source / "index.json").write_text(
                json.dumps({"toolchains": ["8.15"], "packages": ["../../../escaped"]})
            )
        else:
            # the server normalises the traversing request's path to this
            # file, so an unchecked mirror fetches it and writes it out
            (source / "packages" / "alpha" / "versions.json").write_text('["../../../../escaped"]')
            (source / "escaped.json").write_text("{}")
        with pytest.raises(RepositoryError, match="invalid package name|versions.json"):
            load_repository(start(source), cache_dir=tmp_path / "cache")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "src"]
        assert not any(p for p in (tmp_path / "cache").glob("*") if p.is_dir())

    def test_unreachable_source(self, tmp_path):
        with pytest.raises(RepositoryError, match="unreachable"):
            load_repository("http://127.0.0.1:9/index.json", cache_dir=tmp_path)


class TestRepositoryAccessors:
    def test_versions_newest_first(self, platform_repo):
        got = platform_repo.versions("vervain")
        assert [str(v) for v in got] == ["2.2", "2.0"]

    def test_versions_unknown_package(self, platform_repo):
        with pytest.raises(UnknownPackageError):
            platform_repo.versions("ghost")

    def test_manifest_lookup(self, platform_repo):
        manifest = platform_repo.manifest("vervain", parse_version("2.2"))
        assert manifest.name == "vervain"

    def test_manifest_unknown_version(self, platform_repo):
        with pytest.raises(UnknownPackageError):
            platform_repo.manifest("vervain", parse_version("9.9"))
