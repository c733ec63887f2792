from __future__ import annotations

import http.server
import json
import os
import re
import sys
import time
from functools import partial

import pytest

from conftest import (
    PLATFORM_FIXTURE, CountingHandler, cli_in_child, make_repo, mf, raw_manifest, write_fixture,
)
from pickforge import index
from pickforge.cli import EXIT_IO, main
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
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path / "nope")
        assert str(exc.value) == f"unreachable source: no index.json under {tmp_path / 'nope'}"

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

    def test_listed_version_that_is_a_directory(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "packages" / "alpha" / "versions.json").write_text('["1.0", "1.1"]')
        (tmp_path / "packages" / "alpha" / "1.1.json").mkdir()
        listing = tmp_path / "packages" / "alpha" / "versions.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{listing}: listed version '1.1' has no manifest file"

    def test_missing_package_directory(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "index.json").write_text(
            json.dumps({"toolchains": ["8.15"], "packages": ["alpha", "beta"]})
        )
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        listing = tmp_path / "packages" / "beta" / "versions.json"
        assert str(exc.value) == f"missing version listing {listing}"

    @pytest.mark.parametrize(
        "listing, problem",
        [
            (["8.15"], "expected an object"),
            ({"toolchains": ["8.15"]}, "missing field 'packages'"),
            ({"toolchains": ["8.15"], "packages": ["alpha"], "mirrors": []},
             "unknown field 'mirrors'"),
            ({"toolchains": "8.15", "packages": ["alpha"]},
             "field 'toolchains' has the wrong type"),
            ({"toolchains": ["8.15"], "packages": {"alpha": "1.0"}},
             "field 'packages' has the wrong type"),
            ({"toolchains": [8.15], "packages": ["alpha"]},
             "field 'toolchains' must be a list of versions"),
            ({"toolchains": ["8.15"], "packages": ["alpha", "alpha"]},
             "duplicate package name 'alpha'"),
        ],
        ids=["not-an-object", "missing-field", "unknown-field", "toolchains-not-a-list",
             "packages-not-a-list", "toolchains-not-texts", "duplicate-name"],
    )
    def test_malformed_index_names_the_problem(self, tmp_path, listing, problem):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "index.json").write_text(json.dumps(listing))
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{tmp_path / 'index.json'}: {problem}"

    def test_bad_constraint_among_repeated_texts_names_its_own_file(self, tmp_path):
        # constraint texts are shared between manifests; a malformed one
        # must still be reported against the manifest and field holding it
        shared = {"toolchain": ">=8.12", "depends": [["alpha", ">=1.0"]]}
        write_fixture(
            tmp_path,
            ["8.15"],
            [
                raw_manifest("alpha", "1.0", toolchain=">=8.12"),
                raw_manifest("beta", "1.0", **shared),
                raw_manifest("gamma", "1.0", **shared),
                raw_manifest(
                    "gamma",
                    "1.1",
                    toolchain=">=8.12",
                    depends=[["alpha", ">=1.0"], ["beta", ">=1,"]],
                ),
            ],
        )
        path = tmp_path / "packages" / "gamma" / "1.1.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == (
            f"{path}: field 'depends[1]': unknown operator '' at offset 4 in '>=1,'"
        )

    def test_too_many_digits_names_file_and_field(self, tmp_path):
        constraint = ">=1." + "1" * 5000
        write_fixture(
            tmp_path,
            ["8.15"],
            [
                raw_manifest("alpha", "1.0"),
                raw_manifest("beta", "1.0", depends=[["alpha", constraint]]),
            ],
        )
        path = tmp_path / "packages" / "beta" / "1.0.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == (
            f"{path}: field 'depends[0]': too many digits at offset 4 in {constraint!r}"
        )

    def test_package_directory_without_versions_listing(self, tmp_path):
        # a directory is not scanned for manifests: it needs the listing that
        # an HTTP source needs
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        listing = tmp_path / "packages" / "alpha" / "versions.json"
        listing.unlink()
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"missing version listing {listing}"

    def test_deterministic(self, tmp_path):
        write_fixture(
            tmp_path,
            ["8.15"],
            [raw_manifest("alpha", "1.0"), raw_manifest("beta", "1.0")],
        )
        assert load_repository(tmp_path) == load_repository(tmp_path)

    def test_index_that_is_a_directory(self, tmp_path):
        (tmp_path / "index.json").mkdir()
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"unreachable source: no index.json under {tmp_path}"

    def test_trailing_slash_on_the_source_names_the_same_paths(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        (tmp_path / "index.json").write_text(
            json.dumps({"toolchains": ["8.15"], "packages": ["alpha", "beta"]})
        )
        with pytest.raises(RepositoryError) as exc:
            load_repository(f"{tmp_path}/")
        listing = tmp_path / "packages" / "beta" / "versions.json"
        assert str(exc.value) == f"missing version listing {listing}"

    def test_missing_and_unknown_field_reports_the_missing_one(self, tmp_path):
        broken = raw_manifest("alpha", "1.0", extra=1)
        del broken["smoke_cmd"]
        write_fixture(tmp_path, ["8.15"], [broken])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{path}: missing field 'smoke_cmd'"

    def test_first_missing_field_in_field_order(self, tmp_path):
        broken = raw_manifest("alpha", "1.0")
        del broken["smoke_cmd"], broken["toolchain"]
        write_fixture(tmp_path, ["8.15"], [broken])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{path}: missing field 'toolchain'"

    def test_first_unknown_field_in_file_order(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0", zeta=1, alpha=2)])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{path}: unknown field 'zeta'"

    def test_wrong_typed_field_text(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0", dev="no")])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{path}: field 'dev' has the wrong type"

    def test_manifest_larger_than_one_read_loads_whole(self, tmp_path):
        # well over the reader's 64 KiB chunk, and not a multiple of it
        long_text = "x" * (5 * 2**16 + 7)
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0", build_cmd=long_text)])
        repo = load_repository(tmp_path)
        assert repo.packages["alpha"][parse_version("1.0")].build_cmd == long_text

    def test_version_differing_from_its_file_stem_text(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        path = tmp_path / "packages" / "alpha" / "1.0.json"
        path.write_text(json.dumps(raw_manifest("alpha", "1.0.0")))
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == f"{path}: field 'version' is 1.0.0, expected '1.0'"

    def test_equal_version_texts_load_to_equal_versions_rendering_that_text(self, tmp_path):
        write_fixture(
            tmp_path,
            ["1.0.0", "2.0-rc1"],
            [
                raw_manifest("alpha", "1.0.0"),
                raw_manifest("alpha", "2.0-rc1"),
                raw_manifest("beta", "1.0.0", depends=[["alpha", ">=1.0.0"]]),
                raw_manifest("beta", "2.0-rc1"),
                raw_manifest("gamma", "1.0"),
            ],
        )
        repo = load_repository(tmp_path)
        for text in ("1.0.0", "2.0-rc1"):
            a, b = (
                repo.manifest(name, parse_version(text)).version for name in ("alpha", "beta")
            )
            assert a == b == parse_version(text)
            assert str(a) == str(b) == text
        assert [str(t) for t in repo.toolchains] == ["1.0.0", "2.0-rc1"]
        (gamma,) = repo.packages["gamma"]
        assert gamma == parse_version("1.0.0") and str(gamma) == "1.0"
        (_, bound), = repo.manifest("beta", gamma).depends[0][1].clauses[0]
        assert str(bound) == "1.0.0"


class TestHostileLocalFiles:
    """Index files that are not regular files, or too large, end the load
    with a RepositoryError naming the file, never a hang or a MemoryError."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize(
        "relpath", ["packages/alpha/1.0.json", "packages/alpha/versions.json", "index.json"]
    )
    def test_fifo_fails_the_load_without_blocking(self, tmp_path, relpath):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        fifo = tmp_path / relpath
        fifo.unlink()
        os.mkfifo(fifo)
        proc = cli_in_child("resolve", "--index", str(tmp_path), "--toolchain", "8.15")
        assert proc.returncode == EXIT_IO
        assert proc.stderr == f"pickforge: error: {fifo}: not a regular file\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_manifest_linked_to_an_endless_device(self, tmp_path):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        manifest = tmp_path / "packages" / "alpha" / "1.0.json"
        manifest.unlink()
        manifest.symlink_to("/dev/zero")
        proc = cli_in_child("resolve", "--index", str(tmp_path), "--toolchain", "8.15")
        assert proc.returncode == EXIT_IO
        assert proc.stderr == f"pickforge: error: {manifest}: not a regular file\n"

    def test_oversized_local_manifest(self, tmp_path, monkeypatch, capsys):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        manifest = tmp_path / "packages" / "alpha" / "1.0.json"
        manifest.write_text(manifest.read_text().ljust(2048))  # still valid JSON
        monkeypatch.setattr(index, "FETCH_MAX_BYTES", 1024)
        named = f"{manifest} exceeds 1024 bytes"
        with pytest.raises(RepositoryError) as exc:
            load_repository(tmp_path)
        assert str(exc.value) == named
        assert main(["resolve", "--index", str(tmp_path), "--toolchain", "8.15"]) == EXIT_IO
        assert capsys.readouterr().err == f"pickforge: error: {named}\n"

    def test_manifest_at_the_cap_loads(self, tmp_path, monkeypatch):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        manifest = tmp_path / "packages" / "alpha" / "1.0.json"
        manifest.write_text(manifest.read_text().ljust(1024))
        monkeypatch.setattr(index, "FETCH_MAX_BYTES", 1024)
        assert len(load_repository(tmp_path).packages["alpha"]) == 1

    @pytest.mark.parametrize(
        "relpath", ["packages/alpha/1.0.json", "packages/alpha/versions.json", "index.json"]
    )
    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"[" * 1000 + b"]" * 1000, "maximum recursion depth exceeded"),
            (b'{"name": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
            pytest.param(
                b"9" * 5000, "Exceeds the limit",
                marks=pytest.mark.skipif(
                    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs a limit on integer digits",
                ),
            ),
        ],
        ids=["nested-1000-deep", "latin-1", "long-integer"],
    )
    def test_unparsable_file_is_named(self, tmp_path, relpath, content, reason):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        path = tmp_path / relpath
        path.write_bytes(content)
        with pytest.raises(RepositoryError, match=re.escape(f"{path}: invalid JSON (")):
            load_repository(tmp_path)
        proc = cli_in_child("resolve", "--index", str(tmp_path), "--toolchain", "8.15")
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith(f"pickforge: error: {path}: invalid JSON (")
        assert reason in proc.stderr
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


    @pytest.mark.parametrize("listed", ["1.0\x00", "../../1.0", "1.0/extra"])
    def test_listed_version_must_parse_before_it_names_a_file(self, tmp_path, listed):
        write_fixture(tmp_path, ["8.15"], [raw_manifest("alpha", "1.0")])
        listing = tmp_path / "packages" / "alpha" / "versions.json"
        listing.write_text(json.dumps([listed]))
        with pytest.raises(RepositoryError, match=re.escape(f"{listing}: field '[0]': ")):
            load_repository(tmp_path)


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


def _layout_paths(root) -> list[str]:
    """Every file a load of the index at ``root`` reads, in the order it reads
    them, as paths from ``root``."""
    paths = ["/index.json"]
    for name in json.loads((root / "index.json").read_bytes())["packages"]:
        listing = f"/packages/{name}/versions.json"
        stems = json.loads((root / listing[1:]).read_bytes())
        paths += [listing, *(f"/packages/{name}/{stem}.json" for stem in stems)]
    return paths


class _EndlessBody(http.server.BaseHTTPRequestHandler):
    """Answers every request with a body of up to 32 MiB, far more than the
    cap a test sets, and records whether the client left before its end."""

    outcomes: list[str] = []

    def do_GET(self):
        self.send_response(200)
        self.end_headers()
        try:
            for _ in range(512):
                self.wfile.write(b" " * 2**16)
        except OSError:
            type(self).outcomes.append("client left")
            return
        type(self).outcomes.append("sent whole")

    def log_message(self, *args):
        pass


class _ServerError(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        self.send_error(500)

    def log_message(self, *args):
        pass


class _Moved(CountingHandler):
    """Serves its directory, and redirects each path under /old/ to the same
    path under /new/."""

    def do_GET(self):
        if not self.path.startswith("/old/"):
            return super().do_GET()
        self.send_response(301)
        self.send_header("Location", "/new/" + self.path.removeprefix("/old/"))
        self.end_headers()


# a file of a one-package index that a load cannot read: its path, and the
# error of a directory load, or of an HTTP load, of that index
_UNREADABLE_FILES = {
    "index": ("index.json", "unreachable source: no index.json under {root}"),
    "listing": ("packages/alpha/versions.json",
                "missing version listing {root}/packages/alpha/versions.json"),
    "manifest": ("packages/alpha/1.0.json", "{root}/packages/alpha/versions.json: "
                 "listed version '1.0' has no manifest file"),
}


class TestHttpIngestion:
    """Every HTTP load fetches the server's current files and writes nothing;
    ``empty_home`` is where a load that wrote would most likely write."""

    def test_published_version_is_seen_on_the_next_load(self, serve_index, tmp_path, empty_home):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        url = start(source)
        index_bytes = (source / "index.json").read_bytes()
        assert sorted(load_repository(url).packages["alpha"]) == [parse_version("1.0")]
        # publishing a version adds a manifest and lists it; index.json, which
        # names only packages, is left as it was
        (source / "packages" / "alpha" / "1.1.json").write_text(
            json.dumps(raw_manifest("alpha", "1.1"))
        )
        (source / "packages" / "alpha" / "versions.json").write_text('["1.0", "1.1"]')
        assert (source / "index.json").read_bytes() == index_bytes
        assert sorted(load_repository(url).packages["alpha"]) == [
            parse_version("1.0"), parse_version("1.1"),
        ]
        assert list(empty_home.iterdir()) == []

    def test_manifest_revised_in_place_is_seen_on_the_next_load(
        self, serve_index, tmp_path, empty_home
    ):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0"), raw_manifest("beta", "1.0")])
        url = start(source)
        version = parse_version("1.0")
        assert load_repository(url).manifest("alpha", version).depends == ()
        (source / "packages" / "alpha" / "1.0.json").write_text(
            json.dumps(raw_manifest("alpha", "1.0", depends=[["beta", ">=1.0"]]))
        )
        depends = load_repository(url).manifest("alpha", version).depends
        assert [name for name, _ in depends] == ["beta"]
        assert list(empty_home.iterdir()) == []

    def test_every_load_requests_every_file(self, serve_index, empty_home):
        start, requests = serve_index
        url = start(PLATFORM_FIXTURE)
        layout = _layout_paths(PLATFORM_FIXTURE)
        assert len(layout) == 160
        first = load_repository(url)
        assert requests == layout
        assert load_repository(url) == first
        assert requests == layout * 2
        assert list(empty_home.iterdir()) == []

    @pytest.mark.parametrize(
        "broken", ["malformed-manifest", "dangling-dependency", "missing-listing"]
    )
    def test_mended_index_loads_on_the_next_try(self, serve_index, tmp_path, empty_home, broken):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        manifest = source / "packages" / "alpha" / "1.0.json"
        listing = source / "packages" / "alpha" / "versions.json"
        good_manifest, good_listing = manifest.read_bytes(), listing.read_bytes()
        url = start(source)
        if broken == "malformed-manifest":
            manifest.write_bytes(good_manifest[:-1])
            expected = f"{url}/packages/alpha/1.0.json: invalid JSON ("
        elif broken == "dangling-dependency":
            manifest.write_text(json.dumps(raw_manifest("alpha", "1.0", depends=[["ghost", "*"]])))
            expected = (
                f"invalid repository at {url}: "
                "DanglingDependency: alpha: alpha 1.0 depends on absent package ghost"
            )
        else:
            listing.unlink()
            expected = f"missing version listing {url}/packages/alpha/versions.json"
        with pytest.raises(RepositoryError) as exc:
            load_repository(url)
        assert str(exc.value).startswith(expected)
        manifest.write_bytes(good_manifest)
        listing.write_bytes(good_listing)
        assert len(load_repository(url).packages["alpha"]) == 1
        assert list(empty_home.iterdir()) == []

    @pytest.mark.parametrize("missing", ["index", "listing", "manifest"])
    def test_missing_file_is_named_as_a_local_load_names_it(self, serve_index, tmp_path, missing):
        # an HTTP 404 reads as a missing file, not as a server that is down
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        relpath, message = _UNREADABLE_FILES[missing]
        (source / relpath).unlink()
        url = start(source)
        for root in (source, url):
            with pytest.raises(RepositoryError) as exc:
                load_repository(root)
            assert str(exc.value) == message.format(root=root)

    @pytest.mark.parametrize("directory", ["index", "listing", "manifest"])
    def test_directory_is_named_as_a_local_load_names_it(self, serve_index, tmp_path, directory):
        # the server redirects a directory's path to that path plus "/"; the
        # load does not read the listing it redirects to as the file
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        relpath, message = _UNREADABLE_FILES[directory]
        (source / relpath).unlink()
        (source / relpath).mkdir()
        url = start(source)
        for root in (source, url):
            with pytest.raises(RepositoryError) as exc:
                load_repository(root)
            assert str(exc.value) == message.format(root=root)

    def test_redirect_to_another_path_is_followed(self, serve_index, tmp_path):
        start, requests = serve_index
        (tmp_path / "new").mkdir()
        write_fixture(tmp_path / "new", ["8.15"], [raw_manifest("alpha", "1.0")])
        url = start(None, partial(_Moved, directory=str(tmp_path)))
        assert load_repository(f"{url}/old") == load_repository(tmp_path / "new")
        assert requests == [
            "/new/index.json", "/new/packages/alpha/versions.json", "/new/packages/alpha/1.0.json",
        ]

    def test_server_error_is_an_unreachable_source(self, serve_index):
        start, _ = serve_index
        url = start(None, _ServerError)
        with pytest.raises(RepositoryError) as exc:
            load_repository(url)
        assert str(exc.value) == (
            f"unreachable source {url}/index.json: HTTP Error 500: Internal Server Error"
        )

    @pytest.mark.parametrize("hostile", ["name", "version"])
    def test_hostile_listing_writes_nothing(self, serve_index, tmp_path, empty_home, hostile):
        start, requests = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        if hostile == "name":
            (source / "index.json").write_text(
                json.dumps({"toolchains": ["8.15"], "packages": ["../../../escaped"]})
            )
        else:
            # the server normalises the traversing request's path to this file
            (source / "packages" / "alpha" / "versions.json").write_text('["../../../../escaped"]')
            (source / "escaped.json").write_text("{}")
        with pytest.raises(RepositoryError, match="invalid package name|versions.json"):
            load_repository(start(source))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["home", "src"]
        assert list(empty_home.iterdir()) == []
        # no request leaves the layout of the names that passed the check
        assert requests == (
            ["/index.json"] if hostile == "name" else ["/index.json", "/packages/alpha/versions.json"]
        )

    def test_oversized_body_is_refused(self, serve_index, tmp_path, monkeypatch, capsys):
        start, _ = serve_index
        source = tmp_path / "src"
        source.mkdir()
        write_fixture(source, ["8.15"], [raw_manifest("alpha", "1.0")])
        manifest = source / "packages" / "alpha" / "1.0.json"
        manifest.write_text(manifest.read_text() + " " * 4096)  # still valid JSON
        monkeypatch.setattr(index, "FETCH_MAX_BYTES", 1024)
        url = start(source)
        named = f"{url}/packages/alpha/1.0.json exceeds 1024 bytes"
        with pytest.raises(RepositoryError, match=re.escape(named)):
            load_repository(url)
        code = main(["resolve", "--index", url, "--toolchain", "8.15"])
        assert code == EXIT_IO
        assert named in capsys.readouterr().err

    def test_endless_body_is_read_only_to_the_cap(self, serve_index, monkeypatch):
        # a body is read to one byte past the cap, then the connection is
        # dropped: a server that never ends its body cannot fill memory
        start, _ = serve_index
        monkeypatch.setattr(index, "FETCH_MAX_BYTES", 1024)
        _EndlessBody.outcomes = []
        url = start(None, _EndlessBody)
        with pytest.raises(RepositoryError) as exc:
            index._fetch(f"{url}/index.json")
        assert str(exc.value) == f"{url}/index.json exceeds 1024 bytes"
        for _ in range(100):  # the handler notices the closed connection on its next write
            if _EndlessBody.outcomes:
                break
            time.sleep(0.05)
        assert _EndlessBody.outcomes == ["client left"]

    def test_unreachable_source(self):
        with pytest.raises(RepositoryError, match="unreachable"):
            load_repository("http://127.0.0.1:9/index.json")


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
