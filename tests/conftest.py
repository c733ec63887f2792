from __future__ import annotations

import http.server
import json
import os
import resource
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest

from pickforge.index import PackageManifest, Repository, load_repository
from pickforge.versioning import parse_constraint, parse_version

REPO_ROOT = Path(__file__).resolve().parent.parent
PLATFORM_FIXTURE = REPO_ROOT / "fixtures" / "platform"
SMOKE_FIXTURE = REPO_ROOT / "fixtures" / "smoke"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# packages planted in the platform fixture; tests assert on them by name
SUCCESSION_VIOLATORS = {"strictweld", "tautline", "thornlatch"}
DEV_AT_RC = {"nightjar": "4f2c9aa", "quillfeather": "b81d0ce"}
NONE_AT_RC = {"oldstone", "reedmace"}
RELEASE_UNIVERSE_EXCLUDES = set(DEV_AT_RC) | NONE_AT_RC
# the SHA-256 of the canonical JSON of the smoke fixture's plan of every package
SMOKE_PLAN_DIGEST = "5dd95a4eda0d4a2a1a5b979646458f2d02e4891b57798aabea0ece85f847cb20"


def mf(
    name,
    version,
    toolchain="*",
    depends=(),
    conflicts=(),
    dev=False,
    source_ref=None,
    deprecated=False,
    maintainer="someone@example.org",
    build_cmd="true",
    smoke_cmd="true",
) -> PackageManifest:
    """Terse manifest builder for inline test repositories."""
    return PackageManifest(
        name=name,
        version=parse_version(version),
        toolchain=parse_constraint(toolchain),
        depends=tuple((d, parse_constraint(c)) for d, c in depends),
        conflicts=tuple((x, parse_constraint(c)) for x, c in conflicts),
        dev=dev,
        source_ref=source_ref,
        deprecated=deprecated,
        maintainer=maintainer,
        build_cmd=build_cmd,
        smoke_cmd=smoke_cmd,
    )


def make_repo(toolchains, manifests) -> Repository:
    packages: dict = {}
    for manifest in manifests:
        packages.setdefault(manifest.name, {})[manifest.version] = manifest
    return Repository(
        toolchains=tuple(parse_version(t) for t in toolchains), packages=packages
    )


def write_fixture(root: Path, toolchains, manifests) -> None:
    """Write raw manifest dicts in the on-disk index layout."""
    by_name: dict[str, list[dict]] = {}
    for manifest in manifests:
        by_name.setdefault(manifest["name"], []).append(manifest)
    (root / "index.json").write_text(
        json.dumps({"toolchains": toolchains, "packages": sorted(by_name)})
    )
    for name, entries in by_name.items():
        pkg_dir = root / "packages" / name
        pkg_dir.mkdir(parents=True)
        (pkg_dir / "versions.json").write_text(
            json.dumps([e["version"] for e in entries])
        )
        for entry in entries:
            (pkg_dir / f"{entry['version']}.json").write_text(json.dumps(entry))


def raw_manifest(name, version, **overrides) -> dict:
    base = {
        "name": name,
        "version": version,
        "toolchain": "*",
        "depends": [],
        "conflicts": [],
        "dev": False,
        "source_ref": None,
        "deprecated": False,
        "maintainer": "m@example.org",
        "build_cmd": "true",
        "smoke_cmd": "true",
    }
    base.update(overrides)
    return base


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def cli_in_child(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python -m pickforge.cli *argv`` in a child process with 20 s and
    1 GiB of address space, so that an op that blocks or reads without end
    fails the test instead of hanging the suite or filling memory.  Output
    is text; ``stdin``, if given, is written to the child through a pipe."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pickforge.cli", *argv],
        input=stdin, capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=_limit_address_space,
    )


@pytest.fixture(scope="session")
def platform_repo() -> Repository:
    return load_repository(PLATFORM_FIXTURE)


@pytest.fixture(scope="session")
def smoke_repo() -> Repository:
    return load_repository(SMOKE_FIXTURE)


class CountingHandler(http.server.SimpleHTTPRequestHandler):
    requests: list[str] = []

    def do_GET(self):
        type(self).requests.append(self.path)
        super().do_GET()

    def log_message(self, *args):
        pass


def start_server(directory: Path, handler=None) -> tuple[http.server.ThreadingHTTPServer, str]:
    """A server of ``directory`` on localhost, or of ``handler``'s answers if
    given, running in a thread, and its base URL; the caller shuts it down."""
    handler = handler or partial(CountingHandler, directory=str(directory))
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def serve_index():
    """Serve a directory, or a handler's answers, over localhost HTTP; yields
    (make_url, request_log).  ``make_url`` takes ``start_server``'s arguments."""
    servers = []

    def start(directory: Path | None, handler=None) -> str:
        server, url = start_server(directory, handler)
        servers.append(server)
        return url

    CountingHandler.requests = []
    yield start, CountingHandler.requests
    for server in servers:
        server.shutdown()


@pytest.fixture()
def empty_home(tmp_path, monkeypatch) -> Path:
    """An empty directory that is the test's working directory, ``HOME`` and
    ``XDG_CACHE_HOME``: where a load that wrote a file would leave it."""
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.chdir(home)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("XDG_CACHE_HOME", str(home / ".cache"))
    return home
