"""Package repository: manifest loading, validation, and queries.

On-disk layout of an index (local directory or HTTP base URL):

    index.json                       {"toolchains": [...], "packages": [...]}
    packages/<name>/versions.json    ["1.0", "1.1", ...]
    packages/<name>/<version>.json   one manifest per released version

``versions.json`` exists so that an HTTP source is enumerable without
directory listings; local loads fall back to scanning the directory when
it is absent.  HTTP sources are mirrored into a cache directory keyed by
the content digest of ``index.json``; reloading an unchanged index is
served entirely from the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import PickforgeError
from .versioning import (
    Constraint,
    Version,
    compare_versions,
    parse_constraint,
    parse_version,
    satisfies,
)

CACHE_ENV_VAR = "PICKFORGE_CACHE"

# seconds an HTTP source may stall one request before the load fails
FETCH_TIMEOUT_S = 30

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")

# validation issue kinds
SELF_DEPENDENCY = "SelfDependency"
SELF_CONFLICT = "SelfConflict"
DUPLICATE_DEPENDENCY = "DuplicateDependency"
DUPLICATE_CONFLICT = "DuplicateConflict"
MISSING_SOURCE_REF = "MissingSourceRef"
UNORDERED_TOOLCHAINS = "UnorderedToolchains"
DANGLING_DEPENDENCY = "DanglingDependency"
DANGLING_CONFLICT = "DanglingConflict"
KEY_MISMATCH = "KeyMismatch"


class RepositoryError(PickforgeError):
    """A repository source could not be read or failed validation."""


class UnknownPackageError(PickforgeError):
    """A package name is not present in the repository."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown package {name!r}")


@dataclass(frozen=True)
class PackageManifest:
    """Declared metadata for one (package, version)."""

    name: str
    version: Version
    toolchain: Constraint
    depends: tuple[tuple[str, Constraint], ...] = ()
    conflicts: tuple[tuple[str, Constraint], ...] = ()
    dev: bool = False
    source_ref: str | None = None
    deprecated: bool = False
    maintainer: str = ""
    build_cmd: str = "true"
    smoke_cmd: str = "true"


@dataclass
class Repository:
    """Immutable-by-convention index of manifests plus the toolchain list."""

    toolchains: tuple[Version, ...]
    packages: dict[str, dict[Version, PackageManifest]] = field(default_factory=dict)

    def manifest(self, name: str, version: Version) -> PackageManifest:
        try:
            return self.packages[name][version]
        except KeyError:
            raise UnknownPackageError(f"{name} {version}") from None

    def versions(self, name: str) -> list[Version]:
        """All versions of a package, newest first."""
        if name not in self.packages:
            raise UnknownPackageError(name)
        return sorted(self.packages[name], reverse=True)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    package: str | None
    detail: str

    def __str__(self) -> str:
        scope = f"{self.package}: " if self.package else ""
        return f"{self.kind}: {scope}{self.detail}"


def validate_repository(repo: Repository) -> list[ValidationIssue]:
    """Return every invariant violation; an empty list means the repository is valid."""
    issues: list[ValidationIssue] = []
    for prev, cur in zip(repo.toolchains, repo.toolchains[1:]):
        if compare_versions(prev, cur) >= 0:
            issues.append(
                ValidationIssue(
                    UNORDERED_TOOLCHAINS,
                    None,
                    f"toolchain {cur} does not follow {prev}",
                )
            )
    for name in sorted(repo.packages):
        for version in sorted(repo.packages[name]):
            manifest = repo.packages[name][version]
            issues.extend(_manifest_issues(repo, name, version, manifest))
    return issues


def _manifest_issues(
    repo: Repository, name: str, version: Version, manifest: PackageManifest
) -> list[ValidationIssue]:
    issues = []
    label = f"{name} {version}"
    if manifest.name != name or compare_versions(manifest.version, version) != 0:
        issues.append(
            ValidationIssue(
                KEY_MISMATCH,
                name,
                f"keyed as {label} but declares {manifest.name} {manifest.version}",
            )
        )
    seen_deps: set[str] = set()
    for target, _ in manifest.depends:
        if target == name:
            issues.append(ValidationIssue(SELF_DEPENDENCY, name, f"{label} depends on itself"))
        if target in seen_deps:
            issues.append(
                ValidationIssue(DUPLICATE_DEPENDENCY, name, f"{label} lists {target} twice")
            )
        seen_deps.add(target)
        if target != name and target not in repo.packages:
            issues.append(
                ValidationIssue(
                    DANGLING_DEPENDENCY,
                    name,
                    f"{label} depends on absent package {target}",
                )
            )
    seen_conflicts: set[str] = set()
    for target, _ in manifest.conflicts:
        if target == name:
            issues.append(ValidationIssue(SELF_CONFLICT, name, f"{label} conflicts with itself"))
        if target in seen_conflicts:
            issues.append(
                ValidationIssue(DUPLICATE_CONFLICT, name, f"{label} lists {target} twice")
            )
        seen_conflicts.add(target)
        if target != name and target not in repo.packages:
            issues.append(
                ValidationIssue(
                    DANGLING_CONFLICT,
                    name,
                    f"{label} conflicts with absent package {target}",
                )
            )
    if manifest.dev and not manifest.source_ref:
        issues.append(
            ValidationIssue(MISSING_SOURCE_REF, name, f"{label} is a dev snapshot without source_ref")
        )
    return issues


def compatible_versions(
    repo: Repository, name: str, toolchain: Version, include_dev: bool = False
) -> list[Version]:
    """Versions of a package whose toolchain constraint admits the given toolchain, newest first."""
    return [
        version
        for version in repo.versions(name)
        if satisfies(toolchain, repo.packages[name][version].toolchain)
        and (include_dev or not repo.packages[name][version].dev)
    ]


# --- ingestion ---------------------------------------------------------------


def load_repository(source: str | Path, cache_dir: str | Path | None = None) -> Repository:
    """Load and validate a repository from a local directory or an HTTP base URL.

    Raises RepositoryError on unreachable sources, malformed manifests
    (naming the file and field), or validation failures such as dangling
    dependency targets.
    """
    text = str(source)
    if text.startswith("http://") or text.startswith("https://"):
        root = _mirror_http_source(text.rstrip("/"), _resolve_cache_dir(cache_dir))
    else:
        root = Path(source)
    repo = _load_local(root)
    issues = validate_repository(repo)
    if issues:
        summary = "; ".join(str(issue) for issue in issues[:5])
        raise RepositoryError(f"invalid repository at {source}: {summary}")
    return repo


def _resolve_cache_dir(cache_dir: str | Path | None) -> Path:
    if cache_dir is not None:
        return Path(cache_dir)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "pickforge"


def _fetch(url: str) -> bytes:
    # imported here: only HTTP sources need them, and they are slow to import
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            return response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise RepositoryError(f"unreachable source {url}: {exc}") from exc


def _mirror_http_source(base_url: str, cache_dir: Path) -> Path:
    import shutil
    import tempfile

    index_bytes = _fetch(f"{base_url}/index.json")
    digest = hashlib.sha256(index_bytes).hexdigest()[:16]
    mirror = cache_dir / digest
    if mirror.is_dir():
        return mirror
    cache_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{digest}-", dir=cache_dir))
    try:
        (staging / "index.json").write_bytes(index_bytes)
        index = _parse_json(index_bytes, f"{base_url}/index.json")
        for name in _index_package_names(index, f"{base_url}/index.json"):
            listing_url = f"{base_url}/packages/{name}/versions.json"
            versions_bytes = _fetch(listing_url)
            listed = _parse_json(versions_bytes, listing_url)
            if not isinstance(listed, list) or not all(isinstance(v, str) for v in listed):
                raise RepositoryError(f"{listing_url}: expected a list of version strings")
            # a version that parses is digits, dots and a tag: safe in a path
            for i, version_text in enumerate(listed):
                _parse_field(version_text, parse_version, listing_url, f"[{i}]")
            pkg_dir = staging / "packages" / name
            pkg_dir.mkdir(parents=True)
            (pkg_dir / "versions.json").write_bytes(versions_bytes)
            for version_text in listed:
                manifest_bytes = _fetch(f"{base_url}/packages/{name}/{version_text}.json")
                (pkg_dir / f"{version_text}.json").write_bytes(manifest_bytes)
        try:
            staging.rename(mirror)
        except OSError:
            if not mirror.is_dir():  # lost a race with a concurrent mirror
                raise
            shutil.rmtree(staging, ignore_errors=True)
    except Exception:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return mirror


def _parse_json(data: bytes, context: str):
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise RepositoryError(f"{context}: invalid JSON ({exc})") from exc


def _index_package_names(index, context: str) -> list[str]:
    if not isinstance(index, dict):
        raise RepositoryError(f"{context}: expected an object")
    for key in ("toolchains", "packages"):
        if key not in index:
            raise RepositoryError(f"{context}: missing field {key!r}")
    names = index["packages"]
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise RepositoryError(f"{context}: field 'packages' must be a list of names")
    # names become path components, so check them before any path is built
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise RepositoryError(f"{context}: invalid package name {name!r}")
    return names


def _load_local(root: Path) -> Repository:
    index_path = root / "index.json"
    if not index_path.is_file():
        raise RepositoryError(f"unreachable source: no index.json under {root}")
    index = _parse_json(index_path.read_bytes(), str(index_path))
    names = _index_package_names(index, str(index_path))
    toolchains_raw = index["toolchains"]
    if not isinstance(toolchains_raw, list) or not all(isinstance(t, str) for t in toolchains_raw):
        raise RepositoryError(f"{index_path}: field 'toolchains' must be a list of versions")
    toolchains = tuple(
        _parse_field(t, parse_version, str(index_path), f"toolchains[{i}]")
        for i, t in enumerate(toolchains_raw)
    )
    packages: dict[str, dict[Version, PackageManifest]] = {}
    for name in names:
        if name in packages:
            raise RepositoryError(f"{index_path}: duplicate package name {name!r}")
        packages[name] = _load_package_dir(root / "packages" / name, name)
    return Repository(toolchains=toolchains, packages=packages)


def _load_package_dir(pkg_dir: Path, name: str) -> dict[Version, PackageManifest]:
    if not pkg_dir.is_dir():
        raise RepositoryError(f"missing package directory {pkg_dir}")
    listing = pkg_dir / "versions.json"
    if listing.is_file():
        listed = _parse_json(listing.read_bytes(), str(listing))
        if not isinstance(listed, list) or not all(isinstance(v, str) for v in listed):
            raise RepositoryError(f"{listing}: expected a list of version strings")
        stems = listed
    else:
        stems = sorted(
            p.stem for p in pkg_dir.glob("*.json") if p.name != "versions.json"
        )
    versions: dict[Version, PackageManifest] = {}
    for stem in stems:
        path = pkg_dir / f"{stem}.json"
        if not path.is_file():
            raise RepositoryError(f"{listing}: listed version {stem!r} has no manifest file")
        manifest = _read_manifest(path)
        if manifest.name != name:
            raise RepositoryError(f"{path}: field 'name' is {manifest.name!r}, expected {name!r}")
        if str(manifest.version) != stem:
            raise RepositoryError(
                f"{path}: field 'version' is {manifest.version}, expected {stem!r}"
            )
        if manifest.version in versions:
            raise RepositoryError(f"{path}: duplicate version {manifest.version}")
        versions[manifest.version] = manifest
    return versions


_MANIFEST_FIELDS = {
    "name": str,
    "version": str,
    "toolchain": str,
    "depends": list,
    "conflicts": list,
    "dev": bool,
    "source_ref": (str, type(None)),
    "deprecated": bool,
    "maintainer": str,
    "build_cmd": str,
    "smoke_cmd": str,
}


def _read_manifest(path: Path) -> PackageManifest:
    raw = _parse_json(path.read_bytes(), str(path))
    if not isinstance(raw, dict):
        raise RepositoryError(f"{path}: expected an object")
    for key in _MANIFEST_FIELDS:
        if key not in raw:
            raise RepositoryError(f"{path}: missing field {key!r}")
    for key in raw:
        if key not in _MANIFEST_FIELDS:
            raise RepositoryError(f"{path}: unknown field {key!r}")
    for key, expected in _MANIFEST_FIELDS.items():
        if not isinstance(raw[key], expected):
            raise RepositoryError(f"{path}: field {key!r} has the wrong type")
    return PackageManifest(
        name=raw["name"],
        version=_parse_field(raw["version"], parse_version, str(path), "version"),
        toolchain=_parse_field(raw["toolchain"], parse_constraint, str(path), "toolchain"),
        depends=_parse_edges(raw["depends"], str(path), "depends"),
        conflicts=_parse_edges(raw["conflicts"], str(path), "conflicts"),
        dev=raw["dev"],
        source_ref=raw["source_ref"],
        deprecated=raw["deprecated"],
        maintainer=raw["maintainer"],
        build_cmd=raw["build_cmd"],
        smoke_cmd=raw["smoke_cmd"],
    )


def _parse_field(text: str, parser, context: str, fieldname: str):
    try:
        return parser(text)
    except PickforgeError as exc:
        raise RepositoryError(f"{context}: field {fieldname!r}: {exc}") from exc


def _parse_edges(raw: list, context: str, fieldname: str) -> tuple[tuple[str, Constraint], ...]:
    edges = []
    for i, entry in enumerate(raw):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise RepositoryError(
                f"{context}: field {fieldname!r}[{i}] must be a [name, constraint] pair"
            )
        target, constraint_text = entry
        constraint = _parse_field(constraint_text, parse_constraint, context, f"{fieldname}[{i}]")
        edges.append((target, constraint))
    return tuple(edges)
