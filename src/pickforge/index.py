"""Package repository: manifest loading, validation, queries, and ``Pick``.

On-disk layout of an index (local directory or HTTP base URL):

    index.json                       {"toolchains": [...], "packages": [...]}
    packages/<name>/versions.json    ["1.0", "1.1", ...]
    packages/<name>/<version>.json   one manifest per released version

``versions.json`` is how every source lists a package's versions, since an
HTTP source has no directory listings; a package directory without one
fails the load.  ``_load`` is the one walker of this layout.  It reads a
directory through ``read_file`` and an HTTP source through ``_fetch``, and
reports a file either reader cannot find in the same words.  Every HTTP
load fetches the server's current files and writes nothing.

Every local index file is read whole by ``read_file``, without blocking,
and must be a regular file of at most ``FETCH_MAX_BYTES``, the cap an HTTP
body has.  A FIFO, a device or a larger file fails the load with a
RepositoryError naming it.  ``parse_json`` parses every JSON input, lockfiles
too: UTF-8 only, and what does not parse raises a named error.  Every JSON
object read, lockfiles too, goes through ``check_fields``, and every text
parsed through ``parse_field``, so all inputs' errors share one wording.
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections import namedtuple
from pathlib import Path
from stat import S_ISDIR, S_ISFIFO, S_ISREG

from .errors import PickforgeError
from .versioning import Constraint, Version, parse_constraint, parse_version, satisfies

# largest body one request may return, and largest index file a load
# reads; a longer one fails the load
FETCH_MAX_BYTES = 16 * 2**20
# seconds an HTTP source may stall one request before the load fails
FETCH_TIMEOUT_S = 30
# bytes asked of one os.read when reading an input file
_READ_CHUNK = 2**16
# a FIFO opened without O_NONBLOCK blocks until some process writes to it
_READ_FLAGS = os.O_RDONLY | os.O_NONBLOCK

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
# per edge list, depends then conflicts: the verb of its messages and the
# kinds of a self, a duplicate and a dangling edge
_EDGE_ISSUE_KINDS = (
    ("depends on", SELF_DEPENDENCY, DUPLICATE_DEPENDENCY, DANGLING_DEPENDENCY),
    ("conflicts with", SELF_CONFLICT, DUPLICATE_CONFLICT, DANGLING_CONFLICT),
)


class RepositoryError(PickforgeError):
    """A repository source could not be read or failed validation."""


class UnknownPackageError(PickforgeError):
    """A package name is not present in the repository."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown package {name!r}")


class PackageManifest(
    namedtuple(
        "PackageManifest",
        "name version toolchain depends conflicts dev source_ref deprecated maintainer "
        "build_cmd smoke_cmd",
        defaults=((), (), False, None, False, "", "true", "true"),
    )
):
    """Declared metadata for one (package, version).

    ``name: str``, ``version: Version``, ``toolchain: Constraint``;
    ``depends`` and ``conflicts`` are ``tuple[tuple[str, Constraint], ...]``;
    ``dev: bool``, ``source_ref: str | None``, ``deprecated: bool``, and
    ``maintainer``, ``build_cmd``, ``smoke_cmd`` are strings.
    """

    __slots__ = ()


class Repository:
    """Immutable-by-convention index of manifests plus the toolchain list.

    The first pick resolved on a repository caches the solver's candidate
    table in ``search_table``, and later requests reuse it.  So a repository
    must not be mutated once it has been resolved against.  Equality and
    ``repr`` ignore ``search_table``.
    """

    __slots__ = ("toolchains", "packages", "search_table")

    def __init__(
        self,
        toolchains: tuple[Version, ...],
        packages: dict[str, dict[Version, PackageManifest]] | None = None,
    ):
        self.toolchains = toolchains
        self.packages = {} if packages is None else packages
        self.search_table = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.toolchains == other.toolchains and self.packages == other.packages

    def __repr__(self) -> str:
        return f"Repository(toolchains={self.toolchains!r}, packages={self.packages!r})"

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


class Pick(namedtuple("Pick", "toolchain selected excluded")):
    """A resolved selection for one toolchain, with reasons for exclusions.

    ``selected`` maps names to versions and ``excluded`` names to reasons.
    It lives here so that the ops that do not resolve load no ``solver``.
    """

    __slots__ = ()

    def __new__(
        cls,
        toolchain: Version,
        selected: dict[str, Version] | None = None,
        excluded: dict[str, str] | None = None,
    ):
        selected = {} if selected is None else selected
        excluded = {} if excluded is None else excluded
        return super().__new__(cls, toolchain, selected, excluded)

    def to_json_dict(self) -> dict:
        """JSON-ready form of the pick, as lockfiles and ``resolve --format json`` hold it."""
        return {
            "toolchain": str(self.toolchain),
            "selected": {name: str(version) for name, version in sorted(self.selected.items())},
            "excluded": dict(sorted(self.excluded.items())),
        }

    def to_text(self) -> str:
        lines = [f"pick for toolchain {self.toolchain} ({len(self.selected)} packages)"]
        lines += [f"  {name} {self.selected[name]}" for name in sorted(self.selected)]
        if self.excluded:
            lines.append("excluded:")
            lines += [f"  {name}: {self.excluded[name]}" for name in sorted(self.excluded)]
        return "\n".join(lines)


class ValidationIssue(namedtuple("ValidationIssue", "kind package detail")):
    """``package`` is None for an issue of the index as a whole."""

    __slots__ = ()

    def __str__(self) -> str:
        scope = f"{self.package}: " if self.package else ""
        return f"{self.kind}: {scope}{self.detail}"


def validate_repository(repo: Repository) -> list[ValidationIssue]:
    """Return every invariant violation; an empty list means the repository is valid."""
    issues: list[ValidationIssue] = []
    for prev, cur in zip(repo.toolchains, repo.toolchains[1:]):
        if prev >= cur:
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
    # each message formats its own "{name} {version}" label, since nearly
    # every manifest reports no issue at all
    issues = []
    if manifest.name != name or manifest.version != version:
        issues.append(
            ValidationIssue(
                KEY_MISMATCH,
                name,
                f"keyed as {name} {version} but declares {manifest.name} {manifest.version}",
            )
        )
    for edges, (verb, self_kind, duplicate_kind, dangling_kind) in zip(
        (manifest.depends, manifest.conflicts), _EDGE_ISSUE_KINDS
    ):
        seen: set[str] = set()
        for target, _ in edges:
            if target == name:
                issues.append(ValidationIssue(self_kind, name, f"{name} {version} {verb} itself"))
            if target in seen:
                issues.append(
                    ValidationIssue(duplicate_kind, name, f"{name} {version} lists {target} twice")
                )
            seen.add(target)
            if target != name and target not in repo.packages:
                issues.append(
                    ValidationIssue(
                        dangling_kind, name, f"{name} {version} {verb} absent package {target}"
                    )
                )
    if manifest.dev and not manifest.source_ref:
        issues.append(
            ValidationIssue(
                MISSING_SOURCE_REF, name, f"{name} {version} is a dev snapshot without source_ref"
            )
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


def load_repository(source: str | Path) -> Repository:
    """Load and validate a repository from a local directory or an HTTP base URL.

    Raises RepositoryError on unreachable sources, malformed manifests
    (naming the file and field), or validation failures such as dangling
    dependency targets.
    """
    text = str(source)
    if text.startswith("http://") or text.startswith("https://"):
        return _load(text.rstrip("/"), _fetch, source)
    return _load(str(Path(source)), read_file, source)


def _fetch(url: str) -> bytes:
    """The body at ``url``, at most FETCH_MAX_BYTES.  A 404 raises
    FileNotFoundError and a redirect to ``url`` plus "/", a directory's URL,
    IsADirectoryError, as ``read_file`` does; any other failed request raises
    RepositoryError.  Other redirects are followed."""
    import urllib.request  # only an HTTP load pays for its import

    try:
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as response:
            is_directory = response.url == url + "/"
            data = response.read(FETCH_MAX_BYTES + 1)
    except OSError as exc:  # urllib.error.HTTPError, with its ``code``, is one
        if getattr(exc, "code", None) == 404:
            raise FileNotFoundError(f"{url}: HTTP 404") from None
        raise RepositoryError(f"unreachable source {url}: {exc}") from exc
    if is_directory:
        raise IsADirectoryError(f"{url}: a directory")
    if len(data) > FETCH_MAX_BYTES:
        raise RepositoryError(f"{url} exceeds {FETCH_MAX_BYTES} bytes")
    return data


def parse_json(data: bytes, context: str, error: type[PickforgeError] = RepositoryError):
    """The JSON value in the UTF-8 text ``data``.

    Bytes that do not decode, text that does not parse, an integer too long
    to convert and nesting too deep for the parser all raise ``error`` with
    a message that starts with ``context``: the file or URL read, or
    "lockfile".
    """
    try:
        return json.loads(data.decode("utf-8"))
    # UnicodeDecodeError and JSONDecodeError are ValueErrors
    except (ValueError, RecursionError) as exc:
        raise error(f"{context}: invalid JSON ({exc})") from exc


def check_fields(raw, fields: dict, context: str, error: type[PickforgeError] = RepositoryError):
    """``raw``, if it is an object with exactly the keys of ``fields``, each
    value of the type, or one of the types, that ``fields`` maps it to.
    Otherwise raises ``error``: "<context>: expected an object", "missing
    field 'x'" (the first in ``fields`` order), "unknown field 'x'" (the
    first in file order) or "field 'x' has the wrong type"."""
    if not isinstance(raw, dict):
        raise error(f"{context}: expected an object")
    if raw.keys() != fields.keys():
        for key in fields:
            if key not in raw:
                raise error(f"{context}: missing field {key!r}")
        for key in raw:
            if key not in fields:
                raise error(f"{context}: unknown field {key!r}")
    for key, expected in fields.items():
        if not isinstance(raw[key], expected):
            raise error(f"{context}: field {key!r} has the wrong type")
    return raw


def _load(root: str, read, source: str | Path) -> Repository:
    """The validated repository under ``root``, a directory or an HTTP base
    URL.  ``read(path)`` returns an index file, where ``path`` joins ``root``
    and the file's place in the layout with "/"; errors name that path."""
    index_path = os.path.join(root, "index.json")
    try:
        index = parse_json(read(index_path), index_path)
    except OSError:
        raise RepositoryError(f"unreachable source: no index.json under {root}") from None
    check_fields(index, {"toolchains": list, "packages": list}, index_path)
    names = index["packages"]
    if not all(isinstance(n, str) for n in names):
        raise RepositoryError(f"{index_path}: field 'packages' must be a list of names")
    # names become path components, so check them before any path is built
    for name in names:
        if not _NAME_RE.fullmatch(name):
            raise RepositoryError(f"{index_path}: invalid package name {name!r}")
    toolchains_raw = index["toolchains"]
    if not all(isinstance(t, str) for t in toolchains_raw):
        raise RepositoryError(f"{index_path}: field 'toolchains' must be a list of versions")
    # version and constraint texts repeat across manifests, so each is
    # parsed once per load; a failed parse is not cached, so each error
    # names its own file
    versions = functools.cache(parse_version)
    constraints = functools.cache(parse_constraint)
    toolchains = tuple(
        parse_field(t, versions, index_path, "toolchains", i)
        for i, t in enumerate(toolchains_raw)
    )
    packages: dict[str, dict[Version, PackageManifest]] = {}
    for name in names:
        if name in packages:
            raise RepositoryError(f"{index_path}: duplicate package name {name!r}")
        packages[name] = _load_package(
            os.path.join(root, "packages", name), name, read, versions, constraints
        )
    repo = Repository(toolchains=toolchains, packages=packages)
    issues = validate_repository(repo)
    if issues:
        summary = "; ".join(str(issue) for issue in issues[:5])
        raise RepositoryError(f"invalid repository at {source}: {summary}")
    return repo


def read_file(
    path: str, error: type[PickforgeError] = RepositoryError, pipes: bool = False
) -> bytes:
    """The contents of the file at ``path``, at most FETCH_MAX_BYTES.

    Raises OSError as ``open`` would, IsADirectoryError for a directory
    included.  The file is opened without blocking, so a FIFO cannot stall
    the open.  With ``pipes``, a pipe or FIFO is then read, blocking, until
    its last writer closes it; one that has no writer reads as empty.  Any
    other file that is not a regular one, such as a device, and a file over
    FETCH_MAX_BYTES raise ``error`` naming the path.
    """
    fd = os.open(path, _READ_FLAGS)
    try:
        mode = os.fstat(fd).st_mode
        if pipes and S_ISFIFO(mode):
            os.set_blocking(fd, True)
        # a directory is left to os.read, which raises IsADirectoryError
        elif not S_ISREG(mode) and not S_ISDIR(mode):
            raise error(f"{path}: not a regular file")
        chunks = []
        size = 0
        while chunk := os.read(fd, _READ_CHUNK):
            size += len(chunk)
            if size > FETCH_MAX_BYTES:
                raise error(f"{path} exceeds {FETCH_MAX_BYTES} bytes")
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _load_package(
    pkg_dir: str, name: str, read, versions, constraints
) -> dict[Version, PackageManifest]:
    """``read``, ``versions`` and ``constraints`` are the load's reader and memoised parsers."""
    listing = os.path.join(pkg_dir, "versions.json")
    try:
        data = read(listing)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise RepositoryError(f"missing version listing {listing}") from None
    stems = parse_json(data, listing)
    if not isinstance(stems, list) or not all(isinstance(v, str) for v in stems):
        raise RepositoryError(f"{listing}: expected a list of version strings")
    # a version that parses is digits, dots and a tag: safe in a path
    for i, text in enumerate(stems):
        parse_field(text, versions, listing, f"[{i}]")
    manifests: dict[Version, PackageManifest] = {}
    for stem in stems:
        path = os.path.join(pkg_dir, f"{stem}.json")
        try:
            data = read(path)
        except OSError:
            raise RepositoryError(
                f"{listing}: listed version {stem!r} has no manifest file"
            ) from None
        manifest = _read_manifest(data, path, versions, constraints)
        if manifest.name != name:
            raise RepositoryError(f"{path}: field 'name' is {manifest.name!r}, expected {name!r}")
        if str(manifest.version) != stem:
            raise RepositoryError(
                f"{path}: field 'version' is {manifest.version}, expected {stem!r}"
            )
        if manifest.version in manifests:
            raise RepositoryError(f"{path}: duplicate version {manifest.version}")
        manifests[manifest.version] = manifest
    return manifests


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


def _read_manifest(data: bytes, path: str, versions, constraints) -> PackageManifest:
    """``versions`` and ``constraints`` turn texts into a Version and a Constraint."""
    raw = check_fields(parse_json(data, path), _MANIFEST_FIELDS, path)
    depends = raw["depends"]
    conflicts = raw["conflicts"]
    return PackageManifest(
        raw["name"],
        parse_field(raw["version"], versions, path, "version"),
        parse_field(raw["toolchain"], constraints, path, "toolchain"),
        _parse_edges(depends, constraints, path, "depends") if depends else (),
        _parse_edges(conflicts, constraints, path, "conflicts") if conflicts else (),
        raw["dev"],
        raw["source_ref"],
        raw["deprecated"],
        raw["maintainer"],
        raw["build_cmd"],
        raw["smoke_cmd"],
    )


def parse_field(text: str, parser, context: str, fieldname: str, index: int | None = None,
                error: type[PickforgeError] = RepositoryError):
    """``parser(text)``; a parse error raises ``error`` as "<context>: field
    '<fieldname>': <parse error>".  ``index`` is the position of ``text`` in
    a list field; the error names it."""
    try:
        return parser(text)
    except PickforgeError as exc:
        if index is not None:
            fieldname = f"{fieldname}[{index}]"
        raise error(f"{context}: field {fieldname!r}: {exc}") from exc


def _parse_edges(
    raw: list, parse, context: str, fieldname: str
) -> tuple[tuple[str, Constraint], ...]:
    edges = []
    for i, entry in enumerate(raw):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
        ):
            raise RepositoryError(
                f"{context}: field {fieldname!r}[{i}] must be a [name, constraint] pair"
            )
        target, constraint_text = entry
        edges.append((target, parse_field(constraint_text, parse, context, fieldname, i)))
    return tuple(edges)
