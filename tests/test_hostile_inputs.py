"""Property test: a broken index file or lockfile ends every op in a result or
a named error with a documented exit code, never in a traceback, and the op
writes nothing outside its output directory.  ``smoke`` builds in a sandbox
under the output directory; a mutation that would hand it a shell command
other than the fixture's ``true`` is not run.

Each mutated index is also served over localhost HTTP and the op run again
on its URL: it must end as the local run did, and write nothing outside the
output directory either.  The same holds when a package directory loses its
listing, a listed manifest or itself, has its listing or a listed manifest
replaced by a directory, or gains a manifest that its listing omits; then
the two runs' errors must also name the same files.

In the manner of QuickCheck (Claessen & Hughes, ICFP 2000), Hypothesis
mutates one file of a copy of ``fixtures/platform``, or a lockfile that
``release`` wrote, and runs one CLI op in process on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from conftest import PLATFORM_FIXTURE, start_server
from pickforge import cli

# every module an op may import, loaded now, so that no op imports (and
# perhaps writes bytecode for) one while its writes are recorded
import urllib.request  # noqa: F401
from pickforge import buildrun, policy, release, solver  # noqa: F401

DOCUMENTED_EXIT_CODES = {
    cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_UNSAT, cli.EXIT_IO, cli.EXIT_USAGE,
}
EXAMPLES = 20

# --- recording writes --------------------------------------------------------

_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND
# audit events that change the file system, by the number of paths that
# their arguments start with
_CHANGE_EVENTS = {
    "os.chmod": 1, "os.link": 2, "os.mkdir": 1, "os.remove": 1, "os.rename": 2,
    "os.rmdir": 1, "os.symlink": 2, "os.truncate": 1, "os.utime": 1, "shutil.rmtree": 1,
}
_writes: list[str] | None = None  # paths written while an op runs, else None


def _record_writes(event: str, args: tuple) -> None:
    if _writes is None:
        return
    if event == "open":
        paths = args[:1] if args[2] & _WRITE_FLAGS else ()
    elif event in ("os.remove", "os.rmdir") and args[1] != -1:
        # relative to a directory descriptor: a write of unknown place
        _writes.append(f"<descriptor {args[1]}>/{os.fsdecode(args[0])}")
        return
    else:
        paths = args[: _CHANGE_EVENTS.get(event, 0)]
    _writes.extend(
        os.path.abspath(os.fsdecode(path))
        for path in paths
        if isinstance(path, (str, bytes, os.PathLike))
    )


# an audit hook cannot be removed; it records nothing while _writes is None
sys.addaudithook(_record_writes)


def run_op(argv: list[str], writable: tuple[str, ...]) -> tuple[int, str, str]:
    """Run ``cli.main(argv)`` and check its exit code, its stderr and the paths
    it wrote, which must all lie under one of the ``writable`` directories.
    Returns the exit code, stdout and stderr."""
    global _writes
    out, err = io.StringIO(), io.StringIO()
    _writes = []
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        written, _writes = _writes, None
    assert code in DOCUMENTED_EXIT_CODES, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert [
        path for path in written if not any(path.startswith(d + os.sep) for d in writable)
    ] == []
    return code, out.getvalue(), err.getvalue()


# --- mutations ---------------------------------------------------------------

# a mutation is a tuple (kind, position, extra); position picks a node, an
# entry or a byte offset modulo the number there are, so any draw applies
_POSITIONS = st.integers(min_value=0, max_value=2**16)
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.text(max_size=4), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
_NOT_UTF8 = (b"\xff", b"\xe9", b"\xc3", b"\x80", b"\xed\xa0\x80")
MUTATIONS = st.one_of(
    st.tuples(st.just("retype"), _POSITIONS, _VALUES),
    st.tuples(st.just("add"), _POSITIONS, _VALUES),
    st.tuples(st.just("drop"), _POSITIONS, _POSITIONS),
    st.tuples(st.just("truncate"), _POSITIONS, st.none()),
    st.tuples(st.just("not-utf8"), _POSITIONS, st.sampled_from(_NOT_UTF8)),
)
# the whole file as nested lists: 1,000 deep passes the recursion limit a
# CLI run has, and 100,000 deep the higher one Hypothesis sets while it runs
# a test
NESTED_1000_DEEP = ("nest", 1000, None)
NESTED_100000_DEEP = ("nest", 100_000, None)


def _nodes(tree) -> tuple[list, list]:
    """Every list and object in ``tree`` and every (container, key) slot in
    them, depth first."""
    containers, slots = [], []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = range(len(node))
        else:
            continue
        containers.append(node)
        for key in keys:
            slots.append((node, key))
            stack.append(node[key])
    return containers, slots


def mutate(data: bytes, mutation: tuple) -> bytes:
    kind, position, extra = mutation
    if kind == "nest":
        return b"[" * position + b"]" * position
    if kind == "truncate":
        return data[: position % len(data)]
    if kind == "not-utf8":
        at = position % (len(data) + 1)
        return data[:at] + extra + data[at:]
    tree = json.loads(data)
    containers, slots = _nodes(tree)
    if kind == "retype":  # wrong type: one value, or the whole file, replaced
        if not slots:
            return json.dumps(extra).encode()
        container, key = slots[position % len(slots)]
        container[key] = extra
    elif containers:  # wrong arity: a list or an object gains or loses an entry
        container = containers[position % len(containers)]
        if kind == "add" and isinstance(container, list):
            container.append(extra)
        elif kind == "add":
            container["extra"] = extra
        elif container:
            keys = list(container) if isinstance(container, dict) else range(len(container))
            del container[keys[extra % len(keys)]]
    return json.dumps(tree).encode()


# --- the tests ---------------------------------------------------------------


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A copy of the platform index, a lockfile released from it, and an empty
    output directory."""
    root = tmp_path_factory.mktemp("hostile")
    shutil.copytree(PLATFORM_FIXTURE, root / "index")
    (root / "lock").mkdir()
    (root / "out").mkdir()
    lockfile = root / "lock" / "pickforge.lock.json"
    assert cli.main([
        "release", "--index", str(root / "index"), "--version", "2022.01.0",
        "--output", str(lockfile),
    ]) == cli.EXIT_OK
    return root


@pytest.fixture(scope="module")
def index_url(workspace):
    """The workspace's index, mutations included, served over localhost HTTP."""
    server, url = start_server(workspace / "index")
    yield url
    server.shutdown()


def _argv(root, op: str, source: str | None = None) -> list[str]:
    """``op``'s arguments, on the local index unless ``source`` names another."""
    index = ["--index", source or str(root / "index")]
    lockfile = str(root / "lock" / "pickforge.lock.json")
    return {
        "resolve": ["resolve", *index, "--toolchain", "8.15"],
        "release": ["release", *index, "--version", "2022.04.0", "--toolchain", "8.15",
                    "--previous", lockfile, "--carry-previous",
                    "--output", str(root / "out" / "pickforge.lock.json")],
        "policy": ["policy", *index],
        "coordinate": ["coordinate", *index, "--rc", "8.15", "--reference", lockfile,
                       "--reference-toolchain", "8.14"],
        "script": ["script", *index, "--lockfile", lockfile],
        "smoke": ["smoke", *index, "--lockfile", lockfile, "--jobs", "2",
                  "--sandbox", str(root / "out" / "sandbox")],
        "diff": ["diff", "--lockfile", lockfile, "--from", "8.13", "--to", "8.15"],
        "upgrade": ["upgrade", "--lockfile", lockfile, "--from", "8.12", "--to", "8.15"],
    }[op]


def _sets_a_command(data: bytes) -> bool:
    """Whether a mutated index file holds a build or smoke command other than
    the fixture's ``true``; ``smoke`` would run it in a shell."""
    try:
        _, slots = _nodes(json.loads(data))
    except (ValueError, RecursionError):
        return False
    return any(
        key in ("build_cmd", "smoke_cmd") and container[key] != "true"
        for container, key in slots
    )


def _empty(directory: Path) -> None:
    for entry in directory.iterdir():
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def _run_mutated(root, target, mutation, op: str, url: str | None = None) -> None:
    """Run ``op`` with the file at ``target`` mutated, then restore the file
    and empty the output directory, where ``smoke`` keeps its sandbox.

    With ``url``, the base URL of the served index, check the op over HTTP
    too, as ``_run_served`` does.
    """
    original = target.read_bytes()
    mutated = mutate(original, mutation)
    assume(op != "smoke" or not _sets_a_command(mutated))
    target.write_bytes(mutated)
    try:
        local = _run_local(root, op)
        if url is not None:
            _run_served(root, op, url, local)
    finally:
        target.write_bytes(original)
        _empty(root / "out")


def _run_local(root, op: str) -> tuple[int, str, str]:
    """Run ``op`` on the workspace's index; its exit code, stdout and stderr."""
    return run_op(_argv(root, op), writable=(str(root / "out"),))


def _run_served(root, op: str, url: str, local: tuple[int, str, str]) -> str:
    """Run ``op`` on ``url``, the base URL of the served index: it may write
    only to the output directory, and must end with the exit code and stdout
    of ``local``, the local run.  Returns its stderr."""
    _empty(root / "out")
    code, out, err = run_op(_argv(root, op, url), writable=(str(root / "out"),))
    assert (code, out) == local[:2]
    return err


_INDEX_FILES = sorted(
    str(path.relative_to(PLATFORM_FIXTURE)) for path in PLATFORM_FIXTURE.rglob("*.json")
)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    relpath=st.sampled_from(_INDEX_FILES),
    mutation=MUTATIONS,
    op=st.sampled_from(["resolve", "release", "policy", "coordinate", "script", "smoke"]),
)
@example(relpath="index.json", mutation=NESTED_1000_DEEP, op="resolve")
@example(relpath="packages/aldergrove/2.0.json", mutation=NESTED_100000_DEEP, op="release")
@example(relpath="packages/aldergrove/versions.json", mutation=NESTED_100000_DEEP, op="script")
# a new maintainer leaves the index valid, so smoke runs every step
@example(relpath="packages/aldergrove/2.0.json", mutation=("retype", 5, "x"), op="smoke")
# a manifest that does not parse, and an index that drops a package others
# depend on: over HTTP each fails as the local load does
@example(relpath="packages/aldergrove/2.0.json", mutation=("truncate", 5, None), op="resolve")
@example(relpath="index.json", mutation=("drop", 2, 0), op="policy")
def test_mutated_index_file(workspace, index_url, relpath, mutation, op):
    _run_mutated(workspace, workspace / "index" / relpath, mutation, op, index_url)


_PACKAGES = sorted(path.name for path in (PLATFORM_FIXTURE / "packages").iterdir())
# edits of a package directory's files, not of their contents; only the last
# leaves an index that loads, since a manifest the listing omits is not read
STRUCTURAL_EDITS = (
    "drop-listing", "drop-listed-manifest", "drop-package-directory", "replace-by-directory",
    "add-unlisted-manifest",
)


def _edit_structure(package_dir: Path, edit: str, position: int) -> None:
    """Apply ``edit`` to ``package_dir``; ``position`` picks the version of a
    dropped manifest modulo the number listed, and the file replaced by a
    directory modulo the number of the listing and the listed manifests."""
    listing = package_dir / "versions.json"
    stems = json.loads(listing.read_bytes())
    if edit == "drop-listing":
        listing.unlink()
    elif edit == "drop-listed-manifest":
        (package_dir / f"{stems[position % len(stems)]}.json").unlink()
    elif edit == "drop-package-directory":
        shutil.rmtree(package_dir)
    elif edit == "replace-by-directory":
        files = [listing, *(package_dir / f"{stem}.json" for stem in stems)]
        replaced = files[position % len(files)]
        replaced.unlink()
        replaced.mkdir()
    else:
        manifest = json.loads((package_dir / f"{stems[-1]}.json").read_bytes())
        manifest["version"] = "99.0"
        (package_dir / "99.0.json").write_text(json.dumps(manifest))


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    package=st.sampled_from(_PACKAGES),
    edit=st.sampled_from(STRUCTURAL_EDITS),
    position=_POSITIONS,
)
@example(package="aldergrove", edit="drop-listing", position=0)
@example(package="aldergrove", edit="drop-listed-manifest", position=1)
@example(package="aldergrove", edit="drop-package-directory", position=0)
# the listing, then its first manifest: an HTTP server redirects each to a
# directory listing
@example(package="aldergrove", edit="replace-by-directory", position=0)
@example(package="aldergrove", edit="replace-by-directory", position=1)
@example(package="aldergrove", edit="add-unlisted-manifest", position=0)
def test_local_and_served_loads_agree_on_structure(workspace, index_url, package, edit, position):
    # one layout for both kinds of source: what a directory load finds, or
    # misses, an HTTP load of the same files finds or misses too
    package_dir = workspace / "index" / "packages" / package
    saved = workspace / "saved"
    shutil.copytree(package_dir, saved)
    try:
        _edit_structure(package_dir, edit, position)
        local = _run_local(workspace, "resolve")
        expected = cli.EXIT_OK if edit == "add-unlisted-manifest" else cli.EXIT_IO
        assert local[0] == expected
        served_err = _run_served(workspace, "resolve", index_url, local)
        assert served_err == local[2].replace(str(workspace / "index"), index_url)
    finally:
        shutil.rmtree(package_dir, ignore_errors=True)
        shutil.copytree(saved, package_dir)
        shutil.rmtree(saved)
        _empty(workspace / "out")


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    mutation=MUTATIONS,
    op=st.sampled_from(["diff", "upgrade", "release", "coordinate", "script", "smoke"]),
)
@example(mutation=NESTED_1000_DEEP, op="diff")
@example(mutation=NESTED_100000_DEEP, op="diff")
@example(mutation=NESTED_100000_DEEP, op="release")
@example(mutation=NESTED_100000_DEEP, op="coordinate")
def test_mutated_lockfile(workspace, mutation, op):
    _run_mutated(workspace, workspace / "lock" / "pickforge.lock.json", mutation, op)
