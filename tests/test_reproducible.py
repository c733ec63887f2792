"""The same bytes from any process, environment and copy of the index.

Each variant runs every op in one child process through ``cli.main``: a
hash seed, a umask, a relative or absolute index path, an index copy
written in reverse file order, and one without ``versions.json`` files, so
that the loader scans the package directories.  Every variant must give
the same exit code, stdout and output file bytes for every op.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys

from conftest import PLATFORM_FIXTURE, REPO_ROOT, write_fixture

# scripts/ is not a package, so the generators are loaded by path
_spec = importlib.util.spec_from_file_location(
    "solver_bench", REPO_ROOT / "scripts" / "solver_bench.py"
)
solver_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_bench)

# run in the child: each op's exit code, stdout and the bytes of the file it
# wrote, as one JSON list on stdout
CHILD = r"""
import contextlib, io, json, sys
from pickforge import cli

results = []
for argv, output in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    written = open(output, "rb").read().decode("latin-1") if output else None
    results.append([argv[0], code, out.getvalue(), written])
print(json.dumps(results))
"""


def _raw(manifest) -> dict:
    """A manifest as its index file holds it."""
    return {
        **manifest._asdict(),
        "version": str(manifest.version),
        "toolchain": str(manifest.toolchain),
        "depends": [[dep, str(constraint)] for dep, constraint in manifest.depends],
        "conflicts": [[other, str(constraint)] for other, constraint in manifest.conflicts],
    }


def _write_indexes(root):
    """The fixture and two seeded indexes under ``root``, and the requests
    that the ops put to the seeded ones."""
    shutil.copytree(PLATFORM_FIXTURE, root / "platform")
    conflicted, conflicted_req = solver_bench.conflicted_instance(random.Random(7), (12, 16))
    unsat, unsat_req, _ = solver_bench.unsat_instance(random.Random(1), 30)
    for name, repo in (("conflicted", conflicted), ("unsat", unsat)):
        (root / name).mkdir()
        toolchains = [str(toolchain) for toolchain in repo.toolchains]
        manifests = [_raw(m) for versions in repo.packages.values() for m in versions.values()]
        write_fixture(root / name, toolchains, manifests)
    return conflicted_req, unsat_req


def _copy(source, target, reverse: bool, listings: bool) -> None:
    """Copy the index files under ``source``, in reverse name order or not,
    and with or without the ``versions.json`` listings."""
    files = sorted(path for path in source.rglob("*") if path.is_file())
    for path in reversed(files) if reverse else files:
        if listings or path.name != "versions.json":
            copy = target / path.relative_to(source)
            copy.parent.mkdir(parents=True, exist_ok=True)
            copy.write_bytes(path.read_bytes())


def _ops(indexes: str, conflicted_req, unsat_req) -> list:
    """Each op's argv and the file it writes, with index paths under ``indexes``."""
    platform, conflicted, unsat = (
        f"{indexes}/{name}" for name in ("platform", "conflicted", "unsat")
    )
    return [
        (["release", "--index", platform, "--version", "2022.01.0", "--output", "platform.lock"],
         "platform.lock"),
        (["resolve", "--index", platform, "--toolchain", "8.15", "--format", "json",
          *(f"--mandatory={name}" for name in ("aldergrove", "oldstone", "reedmace"))], None),
        (["coordinate", "--index", platform, "--rc", "8.15", "--reference", "platform.lock",
          "--reference-toolchain", "8.14"], None),
        (["script", "--index", platform, "--lockfile", "platform.lock"], None),
        (["release", "--index", conflicted, "--version", "2022.01.0",
          "--output", "conflicted.lock",
          *(f"--optional={name}" for name in sorted(conflicted_req.optional))], "conflicted.lock"),
        (["resolve", "--index", unsat, "--toolchain", "8.15",
          *(f"--mandatory={name}" for name in sorted(unsat_req.mandatory))], None),
    ]


def test_every_process_and_index_copy_gives_the_same_bytes(tmp_path):
    originals = tmp_path / "indexes"
    requests = _write_indexes(originals)
    copies = {
        "indexes": originals,
        "reversed": tmp_path / "reversed",
        "unlisted": tmp_path / "unlisted",
    }
    _copy(originals, copies["reversed"], reverse=True, listings=True)
    _copy(originals, copies["unlisted"], reverse=False, listings=False)
    variants = {
        "hash seed 0": ("0", 0o022, "indexes", True),
        "hash seed 1": ("1", 0o022, "indexes", True),
        "random hash seed": ("random", 0o022, "indexes", True),
        "umask 077": ("0", 0o077, "indexes", True),
        "relative index path": ("0", 0o022, "indexes", False),
        "reverse file order": ("0", 0o022, "reversed", True),
        "no versions.json": ("0", 0o022, "unlisted", True),
    }
    outputs = {}
    for label, (hash_seed, umask, copy, absolute) in variants.items():
        cwd = tmp_path / label.replace(" ", "-")
        cwd.mkdir()
        indexes = str(copies[copy]) if absolute else os.path.relpath(copies[copy], cwd)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(_ops(indexes, *requests))],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda umask=umask: os.umask(umask),
        )
        assert proc.returncode == 0, (label, proc.stderr)
        outputs[label] = json.loads(proc.stdout)
    first = outputs["hash seed 0"]
    assert [code for _, code, _, _ in first] == [0, 2, 0, 0, 0, 2]
    for label, results in outputs.items():
        assert results == first, label
