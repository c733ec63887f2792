"""The same bytes from any process, environment and copy of the index.

Each variant runs every op in one child process through ``cli.main``: a
hash seed, a umask, a locale, a time zone, a relative or absolute index
path, the indexes served over HTTP, an index copy written in reverse file
order, and one whose ``versions.json`` files list each package's versions
newest first, where the fixtures list them oldest first.  Every variant must
give the same exit code, stdout, stderr and output file bytes for every op,
and the platform release must match its golden lockfile byte for byte.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys

from conftest import GOLDEN_DIR, PLATFORM_FIXTURE, REPO_ROOT, raw_manifest, write_fixture

# scripts/ is not a package, so the generators are loaded by path
_spec = importlib.util.spec_from_file_location(
    "solver_bench", REPO_ROOT / "scripts" / "solver_bench.py"
)
solver_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_bench)

# run in the child: each op's exit code, stdout, stderr and the bytes of the
# file it wrote, as one JSON list on stdout
CHILD = r"""
import contextlib, io, json, sys
from pickforge import cli

results = []
for argv, output in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = open(output, "rb").read().decode("latin-1") if output else None
    results.append([argv[0], code, out.getvalue(), err.getvalue(), written])
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
    """The fixture, an index whose packages depend on each other in two
    cycles, and two seeded indexes under ``root``, and the requests that the
    ops put to the seeded ones."""
    shutil.copytree(PLATFORM_FIXTURE, root / "platform")
    (root / "cycles").mkdir()
    write_fixture(root / "cycles", ["8.15"], [
        raw_manifest("anvil", "1.0", depends=[["bellows", "*"], ["crucible", "*"]]),
        raw_manifest("bellows", "1.0", depends=[["crucible", "*"]]),
        raw_manifest("crucible", "1.0", depends=[["anvil", "*"]]),
    ])
    conflicted, conflicted_req = solver_bench.conflicted_instance(random.Random(7), (12, 16))
    unsat, unsat_req, _ = solver_bench.unsat_instance(random.Random(1), 30)
    for name, repo in (("conflicted", conflicted), ("unsat", unsat)):
        (root / name).mkdir()
        toolchains = [str(toolchain) for toolchain in repo.toolchains]
        manifests = [_raw(m) for versions in repo.packages.values() for m in versions.values()]
        write_fixture(root / name, toolchains, manifests)
    return conflicted_req, unsat_req


def _copy(source, target, reverse_files: bool, reverse_listings: bool) -> None:
    """Copy the index files under ``source``, in reverse name order or not,
    and with each ``versions.json`` listing its versions in reverse or not."""
    files = sorted(path for path in source.rglob("*") if path.is_file())
    for path in reversed(files) if reverse_files else files:
        data = path.read_bytes()
        if reverse_listings and path.name == "versions.json":
            data = json.dumps(json.loads(data)[::-1]).encode()
        copy = target / path.relative_to(source)
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_bytes(data)


def _ops(indexes: str, conflicted_req, unsat_req) -> list:
    """Each op's argv and the file it writes, with index paths under ``indexes``."""
    platform, cycles, conflicted, unsat = (
        f"{indexes}/{name}" for name in ("platform", "cycles", "conflicted", "unsat")
    )
    return [
        (["release", "--index", platform, "--version", "2022.01.0", "--output", "platform.lock"],
         "platform.lock"),
        (["resolve", "--index", platform, "--toolchain", "8.15", "--format", "json",
          *(f"--mandatory={name}" for name in ("aldergrove", "oldstone", "reedmace"))], None),
        (["coordinate", "--index", platform, "--rc", "8.15", "--reference", "platform.lock",
          "--reference-toolchain", "8.14"], None),
        (["script", "--index", platform, "--lockfile", "platform.lock"], None),
        (["release", "--index", cycles, "--version", "2022.01.0", "--output", "cycles.lock"],
         "cycles.lock"),
        (["script", "--index", cycles, "--lockfile", "cycles.lock"], None),
        (["release", "--index", conflicted, "--version", "2022.01.0",
          "--output", "conflicted.lock",
          *(f"--optional={name}" for name in sorted(conflicted_req.optional))], "conflicted.lock"),
        (["resolve", "--index", unsat, "--toolchain", "8.15",
          *(f"--mandatory={name}" for name in sorted(unsat_req.mandatory))], None),
    ]


def test_every_process_and_index_copy_gives_the_same_bytes(tmp_path, serve_index):
    start_server, served_paths = serve_index
    originals = tmp_path / "indexes"
    requests = _write_indexes(originals)
    copies = {
        "indexes": originals,
        "reversed": tmp_path / "reversed",
        "newest first": tmp_path / "newest-first",
    }
    _copy(originals, copies["reversed"], reverse_files=True, reverse_listings=False)
    _copy(originals, copies["newest first"], reverse_files=False, reverse_listings=True)
    served = start_server(originals)
    # each variant: its environment, umask, index copy, and how the index is named
    variants = {
        "hash seed 0": ({}, 0o022, "indexes", "absolute"),
        "hash seed 1": ({"PYTHONHASHSEED": "1"}, 0o022, "indexes", "absolute"),
        "random hash seed": ({"PYTHONHASHSEED": "random"}, 0o022, "indexes", "absolute"),
        "umask 077": ({}, 0o077, "indexes", "absolute"),
        "LC_ALL=C": ({"LC_ALL": "C"}, 0o022, "indexes", "absolute"),
        "LC_ALL=C.UTF-8": ({"LC_ALL": "C.UTF-8"}, 0o022, "indexes", "absolute"),
        "TZ=Pacific/Chatham": ({"TZ": "Pacific/Chatham"}, 0o022, "indexes", "absolute"),
        "relative index path": ({}, 0o022, "indexes", "relative"),
        "served over HTTP": ({}, 0o022, "indexes", "http"),
        "reverse file order": ({}, 0o022, "reversed", "absolute"),
        "listings newest first": ({}, 0o022, "newest first", "absolute"),
    }
    outputs = {}
    for number, (label, (extra_env, umask, copy, naming)) in enumerate(variants.items()):
        cwd = tmp_path / f"variant{number}"
        cwd.mkdir()
        indexes = {
            "absolute": str(copies[copy]),
            "relative": os.path.relpath(copies[copy], cwd),
            "http": served,
        }[naming]
        env = {
            **os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": "0",
            **extra_env,
        }
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, json.dumps(_ops(indexes, *requests))],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda umask=umask: os.umask(umask),
        )
        assert proc.returncode == 0, (label, proc.stderr)
        outputs[label] = json.loads(proc.stdout)
    assert "/cycles/index.json" in served_paths
    first = outputs["hash seed 0"]
    assert [code for _, code, _, _, _ in first] == [0, 2, 0, 0, 0, 3, 0, 2]
    assert first[5][3] == "pickforge: error: dependency cycle: anvil -> crucible -> anvil\n"
    golden = (GOLDEN_DIR / "cli-release-platform.lock.json").read_bytes()
    assert first[0][4].encode("latin-1") == golden
    for label, results in outputs.items():
        assert results == first, label
