"""Seeded random repositories and requests, and the shapes that stress the resolver.

``random_instance`` draws the instances on which ``perfbench/run.py
--oracle N`` and acceptance criterion 1 (``tests/test_acceptance.py``)
check ``resolve_pick`` against the exhaustive ``enumerate_best``.  Both
load this file by path.

Three generators build the shapes that the benchmark's workloads miss,
so that every measurement of them uses the same instances:

- ``hub_instance(k)``: k mandatory packages whose newest versions all
  need one hub that clashes with them; the answer is planted.
- ``conflicted_instance(rng)``: heavily conflicted requests of 10-60
  packages, most of them optional; check them against ``enumerate_best``
  where it can enumerate them.
- ``unsat_instance(rng, size)``: every package of a ``ladder_index``
  prefix mandatory, with one planted ``*`` conflict; the culprits are
  planted.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pickforge.index import PackageManifest, Repository
from pickforge.solver import SelectionRequest
from pickforge.versioning import parse_constraint, parse_version, satisfies

VERSION_POOL = ["0.9", "1.0", "1.1", "2.0", "2.0-rc1", "2.1", "3.0", "3.1"]
TOOL_POOL = ["8.12", "8.13", "8.14", "8.15"]


def random_constraint(rng: random.Random, pool: list[str]) -> str:
    roll = rng.random()
    if roll < 0.2:
        return "*"
    op = rng.choice(["=", "!=", ">=", ">", "<=", "<"])
    version = rng.choice(pool)
    if roll < 0.75:
        return f"{op}{version}"
    op2 = rng.choice(["=", "!=", ">=", ">", "<=", "<"])
    version2 = rng.choice(pool)
    if roll < 0.88:
        return f"{op}{version}, {op2}{version2}"
    return f"{op}{version} | {op2}{version2}"


def _manifest(
    name: str, version: str, depends=(), conflicts=(), toolchain="*", dev=False
) -> PackageManifest:
    return PackageManifest(
        name=name,
        version=parse_version(version),
        toolchain=parse_constraint(toolchain),
        depends=tuple((d, parse_constraint(c)) for d, c in depends),
        conflicts=tuple((x, parse_constraint(c)) for x, c in conflicts),
        dev=dev,
        source_ref="ref0" if dev else None,
    )


def _repository(manifests) -> Repository:
    packages: dict = {}
    for manifest in manifests:
        packages.setdefault(manifest.name, {})[manifest.version] = manifest
    return Repository(toolchains=tuple(parse_version(t) for t in TOOL_POOL), packages=packages)


def random_instance(rng: random.Random, cap: int) -> tuple[Repository, SelectionRequest]:
    count = rng.randint(1, 8)
    names = [chr(ord("a") + i) for i in range(count)]
    manifests = []
    space = 1
    for name in names:
        n_versions = rng.randint(1, 4)
        while space * (n_versions + 1) > cap and n_versions > 1:
            n_versions -= 1
        space *= n_versions + 1
        for text in sorted(rng.sample(VERSION_POOL, n_versions)):
            depends, conflicts = [], []
            for other in names:
                if other == name:
                    continue
                roll = rng.random()
                if roll < 0.3:
                    depends.append((other, random_constraint(rng, VERSION_POOL)))
                elif roll < 0.42:
                    conflicts.append((other, random_constraint(rng, VERSION_POOL)))
            dev = rng.random() < 0.15
            manifests.append(_manifest(
                name, text, depends, conflicts, random_constraint(rng, TOOL_POOL), dev
            ))
    repo = _repository(manifests)
    toolchain = parse_version(rng.choice(TOOL_POOL))
    mandatory = frozenset(rng.sample(names, rng.randint(0, min(3, count))))
    optional = frozenset(n for n in names if n not in mandatory and rng.random() < 0.7)
    overrides = {}
    if rng.random() < 0.25 and (mandatory | optional):
        name = rng.choice(sorted(mandatory | optional))
        valid = [
            v
            for v, manifest in repo.packages[name].items()
            if satisfies(toolchain, manifest.toolchain)
        ]
        if valid:
            overrides[name] = rng.choice(sorted(valid))
    request = SelectionRequest(
        toolchain=toolchain,
        mandatory=mandatory,
        optional=optional,
        overrides=overrides,
        include_dev=rng.random() < 0.3,
    )
    return repo, request


def hub_instance(k: int) -> tuple[Repository, SelectionRequest, dict[str, str]]:
    """The hub shape: mandatory ``m00`` .. ``m<k-1>``, each at 1.0, 2.0 and 3.0,
    where only 3.0 requires ``a-hub`` and ``a-hub`` conflicts with every 3.0.

    Returns the instance and its optimum, each mandatory package at 2.0
    without the hub.  A search that prefers the hub present and learns
    nothing from conflicts refutes it once per combination of the older
    versions, about 2**k times.
    """
    names = [f"m{i:02d}" for i in range(k)]
    manifests = [_manifest("a-hub", "1.0", conflicts=[(name, "=3.0") for name in names])]
    for name in names:
        manifests += [_manifest(name, "1.0"), _manifest(name, "2.0"),
                      _manifest(name, "3.0", depends=[("a-hub", "*")])]
    request = SelectionRequest(
        toolchain=parse_version("8.15"), mandatory=frozenset(names), optional=frozenset()
    )
    return _repository(manifests), request, {name: "2.0" for name in names}


def conflicted_instance(
    rng: random.Random, sizes: tuple[int, int] = (10, 60)
) -> tuple[Repository, SelectionRequest]:
    """A heavily conflicted request with many optionals.

    ``sizes[0]`` to ``sizes[1]`` packages of 1-3 versions each.  Each
    instance draws a dependency probability of 3-10 % and a conflict
    probability of 1-3 %, applied per version and other package.  A
    dependency admits any version, so it never prunes a candidate by
    itself; a conflict takes a random constraint.  About 60 % of the names
    are optional, and nothing is mandatory.  Small sizes give instances
    ``enumerate_best`` can check.
    """
    names = [f"p{i:02d}" for i in range(rng.randint(*sizes))]
    depend_p, conflict_p = rng.uniform(0.03, 0.10), rng.uniform(0.01, 0.03)
    manifests = []
    for name in names:
        for version in sorted(rng.sample(VERSION_POOL, rng.randint(1, 3))):
            others = [other for other in names if other != name]
            depends = [(o, "*") for o in others if rng.random() < depend_p]
            conflicts = [(o, random_constraint(rng, VERSION_POOL))
                         for o in others if rng.random() < conflict_p]
            manifests.append(_manifest(name, version, depends, conflicts))
    request = SelectionRequest(
        toolchain=parse_version("8.15"),
        mandatory=frozenset(),
        optional=frozenset(name for name in names if rng.random() < 0.6),
    )
    return _repository(manifests), request


def _ladder_index():
    """``perfbench/workloads.py``'s ``ladder_index``, loaded by path; no bytecode is written."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("solver_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.ladder_index


def unsat_instance(
    rng: random.Random, size: int
) -> tuple[Repository, SelectionRequest, tuple[str, str]]:
    """Every package of a ``size``-package ``ladder_index`` mandatory at 8.15,
    with a ``*`` conflict planted between two packages that nothing depends on.

    The same seed gives prefixes of one index for every size.  At 8.15 each
    package fits at its newest version, so a mandatory subset fails exactly
    when it holds both planted packages: they are the one minimal culprit
    set, returned sorted with the instance.
    """
    names, raw, _ = _ladder_index()(rng, size)
    depended = {dep for entry in raw for dep, _ in entry["depends"]}
    pair = tuple(sorted(rng.sample([name for name in names if name not in depended], 2)))
    manifests = [
        _manifest(entry["name"], entry["version"], entry["depends"],
                  [(pair[1], "*")] if entry["name"] == pair[0] else (), entry["toolchain"])
        for entry in raw
    ]
    request = SelectionRequest(
        toolchain=parse_version("8.15"), mandatory=frozenset(names), optional=frozenset()
    )
    return _repository(manifests), request, pair
