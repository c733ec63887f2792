"""Seeded random repositories and requests small enough to enumerate.

``random_instance`` draws the instances on which ``perfbench/run.py
--oracle N`` and acceptance criterion 1 (``tests/test_acceptance.py``)
check ``resolve_pick`` against the exhaustive ``enumerate_best``.  Both
load this file by path.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def random_instance(rng: random.Random, cap: int) -> tuple[Repository, SelectionRequest]:
    count = rng.randint(1, 8)
    names = [chr(ord("a") + i) for i in range(count)]
    packages: dict = {}
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
            manifest = PackageManifest(
                name=name,
                version=parse_version(text),
                toolchain=parse_constraint(random_constraint(rng, TOOL_POOL)),
                depends=tuple((d, parse_constraint(c)) for d, c in depends),
                conflicts=tuple((x, parse_constraint(c)) for x, c in conflicts),
                dev=dev,
                source_ref="ref0" if dev else None,
            )
            packages.setdefault(name, {})[manifest.version] = manifest
    repo = Repository(
        toolchains=tuple(parse_version(t) for t in TOOL_POOL), packages=packages
    )
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
