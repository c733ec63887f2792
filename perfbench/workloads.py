"""Seeded workloads: input indexes, the CLI operations run on them, and checks.

Each workload turns a seed into index directories under a work directory
and a list of CLI operations.  Every operation carries a check that judges
its stdout (and any file it wrote) against an answer that does not come
from the solver under test: a committed golden under ``tests/golden``,
the smoke fixture's planted outcome, the exhaustive reference
``enumerate_best`` on a small sub-index, or the pick the generator built
the index around.

The pickforge package is imported lazily, where a check or the choice of
the platform request needs it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PLATFORM = ROOT / "fixtures" / "platform"
SMOKE = ROOT / "fixtures" / "smoke"
GOLDEN = ROOT / "tests" / "golden"

TOOLCHAINS = ("8.12", "8.13", "8.14", "8.15")
RELEASE_VERSION = "2022.01.0"

EXIT_OK, EXIT_FAILURE, EXIT_UNSAT = 0, 1, 2


@dataclass
class Op:
    """One CLI invocation: the arguments after ``pickforge``, the exit code it
    must end with, and a check of its stdout returning a problem or None."""

    label: str
    argv: list[str]
    index: Path  # the index the op reads; largest_ok_packages groups ops by it
    packages: int
    exit_code: int
    check: Callable[[str], str | None]
    # output file or sandbox removed before every invocation, so that no run
    # pays for the file system replacing what the previous run wrote
    fresh: Path | None = None


@dataclass
class Workload:
    warmup: Op
    ops: list[Op]
    indexes: list[Path]  # every index directory the ops read, once each
    inputs: Inputs


# --- index writing --------------------------------------------------------------


class Inputs:
    """A workload's input files, held as text until ``write`` creates them,
    so that set-up can time generating them apart from writing them."""

    def __init__(self) -> None:
        self.files: dict[Path, str] = {}
        self.links: dict[Path, Path] = {}

    def dump(self, path: Path, payload) -> None:
        self.files[path] = json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        for path, target in self.links.items():
            path.symlink_to(target)


def manifest(name, version, toolchain=">=8.12", depends=(), conflicts=()) -> dict:
    return {
        "name": name,
        "version": version,
        "toolchain": toolchain,
        "depends": [list(edge) for edge in depends],
        "conflicts": [list(edge) for edge in conflicts],
        "dev": False,
        "source_ref": None,
        "deprecated": False,
        "maintainer": "bench@pickforge.test",
        "build_cmd": "true",
        "smoke_cmd": "true",
    }


def write_index(inputs: Inputs, root: Path, toolchains, manifests: list[dict]) -> None:
    by_name: dict[str, list[dict]] = {}
    for entry in manifests:
        by_name.setdefault(entry["name"], []).append(entry)
    inputs.dump(root / "index.json", {"toolchains": list(toolchains), "packages": sorted(by_name)})
    for name, entries in by_name.items():
        pkg_dir = root / "packages" / name
        inputs.dump(pkg_dir / "versions.json", [entry["version"] for entry in entries])
        for entry in entries:
            inputs.dump(pkg_dir / f"{entry['version']}.json", entry)


def _vkey(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


# --- shared checks ---------------------------------------------------------------


class Repos(dict):
    """Indexes loaded once each, for checking picks against them."""

    def __missing__(self, index: Path):
        from pickforge.index import load_repository

        self[index] = repo = load_repository(index)
        return repo


def _stable_bytes(path: Path, seen: dict[Path, bytes]) -> tuple[bytes | None, str | None]:
    """Read a written file; its bytes must equal those of the first run."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return None, f"cannot read {path.name}: {exc}"
    first = seen.setdefault(path, data)
    if data != first:
        return None, f"{path.name} bytes differ from the first run"
    return data, None


def _pick_problems(repos: Repos, index: Path, data: bytes) -> str | None:
    """Every pick of a lockfile must pass verify_pick against the index."""
    from pickforge.release import read_lockfile
    from pickforge.solver import verify_pick

    repo = repos[index]
    for pick in read_lockfile(data).picks:
        violations = verify_pick(repo, pick)
        if violations:
            return f"pick {pick.toolchain}: {violations[0]}"
    return None


def _release_op(label, repos: Repos, index: Path, work: Path, packages: int,
                expected: dict[str, tuple[dict[str, str], set[str]]],
                seen: dict[Path, bytes]) -> Op:
    """An all-optional release whose lockfile must keep its bytes, pass
    verify_pick, and hold per toolchain the expected selection and the
    expected set of excluded names."""
    output = work / f"{label}.lock.json"

    def check(_stdout: str) -> str | None:
        data, problem = _stable_bytes(output, seen)
        if problem:
            return problem
        payload = json.loads(data)
        got = {pick["toolchain"]: pick for pick in payload["picks"]}
        if sorted(got) != sorted(expected):
            return f"toolchains {sorted(got)} != {sorted(expected)}"
        for toolchain, (selected, excluded) in expected.items():
            pick = got[toolchain]
            if pick["selected"] != selected:
                diff = sorted(set(pick["selected"].items()) ^ set(selected.items()))
                return f"pick {toolchain}: selection differs at {diff[:3]}"
            if set(pick["excluded"]) != excluded:
                return f"pick {toolchain}: excluded {sorted(pick['excluded'])} != {sorted(excluded)}"
        return _pick_problems(repos, index, data)

    return Op(
        label=label,
        argv=["release", "--index", str(index), "--version", RELEASE_VERSION,
              "--output", str(output)],
        index=index,
        packages=packages,
        exit_code=EXIT_OK,
        check=check,
        fresh=output,
    )


# --- platform: a curator session on the committed fixtures -------------------------

SUCCESSION_VIOLATORS = {"strictweld", "tautline", "thornlatch"}
# packages with no released version at 8.15; the upgrade golden's lockfile
# leaves them out of the request
UNIVERSE_EXCLUDES = {"nightjar", "quillfeather", "oldstone", "reedmace"}
SMOKE_STATUSES = {
    "anchor": "Passed",
    "brokenbuild": "BuildFailed",
    "cargohold": "Skipped",
    "derrick": "Skipped",
    "earthworks": "Passed",
    "gantry": "Passed",
}
SMOKE_ORDER_EDGES = (("brokenbuild", "cargohold"), ("cargohold", "derrick"),
                     ("anchor", "earthworks"), ("earthworks", "gantry"))
ORACLE_SPACE_LIMIT = 20_000


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def _equals(expected: str) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        return None if stdout == expected else "output differs from the expected text"

    return check


def _closure(repo, names) -> set[str]:
    seen, stack = set(names), list(names)
    while stack:
        for manifest_ in repo.packages[stack.pop()].values():
            for dep, _ in manifest_.depends:
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
    return seen


def _platform_request(rng: random.Random, repos: Repos) -> tuple[list[str], Callable]:
    """A seeded resolve request at 8.15 with mandatory, optional and override
    arguments, and a check against the exhaustive reference run on the
    sub-index the request can reach (unreachable packages cannot be
    selected, so the answer is the same as on the whole index).

    The mandatory package is one the 8.15 golden pick selects, and the
    override pins an optional package outside its dependency closure, so the
    request is always satisfiable and the op must exit 0.  The reference
    runs on the first check, outside set-up."""
    repo = repos[PLATFORM]
    golden = json.loads(_golden("cli-resolve-8.15.json"))["selected"]
    while True:
        mandatory = rng.choice(sorted(golden))
        optional = rng.sample(sorted(set(repo.packages) - {mandatory}), 3)
        reach = _closure(repo, [mandatory, *optional])
        if math.prod(len(repo.packages[n]) + 1 for n in reach) <= ORACLE_SPACE_LIMIT:
            break
    overrides = {}
    needed = _closure(repo, [mandatory])
    for name in optional:
        older = _older(repo, name)
        if older and name not in needed:
            overrides[name] = rng.choice(older)
            break
    argv = ["resolve", "--index", str(PLATFORM), "--toolchain", "8.15", "--format", "json",
            "--mandatory", mandatory]
    argv += [arg for name in optional for arg in ("--optional", name)]
    argv += [arg for name, v in overrides.items() for arg in ("--override", f"{name}={v}")]
    expected: list[str] = []

    def check(stdout: str) -> str | None:
        if not expected:
            expected.append(_reference_answer(repo, reach, mandatory, optional, overrides))
        return None if stdout == expected[0] else "output differs from the reference answer"

    return argv, check


def _older(repo, name: str) -> list:
    """Released versions of a package usable at 8.15, except the newest."""
    from pickforge.versioning import parse_version, satisfies

    usable = sorted(
        v for v, m in repo.packages[name].items()
        if satisfies(parse_version("8.15"), m.toolchain) and not m.dev
    )
    return usable[:-1]


def _reference_answer(repo, reach, mandatory, optional, overrides) -> str:
    from pickforge.index import Repository
    from pickforge.solver import SelectionRequest, enumerate_best
    from pickforge.versioning import parse_version

    sub = Repository(toolchains=repo.toolchains, packages={n: repo.packages[n] for n in reach})
    request = SelectionRequest(
        toolchain=parse_version("8.15"),
        mandatory=frozenset([mandatory]),
        optional=frozenset(optional),
        overrides=overrides,
    )
    pick = enumerate_best(sub, request)
    payload = {
        "toolchain": "8.15",
        "selected": {n: str(v) for n, v in sorted(pick.selected.items())},
        "excluded": dict(sorted(pick.excluded.items())),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def platform(rng: random.Random, work: Path) -> Workload:
    seen: dict[Path, bytes] = {}
    repos = Repos()
    names = json.loads((PLATFORM / "index.json").read_text())["packages"]
    universe = [arg for n in sorted(set(names) - UNIVERSE_EXCLUDES) for arg in ("--optional", n)]
    resolve_golden = _golden("cli-resolve-8.15.json")
    golden_pick = json.loads(resolve_golden)
    upgrade_golden = _golden("cli-upgrade-8.13-8.15.json")
    policy_golden = json.loads(_golden("cli-policy-tautline.json"))
    diff_expected = json.dumps(
        json.loads(upgrade_golden)["steps"][0]["diff"], sort_keys=True, indent=2
    ) + "\n"
    prev, cur, full, smoke_lock = (
        work / "prev.lock.json", work / "cur.lock.json",
        work / "all.lock.json", work / "smoke.lock.json",
    )
    platform_args = ["--index", str(PLATFORM)]
    smoke_args = ["--index", str(SMOKE)]

    def check_prev(_stdout):
        data, problem = _stable_bytes(prev, seen)
        return problem or _pick_problems(repos, PLATFORM, data)

    def check_cur(_stdout):
        data, problem = _stable_bytes(cur, seen)
        if problem:
            return problem
        payload = json.loads(data)
        if payload["predecessor"] != "2021.09.0":
            return "predecessor is not 2021.09.0"
        newest = payload["picks"][-1]
        if newest["selected"] != golden_pick["selected"] or newest["excluded"]:
            return "8.15 pick differs from the resolve golden"
        return _pick_problems(repos, PLATFORM, data)

    def check_full(_stdout):
        data, problem = _stable_bytes(full, seen)
        if problem:
            return problem
        if json.loads(data)["picks"][-1] != golden_pick:
            return "8.15 pick differs from the resolve golden"
        return _pick_problems(repos, PLATFORM, data)

    def check_policy(stdout):
        payload = json.loads(stdout)
        if payload["tautline"] != policy_golden["tautline"]:
            return "tautline differs from the policy golden"
        flagged = {name for name, entry in payload.items() if not entry["compliant"]}
        if flagged != SUCCESSION_VIOLATORS:
            return f"violators {sorted(flagged)}"
        return None

    def check_smoke_release(_stdout):
        data, problem = _stable_bytes(smoke_lock, seen)
        if problem:
            return problem
        if json.loads(data)["picks"][0]["selected"] != {n: "1.0" for n in SMOKE_STATUSES}:
            return "smoke pick does not select every package at 1.0"
        return _pick_problems(repos, SMOKE, data)

    script_seen: list[str] = []

    def check_script(stdout):
        script_seen.append(stdout)
        if stdout != script_seen[0]:
            return "script differs from the first run"
        if not stdout.startswith("#!/bin/sh\n"):
            return "script lacks the shebang"
        order = [line.split()[4] for line in stdout.splitlines() if line.startswith("printf")]
        if sorted(order) != sorted(SMOKE_STATUSES):
            return f"script steps {order}"
        if any(order.index(a) > order.index(b) for a, b in SMOKE_ORDER_EDGES):
            return "script steps out of dependency order"
        return None

    def check_smoke(stdout):
        steps = {step["name"]: step["status"] for step in json.loads(stdout)["steps"]}
        return None if steps == SMOKE_STATUSES else f"smoke statuses {steps}"

    request_argv, check_request = _platform_request(rng, repos)
    box = work / "box"
    warmup = Op("release-previous", ["release", *platform_args, "--version", "2021.09.0",
                                     "--toolchain", "8.12", "--toolchain", "8.13",
                                     "--output", str(prev), *universe],
                PLATFORM, 50, EXIT_OK, check_prev, prev)
    ops = [
        Op("release", ["release", *platform_args, "--version", RELEASE_VERSION,
                       "--previous", str(prev), "--strict-removals",
                       "--output", str(cur), *universe], PLATFORM, 50, EXIT_OK, check_cur, cur),
        Op("release-all", ["release", *platform_args, "--version", "2022.02.0",
                           "--output", str(full)], PLATFORM, 50, EXIT_OK, check_full, full),
        Op("resolve-golden", ["resolve", *platform_args, "--toolchain", "8.15",
                              "--format", "json"], PLATFORM, 50, EXIT_OK, _equals(resolve_golden)),
        Op("resolve-request", request_argv, PLATFORM, 50, EXIT_OK, check_request),
        Op("diff", ["diff", "--lockfile", str(cur), "--from", "8.13", "--to", "8.14",
                    "--format", "json"], PLATFORM, 50, EXIT_OK, _equals(diff_expected)),
        Op("upgrade", ["upgrade", "--lockfile", str(cur), "--from", "8.13", "--to", "8.15",
                       "--format", "json"], PLATFORM, 50, EXIT_OK, _equals(upgrade_golden)),
        Op("coordinate", ["coordinate", *platform_args, "--rc", "8.15", "--reference", str(full),
                          "--reference-toolchain", "8.14"], PLATFORM, 50, EXIT_OK,
           _equals(_golden("coordination-8.15.md") + "\n")),
        Op("policy", ["policy", *platform_args, "--format", "json"], PLATFORM, 50, EXIT_FAILURE,
           check_policy),
        Op("release-smoke", ["release", *smoke_args, "--version", RELEASE_VERSION,
                             "--output", str(smoke_lock)], SMOKE, 6, EXIT_OK, check_smoke_release,
           smoke_lock),
        Op("script", ["script", *smoke_args, "--lockfile", str(smoke_lock)], SMOKE, 6, EXIT_OK,
           check_script),
        Op("smoke", ["smoke", *smoke_args, "--lockfile", str(smoke_lock), "--sandbox", str(box),
                     "--jobs", "2", "--format", "json"], SMOKE, 6, EXIT_FAILURE, check_smoke, box),
    ]
    return Workload(warmup, ops, [PLATFORM, SMOKE], Inputs())


# --- ladder: trivially satisfiable indexes of growing size ---------------------------

LADDER_RUNGS = (50, 100, 200, 300, 400)
LADDER_VERSIONS = ("0.9", "1.0", "1.1", "2.0", "2.1")


def ladder_index(rng: random.Random, size: int):
    """Floors-only toolchain constraints; every dependency points to an
    earlier package that is available at least as early, with ``*`` or
    ``>=lowest``.  So at each toolchain every available package fits at its
    newest available version, which is the expected pick.  Returns the
    manifests and, per toolchain, that newest version of each package."""
    manifests, floors, lowest = [], {}, {}
    names = [f"p{i:04d}" for i in range(size)]
    for i, name in enumerate(names):
        first = rng.choices(range(4), weights=(70, 15, 10, 5))[0]
        versions = sorted(rng.sample(LADDER_VERSIONS, rng.choice((1, 2, 2, 3))), key=_vkey)
        peers = [n for n in names[:i] if floors[n][0][1] <= first]
        depends = [
            (dep, rng.choice(("*", f">={lowest[dep]}")))
            for dep in sorted(rng.sample(peers, min(len(peers), rng.randint(0, 3))))
        ]
        floor, floors[name], lowest[name] = first, [], versions[0]
        for version in versions:
            floors[name].append((version, floor))
            manifests.append(manifest(name, version, f">={TOOLCHAINS[floor]}", depends))
            floor = min(3, floor + rng.choice((0, 0, 1)))
    newest = {
        toolchain: {
            name: max((v for v, f in floors[name] if f <= k), key=_vkey)
            for name in names if floors[name][0][1] <= k
        }
        for k, toolchain in enumerate(TOOLCHAINS)
    }
    return names, manifests, newest


def ladder(rng: random.Random, work: Path) -> Workload:
    """Each rung is a prefix of the top rung.  Dependencies point to earlier
    packages, so a prefix is a closed index; the rungs share the top rung's
    package files, which keeps the set-up's file writes to one index."""
    seen: dict[Path, bytes] = {}
    repos = Repos()
    top = max(LADDER_RUNGS)
    names, manifests, newest = ladder_index(rng, top)
    shared = work / f"ladder-{top}"
    inputs = Inputs()
    write_index(inputs, shared, TOOLCHAINS, manifests)
    ops = []
    for size in LADDER_RUNGS:
        index = work / f"ladder-{size}"
        if size != top:
            inputs.dump(index / "index.json", {"toolchains": list(TOOLCHAINS), "packages": names[:size]})
            inputs.links[index / "packages"] = Path("..") / shared.name / "packages"
        keep = set(names[:size])
        expected = {
            toolchain: ({n: v for n, v in selected.items() if n in keep}, keep - set(selected))
            for toolchain, selected in newest.items()
        }
        ops.append(_release_op(f"release-{size}", repos, index, work, size, expected, seen))
    return Workload(ops[0], ops, [shared], inputs)


# --- cliff and unsat: planted incompatibilities behind multi-version fillers -------

FILLER_VERSIONS = ("1.0", "1.1", "1.2", "2.0")

# (planted kind, filler version counts in name order, index size).  The
# product of the counts sets the cost of each exhaustive search on the seed
# resolver, so the strata run from about 50 ms to 2 s per op.  The seed
# draws the dependency edges and the tail; it does not reorder the counts,
# because the order changes the search's node count by up to a third and
# would make runs on different seeds disagree.
CLIFF_STRATA = (
    ("conflict", (2,) * 10, 60),
    ("hub-after", (2,) * 10, 65),
    ("hub-first", (2,) * 9 + (3,), 70),
    ("conflict", (2,) * 11 + (3,), 75),
    ("hub-after", (2,) * 8 + (3,) * 3, 80),
    ("hub-first", (2,) * 10 + (3,) * 2, 85),
    ("conflict", (2,) * 12 + (3,) * 2, 90),
)
UNSAT_STRATA = (
    ("conflict", (2,) * 10, 30),
    ("hub", (2,) * 11, 35),
    ("triangle", (2,) * 10 + (3,), 40),
    ("conflict", (2,) * 10 + (3,) * 2, 45),
    ("hub", (2,) * 10 + (3,) * 2, 50),
)


def _fillers(rng: random.Random, counts, linked: bool) -> tuple[list[dict], dict[str, str]]:
    """Multi-version packages, all of which fit at their newest version.

    When ``linked``, each depends on up to two earlier fillers with
    constraints every version satisfies."""
    manifests, newest = [], {}
    names = [f"f{i:03d}" for i in range(len(counts))]
    for i, (name, count) in enumerate(zip(names, counts)):
        links = min(i, rng.randint(0, 2)) if linked else 0
        depends = [(dep, rng.choice(("*", ">=1.0")))
                   for dep in sorted(rng.sample(names[:i], links))]
        for version in FILLER_VERSIONS[:count]:
            manifests.append(manifest(name, version, depends=depends))
        newest[name] = FILLER_VERSIONS[count - 1]
    return manifests, newest


def _tail(rng: random.Random, earlier: list[str], count: int) -> tuple[list[dict], dict[str, str]]:
    names = [f"t{i:03d}" for i in range(count)]
    manifests = []
    for i, name in enumerate(names):
        pool = earlier + names[:i]
        depends = [(dep, "*") for dep in sorted(rng.sample(pool, min(len(pool), rng.randint(0, 2))))]
        manifests.append(manifest(name, "1.0", depends=depends))
    return manifests, {name: "1.0" for name in names}


def cliff_index(rng: random.Random, kind: str, counts, size: int):
    """All-optional, single toolchain.  The later-named member of the planted
    pair ``p-a``/``p-b`` must be left out; everything else is selected at its
    newest feasible version."""
    manifests, newest = _fillers(rng, counts, linked=True)
    selected = dict(newest)
    if kind == "conflict":
        manifests += [manifest("p-a", "1.0", conflicts=[("p-b", "*")]), manifest("p-b", "1.0")]
    else:
        # hub-first sorts before the fillers, so fixing its version runs one
        # more exhaustive probe; hub-after sorts after them
        hub = "a-hub" if kind == "hub-first" else "h-hub"
        manifests += [manifest(hub, "1.0"), manifest(hub, "2.0"),
                      manifest("p-a", "1.0", depends=[(hub, "<2.0")]),
                      manifest("p-b", "1.0", depends=[(hub, ">=2.0")])]
        selected[hub] = "1.0"
    selected["p-a"] = "1.0"
    planted = len({entry["name"] for entry in manifests})
    tail, tail_selected = _tail(rng, sorted(newest), size - planted)
    selected.update(tail_selected)
    return manifests + tail, {TOOLCHAINS[-1]: (selected, {"p-b"})}


def cliff(rng: random.Random, work: Path) -> Workload:
    seen: dict[Path, bytes] = {}
    repos = Repos()
    inputs = Inputs()
    ops, indexes = [], []
    for i, (kind, counts, size) in enumerate(CLIFF_STRATA):
        manifests, expected = cliff_index(rng, kind, counts, size)
        index = work / f"cliff-{i}"
        write_index(inputs, index, TOOLCHAINS[-1:], manifests)
        indexes.append(index)
        ops.append(_release_op(f"release-{i}-{kind}", repos, index, work, size, expected, seen))
    return Workload(ops[0], ops, indexes, inputs)


def unsat_index(rng: random.Random, kind: str, counts, size: int):
    """Fillers plus a planted core that sorts after them; the core is the
    only minimal unsatisfiable subset of the mandatory set.  The fillers are
    not linked: a link keeps a deleted filler in the search, which makes
    the culprit search's cost depend on the seed far more than on the
    counts."""
    manifests, fillers = _fillers(rng, counts, linked=False)
    if kind == "conflict":
        core = ["q-x", "q-y"]
        manifests += [manifest("q-x", "1.0", conflicts=[("q-y", "*")]), manifest("q-y", "1.0")]
    elif kind == "hub":
        core = ["q-x", "q-y"]
        manifests += [manifest("r-hub", "1.0"), manifest("r-hub", "2.0"),
                      manifest("q-x", "1.0", depends=[("r-hub", ">=2.0")]),
                      manifest("q-y", "1.0", depends=[("r-hub", "<2.0")])]
    else:
        # every pair of the three has a common hub version, all three none
        core = ["q-x", "q-y", "q-z"]
        manifests += [manifest("r-hub", v) for v in ("1.0", "2.0", "3.0")]
        manifests += [manifest("q-x", "1.0", depends=[("r-hub", ">=2.0")]),
                      manifest("q-y", "1.0", depends=[("r-hub", "!=2.0")]),
                      manifest("q-z", "1.0", depends=[("r-hub", "<=2.0")])]
    planted = len({entry["name"] for entry in manifests})
    tail, _ = _tail(rng, sorted(fillers), size - planted)
    return manifests + tail, sorted(fillers) + core, core


def unsat(rng: random.Random, work: Path) -> Workload:
    inputs = Inputs()
    ops, indexes = [], []
    for i, (kind, counts, size) in enumerate(UNSAT_STRATA):
        manifests, mandatory, core = unsat_index(rng, kind, counts, size)
        index = work / f"unsat-{i}"
        write_index(inputs, index, TOOLCHAINS[-1:], manifests)
        indexes.append(index)

        def check(stdout: str, core=core) -> str | None:
            payload = json.loads(stdout)
            if payload["culprits"] != core:
                return f"culprits {payload['culprits']} != {core}"
            return None if payload["narrative"] else "empty narrative"

        argv = ["resolve", "--index", str(index), "--toolchain", TOOLCHAINS[-1], "--format", "json"]
        argv += [arg for name in mandatory for arg in ("--mandatory", name)]
        ops.append(Op(f"resolve-{i}-{kind}", argv, index, size, EXIT_UNSAT, check))
    return Workload(ops[0], ops, indexes, inputs)


WORKLOADS = {"platform": platform, "ladder": ladder, "cliff": cliff, "unsat": unsat}
