"""Resolution of package picks: one version per included package.

A feasible selection maps package names to versions such that every
selected manifest admits the requested toolchain, every dependency is
selected at a satisfying version, no two selected packages are mutually
exclusive, and every selected package is justified: reachable from the
mandatory set or an included optional through dependency edges.  Dev
snapshots are candidates only when the request opts in; overrides pin a
package to one version before search and take precedence over the dev
filter.

Among feasible selections the result is the unique optimum under a
lexicographic objective:

1. every mandatory package is selected, otherwise resolution fails with
   an UnsatReport whose culprit set is a minimal unsatisfiable subset;
2. the number of included optional packages is maximal;
3. ties prefer including lexicographically earlier optional names;
4. remaining ties compare selected versions package by package in
   ascending name order, preferring presence over absence and newer
   versions over older ones.

``resolve_pick`` finds the optimum with one branch-and-bound search
(``_search``) over candidate tables built once per request
(``_SearchSpace``).  The search branches in the objective's own order and
backjumps on conflicts, so the first selection it finds is the best with
its number of optionals.  The search then resumes and asks for strictly
more optionals, until no such selection exists.  ``enumerate_best``
recomputes the optimum by exhaustive enumeration and serves as the
reference implementation for testing.  Both are pure and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import PickforgeError
from .index import Repository, UnknownPackageError, compatible_versions
from .versioning import Constraint, Version, compare_versions, satisfies

# verify_pick violation kinds
SELECTION_OVERLAP = "SelectionOverlap"
UNKNOWN_VERSION = "UnknownVersion"
TOOLCHAIN_VIOLATION = "ToolchainViolation"
DEPENDENCY_MISSING = "DependencyMissing"
DEPENDENCY_VIOLATION = "DependencyViolation"
MUTUAL_EXCLUSION = "MutualExclusion"


class OverrideError(PickforgeError):
    """An override pins a version that cannot be used."""


class EnumerationLimitError(PickforgeError):
    """The assignment space exceeds the caller-supplied enumeration limit."""


@dataclass
class SelectionRequest:
    """What to resolve: a toolchain plus mandatory and optional package sets."""

    toolchain: Version
    mandatory: frozenset[str] = frozenset()
    optional: frozenset[str] = frozenset()
    overrides: dict[str, Version] = field(default_factory=dict)
    include_dev: bool = False

    def __post_init__(self) -> None:
        self.mandatory = frozenset(self.mandatory)
        self.optional = frozenset(self.optional)
        self.overrides = dict(self.overrides)
        overlap = self.mandatory & self.optional
        if overlap:
            raise ValueError(
                f"packages cannot be both mandatory and optional: {', '.join(sorted(overlap))}"
            )
        stray = set(self.overrides) - (self.mandatory | self.optional)
        if stray:
            raise ValueError(
                f"override targets outside the request: {', '.join(sorted(stray))}"
            )


@dataclass
class Pick:
    """A resolved selection for one toolchain, with reasons for exclusions."""

    toolchain: Version
    selected: dict[str, Version] = field(default_factory=dict)
    excluded: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class UnsatReport:
    """Why no pick exists: a minimal conflicting subset of the mandatory set."""

    culprits: tuple[str, ...]
    narrative: tuple[str, ...]


@dataclass(frozen=True)
class PickViolation:
    kind: str
    package: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def verify_pick(repo: Repository, pick: Pick) -> list[PickViolation]:
    """Check every pick invariant directly against the repository.

    Independent of the solver; an empty list means the pick is valid.
    """
    violations = []
    for name in sorted(set(pick.selected) & set(pick.excluded)):
        violations.append(
            PickViolation(SELECTION_OVERLAP, name, f"{name} is both selected and excluded")
        )
    for name in sorted(pick.selected):
        version = pick.selected[name]
        manifest = repo.packages.get(name, {}).get(version)
        if manifest is None:
            violations.append(
                PickViolation(UNKNOWN_VERSION, name, f"{name} {version} is not in the repository")
            )
            continue
        if not satisfies(pick.toolchain, manifest.toolchain):
            violations.append(
                PickViolation(
                    TOOLCHAIN_VIOLATION,
                    name,
                    f"{name} {version} needs toolchain {manifest.toolchain}, "
                    f"pick targets {pick.toolchain}",
                )
            )
        for dep, constraint in manifest.depends:
            if dep not in pick.selected:
                violations.append(
                    PickViolation(
                        DEPENDENCY_MISSING,
                        name,
                        f"{name} {version} requires {dep} {constraint}, which is not selected",
                    )
                )
            elif not satisfies(pick.selected[dep], constraint):
                violations.append(
                    PickViolation(
                        DEPENDENCY_VIOLATION,
                        name,
                        f"{name} {version} requires {dep} {constraint}, "
                        f"but {dep}={pick.selected[dep]} is selected",
                    )
                )
        for other, constraint in manifest.conflicts:
            if other in pick.selected and satisfies(pick.selected[other], constraint):
                violations.append(
                    PickViolation(
                        MUTUAL_EXCLUSION,
                        name,
                        f"{name} {version} conflicts with {other}={pick.selected[other]}",
                    )
                )
    return violations


# --- shared request plumbing --------------------------------------------------


def _validate_request(repo: Repository, req: SelectionRequest) -> None:
    for name in sorted(req.mandatory | req.optional | set(req.overrides)):
        if name not in repo.packages:
            raise UnknownPackageError(name)
    for name in sorted(req.overrides):
        version = req.overrides[name]
        if version not in repo.packages[name]:
            raise OverrideError(f"override {name}={version} names an unknown version")
        manifest = repo.packages[name][version]
        if not satisfies(req.toolchain, manifest.toolchain):
            raise OverrideError(
                f"override {name}={version} violates its toolchain constraint "
                f"({manifest.toolchain}) at {req.toolchain}"
            )


def _candidate_versions(
    repo: Repository,
    toolchain: Version,
    include_dev: bool,
    overrides: dict[str, Version],
    name: str,
) -> tuple[Version, ...]:
    """Selectable versions of a package, newest first.  Overrides pin exactly
    one version and bypass the dev filter."""
    if name in overrides:
        return (overrides[name],)
    return tuple(compatible_versions(repo, name, toolchain, include_dev))


def _version_ranks(repo: Repository) -> dict[str, dict[Version, int]]:
    return {
        name: {
            version: rank
            for rank, version in enumerate(sorted(repo.packages[name], reverse=True))
        }
        for name in repo.packages
    }


def _solution_key(
    repo: Repository,
    req: SelectionRequest,
    assignment: dict[str, Version],
    ranks: dict[str, dict[Version, int]] | None = None,
):
    """The lexicographic objective; smaller keys are better selections."""
    if ranks is None:
        ranks = _version_ranks(repo)
    optional_sorted = sorted(req.optional)
    count = sum(1 for o in optional_sorted if o in assignment)
    inclusion = tuple(0 if o in assignment else 1 for o in optional_sorted)
    vector = tuple(
        (0, ranks[name][assignment[name]]) if name in assignment else (1,)
        for name in sorted(repo.packages)
    )
    return (-count, inclusion, vector)


def _build_pick(
    repo: Repository, req: SelectionRequest, assignment: dict[str, Version]
) -> Pick:
    selected = {name: assignment[name] for name in sorted(assignment)}
    excluded = {}
    for name in sorted(req.optional):
        if name not in assignment:
            excluded[name] = _exclusion_reason(repo, req, selected, name)
    return Pick(toolchain=req.toolchain, selected=selected, excluded=excluded)


def _exclusion_reason(
    repo: Repository, req: SelectionRequest, selected: dict[str, Version], name: str
) -> str:
    """Deterministic explanation of why an optional package is not selected."""
    candidates = _candidate_versions(repo, req.toolchain, req.include_dev, req.overrides, name)
    if not candidates:
        if any(
            satisfies(req.toolchain, manifest.toolchain)
            for manifest in repo.packages[name].values()
        ):
            return f"only development snapshots support toolchain {req.toolchain}"
        return f"no version supports toolchain {req.toolchain}"
    newest = candidates[0]
    manifest = repo.packages[name][newest]
    for other, constraint in manifest.conflicts:
        if other in selected and satisfies(selected[other], constraint):
            return f"conflict with {other}={selected[other]}"
    for other in sorted(selected):
        other_manifest = repo.packages[other][selected[other]]
        for target, constraint in other_manifest.conflicts:
            if target == name and satisfies(newest, constraint):
                return f"conflict with {other}={selected[other]}"
    for dep, constraint in manifest.depends:
        if dep in selected and not satisfies(selected[dep], constraint):
            return f"requires {dep} {constraint} but {dep}={selected[dep]} is selected"
    for dep, constraint in manifest.depends:
        if dep not in selected and not _candidate_versions(
            repo, req.toolchain, req.include_dev, req.overrides, dep
        ):
            return f"requires {dep}, which has no version for toolchain {req.toolchain}"
    return "cannot be added without breaking the current selection"


def _unsat_report(repo: Repository, req: SelectionRequest, sat) -> UnsatReport:
    """Deletion-minimal unsatisfiable subset of the mandatory set.

    ``sat`` answers whether a given set of names is jointly installable
    under the request's toolchain, overrides, and dev filter.
    """
    core = sorted(req.mandatory)
    for name in sorted(req.mandatory):
        if name not in core:
            continue
        trial = [c for c in core if c != name]
        if not sat(frozenset(trial)):
            core = trial
    culprits = tuple(core)
    if len(culprits) == 1:
        narrative = [
            f"mandatory package {culprits[0]} cannot be installed at toolchain {req.toolchain}"
        ]
    else:
        narrative = [
            f"mandatory packages {', '.join(culprits)} cannot be jointly satisfied "
            f"at toolchain {req.toolchain}"
        ]
        for name in culprits:
            if sat(frozenset([name])):
                narrative.append(f"{name}: installable alone but incompatible with the other culprits")
            else:
                narrative.append(
                    f"{name}: cannot be installed at toolchain {req.toolchain} even alone"
                )
    return UnsatReport(culprits=culprits, narrative=tuple(narrative))


# --- branch-and-bound resolver ------------------------------------------------


class _SearchSpace:
    """Candidate tables for one request, built once and shared by its searches.

    Every selectable (name, version) is a candidate with an integer id.
    ``ids[name]`` holds a package's candidates, newest first, and
    ``versions[c]`` maps an id back to its version.  ``requires[c]`` names
    the packages candidate ``c`` depends on, and ``dependents[name]`` the
    packages with a candidate that depends on ``name``.  ``blocked[c]`` holds
    every candidate that cannot be selected together with ``c``: one of the
    two depends on the other's package and the other's version does not
    satisfy that dependency, or one conflicts with the other.  The search
    reads only these tables, so it never compares versions.
    """

    def __init__(self, repo: Repository, req: SelectionRequest):
        self.versions: list[Version] = []
        self.ids: dict[str, tuple[int, ...]] = {}
        manifests = []
        for name in repo.packages:
            domain = _candidate_versions(
                repo, req.toolchain, req.include_dev, req.overrides, name
            )
            self.ids[name] = tuple(range(len(self.versions), len(self.versions) + len(domain)))
            self.versions.extend(domain)
            manifests.extend(repo.packages[name][version] for version in domain)

        def matching(target: str, constraint: Constraint) -> frozenset[int]:
            return frozenset(
                c for c in self.ids[target] if satisfies(self.versions[c], constraint)
            )

        depends = [
            [(dep, matching(dep, constraint)) for dep, constraint in manifest.depends]
            for manifest in manifests
        ]
        self._prune_unmeetable(depends)
        self.requires = [tuple(dep for dep, _ in edges) for edges in depends]
        dependents: dict[str, set[str]] = {name: set() for name in self.ids}
        blocked: list[set[int]] = [set() for _ in manifests]
        for name, ids in self.ids.items():
            for c in ids:
                for dep in self.requires[c]:
                    dependents[dep].add(name)
                clashing = [
                    other
                    for dep, allowed in depends[c]
                    for other in self.ids[dep]
                    if other not in allowed
                ]
                for target, constraint in manifests[c].conflicts:
                    clashing.extend(matching(target, constraint))
                for other in clashing:
                    blocked[c].add(other)
                    blocked[other].add(c)
        self.dependents = {name: tuple(sorted(names)) for name, names in dependents.items()}
        self.blocked = [frozenset(b) for b in blocked]
        # optionals that can never be selected are dropped from branching;
        # they contribute nothing to any selection's optional count
        self.live_optionals = tuple(o for o in sorted(req.optional) if self.ids[o])

    def _prune_unmeetable(self, depends: list[list[tuple[str, frozenset[int]]]]) -> None:
        """Arc consistency over dependency edges: drop candidates with a
        dependency no remaining candidate of the target satisfies.  Pruned
        candidates cannot appear in any feasible selection, so this only
        shrinks the search, never its solution set."""
        changed = True
        while changed:
            changed = False
            for name in sorted(self.ids):
                kept = tuple(
                    c
                    for c in self.ids[name]
                    if all(not allowed.isdisjoint(self.ids[dep]) for dep, allowed in depends[c])
                )
                if len(kept) != len(self.ids[name]):
                    self.ids[name] = kept
                    changed = True


_ABSENT = -1  # the value that leaves a package out of the selection
_IN = -2  # an optional's first value: the package must be selected


@dataclass(slots=True)
class _ChoicePoint:
    """One level of the search stack: a package and the values left to try.

    ``cause`` is the level that put an included optional in (None for any
    other package); ``conflicts`` collects the levels that refuted the
    values tried so far.
    """

    name: str
    values: tuple[int, ...]
    cause: int | None = None
    next: int = 0
    value: int | None = None
    conflicts: set[int] = field(default_factory=set)


def _closure(names, successors) -> set[str]:
    """``names`` and every name reachable from them through ``successors``."""
    seen = set(names)
    todo = list(seen)
    while todo:
        for name in successors(todo.pop()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def _search(
    space: _SearchSpace, mandatory: frozenset[str], optionals: tuple[str, ...]
) -> dict[str, Version] | None:
    """The optimal selection containing ``mandatory``, or None if none exists.

    ``optionals`` are the live optional names in name order.  The search is
    depth first over an explicit stack of choice points, and branches in
    the objective's own order: first one level per optional, "in" before
    "out"; then one level per package reachable from ``mandatory`` and the
    optionals, in name order, skipping the optionals left out.  Each takes
    its candidates newest first, then "absent", except mandatory packages
    and included optionals, which must be selected.  So the first selection
    found is the best with its number of optionals.  It becomes the
    incumbent, the bound tightens to strictly more optionals, and the
    search resumes; the last incumbent is the optimum.

    Every failure yields a conflict set, the levels whose decisions jointly
    refute it:

    - a candidate: the earliest level that chose a candidate blocking it or
      left out one of its dependencies; for a package no root needs, once
      every package able to require it is decided and none does, the
      levels that decided them;
    - "absent": the earliest level whose candidate requires the package;
    - "out", once the bound allows no more: the optionals left out;
    - an exhausted choice point: its values' conflict sets, less its own
      level, plus the level that put an included optional in;
    - a complete selection that becomes the incumbent: the optionals left
      out.  One with a package no root reaches fails instead; each such
      package has a set, its own level plus the reached or left-out
      packages through which a root could reach it, and the set that
      backjumps farthest is used.

    A failed subtree whose conflict set lacks the level of the choice point
    above it is independent of that choice, so the search backjumps past
    the point without trying its other values (conflict-directed
    backjumping, Prosser 1993).  Nothing is learned from a failure.
    """
    requires, blocked, dependents = space.requires, space.blocked, space.dependents
    universe = _closure(
        mandatory.union(optionals), lambda name: (d for c in space.ids[name] for d in requires[c])
    )
    width = len(optionals)  # the levels below this decide the optionals
    chosen: dict[str, int] = {}  # name -> its candidate
    level_of: dict[int, int] = {}  # chosen candidate -> its level
    excluded: dict[str, int] = {}  # name -> the level that left it out
    included: dict[str, int] = {}  # optional -> the level that put it in
    names = optionals  # the package each level decides
    stack: list[_ChoicePoint] = []
    best: dict[str, Version] | None = None
    max_out = width  # the bound: how many optionals may be left out

    def decided_at(name: str) -> int:
        return excluded[name] if name in excluded else level_of[chosen[name]]

    def refutation(name: str, level: int, value: int) -> set[int] | None:
        """The levels that rule ``value`` out, or None when it is consistent."""
        if value == _IN:
            return None
        if value == _ABSENT and level < width:
            # only optionals are decided yet, so these are the ones left out
            return set(excluded.values()) if len(excluded) >= max_out else None
        if value == _ABSENT:
            requirers = [
                decided_at(d)
                for d in dependents[name]
                if d in chosen and name in requires[chosen[d]]
            ]
            return {min(requirers)} if requirers else None
        levels = [excluded[dep] for dep in requires[value] if dep in excluded]
        levels.extend(level_of[other] for other in blocked[value] if other in level_of)
        if levels:
            return {min(levels)}
        if name in mandatory or name in included:
            return None
        for d in dependents[name]:
            if d in universe and d not in excluded:
                if d not in chosen or name in requires[chosen[d]]:
                    return None  # it requires the package, or may still
        return {decided_at(d) for d in dependents[name] if d in universe}

    def stray_conflict() -> set[int] | None:
        """None when a root reaches every chosen package, else the conflict
        set of the unreached package that backjumps farthest."""
        reached = _closure(mandatory.union(included), lambda name: requires[chosen[name]])

        def stops(name: str) -> bool:  # a root could reach a stray only past these
            return name in reached or excluded.get(name, width) < width

        sets = []
        for stray in chosen:
            if stray not in reached:
                walk = _closure({stray}, lambda name: () if stops(name) else dependents[name])
                sets.append({decided_at(name) for name in walk if name == stray or stops(name)})
        return min(sets, key=lambda levels: sorted(levels, reverse=True), default=None)

    def retract(point: _ChoicePoint) -> None:
        if point.value == _IN:
            del included[point.name]
        elif point.value == _ABSENT:
            del excluded[point.name]
        elif point.value is not None:
            del chosen[point.name]
            del level_of[point.value]
        point.value = None

    failure: set[int] | None = None
    while True:
        if failure is None:
            # the top choice point holds a consistent value: open the next level
            level = len(stack)
            if level == width:
                names = optionals + tuple(sorted(universe.difference(excluded)))
            if level < width:
                stack.append(_ChoicePoint(names[level], (_IN, _ABSENT)))
            elif level < len(names):
                name = names[level]
                absent = () if name in mandatory or name in included else (_ABSENT,)
                stack.append(_ChoicePoint(name, space.ids[name] + absent, included.get(name)))
            else:
                failure = stray_conflict()
                if failure is None:
                    best = {name: space.versions[c] for name, c in chosen.items()}
                    failure = {out for out in excluded.values() if out < width}
                    max_out = len(failure) - 1
        if failure is not None:
            # backjump to the deepest level the failure depends on
            while stack and len(stack) - 1 not in failure:
                retract(stack.pop())
            if not stack:
                return best
            retract(stack[-1])
            failure.discard(len(stack) - 1)
            stack[-1].conflicts |= failure
            failure = None
        # move the top choice point to its next value no earlier level rules out
        point = stack[-1]
        level = len(stack) - 1
        while point.next < len(point.values):
            value = point.values[point.next]
            point.next += 1
            refuted = refutation(point.name, level, value)
            if refuted is not None:
                point.conflicts |= refuted
                continue
            if value == _IN:
                included[point.name] = level
            elif value == _ABSENT:
                excluded[point.name] = level
            else:
                chosen[point.name] = value
                level_of[value] = level
            point.value = value
            break
        else:
            failure = point.conflicts
            if point.cause is not None:
                failure.add(point.cause)
            stack.pop()


def resolve_pick(repo: Repository, req: SelectionRequest) -> Pick | UnsatReport:
    """Resolve the optimal pick for a request, or explain why none exists.

    One branch-and-bound search finds the optimum; only when it proves the
    mandatory set unsatisfiable do further searches, one per subset tried,
    extract the culprits.

    Precondition: validate_repository(repo) is empty.
    """
    _validate_request(repo, req)
    space = _SearchSpace(repo, req)
    best = _search(space, req.mandatory, space.live_optionals)
    if best is None:
        return _unsat_report(
            repo, req, lambda subset: _search(space, subset, ()) is not None
        )
    return _build_pick(repo, req, best)


# --- exhaustive reference implementation ---------------------------------------


def enumerate_best(
    repo: Repository, req: SelectionRequest, limit: int = 1_000_000
) -> Pick | UnsatReport:
    """Exhaustively enumerate every assignment and apply the same objective.

    Deliberately brute force: the reference against which resolve_pick is
    tested.  Refuses (never approximates) when the assignment space exceeds
    ``limit``.
    """
    _validate_request(repo, req)
    space_size = 1
    for name in repo.packages:
        space_size *= len(repo.packages[name]) + 1
        if space_size > limit:
            raise EnumerationLimitError(
                f"assignment space exceeds limit of {limit} assignments"
            )
    names = sorted(repo.packages)
    choices = [[None] + sorted(repo.packages[name], reverse=True) for name in names]
    ranks = _version_ranks(repo)
    best: dict[str, Version] | None = None
    best_key = None
    for combo in itertools.product(*choices):
        assignment = {
            name: version for name, version in zip(names, combo) if version is not None
        }
        if not _enum_feasible(
            repo,
            req.toolchain,
            req.mandatory,
            req.optional,
            req.overrides,
            req.include_dev,
            assignment,
        ):
            continue
        key = _solution_key(repo, req, assignment, ranks)
        if best_key is None or key < best_key:
            best, best_key = assignment, key
    if best is None:

        def sat(subset: frozenset[str]) -> bool:
            return any(
                _enum_feasible(
                    repo,
                    req.toolchain,
                    subset,
                    frozenset(),
                    req.overrides,
                    req.include_dev,
                    {
                        name: version
                        for name, version in zip(names, combo)
                        if version is not None
                    },
                )
                for combo in itertools.product(*choices)
            )

        return _unsat_report(repo, req, sat)
    return _build_pick(repo, req, best)


def _enum_feasible(
    repo: Repository,
    toolchain: Version,
    mandatory: frozenset[str],
    optional: frozenset[str],
    overrides: dict[str, Version],
    include_dev: bool,
    assignment: dict[str, Version],
) -> bool:
    for name in mandatory:
        if name not in assignment:
            return False
    for name, version in assignment.items():
        manifest = repo.packages[name][version]
        if not satisfies(toolchain, manifest.toolchain):
            return False
        if name in overrides:
            if compare_versions(version, overrides[name]) != 0:
                return False
        elif manifest.dev and not include_dev:
            return False
        for dep, constraint in manifest.depends:
            if dep not in assignment or not satisfies(assignment[dep], constraint):
                return False
        for other, constraint in manifest.conflicts:
            if other in assignment and satisfies(assignment[other], constraint):
                return False
    reachable = {name for name in assignment if name in mandatory or name in optional}
    stack = list(reachable)
    while stack:
        name = stack.pop()
        for dep, _ in repo.packages[name][assignment[name]].depends:
            if dep not in reachable:
                reachable.add(dep)
                stack.append(dep)
    return len(reachable) == len(assignment)
