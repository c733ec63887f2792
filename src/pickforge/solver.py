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

``resolve_pick`` finds the optimum by staged greedy descent backed by a
complete depth-first search with conflict-directed backjumping over
candidate tables built once per request (``_SearchSpace``, ``_search``);
``enumerate_best`` recomputes it by exhaustive enumeration and serves as
the reference implementation for testing.  Both are pure and
deterministic.
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


# --- backjumping resolver -----------------------------------------------------


class _SearchSpace:
    """Candidate tables for one request, built once and shared by its searches.

    Every selectable (name, version) is a candidate with an integer id.
    ``domains[name]`` holds a package's selectable versions, newest first,
    and ``ids[name]`` their ids in the same order; ``versions[c]`` maps an id
    back.  ``requires[c]`` names the packages candidate ``c`` depends on, and
    ``blocked[c]`` holds every candidate that cannot be selected together
    with ``c``: one of the two depends on the other's package and the other's
    version does not satisfy that dependency, or one conflicts with the
    other.  The search reads only these tables, so it never compares versions.
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
        self.domains = {
            name: tuple(self.versions[c] for c in ids) for name, ids in self.ids.items()
        }
        self.requires = [tuple(dep for dep, _ in edges) for edges in depends]
        blocked: list[set[int]] = [set() for _ in manifests]
        for ids in self.ids.values():
            for c in ids:
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


_OUT = -1  # the value of an optional's choice point that leaves it out


@dataclass(slots=True)
class _ChoicePoint:
    """One level of the search stack: a package and the values left to try.

    ``cause`` is the level whose assignment pulled the package in (None for
    a root or an optional, which need no cause); ``position`` is an
    optional's index in the branching order (None for a pulled package);
    ``conflicts`` collects the levels that refuted the values tried so far.
    """

    name: str
    values: tuple[int, ...]
    cause: int | None
    position: int | None
    next: int = 0
    value: int | None = None
    pulled: list[str] = field(default_factory=list)
    conflicts: set[int] = field(default_factory=set)


def _search(
    space: _SearchSpace,
    roots: frozenset[str],
    pins: dict[str, Version],
    absent: frozenset[str],
    forced_present: frozenset[str],
    optionals: tuple[str, ...],
    min_count: int,
) -> dict[str, Version] | None:
    """Find any feasible selection honouring the given commitments, or None.

    roots must be selected and justify themselves; names in ``absent`` must
    not appear; names in ``pins`` may only take the pinned version; names in
    ``forced_present`` must end up selected (pulled in as dependencies);
    undecided ``optionals`` are branched over, and the selection must include
    at least ``min_count`` optionals overall.  The search is exhaustive, so
    a None result proves infeasibility.

    The search is depth first over an explicit stack of choice points, one
    per level: the smallest pending (required but unassigned) name takes
    each of its candidates newest first; with nothing pending, the first
    undecided optional takes each candidate, then "out".  Every failure
    yields a conflict set, the levels whose decisions jointly refute it:

    - a rejected candidate: the earliest level that assigned a candidate
      blocking it, or excluded one of its dependencies (none when the
      request itself excluded it);
    - an exhausted choice point: the union of its values' conflict sets,
      less its own level, plus the level that pulled the package in;
    - too few optionals left to reach ``min_count``: the levels of the
      optionals left out so far;
    - a complete selection missing a ``forced_present`` name: every level.

    A failed subtree whose conflict set lacks the level of the choice point
    above it is independent of that choice, so the search backjumps past the
    point without trying its other values (conflict-directed backjumping,
    Prosser 1993).  Only subtrees without a solution are skipped, so the
    first solution found is the one chronological backtracking finds.
    """
    pinned = {
        name: (space.ids[name][space.domains[name].index(version)],)
        for name, version in pins.items()
    }

    def domain(name: str) -> tuple[int, ...]:
        return pinned.get(name) or space.ids[name]

    if any(name in absent or not domain(name) for name in roots):
        return None
    requires, blocked = space.requires, space.blocked
    chosen: dict[str, int] = {}  # name -> its candidate
    level_of: dict[int, int] = {}  # assigned candidate -> its level
    excluded: dict[str, int | None] = dict.fromkeys(absent)  # name -> level, None if absent
    pending: dict[str, int | None] = dict.fromkeys(roots)  # name -> level that pulled it in
    # the count bound fails once more names are excluded than this
    max_excluded = len(absent) + len(optionals) - min_count - len(absent.intersection(optionals))
    stack: list[_ChoicePoint] = []
    positions: list[int] = []  # positions of the optional choice points on the stack

    def refuter(candidate: int) -> int | None:
        """The earliest level whose decision rules ``candidate`` out: -1
        when the request does, None when the candidate is consistent."""
        levels = [excluded[dep] for dep in requires[candidate] if dep in excluded]
        if None in levels:
            return -1
        levels.extend(level_of[other] for other in blocked[candidate] if other in level_of)
        return min(levels, default=None)

    def retract(point: _ChoicePoint) -> None:
        if point.value == _OUT:
            del excluded[point.name]
        elif point.value is not None:
            del chosen[point.name]
            del level_of[point.value]
            for dep in point.pulled:
                del pending[dep]
        point.value = None

    def leave(point: _ChoicePoint) -> None:
        stack.pop()
        if point.position is None:
            pending[point.name] = point.cause
        else:
            positions.pop()

    failure: set[int] | None = None
    while True:
        if failure is None:
            # the top choice point holds a consistent value: open the next one
            if pending:
                name = min(pending)
                stack.append(_ChoicePoint(name, domain(name), pending.pop(name), None))
            elif len(excluded) > max_excluded:
                failure = {level for level in excluded.values() if level is not None}
            else:
                position = positions[-1] + 1 if positions else 0
                while position < len(optionals) and (
                    optionals[position] in chosen or optionals[position] in excluded
                ):
                    position += 1
                if position < len(optionals):
                    name = optionals[position]
                    stack.append(_ChoicePoint(name, domain(name) + (_OUT,), None, position))
                    positions.append(position)
                elif all(name in chosen for name in forced_present):
                    return {name: space.versions[c] for name, c in chosen.items()}
                else:
                    failure = set(range(len(stack)))
        if failure is not None:
            # backjump to the deepest level the failure depends on
            while stack and len(stack) - 1 not in failure:
                retract(stack[-1])
                leave(stack[-1])
            if not stack:
                return None
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
            if value == _OUT:
                excluded[point.name] = level
                point.value = value
                break
            culprit = refuter(value)
            if culprit is None:
                chosen[point.name] = value
                level_of[value] = level
                point.value = value
                point.pulled = [d for d in requires[value] if d not in chosen and d not in pending]
                for dep in point.pulled:
                    pending[dep] = level
                break
            if culprit >= 0:
                point.conflicts.add(culprit)
        else:
            failure = point.conflicts
            if point.cause is not None:
                failure.add(point.cause)
            leave(point)


def _reachable_universe(space: _SearchSpace, roots: frozenset[str]) -> set[str]:
    """Every name a selection rooted at ``roots`` could possibly contain."""
    seen = set(roots)
    stack = list(roots)
    while stack:
        name = stack.pop()
        for c in space.ids[name]:
            for dep in space.requires[c]:
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
    return seen


def resolve_pick(repo: Repository, req: SelectionRequest) -> Pick | UnsatReport:
    """Resolve the optimal pick for a request, or explain why none exists.

    Precondition: validate_repository(repo) is empty.
    """
    _validate_request(repo, req)
    space = _SearchSpace(repo, req)
    mandatory = frozenset(req.mandatory)
    no_commitments: dict[str, Version] = {}

    def sat(subset: frozenset[str]) -> bool:
        return (
            _search(space, subset, no_commitments, frozenset(), frozenset(), (), 0)
            is not None
        )

    witness = _search(space, mandatory, no_commitments, frozenset(), frozenset(), (), 0)
    if witness is None:
        return _unsat_report(repo, req, sat)

    optionals = space.live_optionals
    base_count = sum(1 for o in optionals if o in witness)
    best_count = base_count
    for target in range(len(optionals), base_count, -1):
        found = _search(
            space, mandatory, no_commitments, frozenset(), frozenset(), optionals, target
        )
        if found is not None:
            witness, best_count = found, target
            break

    # fix the optional inclusion set, preferring earlier names
    committed_in: list[str] = []
    committed_out: set[str] = set()
    for name in sorted(req.optional):
        if not space.domains[name]:
            committed_out.add(name)
            continue
        if name in witness:
            committed_in.append(name)
            continue
        found = _search(
            space,
            mandatory | frozenset(committed_in) | {name},
            no_commitments,
            frozenset(committed_out),
            frozenset(),
            optionals,
            best_count,
        )
        if found is not None:
            witness = found
            committed_in.append(name)
        else:
            committed_out.add(name)

    # fix versions name by name, preferring presence, then newest
    roots = mandatory | frozenset(committed_in)
    pins: dict[str, Version] = {}
    forced_present: set[str] = set()
    implicit_absent: set[str] = set(committed_out)
    for name in sorted(_reachable_universe(space, roots)):
        if name in committed_out:
            continue
        is_root = name in roots
        chosen = False
        for version in space.domains[name]:
            if witness.get(name) == version:
                pins[name] = version
                if not is_root:
                    forced_present.add(name)
                chosen = True
                break
            found = _search(
                space,
                roots,
                {**pins, name: version},
                frozenset(implicit_absent),
                frozenset(forced_present) | (frozenset() if is_root else {name}),
                optionals,
                best_count,
            )
            if found is not None:
                witness = found
                pins[name] = version
                if not is_root:
                    forced_present.add(name)
                chosen = True
                break
        if not chosen:
            if is_root or name in witness:
                raise AssertionError(f"no feasible value found for {name}")
            implicit_absent.add(name)

    return _build_pick(repo, req, pins)


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
