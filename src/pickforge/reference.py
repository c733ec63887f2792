"""The exhaustive reference resolver and the pick verifier: the ground truth
that tests hold ``solver.resolve_pick`` to.  Neither runs the resolver's
search, and no selection or verdict reads its tables; ``enumerate_best``
shares only its request checks and its pick and unsat-report texts, imported
from ``solver`` when it runs.  The pick's texts read the solver's table,
which needs no validated repository, so any sub-index will do.
Of the CLI ops, only ``smoke`` and ``script`` load this module, to verify
the pick they install, and ``verify_pick`` loads no solver.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import PickforgeError
from .index import Pick, Repository
from .versioning import Version, compare_versions, satisfies

# type checkers read this name as true; ``typing`` is not imported for it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .solver import SelectionRequest, UnsatReport

# verify_pick violation kinds
SELECTION_OVERLAP = "SelectionOverlap"
UNKNOWN_VERSION = "UnknownVersion"
TOOLCHAIN_VIOLATION = "ToolchainViolation"
DEPENDENCY_MISSING = "DependencyMissing"
DEPENDENCY_VIOLATION = "DependencyViolation"
MUTUAL_EXCLUSION = "MutualExclusion"


class EnumerationLimitError(PickforgeError):
    """The assignment space exceeds the caller-supplied enumeration limit."""


class PickViolation(namedtuple("PickViolation", "kind package detail")):
    __slots__ = ()

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


def enumerate_best(
    repo: Repository, req: SelectionRequest, limit: int = 1_000_000
) -> Pick | UnsatReport:
    """Exhaustively enumerate every assignment and apply the same objective.

    Deliberately brute force: the reference against which resolve_pick is
    tested.  Refuses (never approximates) when the assignment space exceeds
    ``limit``.
    """
    from .solver import _build_pick, _unsat_report, _validate_request

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

        return _unsat_report(req, sat)
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
