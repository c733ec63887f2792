"""The exhaustive reference resolver and the pick verifier: the ground truth
that tests hold ``solver.resolve_pick`` to.  Neither runs the resolver's
search, and no selection, verdict or culprit reads its tables: culprits come
from the reference's own deletion loop.  ``enumerate_best`` takes two names
from ``solver``, imported when it runs: ``_Solver``, for the request checks
and the pick's texts, and ``_unsat_report``, for the unsat report's texts.
The pick's texts read the solver's table, which needs no validated
repository, so any sub-index will do.
Of the CLI ops, only ``smoke`` and ``script`` load this module, to verify
the pick they install, and ``verify_pick`` loads no solver.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PickforgeError
from .index import Pick, Repository
from .versioning import Version, satisfies

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
    ranks: dict[str, dict[Version, int]],
):
    """The lexicographic objective; smaller keys are better selections.
    ``ranks`` is ``_version_ranks(repo)``."""
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

    The reference against which resolve_pick is tested.  ``_assignments``
    walks the assignments depth first, and prunes only what no complete
    assignment could pass; every complete one is judged by
    ``_enum_feasible``.  Culprits come from its own deletion loop over the
    same enumeration.  Refuses (never approximates) when the assignment space
    exceeds ``limit``.
    """
    from .solver import _Solver, _unsat_report

    solver = _Solver(repo, req)  # checks the request; only its pick texts are used
    space_size = 1
    for name in repo.packages:
        space_size *= len(repo.packages[name]) + 1
        if space_size > limit:
            raise EnumerationLimitError(
                f"assignment space exceeds limit of {limit} assignments"
            )
    ranks = _version_ranks(repo)
    best = min(
        _assignments(repo, req, req.mandatory, req.optional),
        key=lambda assignment: _solution_key(repo, req, assignment, ranks),
        default=None,
    )
    if best is not None:
        return solver.pick(best)
    core = sorted(req.mandatory)
    for name in sorted(req.mandatory):
        trial = [c for c in core if c != name]
        if next(_assignments(repo, req, frozenset(trial), frozenset()), None) is None:
            core = trial
    return _unsat_report(req.toolchain, tuple(core))


def _assignments(
    repo: Repository,
    req: SelectionRequest,
    mandatory: frozenset[str],
    optional: frozenset[str],
):
    """Every assignment feasible with these mandatory and optional sets, in
    the order of ``itertools.product`` over each name's choices: names in
    sorted order, and for each name first none, then its versions newest
    first.

    The walk decides one name at a time and drops a prefix as soon as its
    newest choice fails ``req``'s toolchain, dev or override filter, or
    breaks a dependency or conflict with a name already decided.  It never
    prunes on the mandatory set or on reachability: only ``_enum_feasible``
    checks those, on each complete assignment.
    """
    names = sorted(repo.packages)
    assignment: dict[str, Version] = {}

    def extend(i: int):
        if i == len(names):
            if _enum_feasible(repo, req, mandatory, optional, assignment):
                yield dict(assignment)
            return
        name = names[i]
        for version in [None, *sorted(repo.packages[name], reverse=True)]:
            if _fits(repo, req, assignment, name, version):
                if version is not None:
                    assignment[name] = version
                yield from extend(i + 1)
                assignment.pop(name, None)

    return extend(0)


def _fits(
    repo: Repository,
    req: SelectionRequest,
    assignment: dict[str, Version],
    name: str,
    version: Version | None,
) -> bool:
    """Whether deciding ``name`` at ``version`` (None: left out) keeps every
    check of ``_enum_feasible`` that reads only decided names.  Names are
    decided in sorted order, so those below ``name`` are decided, and
    ``assignment`` holds the ones chosen."""
    for other, chosen in assignment.items():
        manifest = repo.packages[other][chosen]
        for dep, constraint in manifest.depends:
            if dep == name and (version is None or not satisfies(version, constraint)):
                return False
        for target, constraint in manifest.conflicts:
            if target == name and version is not None and satisfies(version, constraint):
                return False
    if version is None:
        return True
    manifest = repo.packages[name][version]
    if not satisfies(req.toolchain, manifest.toolchain):
        return False
    if name in req.overrides:
        if version != req.overrides[name]:
            return False
    elif manifest.dev and not req.include_dev:
        return False
    for dep, constraint in manifest.depends:
        if dep < name and (dep not in assignment or not satisfies(assignment[dep], constraint)):
            return False
    for other, constraint in manifest.conflicts:
        if other in assignment and satisfies(assignment[other], constraint):
            return False
    return True


def _enum_feasible(
    repo: Repository,
    req: SelectionRequest,
    mandatory: frozenset[str],
    optional: frozenset[str],
    assignment: dict[str, Version],
) -> bool:
    """Whether ``assignment`` selects ``mandatory``, meets ``req``'s toolchain,
    dev filter and overrides and every dependency and conflict, and reaches
    each of its packages from ``mandatory`` or ``optional``."""
    for name in mandatory:
        if name not in assignment:
            return False
    for name, version in assignment.items():
        manifest = repo.packages[name][version]
        if not satisfies(req.toolchain, manifest.toolchain):
            return False
        if name in req.overrides:
            if version != req.overrides[name]:
                return False
        elif manifest.dev and not req.include_dev:
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
