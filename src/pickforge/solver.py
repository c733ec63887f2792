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

``resolve_pick`` answers each request with one ``_Solver``.  Its
constructor checks the request and filters the request's candidates once,
from integer candidate tables whose toolchain-independent half
(``_CandidateTable``: version order, dependency targets, clashes) is built
once per repository, validated or not, and cached on it, so the toolchains
of a release share it.  ``_CandidateTable.candidates`` is the one
toolchain, dev and override filter: the search reads it pruned, the
exclusion reasons unpruned.  ``_Solver.solve`` is a branch-and-bound
search that branches in the objective's own order and backjumps on
conflicts, so the first selection it finds is the best with its number of
optionals.  The search then resumes and asks for strictly more optionals,
until no such selection exists.  ``_Solver.core`` extracts the culprits of
an unsatisfiable request by deletion over ``solve``, and ``_Solver.pick``
explains each optional left out.  ``reference.enumerate_best`` recomputes
the optimum and the culprits by exhaustive enumeration and serves as the
reference implementation for testing; it shares only the request checks
and the texts.  Both are deterministic, and neither changes the repository
beyond that cached table.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PickforgeError
from .index import Pick, Repository, UnknownPackageError
from .versioning import Constraint, Version, satisfies

# names defined in ``reference``, which only tests and the build runner need
_REFERENCE_NAMES = {
    "enumerate_best", "EnumerationLimitError", "verify_pick", "PickViolation", "SELECTION_OVERLAP",
    "UNKNOWN_VERSION", "TOOLCHAIN_VIOLATION", "DEPENDENCY_MISSING", "DEPENDENCY_VIOLATION",
    "MUTUAL_EXCLUSION",
}


def __getattr__(name: str):
    """The reference's public names, imported from it on first use (PEP 562)."""
    if name not in _REFERENCE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reference

    return getattr(reference, name)


class OverrideError(PickforgeError):
    """An override pins a version that cannot be used."""


class SelectionRequest(
    namedtuple("SelectionRequest", "toolchain mandatory optional overrides include_dev")
):
    """What to resolve: a toolchain plus mandatory and optional package sets.

    ``mandatory`` and ``optional`` are stored as frozensets and
    ``overrides`` (name -> pinned version) as a copy.
    """

    __slots__ = ()

    def __new__(
        cls,
        toolchain: Version,
        mandatory: frozenset[str] = frozenset(),
        optional: frozenset[str] = frozenset(),
        overrides: dict[str, Version] | None = None,
        include_dev: bool = False,
    ):
        mandatory, optional = frozenset(mandatory), frozenset(optional)
        overrides = {} if overrides is None else dict(overrides)
        overlap = mandatory & optional
        if overlap:
            raise ValueError(
                f"packages cannot be both mandatory and optional: {', '.join(sorted(overlap))}"
            )
        stray = set(overrides) - (mandatory | optional)
        if stray:
            raise ValueError(f"override targets outside the request: {', '.join(sorted(stray))}")
        return super().__new__(cls, toolchain, mandatory, optional, overrides, include_dev)


class UnsatReport(namedtuple("UnsatReport", "culprits narrative")):
    """Why no pick exists: a minimal conflicting subset of the mandatory set.

    ``culprits`` and ``narrative`` are tuples of strings.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"culprits": list(self.culprits), "narrative": list(self.narrative)}

    def to_text(self) -> str:
        return "\n".join(["no valid pick:", *(f"  {line}" for line in self.narrative)])


def _unsat_report(toolchain: Version, culprits: tuple[str, ...]) -> UnsatReport:
    """The report for ``culprits``, a deletion-minimal unsatisfiable subset
    of the mandatory set in name order."""
    if len(culprits) == 1:
        narrative = [
            f"mandatory package {culprits[0]} cannot be installed at toolchain {toolchain}"
        ]
    else:
        # the core less any one culprit is satisfiable, and so is each subset
        narrative = [
            f"mandatory packages {', '.join(culprits)} cannot be jointly satisfied "
            f"at toolchain {toolchain}",
            *(f"{name}: installable alone but incompatible with the other culprits"
              for name in culprits),
        ]
    return UnsatReport(culprits=culprits, narrative=tuple(narrative))


# --- branch-and-bound resolver ------------------------------------------------


class _CandidateTable:
    """The toolchain-independent half of every request's search space.

    Built on a repository's first ``_Solver`` and cached on it
    (``repo.search_table``), so the requests of a release share it.  A
    dependency on a package the repository lacks admits no id, and a
    conflict with one blocks nothing, so it needs no validated repository.
    Every manifest has an integer id: ``ids[name]`` holds a package's ids,
    newest first, and ``versions[c]`` maps an id back to its version.
    ``depends[c]`` pairs each dependency of ``c`` with the ids of the target
    versions it admits, and ``requires[c]`` names those targets.
    ``dependents[name]`` names the packages with a version that depends on
    ``name``, and ``unmeetable`` those with a version that has a dependency
    no version satisfies.  ``blocked[c]`` holds every id that cannot be
    selected together with ``c``: one of the two depends on the other's
    package and the other's version does not satisfy that dependency, or one
    conflicts with the other.  ``toolchain_of[c]`` indexes ``c``'s toolchain
    constraint in ``toolchains``, so a request tests each distinct
    constraint once (``fits``).
    """

    def __init__(self, repo: Repository):
        self.versions: list[Version] = []
        self.ids: dict[str, tuple[int, ...]] = {}
        manifests = []
        for name, by_version in repo.packages.items():
            start = len(self.versions)
            self.versions.extend(sorted(by_version, reverse=True))
            self.ids[name] = tuple(range(start, len(self.versions)))
            manifests.extend(by_version[version] for version in self.versions[start:])
        toolchains: dict[Constraint, int] = {}
        self.toolchain_of = [
            toolchains.setdefault(manifest.toolchain, len(toolchains)) for manifest in manifests
        ]
        self.toolchains = tuple(toolchains)
        self.dev = [manifest.dev for manifest in manifests]
        admitted: dict[tuple[str, Constraint], frozenset[int]] = {}

        def admits(target: str, constraint: Constraint) -> frozenset[int]:
            key = (target, constraint)
            if key not in admitted:
                admitted[key] = frozenset(
                    c for c in self.ids.get(target, ()) if satisfies(self.versions[c], constraint)
                )
            return admitted[key]

        self.depends = [
            tuple((dep, admits(dep, constraint)) for dep, constraint in manifest.depends)
            for manifest in manifests
        ]
        self.requires = [tuple(dep for dep, _ in edges) for edges in self.depends]
        self.dependents: dict[str, set[str]] = {name: set() for name in self.ids}
        self.unmeetable: set[str] = set()
        blocked: list[set[int]] = [set() for _ in manifests]
        for name, ids in self.ids.items():
            for c in ids:
                for dep, allowed in self.depends[c]:
                    self.dependents.setdefault(dep, set()).add(name)
                    if not allowed:
                        self.unmeetable.add(name)
                clashing = [
                    other
                    for dep, allowed in self.depends[c]
                    for other in self.ids.get(dep, ())
                    if other not in allowed
                ]
                for target, constraint in manifests[c].conflicts:
                    clashing.extend(admits(target, constraint))
                for other in clashing:
                    blocked[c].add(other)
                    blocked[other].add(c)
        self.blocked = [frozenset(b) for b in blocked]

    def fits(self, toolchain: Version) -> list[bool]:
        """Whether each of ``toolchains`` admits ``toolchain``."""
        return [satisfies(toolchain, constraint) for constraint in self.toolchains]

    def candidates(self, req: SelectionRequest, fits: list[bool]) -> dict[str, tuple[int, ...]]:
        """Each package's selectable ids for a request, newest first: the
        toolchain filter ``fits`` (``self.fits(req.toolchain)``) and the dev
        filter, or the override's one pinned version."""
        admitted = [
            fits[k] and (req.include_dev or not dev) for k, dev in zip(self.toolchain_of, self.dev)
        ]
        ids = {name: tuple(c for c in ids if admitted[c]) for name, ids in self.ids.items()}
        for name, version in req.overrides.items():
            ids[name] = tuple(c for c in self.ids[name] if self.versions[c] == version)
        return ids


_ABSENT = -1  # the value that leaves a package out of the selection
_IN = -2  # an optional's first value: the package must be selected


class _ChoicePoint:
    """One level of the search stack: a package and the values left to try.

    ``cause`` is the level that put an included optional in (None for any
    other package); ``next`` indexes the next value to try and ``value`` is
    the one tried now; ``conflicts`` collects the levels that refuted the
    values tried so far.
    """

    __slots__ = ("name", "values", "cause", "next", "value", "conflicts")

    def __init__(self, name: str, values: tuple[int, ...], cause: int | None = None):
        self.name = name
        self.values = values
        self.cause = cause
        self.next = 0
        self.value = None
        self.conflicts = set()


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


class _Solver:
    """One request's search space, its searches and its answers.

    The constructor checks the request and filters its candidates once.
    ``fits`` tests each distinct toolchain constraint of the repository's
    ``table``.  ``candidates[name]`` holds the ids the request admits, newest
    first, and the exclusion reasons read them.  ``ids[name]`` holds the
    search's candidates: those ids less the ones ``_prune_unmeetable`` drops.
    ``dependents[name]`` names the packages with a candidate that depends on
    ``name``.  The search reads only these and the table's ``requires`` and
    ``blocked``, so it never compares versions; ``blocked[c]`` may hold ids
    that are not candidates, and the search reads it only for chosen ones.
    A selection names each version as the index lists it, an override's
    too.  The table needs no validated repository, and neither does the
    solver.
    """

    def __init__(self, repo: Repository, req: SelectionRequest):
        for name in sorted(req.mandatory | req.optional | set(req.overrides)):
            if name not in repo.packages:
                raise UnknownPackageError(name)
        for name in sorted(req.overrides):
            version = req.overrides[name]
            manifest = repo.packages[name].get(version)
            if manifest is None:
                raise OverrideError(f"override {name}={version} names an unknown version")
            if not satisfies(req.toolchain, manifest.toolchain):
                raise OverrideError(
                    f"override {name}={version} violates its toolchain constraint "
                    f"({manifest.toolchain}) at {req.toolchain}"
                )
        if repo.search_table is None:
            repo.search_table = _CandidateTable(repo)
        self.repo, self.req, self.table = repo, req, repo.search_table
        self.fits = self.table.fits(req.toolchain)
        self.candidates = self.table.candidates(req, self.fits)
        self.ids = self._prune_unmeetable()
        dependents: dict[str, set[str]] = {name: set() for name in self.ids}
        for name, ids in self.ids.items():
            for c in ids:
                for dep in self.table.requires[c]:
                    dependents[dep].add(name)
        self.dependents = {name: tuple(sorted(names)) for name, names in dependents.items()}

    def _prune_unmeetable(self) -> dict[str, tuple[int, ...]]:
        """Arc consistency over dependency edges: drop candidates with a
        dependency no remaining candidate of the target satisfies.  Pruned
        candidates cannot appear in any feasible selection, so this only
        shrinks the search, never its solution set."""
        table, ids = self.table, dict(self.candidates)
        # a candidate can lose its last match only through a dependency the
        # request's filter shrank, or one that no version satisfies at all
        todo = set(table.unmeetable)
        for name, kept in ids.items():
            if len(kept) < len(table.ids[name]):
                todo.update(table.dependents[name])
        while todo:
            name = todo.pop()
            kept = tuple(
                c
                for c in ids[name]
                if all(not allowed.isdisjoint(ids.get(d, ())) for d, allowed in table.depends[c])
            )
            if len(kept) != len(ids[name]):
                ids[name] = kept
                todo.update(table.dependents[name])
        return ids

    def solve(self, mandatory: frozenset[str], optionals) -> dict[str, Version] | None:
        """The optimal selection containing ``mandatory``, or None if none exists.

        ``optionals`` are optional names; those with no candidate can never
        be selected and add nothing to any selection's count, so the search
        does not branch on them.  The search is depth first over an explicit
        stack of choice points, and branches in the objective's own order:
        first one level per optional, in name order, "in" before "out"; then
        one level per package reachable from ``mandatory`` and the optionals,
        in name order, skipping the optionals left out.  Each takes its
        candidates newest first, then "absent", except mandatory packages and
        included optionals, which must be selected.  So the first selection
        found is the best with its number of optionals.  It becomes the
        incumbent, the bound tightens to strictly more optionals, and the
        search resumes; the last incumbent is the optimum.

        Every failure yields a conflict set, the levels whose decisions
        jointly refute it:

        - a candidate: the earliest level that chose a candidate blocking it
          or left out one of its dependencies; for a package no root needs,
          once every package able to require it is decided and none does,
          the levels that decided them;
        - "absent": the earliest level whose candidate requires the package;
        - "out", once the bound allows no more: the optionals left out;
        - an exhausted choice point: its values' conflict sets, less its own
          level, plus the level that put an included optional in;
        - a complete selection that becomes the incumbent: the optionals left
          out.  One with a package no root reaches fails instead; each such
          package has a set, its own level plus the reached or left-out
          packages through which a root could reach it, and the set that
          backjumps farthest is used.

        A failed subtree whose conflict set lacks the level of the choice
        point above it is independent of that choice, so the search
        backjumps past the point without trying its other values
        (conflict-directed backjumping, Prosser 1993).  Nothing is learned
        from a failure.
        """
        ids, requires, blocked, dependents = (
            self.ids, self.table.requires, self.table.blocked, self.dependents
        )
        optionals = tuple(name for name in sorted(optionals) if ids[name])
        universe = _closure(
            mandatory.union(optionals), lambda name: (d for c in ids[name] for d in requires[c])
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
                    stack.append(_ChoicePoint(name, ids[name] + absent, included.get(name)))
                else:
                    failure = stray_conflict()
                    if failure is None:
                        best = {name: self.table.versions[c] for name, c in chosen.items()}
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

    def core(self) -> tuple[str, ...]:
        """A deletion-minimal unsatisfiable subset of the mandatory set, in
        name order: each mandatory package in name order is dropped from the
        core if the rest of it stays unsatisfiable."""
        core = sorted(self.req.mandatory)
        for name in sorted(self.req.mandatory):
            trial = [c for c in core if c != name]
            if self.solve(frozenset(trial), ()) is None:
                core = trial
        return tuple(core)

    def pick(self, assignment: dict[str, Version]) -> Pick:
        """The pick for an optimal assignment, with a reason for each optional
        left out.  The reasons read the request's unpruned candidates and
        ``fits``, so no toolchain constraint is tested again."""
        repo, req, table, ids = self.repo, self.req, self.table, self.candidates
        selected = {name: assignment[name] for name in sorted(assignment)}

        def exclusion_reason(name: str) -> str:
            if not ids[name]:
                if any(self.fits[table.toolchain_of[c]] for c in table.ids[name]):
                    return f"only development snapshots support toolchain {req.toolchain}"
                return f"no version supports toolchain {req.toolchain}"
            newest = table.versions[ids[name][0]]
            manifest = repo.packages[name][newest]
            for other, constraint in manifest.conflicts:
                if other in selected and satisfies(selected[other], constraint):
                    return f"conflict with {other}={selected[other]}"
            for other, version in selected.items():
                for target, constraint in repo.packages[other][version].conflicts:
                    if target == name and satisfies(newest, constraint):
                        return f"conflict with {other}={version}"
            for dep, constraint in manifest.depends:
                if dep in selected and not satisfies(selected[dep], constraint):
                    return f"requires {dep} {constraint} but {dep}={selected[dep]} is selected"
            for dep, _ in manifest.depends:
                if dep not in selected and not ids.get(dep):
                    return f"requires {dep}, which has no version for toolchain {req.toolchain}"
            return "cannot be added without breaking the current selection"

        excluded = {
            name: exclusion_reason(name) for name in sorted(req.optional) if name not in assignment
        }
        return Pick(toolchain=req.toolchain, selected=selected, excluded=excluded)


def resolve_pick(repo: Repository, req: SelectionRequest) -> Pick | UnsatReport:
    """Resolve the optimal pick for a request, or explain why none exists.

    One branch-and-bound search finds the optimum; only when it proves the
    mandatory set unsatisfiable do further searches, one per mandatory
    package, extract the culprits.

    Precondition: validate_repository(repo) is empty.
    """
    solver = _Solver(repo, req)
    best = solver.solve(req.mandatory, req.optional)
    if best is None:
        return _unsat_report(req.toolchain, solver.core())
    return solver.pick(best)
