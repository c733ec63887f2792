"""Compatibility policy checks and the maintainer coordination report.

Two rules are enforced here.  Succession: a package should have at least
one released version compatible with two consecutive toolchains of the
repository's toolchain list.  Removal: a package selected by a release
may disappear from the next release only if the manifest of the newest
version the previous release selected marks it deprecated.
``check_removals`` is the only code that applies this rule; the CLI prints
its findings as warnings, or as errors under ``--strict-removals``.

The coordination report classifies each package of a reference pick
against a toolchain release candidate: a released version is already
compatible, only a development snapshot is, or nothing is known to be.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PickforgeError
from .index import Pick, Repository, UnknownPackageError, compatible_versions
from .versioning import Version

# type checkers read this name as true; ``typing`` is not imported for it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .release import Release

ALREADY_COMPATIBLE = "AlreadyCompatible"
DEV_COMPATIBLE = "DevCompatible"
NONE_KNOWN = "NoneKnown"

REMOVAL_WITHOUT_DEPRECATION = "RemovalWithoutDeprecation"

_ACTIONS = {
    ALREADY_COMPATIBLE: "no action needed",
    DEV_COMPATIBLE: "please cut a release from {ref}",
    NONE_KNOWN: "please provide a compatible version",
}


class PolicyError(PickforgeError):
    """A policy operation was invoked with inconsistent inputs."""


class SuccessionPair(namedtuple("SuccessionPair", "lower upper witness")):
    """``witness`` is the newest released version admitting both toolchains, or None."""

    __slots__ = ()


class SuccessionReport(namedtuple("SuccessionReport", "package pairs")):
    """Per consecutive toolchain pair, a released version spanning both, if any."""

    __slots__ = ()

    @property
    def compliant(self) -> bool:
        """True when some released version bridges at least one pair."""
        if not self.pairs:
            return True
        return any(pair.witness is not None for pair in self.pairs)

    def to_json_dict(self) -> dict:
        """Keyed by the package, so the reports of several packages merge into one object."""
        pairs = [
            {"pair": [str(pair.lower), str(pair.upper)],
             "witness": None if pair.witness is None else str(pair.witness)}
            for pair in self.pairs
        ]
        return {self.package: {"compliant": self.compliant, "pairs": pairs}}

    def to_text(self) -> str:
        lines = [f"{self.package}: {'ok' if self.compliant else 'VIOLATION'}"]
        lines += [f"  {pair.lower} & {pair.upper}: {'none' if pair.witness is None else pair.witness}"
                  for pair in self.pairs]
        return "\n".join(lines)


def check_succession(repo: Repository, name: str) -> SuccessionReport:
    if name not in repo.packages:
        raise UnknownPackageError(name)
    admitted = [compatible_versions(repo, name, toolchain) for toolchain in repo.toolchains]
    pairs = []
    for i, (lower, upper) in enumerate(zip(repo.toolchains, repo.toolchains[1:])):
        # both lists come newest first, so the first version both admit is the newest
        witness = next((v for v in admitted[i] if v in admitted[i + 1]), None)
        pairs.append(SuccessionPair(lower=lower, upper=upper, witness=witness))
    return SuccessionReport(package=name, pairs=pairs)


class CoordinationEntry(
    namedtuple("CoordinationEntry", "package status version source_ref action maintainer")
):
    """``version`` and ``source_ref`` are None where the status names none."""

    __slots__ = ()


class CoordinationReport(namedtuple("CoordinationReport", "rc entries")):
    """Per-package compatibility status against a release candidate toolchain."""

    __slots__ = ()

    def to_markdown(self) -> str:
        lines = [f"# Coordination report for release candidate {self.rc}", ""]
        by_maintainer: dict[str, list[CoordinationEntry]] = {}
        for entry in self.entries:
            by_maintainer.setdefault(entry.maintainer, []).append(entry)
        for maintainer in sorted(by_maintainer):
            lines.append(f"## {maintainer}")
            lines.append("")
            for entry in sorted(by_maintainer[maintainer], key=lambda e: e.package):
                lines.append(f"- {entry.package}: {_describe(entry)}; {entry.action}")
            lines.append("")
        return "\n".join(lines)

    to_text = to_markdown

    def to_json_dict(self) -> dict:
        return {
            "rc": str(self.rc),
            "entries": {
                entry.package: {
                    "status": entry.status,
                    "version": None if entry.version is None else str(entry.version),
                    "source_ref": entry.source_ref,
                    "action": entry.action,
                    "maintainer": entry.maintainer,
                }
                for entry in self.entries
            },
        }


def _describe(entry: CoordinationEntry) -> str:
    if entry.status == ALREADY_COMPATIBLE:
        return f"version {entry.version} is already compatible"
    if entry.status == DEV_COMPATIBLE:
        return f"development snapshot {entry.source_ref} is compatible"
    return "no known compatible version"


def coordinate(repo: Repository, rc: Version, reference: Pick) -> CoordinationReport:
    """Classify every package of the reference pick against the candidate toolchain.

    Released compatibility wins over dev-snapshot compatibility; the action
    text tells the maintainer what, if anything, is needed.
    """
    if rc == reference.toolchain:
        raise PolicyError(
            f"release candidate {rc} is the reference pick's own toolchain"
        )
    entries = []
    for name in sorted(reference.selected):
        maintainer = repo.manifest(name, reference.selected[name]).maintainer
        manifests = repo.packages[name]
        # the newest released version, else the newest dev snapshot: the
        # versions come newest first, and ``min`` keeps the first of equal keys
        version = min(compatible_versions(repo, name, rc, include_dev=True),
                      key=lambda v: manifests[v].dev, default=None)
        status, ref = NONE_KNOWN, None
        if version is not None and manifests[version].dev:
            status, ref = DEV_COMPATIBLE, manifests[version].source_ref
        elif version is not None:
            status = ALREADY_COMPATIBLE
        entries.append(CoordinationEntry(
            name, status, version, ref, _ACTIONS[status].format(ref=ref), maintainer
        ))
    return CoordinationReport(rc=rc, entries=entries)


class PolicyViolation(namedtuple("PolicyViolation", "kind package message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def check_removals(
    previous: Release, candidate: Release, repo: Repository
) -> list[PolicyViolation]:
    """Flag packages dropped from the candidate release without prior deprecation.

    A package is dropped when some pick of ``previous`` selects it and no
    pick of ``candidate`` does.  Only the newest version ``previous``
    selected counts: the drop is allowed if ``repo`` holds that manifest
    and marks it deprecated, so a drop whose manifest ``repo`` lacks is
    flagged.
    """
    if candidate.predecessor is None or candidate.predecessor != previous.version:
        raise PolicyError(
            f"candidate predecessor {candidate.predecessor} does not match "
            f"previous release {previous.version}"
        )
    newest: dict[str, Version] = {}
    for pick in previous.picks:
        for name, version in pick.selected.items():
            if name not in newest or version > newest[name]:
                newest[name] = version
    kept = {name for pick in candidate.picks for name in pick.selected}
    violations = []
    for name in sorted(newest.keys() - kept):
        manifest = repo.packages.get(name, {}).get(newest[name])
        if manifest is None or not manifest.deprecated:
            violations.append(PolicyViolation(
                REMOVAL_WITHOUT_DEPRECATION,
                name,
                f"package {name} was selected in {previous.version} but is "
                f"absent from {candidate.version} and was not deprecated",
            ))
    return violations
