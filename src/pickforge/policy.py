"""Compatibility policy checks and the maintainer coordination report.

Two rules are enforced here.  Succession: a package should have at least
one released version compatible with two consecutive toolchains of the
repository's toolchain list.  Removal: a package selected by a release
may disappear from the next release only if the manifest the previous
release used marks it deprecated.

The coordination report classifies each package of a reference pick
against a toolchain release candidate: a released version is already
compatible, only a development snapshot is, or nothing is known to be.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PickforgeError
from .index import Repository, UnknownPackageError, compatible_versions
from .release import Release, dropped_packages
from .solver import Pick
from .versioning import Version, compare_versions, satisfies

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


@dataclass(frozen=True)
class SuccessionPair:
    lower: Version
    upper: Version
    witness: Version | None


@dataclass
class SuccessionReport:
    """Per consecutive toolchain pair, a released version spanning both, if any."""

    package: str
    pairs: list[SuccessionPair]

    @property
    def compliant(self) -> bool:
        """True when some released version bridges at least one pair."""
        if not self.pairs:
            return True
        return any(pair.witness is not None for pair in self.pairs)


def check_succession(repo: Repository, name: str) -> SuccessionReport:
    if name not in repo.packages:
        raise UnknownPackageError(name)
    released = [
        (version, manifest)
        for version, manifest in sorted(repo.packages[name].items())
        if not manifest.dev
    ]
    pairs = []
    for lower, upper in zip(repo.toolchains, repo.toolchains[1:]):
        witness = None
        for version, manifest in released:
            if satisfies(lower, manifest.toolchain) and satisfies(upper, manifest.toolchain):
                # keep the newest bridging version
                if witness is None or version > witness:
                    witness = version
        pairs.append(SuccessionPair(lower=lower, upper=upper, witness=witness))
    return SuccessionReport(package=name, pairs=pairs)


@dataclass(frozen=True)
class CoordinationEntry:
    package: str
    status: str
    version: Version | None
    source_ref: str | None
    action: str
    maintainer: str


@dataclass
class CoordinationReport:
    """Per-package compatibility status against a release candidate toolchain."""

    rc: Version
    entries: list[CoordinationEntry]

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
    if compare_versions(rc, reference.toolchain) == 0:
        raise PolicyError(
            f"release candidate {rc} is the reference pick's own toolchain"
        )
    entries = []
    for name in sorted(reference.selected):
        maintainer = repo.manifest(name, reference.selected[name]).maintainer
        released = compatible_versions(repo, name, rc, include_dev=False)
        if released:
            entries.append(
                CoordinationEntry(
                    package=name,
                    status=ALREADY_COMPATIBLE,
                    version=released[0],
                    source_ref=None,
                    action=_ACTIONS[ALREADY_COMPATIBLE],
                    maintainer=maintainer,
                )
            )
            continue
        dev_versions = [
            version
            for version in compatible_versions(repo, name, rc, include_dev=True)
            if repo.packages[name][version].dev
        ]
        if dev_versions:
            ref = repo.packages[name][dev_versions[0]].source_ref
            entries.append(
                CoordinationEntry(
                    package=name,
                    status=DEV_COMPATIBLE,
                    version=dev_versions[0],
                    source_ref=ref,
                    action=_ACTIONS[DEV_COMPATIBLE].format(ref=ref),
                    maintainer=maintainer,
                )
            )
            continue
        entries.append(
            CoordinationEntry(
                package=name,
                status=NONE_KNOWN,
                version=None,
                source_ref=None,
                action=_ACTIONS[NONE_KNOWN],
                maintainer=maintainer,
            )
        )
    return CoordinationReport(rc=rc, entries=entries)


@dataclass(frozen=True)
class PolicyViolation:
    kind: str
    package: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def check_removals(
    previous: Release, candidate: Release, repo: Repository | None = None
) -> list[PolicyViolation]:
    """Flag packages dropped from the candidate release without prior deprecation."""
    if candidate.predecessor is None or candidate.predecessor != previous.version:
        raise PolicyError(
            f"candidate predecessor {candidate.predecessor} does not match "
            f"previous release {previous.version}"
        )
    return [
        PolicyViolation(
            REMOVAL_WITHOUT_DEPRECATION,
            name,
            f"package {name} was selected in {previous.version} but is "
            f"absent from {candidate.version} and was not deprecated",
        )
        for name in dropped_packages(previous, candidate, repo)
    ]
