"""Calendar-versioned releases: assembly, pick diffing, upgrade paths, lockfiles.

Lockfile format (``pickforge.lock.json``): canonical JSON with sorted keys,
two-space indentation, and a trailing newline.

    {
      "picks": [
        {"excluded": {name: reason, ...},
         "selected": {name: version, ...},
         "toolchain": "8.15"},
        ...
      ],
      "predecessor": "2021.09.0" | null,
      "version": "2022.01.0"
    }

Writing is byte-deterministic; read∘write is the identity and
write∘read∘write equals write.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import PickforgeError
from .index import Pick, Repository, parse_json
from .versioning import CalendarVersion, Version, parse_calendar_version, parse_version


class ReleaseError(PickforgeError):
    """A release cannot be assembled as requested."""


class LockfileError(PickforgeError):
    """A lockfile does not match the schema; names the offending field."""


class Release(namedtuple("Release", "version picks predecessor", defaults=(None,))):
    """Several picks, at most one per toolchain, under one calendar version."""

    __slots__ = ()

    def pick_for(self, toolchain: Version) -> Pick:
        for pick in self.picks:
            if pick.toolchain == toolchain:
                return pick
        raise ReleaseError(f"release {self.version} has no pick for toolchain {toolchain}")

    def toolchains(self) -> list[Version]:
        return [pick.toolchain for pick in self.picks]


class AssemblyWarning(namedtuple("AssemblyWarning", "kind package message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


MONOTONICITY_WARNING = "MonotonicityWarning"


def assemble_release(
    version: CalendarVersion,
    picks: list[Pick],
    previous: Release | None = None,
    repo: Repository | None = None,
) -> tuple[Release, list[AssemblyWarning]]:
    """Bundle picks into a release, warning when the package set shrinks.

    A package selected anywhere in the previous release but nowhere in the
    new one draws a monotonicity warning unless the manifest the previous
    release used marks it deprecated (deprecation lookups need ``repo``;
    without it every such disappearance warns).
    """
    if not picks:
        raise ReleaseError("a release needs at least one pick")
    ordered = _ordered_picks(picks, ReleaseError)
    predecessor = previous.version if previous is not None else None
    if predecessor is not None and not version > predecessor:
        raise ReleaseError(
            f"release version {version} must be greater than predecessor {predecessor}"
        )
    release = Release(version=version, picks=ordered, predecessor=predecessor)
    warnings = []
    if previous is not None:
        for name in dropped_packages(previous, release, repo):
            warnings.append(
                AssemblyWarning(
                    MONOTONICITY_WARNING,
                    name,
                    f"package {name} was in release {previous.version} but is "
                    f"absent from {version} without prior deprecation",
                )
            )
    return release, warnings


def _ordered_picks(picks: list[Pick], error: type[PickforgeError]) -> list[Pick]:
    """The picks in toolchain order; raises ``error`` if two share a toolchain."""
    ordered = sorted(picks, key=lambda pick: pick.toolchain)
    for a, b in zip(ordered, ordered[1:]):
        if a.toolchain == b.toolchain:
            raise error(f"duplicate pick for toolchain {a.toolchain}")
    return ordered


def dropped_packages(
    previous: Release, candidate: Release, repo: Repository | None
) -> list[str]:
    """Packages selected in the previous release, gone from the candidate,
    and not deprecated by the newest manifest the previous release used."""
    old_names: dict[str, Version] = {}
    for pick in previous.picks:
        for name, version in pick.selected.items():
            if name not in old_names or version > old_names[name]:
                old_names[name] = version
    new_names = {name for pick in candidate.picks for name in pick.selected}
    dropped = []
    for name in sorted(old_names):
        if name in new_names:
            continue
        if repo is not None:
            manifest = repo.packages.get(name, {}).get(old_names[name])
            if manifest is not None and manifest.deprecated:
                continue
        dropped.append(name)
    return dropped


class PickDiff(namedtuple("PickDiff", "added removed upgraded downgraded unchanged")):
    """Partition of the union of two picks' selected names.

    ``added``, ``removed`` and ``unchanged`` are sets of names;
    ``upgraded`` and ``downgraded`` map names to (old, new) versions.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "added": sorted(self.added),
            "removed": sorted(self.removed),
            "upgraded": {n: [str(a), str(b)] for n, (a, b) in sorted(self.upgraded.items())},
            "downgraded": {n: [str(a), str(b)] for n, (a, b) in sorted(self.downgraded.items())},
            "unchanged": sorted(self.unchanged),
        }

    def to_text(self) -> str:
        lines = [f"  + {name}" for name in sorted(self.added)]
        lines += [f"  - {name}" for name in sorted(self.removed)]
        lines += [f"  ^ {n} {a} -> {b}" for n, (a, b) in sorted(self.upgraded.items())]
        lines += [f"  v {n} {a} -> {b}" for n, (a, b) in sorted(self.downgraded.items())]
        lines.append(f"  = {len(self.unchanged)} unchanged")
        return "\n".join(lines)


def diff_picks(a: Pick, b: Pick) -> PickDiff:
    diff = PickDiff(set(), set(), {}, {}, set())
    for name in set(a.selected) | set(b.selected):
        if name not in a.selected:
            diff.added.add(name)
        elif name not in b.selected:
            diff.removed.add(name)
        elif a.selected[name] < b.selected[name]:
            diff.upgraded[name] = (a.selected[name], b.selected[name])
        elif a.selected[name] > b.selected[name]:
            diff.downgraded[name] = (a.selected[name], b.selected[name])
        else:
            diff.unchanged.add(name)
    return diff


class UpgradeStep(namedtuple("UpgradeStep", "from_toolchain to_toolchain diff")):
    __slots__ = ()


class UpgradeReport(namedtuple("UpgradeReport", "steps")):
    """Stepwise path through every intermediate toolchain of a release."""

    __slots__ = ()

    @property
    def monotone(self) -> bool:
        return all(not step.diff.removed for step in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "steps": [
                {"from": str(step.from_toolchain), "to": str(step.to_toolchain),
                 "diff": step.diff.to_json_dict()}
                for step in self.steps
            ],
        }

    def to_text(self) -> str:
        lines = []
        for step in self.steps:
            lines += [f"step {step.from_toolchain} -> {step.to_toolchain}", step.diff.to_text()]
        lines.append(f"monotone: {'yes' if self.monotone else 'no'}")
        return "\n".join(lines)


def upgrade_path(release: Release, start: Version, end: Version) -> UpgradeReport:
    """One step per consecutive toolchain pair of the release between the endpoints."""
    toolchains = release.toolchains()
    try:
        i, j = toolchains.index(start), toolchains.index(end)
    except ValueError:
        raise ReleaseError(
            f"release {release.version} does not cover both {start} and {end}"
        ) from None
    if i >= j:
        raise ReleaseError(f"upgrade endpoints must be increasing, got {start} -> {end}")
    picks = release.picks
    return UpgradeReport([
        UpgradeStep(toolchains[n], toolchains[n + 1], diff_picks(picks[n], picks[n + 1]))
        for n in range(i, j)
    ])


# --- lockfile serialization ---------------------------------------------------


def write_lockfile(release: Release) -> bytes:
    payload = {
        "version": str(release.version),
        "predecessor": None if release.predecessor is None else str(release.predecessor),
        "picks": [pick.to_json_dict() for pick in release.picks],
    }
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def read_lockfile(data: bytes) -> Release:
    raw = parse_json(data, "lockfile", LockfileError)
    _expect_fields(raw, {"version", "predecessor", "picks"}, "lockfile")
    version = _parse_calver_field(raw["version"], "version")
    predecessor = None
    if raw["predecessor"] is not None:
        predecessor = _parse_calver_field(raw["predecessor"], "predecessor")
    if not isinstance(raw["picks"], list) or not raw["picks"]:
        raise LockfileError("field 'picks' must be a non-empty list")
    picks = [_read_pick(entry, f"picks[{i}]") for i, entry in enumerate(raw["picks"])]
    ordered = _ordered_picks(picks, LockfileError)
    if predecessor is not None and not version > predecessor:
        raise LockfileError(
            f"field 'version': {version} must be greater than predecessor {predecessor}"
        )
    return Release(version=version, picks=ordered, predecessor=predecessor)


def _read_pick(raw, context: str) -> Pick:
    if not isinstance(raw, dict):
        raise LockfileError(f"{context} must be an object")
    _expect_fields(raw, {"toolchain", "selected", "excluded"}, context)
    if not isinstance(raw["toolchain"], str):
        raise LockfileError(f"{context}.toolchain must be a string")
    try:
        toolchain = parse_version(raw["toolchain"])
    except PickforgeError as exc:
        raise LockfileError(f"{context}.toolchain: {exc}") from exc
    selected = {}
    if not isinstance(raw["selected"], dict):
        raise LockfileError(f"{context}.selected must be an object")
    for name, version_text in raw["selected"].items():
        if not isinstance(version_text, str):
            raise LockfileError(f"{context}.selected.{name} must be a string")
        try:
            selected[name] = parse_version(version_text)
        except PickforgeError as exc:
            raise LockfileError(f"{context}.selected.{name}: {exc}") from exc
    if not isinstance(raw["excluded"], dict) or not all(
        isinstance(reason, str) for reason in raw["excluded"].values()
    ):
        raise LockfileError(f"{context}.excluded must map names to reason strings")
    overlap = set(selected) & set(raw["excluded"])
    if overlap:
        raise LockfileError(
            f"{context}: {', '.join(sorted(overlap))} both selected and excluded"
        )
    return Pick(toolchain=toolchain, selected=selected, excluded=dict(raw["excluded"]))


def _expect_fields(raw, expected: set[str], context: str) -> None:
    if not isinstance(raw, dict):
        raise LockfileError(f"{context} must be an object")
    for key in sorted(expected - set(raw)):
        raise LockfileError(f"{context}: missing field {key!r}")
    for key in sorted(set(raw) - expected):
        raise LockfileError(f"{context}: unknown field {key!r}")


def _parse_calver_field(text, fieldname: str) -> CalendarVersion:
    if not isinstance(text, str):
        raise LockfileError(f"field {fieldname!r} must be a string")
    try:
        return parse_calendar_version(text)
    except PickforgeError as exc:
        raise LockfileError(f"field {fieldname!r}: {exc}") from exc
