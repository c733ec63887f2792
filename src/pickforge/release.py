"""Calendar-versioned releases: construction, pick diffing, upgrade paths, lockfiles.

``Release`` holds every rule of a release: one pick or more, no two of one
toolchain, kept in toolchain order, and a version above the predecessor's.
Whether a release may drop a package is ``policy.check_removals``' rule.

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

For every ``Release``, writing is byte-deterministic, read∘write is the
identity and write∘read∘write equals write.  Reading names a bad field in
the words an index file's errors use, such as ``lockfile picks[0]: unknown
field 'note'``, and a broken release rule as ``lockfile: <its message>``.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import partial

from .errors import PickforgeError
from .index import Pick, check_fields, parse_field, parse_json
from .versioning import CalendarVersion, Version, parse_calendar_version, parse_version


class ReleaseError(PickforgeError):
    """A release cannot be built as requested."""


class LockfileError(PickforgeError):
    """A lockfile does not match the schema; names the offending field."""


class Release(namedtuple("Release", "version picks predecessor", defaults=(None,))):
    """Several picks, at most one per toolchain, under one calendar version.

    The constructor sorts the picks into a tuple and raises ReleaseError if
    there are none or they break ``check_release``."""

    __slots__ = ()

    def __new__(cls, version: CalendarVersion, picks, predecessor: CalendarVersion | None = None):
        picks = tuple(sorted(picks, key=lambda pick: pick.toolchain))
        if not picks:
            raise ReleaseError("a release needs at least one pick")
        check_release(version, [pick.toolchain for pick in picks], predecessor)
        return super().__new__(cls, version, picks, predecessor)

    @classmethod
    def _make(cls, iterable) -> Release:  # so that _replace checks too
        return cls(*iterable)

    def pick_for(self, toolchain: Version) -> Pick:
        for pick in self.picks:
            if pick.toolchain == toolchain:
                return pick
        raise ReleaseError(f"release {self.version} has no pick for toolchain {toolchain}")

    def toolchains(self) -> list[Version]:
        return [pick.toolchain for pick in self.picks]


def check_release(version: CalendarVersion, toolchains: list[Version], predecessor) -> None:
    """Raise ReleaseError if two ``toolchains`` are equal as versions (as
    ``8.15`` and ``8.15.0`` are) or ``version`` is not above ``predecessor``."""
    ordered = sorted(toolchains)
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise ReleaseError(f"duplicate pick for toolchain {a}")
    if predecessor is not None and not version > predecessor:
        raise ReleaseError(
            f"release version {version} must be greater than predecessor {predecessor}"
        )


assemble_release = Release  # the name perfbench/layers.py times construction under


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


_LOCKFILE_FIELDS = {"version": str, "predecessor": (str, type(None)), "picks": list}
_PICK_FIELDS = {"toolchain": str, "selected": dict, "excluded": dict}
_parse_field = partial(parse_field, error=LockfileError)


def read_lockfile(data: bytes) -> Release:
    """The release a lockfile holds; raises LockfileError naming the field at fault."""
    raw = parse_json(data, "lockfile", LockfileError)
    check_fields(raw, _LOCKFILE_FIELDS, "lockfile", LockfileError)
    version = _parse_field(raw["version"], parse_calendar_version, "lockfile", "version")
    predecessor = raw["predecessor"]
    if predecessor is not None:
        predecessor = _parse_field(predecessor, parse_calendar_version, "lockfile", "predecessor")
    picks = [_read_pick(entry, f"lockfile picks[{i}]") for i, entry in enumerate(raw["picks"])]
    try:
        return Release(version, picks, predecessor)
    except ReleaseError as exc:
        raise LockfileError(f"lockfile: {exc}") from None


def _read_pick(raw, context: str) -> Pick:
    check_fields(raw, _PICK_FIELDS, context, LockfileError)
    toolchain = _parse_field(raw["toolchain"], parse_version, context, "toolchain")
    selected = {}
    for name, version_text in raw["selected"].items():
        if not isinstance(version_text, str):
            raise LockfileError(f"{context}: field 'selected' must map names to version strings")
        selected[name] = _parse_field(version_text, parse_version, context, f"selected.{name}")
    if not all(isinstance(reason, str) for reason in raw["excluded"].values()):
        raise LockfileError(f"{context}: field 'excluded' must map names to reason strings")
    overlap = set(selected) & set(raw["excluded"])
    if overlap:
        raise LockfileError(
            f"{context}: {', '.join(sorted(overlap))} both selected and excluded"
        )
    return Pick(toolchain=toolchain, selected=selected, excluded=dict(raw["excluded"]))
