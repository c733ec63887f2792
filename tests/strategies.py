"""Hypothesis strategies for versions, constraints, repositories, and picks."""

from __future__ import annotations

import string

import hypothesis.strategies as st

from pickforge.index import PackageManifest, Repository
from pickforge.solver import Pick, SelectionRequest
from pickforge.release import Release
from pickforge.versioning import (
    CalendarVersion,
    Constraint,
    Version,
    parse_version,
    satisfies,
)

OPS = ("=", "!=", ">=", ">", "<=", "<")

suffixes = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=4)

versions = st.builds(
    Version,
    segments=st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=4).map(tuple),
    suffix=st.none() | suffixes,
)


@st.composite
def version_texts(draw) -> str:
    """Grammar-valid version text (no leading zeros, optional suffix)."""
    return str(draw(versions))


atoms = st.tuples(st.sampled_from(OPS), versions)

constraints = st.one_of(
    st.just(Constraint(((),))),
    st.builds(
        Constraint,
        clauses=st.lists(
            st.lists(atoms, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3
        ).map(tuple),
    ),
)

calendar_versions = st.builds(
    CalendarVersion,
    year=st.integers(min_value=2000, max_value=2099),
    month=st.integers(min_value=1, max_value=12),
    patch=st.integers(min_value=0, max_value=30),
)

package_names = st.sampled_from([chr(ord("a") + i) for i in range(8)])

_VERSION_POOL = ["0.9", "1.0", "1.1", "2.0", "2.0-rc1", "2.1", "3.0", "3.1"]
_TOOL_POOL = ["8.12", "8.13", "8.14", "8.15"]


@st.composite
def pool_constraints(draw, pool) -> Constraint:
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind == 0:
        return Constraint(((),))
    def atom():
        return (draw(st.sampled_from(OPS)), parse_version(draw(st.sampled_from(pool))))
    if kind <= 7:
        return Constraint(((atom(),),))
    if kind == 8:
        return Constraint(((atom(), atom()),))
    return Constraint(((atom(),), (atom(),)))


@st.composite
def repositories(draw, max_packages=6, max_versions=3) -> Repository:
    """Small valid repository with random dependency and conflict edges."""
    count = draw(st.integers(min_value=1, max_value=max_packages))
    names = [chr(ord("a") + i) for i in range(count)]
    packages: dict = {}
    for name in names:
        n_versions = draw(st.integers(min_value=1, max_value=max_versions))
        version_texts_ = draw(
            st.lists(
                st.sampled_from(_VERSION_POOL),
                min_size=n_versions,
                max_size=n_versions,
                unique=True,
            )
        )
        for text in version_texts_:
            depends = []
            conflicts = []
            for other in names:
                if other == name:
                    continue
                roll = draw(st.integers(min_value=0, max_value=9))
                if roll < 3:
                    depends.append((other, draw(pool_constraints(_VERSION_POOL))))
                elif roll < 4:
                    conflicts.append((other, draw(pool_constraints(_VERSION_POOL))))
            dev = draw(st.booleans()) and draw(st.booleans())  # ~25% dev
            manifest = PackageManifest(
                name=name,
                version=parse_version(text),
                toolchain=draw(pool_constraints(_TOOL_POOL)),
                depends=tuple(depends),
                conflicts=tuple(conflicts),
                dev=dev,
                source_ref="ref0" if dev else None,
            )
            packages.setdefault(name, {})[manifest.version] = manifest
    return Repository(
        toolchains=tuple(parse_version(t) for t in _TOOL_POOL), packages=packages
    )


@st.composite
def requests_for(draw, repo: Repository) -> SelectionRequest:
    names = sorted(repo.packages)
    mandatory = draw(st.sets(st.sampled_from(names), max_size=min(2, len(names))))
    rest = [n for n in names if n not in mandatory]
    optional = set()
    if rest:
        optional = draw(st.sets(st.sampled_from(rest), max_size=len(rest)))
    toolchain = parse_version(draw(st.sampled_from(_TOOL_POOL)))
    overrides = {}
    pool = sorted(mandatory | optional)
    if pool and draw(st.booleans()) and not draw(st.booleans()):  # ~25%
        name = draw(st.sampled_from(pool))
        valid = [
            v
            for v, manifest in repo.packages[name].items()
            if satisfies(toolchain, manifest.toolchain)
        ]
        if valid:
            overrides[name] = draw(st.sampled_from(sorted(valid)))
    return SelectionRequest(
        toolchain=toolchain,
        mandatory=frozenset(mandatory),
        optional=frozenset(optional),
        overrides=overrides,
        include_dev=draw(st.booleans()),
    )


@st.composite
def picks(draw, min_packages=0, max_packages=6) -> Pick:
    names = draw(
        st.lists(
            st.sampled_from([chr(ord("a") + i) for i in range(12)]),
            min_size=min_packages,
            max_size=max_packages,
            unique=True,
        )
    )
    selected = {name: draw(versions) for name in names}
    return Pick(
        toolchain=draw(versions),
        selected=selected,
        excluded={},
    )


def _release_pick(draw, toolchain_text: str) -> Pick:
    pick = draw(picks())._replace(toolchain=parse_version(toolchain_text))
    if draw(st.booleans()):
        pick = pick._replace(excluded={
            name: f"conflict with {name}"
            for name in draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=2, unique=True))
            if name not in pick.selected
        })
    return pick


@st.composite
def releases(draw) -> Release:
    toolchain_texts = draw(
        st.lists(st.sampled_from(_TOOL_POOL), min_size=1, max_size=4, unique=True)
    )
    release_picks = [_release_pick(draw, text) for text in toolchain_texts]
    version = draw(calendar_versions)
    predecessor = draw(st.none() | calendar_versions.filter(lambda c: c < version))
    return Release(version=version, picks=release_picks, predecessor=predecessor)


@st.composite
def release_arguments(draw) -> tuple:
    """``(version, picks, predecessor)`` that may break any rule of a release:
    picks in any order, none at all, or two of one toolchain (``8.15`` and
    ``8.15.0`` among them), and a predecessor that may not be older."""
    toolchain_texts = draw(st.lists(st.sampled_from([*_TOOL_POOL, "8.15.0"]), max_size=4))
    version = draw(calendar_versions)
    predecessor = draw(st.none() | st.just(version) | calendar_versions)
    return version, [_release_pick(draw, text) for text in toolchain_texts], predecessor
