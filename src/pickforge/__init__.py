"""pickforge: curated, reproducible package picks per toolchain version.

The public names below are imported from their submodules on first use
(PEP 562), so ``import pickforge`` loads no submodule and each CLI
subcommand loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "buildrun": ("InstallPlan", "SmokeReport", "emit_install_script", "install_plan", "run_plan"),
    "errors": ("PickforgeError",),
    "index": (
        "PackageManifest", "Pick", "Repository", "compatible_versions", "load_repository",
        "validate_repository",
    ),
    "policy": (
        "CoordinationReport", "SuccessionReport", "check_removals", "check_succession",
        "coordinate",
    ),
    "reference": ("enumerate_best", "verify_pick"),
    "release": (
        "PickDiff", "Release", "UpgradeReport", "diff_picks", "read_lockfile", "upgrade_path",
        "write_lockfile",
    ),
    "solver": ("SelectionRequest", "UnsatReport", "resolve_pick"),
    "versioning": (
        "CalendarVersion", "Constraint", "Version", "parse_calendar_version",
        "parse_constraint", "parse_version", "satisfies",
    ),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
