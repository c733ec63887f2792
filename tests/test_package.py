"""The lazy public API of ``pickforge`` and the modules each CLI op loads."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import pickforge
from conftest import PLATFORM_FIXTURE, REPO_ROOT, SMOKE_FIXTURE

PUBLIC_NAMES = [
    "CalendarVersion", "Constraint", "CoordinationReport", "InstallPlan", "PackageManifest",
    "Pick", "PickDiff", "PickforgeError", "Release", "Repository", "SelectionRequest",
    "SmokeReport", "SuccessionReport", "UnsatReport", "UpgradeReport", "Version",
    "assemble_release", "check_removals", "check_succession", "compare_versions",
    "compatible_versions", "coordinate", "diff_picks", "emit_install_script", "enumerate_best",
    "install_plan", "load_repository", "parse_calendar_version", "parse_constraint",
    "parse_version", "read_lockfile", "resolve_pick", "run_plan", "satisfies", "upgrade_path",
    "validate_repository", "verify_pick", "write_lockfile",
]


class TestLazyApi:
    def test_all_is_unchanged(self):
        assert pickforge.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", PUBLIC_NAMES)
    def test_name_is_its_submodule_object(self, name):
        value = getattr(pickforge, name)
        assert value.__module__.startswith("pickforge.")
        assert value is getattr(sys.modules[value.__module__], name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from pickforge import *", namespace)
        assert {name: namespace[name] for name in PUBLIC_NAMES} == {
            name: getattr(pickforge, name) for name in PUBLIC_NAMES
        }

    def test_dir_lists_every_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(pickforge))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            getattr(pickforge, "nope")
        assert not hasattr(pickforge, "nope")

    def test_solver_reexports_the_reference(self):
        from pickforge import reference, solver
        from pickforge.solver import enumerate_best, verify_pick

        assert enumerate_best is reference.enumerate_best is pickforge.enumerate_best
        assert verify_pick is reference.verify_pick is pickforge.verify_pick
        for name in ("nope", "PickViolation", "EnumerationLimitError", "MUTUAL_EXCLUSION"):
            with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
                getattr(solver, name)


# Runs CLI ops one after another in this child and prints the modules they
# left loaded, less those the bare interpreter had already loaded.
_PROBE = """
import contextlib, io, json, sys
bare = set(sys.modules)
from pickforge import cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - bare)}))
"""


def loaded_after(*ops: list[str]) -> tuple[list[int], set[str]]:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(ops)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    return result["codes"], set(result["loaded"])


# option parsers and the modules they load for their messages; the CLI
# parses its options without them
PARSER_MODULES = {"argparse", "getopt", "gettext", "locale"}

# ``dataclasses`` and the modules it loads to generate record classes at
# import; records are built without them, so no op should pay for them
CODEGEN_MODULES = {"dataclasses", "inspect", "ast", "dis"}

# every subcommand, with the exit code its run here must end with
OPS = {
    "resolve": (["resolve", "--index", "{platform}", "--toolchain", "8.15", "--format", "json"], 0),
    "release": (["release", "--index", "{platform}", "--version", "2022.02.0",
                 "--output", "{tmp}/out.lock.json"], 0),
    "diff": (["diff", "--lockfile", "{platform_lock}", "--from", "8.13", "--to", "8.15"], 0),
    "upgrade": (["upgrade", "--lockfile", "{platform_lock}", "--from", "8.12", "--to", "8.15"], 0),
    "coordinate": (["coordinate", "--index", "{platform}", "--rc", "8.15",
                    "--reference", "{platform_lock}", "--reference-toolchain", "8.14"], 0),
    "policy": (["policy", "--index", "{platform}"], 1),
    "script": (["script", "--index", "{smoke}", "--lockfile", "{smoke_lock}"], 0),
    "smoke": (["smoke", "--index", "{smoke}", "--lockfile", "{smoke_lock}",
               "--sandbox", "{tmp}/box", "--jobs", "2"], 1),
}


@pytest.fixture(scope="module")
def lockfiles(tmp_path_factory):
    from pickforge import cli

    root = tmp_path_factory.mktemp("locks")
    paths = {"platform_lock": root / "platform.lock.json", "smoke_lock": root / "smoke.lock.json"}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, lock in ((PLATFORM_FIXTURE, "platform_lock"), (SMOKE_FIXTURE, "smoke_lock")):
            argv = ["release", "--index", str(index), "--version", "2022.01.0",
                    "--output", str(paths[lock])]
            assert cli.main(argv) == 0
    return paths


class TestImportBudget:
    def test_unsat_resolve_loads_no_release_policy_or_buildrun(self):
        codes, loaded = loaded_after(
            ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--mandatory", "oldstone"],
        )
        assert codes == [2]
        assert not loaded & {"pickforge.release", "pickforge.policy", "pickforge.buildrun"}

    def test_pick_release_and_diff_load_no_runner_or_policy(self, tmp_path):
        lock = str(tmp_path / "platform.lock.json")
        codes, loaded = loaded_after(
            ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--format", "json"],
            ["release", "--index", str(PLATFORM_FIXTURE), "--version", "2022.01.0",
             "--output", lock],
            ["diff", "--lockfile", lock, "--from", "8.13", "--to", "8.15"],
        )
        assert codes == [0, 0, 0]
        assert "pickforge.release" in loaded
        assert not loaded & {
            "pickforge.buildrun", "pickforge.policy", "concurrent.futures", "subprocess",
            "hashlib", "logging",
        }

    def test_script_loads_no_thread_pool(self, tmp_path):
        lock = str(tmp_path / "smoke.lock.json")
        codes, loaded = loaded_after(
            ["release", "--index", str(SMOKE_FIXTURE), "--version", "2022.01.0",
             "--output", lock],
            ["script", "--index", str(SMOKE_FIXTURE), "--lockfile", lock],
        )
        assert codes == [0, 0]
        assert "pickforge.buildrun" in loaded
        assert "concurrent.futures" not in loaded

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_no_op_loads_an_option_parser(self, op, lockfiles, tmp_path):
        template, expected_code = OPS[op]
        values = dict(lockfiles, platform=PLATFORM_FIXTURE, smoke=SMOKE_FIXTURE, tmp=tmp_path)
        codes, loaded = loaded_after([arg.format(**values) for arg in template])
        assert codes == [expected_code]
        # ``subprocess``, which runs the smoke kit's build commands, imports
        # ``locale`` itself
        allowed = {"locale"} if "subprocess" in loaded else set()
        assert not loaded & (PARSER_MODULES - allowed)

    def test_resolve_and_release_load_no_reference_or_mirror(self, tmp_path):
        values = dict(platform=PLATFORM_FIXTURE, tmp=tmp_path)
        codes, loaded = loaded_after(
            *([arg.format(**values) for arg in OPS[op][0]] for op in ("resolve", "release")),
            ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--mandatory", "oldstone"],
        )
        assert codes == [0, 0, 2]
        assert not loaded & {"pickforge.reference", "pickforge.mirror"}

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_only_resolve_and_release_load_the_solver(self, op, lockfiles, tmp_path):
        template, expected_code = OPS[op]
        values = dict(lockfiles, platform=PLATFORM_FIXTURE, smoke=SMOKE_FIXTURE, tmp=tmp_path)
        codes, loaded = loaded_after([arg.format(**values) for arg in template])
        assert codes == [expected_code]
        assert ("pickforge.solver" in loaded) == (op in ("resolve", "release"))

    def test_policy_loads_no_lockfile_module(self):
        codes, loaded = loaded_after(["policy", "--index", str(PLATFORM_FIXTURE)])
        assert codes == [1]
        assert "pickforge.policy" in loaded
        assert "pickforge.release" not in loaded

    def test_json_resolve_loads_no_lockfile_module(self):
        codes, loaded = loaded_after(
            ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--format", "json"],
        )
        assert codes == [0]
        assert "pickforge.release" not in loaded

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_no_op_loads_record_code_generation(self, op, lockfiles, tmp_path):
        template, expected_code = OPS[op]
        values = dict(lockfiles, platform=PLATFORM_FIXTURE, smoke=SMOKE_FIXTURE, tmp=tmp_path)
        codes, loaded = loaded_after([arg.format(**values) for arg in template])
        assert codes == [expected_code]
        assert not loaded & CODEGEN_MODULES

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_program_prints_what_main_prints(self, op, lockfiles, tmp_path):
        # the program path turns the cyclic collector off and freezes the
        # heap; none of that may show in what an op prints
        from pickforge import cli

        template, expected_code = OPS[op]
        values = dict(lockfiles, platform=PLATFORM_FIXTURE, smoke=SMOKE_FIXTURE, tmp=tmp_path)
        argv = [arg.format(**values) for arg in template]
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        shutil.rmtree(tmp_path / "box", ignore_errors=True)  # smoke wants an empty sandbox
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert proc.returncode == code == expected_code
        assert proc.stdout == out.getvalue()
        assert proc.stderr == err.getvalue()
