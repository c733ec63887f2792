from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import (
    GOLDEN_DIR,
    PLATFORM_FIXTURE,
    RELEASE_UNIVERSE_EXCLUDES,
    SMOKE_FIXTURE,
    SMOKE_PLAN_DIGEST,
    cli_in_child,
    raw_manifest,
    write_fixture,
)
from pickforge import cli
from pickforge.cli import EXIT_FAILURE, EXIT_IO, EXIT_OK, EXIT_UNSAT, EXIT_USAGE, main
from pickforge.index import Pick
from pickforge.release import LockfileError, Release, read_lockfile, write_lockfile
from pickforge.versioning import parse_calendar_version, parse_version


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def release_args(*extra: str) -> list[str]:
    args = ["release", "--index", str(PLATFORM_FIXTURE), "--version", "2022.01.0"]
    universe = sorted(
        set(json.loads((PLATFORM_FIXTURE / "index.json").read_text())["packages"])
        - RELEASE_UNIVERSE_EXCLUDES
    )
    for name in universe:
        args += ["--optional", name]
    return args + list(extra)


class TestUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--index", str(PLATFORM_FIXTURE), "--nope"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--index", str(PLATFORM_FIXTURE)])
        assert exc.value.code == EXIT_USAGE

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
                  "--format", "yaml"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_index_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--toolchain", "8.15"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_must_be_positive(self, capsys, tmp_path, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["smoke", "--index", str(SMOKE_FIXTURE), "--lockfile", str(tmp_path / "x.lock"),
                  "--sandbox", str(tmp_path / "box"), "--jobs", jobs])
        assert exc.value.code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "box").exists()


# every option each subcommand takes, and so reads; --help lists exactly these
_REQUEST_OPTIONS = ["--mandatory", "--optional", "--override", "--include-dev"]
COMMAND_OPTIONS = {
    "resolve": ["--format", "--index", "--toolchain", *_REQUEST_OPTIONS],
    "release": ["--index", "--version", "--toolchain", *_REQUEST_OPTIONS, "--previous",
                "--carry-previous", "--strict-removals", "--output"],
    "diff": ["--format", "--lockfile", "--from", "--to"],
    "upgrade": ["--format", "--lockfile", "--from", "--to"],
    "coordinate": ["--format", "--index", "--rc", "--reference", "--reference-toolchain"],
    "policy": ["--format", "--index", "--package"],
    "smoke": ["--format", "--index", "--lockfile", "--toolchain", "--sandbox", "--jobs"],
    "script": ["--index", "--lockfile", "--toolchain"],
}
RESOLVE = ["resolve", "--index", str(PLATFORM_FIXTURE)]
_INDEX_COMMANDS = [command for command, options in COMMAND_OPTIONS.items() if "--index" in options]


def parsed_args(monkeypatch, argv: list[str]) -> dict:
    """The option values the subcommand's handler receives for ``argv``."""
    seen = {}

    def handler(args):
        seen.update(vars(args))
        return EXIT_OK

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", handler)
    assert main(argv) == EXIT_OK
    return seen


class TestGrammar:
    """The option grammar: forms of a value, abbreviations, help, usage errors."""

    @pytest.mark.parametrize("argv", [
        [f"--index={PLATFORM_FIXTURE}", "--toolchain", "8.15", "--format=json"],
        ["--index", str(PLATFORM_FIXTURE), "--tool", "8.15", "--form", "json"],
        ["--index", str(PLATFORM_FIXTURE), "--toolchain", "8.13", "--toolchain", "8.15",
         "--format", "json"],
    ], ids=["equals", "abbreviated", "last-wins"])
    def test_spellings_of_one_request_give_one_pick(self, capsys, argv):
        want = run_cli(capsys, *RESOLVE, "--toolchain", "8.15", "--format", "json")
        assert run_cli(capsys, "resolve", *argv) == want
        assert json.loads(want[1])["toolchain"] == "8.15"

    def test_ambiguous_prefix_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*RESOLVE, "--toolchain", "8.15", "--o", "alpha"])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--o" in err and "--optional" in err and "--override" in err

    def test_exact_name_wins_over_a_longer_one(self, monkeypatch):
        seen = parsed_args(monkeypatch, ["coordinate", "--index", "x", "--rc", "8.15",
                                         "--reference", "a.lock"])
        assert (seen["reference"], seen["reference_toolchain"]) == ("a.lock", None)

    def test_repeated_options_keep_their_order(self, monkeypatch):
        seen = parsed_args(monkeypatch, [*RESOLVE, "--toolchain", "8.15",
                                         "--mandatory", "zeta", "--optional", "beta",
                                         "--mandatory", "alpha", "--mandatory=mid"])
        assert seen["mandatory"] == ["zeta", "alpha", "mid"]
        assert seen["optional"] == ["beta"]
        seen = parsed_args(monkeypatch, ["release", "--index", "x", "--version", "2022.01.0",
                                         "--toolchain", "8.14", "--toolchain", "8.12"])
        assert seen["toolchain"] == ["8.14", "8.12"]

    def test_defaults(self, monkeypatch):
        seen = parsed_args(monkeypatch, ["smoke", "--index", "x", "--lockfile", "y",
                                         "--sandbox", "z"])
        assert (seen["format"], seen["toolchain"], seen["jobs"]) == ("text", None, 1)
        seen = parsed_args(monkeypatch, ["release", "--index", "x", "--version", "2022.01.0"])
        assert (seen["output"], seen["include_dev"], seen["optional"]) == (
            "pickforge.lock.json", False, []
        )

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_top_level_help_lists_every_subcommand(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        for command in COMMAND_OPTIONS:
            assert re.search(rf"\b{command}\b", out), command

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    @pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
    def test_subcommand_help_lists_its_options(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, flag])
        assert exc.value.code == EXIT_OK
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed - {"--help"} == set(COMMAND_OPTIONS[command])

    @pytest.mark.parametrize("argv", [
        ["release", "--index", "x", "--version", "2022.01.0", "--format", "json"],
        ["script", "--index", "x", "--lockfile", "y", "--format", "json"],
        ["diff", "--lockfile", "y", "--from", "8.13", "--to", "8.14", "--cache-dir", "d"],
        ["upgrade", "--lockfile", "y", "--from", "8.13", "--to", "8.15", "--cache-dir", "d"],
        # an HTTP load keeps no copy, so no command takes a cache directory
        *([command, "--cache-dir", "d"] for command in _INDEX_COMMANDS),
    ], ids=["release-format", "script-format", "diff-cache-dir", "upgrade-cache-dir",
            *(f"{command}-cache-dir" for command in _INDEX_COMMANDS)])
    def test_options_a_command_would_ignore_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"pickforge {argv[0]}: error: unrecognized arguments: {argv[-2]}\n" in err

    @pytest.mark.parametrize("argv, named", [
        ([], "command"),
        (["nope"], "nope"),
        ([*RESOLVE, "--toolchain", "8.15", "stray"], "stray"),
        ([*RESOLVE, "--toolchain", "8.15", "--include-dev=x"], "--include-dev"),
        ([*RESOLVE, "--toolchain"], "--toolchain"),
        ([*RESOLVE, "--toolchain", "8.15", "--mandatory"], "--mandatory"),
    ], ids=["no-command", "unknown-command", "stray", "flag-value", "no-value", "no-value-2"])
    def test_usage_errors_name_the_argument(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: pickforge")
        assert re.search(r"^pickforge( \w+)?: error: .*" + re.escape(named), err, re.M)


class TestResolve:
    def test_json_pick(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE),
            "--toolchain", "8.15", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["toolchain"] == "8.15"
        assert payload["selected"]
        assert list(payload) == sorted(payload)

    def test_text_pick_lists_exclusions(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.12",
        )
        assert code == EXIT_OK
        assert "pick for toolchain 8.12" in out
        assert "excluded:" in out

    def test_unsat_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE),
            "--toolchain", "8.15", "--mandatory", "oldstone", "--format", "json",
        )
        assert code == EXIT_UNSAT
        assert json.loads(out)["culprits"] == ["oldstone"]

    def test_override_and_include_dev(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE),
            "--toolchain", "8.15", "--optional", "nightjar",
            "--override", "nightjar=2.1-dev", "--include-dev", "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["selected"] == {"nightjar": "2.1-dev"}

    def test_malformed_override(self, capsys):
        code, _, err = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE),
            "--toolchain", "8.15", "--optional", "nightjar", "--override", "nightjar",
        )
        assert code == EXIT_IO
        assert "name=version" in err

    def test_too_many_digits_is_a_data_error(self, capsys, tmp_path):
        digits = "1" * 5000
        write_fixture(
            tmp_path,
            ["8.15"],
            [
                raw_manifest("alpha", "1.0"),
                raw_manifest("beta", "1.0", depends=[["alpha", f">=1.{digits}"]]),
            ],
        )
        code, _, err = run_cli(capsys, "resolve", "--index", str(tmp_path), "--toolchain", "8.15")
        path = tmp_path / "packages" / "beta" / "1.0.json"
        assert code == EXIT_IO
        assert err.startswith(f"pickforge: error: {path}: field 'depends[0]': too many digits")
        for argv in (
            ["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--optional", "nightjar", "--override", f"nightjar=1.{digits}"],
            ["release", "--index", str(PLATFORM_FIXTURE), "--version", f"2022.01.{digits}"],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == EXIT_IO
            assert err.startswith("pickforge: error: too many digits")

    def test_bad_options_fail_before_the_index_loads(self, capsys, tmp_path):
        index = str(tmp_path / "missing-index")
        for options, named in (
            (["--toolchain", "bogus"], "'bogus'"),
            (["--toolchain", "8.15", "--optional", "x", "--override", "x"], "'x' is not"),
        ):
            code, _, err = run_cli(capsys, "resolve", "--index", index, *options)
            assert code == EXIT_IO
            assert named in err and "missing-index" not in err

    def test_missing_index_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "resolve", "--index", str(tmp_path / "ghost"), "--toolchain", "8.15"
        )
        assert code == EXIT_IO
        assert "error" in err


class TestRelease:
    def test_writes_lockfile(self, capsys, tmp_path):
        out_path = tmp_path / "pickforge.lock.json"
        code, _, err = run_cli(capsys, *release_args("--output", str(out_path)))
        assert code == EXIT_OK
        payload = json.loads(out_path.read_text())
        assert payload["version"] == "2022.01.0"
        assert len(payload["picks"]) == 4

    def test_bad_options_fail_before_the_index_loads(self, capsys, tmp_path):
        index = str(tmp_path / "missing-index")
        code, _, err = run_cli(capsys, "release", "--index", index, "--version", "2026.10")
        assert code == EXIT_IO
        assert "'2026.10'" in err and "missing-index" not in err
        previous = str(tmp_path / "none.lock.json")
        code, _, err = run_cli(
            capsys, "release", "--index", index, "--version", "2026.10.0", "--previous", previous
        )
        assert code == EXIT_IO
        assert previous in err and "missing-index" not in err
        code, _, err = run_cli(
            capsys, "release", "--index", index, "--version", "2026.10.0",
            "--toolchain", "8.15", "--toolchain", "bogus",
        )
        assert code == EXIT_IO
        assert "'bogus'" in err and "missing-index" not in err

    @pytest.mark.parametrize("options, message", [
        (["--version", "2022.06.0", "--toolchain", "8.15", "--toolchain", "8.15.0"],
         "duplicate pick for toolchain 8.15"),
        (["--version", "2022.01.0"],
         "release version 2022.01.0 must be greater than predecessor 2022.01.0"),
        (["--version", "2021.12.0"],
         "release version 2021.12.0 must be greater than predecessor 2022.01.0"),
    ], ids=["duplicate-toolchain", "version-equal-to-predecessor", "version-below-predecessor"])
    def test_release_rules_fail_before_the_index_loads(self, capsys, tmp_path, options, message):
        previous = tmp_path / "previous.lock.json"
        previous.write_bytes(write_lockfile(Release(
            parse_calendar_version("2022.01.0"), [Pick(parse_version("8.15"), {})]
        )))
        code, out, err = run_cli(
            capsys, "release", "--index", str(tmp_path / "missing-index"),
            "--previous", str(previous), *options, "--output", str(tmp_path / "out.lock.json"),
        )
        assert (code, out, err) == (EXIT_IO, "", f"pickforge: error: {message}\n")
        assert not (tmp_path / "out.lock.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--strict-removals"], ["--carry-previous"], ["--carry-previous", "--strict-removals"],
    ], ids=["strict-removals", "carry-previous", "both"])
    def test_previous_only_options_need_previous(self, capsys, tmp_path, flags):
        # neither the index nor the output is touched
        output = tmp_path / "out.lock.json"
        with pytest.raises(SystemExit) as exc:
            main(["release", "--index", str(tmp_path / "missing-index"),
                  "--version", "2022.01.0", *flags, "--output", str(output)])
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: pickforge release")
        flag = "--strict-removals" if "--strict-removals" in flags else "--carry-previous"
        assert f"pickforge release: error: argument {flag}: requires --previous\n" in err
        assert "missing-index" not in err
        assert not output.exists()

    def test_byte_identical_across_processes(self, tmp_path):
        outputs = []
        for name in ("one.lock.json", "two.lock.json"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "pickforge.cli"]
                + release_args("--output", str(path))[0:],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_monotonicity_warning_on_stderr(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        code, _, _ = run_cli(capsys, *release_args("--output", str(first)))
        assert code == EXIT_OK
        slim = [
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--optional", "aldergrove",
            "--previous", str(first), "--output", str(tmp_path / "second.lock.json"),
        ]
        code, _, err = run_cli(capsys, *slim)
        assert code == EXIT_OK
        assert "pickforge: warning: RemovalWithoutDeprecation: package " in err

    def test_strict_removals_fail(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        run_cli(capsys, *release_args("--output", str(first)))
        slim = [
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--optional", "aldergrove",
            "--previous", str(first), "--strict-removals",
            "--output", str(tmp_path / "second.lock.json"),
        ]
        code, _, err = run_cli(capsys, *slim)
        assert code == EXIT_FAILURE
        assert "RemovalWithoutDeprecation" in err

    def test_unsatisfiable_toolchain_writes_no_lockfile(self, capsys, tmp_path):
        out_path = tmp_path / "pickforge.lock.json"
        code, out, err = run_cli(
            capsys, "release", "--index", str(PLATFORM_FIXTURE), "--version", "2022.01.0",
            "--mandatory", "aldergrove", "--output", str(out_path),
        )
        assert code == EXIT_UNSAT
        assert out == ""
        assert err == (
            "pickforge: toolchain 8.12 is unsatisfiable:\n"
            "  mandatory package aldergrove cannot be installed at toolchain 8.12\n"
        )
        assert not out_path.exists()

    def test_strict_removals_write_the_lockfile_before_failing(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        run_cli(capsys, *release_args("--output", str(first)))
        lenient, strict = tmp_path / "lenient.lock.json", tmp_path / "strict.lock.json"
        slim = [
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--optional", "aldergrove", "--previous", str(first),
        ]
        assert run_cli(capsys, *slim, "--output", str(lenient))[0] == EXIT_OK
        code, _, _ = run_cli(capsys, *slim, "--strict-removals", "--output", str(strict))
        assert code == EXIT_FAILURE
        assert strict.read_bytes() == lenient.read_bytes()

    def test_carry_previous_picks(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        run_cli(capsys, *release_args("--output", str(first)))
        code, _, _ = run_cli(
            capsys,
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--toolchain", "8.15",
            "--previous", str(first), "--carry-previous",
            "--output", str(tmp_path / "second.lock.json"),
        )
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "second.lock.json").read_text())
        assert len(payload["picks"]) == 4
        assert payload["predecessor"] == "2022.01.0"

    def test_strict_removals_report_each_removal_once(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        run_cli(capsys, *release_args("--output", str(first)))
        slim = [
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--optional", "aldergrove",
            "--previous", str(first), "--output", str(tmp_path / "second.lock.json"),
        ]
        _, _, warned = run_cli(capsys, *slim)
        code, _, err = run_cli(capsys, *slim, "--strict-removals")
        assert code == EXIT_FAILURE
        assert "warning" not in err
        assert err == warned.replace("pickforge: warning: ", "pickforge: error: ")
        dropped = re.findall(r"error: RemovalWithoutDeprecation: package (\S+) ", err)
        assert len(dropped) == len(set(dropped)) == err.count("\n") > 1

    def test_carry_previous_matches_toolchains_by_value(self, capsys, tmp_path):
        first = tmp_path / "first.lock.json"
        run_cli(capsys, *release_args("--toolchain", "8.12", "--toolchain", "8.15",
                                      "--output", str(first)))
        second = tmp_path / "second.lock.json"
        code, _, err = run_cli(
            capsys,
            "release", "--index", str(PLATFORM_FIXTURE),
            "--version", "2022.06.0", "--toolchain", "8.15.0",
            "--previous", str(first), "--carry-previous", "--output", str(second),
        )
        assert code == EXIT_OK, err
        picks = json.loads(second.read_text())["picks"]
        assert [pick["toolchain"] for pick in picks] == ["8.12", "8.15.0"]


@pytest.fixture()
def lockfile(tmp_path):
    path = tmp_path / "pickforge.lock.json"
    proc = subprocess.run(
        [sys.executable, "-m", "pickforge.cli"] + release_args("--output", str(path)),
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    return path


class TestDiffAndUpgrade:
    def test_diff_json(self, capsys, lockfile):
        code, out, _ = run_cli(
            capsys,
            "diff", "--lockfile", str(lockfile),
            "--from", "8.13", "--to", "8.14", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"added", "removed", "upgraded", "downgraded", "unchanged"}
        assert payload["removed"] == []

    def test_upgrade_json_monotone(self, capsys, lockfile):
        code, out, _ = run_cli(
            capsys,
            "upgrade", "--lockfile", str(lockfile),
            "--from", "8.13", "--to", "8.15", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["monotone"] is True
        assert len(payload["steps"]) == 2

    def test_unknown_toolchain_is_io_error(self, capsys, lockfile):
        code, _, err = run_cli(
            capsys, "diff", "--lockfile", str(lockfile), "--from", "8.13", "--to", "9.9"
        )
        assert code == EXIT_IO

    def test_missing_lockfile(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "diff", "--lockfile", str(tmp_path / "none.lock.json"),
            "--from", "8.13", "--to", "8.14",
        )
        assert code == EXIT_IO


def lockfile_argv(op: str, path: str, out_dir) -> list[str]:
    """Argv of a subcommand that reads the lockfile at ``path``; a release
    writes to ``out_dir``, or to stdout for ``release-stdout``."""
    release = ["release", "--index", str(PLATFORM_FIXTURE), "--version", "2022.04.0",
               "--previous", path, "--output"]
    return {
        "diff": ["diff", "--lockfile", path, "--from", "8.13", "--to", "8.15"],
        "release": [*release, str(out_dir / "out.lock.json")],
        "release-stdout": [*release, "-"],
        "coordinate": ["coordinate", "--index", str(PLATFORM_FIXTURE), "--rc", "8.15",
                       "--reference", path, "--reference-toolchain", "8.14"],
    }[op]


class TestLockfileInputs:
    """``--lockfile``, ``--previous`` and ``--reference`` are read like index
    files, except that a pipe is read too: anything unreadable ends in exit
    code 3 and a named error, never a hang, a traceback or unbounded reading."""

    NESTED = "[" * 1000 + "]" * 1000

    @pytest.mark.parametrize("op", ["diff", "release", "coordinate"])
    def test_deep_nesting_is_a_lockfile_error(self, capsys, tmp_path, op):
        path = tmp_path / "nested.lock.json"
        path.write_text(self.NESTED)
        with pytest.raises(LockfileError, match="lockfile: invalid JSON"):
            read_lockfile(path.read_bytes())
        code, out, err = run_cli(capsys, *lockfile_argv(op, str(path), tmp_path))
        assert code == EXIT_IO
        assert out == ""
        assert err.startswith("pickforge: error: lockfile: invalid JSON (maximum recursion")
        assert not (tmp_path / "out.lock.json").exists()

    def test_pick_that_selects_and_excludes_a_name_is_refused(self, capsys, lockfile, tmp_path):
        payload = json.loads(lockfile.read_text())
        name = min(payload["picks"][1]["selected"])
        payload["picks"][1]["excluded"][name] = "also excluded"
        lockfile.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, *lockfile_argv("diff", str(lockfile), tmp_path))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"pickforge: error: lockfile picks[1]: {name} both selected and excluded\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_fifo_without_a_writer_reads_as_empty(self, tmp_path):
        fifo = tmp_path / "pickforge.lock.json"
        os.mkfifo(fifo)
        proc = cli_in_child(*lockfile_argv("diff", str(fifo), tmp_path))
        assert proc.returncode == EXIT_IO
        assert proc.stderr == (
            "pickforge: error: lockfile: invalid JSON "
            "(Expecting value: line 1 column 1 (char 0))\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_device_is_not_read(self, tmp_path):
        proc = cli_in_child(*lockfile_argv("diff", "/dev/zero", tmp_path))
        assert proc.returncode == EXIT_IO
        assert proc.stderr == "pickforge: error: /dev/zero: not a regular file\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("op", ["diff", "release-stdout"])
    def test_pipe_with_a_live_writer_reads_as_the_file(self, lockfile, tmp_path, op):
        # padded past a pipe's 64 KiB buffer, so the reader waits on the writer
        text = lockfile.read_text() + " " * 2**17
        lockfile.write_text(text)
        from_file = cli_in_child(*lockfile_argv(op, str(lockfile), tmp_path))
        from_pipe = cli_in_child(*lockfile_argv(op, "/dev/stdin", tmp_path), stdin=text)
        assert from_file.returncode == EXIT_OK, from_file.stderr
        assert from_file.stdout
        assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (
            from_file.returncode, from_file.stdout, from_file.stderr
        )


class TestCoordinate:
    def test_markdown_output(self, capsys, lockfile):
        code, out, _ = run_cli(
            capsys,
            "coordinate", "--index", str(PLATFORM_FIXTURE),
            "--rc", "8.15", "--reference", str(lockfile),
            "--reference-toolchain", "8.14",
        )
        assert code == EXIT_OK
        assert out.startswith("# Coordination report for release candidate 8.15")

    def test_json_statuses(self, capsys, lockfile):
        code, out, _ = run_cli(
            capsys,
            "coordinate", "--index", str(PLATFORM_FIXTURE),
            "--rc", "8.15", "--reference", str(lockfile),
            "--reference-toolchain", "8.14", "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        statuses = {e["status"] for e in payload["entries"].values()}
        assert statuses == {"AlreadyCompatible"}  # release universe excludes planted

    def test_informational_even_with_none_known(self, capsys, tmp_path):
        # a reference containing the planted packages still exits 0
        path = tmp_path / "all.lock.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli",
             "release", "--index", str(PLATFORM_FIXTURE),
             "--version", "2021.09.0", "--toolchain", "8.14",
             "--output", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(
            capsys,
            "coordinate", "--index", str(PLATFORM_FIXTURE),
            "--rc", "8.15", "--reference", str(path), "--format", "json",
        )
        assert code == EXIT_OK
        statuses = {e["status"] for e in json.loads(out)["entries"].values()}
        assert statuses == {"AlreadyCompatible", "DevCompatible", "NoneKnown"}


class TestPolicy:
    def test_all_packages_exit_failure_on_violations(self, capsys):
        code, out, _ = run_cli(capsys, "policy", "--index", str(PLATFORM_FIXTURE))
        assert code == EXIT_FAILURE
        assert "strictweld: VIOLATION" in out

    def test_single_compliant_package(self, capsys):
        code, out, _ = run_cli(
            capsys, "policy", "--index", str(PLATFORM_FIXTURE), "--package", "aldergrove"
        )
        assert code == EXIT_OK
        assert "aldergrove: ok" in out

    def test_single_violator_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "policy", "--index", str(PLATFORM_FIXTURE),
            "--package", "tautline", "--format", "json",
        )
        assert code == EXIT_FAILURE
        payload = json.loads(out)
        assert payload["tautline"]["compliant"] is False
        assert all(p["witness"] is None for p in payload["tautline"]["pairs"])

    def test_unknown_package(self, capsys):
        code, _, _ = run_cli(
            capsys, "policy", "--index", str(PLATFORM_FIXTURE), "--package", "ghost"
        )
        assert code == EXIT_IO


class TestSmokeAndScript:
    def smoke_lockfile(self, tmp_path):
        path = tmp_path / "smoke.lock.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli",
             "release", "--index", str(SMOKE_FIXTURE),
             "--version", "2022.01.0", "--output", str(path)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        return path

    def test_smoke_reports_failure(self, capsys, tmp_path):
        lock = self.smoke_lockfile(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "smoke", "--index", str(SMOKE_FIXTURE), "--lockfile", str(lock),
            "--sandbox", str(tmp_path / "box"), "--jobs", "2", "--format", "json",
        )
        assert code == EXIT_FAILURE
        payload = json.loads(out)
        statuses = {s["name"]: s["status"] for s in payload["steps"]}
        assert statuses["brokenbuild"] == "BuildFailed"
        assert statuses["derrick"] == "Skipped"

    def test_smoke_passes_without_planted_failure(self, capsys, tmp_path):
        lock = tmp_path / "ok.lock.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli",
             "release", "--index", str(SMOKE_FIXTURE), "--version", "2022.01.0",
             "--optional", "anchor", "--optional", "earthworks", "--optional", "gantry",
             "--output", str(lock)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        code, _, _ = run_cli(
            capsys,
            "smoke", "--index", str(SMOKE_FIXTURE), "--lockfile", str(lock),
            "--sandbox", str(tmp_path / "box"),
        )
        assert code == EXIT_OK

    def test_sandbox_error_is_io(self, capsys, tmp_path):
        lock = self.smoke_lockfile(tmp_path)
        box = tmp_path / "box"
        box.mkdir()
        (box / "junk").write_text("x")
        code, _, _ = run_cli(
            capsys,
            "smoke", "--index", str(SMOKE_FIXTURE), "--lockfile", str(lock),
            "--sandbox", str(box),
        )
        assert code == EXIT_IO

    def test_script_deterministic_bytes(self, capsys, tmp_path):
        lock = self.smoke_lockfile(tmp_path)
        argv = [
            "script", "--index", str(SMOKE_FIXTURE), "--lockfile", str(lock),
            "--toolchain", "1.0",
        ]
        code_a, out_a, _ = run_cli(capsys, *argv)
        code_b, out_b, _ = run_cli(capsys, *argv)
        assert code_a == code_b == EXIT_OK
        assert out_a == out_b
        assert out_a.startswith("#!/bin/sh")

    def test_script_prints_the_plan_digest(self, capsys, tmp_path):
        lock = self.smoke_lockfile(tmp_path)
        code, out, _ = run_cli(capsys, "script", "--index", str(SMOKE_FIXTURE),
                               "--lockfile", str(lock))
        assert code == EXIT_OK
        assert out.splitlines()[:3] == [
            "#!/bin/sh",
            "# install script for toolchain 1.0 (6 steps)",
            f"# plan digest: {SMOKE_PLAN_DIGEST}",
        ]


class TestEntrypoint:
    def test_exit_codes_are_the_documented_numbers(self):
        # scripts branch on these numbers, as the README's table gives them
        codes = (EXIT_OK, EXIT_FAILURE, EXIT_UNSAT, EXIT_IO, EXIT_USAGE, cli.EXIT_PIPE)
        assert codes == (0, 1, 2, 3, 64, 141)

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli", "resolve",
             "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["toolchain"] == "8.15"

    def test_closed_stdout_ends_quietly_with_sigpipe_code(self):
        # a reader that has gone, as in ``pickforge ... | head -0``
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pickforge.cli", "resolve",
                 "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15",
                 "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=20,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_main_does_not_report_a_broken_pipe_as_an_io_error(self, monkeypatch, capsys):
        def closed(_args):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(cli, "cmd_resolve", closed)
        with pytest.raises(BrokenPipeError):
            main(["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15"])
        assert capsys.readouterr().err == ""

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["pickforge", "resolve", "--index", str(PLATFORM_FIXTURE),
             "--toolchain", "8.15", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["selected"]


class TestGcPolicy:
    """Only the program path turns the cyclic collector off and freezes the
    heap; ``main`` leaves both as its caller had them."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        yield
        gc.enable()
        gc.unfreeze()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["resolve", "--index", str(PLATFORM_FIXTURE), "--toolchain", "8.15"], EXIT_OK),
            (["resolve", "--index", str(PLATFORM_FIXTURE)], EXIT_USAGE),
        ],
        ids=["resolve", "usage-error"],
    )
    def test_main_leaves_the_collector_as_it_found_it(self, argv, code, enabled, capsys):
        if not enabled:
            gc.disable()
        frozen = gc.get_freeze_count()
        try:
            result = main(argv)
        except SystemExit as exc:
            result = exc.code
        assert result == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("usage_error", [False, True])
    def test_entrypoint_runs_main_without_collector_and_exits_frozen(
        self, usage_error, monkeypatch
    ):
        seen = {}

        def fake_main():
            seen["enabled"] = gc.isenabled()
            seen["frozen"] = gc.get_freeze_count()
            if usage_error:
                raise SystemExit(EXIT_USAGE)
            return EXIT_UNSAT

        def fake_exit(code):
            seen["exit"] = code
            raise SystemExit(code)

        monkeypatch.setattr(cli, "main", fake_main)
        monkeypatch.setattr(sys, "exit", fake_exit)
        gc.enable()
        gc.unfreeze()
        with pytest.raises(SystemExit) as exc:
            cli.entrypoint()
        assert exc.value.code == (EXIT_USAGE if usage_error else EXIT_UNSAT)
        assert seen["enabled"] is False
        assert seen["frozen"] == 0
        assert gc.get_freeze_count() > 0
        assert seen.get("exit") == (None if usage_error else EXIT_UNSAT)


class TestJsonGoldens:
    """CLI JSON output is schema-stable across runs and code changes."""

    def test_resolve_golden(self, capsys):
        from conftest import GOLDEN_DIR

        _, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(PLATFORM_FIXTURE),
            "--toolchain", "8.15", "--format", "json",
        )
        assert out == (GOLDEN_DIR / "cli-resolve-8.15.json").read_text()

    def test_policy_golden(self, capsys):
        from conftest import GOLDEN_DIR

        _, out, _ = run_cli(
            capsys,
            "policy", "--index", str(PLATFORM_FIXTURE),
            "--package", "tautline", "--format", "json",
        )
        assert out == (GOLDEN_DIR / "cli-policy-tautline.json").read_text()

    def test_upgrade_golden(self, capsys, lockfile):
        from conftest import GOLDEN_DIR

        _, out, _ = run_cli(
            capsys,
            "upgrade", "--lockfile", str(lockfile),
            "--from", "8.13", "--to", "8.15", "--format", "json",
        )
        assert out == (GOLDEN_DIR / "cli-upgrade-8.13-8.15.json").read_text()


UNSAT_REQUEST = (
    "--toolchain", "8.15", "--mandatory", "oldstone", "--mandatory", "reedmace",
    "--mandatory", "emberwick",
)


class TestOutputGoldens:
    """Every subcommand's rendering, pinned byte for byte with its exit code
    and an empty stderr."""

    def check(self, capsys, golden: str, code: int, *argv: str) -> None:
        assert run_cli(capsys, *argv) == (code, (GOLDEN_DIR / golden).read_text(), "")

    @pytest.mark.parametrize(
        "golden, command, argv, code",
        [
            ("cli-resolve-8.15.txt", "resolve", ("--toolchain", "8.15"), EXIT_OK),
            ("cli-resolve-unsat.txt", "resolve", UNSAT_REQUEST, EXIT_UNSAT),
            ("cli-resolve-unsat.json", "resolve", (*UNSAT_REQUEST, "--format", "json"),
             EXIT_UNSAT),
            ("cli-policy.txt", "policy", (), EXIT_FAILURE),
        ],
    )
    def test_index_ops(self, capsys, golden, command, argv, code):
        self.check(capsys, golden, code, command, "--index", str(PLATFORM_FIXTURE), *argv)

    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("cli-diff-8.15-8.12.txt", ("diff", "--from", "8.15", "--to", "8.12")),
            ("cli-diff-8.15-8.12.json",
             ("diff", "--from", "8.15", "--to", "8.12", "--format", "json")),
            ("cli-upgrade-8.12-8.15.txt", ("upgrade", "--from", "8.12", "--to", "8.15")),
        ],
    )
    def test_lockfile_ops(self, capsys, lockfile, golden, argv):
        self.check(capsys, golden, EXIT_OK, *argv, "--lockfile", str(lockfile))

    def test_smoke(self, capsys, tmp_path):
        lock = TestSmokeAndScript().smoke_lockfile(tmp_path)
        self.check(
            capsys, "cli-smoke.txt", EXIT_FAILURE,
            "smoke", "--index", str(SMOKE_FIXTURE), "--lockfile", str(lock),
            "--sandbox", str(tmp_path / "box"), "--jobs", "2",
        )

    @pytest.mark.parametrize(
        "golden, index, argv",
        [
            ("cli-release-platform.lock.json", PLATFORM_FIXTURE, ("--version", "2022.01.0")),
            ("cli-release-smoke.lock.json", SMOKE_FIXTURE, ("--version", "2022.01.0")),
            ("cli-release-carry.lock.json", PLATFORM_FIXTURE,
             ("--version", "2022.06.0", "--toolchain", "8.15", "--carry-previous",
              "--previous", str(GOLDEN_DIR / "cli-release-platform.lock.json"))),
        ],
        ids=["platform", "smoke", "carry-previous"],
    )
    def test_release_lockfile(self, capsys, tmp_path, golden, index, argv):
        lockfile = tmp_path / golden
        assert run_cli(
            capsys, "release", "--index", str(index), *argv, "--output", str(lockfile)
        ) == (EXIT_OK, "", "")
        assert lockfile.read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    def test_script(self, capsys):
        self.check(
            capsys, "cli-script-smoke.sh", EXIT_OK, "script", "--index", str(SMOKE_FIXTURE),
            "--lockfile", str(GOLDEN_DIR / "cli-release-smoke.lock.json"),
        )


class TestHttpIndexFlow:
    def test_resolve_over_http_twice_writes_nothing(self, capsys, serve_index, empty_home):
        start, requests = serve_index
        argv = ("resolve", "--index", start(PLATFORM_FIXTURE), "--toolchain", "8.15",
                "--format", "json")
        first = run_cli(capsys, *argv)
        assert first[0] == EXIT_OK
        fetched_once = len(requests)
        assert run_cli(capsys, *argv) == first
        # the second run fetches every file again, and neither keeps a copy
        assert requests[fetched_once:] == requests[:fetched_once]
        assert run_cli(capsys, *argv[:2], str(PLATFORM_FIXTURE), *argv[3:]) == first
        assert list(empty_home.iterdir()) == []


class TestReleaseStdout:
    def test_output_dash_writes_lockfile_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, *release_args("--output", "-"))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["version"] == "2022.01.0"
        assert len(payload["picks"]) == 4


class TestSearchScale:
    def test_deep_dependency_chain(self, capsys, tmp_path):
        # every package depends on the one before it; a recursive search
        # exhausted the interpreter's stack on chains of about 500
        names = [f"c{i:04d}" for i in range(1200)]
        write_fixture(
            tmp_path,
            ["8.15"],
            [raw_manifest(names[0], "1.0")]
            + [raw_manifest(name, "1.0", depends=[[prev, "*"]])
               for prev, name in zip(names, names[1:])],
        )
        code, out, _ = run_cli(
            capsys,
            "resolve", "--index", str(tmp_path), "--toolchain", "8.15",
            "--mandatory", names[-1], "--format", "json",
        )
        assert code == EXIT_OK
        assert sorted(json.loads(out)["selected"]) == names
        code, out, _ = run_cli(
            capsys, "release", "--index", str(tmp_path), "--version", "2022.01.0",
            "--output", "-",
        )
        assert code == EXIT_OK
        [pick] = json.loads(out)["picks"]
        assert sorted(pick["selected"]) == names
        assert pick["excluded"] == {}

    @pytest.mark.parametrize("kind", ["conflict", "hub"])
    def test_planted_clash_behind_many_fillers(self, tmp_path, kind):
        # 2**30 filler version combinations sort before the clash; without
        # backjumping, each failing search walks all of them
        fillers = [f"f{i:02d}" for i in range(30)]
        manifests = [
            raw_manifest(name, version, depends=[[prev, "*"]] if prev else [])
            for prev, name in zip([None] + fillers, fillers)
            for version in ("1.0", "2.0")
        ]
        expected = {name: "2.0" for name in fillers}
        if kind == "conflict":
            manifests += [raw_manifest("p-a", "1.0", conflicts=[["p-b", "*"]]),
                          raw_manifest("p-b", "1.0")]
        else:
            manifests += [raw_manifest("hub", "1.0"), raw_manifest("hub", "2.0"),
                          raw_manifest("p-a", "1.0", depends=[["hub", "<2.0"]]),
                          raw_manifest("p-b", "1.0", depends=[["hub", ">=2.0"]])]
            expected["hub"] = "1.0"
        expected["p-a"] = "1.0"
        write_fixture(tmp_path, ["8.15"], manifests)
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli", "resolve", "--index", str(tmp_path),
             "--toolchain", "8.15", "--format", "json"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["selected"] == expected
        assert list(payload["excluded"]) == ["p-b"]

    def test_unreachable_fillers_fail_one_at_a_time(self, tmp_path):
        # p-a 1.0 depends on 30 two-version fillers that sort before it, and
        # p-b conflicts with p-a 1.0.  Every complete selection that keeps a
        # filler has it unreached; failing with the union of all their
        # conflict sets, not one of them, walks about 3**30 selections
        fillers = [f"f{i:02d}" for i in range(30)]
        manifests = [raw_manifest(name, version) for name in fillers for version in ("1.0", "2.0")]
        manifests += [
            raw_manifest("p-a", "1.0", depends=[[name, "*"] for name in fillers]),
            raw_manifest("p-a", "2.0"),
            raw_manifest("p-b", "1.0", conflicts=[["p-a", "<2.0"]]),
        ]
        write_fixture(tmp_path, ["8.15"], manifests)
        proc = subprocess.run(
            [sys.executable, "-m", "pickforge.cli", "resolve", "--index", str(tmp_path),
             "--toolchain", "8.15", "--mandatory", "p-a", "--mandatory", "p-b",
             "--format", "json"],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["selected"] == {"p-a": "2.0", "p-b": "1.0"}
        assert payload["excluded"] == {}
