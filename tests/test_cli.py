from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import (
    PLATFORM_FIXTURE,
    RELEASE_UNIVERSE_EXCLUDES,
    SMOKE_FIXTURE,
    raw_manifest,
    write_fixture,
)
from pickforge.cli import EXIT_FAILURE, EXIT_IO, EXIT_OK, EXIT_UNSAT, EXIT_USAGE, main


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
        assert "MonotonicityWarning" in err

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


class TestEntrypoint:
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

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["pickforge", "resolve", "--index", str(PLATFORM_FIXTURE),
             "--toolchain", "8.15", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["selected"]


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


class TestHttpIndexFlow:
    def test_resolve_over_http_with_cache_dir(self, capsys, serve_index, tmp_path):
        start, requests = serve_index
        url = start(PLATFORM_FIXTURE)
        cache = tmp_path / "mirror"
        argv = (
            "resolve", "--index", url, "--cache-dir", str(cache),
            "--toolchain", "8.15", "--format", "json",
        )
        code, out_first, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        fetched_once = len(requests)
        code, out_second, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out_second == out_first
        # the second invocation only re-checks the index digest
        assert requests[fetched_once:] == ["/index.json"]
        assert any(cache.iterdir())


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
