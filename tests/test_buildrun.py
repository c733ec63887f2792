from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import REPO_ROOT, SMOKE_PLAN_DIGEST, make_repo, mf
from pickforge.buildrun import (
    BUILD_FAILED,
    PASSED,
    SKIPPED,
    SMOKE_FAILED,
    CycleError,
    InstallPlan,
    InstallStep,
    SandboxError,
    emit_install_script,
    install_plan,
    run_plan,
)
from pickforge.errors import PickforgeError
from pickforge.solver import Pick
from pickforge.versioning import parse_version

V = parse_version


def chain_repo():
    return make_repo(
        ["1.0"],
        [
            mf("a", "1.0", depends=[("b", "*")]),
            mf("b", "1.0"),
            mf("c", "1.0"),
        ],
    )


def full_pick(repo) -> Pick:
    return Pick(
        toolchain=repo.toolchains[0],
        selected={name: max(versions) for name, versions in repo.packages.items()},
    )


def random_dag(rng: random.Random, build_exits=(0,), smoke_exits=(0,)):
    """Up to 12 packages, each depending on up to 3 packages placed before it
    in a random order, with ``exit N`` build and smoke commands drawn from
    the given codes; returns the repository and a pick of every package,
    its ``selected`` in a random order."""
    names = rng.sample([f"p{i:02d}" for i in range(30)], rng.randint(1, 12))
    manifests = []
    for i, name in enumerate(names):
        depends = rng.sample(names[:i], rng.randint(0, min(3, i)))
        manifests.append(
            mf(
                name, "1.0", depends=[(dep, "*") for dep in depends],
                build_cmd=f"exit {rng.choice(build_exits)}",
                smoke_cmd=f"exit {rng.choice(smoke_exits)}",
            )
        )
    repo = make_repo(["1.0"], manifests)
    rng.shuffle(names)
    return repo, Pick(toolchain=V("1.0"), selected={name: V("1.0") for name in names})


class TestInstallPlan:
    def test_dependency_before_dependent(self):
        plan = install_plan(chain_repo(), Pick(toolchain=V("1.0"), selected={"a": V("1.0"), "b": V("1.0")}))
        assert [s.name for s in plan.steps] == ["b", "a"]

    def test_independent_steps_in_name_order(self):
        plan = install_plan(chain_repo(), Pick(toolchain=V("1.0"), selected={"b": V("1.0"), "c": V("1.0")}))
        assert [s.name for s in plan.steps] == ["b", "c"]

    def test_cycle_reported(self):
        repo = make_repo(
            ["1.0"],
            [mf("a", "1.0", depends=[("b", "*")]), mf("b", "1.0", depends=[("a", "*")])],
        )
        with pytest.raises(CycleError) as exc:
            install_plan(repo, full_pick(repo))
        assert exc.value.cycle == ["a", "b"]

    def test_cycle_does_not_depend_on_selection_order(self):
        repo = make_repo(
            ["1.0"],
            [
                mf("a", "1.0", depends=[("b", "*"), ("c", "*")]),
                mf("b", "1.0", depends=[("c", "*")]),
                mf("c", "1.0", depends=[("a", "*")]),
            ],
        )
        messages = set()
        for names in (["a", "b", "c"], ["c", "b", "a"], ["b", "c", "a"]):
            pick = Pick(toolchain=V("1.0"), selected={name: V("1.0") for name in names})
            with pytest.raises(CycleError) as exc:
                install_plan(repo, pick)
            messages.add(str(exc.value))
        # two cycles, a -> b -> c -> a and a -> c -> a; graphlib's walk names
        # the second one
        assert messages == {"dependency cycle: a -> c -> a"}

    def test_cycle_named_from_its_smallest_name(self):
        # the walk from the leaf "a" enters the cycle at "c"
        repo = make_repo(
            ["1.0"],
            [
                mf("a", "1.0"),
                mf("b", "1.0", depends=[("d", "*")]),
                mf("c", "1.0", depends=[("a", "*"), ("b", "*")]),
                mf("d", "1.0", depends=[("c", "*")]),
            ],
        )
        with pytest.raises(CycleError) as exc:
            install_plan(repo, full_pick(repo))
        assert exc.value.cycle == ["b", "d", "c"]

    def test_invalid_pick_rejected(self):
        with pytest.raises(PickforgeError, match="not valid"):
            install_plan(chain_repo(), Pick(toolchain=V("1.0"), selected={"a": V("1.0")}))

    def test_digest_stable(self):
        pick = Pick(toolchain=V("1.0"), selected={"a": V("1.0"), "b": V("1.0")})
        a = install_plan(chain_repo(), pick)
        b = install_plan(chain_repo(), pick)
        assert a.plan_digest == b.plan_digest
        assert len(a.plan_digest) == 64

    def test_digest_tracks_content(self):
        repo = chain_repo()
        one = install_plan(repo, Pick(toolchain=V("1.0"), selected={"b": V("1.0")}))
        two = install_plan(repo, Pick(toolchain=V("1.0"), selected={"c": V("1.0")}))
        assert one.plan_digest != two.plan_digest

    def test_smoke_fixture_digest_is_pinned(self, smoke_repo):
        plan = install_plan(smoke_repo, full_pick(smoke_repo))
        assert plan.plan_digest == SMOKE_PLAN_DIGEST
        # the digest is the plan's own: a plan rebuilt from its fields has it too
        rebuilt = InstallPlan(plan.toolchain, list(plan.steps), dict(plan.dependencies))
        assert rebuilt.plan_digest == SMOKE_PLAN_DIGEST

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_order_respects_random_dags(self, data):
        count = data.draw(st.integers(min_value=1, max_value=7))
        names = [chr(ord("a") + i) for i in range(count)]
        manifests = []
        for i, name in enumerate(names):
            targets = data.draw(
                st.sets(st.sampled_from(names[:i]), max_size=i) if i else st.just(set())
            )
            manifests.append(mf(name, "1.0", depends=[(t, "*") for t in sorted(targets)]))
        repo = make_repo(["1.0"], manifests)
        plan = install_plan(repo, full_pick(repo))
        position = {step.name: i for i, step in enumerate(plan.steps)}
        assert len(position) == count
        for name in names:
            for dep in plan.dependencies[name]:
                assert position[dep] < position[name]


def wave_order(edges: dict[str, list[str]]) -> list[str]:
    """Reference plan order: each wave is every unplaced package whose
    dependencies are all placed, by name."""
    order: list[str] = []
    while len(order) < len(edges):
        wave = sorted(
            name for name in edges if name not in order and set(edges[name]) <= set(order)
        )
        order += wave
    return order


def test_plans_match_the_wave_reference():
    rng = random.Random(23)
    for _ in range(600):
        repo, pick = random_dag(rng)
        plan = install_plan(repo, pick)
        edges = {
            name: sorted(dep for dep, _ in repo.packages[name][V("1.0")].depends)
            for name in pick.selected
        }
        assert [step.name for step in plan.steps] == wave_order(edges)
        assert plan.dependencies == {name: tuple(deps) for name, deps in edges.items()}


def test_deep_chain_plans_in_linear_time():
    # a plan that rescans every unplaced package once per wave grows with the
    # square of the chain: tens of seconds at 10,000 packages
    child = """
from conftest import make_repo, mf
from pickforge.buildrun import install_plan
from pickforge.index import Pick
from pickforge.versioning import parse_version
names = [f"p{i:05d}" for i in range(10_000)]
repo = make_repo(["1.0"], [
    mf(name, "1.0", depends=[(dep, "*") for dep in names[i - 1:i]])
    for i, name in enumerate(names)
])
pick = Pick(toolchain=parse_version("1.0"), selected={n: parse_version("1.0") for n in names})
assert [step.name for step in install_plan(repo, pick).steps] == names
"""
    path = f"{REPO_ROOT / 'src'}:{REPO_ROOT / 'tests'}"
    proc = subprocess.run(
        [sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr


class TestRunPlan:
    def run(self, repo, tmp_path, jobs=1, subdir="box"):
        plan = install_plan(repo, full_pick(repo))
        return plan, run_plan(plan, tmp_path / subdir, max_parallel=jobs)

    def test_all_green(self, tmp_path):
        repo = make_repo(["1.0"], [mf("a", "1.0"), mf("b", "1.0")])
        _, report = self.run(repo, tmp_path)
        assert report.passed
        assert [r.status for r in report.results] == [PASSED, PASSED]

    def test_build_failure_skips_dependents(self, tmp_path):
        repo = make_repo(
            ["1.0"],
            [
                mf("base", "1.0", build_cmd="exit 7"),
                mf("mid", "1.0", depends=[("base", "*")]),
                mf("top", "1.0", depends=[("mid", "*")]),
                mf("side", "1.0"),
            ],
        )
        _, report = self.run(repo, tmp_path)
        status = {r.name: r.status for r in report.results}
        assert status == {
            "base": BUILD_FAILED,
            "mid": SKIPPED,
            "top": SKIPPED,
            "side": PASSED,
        }
        by_name = {r.name: r for r in report.results}
        assert by_name["base"].build_exit == 7
        assert by_name["base"].smoke_exit is None
        assert by_name["mid"].build_exit is None
        assert not report.passed

    def test_smoke_failure_does_not_skip_dependents(self, tmp_path):
        repo = make_repo(
            ["1.0"],
            [
                mf("base", "1.0", smoke_cmd="exit 3"),
                mf("top", "1.0", depends=[("base", "*")]),
            ],
        )
        _, report = self.run(repo, tmp_path)
        status = {r.name: r.status for r in report.results}
        assert status == {"base": SMOKE_FAILED, "top": PASSED}
        assert not report.passed

    def test_env_vars_reach_commands(self, tmp_path):
        repo = make_repo(
            ["2.1"],
            [mf("probe", "1.5", build_cmd='echo "$PKG_NAME/$PKG_VERSION/$TOOLCHAIN" > seen.txt')],
        )
        self.run(repo, tmp_path)
        assert (tmp_path / "box" / "seen.txt").read_text().strip() == "probe/1.5/2.1"

    def test_parallel_statuses_match_serial(self, tmp_path, smoke_repo):
        pick = full_pick(smoke_repo)
        plan = install_plan(smoke_repo, pick)
        serial = run_plan(plan, tmp_path / "serial", max_parallel=1)
        parallel = run_plan(plan, tmp_path / "parallel", max_parallel=4)
        assert [(r.name, r.status, r.build_exit, r.smoke_exit) for r in serial.results] == [
            (r.name, r.status, r.build_exit, r.smoke_exit) for r in parallel.results
        ]

    def test_logs_capture_output(self, tmp_path):
        repo = make_repo(["1.0"], [mf("talky", "1.0", build_cmd="echo hello-from-build")])
        _, report = self.run(repo, tmp_path)
        log = (tmp_path / "box" / report.results[0].log_path).read_text()
        assert "hello-from-build" in log

    def test_nonempty_sandbox_rejected(self, tmp_path):
        box = tmp_path / "box"
        box.mkdir()
        (box / "leftover").write_text("x")
        repo = make_repo(["1.0"], [mf("a", "1.0")])
        plan = install_plan(repo, full_pick(repo))
        with pytest.raises(SandboxError, match="not empty"):
            run_plan(plan, box)

    def test_bad_parallelism_rejected(self, tmp_path):
        repo = make_repo(["1.0"], [mf("a", "1.0")])
        plan = install_plan(repo, full_pick(repo))
        with pytest.raises(SandboxError):
            run_plan(plan, tmp_path / "box", max_parallel=0)

    def test_empty_plan_passes(self, tmp_path):
        repo = make_repo(["1.0"], [mf("a", "1.0")])
        plan = install_plan(repo, Pick(toolchain=V("1.0"), selected={}))
        report = run_plan(plan, tmp_path / "box")
        assert report.passed
        assert report.results == []

    def test_json_report_is_sorted_and_relative(self, tmp_path):
        repo = make_repo(["1.0"], [mf("a", "1.0")])
        _, report = self.run(repo, tmp_path)
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert payload["steps"][0]["log"] == "logs/a-1.0.log"


    def test_malformed_plans_fail_before_any_command(self, tmp_path):
        def plan(dependencies):
            steps = [
                InstallStep(name, V("1.0"), f"touch {name}-built", "true")
                for name in ("a", "b", "c")
            ]
            return InstallPlan(V("1.0"), steps, dependencies)

        cyclic = {"a": ("b", "c"), "b": ("c",), "c": ("a",)}
        cases = [
            (cyclic, r"^dependency cycle: a -> c -> a$"),
            (dict(reversed(cyclic.items())), r"^dependency cycle: a -> c -> a$"),
            ({"a": (), "b": ("a", "z"), "c": ()}, r"^plan steps and dependencies disagree: z$"),
        ]
        for number, (dependencies, message) in enumerate(cases):
            box = tmp_path / f"box{number}"
            with pytest.raises(PickforgeError, match=message):
                run_plan(plan(dependencies), box)
            # no command runs, not even those of "a" and "c", which no fault touches
            assert list(box.glob("logs/*")) == list(box.glob("*-built")) == []

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_reports_match_a_sequential_reference(self, tmp_path, jobs):
        rng = random.Random(jobs)
        for run in range(40):
            repo, pick = random_dag(rng, build_exits=(0, 0, 0, 1, 6), smoke_exits=(0, 0, 3))
            plan = install_plan(repo, pick)
            # walk the steps in plan order: a step whose dependency failed to
            # build or was skipped is skipped, otherwise its commands decide
            expected, status = [], {}
            for step in plan.steps:
                build = int(step.build_cmd.split()[1])
                smoke = int(step.smoke_cmd.split()[1])
                if any(status[dep] in (BUILD_FAILED, SKIPPED) for dep in plan.dependencies[step.name]):
                    status[step.name], build, smoke = SKIPPED, None, None
                elif build:
                    status[step.name], smoke = BUILD_FAILED, None
                else:
                    status[step.name] = SMOKE_FAILED if smoke else PASSED
                log = f"logs/{step.name}-{step.version}.log"
                expected.append((step.name, status[step.name], build, smoke, log))
            report = run_plan(plan, tmp_path / str(run), max_parallel=jobs)
            assert [
                (r.name, r.status, r.build_exit, r.smoke_exit, r.log_path)
                for r in report.results
            ] == expected


class TestEmitInstallScript:
    def test_empty_plan_header_only(self):
        repo = make_repo(["1.0"], [mf("a", "1.0")])
        plan = install_plan(repo, Pick(toolchain=V("1.0"), selected={}))
        script = emit_install_script(plan)
        assert script.startswith("#!/bin/sh")
        assert "printf" not in script
        proc = subprocess.run(["sh", "-c", script])
        assert proc.returncode == 0

    def test_banners_in_plan_order(self):
        plan = install_plan(
            chain_repo(), Pick(toolchain=V("1.0"), selected={"a": V("1.0"), "b": V("1.0")})
        )
        script = emit_install_script(plan)
        assert script.index("[1/2] b 1.0") < script.index("[2/2] a 1.0")

    def test_byte_deterministic(self):
        plan = install_plan(
            chain_repo(), Pick(toolchain=V("1.0"), selected={"a": V("1.0"), "b": V("1.0")})
        )
        assert emit_install_script(plan) == emit_install_script(plan)

    def test_script_runs_and_reports_steps(self, tmp_path):
        repo = make_repo(
            ["1.0"],
            [mf("w", "1.0", build_cmd="echo built-w", smoke_cmd='echo "smoke $PKG_NAME"')],
        )
        script = emit_install_script(install_plan(repo, full_pick(repo)))
        proc = subprocess.run(
            ["sh"], input=script, capture_output=True, text=True, cwd=tmp_path
        )
        assert proc.returncode == 0
        assert "built-w" in proc.stdout
        assert "smoke w" in proc.stdout

    def test_script_stops_on_first_failure(self, tmp_path):
        repo = make_repo(
            ["1.0"],
            [
                mf("early", "1.0", build_cmd="exit 9"),
                mf("late", "1.0", build_cmd="echo should-not-run", depends=[("early", "*")]),
            ],
        )
        script = emit_install_script(install_plan(repo, full_pick(repo)))
        proc = subprocess.run(
            ["sh"], input=script, capture_output=True, text=True, cwd=tmp_path
        )
        assert proc.returncode != 0
        assert "should-not-run" not in proc.stdout

    def test_commands_are_quoted(self, tmp_path):
        repo = make_repo(
            ["1.0"],
            [mf("q", "1.0", build_cmd="echo \"it's quoted\"")],
        )
        script = emit_install_script(install_plan(repo, full_pick(repo)))
        proc = subprocess.run(
            ["sh"], input=script, capture_output=True, text=True, cwd=tmp_path
        )
        assert proc.returncode == 0
        assert "it's quoted" in proc.stdout


class TestSmokeFixture:
    def test_planted_failure_shape(self, smoke_repo, tmp_path):
        pick = full_pick(smoke_repo)
        plan = install_plan(smoke_repo, pick)
        report = run_plan(plan, tmp_path / "box", max_parallel=2)
        status = {r.name: r.status for r in report.results}
        assert status == {
            "anchor": PASSED,
            "brokenbuild": BUILD_FAILED,
            "cargohold": SKIPPED,
            "derrick": SKIPPED,
            "earthworks": PASSED,
            "gantry": PASSED,
        }
        assert not report.passed
        failed = next(r for r in report.results if r.name == "brokenbuild")
        assert failed.build_exit == 7


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_skipped_iff_reachable_from_failed_build(data, tmp_path_factory):
    count = data.draw(st.integers(min_value=1, max_value=6))
    names = [chr(ord("a") + i) for i in range(count)]
    failing = data.draw(st.sets(st.sampled_from(names), max_size=count))
    manifests = []
    edges = {}
    for i, name in enumerate(names):
        targets = sorted(
            data.draw(st.sets(st.sampled_from(names[:i]), max_size=i) if i else st.just(set()))
        )
        edges[name] = targets
        manifests.append(
            mf(
                name,
                "1.0",
                depends=[(t, "*") for t in targets],
                build_cmd="exit 1" if name in failing else "true",
            )
        )
    repo = make_repo(["1.0"], manifests)
    plan = install_plan(repo, full_pick(repo))
    sandbox = tmp_path_factory.mktemp("dagbox")
    report = run_plan(plan, sandbox / "run")
    status = {r.name: r.status for r in report.results}

    # a step is skipped exactly when some dependency failed to build or was
    # itself skipped; compute that closure independently, in plan order
    expected_skipped = set()
    for step in plan.steps:
        if any(dep in failing or dep in expected_skipped for dep in edges[step.name]):
            expected_skipped.add(step.name)
    for name in names:
        if name in expected_skipped:
            assert status[name] == SKIPPED
        elif name in failing:
            assert status[name] == BUILD_FAILED
        else:
            assert status[name] == PASSED
