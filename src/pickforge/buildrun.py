"""Install plans, the smoke-test runner, and standalone install scripts.

A plan orders a pick's packages in waves: each wave holds every package
whose dependencies are all in earlier waves, by name.  A dependency cycle
raises CycleError naming one cycle, in "depends on" order from its
smallest name; with several cycles, which one is named depends only on the
package names.  Running a plan executes each step's build command and then
its smoke command inside a sandbox directory with PKG_NAME, PKG_VERSION,
and TOOLCHAIN set.  A step starts once each of its dependencies has
finished.  A build failure skips every transitive dependent; a smoke
failure does not, since the package itself installed and dependents can
still build against it.  Report contents are independent of the
parallelism level for deterministic commands.  A malformed plan, cyclic or
depending on a step it lacks, fails before any command runs.
"""

from __future__ import annotations

import graphlib
import hashlib
import json
import os
import shlex
from collections import namedtuple
from pathlib import Path

from .errors import PickforgeError
from .index import Pick, Repository
from .reference import verify_pick

BUILD_FAILED = "BuildFailed"
SMOKE_FAILED = "SmokeFailed"
PASSED = "Passed"
SKIPPED = "Skipped"

SPAWN_FAILURE_EXIT = -1


class CycleError(PickforgeError):
    """The selected packages depend on each other in a cycle."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__(f"dependency cycle: {' -> '.join(cycle + cycle[:1])}")


class SandboxError(PickforgeError):
    """The sandbox directory is unusable."""


class InstallStep(namedtuple("InstallStep", "name version build_cmd smoke_cmd")):
    __slots__ = ()


class InstallPlan(namedtuple("InstallPlan", "toolchain steps dependencies")):
    """Topologically ordered build steps plus the dependency edges among them.

    ``plan_digest`` is computed from these three fields, so equal plans have
    equal digests and no caller supplies one.
    """

    __slots__ = ()

    @property
    def plan_digest(self) -> str:
        """The SHA-256 of the plan's canonical JSON."""
        canonical = json.dumps(
            {
                "toolchain": str(self.toolchain),
                "steps": [
                    [step.name, str(step.version), step.build_cmd, step.smoke_cmd]
                    for step in self.steps
                ],
                "dependencies": {
                    name: list(deps) for name, deps in sorted(self.dependencies.items())
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def install_plan(repo: Repository, pick: Pick) -> InstallPlan:
    """Order the pick's packages dependencies-first.

    Precondition: verify_pick(repo, pick) is empty.
    """
    violations = verify_pick(repo, pick)
    if violations:
        raise PickforgeError(f"pick is not valid against the repository: {violations[0]}")
    selected = dict(pick.selected)
    edges = {
        name: tuple(
            sorted(
                dep
                for dep, _ in repo.packages[name][selected[name]].depends
                if dep in selected
            )
        )
        for name in sorted(selected)
    }
    sorter = _sorter(edges)
    order = []
    while sorter.is_active():
        wave = sorted(sorter.get_ready())
        order += wave
        sorter.done(*wave)
    steps = []
    for name in order:
        manifest = repo.packages[name][selected[name]]
        steps.append(InstallStep(name, selected[name], manifest.build_cmd, manifest.smoke_cmd))
    return InstallPlan(toolchain=pick.toolchain, steps=steps, dependencies=edges)


def _sorter(edges: dict[str, tuple[str, ...]]) -> graphlib.TopologicalSorter:
    """A prepared sorter over ``edges`` (name -> its dependencies), fed in name
    order, so that a graph with several cycles always names the same one."""
    sorter = graphlib.TopologicalSorter()
    for name in sorted(edges):
        sorter.add(name, *edges[name])
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        # graphlib walks from a dependency to its dependents and repeats the
        # first node last: reverse it to "depends on" and drop the repeat
        cycle = exc.args[1][:0:-1]
        pivot = cycle.index(min(cycle))
        raise CycleError(cycle[pivot:] + cycle[:pivot]) from None
    return sorter


class StepResult(
    namedtuple("StepResult", "name version status build_exit smoke_exit log_path")
):
    """``build_exit`` and ``smoke_exit`` are None for a phase that did not run."""

    __slots__ = ()


class SmokeReport(namedtuple("SmokeReport", "toolchain results")):
    """Per-step outcomes of one plan run; passes only when every step passed."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(result.status == PASSED for result in self.results)

    def to_json_dict(self) -> dict:
        return {
            "toolchain": str(self.toolchain),
            "passed": self.passed,
            "steps": [
                {
                    "name": result.name,
                    "version": str(result.version),
                    "status": result.status,
                    "build_exit": result.build_exit,
                    "smoke_exit": result.smoke_exit,
                    "log": result.log_path,
                }
                for result in self.results
            ],
        }

    def to_text(self) -> str:
        lines = [f"smoke run for toolchain {self.toolchain}"]
        for result in self.results:
            lines.append(f"  [{result.status:>11}] {result.name} {result.version}")
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines)


def run_plan(plan: InstallPlan, sandbox: str | Path, max_parallel: int = 1) -> SmokeReport:
    """Execute the plan's commands in the sandbox, up to max_parallel at once.

    A step starts once every dependency has finished; it is skipped if one
    failed to build or was skipped itself.  Command output is captured under
    ``<sandbox>/logs`` (log contents are not part of the determinism
    contract, report statuses and exit codes are).
    """
    # imported here: only smoke runs need it, and it is slow to import
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    if max_parallel < 1:
        raise SandboxError("max_parallel must be at least 1")
    steps = {step.name: step for step in plan.steps}
    strays = set(plan.dependencies).union(*plan.dependencies.values()) ^ set(steps)
    if strays:
        raise PickforgeError(
            f"plan steps and dependencies disagree: {', '.join(sorted(strays))}"
        )
    sorter = _sorter(plan.dependencies)
    sandbox = Path(sandbox)
    try:
        sandbox.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SandboxError(f"cannot create sandbox {sandbox}: {exc}") from exc
    if any(sandbox.iterdir()):
        raise SandboxError(f"sandbox {sandbox} is not empty")
    if not os.access(sandbox, os.W_OK):
        raise SandboxError(f"sandbox {sandbox} is not writable")
    (sandbox / "logs").mkdir()

    def execute(step: InstallStep, log: str) -> StepResult:
        env = dict(
            os.environ, PKG_NAME=step.name, PKG_VERSION=str(step.version),
            TOOLCHAIN=str(plan.toolchain),
        )
        build_exit = _run_command(step.build_cmd, sandbox, env, sandbox / log, "build")
        if build_exit != 0:
            return StepResult(step.name, step.version, BUILD_FAILED, build_exit, None, log)
        smoke_exit = _run_command(step.smoke_cmd, sandbox, env, sandbox / log, "smoke")
        status = PASSED if smoke_exit == 0 else SMOKE_FAILED
        return StepResult(step.name, step.version, status, build_exit, smoke_exit, log)

    # only this thread touches the sorter, outcomes and futures; a worker
    # reads nothing but its step, the plan and the sandbox paths
    outcomes: dict[str, StepResult] = {}
    futures = {}
    with ThreadPoolExecutor(max_workers=max_parallel) as pool:
        while sorter.is_active():
            for name in sorted(sorter.get_ready()):
                step = steps[name]
                log = f"logs/{name}-{step.version}.log"
                if any(
                    outcomes[dep].status in (BUILD_FAILED, SKIPPED)
                    for dep in plan.dependencies[name]
                ):
                    outcomes[name] = StepResult(name, step.version, SKIPPED, None, None, log)
                    sorter.done(name)
                else:
                    futures[pool.submit(execute, step, log)] = name
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                name = futures.pop(future)
                outcomes[name] = future.result()
                sorter.done(name)

    results = [outcomes[step.name] for step in plan.steps]
    return SmokeReport(toolchain=plan.toolchain, results=results)


def _run_command(command: str, cwd: Path, env: dict, log_path: Path, phase: str) -> int:
    import subprocess

    with open(log_path, "a", encoding="utf-8") as log:
        log.write(f"$ [{phase}] {command}\n")
        log.flush()
        try:
            proc = subprocess.run(
                command, shell=True, cwd=cwd, env=env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        except OSError as exc:
            log.write(f"[{phase}] spawn failure: {exc}\n")
            return SPAWN_FAILURE_EXIT
        return proc.returncode


def emit_install_script(plan: InstallPlan) -> str:
    """A POSIX shell script running the plan's steps in order, stopping on failure."""
    total = len(plan.steps)
    lines = [
        "#!/bin/sh",
        f"# install script for toolchain {plan.toolchain} ({total} steps)",
        f"# plan digest: {plan.plan_digest}",
        "set -eu",
        "",
    ]
    toolchain_q = shlex.quote(str(plan.toolchain))
    for i, step in enumerate(plan.steps, start=1):
        banner = shlex.quote(f"=== [{i}/{total}] {step.name} {step.version} ===")
        prefix = (
            f"PKG_NAME={shlex.quote(step.name)} "
            f"PKG_VERSION={shlex.quote(str(step.version))} "
            f"TOOLCHAIN={toolchain_q}"
        )
        lines.append(f"printf '%s\\n' {banner}")
        lines.append(f"{prefix} sh -c {shlex.quote(step.build_cmd)}")
        lines.append(f"{prefix} sh -c {shlex.quote(step.smoke_cmd)}")
        lines.append("")
    return "\n".join(lines)
