#!/usr/bin/env python3
"""Alternate two pickforge source trees op by op over one benchmark workload.

Run from the repository root, with the tree to compare against checked out
elsewhere (``git archive`` or ``git clone`` of the parent commit):

    python3 scripts/op_ab.py --a ../parent/src --b src --workload unsat --seed 1 --rounds 40

The inputs, the ops and their checks come from ``perfbench/workloads.py``,
loaded by path and only read.  Every op runs as ``python -m pickforge.cli``
with ``PYTHONPATH`` set to one tree, as the benchmark runs it.  Each round
runs every op once under each tree, back to back, and which tree goes
first alternates from op to op and round to round, so both trees meet the
same host load.  One benchmark run per side cannot promise that, and on a
shared host a start-up change is smaller than the swing between two runs.

Both trees are timed from copies made without their ``__pycache__``
directories, so each compiles pickforge from source as the benchmark's
fresh checkout does: a working tree's stale bytecode is read even under
``PYTHONDONTWRITEBYTECODE=1``, and it would spare one side the compile.

Wall time is taken around the spawn and ``os.wait4``; CPU time is the
child's user plus system time as ``wait4`` reports it.  The script prints
each op's median per tree and how many rounds each tree won on that op,
the sum of those medians, each tree's count of non-blank lines under
``pickforge/``, and how many rounds each tree won over all ops, where a
round's time is the sum over its ops.  A tie counts for neither tree.
It exits 1 if an op failed its check under either tree, or if the trees'
outputs for one op and round differ in any byte: exit code, stdout,
stderr or the file the op writes.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    """``perfbench/workloads.py`` as a module, without writing its bytecode."""
    sys.dont_write_bytecode = True
    # the checks of the platform workload import pickforge
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up there
    spec.loader.exec_module(module)
    return module


def remove(path: Path | None) -> None:
    if path is None or not path.exists():
        return
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def run_op(op, src: str, scratch: Path) -> tuple[float, float, tuple]:
    """Run ``op`` under the tree ``src``: wall seconds, child CPU seconds, and
    its outputs (exit code, stdout, stderr, bytes of the file it wrote)."""
    remove(op.fresh)
    out, err = scratch / "stdout", scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    argv = [sys.executable, "-m", "pickforge.cli", *op.argv]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    written = op.fresh.read_bytes() if op.fresh is not None and op.fresh.is_file() else None
    outputs = (os.waitstatus_to_exitcode(status), out.read_text(), err.read_text(), written)
    return wall, usage.ru_utime + usage.ru_stime, outputs


def problem(op, outputs: tuple) -> str | None:
    """Why the op's outputs are wrong, as the benchmark judges them, or None."""
    code, stdout, stderr, _ = outputs
    if "Traceback (most recent call last)" in stderr:
        return stderr.strip().splitlines()[-1]
    if code != op.exit_code:
        return f"exit {code}, expected {op.exit_code}: {stderr.strip()[-200:]}"
    return op.check(stdout)


def nonblank_lines(tree: str) -> int:
    """Non-blank lines of the tree's ``pickforge/*.py``, the size ROADMAP tracks."""
    return sum(
        1
        for path in (Path(tree) / "pickforge").glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def change(a: float, b: float) -> str:
    return f"{(b / a - 1) * 100:+6.1f} %" if a else "   n/a"


def wins(a: list[float], b: list[float]) -> str:
    """Rounds won by each tree, as "A:B", over paired times; ties count for neither."""
    return f"{sum(x < y for x, y in zip(a, b))}:{sum(y < x for x, y in zip(a, b))}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", required=True, help="first src tree (holds pickforge/)")
    parser.add_argument("--b", default=str(ROOT / "src"), help="second src tree (default: ./src)")
    parser.add_argument("--workload", required=True, help="a workload of perfbench/workloads.py")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    trees = [str(Path(tree).resolve()) for tree in (args.a, args.b)]
    for tree in trees:
        if not (Path(tree) / "pickforge" / "cli.py").is_file():
            parser.error(f"{tree} holds no pickforge/cli.py")
    workloads = load_workloads()

    failures = [0, 0]
    mismatches = 0
    with tempfile.TemporaryDirectory(prefix="op_ab-") as tmp:
        work, scratch = Path(tmp) / "inputs", Path(tmp)
        copies = [str(scratch / f"src-{side}") for side in "ab"]
        for tree, copy in zip(trees, copies):
            shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__"))
        workload = workloads.WORKLOADS[args.workload](random.Random(args.seed), work)
        work.mkdir()
        workload.inputs.write()
        ops = workload.ops
        # the warm-up writes what later ops read, such as a previous lockfile
        warm = [run_op(workload.warmup, copy, scratch)[2] for copy in copies]
        wrong = [problem(workload.warmup, outputs) for outputs in warm]
        if any(wrong) or warm[0] != warm[1]:
            print(f"warm-up failed or differs between the trees: {wrong}")
            return 1
        wall = [[[] for _ in ops] for _ in trees]
        cpu = [[[] for _ in ops] for _ in trees]
        won = {"wall": [0, 0], "cpu": [0, 0]}
        for round_no in range(args.rounds):
            totals = {"wall": [0.0, 0.0], "cpu": [0.0, 0.0]}
            for i, op in enumerate(ops):
                seen = [None, None]
                first = (round_no + i) % 2
                for side in (first, 1 - first):
                    seconds, cpu_seconds, seen[side] = run_op(op, copies[side], scratch)
                    wall[side][i].append(seconds)
                    cpu[side][i].append(cpu_seconds)
                    totals["wall"][side] += seconds
                    totals["cpu"][side] += cpu_seconds
                    wrong = problem(op, seen[side])
                    if wrong:
                        failures[side] += 1
                        print(f"{op.label} under {trees[side]}: {wrong}")
                if seen[0] != seen[1]:
                    mismatches += 1
                    print(f"{op.label}, round {round_no}: outputs differ between the trees")
            for metric, (a, b) in totals.items():
                if a != b:
                    won[metric][int(b < a)] += 1

    print(f"{args.workload}, seed {args.seed}: {args.rounds} rounds of {len(ops)} ops")
    print(f"A = {trees[0]}\nB = {trees[1]}")
    print(f"{'op (medians, ms)':<28}{'wall A':>9}{'wall B':>9}{'B vs A':>10}{'won A:B':>9}"
          f"{'cpu A':>9}{'cpu B':>9}{'B vs A':>10}{'won A:B':>9}")
    sums = [[0.0, 0.0], [0.0, 0.0]]
    for i, op in enumerate(ops):
        row = []
        for metric, times in enumerate((wall, cpu)):
            a, b = (statistics.median(times[side][i]) for side in (0, 1))
            sums[metric][0] += a
            sums[metric][1] += b
            row.append(f"{a * 1e3:9.1f}{b * 1e3:9.1f}{change(a, b):>10}"
                       f"{wins(times[0][i], times[1][i]):>9}")
        print(f"{op.label:<28}{''.join(row)}")
    print(f"{'sum':<28}" + "".join(
        f"{a * 1e3:9.1f}{b * 1e3:9.1f}{change(a, b):>10}{'':9}" for a, b in sums
    ))
    lines = [nonblank_lines(tree) for tree in trees]
    print(f"{'non-blank source lines':<28}{lines[0]:9d}{lines[1]:9d}{change(*lines):>10}")
    print(f"rounds won, wall: A {won['wall'][0]}, B {won['wall'][1]}; "
          f"cpu: A {won['cpu'][0]}, B {won['cpu'][1]}")
    print(f"failed checks: A {failures[0]}, B {failures[1]}; "
          f"op runs whose outputs differ between the trees: {mismatches}")
    return 1 if failures[0] or failures[1] or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
