#!/usr/bin/env python3
"""End-to-end benchmark of the pickforge CLI on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload cliff --seed 1 --seconds 28 --trace 0

Each operation is a real ``python -m pickforge.cli`` invocation with
``PYTHONPATH=src``, run one at a time from this process and checked outside
its timed interval.  ``--trace 1`` replays the same operations in this
process instead and reports per-layer numbers (see ``layers.py``).
``--oracle N`` checks ``resolve_pick`` against ``enumerate_best`` on N
seeded small instances and measures nothing.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A wrong output or an unexpected exit code makes the command exit 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform as host
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 1
OP_LIMIT_S = 10.0
SETUP_REPEATS = 5
FAILURE_KINDS = ("timeout", "crash", "exit", "wrong")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def classify(op, code, stdout: str, stderr: str) -> tuple[str | None, str]:
    """Failure kind of a finished op (None when it passed) and a detail."""
    if "Traceback (most recent call last)" in stderr:
        return "crash", stderr.strip().splitlines()[-1]
    if code != op.exit_code:
        return "exit", f"exit {code}, expected {op.exit_code}: {stderr.strip()[-200:]}"
    try:
        problem = op.check(stdout)
    except Exception as exc:  # any error while reading the output means it is wrong
        problem = f"unreadable output: {exc!r}"
    return ("wrong", problem) if problem else (None, "")


def remove(path: Path | None) -> None:
    if path is None or not path.exists():
        return
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def run_cli(op, env: dict) -> tuple[float, str | None, str]:
    """Run one op in a child process: (seconds, failure kind or None, detail)."""
    remove(op.fresh)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pickforge.cli", *op.argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=OP_LIMIT_S)
        seconds = time.perf_counter() - start
    except subprocess.TimeoutExpired:
        # smoke steps run in the child's process group; stop them too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return OP_LIMIT_S, "timeout", f"no exit within {OP_LIMIT_S} s"
    kind, detail = classify(op, proc.returncode, out.decode(), err.decode())
    return (OP_LIMIT_S if kind else seconds), kind, detail


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup(name: str, seed: int, run_dir: Path, env: dict):
    """Generate the inputs, write them, then run one warm-up op that is not
    among the measured ones.

    Repeated SETUP_REPEATS times.  Every repeat generates the inputs afresh
    and runs the warm-up, and its time is the two together.  Only the first
    repeat writes the input files, untimed: the same seed gives the same
    files, and file creation follows the disk's recent write load (the same
    1,100 files took 0.03 s to 0.35 s on a 2-core ext4 host) while doing
    none of the program's work.  Returns the last workload, every set-up
    time and the write time.  The warm-up also fills the bytecode cache."""
    work = run_dir / "inputs"
    times = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](random.Random(seed), work)
        generated = time.perf_counter()
        if attempt == 0:
            work.mkdir(parents=True)
            workload.inputs.write()
            write_s = time.perf_counter() - generated
        written = time.perf_counter()
        _, kind, detail = run_cli(workload.warmup, env)
        times.append(generated - start + time.perf_counter() - written)
        if kind:
            raise RuntimeError(f"warm-up {workload.warmup.label} failed ({kind}): {detail}")
    return workload, times, write_s


def another_pass(done: int, started: float, seconds: float) -> bool:
    """Whether to start another pass over the op list: always the first, then
    only while one more pass of the mean length so far ends within
    ``seconds`` of ``started``, so that a run never overshoots by a pass."""
    elapsed = time.perf_counter() - started
    return done == 0 or elapsed + elapsed / done <= seconds


def measure(workload, env: dict, seconds: float):
    """Run as many whole passes over the op list as fit in ``seconds``.
    Returns the op times of each pass, the failures, and the indexes that
    had a failed op."""
    passes: list[list[float]] = []
    failures: list[tuple[str, str, str]] = []
    failed_indexes: set[Path] = set()
    started = time.perf_counter()
    while another_pass(len(passes), started, seconds):
        times = []
        for op in workload.ops:
            elapsed, kind, detail = run_cli(op, env)
            if kind:
                failures.append((op.label, kind, detail))
                failed_indexes.add(op.index)
            times.append(elapsed)
        passes.append(times)
    return passes, failures, failed_indexes


def metadata() -> dict:
    lines = sum(
        1 for path in sorted((SRC / "pickforge").glob("*.py"))
        for line in path.read_text().splitlines() if line.strip()
    )
    return {
        "src_nonblank_lines": lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": host.python_version(),
    }


def end_to_end(args, run_dir: Path) -> tuple[bool, int, int, dict, dict]:
    env = child_env()
    workload, setups, write_s = setup(args.workload, args.seed, run_dir, env)
    passes, failures, failed_indexes = measure(workload, env, args.seconds)
    times = [t for one in passes for t in one]
    attempted = len(times)
    metrics = {
        "setup_s": (min(setups), "s"),
        "op_s_p50": (median(times), "s"),
        "work_s": (median([sum(one) for one in passes]), "s"),
        "ok_frac": (1 - len(failures) / attempted, "ratio"),
        "largest_ok_packages": (
            max((op.packages for op in workload.ops if op.index not in failed_indexes),
                default=0),
            "count",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    summary = {
        "passes": len(passes),
        "ops_per_pass": len(workload.ops),
        "op_s_p50_by_label": {
            op.label: median([one[i] for one in passes]) for i, op in enumerate(workload.ops)
        },
        "setup_s_all": setups,
        "write_s": write_s,
        "input_files": len(workload.inputs.files),
        "failures": failures[:20],
    }
    correct = not any(kind in ("exit", "wrong") for _, kind, _ in failures)
    return correct, attempted, len(failures), metrics, summary


def oracle(instances: int, seed: int) -> int:
    """Resolve seeded small instances with resolve_pick and enumerate_best."""
    from pickforge.solver import UnsatReport, enumerate_best, resolve_pick

    spec = importlib.util.spec_from_file_location("solver_bench", ROOT / "scripts" / "solver_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rng = random.Random(seed)
    mismatches = unsat = 0
    for _ in range(instances):
        repo, request = bench.random_instance(rng, 30_000)
        got = resolve_pick(repo, request)
        mismatches += got != enumerate_best(repo, request)
        unsat += isinstance(got, UnsatReport)
    print(json.dumps({"instances": instances, "seed": seed, "unsat": unsat,
                      "mismatches": mismatches}))
    return 1 if mismatches else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--oracle", type=int, metavar="N",
                        help="check the resolver against the exhaustive reference instead")
    args = parser.parse_args()
    if not (SRC / "pickforge" / "cli.py").is_file():
        print(f"perfbench: no pickforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.oracle is not None:
        return oracle(args.oracle, args.seed)
    if args.workload is None:
        parser.error("--workload is required unless --oracle is given")

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.trace:
            from layers import traced_run

            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            correct, attempted, failed, metrics, summary = traced_run(args, run_dir, trace_path)
        else:
            correct, attempted, failed, metrics, summary = end_to_end(args, run_dir)
    except Exception:  # a broken set-up or harness prints no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"meta": metadata(), **summary}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
