"""Traced replay: per-layer numbers from spans around pickforge's public functions.

The replay runs each op of a workload in this process through
``pickforge.cli.main``, twice in a row: once untraced and once with the
module attributes below replaced by wrappers that record a span (name,
start, end, parent span, op id) and a few counts.  The difference between
the two gives the tracing overhead.  Spans are kept in memory and written
as JSON lines when the run ends.

A layer's time is the self time of its spans (duration minus the time
covered by child spans), summed over one pass of the op list; the reported
value is the median over passes.  Counts are per pass as well.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from run import (FAILURE_KINDS, OP_LIMIT_S, another_pass, child_env, classify, median, remove,
                 setup)

# (module, attribute the CLI calls through, span name)
HOOKS = (
    ("pickforge.cli", "load_repository", "index.load"),
    ("pickforge.index", "validate_repository", "index.validate"),
    ("pickforge.solver", "resolve_pick", "solver.resolve"),
    ("pickforge.buildrun", "verify_pick", "solver.verify"),
    ("pickforge.release", "assemble_release", "release.assemble"),
    ("pickforge.release", "write_lockfile", "release.write"),
    ("pickforge.release", "read_lockfile", "release.read"),
    ("pickforge.policy", "check_succession", "policy.succession"),
    ("pickforge.policy", "coordinate", "policy.coordinate"),
    ("pickforge.policy", "check_removals", "policy.removals"),
    ("pickforge.buildrun", "install_plan", "buildrun.plan"),
    ("pickforge.buildrun", "run_plan", "buildrun.run"),
    ("pickforge.buildrun", "emit_install_script", "buildrun.script"),
)
# every span name: the root, the hooks, and resolve calls that found no pick
TIMED_LAYERS = ("cli.main", *(name for _, _, name in HOOKS), "solver.unsat")
GENERIC_REASON = "cannot be added without breaking the current selection"
INTERP_REPEATS = 5


class OpTimeout(BaseException):
    """Raised by the alarm when an in-process op exceeds the per-op limit.

    Not an Exception, so the CLI's own error handling cannot swallow it."""


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _observe(span: Span, result) -> None:
    """Counts taken at the layer boundary from the call's result."""
    if span.name == "index.load":
        span.counts["manifests"] = sum(len(v) for v in result.packages.values())
    elif span.name == "solver.resolve":
        if hasattr(result, "culprits"):
            span.name = "solver.unsat"
        else:
            reasons = list(result.excluded.values())
            span.counts["excluded"] = len(reasons)
            span.counts["generic"] = reasons.count(GENERIC_REASON)
    elif span.name == "release.write":
        span.counts["bytes"] = len(result)
    elif span.name == "buildrun.run":
        span.counts["steps"] = len(result.results)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    def span(self, name: str, fn, *args, **kwargs):
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter() - self._origin
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter() - self._origin
            self._stack.pop()
        _observe(span, result)
        return result

    @contextlib.contextmanager
    def hooked(self):
        saved = []
        try:
            for module_name, attr, name in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, functools.partial(self.span, name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__, sort_keys=True) + "\n")


def _raise_timeout(_signum, _frame):
    raise OpTimeout


def run_in_process(op, tracer: Tracer | None):
    """Run one op through cli.main in this process: (seconds, kind, detail)."""
    from pickforge import cli

    remove(op.fresh)
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(op.argv)
            else:
                with tracer.hooked():
                    code = tracer.span("cli.main", cli.main, op.argv)
    except SystemExit as exc:
        code = exc.code
    except OpTimeout:
        return OP_LIMIT_S, "timeout", f"no exit within {OP_LIMIT_S} s"
    except Exception as exc:  # the replay goes on; the op is recorded as crashed
        return OP_LIMIT_S, "crash", repr(exc)[:200]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    kind, detail = classify(op, code, out.getvalue(), err.getvalue())
    return (OP_LIMIT_S if kind else seconds), kind, detail


def _wall(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), check=True)
    return time.perf_counter() - start


def _version_strings(indexes) -> tuple[list[str], list[str]]:
    """Every version and constraint string of the workload's indexes."""
    versions, constraints = [], []
    for index in indexes:
        versions += json.loads((index / "index.json").read_text())["toolchains"]
        for path in sorted(index.glob("packages/*/*.json")):
            if path.name == "versions.json":
                continue
            entry = json.loads(path.read_text())
            versions.append(entry["version"])
            constraints.append(entry["toolchain"])
            constraints += [c for _, c in entry["depends"] + entry["conflicts"]]
    return versions, constraints


def _parse_seconds(versions, constraints) -> float:
    from pickforge.versioning import parse_constraint, parse_version

    start = time.perf_counter()
    for text in versions:
        parse_version(text)
    for text in constraints:
        parse_constraint(text)
    return time.perf_counter() - start


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"solver.explained_frac": "ratio", "release.lockfile_bytes": "bytes"}.get(name, "count")


def _pass_numbers(spans: list[Span], first: int, resolve_calls: list[float]) -> dict:
    """Per-layer numbers of one traced pass; ``first`` is the index of its
    first span in the tracer."""
    covered: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    self_s, counts, calls = Counter(), Counter(), Counter()
    for offset, span in enumerate(spans, start=first):
        self_s[span.name] += span.end - span.start - covered[offset]
        counts.update(span.counts)
        calls[span.name] += 1
        if span.name == "solver.resolve":
            resolve_calls.append(span.end - span.start)
    excluded = counts["excluded"]
    numbers = {
        ("cli.self_s" if name == "cli.main" else f"{name}_s"): self_s[name]
        for name in TIMED_LAYERS
    }
    numbers.update({
        "index.manifests": counts["manifests"],
        "solver.resolve_calls": calls["solver.resolve"],
        "solver.unsat_calls": calls["solver.unsat"],
        "solver.excluded": excluded,
        "solver.generic_reasons": counts["generic"],
        "solver.explained_frac": 1 - counts["generic"] / excluded if excluded else 1.0,
        "release.lockfile_bytes": counts["bytes"],
        "buildrun.steps": counts["steps"],
    })
    return numbers


def traced_run(args, run_dir, trace_path):
    workload, _, _ = setup(args.workload, args.seed, run_dir, child_env())
    interp = median([_wall([sys.executable, "-c", "pass"]) for _ in range(INTERP_REPEATS)])
    imported = median([
        _wall([sys.executable, "-c", "import pickforge.cli"]) for _ in range(INTERP_REPEATS)
    ])
    versions, constraints = _version_strings(workload.indexes)
    tracer = Tracer()
    per_pass: list[dict] = []
    failures: Counter = Counter()
    attempted = 0
    resolve_calls: list[float] = []
    started = time.perf_counter()
    while another_pass(len(per_pass), started, args.seconds):
        first = len(tracer.spans)
        untraced = traced = 0.0
        # alternate which run goes first, so that the order cancels out of
        # the overhead
        order = (None, tracer) if len(per_pass) % 2 == 0 else (tracer, None)
        for op in workload.ops:
            tracer.op += 1
            for hooks in order:
                seconds, kind, _ = run_in_process(op, hooks)
                if hooks is None:
                    untraced += seconds
                else:
                    traced += seconds
                attempted += 1
                failures.update([kind] if kind else [])
        numbers = _pass_numbers(tracer.spans[first:], first, resolve_calls)
        numbers["versioning.parse_s"] = _parse_seconds(versions, constraints)
        numbers["trace.overhead_s"] = traced - untraced
        per_pass.append(numbers)
    tracer.write(trace_path)

    metrics = {
        "cli.interp_s": (interp, "s"),
        "cli.import_s": (imported - interp, "s"),
        "solver.resolve_s_p50": (median(resolve_calls), "s"),
    }
    for name in per_pass[0]:
        metrics[name] = (statistics.median(one[name] for one in per_pass), _unit(name))
    for kind in FAILURE_KINDS:
        metrics[f"cli.fail_{kind}"] = (failures[kind], "count")
    summary = {"passes": len(per_pass), "ops_per_pass": len(workload.ops),
               "spans": len(tracer.spans), "trace_file": str(trace_path)}
    return failures["exit"] + failures["wrong"] == 0, attempted, sum(failures.values()), metrics, summary
