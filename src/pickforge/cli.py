"""Command-line interface.

Exit codes: 0 success, 1 policy or smoke failure, 2 unsatisfiable
resolution, 3 I/O or data errors, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import buildrun, policy, release, solver
from .errors import PickforgeError
from .index import Repository, load_repository
from .release import Release
from .solver import Pick, SelectionRequest, UnsatReport
from .versioning import parse_calendar_version, parse_version

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNSAT = 2
EXIT_IO = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pickforge", description=__doc__)
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--format", choices=("text", "json"), default="text")
    plain.add_argument("--cache-dir", help="override the PICKFORGE_CACHE mirror directory")
    common = argparse.ArgumentParser(add_help=False, parents=[plain])
    common.add_argument(
        "--index", required=True, help="index source: local directory or HTTP base URL"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("resolve", parents=[common], help="resolve a pick for one toolchain")
    p.add_argument("--toolchain", required=True)
    p.add_argument("--mandatory", action="append", default=[], metavar="NAME")
    p.add_argument("--optional", action="append", default=[], metavar="NAME")
    p.add_argument("--override", action="append", default=[], metavar="NAME=VERSION")
    p.add_argument("--include-dev", action="store_true")

    p = sub.add_parser("release", parents=[common], help="resolve picks and write a lockfile")
    p.add_argument("--version", required=True, metavar="YYYY.MM.P")
    p.add_argument("--toolchain", action="append", default=[],
                   help="toolchains to include (default: all in the index)")
    p.add_argument("--mandatory", action="append", default=[], metavar="NAME")
    p.add_argument("--optional", action="append", default=[], metavar="NAME",
                   help="optional packages (default: every package in the index)")
    p.add_argument("--override", action="append", default=[], metavar="NAME=VERSION")
    p.add_argument("--include-dev", action="store_true")
    p.add_argument("--previous", metavar="LOCKFILE")
    p.add_argument("--carry-previous", action="store_true",
                   help="re-ship previous picks for toolchains not resolved here")
    p.add_argument("--strict-removals", action="store_true")
    p.add_argument("--output", default="pickforge.lock.json", metavar="PATH",
                   help="lockfile path, or - for stdout")

    p = sub.add_parser("diff", parents=[plain], help="diff two picks of a lockfile")
    p.add_argument("--lockfile", required=True)
    p.add_argument("--from", dest="from_toolchain", required=True)
    p.add_argument("--to", dest="to_toolchain", required=True)

    p = sub.add_parser("upgrade", parents=[plain], help="stepwise upgrade path between toolchains")
    p.add_argument("--lockfile", required=True)
    p.add_argument("--from", dest="from_toolchain", required=True)
    p.add_argument("--to", dest="to_toolchain", required=True)

    p = sub.add_parser("coordinate", parents=[common],
                       help="maintainer report for a toolchain release candidate")
    p.add_argument("--rc", required=True)
    p.add_argument("--reference", required=True, metavar="LOCKFILE")
    p.add_argument("--reference-toolchain",
                   help="which pick of the lockfile to report on (default: newest)")

    p = sub.add_parser("policy", parents=[common], help="succession policy checks")
    p.add_argument("--package", action="append", default=[],
                   help="package to check (default: every package)")

    p = sub.add_parser("smoke", parents=[common], help="run the smoke-test kit for a pick")
    p.add_argument("--lockfile", required=True)
    p.add_argument("--toolchain", help="which pick to run (default: newest)")
    p.add_argument("--sandbox", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("script", parents=[common], help="emit a standalone install script")
    p.add_argument("--lockfile", required=True)
    p.add_argument("--toolchain", help="which pick to emit (default: newest)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "resolve": cmd_resolve,
        "release": cmd_release,
        "diff": cmd_diff,
        "upgrade": cmd_upgrade,
        "coordinate": cmd_coordinate,
        "policy": cmd_policy,
        "smoke": cmd_smoke,
        "script": cmd_script,
    }[args.command]
    try:
        return handler(args)
    except (PickforgeError, OSError, ValueError) as exc:
        print(f"pickforge: error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _load_index(args) -> Repository:
    return load_repository(args.index, cache_dir=args.cache_dir)


def _read_lockfile(path: str) -> Release:
    return release.read_lockfile(Path(path).read_bytes())


def _pick_from_lockfile(path: str, toolchain: str | None) -> tuple[Release, Pick]:
    rel = _read_lockfile(path)
    if toolchain is None:
        return rel, rel.picks[-1]
    return rel, rel.pick_for(parse_version(toolchain))


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        name, sep, version = pair.partition("=")
        if not sep or not name or not version:
            raise PickforgeError(f"override {pair!r} is not of the form name=version")
        overrides[name] = parse_version(version)
    return overrides


def _request(repo: Repository, args, toolchain_text: str) -> SelectionRequest:
    mandatory = frozenset(args.mandatory)
    optional = frozenset(args.optional)
    if not mandatory and not optional:
        optional = frozenset(repo.packages)
    return SelectionRequest(
        toolchain=parse_version(toolchain_text),
        mandatory=mandatory,
        optional=optional,
        overrides=_parse_overrides(args.override),
        include_dev=args.include_dev,
    )


def _print_pick(pick: Pick, output_format: str) -> None:
    if output_format == "json":
        _emit_json(release.pick_payload(pick))
        return
    print(f"pick for toolchain {pick.toolchain} ({len(pick.selected)} packages)")
    for name in sorted(pick.selected):
        print(f"  {name} {pick.selected[name]}")
    if pick.excluded:
        print("excluded:")
        for name in sorted(pick.excluded):
            print(f"  {name}: {pick.excluded[name]}")


def _print_unsat(report: UnsatReport, output_format: str) -> None:
    if output_format == "json":
        _emit_json({"culprits": list(report.culprits), "narrative": list(report.narrative)})
        return
    print("no valid pick:")
    for line in report.narrative:
        print(f"  {line}")


def cmd_resolve(args) -> int:
    repo = _load_index(args)
    result = solver.resolve_pick(repo, _request(repo, args, args.toolchain))
    if isinstance(result, UnsatReport):
        _print_unsat(result, args.format)
        return EXIT_UNSAT
    _print_pick(result, args.format)
    return EXIT_OK


def cmd_release(args) -> int:
    repo = _load_index(args)
    toolchains = args.toolchain or [str(t) for t in repo.toolchains]
    picks = []
    for toolchain_text in toolchains:
        result = solver.resolve_pick(repo, _request(repo, args, toolchain_text))
        if isinstance(result, UnsatReport):
            print(f"pickforge: toolchain {toolchain_text} is unsatisfiable:", file=sys.stderr)
            for line in result.narrative:
                print(f"  {line}", file=sys.stderr)
            return EXIT_UNSAT
        picks.append(result)
    previous = _read_lockfile(args.previous) if args.previous else None
    if previous is not None and args.carry_previous:
        covered = {str(pick.toolchain) for pick in picks}
        picks.extend(
            pick for pick in previous.picks if str(pick.toolchain) not in covered
        )
    rel, warnings = release.assemble_release(
        parse_calendar_version(args.version), picks, previous=previous, repo=repo
    )
    for warning in warnings:
        print(f"pickforge: warning: {warning}", file=sys.stderr)
    data = release.write_lockfile(rel)
    if args.output == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(args.output).write_bytes(data)
    if previous is not None and args.strict_removals:
        violations = policy.check_removals(previous, rel, repo)
        for violation in violations:
            print(f"pickforge: error: {violation}", file=sys.stderr)
        if violations:
            return EXIT_FAILURE
    return EXIT_OK


def _diff_payload(diff: release.PickDiff) -> dict:
    return {
        "added": sorted(diff.added),
        "removed": sorted(diff.removed),
        "upgraded": {n: [str(a), str(b)] for n, (a, b) in sorted(diff.upgraded.items())},
        "downgraded": {n: [str(a), str(b)] for n, (a, b) in sorted(diff.downgraded.items())},
        "unchanged": sorted(diff.unchanged),
    }


def _print_diff(diff: release.PickDiff) -> None:
    for name in sorted(diff.added):
        print(f"  + {name}")
    for name in sorted(diff.removed):
        print(f"  - {name}")
    for name, (old, new) in sorted(diff.upgraded.items()):
        print(f"  ^ {name} {old} -> {new}")
    for name, (old, new) in sorted(diff.downgraded.items()):
        print(f"  v {name} {old} -> {new}")
    print(f"  = {len(diff.unchanged)} unchanged")


def cmd_diff(args) -> int:
    rel = _read_lockfile(args.lockfile)
    a = rel.pick_for(parse_version(args.from_toolchain))
    b = rel.pick_for(parse_version(args.to_toolchain))
    diff = release.diff_picks(a, b)
    if args.format == "json":
        _emit_json(_diff_payload(diff))
    else:
        print(f"diff {a.toolchain} -> {b.toolchain}")
        _print_diff(diff)
    return EXIT_OK


def cmd_upgrade(args) -> int:
    rel = _read_lockfile(args.lockfile)
    report = release.upgrade_path(
        rel, parse_version(args.from_toolchain), parse_version(args.to_toolchain)
    )
    if args.format == "json":
        _emit_json(
            {
                "monotone": report.monotone,
                "steps": [
                    {
                        "from": str(step.from_toolchain),
                        "to": str(step.to_toolchain),
                        "diff": _diff_payload(step.diff),
                    }
                    for step in report.steps
                ],
            }
        )
    else:
        for step in report.steps:
            print(f"step {step.from_toolchain} -> {step.to_toolchain}")
            _print_diff(step.diff)
        print(f"monotone: {'yes' if report.monotone else 'no'}")
    return EXIT_OK


def cmd_coordinate(args) -> int:
    repo = _load_index(args)
    _, reference = _pick_from_lockfile(args.reference, args.reference_toolchain)
    report = policy.coordinate(repo, parse_version(args.rc), reference)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_markdown())
    return EXIT_OK


def cmd_policy(args) -> int:
    repo = _load_index(args)
    names = args.package or sorted(repo.packages)
    reports = [policy.check_succession(repo, name) for name in names]
    if args.format == "json":
        _emit_json(
            {
                report.package: {
                    "compliant": report.compliant,
                    "pairs": [
                        {
                            "pair": [str(pair.lower), str(pair.upper)],
                            "witness": None if pair.witness is None else str(pair.witness),
                        }
                        for pair in report.pairs
                    ],
                }
                for report in reports
            }
        )
    else:
        for report in reports:
            state = "ok" if report.compliant else "VIOLATION"
            print(f"{report.package}: {state}")
            for pair in report.pairs:
                witness = pair.witness if pair.witness is not None else "none"
                print(f"  {pair.lower} & {pair.upper}: {witness}")
    return EXIT_OK if all(report.compliant for report in reports) else EXIT_FAILURE


def cmd_smoke(args) -> int:
    repo = _load_index(args)
    _, pick = _pick_from_lockfile(args.lockfile, args.toolchain)
    plan = buildrun.install_plan(repo, pick)
    report = buildrun.run_plan(plan, args.sandbox, max_parallel=args.jobs)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_script(args) -> int:
    repo = _load_index(args)
    _, pick = _pick_from_lockfile(args.lockfile, args.toolchain)
    plan = buildrun.install_plan(repo, pick)
    sys.stdout.write(buildrun.emit_install_script(plan))
    return EXIT_OK


if __name__ == "__main__":
    entrypoint()
