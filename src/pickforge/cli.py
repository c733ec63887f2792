"""Command-line interface.

Exit codes: 0 success, 1 policy or smoke failure, 2 unsatisfiable
resolution, 3 I/O or data errors, 64 usage errors.
"""

# Start-up is most of an op's cost, so this module imports at top level
# only the index, which holds ``Pick``, and the version parsers.  Options
# come from this module's own table: ``argparse`` would cost every op its
# import and a parser for every subcommand.
# A handler that needs ``solver``, ``release``, ``policy`` or ``buildrun``
# imports it itself and calls through the module attribute; only
# ``resolve`` and ``release`` load the solver.

from __future__ import annotations

import gc
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import PickforgeError
from .index import Pick, Repository, load_repository, read_file
from .versioning import parse_calendar_version, parse_version

# type checkers read this name as true; ``typing`` is not imported for it
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .release import Release
    from .solver import SelectionRequest
    from .versioning import Version

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNSAT = 2
EXIT_IO = 3
EXIT_USAGE = 64
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of the output closed it early


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise ValueError(f"{text!r} is not a positive integer")
    return int(text)


# Option kinds.  VALUE: one value, None unless given; REQUIRED: one value
# that must be given; REPEAT: every value given, as a list in their order;
# FLAG: no value, True if given.  A tuple of texts is a choice of values, and
# a function converts the value, raising ValueError if it is bad.
VALUE, REQUIRED, REPEAT, FLAG = "value", "required", "repeat", "flag"
_HELP_NOTES = {REQUIRED: " (required)", REPEAT: " (repeatable)"}

# each option: (flag, dest, kind, default, help); a command takes only the options it reads
_FORMAT = ("--format", "format", ("text", "json"), "text", "output format: text (default) or json")
_INDEX = ("--index", "index", REQUIRED, None, "index directory or HTTP base URL")
_REQUEST = (
    ("--mandatory", "mandatory", REPEAT, None, "package that must be selected"),
    ("--optional", "optional", REPEAT, None, "package to select if possible (default: all)"),
    ("--override", "override", REPEAT, None, "NAME=VERSION: pin a package"),
    ("--include-dev", "include_dev", FLAG, None, "admit development snapshots"),
)
_LOCKFILE = ("--lockfile", "lockfile", REQUIRED, None, "lockfile to read")
_FROM_TO = (
    ("--from", "from_toolchain", REQUIRED, None, "toolchain of the first pick"),
    ("--to", "to_toolchain", REQUIRED, None, "toolchain of the second pick"),
)
_PICK = ("--toolchain", "toolchain", VALUE, None, "toolchain of the pick (default: newest)")

# each subcommand: (help, options); ``main`` runs it with ``cmd_<name>``
COMMANDS = {
    "resolve": ("resolve a pick for one toolchain", (
        _FORMAT, _INDEX, ("--toolchain", "toolchain", REQUIRED, None, "toolchain to resolve for"),
        *_REQUEST,
    )),
    "release": ("resolve picks and write a lockfile", (
        _INDEX,
        ("--version", "version", REQUIRED, None, "release version: YYYY.MM.P"),
        ("--toolchain", "toolchain", REPEAT, None, "toolchain to resolve (default: all)"),
        *_REQUEST,
        ("--previous", "previous", VALUE, None, "lockfile of the previous release"),
        ("--carry-previous", "carry_previous", FLAG, None,
         "re-ship other previous picks (needs --previous)"),
        ("--strict-removals", "strict_removals", FLAG, None,
         "fail on undeprecated removals (needs --previous)"),
        ("--output", "output", VALUE, "pickforge.lock.json", "lockfile path, or - for stdout"),
    )),
    "diff": ("diff two picks of a lockfile", (_FORMAT, _LOCKFILE, *_FROM_TO)),
    "upgrade": ("stepwise upgrade path between toolchains", (_FORMAT, _LOCKFILE, *_FROM_TO)),
    "coordinate": ("maintainer report for a toolchain release candidate", (
        _FORMAT, _INDEX,
        ("--rc", "rc", REQUIRED, None, "toolchain release candidate"),
        ("--reference", "reference", REQUIRED, None, "lockfile to report against"),
        ("--reference-toolchain", "reference_toolchain", VALUE, None,
         "pick of the reference (default: newest)"),
    )),
    "policy": ("succession policy checks", (
        _FORMAT, _INDEX,
        ("--package", "package", REPEAT, None, "package to check (default: all)"),
    )),
    "smoke": ("run the smoke-test kit for a pick", (
        _FORMAT, _INDEX, _LOCKFILE, _PICK,
        ("--sandbox", "sandbox", REQUIRED, None, "empty directory to build in"),
        ("--jobs", "jobs", _positive_int, 1, "steps to run at once (default: 1)"),
    )),
    "script": ("emit a standalone install script", (_INDEX, _LOCKFILE, _PICK)),
}


def _usage(command: str | None) -> str:
    return f"usage: pickforge {command or '{' + ','.join(COMMANDS) + '}'} [-h] [options]"


def _usage_error(command: str | None, message: str):
    prog = f"pickforge {command}" if command else "pickforge"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _show_help(command: str | None):
    if command is None:
        lines = [__doc__ or "", "commands:"]
        lines += [f"  {name:<12}{summary}" for name, (summary, _) in COMMANDS.items()]
    else:
        summary, options = COMMANDS[command]
        lines = [summary, "", "options:", f"  {'-h, --help':<24}show this help and exit"]
        lines += [f"  {flag:<24}{text}{_HELP_NOTES.get(kind, '')}"
                  for flag, _, kind, _, text in options]
    print("\n".join([_usage(command), "", *lines]))
    raise SystemExit(EXIT_OK)


def _parse_args(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The subcommand ``argv`` names and its option values, by dest, under
    the grammar README.md describes.  ``-h``/``--help`` and a usage error
    end the program with SystemExit."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command == "-h" or len(command) > 2 and "--help".startswith(command):
        _show_help(None)
    if command not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = {spec[0]: spec for spec in COMMANDS[command][1]}
    values = {
        dest: [] if kind is REPEAT else False if kind is FLAG else default
        for _, dest, kind, default, _ in options.values()
    }
    tokens = iter(argv[1:])
    for token in tokens:
        name, has_value, value = ("--help", "", "") if token == "-h" else token.partition("=")
        if len(name) < 3 or not name.startswith("--"):
            _usage_error(command, f"unrecognized arguments: {token}")
        matches = [name] if name in options else [
            flag for flag in ("--help", *options) if flag.startswith(name)
        ]
        if len(matches) != 1:
            _usage_error(command, f"ambiguous option: {name} could match {', '.join(matches)}"
                         if matches else f"unrecognized arguments: {token}")
        flag = matches[0]
        if flag == "--help":
            _show_help(command)
        _, dest, kind, _, _ = options[flag]
        if kind is FLAG:
            if has_value:
                _usage_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if not has_value:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                _usage_error(command, f"argument {flag}: expected one argument")
        if type(kind) is tuple and value not in kind:
            choices = ", ".join(map(repr, kind))
            _usage_error(command, f"argument {flag}: invalid choice: {value!r} "
                         f"(choose from {choices})")
        if callable(kind):
            try:
                value = kind(value)
            except ValueError as exc:
                _usage_error(command, f"argument {flag}: {exc}")
        if kind is REPEAT:
            values[dest].append(value)
        else:
            values[dest] = value
    missing = [flag for flag, dest, kind, _, _ in options.values()
               if kind is REQUIRED and values[dest] is None]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    return command, SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()[f"cmd_{command}"](args)
    except BrokenPipeError:
        raise  # the reader of the output left; ``entrypoint`` ends quietly
    except (PickforgeError, OSError, ValueError) as exc:
        print(f"pickforge: error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    """Run ``main`` as a program: ``python -m pickforge.cli`` or ``pickforge``.

    A run makes almost no reference cycles, so the cyclic collector is off
    while it runs, and the heap is frozen on every way out, usage errors
    included.  Then no collection walks the modules and the loaded index,
    during the run or at interpreter exit.  ``main`` and the library leave
    the collector alone, since their callers may run many ops in one
    process.  If the reader of the output closes it early, the run ends as
    one that SIGPIPE killed would, with exit code 141 and nothing on stderr.
    """
    gc.disable()
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to /dev/null, so the interpreter's last flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    finally:
        gc.freeze()
    sys.exit(code)


def _emit(result, output_format: str) -> None:
    """Print a result, or each result of a list, by its own ``to_text()`` or
    ``to_json_dict()``; a list prints as one JSON object with every result's keys."""
    results = result if isinstance(result, list) else [result]
    if output_format == "json":
        payload = {}
        for item in results:
            payload.update(item.to_json_dict())
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for item in results:
            print(item.to_text())


def _read_lockfile(path: str) -> Release:
    """The release in the lockfile at ``path``, which may be a pipe: ``<(...)``."""
    from . import release

    return release.read_lockfile(read_file(path, release.LockfileError, pipes=True))


def _pick_from_lockfile(path: str, toolchain: str | None) -> Pick:
    rel = _read_lockfile(path)
    if toolchain is None:
        return rel.picks[-1]
    return rel.pick_for(parse_version(toolchain))


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        name, sep, version = pair.partition("=")
        if not sep or not name or not version:
            raise PickforgeError(f"override {pair!r} is not of the form name=version")
        overrides[name] = parse_version(version)
    return overrides


def _request(repo: Repository, args, toolchain: Version, overrides: dict) -> SelectionRequest:
    from . import solver

    mandatory = frozenset(args.mandatory)
    optional = frozenset(args.optional)
    if not mandatory and not optional:
        optional = frozenset(repo.packages)
    return solver.SelectionRequest(
        toolchain=toolchain,
        mandatory=mandatory,
        optional=optional,
        overrides=overrides,
        include_dev=args.include_dev,
    )


def cmd_resolve(args) -> int:
    from . import solver

    toolchain, overrides = parse_version(args.toolchain), _parse_overrides(args.override)
    repo = load_repository(args.index)
    result = solver.resolve_pick(repo, _request(repo, args, toolchain, overrides))
    _emit(result, args.format)
    return EXIT_UNSAT if isinstance(result, solver.UnsatReport) else EXIT_OK


def cmd_release(args) -> int:
    if not args.previous and (args.strict_removals or args.carry_previous):
        flag = "--strict-removals" if args.strict_removals else "--carry-previous"
        _usage_error("release", f"argument {flag}: requires --previous")
    from . import release, solver

    version = parse_calendar_version(args.version)
    toolchains = [parse_version(text) for text in args.toolchain]
    overrides = _parse_overrides(args.override)
    previous = _read_lockfile(args.previous) if args.previous else None
    predecessor = previous.version if previous else None
    release.check_release(version, toolchains, predecessor)
    repo = load_repository(args.index)
    picks = []
    for toolchain in toolchains or repo.toolchains:
        result = solver.resolve_pick(repo, _request(repo, args, toolchain, overrides))
        if isinstance(result, solver.UnsatReport):
            print(f"pickforge: toolchain {toolchain} is unsatisfiable:", file=sys.stderr)
            for line in result.narrative:
                print(f"  {line}", file=sys.stderr)
            return EXIT_UNSAT
        picks.append(result)
    if args.carry_previous:
        covered = {pick.toolchain for pick in picks}
        picks.extend(pick for pick in previous.picks if pick.toolchain not in covered)
    rel = release.assemble_release(version, picks, predecessor)
    removals = []
    if previous is not None:
        from . import policy

        removals = policy.check_removals(previous, rel, repo)
    level = "error" if args.strict_removals else "warning"
    for removal in removals:
        print(f"pickforge: {level}: {removal}", file=sys.stderr)
    data = release.write_lockfile(rel)
    if args.output == "-":
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(args.output).write_bytes(data)
    return EXIT_FAILURE if removals and args.strict_removals else EXIT_OK


def cmd_diff(args) -> int:
    from . import release

    rel = _read_lockfile(args.lockfile)
    a = rel.pick_for(parse_version(args.from_toolchain))
    b = rel.pick_for(parse_version(args.to_toolchain))
    diff = release.diff_picks(a, b)
    if args.format == "text":
        print(f"diff {a.toolchain} -> {b.toolchain}")
    _emit(diff, args.format)
    return EXIT_OK


def cmd_upgrade(args) -> int:
    from . import release

    rel = _read_lockfile(args.lockfile)
    start, end = parse_version(args.from_toolchain), parse_version(args.to_toolchain)
    _emit(release.upgrade_path(rel, start, end), args.format)
    return EXIT_OK


def cmd_coordinate(args) -> int:
    from . import policy

    repo = load_repository(args.index)
    reference = _pick_from_lockfile(args.reference, args.reference_toolchain)
    _emit(policy.coordinate(repo, parse_version(args.rc), reference), args.format)
    return EXIT_OK


def cmd_policy(args) -> int:
    from . import policy

    repo = load_repository(args.index)
    names = args.package or sorted(repo.packages)
    reports = [policy.check_succession(repo, name) for name in names]
    _emit(reports, args.format)
    return EXIT_OK if all(report.compliant for report in reports) else EXIT_FAILURE


def cmd_smoke(args) -> int:
    from . import buildrun

    repo = load_repository(args.index)
    plan = buildrun.install_plan(repo, _pick_from_lockfile(args.lockfile, args.toolchain))
    report = buildrun.run_plan(plan, args.sandbox, max_parallel=args.jobs)
    _emit(report, args.format)
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_script(args) -> int:
    from . import buildrun

    repo = load_repository(args.index)
    plan = buildrun.install_plan(repo, _pick_from_lockfile(args.lockfile, args.toolchain))
    sys.stdout.write(buildrun.emit_install_script(plan))
    return EXIT_OK


if __name__ == "__main__":
    entrypoint()
