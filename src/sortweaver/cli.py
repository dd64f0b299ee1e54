"""Command-line entry point: extract, mine, query, model, plan, repl.

Every subcommand prints deterministic output (no timestamps, key-sorted
JSON) so identical inputs always produce byte-identical results.  Exit
codes: 0 success, 1 user error (or an output pipe closed by its reader,
which prints nothing), 2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import os
import shlex
import sys
from pathlib import Path

from . import __version__
from ._util import ascii_count, collector_paused, pretty_json
from .concerns import (
    MODEL_SCHEMA_VERSION,
    ConcernModelError,
    Group,
    Instance,
    add_group,
    add_instance,
    iter_instances,
    load_model,
    node_at,
    remove,
    rename,
    run_all,
    save_model,
)
from .minilang import ExtractError, MiniLangSyntaxError, extract_facts, parse
from .mining import TECHNIQUES, MiningConfig, mine
from .model import (
    DEFAULT_POLICY,
    SCHEMA_VERSION,
    DispatchPolicy,
    FactError,
    SourceModel,
    load_facts_path,
)
from .queries import (
    ADVICE_KINDS,
    QueryBinding,
    QueryResult,
    SortKind,
    execute_binding,
    expand_seed,
    query_params,
)
from .refactoring import (
    PlanError,
    combine_plans,
    plan_for,
)


class CliError(Exception):
    """User-level failure; message goes to stderr, exit code 1."""


def main(argv: list[str] | None = None, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        args.run(args, stdin, stdout)
        stdout.flush()  # a reader gone before the last write is the same case
        return 0
    except BrokenPipeError:
        # The reader is gone, so there is no one to tell.  Output still
        # buffered for the process's own stdout goes to the null device, or
        # the interpreter's flush at exit would fail on the pipe again.
        if stdout is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout.fileno())
            os.close(devnull)
        return 1
    except (CliError, FactError, ConcernModelError, PlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and its actions and subparsers point at each other, so a new tree
    per call would leave cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="sortweaver",
        description="Mine, document and plan the migration of crosscutting concerns.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"sortweaver {__version__} "
            f"(facts schema {SCHEMA_VERSION}, concern-model schema {MODEL_SCHEMA_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="parse MiniLang sources and emit facts.jsonl")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.set_defaults(run=cmd_extract)

    p = sub.add_parser("mine", help="run a mining technique over a fact file")
    p.add_argument("technique", choices=list(TECHNIQUES))
    p.add_argument("facts")
    for flag, options in _MINE_FLAGS.items():
        p.add_argument(flag, **options)
    p.add_argument("--policy", choices=[pol.value for pol in DispatchPolicy], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_mine)

    p = sub.add_parser("query", help="execute one sort query")
    p.add_argument("sort", choices=[s.value.lower() for s in SortKind])
    p.add_argument("facts")
    for name, sorts in _query_flags().items():
        p.add_argument(f"--{name}", help=f"{'/'.join(sorts)} parameter")
    p.add_argument("--policy", choices=[pol.value for pol in DispatchPolicy], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_query)

    p = sub.add_parser("model", help="edit or run a concern model")
    msub = p.add_subparsers(dest="model_command", required=True)

    m = msub.add_parser("init", help="create an empty concern model")
    m.add_argument("model_file")
    m.add_argument("--name", default="concerns")
    m.set_defaults(run=cmd_model_init)

    m = msub.add_parser("add-group")
    m.add_argument("model_file")
    m.add_argument("path", help="slash-separated path of the new group")
    m.set_defaults(run=cmd_model_add_group)

    m = msub.add_parser("add-instance")
    m.add_argument("model_file")
    m.add_argument("path")
    m.add_argument("--sort", required=True, choices=[s.value for s in SortKind])
    m.add_argument("--param", action="append", default=[], metavar="KEY=VALUE")
    m.add_argument("--note", default="")
    m.set_defaults(run=cmd_model_add_instance)

    m = msub.add_parser("remove")
    m.add_argument("model_file")
    m.add_argument("path")
    m.set_defaults(run=cmd_model_remove)

    m = msub.add_parser("rename")
    m.add_argument("model_file")
    m.add_argument("path")
    m.add_argument("new_name")
    m.set_defaults(run=cmd_model_rename)

    m = msub.add_parser("run", help="re-execute every instance and report drift")
    m.add_argument("model_file")
    m.add_argument("facts")
    m.add_argument("--commit", action="store_true", help="store fresh snapshots")
    m.add_argument("--policy", choices=[pol.value for pol in DispatchPolicy], default=None)
    m.add_argument("--json", action="store_true")
    m.set_defaults(run=cmd_model_run)

    p = sub.add_parser("plan", help="generate the aspect plan for an instance or group")
    p.add_argument("model_file")
    p.add_argument("instance_path")
    p.add_argument("facts")
    p.add_argument("--advice", choices=ADVICE_KINDS, default=None)
    p.add_argument("--enumerate", dest="enumerate_callers", action="store_true",
                   help="enumerate callers instead of a generic pointcut")
    p.add_argument("--name", default=None, help="aspect name override")
    p.add_argument("-o", "--output", default=None, help="write the aspect text here")
    p.add_argument("--edits", default=None, help="write the edit list (JSON) here")
    p.add_argument("--policy", choices=[pol.value for pol in DispatchPolicy], default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_plan)

    p = sub.add_parser("repl", help="interactive exploration over a fact file")
    p.add_argument("facts")
    p.add_argument("--policy", choices=[pol.value for pol in DispatchPolicy], default=None)
    p.set_defaults(run=cmd_repl)

    return parser


def _load_model(args) -> SourceModel:
    policy = DispatchPolicy(args.policy) if args.policy else DEFAULT_POLICY
    return load_facts_path(args.facts, policy=policy)


# -- extract ---------------------------------------------------------------------


def _parse_files(paths: list[str]) -> list:
    """The compilation unit of each file; a CliError names the first that
    is not UTF-8 or does not parse, after printing its diagnostic."""
    units = []
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        try:
            units.append(parse(text, source=Path(path).name))
        except MiniLangSyntaxError as exc:
            print(f"{path}: {exc.diagnostic}", file=sys.stderr)
            raise CliError(f"{path}: parse failed") from None
    return units


def cmd_extract(args, stdin, stdout):
    # Parsing and extraction make no reference cycles, so the collector is
    # paused throughout.  The syntax trees are freed as soon as
    # ``extract_facts`` returns, and the declarations once they are encoded,
    # before the text is written.
    with collector_paused():
        try:
            extraction = extract_facts(_parse_files(args.files))
        except ExtractError as exc:  # one unit per file, in order
            raise CliError(f"{args.files[exc.unit]}: {exc.message}") from None
        for warning in extraction.warnings:
            print(warning, file=sys.stderr)
        payload = extraction.to_jsonl()
        del extraction
        if args.output:
            Path(args.output).write_text(payload, encoding="utf-8")
        else:
            stdout.write(payload)


# -- mine ------------------------------------------------------------------------


#: The ``mine`` flags that configure a technique.  Each dest is the
#: MiningConfig field the flag sets, except ``threshold``, which sets the first
#: field of the technique's ``TECHNIQUES`` entry.
_MINE_FLAGS = {
    "--threshold": dict(dest="threshold", type=int,
                        help="fan-in threshold / minimum callers / minimum redirecting methods"),
    "--min-group": dict(dest="grouped_min_group", metavar="MIN_GROUP", type=int,
                        help="minimum callee group size"),
    "--coverage": dict(dest="redirect_coverage", metavar="COVERAGE", type=float,
                       help="redirecting coverage ratio"),
    "--utility": dict(dest="utility_names", metavar="UTILITY", action="append",
                      help="name pattern to exclude (repeatable)"),
    "--no-accessor-filter": dict(dest="accessor_filter", action="store_false", default=None),
}


def cmd_mine(args, stdin, stdout):
    _, fields = TECHNIQUES[args.technique]
    takes = [flag for flag, options in _MINE_FLAGS.items()
             if options["dest"] == "threshold" or options["dest"] in fields]
    config_kwargs = {}
    for flag, options in _MINE_FLAGS.items():
        value = getattr(args, options["dest"])
        if value is None:
            continue
        if flag not in takes:
            raise CliError(f"{flag} does not apply to {args.technique} mining, which takes "
                           + ", ".join(takes))
        field = fields[0] if flag == "--threshold" else options["dest"]
        config_kwargs[field] = tuple(value) if isinstance(value, list) else value
    try:
        config = MiningConfig(**config_kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    model = _load_model(args)
    seeds = mine(model, args.technique, config)

    if args.json:
        stdout.write(pretty_json([s.to_json() for s in seeds]) + "\n")
        return
    if not seeds:
        stdout.write("no seeds\n")
        return
    for rank, seed in enumerate(seeds, start=1):
        subject = _seed_subject(seed)
        stdout.write(f"{rank:>3}  {seed.score:>8g}  {seed.sort_hint}  {subject}\n")


def _seed_subject(seed) -> str:
    if seed.technique == "fanin":
        return seed.evidence["method_sig"]
    if seed.technique == "grouped":
        return "{" + ", ".join(seed.evidence["group_sigs"]) + "}"
    return f"{seed.evidence['redirector_name']} -> {seed.evidence['receiver_type_name']}"


# -- query -----------------------------------------------------------------------


def _query_flags() -> dict[str, list[str]]:
    """Each query parameter (a ``query`` flag) -> the sorts that take it."""
    flags: dict[str, list[str]] = {}
    for sort in SortKind:
        for p in query_params(sort):
            flags.setdefault(p.name, []).append(sort.value)
    return flags


def cmd_query(args, stdin, stdout):
    sort = SortKind(args.sort.upper())
    params = {}
    for p in query_params(sort):
        value = getattr(args, p.name)
        if value is None and p.required:
            raise CliError(f"--{p.name} is required for this sort")
        params[p.name] = value
    for name in _query_flags():
        if name not in params and getattr(args, name) is not None:
            raise CliError(f"--{name} does not apply to {sort.value} queries, which take "
                           + ", ".join(f"--{key}" for key in params))
    model = _load_model(args)
    result = execute_binding(model, QueryBinding.make(sort, **params))
    if args.json:
        stdout.write(pretty_json(result.to_json(model)) + "\n")
        return
    _write_hits(model, result, stdout)


def _write_hits(model: SourceModel, result: QueryResult, stdout):
    stdout.write(f"{len(result.hits)} hits\n")
    for hit in result.hits:
        stdout.write(f"  {hit.key(model)}\n")


# -- model -----------------------------------------------------------------------


def cmd_model_init(args, stdin, stdout):
    path = Path(args.model_file)
    if path.exists():
        raise CliError(f"{path} already exists")
    save_model(Group(args.name), path)
    stdout.write(f"created {path}\n")


def _edit_model(args, editor):
    root = load_model(args.model_file)
    editor(root)
    save_model(root, args.model_file)


def cmd_model_add_group(args, stdin, stdout):
    _edit_model(args, lambda root: add_group(root, args.path))
    stdout.write(f"added group {args.path}\n")


def cmd_model_add_instance(args, stdin, stdout):
    params = {}
    for item in args.param:
        if "=" not in item:
            raise CliError(f"bad --param {item!r}; expected KEY=VALUE")
        key, value = item.split("=", 1)
        if key in params:
            raise CliError(f"repeated --param key {key!r}")
        params[key] = value
    binding = QueryBinding.make(SortKind(args.sort), **params)
    _edit_model(args, lambda root: add_instance(root, args.path, binding, args.note))
    stdout.write(f"added instance {args.path}\n")


def cmd_model_remove(args, stdin, stdout):
    _edit_model(args, lambda root: remove(root, args.path))
    stdout.write(f"removed {args.path}\n")


def cmd_model_rename(args, stdin, stdout):
    _edit_model(args, lambda root: rename(root, args.path, args.new_name))
    stdout.write(f"renamed {args.path} to {args.new_name}\n")


def cmd_model_run(args, stdin, stdout):
    root = load_model(args.model_file)
    model = _load_model(args)
    runs = run_all(root, model, commit=args.commit)
    if args.json:
        stdout.write(pretty_json([r.to_json(model) for r in runs]) + "\n")
    else:
        for run in runs:
            if run.error is not None:
                stdout.write(f"{run.path}: error: {run.error}\n")
                continue
            drift = run.drift
            stdout.write(
                f"{run.path}: {len(run.result.hits)} hits "
                f"(+{len(drift.added)} -{len(drift.removed)} ={drift.unchanged})\n"
            )
    if args.commit:
        save_model(root, args.model_file)
    failed = [run.path for run in runs if run.error is not None]
    if failed:
        raise CliError(f"{len(failed)} of {len(runs)} instances failed: {', '.join(failed)}")


# -- plan ------------------------------------------------------------------------


def _aspect_name_from(name: str) -> str:
    return "".join(ch for ch in name.title() if ch.isalnum()) if " " in name else \
        "".join(ch for ch in name if ch.isalnum())


def cmd_plan(args, stdin, stdout):
    root = load_model(args.model_file)
    path = "/".join(part for part in args.instance_path.split("/") if part)
    node = node_at(root, path)

    # Every node is planned as a group, a single instance as a group of one
    # that keeps its planner's aspect name unless --name gives another.
    single = isinstance(node, Instance)
    instances = [(path, node)] if single else list(iter_instances(node, path))
    if not instances:
        raise CliError(f"group {path!r} contains no instances")
    flag = "--advice" if args.advice else "--enumerate" if args.enumerate_callers else None
    if flag and all(inst.binding.sort is not SortKind.CB for _, inst in instances):
        raise CliError(f"{flag} applies only to CB instances, and {path!r} plans none")
    name = args.name
    if name is None and not single:
        name = _aspect_name_from(node.name)
    if name is not None and not name.isidentifier():
        raise CliError(f"aspect name {name!r} is not an identifier; choose one with --name")
    model = _load_model(args)
    plans = [plan_for(model, execute_binding(model, inst.binding),
                      advice=args.advice or inst.binding.param("advice"),
                      enumerate_callers=args.enumerate_callers, instance_path=sub_path)
             for sub_path, inst in instances]
    plan = combine_plans(plans[0].aspect_name if name is None else name, plans,
                         instance_path=path)

    text = plan.aspect_text
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    if args.edits:
        Path(args.edits).write_text(
            pretty_json([e.to_json() for e in plan.edits]) + "\n", encoding="utf-8"
        )
    if args.json:
        stdout.write(pretty_json(plan.to_json()) + "\n")
        return
    if not args.output:
        stdout.write(text)
    for warning in plan.warnings:
        stdout.write(
            f"{warning.severity.upper()} {warning.code}: {warning.message}"
            + (f" [{', '.join(warning.evidence)}]" if warning.evidence else "")
            + "\n"
        )
    for note in plan.notes:
        stdout.write(f"note: {note}\n")


# -- repl ------------------------------------------------------------------------

_REPL_HELP = """\
commands:
  callers <method>            distinct callers of a method
  ancestors <type>            supertypes of a type
  members <type>              declared methods and fields
  mine fanin|grouped|redirect run a mining technique; seeds become S1, S2, ...
  seedexpand S<n>             suggest query bindings for a mined seed
  cb <target> [scope]         consistent-behavior query
  rl <redirector> <receiver>  redirection-layer query
  ec <context> [scope]        expose-context query
  rsi <role> [scope]          role-superimposition query
  sc <scope> [role]           support-class query
  ep <exception> [root]       exception-propagation query
  help                        this text
  quit                        leave
"""


def _repl_binding(sort: SortKind, words: list[str]) -> QueryBinding:
    """Bind words to the sort's query parameters in order; the first word and
    every required one must be given (``usage: cb <target> [scope]``)."""
    params = query_params(sort)
    least = max(1, sum(p.required for p in params))
    if not least <= len(words) <= len(params):
        usage = [f"<{p.name}>" if i < least else f"[{p.name}]" for i, p in enumerate(params)]
        raise CliError(f"usage: {' '.join([sort.value.lower(), *usage])}")
    return QueryBinding.make(sort, **dict(zip((p.name for p in params), words)))


def cmd_repl(args, stdin, stdout):
    model = _load_model(args)
    seeds: list = []
    stdout.write(f"loaded {args.facts}: {len(model.types)} types, "
                 f"{len(model.methods)} methods, {len(model.calls)} calls\n")
    interactive = hasattr(stdin, "isatty") and stdin.isatty()
    while True:
        if interactive:
            stdout.write("sortweaver> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            break
        try:
            words = shlex.split(line.strip())
        except ValueError as exc:
            stdout.write(f"error: {exc}\n")
            continue
        if not words:
            continue
        command, rest = words[0], words[1:]
        if command in ("quit", "exit"):
            break
        try:
            _repl_dispatch(model, seeds, command, rest, stdout)
        except (CliError, FactError, ValueError) as exc:
            stdout.write(f"error: {exc}\n")
    return


def _repl_dispatch(model: SourceModel, seeds: list, command: str, rest: list[str], stdout):
    """Run one REPL command; ``mine`` replaces ``seeds`` in place."""
    if command == "help":
        stdout.write(_REPL_HELP)
        return
    if command == "callers":
        if len(rest) != 1:
            raise CliError("usage: callers <method>")
        method = model.resolve_method(rest[0])
        names = sorted(model.method_sig(c) for c in model.callers_of(method.id))
        stdout.write(f"{len(names)} callers of {model.method_sig(method.id)}\n")
        for name in names:
            stdout.write(f"  {name}\n")
        return
    if command == "ancestors":
        if len(rest) != 1:
            raise CliError("usage: ancestors <type>")
        decl = model.require_type(rest[0])
        names = sorted(
            model.types[t].qualified_name
            for t in model.ancestors(decl.id)
            if t != decl.id
        )
        for name in names:
            stdout.write(f"  {name}\n")
        stdout.write(f"{len(names)} ancestors\n")
        return
    if command == "members":
        if len(rest) != 1:
            raise CliError("usage: members <type>")
        decl = model.require_type(rest[0])
        for method in model.methods_of(decl.id):
            stdout.write(f"  method {model.method_sig(method.id)}\n")
        for fld in model.fields_of(decl.id):
            stdout.write(f"  field {fld.declared_type} {fld.name}\n")
        return
    if command == "mine":
        if len(rest) != 1 or rest[0] not in TECHNIQUES:
            raise CliError(f"usage: mine {'|'.join(TECHNIQUES)}")
        seeds[:] = mine(model, rest[0])
        for index, seed in enumerate(seeds, start=1):
            stdout.write(f"  S{index}  {seed.score:g}  {_seed_subject(seed)}\n")
        if not seeds:
            stdout.write("no seeds\n")
        return
    if command == "seedexpand":
        number = ascii_count(rest[0][1:]) if len(rest) == 1 and rest[0][:1] == "S" else None
        if number is None:
            raise CliError("usage: seedexpand S<n>")
        index = number - 1
        if not 0 <= index < len(seeds):
            raise CliError(f"no such seed {rest[0]}; run mine first")
        for suggestion in expand_seed(model, seeds[index]):
            binding = suggestion.binding
            stdout.write(
                f"  {binding.sort.value} {dict(binding.params)} "
                f"coverage {suggestion.covered}/{suggestion.total}\n"
            )
        return
    if command.islower() and command.upper() in SortKind.__members__:
        binding = _repl_binding(SortKind(command.upper()), rest)
        _write_hits(model, execute_binding(model, binding), stdout)
        return
    raise CliError(f"unknown command {command!r}; try help")
