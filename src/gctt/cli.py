"""Command-line front end: check, normalize, parse.

Exit codes: 0 success, 1 type error, 2 parse error. I/O failures, a file
that is not UTF-8 among them, and usage errors such as a negative `--fuel`
are reported distinctly on stderr but share the parse-error exit code.
Output cut short by its reader (`gctt parse F | head -1`) ends quietly with
141, the code of a process that SIGPIPE ended.
Imports are resolved along a search path, then in the importing file's
directory; within one invocation each module file is checked once, and the
result is reused wherever that file is imported or named again.
Nothing one call of `main` builds outlives the call, so repeated calls in
one process keep memory flat; only the argument parser is built once per
process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .eval import act, eval_term, readback
from .interval import IVar, ONE, ZERO
from .parser import ParseError, parse_interval, parse_module, parse_term
from .syntax import ModuleFile, module_str, rename_apart, term_str
from .typechecker import Checker, CheckedModule, Ctx, GcttTypeError

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the output's reader closed it

SEARCH_PATH_VAR = "GCTT_PATH"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_module(path: Path) -> ModuleFile:
    """Read and parse a module file; failing to do either is a CliError.
    A byte-order mark at the start, as some editors write, is left out."""
    try:
        source = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise CliError(f"io error: {exc}", EXIT_PARSE_ERROR)
    except UnicodeDecodeError as exc:
        raise CliError(f"io error: {path}: not UTF-8 ({exc.reason} at byte"
                       f" {exc.start})", EXIT_PARSE_ERROR)
    try:
        return parse_module(source)
    except ParseError as exc:
        raise CliError(f"{path}:{exc}", EXIT_PARSE_ERROR)


class Loader:
    """Parses and checks modules along a search path, in dependency order."""

    def __init__(self, search_path, fuel: Optional[int] = None):
        self.search_path = [Path(p) for p in search_path]
        self.checker = Checker(fuel=fuel)
        # keyed by resolved path: two files may declare the same module name
        self.checked: dict[Path, CheckedModule] = {}

    def locate(self, name: str, importer: Path) -> Path:
        """The file of module `name` imported by `importer`: found along the
        search path, then in the importer's own directory."""
        for root in (*self.search_path, importer.parent):
            candidate = root / f"{name}.gctt"
            if candidate.is_file():
                return candidate
        raise CliError(f"io error: module {name} not found on the search path",
                       EXIT_PARSE_ERROR)

    def parse_file(self, path: Path) -> ModuleFile:
        module = _read_module(path)
        if module.name != path.stem:
            raise CliError(
                f"{path}: module name {module.name} does not match the"
                f" file stem {path.stem}",
                EXIT_PARSE_ERROR,
            )
        return module

    def load(self, path: Path, _stack=()) -> CheckedModule:
        key = path.resolve()
        if key in self.checked:
            return self.checked[key]
        module = self.parse_file(path)
        if module.name in _stack:
            raise CliError(
                f"{path}: import cycle through {module.name}",
                EXIT_PARSE_ERROR,
            )
        imports = [self.load(self.locate(imp, path), _stack + (module.name,))
                   for imp in module.imports]
        try:
            checked = self.checker.check_module(module, imports)
        except GcttTypeError as exc:
            raise CliError(exc.render(str(path)), EXIT_TYPE_ERROR)
        self.checked[key] = checked
        return checked


def _search_path(args) -> list:
    path = list(args.search_path)
    env = os.environ.get(SEARCH_PATH_VAR)
    if env:
        path.extend(env.split(os.pathsep))
    return path


def cmd_check(args) -> int:
    loader = Loader(_search_path(args), fuel=args.fuel)
    for p in args.paths:
        path = Path(p)
        checked = loader.load(path)
        if args.report:
            for rep in checked.reports:
                print(json.dumps(
                    {"decl": rep.name, "status": rep.status,
                     "millis": round(rep.millis, 3)},
                    sort_keys=True,
                ))
        else:
            print(f"{path}: ok ({len(checked.order)} declarations)")
    return EXIT_OK


def cmd_normalize(args) -> int:
    if args.at and args.expr is None:
        # a checked declaration's value is closed: nothing for --at to act on
        raise CliError("--at applies to --expr only", EXIT_PARSE_ERROR)
    loader = Loader(_search_path(args), fuel=args.fuel)
    path = Path(args.path) if args.path else None
    table = loader.load(path).table if path is not None else {}
    subs = {}
    for at in args.at or []:
        if "=" not in at:
            raise CliError(f"bad --at argument {at!r}, expected name=0 or"
                           " name=1", EXIT_PARSE_ERROR)
        name, _, val = at.partition("=")
        try:
            var, expr = parse_interval(name), parse_interval(val)
        except ParseError as exc:
            raise CliError(f"--at: {exc}", EXIT_PARSE_ERROR)
        if not isinstance(var, IVar):
            raise CliError(f"bad --at argument {at!r}: {name!r} is not an"
                           " interval name", EXIT_PARSE_ERROR)
        if expr not in (ZERO, ONE):
            raise CliError(f"bad --at argument {at!r}, expected name=0 or"
                           " name=1", EXIT_PARSE_ERROR)
        if var.name in subs:
            raise CliError(f"--at: {var.name} is given twice",
                           EXIT_PARSE_ERROR)
        subs[var.name] = expr
    ctx = Ctx()
    for name, (ty, val) in table.items():
        if name not in subs:  # an --at name hides a declaration
            ctx = ctx.define(name, ty, val)
    for name in subs:
        ctx = ctx.bind_interval(name)

    if (args.name is None) == (args.expr is None):
        raise CliError("normalize needs exactly one of a declaration name"
                       " and --expr", EXIT_PARSE_ERROR)
    if args.expr is not None:
        try:
            term = parse_term(args.expr)
        except ParseError as exc:
            raise CliError(f"--expr: {exc}", EXIT_PARSE_ERROR)
        term = rename_apart(term, ctx.env)
        where, span = "<expr>", term.span
    elif args.name not in table:
        raise CliError(f"unknown declaration {args.name}", EXIT_TYPE_ERROR)
    else:
        where, span = str(path), None
    # inference, evaluation and readback share one conversion budget
    try:
        with loader.checker.fuelled(span):
            if args.expr is not None:
                ty = loader.checker.infer(ctx, term)
                value = eval_term(ctx.env, term)
            else:
                ty, value = table[args.name]
            if subs:
                value = act(value, subs)
                ty = act(ty, subs)
            normal = readback(table.keys(), value, ty)
    except GcttTypeError as exc:
        raise CliError(exc.render(where), EXIT_TYPE_ERROR)
    print(term_str(normal))
    return EXIT_OK


def cmd_parse(args) -> int:
    for p in args.paths:
        print(module_str(_read_module(Path(p))), end="")
    return EXIT_OK


def _fuel(text: str) -> int:
    """A `--fuel` value: a number of conversion steps, 0 or more."""
    try:
        fuel = int(text)
    except ValueError:
        fuel = -1
    if fuel < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, found {text!r}")
    return fuel


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gctt",
        description="Check and normalize guarded cubical proof files",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--search-path", action="append", default=[],
                       metavar="DIR", help="module search directory")
        p.add_argument("--fuel", type=_fuel, default=None,
                       help="conversion step bound")

    p_check = sub.add_parser("check", help="type check modules")
    p_check.add_argument("paths", nargs="*", help=".gctt files")
    common(p_check)
    p_check.add_argument("--report", action="store_true",
                         help="machine-readable per-declaration records")
    p_norm = sub.add_parser("normalize", help="print a normal form")
    p_norm.add_argument("path", nargs="?", default=None, help=".gctt module")
    p_norm.add_argument("name", nargs="?", default=None,
                        help="declaration to normalize")
    p_norm.add_argument("--expr", default=None,
                        help="inline term to normalize")
    p_norm.add_argument("--at", action="append", default=[],
                        metavar="i=0",
                        help="interval substitution applied to --expr")
    common(p_norm)
    p_parse = sub.add_parser("parse", help="parse and print the module")
    p_parse.add_argument("paths", nargs="*", help=".gctt files")
    return ap


def main(argv=None) -> int:
    sys.setrecursionlimit(400_000)
    args = build_arg_parser().parse_args(argv)
    if args.command in ("check", "parse") and not args.paths:
        print("error: no input files", file=sys.stderr)
        return EXIT_PARSE_ERROR
    command = {"check": cmd_check, "normalize": cmd_normalize,
               "parse": cmd_parse}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except RecursionError:
        print("error: recursion limit exceeded", file=sys.stderr)
        return EXIT_TYPE_ERROR
    except BrokenPipeError:
        # the output's reader is gone: stop quietly, as SIGPIPE would
        _discard_stdout()
        return EXIT_BROKEN_PIPE


def _discard_stdout():
    """Point standard output at the null device, so that flushing what is
    still buffered at exit does not fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):
        return  # not backed by a file descriptor
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
