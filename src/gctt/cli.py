"""Command-line front end: check, normalize, parse.

Exit codes: 0 success, 1 type error, 2 parse error (I/O failures are
reported distinctly on stderr but share the parse-error exit code).
Modules are resolved against a search path; within one invocation checked
modules are reused across input files unless --no-corpus-cache is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .eval import act, eval_term, readback
from .parser import ParseError, parse_interval, parse_module, parse_term
from .syntax import ModuleFile, term_str
from .typechecker import Checker, CheckedModule, Ctx, GcttTypeError

EXIT_OK = 0
EXIT_TYPE_ERROR = 1
EXIT_PARSE_ERROR = 2

SEARCH_PATH_VAR = "GCTT_PATH"


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Loader:
    """Parses and checks modules along a search path, in dependency order."""

    def __init__(self, search_path, fuel: Optional[int] = None,
                 cache: bool = True):
        self.search_path = [Path(p) for p in search_path]
        self.checker = Checker(fuel=fuel)
        self.cache = cache
        self.checked: dict[str, CheckedModule] = {}
        self.parsed: dict[str, tuple[Path, ModuleFile]] = {}

    def drop_cache(self):
        self.checked = {}

    def locate(self, name: str) -> Path:
        for root in self.search_path:
            candidate = root / f"{name}.gctt"
            if candidate.is_file():
                return candidate
        raise CliError(f"io error: module {name} not found on the search path",
                       EXIT_PARSE_ERROR)

    def parse_file(self, path: Path) -> ModuleFile:
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"io error: {exc}", EXIT_PARSE_ERROR)
        try:
            module = parse_module(source)
        except ParseError as exc:
            raise CliError(f"{path}:{exc}", EXIT_PARSE_ERROR)
        if module.name != path.stem:
            raise CliError(
                f"{path}: module name {module.name} does not match the"
                f" file stem {path.stem}",
                EXIT_PARSE_ERROR,
            )
        return module

    def load(self, path: Path, _stack=()) -> CheckedModule:
        module = self.parse_file(path)
        if module.name in _stack:
            raise CliError(
                f"{path}: import cycle through {module.name}",
                EXIT_PARSE_ERROR,
            )
        if self.cache and module.name in self.checked:
            return self.checked[module.name]
        imports = []
        for imp in module.imports:
            if self.cache and imp in self.checked:
                imports.append(self.checked[imp])
                continue
            imports.append(self.load(self.locate(imp),
                                     _stack + (module.name,)))
        try:
            checked = self.checker.check_module(module, imports)
        except GcttTypeError as exc:
            raise CliError(exc.render(str(path)), EXIT_TYPE_ERROR)
        self.checked[module.name] = checked
        return checked


def _search_path(args) -> list:
    path = list(args.search_path or [])
    env = os.environ.get(SEARCH_PATH_VAR)
    if env:
        path.extend(env.split(os.pathsep))
    for p in args.paths:
        parent = str(Path(p).parent)
        if parent not in path:
            path.append(parent)
    return path or ["."]


def cmd_check(args) -> int:
    loader = Loader(_search_path(args), fuel=args.fuel,
                    cache=not args.no_corpus_cache)
    for p in args.paths:
        path = Path(p)
        if args.no_corpus_cache:
            loader.drop_cache()
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
    args.paths = [args.path] if args.path else []
    loader = Loader(_search_path(args), fuel=args.fuel,
                    cache=not args.no_corpus_cache)
    path = Path(args.paths[0]) if args.paths else None
    ctx = Ctx()
    checked = None
    if path is not None:
        checked = loader.load(path)
        for name in checked.order:
            ty, val = checked.table[name]
            ctx = ctx.define(name, ty, val)
    subs = {}
    for at in args.at or []:
        if "=" not in at:
            raise CliError(f"bad --at argument {at!r}, expected name=0 or"
                           " name=1", EXIT_PARSE_ERROR)
        name, _, val = at.partition("=")
        try:
            expr = parse_interval(val.strip())
        except ParseError as exc:
            raise CliError(f"--at: {exc}", EXIT_PARSE_ERROR)
        subs[name.strip()] = expr

    if args.expr is not None:
        try:
            term = parse_term(args.expr)
        except ParseError as exc:
            raise CliError(f"--expr: {exc}", EXIT_PARSE_ERROR)
        check_ctx = ctx
        renamed = {}
        for name in subs:
            check_ctx, bound = check_ctx.bind_interval(name)
            renamed[bound] = subs[name]
        subs = renamed
        checker = Checker(fuel=args.fuel)
        try:
            ty = checker.infer_top(check_ctx, term)
        except GcttTypeError as exc:
            raise CliError(exc.render("<expr>"), EXIT_TYPE_ERROR)
        value = eval_term(check_ctx.env, term)
    elif args.name is not None:
        if checked is None or args.name not in checked.table:
            raise CliError(f"unknown declaration {args.name}",
                           EXIT_TYPE_ERROR)
        ty, value = checked.table[args.name]
    else:
        raise CliError("normalize needs a declaration name or --expr",
                       EXIT_PARSE_ERROR)
    if subs:
        value = act(value, subs)
        ty = act(ty, subs)
    print(term_str(readback(frozenset(ctx.used), value, ty)))
    return EXIT_OK


def cmd_parse(args) -> int:
    for p in args.paths:
        path = Path(p)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CliError(f"io error: {exc}", EXIT_PARSE_ERROR)
        try:
            module = parse_module(source)
        except ParseError as exc:
            raise CliError(f"{path}:{exc}", EXIT_PARSE_ERROR)
        from .syntax import module_str

        print(module_str(module), end="")
    return EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gctt",
        description="Check and normalize guarded cubical proof files",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--search-path", action="append", default=[],
                       metavar="DIR", help="module search directory")
        p.add_argument("--fuel", type=int, default=None,
                       help="conversion step bound")
        p.add_argument("--no-corpus-cache", action="store_true",
                       help="do not reuse checked imports across files")

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
                        help="interval substitution applied before printing")
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
    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "normalize":
            return cmd_normalize(args)
        return cmd_parse(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except RecursionError:
        print("error: recursion limit exceeded", file=sys.stderr)
        return EXIT_TYPE_ERROR


if __name__ == "__main__":
    sys.exit(main())
