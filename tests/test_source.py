"""Properties of the source itself: no failure is hidden by a catch-all
handler, no module asks for an object's identity, no table holds the delayed
fixed points' types, every field of a host closure is
acted on by interval substitutions, conversion keeps no module-level table
and takes no name set, no module-level table hides a function from the
benchmark's tracer, none grows across invocations, no function rebinds a
module global and no module numbers names from a counter of its own, and
the source keeps to the oldest Python the package declares."""

import ast
import dataclasses
import importlib.util
import inspect
import itertools
import re
import sys
from pathlib import Path

import gctt
import gctt.cli  # noqa: F401  (loads every gctt module)
from gctt.cli import main

SOURCE = Path(gctt.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_the_source_keeps_to_the_declared_python_floor():
    """Every module parses with the grammar of Python 3.10, the oldest that
    pyproject.toml declares, and no string holds the regular-expression
    syntax `re` accepts only from 3.11 on: a possessive quantifier (`*+`,
    `++`, `?+`, `}+`) or an atomic group (`(?>`)."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject)
    assert floor.groups() == ("3", "10")
    hits = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), feature_version=(3, 10))
        hits += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)
                 and re.search(r"[*+?}]\+|\(\?>", node.value)]
    assert hits == []


def test_no_catch_all_exception_handlers():
    hits = [f"{path.name}:{n}"
            for path in sorted(SOURCE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"except\s+(Exception|BaseException)\b|except\s*:",
                         line)]
    assert hits == []


def test_syntax_keeps_no_identity_keyed_table():
    """No module calls `id(`, so none keys a table by object identity."""
    hits = [f"{path.name}:{n}"
            for path in sorted(SOURCE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"\bid\(", line)]
    assert hits == []


def test_the_dfix_registry_name_is_only_bound():
    """A fixed point's type is kept on its node; the old registry's name is
    bound once, empty, for the benchmark, and nothing reads it."""
    hits = [f"{path.name}:{line.strip()}"
            for path in sorted(SOURCE.glob("*.py"))
            for line in path.read_text().splitlines()
            if "DFIX_TYPES" in line]
    assert hits == ["eval.py:DFIX_TYPES: dict = {}"]


def test_no_global_statement_and_no_module_level_counter():
    """Readback passes its expansions down the call, and internal names are
    drawn from the one supply on `eval.FUEL`."""
    rebinds = [f"{path.name}:{node.lineno}"
               for path in sorted(SOURCE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Global)]
    counters = [f"{modname}.{name}"
                for modname, mod in sorted(sys.modules.items())
                if modname == "gctt" or modname.startswith("gctt.")
                for name, value in vars(mod).items()
                if isinstance(value, itertools.count)]
    assert rebinds == [] and counters == []


def test_no_weak_reference_tables():
    hits = [path.name for path in sorted(SOURCE.glob("*.py"))
            if re.search(r"weakref|WeakKeyDictionary", path.read_text())]
    assert hits == []


def test_host_closures_have_no_field_outside_the_interval_action():
    from gctt.eval import FnClosure

    assert [f.name for f in dataclasses.fields(FnClosure)] == ["fn",
                                                               "captured"]


def test_conversion_keeps_no_module_level_table():
    """The state of the later comparisons in progress travels with the
    call, not in a global."""
    from gctt import conversion

    assert [name for name, x in vars(conversion).items()
            if isinstance(x, (list, dict, set))
            and not name.startswith("__")] == []


def test_conversion_and_the_matcher_take_no_name_set():
    """Conversion draws globally fresh probes, so neither it nor the
    delayed-substitution matcher takes the names in scope."""
    from gctt import conversion, eval as E

    functions = [E.canon_later_value, E.match_later, E.match_next,
                 E._match_ds_positions, E.ds_binders]
    for x in vars(conversion).values():
        if getattr(x, "__module__", None) == conversion.__name__:
            functions += ([x] if inspect.isfunction(x) else
                          [f for f in vars(x).values()
                           if inspect.isfunction(f)])
    hits = [f.__qualname__ for f in functions
            if "used" in inspect.signature(f).parameters]
    assert len(functions) > 20 and hits == []


def _held(x, seen=None):
    """What a dict (keys and values), tuple or list holds, and what the
    closure cells of a function it holds hold, recursively."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return
    seen.add(id(x))
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _held(k, seen)
            yield from _held(v, seen)
    elif isinstance(x, (tuple, list)):
        for v in x:
            yield from _held(v, seen)
    else:
        yield x
        for cell in getattr(x, "__closure__", None) or ():
            try:
                contents = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            yield from _held(contents, seen)


def test_no_module_level_table_holds_a_function_the_tracer_wraps():
    """The tracer rebinds the module globals that name the functions it
    counts; a function held in a module-level table, or in a closure cell
    of a function held there, would escape it."""
    spec = importlib.util.spec_from_file_location("_gctt_tracer", TRACER)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()
    try:
        hits = [
            f"{modname}.{name}"
            for modname, mod in sorted(sys.modules.items())
            if modname == "gctt" or modname.startswith("gctt.")
            for name, table in vars(mod).items()
            if not name.startswith("__")
            and isinstance(table, (dict, tuple, list))
            for x in _held(table)
            if tracer._originals.get(id(x), tracer) is x
        ]
    finally:
        tracer.uninstall()
    assert tracer._originals and hits == []


def _table_sizes():
    return {f"{modname}.{name}": len(table)
            for modname, mod in sorted(sys.modules.items())
            if modname == "gctt" or modname.startswith("gctt.")
            for name, table in vars(mod).items()
            if not name.startswith("__")
            and isinstance(table, (dict, list, set))}


def test_no_module_level_table_grows_across_invocations(
        corpus_dir, count_calls, capsys):
    """Whatever one `main` call puts in a module-level table it takes out
    before it returns; the fixed-point types it registers go in none."""
    argv = ["check", str(corpus_dir / "zipwith.gctt")]
    assert main(argv) == 0  # warm-up
    sizes = _table_sizes()
    calls = count_calls("register_dfix_type")
    assert main(argv) == 0
    capsys.readouterr()
    assert calls["register_dfix_type"] > 0
    assert _table_sizes() == sizes
