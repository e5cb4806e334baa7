"""Properties of the source itself: no failure is hidden by a catch-all
handler, no module asks for an object's identity, no table holds the delayed
fixed points' types, no value is read back to be evaluated again, every
field of a host closure is acted on by interval substitutions, conversion
keeps no module-level table and takes no name set, no module-level table
hides a function from the benchmark's tracer, none grows across
invocations, no function rebinds a module global and no module numbers
names from a counter of its own, the source keeps to the oldest Python the
package declares, records are made one way, and every node is a slotted
record that no code writes to after building it but through its memo
slots."""

import ast
import importlib.util
import inspect
import itertools
import re
import sys
from pathlib import Path

import gctt
import gctt.cli  # noqa: F401  (loads every gctt module)
from gctt.cli import main
from gctt.record import Record, fields

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


def _readback_callers(path) -> list:
    """The top-level function or method around each call of a readback
    function (`readback`, `readback_value`, ...) in a module."""
    callers = []
    for top in ast.parse(path.read_text()).body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            callers += [fn.name for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and re.fullmatch(r"_?readback\w*", node.func.id)]
    return sorted(set(callers))


def test_no_value_is_read_back_to_be_evaluated_again():
    """The evaluator substitutes and instantiates values by acting on them,
    never by printing them: in `gctt.eval` only the readback functions call
    one, and in `gctt.typechecker` only `_show`, which prints a value in a
    diagnostic, and `abstract`, which turns a value into a term closure."""
    in_eval = _readback_callers(SOURCE / "eval.py")
    assert in_eval and all("readback" in name for name in in_eval), in_eval
    assert _readback_callers(SOURCE / "typechecker.py") == ["_show",
                                                            "abstract"]


def test_records_are_made_one_way():
    """Every record is a `gctt.record.Record` class: no module imports
    `dataclasses`."""
    hits = [f"{path.name}:{node.lineno}"
            for path in sorted(SOURCE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.module == "dataclasses"]
    assert hits == []


def test_no_weak_reference_tables():
    hits = [path.name for path in sorted(SOURCE.glob("*.py"))
            if re.search(r"weakref|WeakKeyDictionary", path.read_text())]
    assert hits == []


def test_host_closures_have_no_field_outside_the_interval_action():
    from gctt.eval import FnClosure
    from gctt.record import fields

    assert [f.name for f in fields(FnClosure)] == ["fn", "captured"]


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


def _record_classes():
    """Every record class gctt defines: its values, neutrals, closures,
    terms, interval expressions and faces, and a module's declarations."""
    return [cls for modname, mod in sorted(sys.modules.items())
            if modname.startswith("gctt.")
            for cls in vars(mod).values()
            if isinstance(cls, Record) and cls.__module__ == modname]


def test_no_node_is_written_through_object_setattr_or_read_through_dict():
    hits = [f"{path.name}:{n}"
            for path in sorted(SOURCE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"object\.__setattr__|__dict__|\b(set|del)attr\(",
                         line)]
    assert hits == []


def test_the_evaluator_looks_up_no_function_by_a_string_in_its_globals():
    """`gctt.eval` calls its builders from code compiled per class, which
    names them, not through `globals()`."""
    assert "globals()[" not in (SOURCE / "eval.py").read_text()


def test_every_node_class_is_slotted():
    """Each record class and each of its bases declares `__slots__`, so
    that no instance has a `__dict__`."""
    classes = _record_classes()
    assert len(classes) > 60
    for cls in classes:
        assert all("__slots__" in vars(k) for k in cls.__mro__[:-1]), cls
        node = cls(*[None] * len(fields(cls)))
        assert not hasattr(node, "__dict__"), cls


# the function that memoizes each memo slot, the only one that writes it
MEMO_WRITERS = {"_support": "support", "_free_names": "free_names",
                "_captured": "capture", "_dfix_type": "register_dfix_type",
                "_type": "neutral_type", "_ends": "path_end",
                "_unfolded": "unfold"}


def _attribute_writes(tree):
    """(enclosing class, enclosing function, target, line) of each
    assignment to or deletion of an attribute."""
    out = []

    def walk(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(
                    child.ctx, (ast.Store, ast.Del)):
                out.append((cls, fn, child, child.lineno))
            if isinstance(child, ast.ClassDef):
                walk(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, cls, child.name)
            else:
                walk(child, cls, fn)

    walk(tree, None, None)
    return out


def test_no_code_assigns_a_node_field():
    """Records are immutable by this rule, not by a `__setattr__`: only the
    generated `__init__`, which is not in the source, sets a field.  A
    statement may assign an attribute named like a field or memo slot only
    as `self.<name>` in a class that is not a record, or as the memo slot
    in the one function that memoizes it."""
    classes = _record_classes()
    records = {cls.__name__ for cls in classes}
    names = {f.name for cls in classes for f in fields(cls)}
    memos = {m for cls in classes for m in cls.__record_memos__}
    assert memos == set(MEMO_WRITERS)
    hits, written = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        for cls, fn, target, line in _attribute_writes(
                ast.parse(path.read_text())):
            attr = target.attr
            written.add(attr)
            if attr in memos:
                ok = fn == MEMO_WRITERS[attr]
            elif attr in names:
                ok = (cls is not None and cls not in records
                      and isinstance(target.value, ast.Name)
                      and target.value.id == "self")
            else:
                ok = True
            if not ok:
                hits.append(f"{path.name}:{line}:{attr}")
    assert hits == [] and memos <= written
