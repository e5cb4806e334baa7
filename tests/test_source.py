"""Properties of the source itself: no failure is hidden by a catch-all
handler, no table is keyed by object identity, only the evaluator reads the
delayed fixed points' type registry, and every field of a host closure is
acted on by interval substitutions."""

import dataclasses
import re
from pathlib import Path

import gctt

SOURCE = Path(gctt.__file__).resolve().parent


def test_no_catch_all_exception_handlers():
    hits = [f"{path.name}:{n}"
            for path in sorted(SOURCE.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"except\s+(Exception|BaseException)\b|except\s*:",
                         line)]
    assert hits == []


def test_syntax_keeps_no_identity_keyed_table():
    text = (SOURCE / "syntax.py").read_text()
    assert re.search(r"\bid\(", text) is None


def test_only_eval_reads_the_dfix_registry():
    hits = [path.name for path in sorted(SOURCE.glob("*.py"))
            if "DFIX_TYPES" in path.read_text()]
    assert hits == ["eval.py"]


def test_no_weak_reference_tables():
    hits = [path.name for path in sorted(SOURCE.glob("*.py"))
            if re.search(r"weakref|WeakKeyDictionary", path.read_text())]
    assert hits == []


def test_host_closures_have_no_field_outside_the_interval_action():
    from gctt.eval import FnClosure

    assert [f.name for f in dataclasses.fields(FnClosure)] == ["fn",
                                                               "captured"]
