"""Properties of the source itself: no failure is hidden by a catch-all
handler, the syntax keeps no table keyed by object identity, and only the
evaluator reads the delayed fixed points' type registry."""

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
