"""The β-reduction memo (`eval.FUEL.memo`): what it shares, how long it
lives, and that it changes no output.

A check opens one memo for each declaration and drops it when the
declaration is done; outside a check there is none. The memo is owned by
the check, not by a closure, so dropping it frees its values by reference
counting rather than leaving a cycle for the garbage collector.
"""

import gc
import sys

import pytest

import gctt.eval as E
import gctt.syntax as S
from gctt.cli import main
from gctt.parser import parse_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TWICE = """module twice where

StrF : (A : U) -> (|> U) -> U = \\A x -> A * |> [y <- x] y

gStr : U -> U = \\A -> fix 0 x. StrF A x

A : U = N

d1 : gStr A -> gStr A = \\s -> s

d2 : gStr A -> gStr A = \\s -> s
"""


def test_a_declaration_evaluates_an_application_once(capsys, monkeypatch,
                                                     tmp_path):
    """Each evaluation of `gStr A` (in `d1` and `d2`: the only applications
    of a lambda whose body is a `fix`) is recorded with the memo it ran
    under. Within one declaration they give one object, so conversion
    stops at its `a is b` test; two declarations give two objects."""
    path = tmp_path / "twice.gctt"
    path.write_text(TWICE, encoding="utf-8")
    seen = []
    apply_v = E.apply_v

    def recording(fn, arg):
        res = apply_v(fn, arg)
        if isinstance(fn, E.VLam) and isinstance(fn.closure.body, S.Fix):
            seen.append((E.FUEL.memo, res))
        return res

    monkeypatch.setattr(E, "apply_v", recording)
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    first = []  # (memo, the first value evaluated under it)
    for memo, res in seen:
        assert memo is not None
        if not any(m is memo for m, _ in first):
            first.append((memo, res))
        assert next(r for m, r in first if m is memo) is res
    assert len(first) == 2 and len(seen) >= 4
    assert first[0][1] is not first[1][1]


@pytest.mark.parametrize("name", ["zipwith.gctt",
                                  "negative/boundary_violation.gctt"])
def test_no_memo_outlives_a_check(capsys, corpus_dir, name):
    code, _, _ = run(capsys, "check", str(corpus_dir / name))
    assert code == (1 if name.startswith("negative") else 0)
    assert E.FUEL.memo is None


def test_the_memo_is_suspended_while_a_fixed_point_type_is_read_back(
        capsys, monkeypatch, corpus_dir):
    """Values evaluated while a registered type is forced lack that type,
    so none of them is kept; the memo is back once the type is read."""
    inside, around = [], []
    readback, dfix_type_term = E.readback, E._dfix_type_term

    def recording_readback(*args):
        if sys._getframe(1).f_code is dfix_type_term.__code__:
            inside.append(E.FUEL.memo)
        return readback(*args)

    def recording_dfix_type_term(entry):
        memo = E.FUEL.memo
        res = dfix_type_term(entry)
        around.append((memo, E.FUEL.memo is memo))
        return res

    monkeypatch.setattr(E, "readback", recording_readback)
    monkeypatch.setattr(E, "_dfix_type_term", recording_dfix_type_term)
    code, _, err = run(capsys, "check", str(corpus_dir / "zipwith.gctt"))
    assert (code, err) == (0, "")
    assert inside and all(memo is None for memo in inside)
    assert all(restored for _, restored in around)
    assert any(memo is not None for memo, _ in around)


def test_a_check_leaves_little_cyclic_garbage(capsys, corpus_dir):
    """The values a check builds are freed by reference counting when its
    memo is dropped. One zipwith check leaves 2055 objects for the cyclic
    collector (a memo kept on each lambda's closure left 6939)."""
    path = str(corpus_dir / "zipwith.gctt")
    run(capsys, "check", path)  # warm up the caches that live on nodes
    gc.collect()
    gc.disable()
    try:
        code, _, _ = run(capsys, "check", path)
        left = gc.collect()
    finally:
        gc.enable()
    assert code == 0
    assert left <= 3000


def _outputs(corpus_dir, capsys) -> list:
    """Exit code, stdout and stderr of `check` on every corpus module and
    of `normalize` on every declaration of the positive ones."""
    runs = []
    for path in sorted(corpus_dir.glob("**/*.gctt")):
        runs.append(("check", str(path)))
        if path.parent == corpus_dir:
            module = parse_module(path.read_text(encoding="utf-8"))
            runs.extend(("normalize", str(path), decl.name)
                        for decl in module.declarations)
    return [(argv, *run(capsys, *argv)) for argv in runs]


def test_the_memo_changes_no_output(capsys, monkeypatch, corpus_dir):
    with_memo = _outputs(corpus_dir, capsys)
    # a class property shadows the instance's slot: the memo stays None
    monkeypatch.setattr(type(E.FUEL), "memo",
                        property(lambda self: None, lambda self, v: None),
                        raising=False)
    assert E.FUEL.memo is None
    without = _outputs(corpus_dir, capsys)
    assert len(with_memo) >= 50
    for a, b in zip(with_memo, without, strict=True):
        assert a == b, a[0]
