"""The β-reduction memo (`eval.FUEL.memo`): what it shares, how long it
lives, and that it changes no output.

A check opens one memo for each declaration and drops it when the
declaration is done; outside a check there is none. The memo is owned by
the check, not by a closure, so dropping it frees its values by reference
counting rather than leaving a cycle for the garbage collector.
"""

import gc
import sys
from pathlib import Path

import pytest

import gctt.eval as E
import gctt.syntax as S
from gctt.cli import main
from gctt.parser import parse_module

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
    of `gStr`) is recorded with the memo it ran under. Within one
    declaration they give one object, `gStr`'s application kept folded
    (`VDef`), so conversion stops at its `a is b` test and whatever unfolds
    it unfolds it once; two declarations give two objects."""
    path = tmp_path / "twice.gctt"
    path.write_text(TWICE, encoding="utf-8")
    seen = []
    apply_v = E.apply_v

    def recording(fn, arg):
        res = apply_v(fn, arg)
        if isinstance(fn, E.VDef) and isinstance(fn.base.closure.body,
                                                 S.Fix):  # gStr's body
            seen.append((E.FUEL.memo, res))
        return res

    monkeypatch.setattr(E, "apply_v", recording)
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    first = []  # (memo, the first value evaluated under it)
    for memo, res in seen:
        assert memo is not None and isinstance(res, E.VDef)
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


def test_a_check_leaves_little_cyclic_garbage(capsys, corpus_dir, tmp_path):
    """The values a check builds are freed by reference counting when its
    memo is dropped: a check of a positive corpus module or of a positive
    `guarded` module of seed 1 leaves no object for the cyclic collector.
    A memo kept on each lambda's closure left 6939 after zipwith, and the
    probes of later comparisons, each of which kept its pairing and through
    it the other probes alive, 1630."""
    root = tmp_path / "guarded1"
    items = workloads.generate("guarded", 1, root)
    paths = sorted(corpus_dir.glob("*.gctt")) + [
        root / item["argv"][1] for item in items
        if item["expect"]["exit"] == 0]
    left = {}
    for path in paths:
        run(capsys, "check", str(path))  # warm up the caches on nodes
        gc.collect()
        gc.disable()
        try:
            code, _, _ = run(capsys, "check", str(path))
            left[path.name] = gc.collect()
        finally:
            gc.enable()
        assert code == 0, path
    assert len(left) == 12 and set(left.values()) == {0}, left


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
