"""Growth of the work normalization, renaming and parsing do with the size
of their input.

Call counts do not depend on the machine's speed. Each family of terms
below is linear in its size n; it is normalized at n and 2n, and the ratio
of the calls each counted function gets at 2n to those at n is bounded.
The glue, path and Pi families are the `kan_normalize` benchmark's
builders; an application chain nests `(\\(x : N) -> x) (...)`. One
check of a corpus module has a bound on its evaluations too, and checking
nested systems a bound on their growth. Renaming a
term apart and parsing a module are bounded the same way, by the Python
calls they make, counted with `sys.setprofile`.
"""

import sys
from pathlib import Path

import pytest

import gctt.eval as E
import gctt.parser
from gctt.cli import Loader, main
from gctt.parser import parse_module, parse_term
from gctt.syntax import rename_apart, term_str
from gctt.typechecker import Ctx

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

COUNTED = ("eval_term", "comp_v", "readback_value")
SIZES = (8, 16)
MAX_GROWTH = 2.2


def _applications(n):
    t = "0"
    for _ in range(n):
        t = f"(\\(x : N) -> x) ({t})"
    return t, "0"


FAMILIES = {
    "glue": lambda n: workloads.glue_roundtrips(n, 5),
    "paths": lambda n: workloads.path_chain(["inv", "transitivity"] * (n // 2),
                                            5, 0),
    "pi": lambda n: workloads.pi_transport([m % 10 for m in range(n)],
                                           n // 2),
    "applications": _applications,
}


@pytest.fixture(scope="module")
def kan(tmp_path_factory):
    """The checker and context of the benchmark's Kan prelude."""
    path = tmp_path_factory.mktemp("kan") / "kan.gctt"
    path.write_text(workloads.KAN_PRELUDE, encoding="utf-8")
    loader = Loader([])
    ctx = Ctx()
    for name, (ty, val) in loader.load(path).table.items():
        ctx = ctx.define(name, ty, val)
    return loader.checker, ctx


def _calls(kan, calls: dict, source: str, expected: str) -> dict:
    """The calls counted in `calls` while `source` is normalized as
    `normalize --expr` does: renamed apart from the context, its type
    inferred, and it evaluated and read back at that type."""
    checker, ctx = kan
    before = dict(calls)
    term = rename_apart(parse_term(source), ctx.env)
    ty = checker.infer(ctx, term)
    normal = E.readback(frozenset(ctx.used), E.eval_term(ctx.env, term), ty)
    assert term_str(normal) == expected
    return {name: calls[name] - before[name] for name in calls}


@pytest.mark.parametrize("family", FAMILIES)
def test_normalization_work_grows_linearly(kan, count_calls, family):
    calls = count_calls(*COUNTED)
    small, large = (_calls(kan, calls, *FAMILIES[family](n)) for n in SIZES)
    for name in COUNTED:
        assert large[name] <= MAX_GROWTH * max(small[name], 1), (
            f"{family}: {name} {small[name]} -> {large[name]} calls")


def test_a_check_evaluates_each_application_once(count_calls, corpus_dir,
                                                 capsys):
    """A declaration's β-reductions are shared (`eval.FUEL.memo`): checking
    zipwith evaluates 4956 terms, where applying each closure anew at every
    use took 7718."""
    calls = count_calls("eval_term")
    assert main(["check", str(corpus_dir / "zipwith.gctt")]) == 0
    assert calls["eval_term"] <= 6000


def _nested_systems(k):
    """`x : N = [ (1=1) -> [ (1=1) -> ... 0 ] ]`, k systems deep, in the
    module `nested<k>`."""
    return (f"module nested{k} where\nx : N = " + "[ (1=1) -> " * k + "0"
            + " ]" * k)


def test_checking_nested_systems_grows_linearly(count_calls, tmp_path,
                                                capsys):
    """A system's branch is evaluated only to compare it with a branch
    whose face overlaps its own: evaluating every branch after checking it
    evaluated the innermost one once per enclosing system, quadratic in the
    depth."""
    calls = count_calls("eval_term")
    counts = []
    for k in (100, 200):
        path = tmp_path / f"nested{k}.gctt"
        path.write_text(_nested_systems(k), encoding="utf-8")
        before = calls["eval_term"]
        assert main(["check", str(path)]) == 0
        counts.append(calls["eval_term"] - before)
    small, large = counts
    assert large <= MAX_GROWTH * small, f"{small} -> {large} calls"


def _python_calls(fn, *args, where=None) -> int:
    """The Python-level calls `fn(*args)` makes, those into the source file
    `where` only if given."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and (where is None
                                or frame.f_code.co_filename == where):
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _shadowed(n):
    """`\\(x : N) -> \\(x : N) -> suc (... x)`, n `suc`s deep: renaming it
    apart renames the inner `x` and every node down to its occurrence."""
    return parse_term("\\(x : N) -> \\(x : N) -> " + "suc (" * n + "x"
                      + ")" * n)


def test_renaming_apart_grows_linearly():
    """A rebuilt node is compared with the original part by part, each
    subterm by identity: comparing them structurally walked down to the
    renamed occurrence at every level, quadratic in the depth."""
    small, large = (_python_calls(rename_apart, _shadowed(n), frozenset())
                    for n in (200, 400))
    assert large <= MAX_GROWTH * small, f"{small} -> {large} calls"


def _chain_module(n):
    """`d0 : N = 0` and then `d_k : N = suc d_(k-1)`, n declarations."""
    decls = ["d0 : N = 0"] + [f"d{k} : N = suc d{k - 1}" for k in range(1, n)]
    return "module m where\n" + "\n".join(decls)


def test_parsing_work_grows_linearly():
    small, large = (_python_calls(parse_module, _chain_module(n),
                                  where=gctt.parser.__file__)
                    for n in (100, 200))
    assert large <= MAX_GROWTH * small, f"{small} -> {large} calls"
