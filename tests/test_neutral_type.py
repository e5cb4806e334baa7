"""The type of a stuck value (`eval.neutral_type`).

A variable, a probe and a fixed point are given their type; a fixed
point's registered type is instantiated, by `act`, at the environment the
fixed point is evaluated in. An eliminator is built with no type: its type
is derived from its head's, by the eliminator's typing rule, when
something reads it. Nothing counts a derived type in `support`, so the
action's early return must stay sound without it.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import gctt.eval as E
import gctt.syntax as S
from gctt.cli import main
from gctt.eval import (
    FnClosure,
    NApp,
    NComp,
    NFst,
    NNatRec,
    NPApp,
    NSnd,
    NUnglue,
    VGlueT,
    VLam,
    VLaterT,
    VNat,
    VPathT,
    VPi,
    VSigma,
    VUniv,
    VZero,
    ValueClosure,
    act,
    apply_v,
    comp_v,
    eval_term,
    fst_v,
    make_system,
    natrec_v,
    neutral_type,
    neutral_var,
    papp_v,
    readback,
    snd_v,
    support,
    unglue_v,
)
from gctt.interval import IVar, ONE, ZERO, face_lit
from gctt.parser import parse_term

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _recording(calls, result):
    """A host closure that records its arguments and returns `result`."""
    return FnClosure(lambda *args: calls.append(args) or result)


def _printed(v) -> str:
    return S.term_str(S.alpha_canonical(readback(frozenset(), v)))


# ---------------------------------------------------------------------------
# each eliminator derives its type on demand, by the rule it had when eager


def _app(calls):
    cod = VNat()
    f = neutral_var("f", VPi(VUniv(), _recording(calls, cod)))
    return apply_v(f, VZero()), cod, [(VZero(),)]


def _fst(calls):
    first = neutral_var("A", VUniv())
    p = neutral_var("p", VSigma(first, _recording(calls, VNat())))
    return fst_v(p), first, []


def _snd(calls):
    second = VNat()
    p = neutral_var("p", VSigma(VUniv(), _recording(calls, second)))
    return snd_v(p), second, None  # the argument is checked below


def _papp(calls):
    space = neutral_var("A", VUniv())
    p = neutral_var("p", VPathT(space, ValueClosure(neutral_var("a")),
                                ValueClosure(neutral_var("b"))))
    return papp_v(p, IVar("i")), space, []


def _natrec(calls):
    motive_at = VNat()
    motive = VLam(_recording(calls, motive_at))
    n = neutral_var("n", VNat())
    return natrec_v(motive, VZero(), neutral_var("s"), n), motive_at, [(n,)]


def _unglue(calls):
    base = neutral_var("B", VUniv())
    g = neutral_var("g", VGlueT(face_lit("i", 0), neutral_var("T"),
                                neutral_var("e"), base))
    return unglue_v(g), base, []


def _comp(calls):
    # a line of types `L @ k` along a path L from A to B: at 1 it is B
    a, b = neutral_var("A", VUniv()), neutral_var("B", VUniv())
    line_path = neutral_var(
        "L", VPathT(VUniv(), ValueClosure(a), ValueClosure(b)))
    v = comp_v("k", papp_v(line_path, IVar("k")), make_system([]),
               neutral_var("u"))
    return v, b, []


ELIMINATORS = {NApp: _app, NFst: _fst, NSnd: _snd, NPApp: _papp,
               NNatRec: _natrec, NUnglue: _unglue, NComp: _comp}


@pytest.mark.parametrize("cls", list(ELIMINATORS), ids=lambda c: c.__name__)
def test_an_eliminator_derives_its_type_only_when_it_is_read(cls,
                                                             monkeypatch):
    """Building the stuck value applies no closure of its head's type and
    acts on no line; reading its type gives what the eager rule gave, once,
    and reading it again gives the same object."""
    calls, lines = [], []
    line_at = E.line_at
    monkeypatch.setattr(E, "line_at",
                        lambda *args: lines.append(args) or line_at(*args))
    v, expected, args = ELIMINATORS[cls](calls)
    assert type(v) is cls
    assert v._type is None and calls == [] and lines == []
    assert neutral_type(v) is expected
    assert neutral_type(v) is expected  # memoized: nothing runs again
    if cls is NSnd:  # the family applied to the first projection
        (arg,), = calls
        assert isinstance(arg, NFst)
        assert arg.pair is v.pair
    else:
        assert calls == args
    assert len(lines) == (cls is NComp)


def test_a_path_application_at_an_endpoint_reads_the_path_type():
    a, b = neutral_var("a"), neutral_var("b")
    p = neutral_var("p", VPathT(VNat(), ValueClosure(a), ValueClosure(b)))
    assert papp_v(p, ZERO) is a and papp_v(p, ONE) is b
    untyped = neutral_var("q")
    assert neutral_type(papp_v(untyped, ONE)) is None


def test_an_eliminator_of_an_untyped_head_has_no_type():
    v = snd_v(apply_v(neutral_var("f"), VZero()))
    assert neutral_type(v) is None and neutral_type(v) is None


# ---------------------------------------------------------------------------
# a fixed point's registered type is instantiated when it is evaluated


def _register_nat(node):
    E.register_dfix_type(node, frozenset(), VLaterT((), ValueClosure(VNat())))


def test_a_fixed_point_instantiates_its_registered_type_when_it_is_evaluated(
        count_calls):
    node = parse_term("dfix 0 r. r")
    _register_nat(node)
    calls = count_calls("readback", "readback_value", "readback_neutral")
    v = eval_term({}, node)
    ty = v.type
    assert isinstance(ty, VLaterT) and ty.body.apply() is VNat()
    assert neutral_type(v) is ty
    assert isinstance(eval_term({}, node).type, VLaterT)
    assert sum(calls.values()) == 0


def test_a_fixed_point_type_counts_in_the_support():
    """A given type is counted in `support`, variables too, so the action
    rebuilds it; a type registered over a variable and an interval name is
    instantiated at what the environment binds them to."""
    node = parse_term("dfix 0 r. r")
    p = neutral_var("p", VPathT(VUniv(), ValueClosure(neutral_var("a")),
                                ValueClosure(neutral_var("b"))))
    E.register_dfix_type(node, frozenset({"p", "i"}), VLaterT(
        (), ValueClosure(papp_v(p, IVar("i")))))
    v = eval_term({"p": p, "i": IVar("i")}, node)
    assert support(v.closure) == frozenset()
    assert support(v) == {"i", "p", "a", "b"}
    acted = act(v, {"i": ZERO})
    assert _printed(neutral_type(acted)) == "|> a"
    assert _printed(neutral_type(v)) == "|> (p @ i)"
    at_one = eval_term({"p": p, "i": ONE}, node)
    assert _printed(neutral_type(at_one)) == "|> b"
    q = neutral_var("q", p.type)
    assert _printed(eval_term({"p": q, "i": IVar("j")}, node).type) == (
        "|> (q @ j)")
    # a name the type mentions that the environment does not bind
    assert eval_term({"p": p}, node).type is None


def test_a_fixed_point_keeps_the_registration_it_was_evaluated_under():
    """A fixed point evaluated before its node's type is registered has
    none, and one evaluated under a registration keeps its type after the
    node is registered again."""
    node = parse_term("dfix 0 r. r")
    early = eval_term({}, node)
    _register_nat(node)
    late = eval_term({}, node)
    E.register_dfix_type(node, frozenset(), VLaterT((), ValueClosure(VUniv())))
    assert neutral_type(early) is None
    assert _printed(neutral_type(late)) == "|> N"
    assert _printed(neutral_type(eval_term({}, node))) == "|> U"


# ---------------------------------------------------------------------------
# the interval action's early return stays sound


def _neutrals_built_checking(paths, monkeypatch):
    built, stack = [], [E.Neutral]

    def recording(init):
        def record(self, *args):
            init(self, *args)
            built.append(self)
        return record

    while stack:  # every stuck value class, a probe's included
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
    for path in paths:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", str(path)]) == 0, path
    monkeypatch.undo()
    return built


def _bound_and_variables(x, seen=None) -> tuple:
    """The binders of the stuck compositions, and the names of the
    variables, in a value, closure or neutral, or in a tuple or dict of
    these."""
    seen = set() if seen is None else seen
    if id(x) in seen:
        return set(), set()
    seen.add(id(x))
    if isinstance(x, E.Nominal):
        parts = x.field_values
    elif isinstance(x, (tuple, dict)):
        parts = x.values() if isinstance(x, dict) else x
    else:
        return set(), set()
    bound = {x.binder} if isinstance(x, NComp) else set()
    variables = {x.name} if isinstance(x, E.NVar) else set()
    for p in parts:
        b, v = _bound_and_variables(p, seen)
        bound |= b
        variables |= v
    return bound, variables


# lines of function types: the domain's variable of one has a type with a
# name, and the stuck compositions of a round trip along one have types
# that mention the name `k` bound outside their lines
TRANSPORT = """module transport where

transportFn : (A : U) -> (P : Path U A A) -> ((x : A) -> A) -> (x : A) -> A
  = \\A P f -> transp i ((x : P @ i) -> P @ i) f

fnRoundtrip : (A : U) -> (P : Path U A A) -> (f : A -> A)
  -> Path (A -> A) f (transp j ((_ : P @ -j) -> P @ -j)
                        (transp i ((_ : P @ i) -> P @ i) f))
  = \\A P f -> <k> comp j ((_ : P @ (k /\\ -j)) -> P @ (k /\\ -j))
                  [ (k=0) -> f ]
      (comp i ((_ : P @ (k /\\ i)) -> P @ (k /\\ i)) [ (k=0) -> f ] f)
"""


def test_a_derived_type_has_no_name_of_its_own_and_commutes_with_act(
        corpus_dir, tmp_path, monkeypatch):
    """For every stuck value built while checking the positive corpus, the
    generated `guarded` modules of seeds 1 to 3 and transports along
    lines of function types: its type's names are among its own, but for the binders of
    stuck compositions in the type (drawn while deriving it, and bound
    there), so `act` may return it untouched when none of its names is
    substituted; and the type of the acted value is the acted type, for a
    substitution of one of its free interval names by each endpoint."""
    paths = sorted(corpus_dir.glob("*.gctt"))
    for seed in (1, 2, 3):
        workloads.generate("guarded", seed, tmp_path / f"guarded{seed}")
        paths += [tmp_path / f"guarded{seed}" / f"zipwith{k}.gctt"
                  for k in workloads.GUARDED_ARITIES]
    (tmp_path / "transport.gctt").write_text(TRANSPORT, encoding="utf-8")
    paths.append(tmp_path / "transport.gctt")
    built = _neutrals_built_checking(paths, monkeypatch)
    typed = compared = named = 0
    for v in built:
        ty = neutral_type(v)
        if ty is None:
            continue
        typed += 1
        names = support(v)
        extra = support(ty) - names
        ty_bound, ty_variables = _bound_and_variables(ty)
        assert extra <= ty_bound, (v, sorted(extra))
        free = names.difference(*_bound_and_variables(v))
        if not free:
            continue
        named += bool(support(ty) - ty_variables)
        for r in (ZERO, ONE):
            sub = {min(free): r}
            acted = act(v, sub)
            if not isinstance(acted, E.Neutral):
                continue  # it unstuck
            acted_ty = neutral_type(acted)
            assert acted_ty is not None, v
            assert _printed(acted_ty) == _printed(act(ty, sub)), v
            compared += 1
    assert len(built) > 4000 and typed > 3000 and compared > 500
    assert named > 10  # types with interval names
