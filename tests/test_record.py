"""Records: how terms, values and interval nodes compare, how a record is
built from its declaration, and the memo slots."""

from gctt.eval import (
    NPApp,
    VPair,
    VZero,
    neutral_var,
    support,
)
from gctt.interval import FACE_TOP, IMeet, IVar, face_lit, face_meet
from gctt.parser import parse_term
from gctt.record import fields
from gctt.syntax import Lam, Span, Var, free_names


def test_terms_that_differ_only_in_their_spans_are_equal():
    spanned = Lam(Span(1, 1, 0, 6), "x", None, Var(Span(1, 6, 5, 6), "x"))
    bare = Lam(None, "x", None, Var(None, "x"))
    assert spanned == bare and hash(spanned) == hash(bare)
    assert {spanned: "found"}[bare] == "found"
    assert bare != Lam(None, "y", None, Var(None, "y"))
    assert bare != Var(None, "x") and bare != "x"
    assert repr(spanned) == repr(bare) == (
        "Lam(binder='x', annotation=None, body=Var(name='x'))")


def test_with_span_builds_a_new_node_with_the_span():
    bare = parse_term(r"\x -> x").with_span(None)
    span = Span(2, 3, 10, 16)
    spanned = bare.with_span(span)
    assert spanned is not bare and spanned.span == span
    assert spanned == bare
    assert spanned.field_values[1:] == bare.field_values[1:]
    assert spanned._free_names is None


def test_values_compare_by_identity():
    zero = VZero()
    a, b = VPair(zero, zero), VPair(zero, zero)
    assert a.field_values == b.field_values
    assert a != b and a == a and len({a, b}) == 2


def test_interval_nodes_and_faces_compare_by_structure():
    r, s = IMeet(IVar("i"), IVar("j")), IMeet(IVar("i"), IVar("j"))
    assert r is not s and r == s and hash(r) == hash(s)
    assert r != IMeet(IVar("j"), IVar("i"))
    phi = face_meet(FACE_TOP, face_lit("i", 0))
    assert phi == face_lit("i", 0) and hash(phi) == hash(face_lit("i", 0))


def test_a_record_is_built_from_its_declaration():
    assert [f.name for f in fields(Lam)] == ["span", "binder", "annotation",
                                             "body"]
    assert Lam.__match_args__ == ("span", "binder", "annotation", "body")
    assert Var(name="x") == Var(None, "x") and Var(name="x").span is None
    assert Lam(None).binder == "" and Lam(None).body is None
    v = neutral_var("p")
    assert v.type is None and v.field_values == ("p", None)
    assert repr(v) == "NVar(name='p', type=None)"
    w = NPApp(v, IVar("i"))
    assert w.field_values == (v, IVar("i")) and not hasattr(w, "type")
    assert repr(w) == ("NPApp(fn=NVar(name='p', type=None),"
                       " arg=IVar(name='i'))")


def test_support_and_free_names_return_their_memo():
    v = NPApp(neutral_var("p"), IVar("i"))
    assert v._support is None
    s = support(v)
    assert s == {"i", "p"} and support(v) is s and v._support is s
    t = parse_term(r"<i> \y -> f y @ i")
    assert t._free_names is None
    names = free_names(t)
    assert names == ({"f"}, frozenset())
    assert free_names(t) is names and t._free_names is names
