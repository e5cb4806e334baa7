"""Term syntax: substitution, free names, alpha-canonical forms."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gctt.interval import (
    FACE_BOT,
    FACE_TOP,
    IJoin,
    IMeet,
    INeg,
    IVar,
    ONE,
    ZERO,
    face_join,
    face_lit,
    face_meet,
    inames,
)
from gctt.record import fields
from gctt.syntax import (
    _SCHEME,
    BINDER,
    DS,
    IBINDER,
    SYSTEM,
    TERM,
    App,
    Comp,
    DFix,
    Fix,
    Fst,
    GlueIntro,
    GlueT,
    Lam,
    LaterT,
    Nat,
    NatRec,
    Next,
    PApp,
    PLam,
    Pair,
    PathT,
    Pi,
    Sigma,
    Snd,
    Span,
    Suc,
    SystemTerm,
    Term,
    Unglue,
    Univ,
    Var,
    Zero,
    alpha_canonical,
    free_names,
    rename_apart,
    same_term,
    subst_interval,
    subst_term,
    term_str,
)


def v(x):
    return Var(name=x)


# ---------------------------------------------------------------------------
# subst_term


def test_subst_var():
    assert subst_term(v("x"), "x", v("u")) == v("u")


def test_subst_avoids_capture():
    t = Lam(None, "y", None, v("x"))
    got = subst_term(t, "x", v("y"))
    assert isinstance(got, Lam)
    assert got.binder != "y"
    assert got.body == v("y")


def test_subst_under_delayed_substitution():
    t = Next(None, (("z", v("x")),), v("z"))
    assert subst_term(t, "x", v("t")) == Next(None, (("z", v("t")),), v("z"))


def test_subst_shadowed_binder():
    t = Lam(None, "x", None, v("x"))
    assert subst_term(t, "x", v("u")) == t


def test_subst_ds_binder_shadows_body_not_entries():
    t = Next(None, (("x", v("x")),), v("x"))
    got = subst_term(t, "x", v("u"))
    assert got == Next(None, (("x", v("u")),), v("x"))


def test_subst_ds_binder_renamed_on_capture():
    t = Next(None, (("y", v("a")),), App(None, v("x"), v("y")))
    got = subst_term(t, "x", v("y"))
    (b, entry), = got.subst
    assert entry == v("a") and b != "y"
    assert got.body == App(None, v("y"), v(b))


def test_subst_renames_the_binders_of_one_node_apart():
    # both binders capture; fresh_name gives y and y1 the same base
    t = Next(None, (("y", v("a")), ("y1", v("b"))),
             App(None, App(None, v("x"), v("y")), v("y1")))
    got = subst_term(t, "x", App(None, v("y"), v("y1")))
    (b1, _), (b2, _) = got.subst
    assert len({b1, b2, "y", "y1"}) == 4
    assert got.body == App(None, App(None, App(None, v("y"), v("y1")), v(b1)),
                           v(b2))


def test_term_substitution_renames_a_capturing_interval_binder():
    t = PLam(None, "i", App(None, v("x"), v("y")))
    got = subst_term(t, "x", PApp(None, v("p"), IVar("i")))
    assert got.binder != "i"
    assert free_names(got) == (frozenset({"p", "y"}), frozenset({"i"}))


# Each binding former, as a way to wrap a body under a binder of the given
# name, with the occurrence of that name in the binder's name space.
def _interval_occurrence(i):
    return PApp(None, v("p"), IVar(i))


BINDING_FORMERS = {
    Lam: (lambda x, b: Lam(None, x, None, b), v),
    Pi: (lambda x, b: Pi(None, x, Nat(), b), v),
    Sigma: (lambda x, b: Sigma(None, x, Nat(), b), v),
    LaterT: (lambda x, b: LaterT(None, ((x, v("a")),), b), v),
    Next: (lambda x, b: Next(None, ((x, v("a")),), b), v),
    DFix: (lambda x, b: DFix(None, ZERO, x, b), v),
    Fix: (lambda x, b: Fix(None, ZERO, x, b), v),
    PLam: (lambda i, b: PLam(None, i, b), _interval_occurrence),
    Comp: (lambda i, b: Comp(None, i, b, SystemTerm(None, ()), Zero()),
           _interval_occurrence),
}


def test_binding_formers_cover_every_former_with_a_binder():
    binding = {cls for cls in Term.__subclasses__()
               if any(f.metadata.get("kind") in (BINDER, IBINDER, DS)
                      for f in fields(cls))}
    assert set(BINDING_FORMERS) == binding


@pytest.mark.parametrize("inner", BINDING_FORMERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("outer", BINDING_FORMERS, ids=lambda c: c.__name__)
def test_renamed_binder_is_not_captured_by_an_inner_binder(outer, inner):
    # putting in a free y renames the outer binder y to y1, so the inner
    # binder already named y1 must be renamed in turn
    wrap, occurrence = BINDING_FORMERS[outer]
    wrap_inner, _ = BINDING_FORMERS[inner]
    t = wrap("y", App(None, App(None, v("x"), _interval_occurrence("j")),
                      wrap_inner("y1", occurrence("y"))))
    for sub in (lambda t: subst_term(t, "x", occurrence("y")),
                lambda t: subst_interval(t, "j", IVar("y"))):
        # alpha_canonical(t) has no binder that a free y could meet
        assert alpha_canonical(sub(t)) == alpha_canonical(
            sub(alpha_canonical(t)))


# random terms drawn from every term former; the suffixed names are those
# fresh_name picks, so that a renamed binder can meet one already there

name_st = st.sampled_from(["x", "y", "z", "i", "y1", "i1"])
iname_st = st.sampled_from(["i", "j", "k", "i1", "j1"])


def iexpr_of(inames):
    return st.recursive(
        st.one_of(inames.map(IVar), st.just(ZERO), st.just(ONE)),
        lambda sub: st.one_of(
            sub.map(INeg),
            st.tuples(sub, sub).map(lambda t: IMeet(*t)),
            st.tuples(sub, sub).map(lambda t: IJoin(*t)),
        ),
        max_leaves=3,
    )


def face_of(inames):
    return st.one_of(
        st.just(FACE_BOT), st.just(FACE_TOP),
        st.tuples(inames, st.sampled_from([0, 1])).map(
            lambda t: face_lit(*t)),
        st.tuples(inames, inames).map(
            lambda t: face_join(face_lit(t[0], 1),
                                face_meet(face_lit(t[0], 0),
                                          face_lit(t[1], 1)))),
    )


iexpr_st = iexpr_of(iname_st)
face_st = face_of(iname_st)


def leaves(names):
    return {
        Var: names.map(v),
        Zero: st.just(Zero()),
        Nat: st.just(Nat()),
        Univ: st.just(Univ()),
    }


def formers(sub, names=name_st, inames=iname_st):
    """One strategy for each term former with fields."""
    iexpr, face = iexpr_of(inames), face_of(inames)
    opt = st.none() | sub
    system = st.lists(st.tuples(face, sub), max_size=2).map(tuple)
    ds = st.lists(st.tuples(names, sub), max_size=3).map(tuple)
    return {
        Lam: st.builds(Lam, st.none(), names, opt, sub),
        App: st.builds(App, st.none(), sub, sub),
        Pi: st.builds(Pi, st.none(), names, sub, sub),
        Sigma: st.builds(Sigma, st.none(), names, sub, sub),
        Pair: st.builds(Pair, st.none(), sub, sub),
        Fst: st.builds(Fst, st.none(), sub),
        Snd: st.builds(Snd, st.none(), sub),
        Suc: st.builds(Suc, st.none(), sub),
        NatRec: st.builds(NatRec, st.none(), sub, sub, sub, sub),
        PLam: st.builds(PLam, st.none(), inames, sub),
        PApp: st.builds(PApp, st.none(), sub, iexpr),
        PathT: st.builds(PathT, st.none(), sub, sub, sub),
        SystemTerm: st.builds(SystemTerm, st.none(), system),
        Comp: st.builds(Comp, st.none(), inames, sub,
                        st.builds(SystemTerm, st.none(), system), sub),
        # in the shapes the parser builds: no partial term iff the head is
        # `[]`, and a Glue type has an equivalence iff it has a partial type
        GlueT: st.builds(GlueT, st.none(), st.just(FACE_BOT), st.none(),
                         st.none(), sub)
        | st.builds(GlueT, st.none(), face, sub, sub, sub),
        GlueIntro: st.builds(GlueIntro, st.none(), st.just(FACE_BOT),
                             st.none(), sub)
        | st.builds(GlueIntro, st.none(), face, sub, sub),
        Unglue: st.builds(Unglue, st.none(), sub),
        LaterT: st.builds(LaterT, st.none(), ds, sub),
        Next: st.builds(Next, st.none(), ds, sub),
        DFix: st.builds(DFix, st.none(), iexpr, names, sub),
        Fix: st.builds(Fix, st.none(), iexpr, names, sub),
    }


def term_st(names=name_st, inames=iname_st):
    return st.recursive(
        st.one_of(*leaves(names).values()),
        lambda sub: st.one_of(*formers(sub, names, inames).values()),
        max_leaves=12,
    )


def test_generator_draws_every_term_former():
    drawn = set(leaves(name_st)) | set(formers(st.nothing()))
    assert drawn == set(Term.__subclasses__())


@given(term_st(), term_st(), term_st())
@settings(max_examples=250)
def test_substitution_lemma(t, u_, v_):
    # t[u/x][v/y] == t[v/y][u[v/y]/x] when x not free in v and x != y
    x, y = "x", "y"
    assume(x not in free_names(v_)[0])
    lhs = subst_term(subst_term(t, x, u_), y, v_)
    rhs = subst_term(subst_term(t, y, v_), x, subst_term(u_, y, v_))
    assert alpha_canonical(lhs) == alpha_canonical(rhs)


@given(term_st(), name_st, term_st())
@settings(max_examples=200)
def test_subst_term_free_names(t, x, u_):
    (fvs, fis), (ufvs, ufis) = free_names(t), free_names(u_)
    got = subst_term(t, x, u_)
    if x not in fvs:
        assert got == t
    else:
        assert free_names(got) == ((fvs - {x}) | ufvs, fis | ufis)


@given(term_st(), iname_st, st.one_of(iexpr_st, st.just(IVar("l"))))
@settings(max_examples=200)
def test_subst_interval_free_names(t, i, r):
    fvs, fis = free_names(t)
    got = subst_interval(t, i, r)
    if i not in fis:
        assert got == t
    else:
        # faces may simplify away names, unless r is a name new to t
        got_fvs, got_fis = free_names(got)
        assert got_fvs == fvs and got_fis <= (fis - {i}) | inames(r)
        if r == IVar("l"):
            assert got_fis == (fis - {i}) | {"l"}


# Variables as the only leaves, mostly binding formers and few names, none of which is a canonical
# name (x0, x1, ..., i0, i1, ...), so that binders often shadow one another
# and fresh_name's choice is often a binder further in.  Substituting into
# alpha_canonical(t) renames nothing, because no free name of what is put in
# can meet its binders.
few_names = st.sampled_from(["x", "y", "y1"])
few_inames = st.sampled_from(["j", "k", "k1"])
SHADOWING = (Lam, Pi, Sigma, PLam, Comp, LaterT, Next, DFix, App, PApp)
shadowing_st = st.recursive(
    few_names.map(v),
    lambda sub: st.one_of(*(strategy for cls, strategy in formers(
        sub, few_names, few_inames).items() if cls in SHADOWING)),
    max_leaves=12,
)


@given(shadowing_st, few_names.map(v) | shadowing_st)
@settings(max_examples=300)
def test_term_substitution_respects_alpha_equivalence(t, u_):
    got = subst_term(t, "x", u_)
    want = subst_term(alpha_canonical(t), "x", u_)
    assert alpha_canonical(got) == alpha_canonical(want)


@given(shadowing_st, iexpr_of(few_inames))
@settings(max_examples=300)
def test_interval_substitution_respects_alpha_equivalence(t, r):
    got = subst_interval(t, "j", r)
    want = subst_interval(alpha_canonical(t), "j", r)
    assert alpha_canonical(got) == alpha_canonical(want)


# ---------------------------------------------------------------------------
# rename_apart


def shadows(t, scope: frozenset) -> bool:
    """Whether a binder of t, of either name space, shadows a name in
    `scope` or one bound around it."""
    inner = {}
    for name, kind, under, _ in _SCHEME.get(type(t), ()):
        value = getattr(t, name)
        if kind is BINDER or kind is IBINDER:
            if value in scope:
                return True
            inner[name] = scope | {value}
        elif kind is DS:
            bound = scope
            for x, u in value:
                if shadows(u, scope) or x in bound:
                    return True
                bound |= {x}
            inner[name] = bound
        elif kind is TERM and value is not None:
            if shadows(value, inner[under] if under else scope):
                return True
        elif kind is SYSTEM and any(shadows(u, scope) for _, u in value):
            return True
    return False


def test_shadows_sees_each_name_space_and_ds_binders():
    ident = Lam(None, "x", None, v("x"))
    assert shadows(Lam(None, "i", None, v("i")), frozenset({"i"}))
    assert shadows(PLam(None, "x", ident), frozenset())
    assert shadows(Next(None, (("x", v("a")), ("x", v("b"))), v("x")),
                   frozenset())
    # an entry lies outside the binders, and siblings do not shadow
    assert not shadows(Next(None, (("x", ident),), v("x")), frozenset())
    assert not shadows(App(None, ident, ident), frozenset())


avoid_st = st.frozensets(st.sampled_from(["x", "y", "z", "i", "j", "y1",
                                          "i1", "i2"]), max_size=4)


@given(term_st(), avoid_st)
@settings(max_examples=300)
def test_rename_apart(t, avoid):
    got = rename_apart(t, avoid)
    assert alpha_canonical(got) == alpha_canonical(t)
    assert free_names(got) == free_names(t)
    assert not shadows(got, avoid)
    if not shadows(t, avoid):
        assert got is t


def test_rename_apart_keeps_what_it_does_not_rename():
    inner = Lam(None, "y", None, v("y"))
    t = App(None, Lam(None, "x", None, App(None, v("x"), inner)), inner)
    got = rename_apart(t, {"x"})
    assert got.fn.binder != "x" and got.fn.body.arg is inner
    assert got.arg is inner


def test_rename_apart_rebuilds_only_where_it_renames(corpus_dir, tmp_path,
                                                    monkeypatch, capsys):
    """Over every renaming the checker asks for on the positive corpus and
    the generated `guarded` modules, `rename_apart` returns the term itself
    where it renames nothing, and otherwise what the full rebuild, with no
    shadowing test before it, returns."""
    import sys
    from pathlib import Path

    import gctt.syntax as S
    from gctt.cli import main

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "perfbench"))
    import workloads

    calls = []
    plain = S.rename_apart

    def recording(t, avoid):
        calls.append((t, frozenset(avoid)))
        return plain(t, avoid)

    items = workloads.generate("guarded", 1, tmp_path / "guarded")
    paths = sorted(corpus_dir.glob("*.gctt")) + [
        tmp_path / "guarded" / item["argv"][1] for item in items
        if item["expect"]["exit"] == 0]
    monkeypatch.setattr(S, "rename_apart", recording)
    for path in paths:
        assert main(["check", str(path)]) == 0, path
    monkeypatch.undo()
    capsys.readouterr()
    got = [plain(t, avoid) for t, avoid in calls]
    monkeypatch.setattr(S, "_shadows", lambda t, avoid: True)
    full = [plain(t, avoid) for t, avoid in calls]
    for (t, avoid), g, f in zip(calls, got, full):
        renames = shadows(t, avoid)
        assert (g is not t) == (f is not t) == renames
        assert g == f
    unchanged = sum(g is t for (t, _), g in zip(calls, got))
    assert 0 < unchanged < len(calls)


def test_same_term_is_structural_equality_and_takes_no_stack_per_level():
    def numeral(n, span=None):
        t = Zero()
        for _ in range(n):
            t = Suc(span, t)
        return t

    # `==` on terms this deep overflows the C stack
    deep = 100_000
    assert same_term(numeral(deep), numeral(deep, Span(1, 1, 0, 1)))
    assert not same_term(numeral(deep), numeral(deep - 1))
    pairs = [(Next(None, (("x", v("a")),), v("x")),
              Next(None, (("y", v("a")),), v("y"))),
             (SystemTerm(None, ((face_lit("i", 0), v("a")),)),
              SystemTerm(None, ((face_lit("i", 1), v("a")),))),
             (Lam(None, "x", None, v("x")), Lam(None, "x", Nat(), v("x"))),
             (PApp(None, v("p"), IVar("i")), PApp(None, v("p"), ZERO))]
    for a, b in pairs:
        assert same_term(a, a) and not same_term(a, b) and a != b


# ---------------------------------------------------------------------------
# subst_interval


def test_isubst_papp():
    t = PApp(None, v("p"), IVar("i"))
    assert subst_interval(t, "i", ZERO) == PApp(None, v("p"), ZERO)


def test_isubst_dfix_clock():
    t = DFix(None, IVar("i"), "x", PApp(None, v("p"), IVar("i")))
    got = subst_interval(t, "i", ONE)
    assert got.clock == ONE
    assert got.body == PApp(None, v("p"), ONE)


def test_isubst_comp_binder_shadows():
    t = Comp(
        None, "j",
        PathT(None, Nat(), v("a"), v("b")),
        SystemTerm(None, ((face_lit("i", 1), v("u")),)),
        PApp(None, v("p"), IVar("i")),
    )
    got = subst_interval(t, "i", ZERO)
    assert got.base == PApp(None, v("p"), ZERO)
    assert got.tube == SystemTerm(None, ((FACE_BOT, v("u")),))


def test_isubst_plam_shadowing():
    t = PLam(None, "i", PApp(None, v("p"), IVar("i")))
    assert subst_interval(t, "i", ONE) == t


def test_isubst_identity():
    t = PLam(None, "j", PApp(None, v("p"), IMeet(IVar("i"), IVar("j"))))
    assert subst_interval(t, "i", IVar("i")) == t


# ---------------------------------------------------------------------------
# free_names


def test_free_names_lam():
    assert free_names(Lam(None, "x", None, v("x"))) == (frozenset(), frozenset())


def test_free_names_plam():
    t = PLam(None, "i", PApp(None, v("p"), IMeet(IVar("i"), IVar("j"))))
    assert free_names(t) == (frozenset({"p"}), frozenset({"j"}))


def test_free_names_later_binder_not_free():
    t = LaterT(None, (("x", v("t")),), v("A"))
    fvs, _ = free_names(t)
    assert "x" not in fvs and {"t", "A"} <= fvs


def test_free_names_entry_outside_earlier_binders():
    t = Next(None, (("a", v("z")), ("b", v("a"))), v("b"))
    assert free_names(t)[0] == frozenset({"z", "a"})


def test_free_names_dfix():
    t = DFix(None, IVar("r"), "x", App(None, v("f"), v("x")))
    fvs, fis = free_names(t)
    assert fvs == frozenset({"f"}) and fis == frozenset({"r"})


# ---------------------------------------------------------------------------
# alpha canonical


def test_alpha_equal_lambdas():
    t1 = Lam(None, "a", None, Lam(None, "b", None, App(None, v("a"), v("b"))))
    t2 = Lam(None, "p", None, Lam(None, "q", None, App(None, v("p"), v("q"))))
    assert alpha_canonical(t1) == alpha_canonical(t2)


def test_alpha_distinguishes_structure():
    t1 = Lam(None, "a", None, Lam(None, "b", None, v("a")))
    t2 = Lam(None, "a", None, Lam(None, "b", None, v("b")))
    assert alpha_canonical(t1) != alpha_canonical(t2)


def test_alpha_plam():
    t1 = PLam(None, "i", PApp(None, v("p"), IVar("i")))
    t2 = PLam(None, "k", PApp(None, v("p"), IVar("k")))
    assert alpha_canonical(t1) == alpha_canonical(t2)


def test_alpha_numbers_binders_in_a_fixed_order():
    # a lambda's binder after its annotation, a delayed substitution's
    # binder right after its entry, a composition's binder before its line
    ident = Lam(None, "b", None, v("b"))
    t = Lam(None, "a", ident, Next(None, (("c", ident),), App(None, v("a"),
                                                                v("c"))))
    assert term_str(alpha_canonical(t)) == (
        r"\(x1 : \x0 -> x0) -> next [x3 <- \x2 -> x2] (x1 x3)")
    line = PLam(None, "k", PathT(None, Nat(), v("u"), v("u")))
    c = Comp(None, "j", line, SystemTerm(None, ()), v("u"))
    canon = alpha_canonical(c)
    assert (canon.binder, canon.line.binder) == ("i0", "i1")


def test_alpha_skips_free_names_that_look_canonical():
    t = Lam(None, "a", None, App(None, v("a"), v("x0")))
    assert alpha_canonical(t) == Lam(None, "x1", None,
                                     App(None, v("x1"), v("x0")))


@given(term_st())
@settings(max_examples=200)
def test_alpha_idempotent(t):
    canon = alpha_canonical(t)
    assert alpha_canonical(canon) == canon
    assert free_names(canon) == free_names(t)


# ---------------------------------------------------------------------------
# printing sanity (full round-trip lives in the parser tests)


def test_print_numerals():
    assert term_str(Suc(None, Suc(None, Zero()))) == "2"


def test_print_snd_projection():
    assert term_str(Snd(None, v("p"))) == "p.2"


def test_print_pi_arrow():
    t = Pi(None, "x", Nat(), Nat())
    assert term_str(t) == "N -> N"
    t2 = Pi(None, "x", Nat(), PathT(None, Nat(), v("x"), v("x")))
    assert term_str(t2) == "(x : N) -> Path N x x"
