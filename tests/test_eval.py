"""Evaluator tests: beta/eta, endpoints, composition per type former,
fillers, delayed fixed points, readback."""

import dataclasses
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gctt.eval as E
import gctt.syntax as S
from gctt.conversion import conv
from gctt.eval import (
    FnClosure,
    InlinedDsClosure,
    NComp,
    VGlueIntro,
    VGlueT,
    VLam,
    VLaterT,
    VNat,
    VNeutral,
    VNext,
    VPair,
    VPathT,
    VPi,
    VPLam,
    VSuc,
    VSystem,
    VZero,
    ValueClosure,
    act,
    apply_v,
    comp_v,
    eval_term,
    fill_at,
    fresh_iname,
    make_system,
    neutral_var,
    papp_v,
    readback,
    tube_face,
)
from gctt.interval import (
    FACE_BOT,
    FACE_TOP,
    IVar,
    ONE,
    ZERO,
    face_join,
    face_lit,
)
from gctt.parser import parse_term
from gctt.syntax import term_str
from test_interval import face_st
from test_syntax import iname_st, name_st, term_st


def ev(src, env=None):
    return eval_term(dict(env or {}), parse_term(src))


def norm(src, env=None):
    env = dict(env or {})
    return term_str(readback(frozenset(env), eval_term(env, parse_term(src))))


def norm_v(v, env=None, ty=None):
    return term_str(readback(frozenset(env or {}), v, ty))


def nat_fn_type():
    return VPi(VNat(), FnClosure(lambda _x: VNat()))


# ---------------------------------------------------------------------------
# beta / structural evaluation


def test_beta():
    assert norm(r"(\x -> suc x) 1") == "2"


def test_path_beta():
    p = ev(r"<i> f ((<j> x) @ i)", {"f": neutral_var("f", nat_fn_type()),
                                    "x": neutral_var("x", VNat())})
    got = papp_v(p, IVar("k"))
    assert norm_v(got, {"f", "x", "k"}) == "f x"


def test_natrec():
    assert norm(r"natrec (\n -> N) 0 (\n r -> suc (suc r)) 3") == "6"


def test_systems_collapse_when_a_face_is_total():
    v = ev("<i> [ (i=0) -> 0, (i=1) -> 1 ]")
    assert isinstance(papp_v(v, ZERO), VZero)
    assert isinstance(papp_v(v, ONE), VSuc)
    mid = papp_v(v, IVar("j"))
    assert isinstance(mid, VSystem)


@given(st.lists(face_st(), max_size=4))
@settings(max_examples=200)
def test_a_tubes_face_is_the_join_of_its_pieces_faces(faces):
    """Whether the pieces' system collapses (on a total face) or not."""
    tube = make_system([(phi, neutral_var(f"u{n}"))
                        for n, phi in enumerate(faces)])
    join = FACE_BOT
    for phi in faces:
        join = face_join(join, phi)
    assert tube_face(tube) == join
    assert isinstance(tube, VSystem) is (join != FACE_TOP)


# ---------------------------------------------------------------------------
# path application endpoints


def test_papp_endpoints_from_neutral_type():
    a, b = neutral_var("a", VNat()), neutral_var("b", VNat())
    q = neutral_var("q", VPathT(VNat(), a, b))
    assert papp_v(q, ZERO) is a
    assert papp_v(q, ONE) is b
    stuck = papp_v(q, IVar("i"))
    assert isinstance(stuck, VNeutral)


def test_papp_canonicalizes_argument():
    a = neutral_var("a", VNat())
    q = neutral_var("q", VPathT(VNat(), a, a))
    got = papp_v(q, parse_interval_meet())
    assert got is a


def parse_interval_meet():
    from gctt.parser import parse_interval

    return parse_interval("i /\\ 0")


# ---------------------------------------------------------------------------
# composition


def test_comp_total_face_collapses_to_tube_end():
    # a constant tube wins regardless of the line
    A = neutral_var("A", None)
    a = neutral_var("a", None)
    k = fresh_iname()
    got = comp_v(k, A, make_system([(FACE_TOP, a)]), a)
    assert got is a


def test_comp_nat_numerals():
    assert norm("comp i N [] 0") == "0"
    assert norm("comp i N [] (suc 0)") == "1"


def test_comp_nat_neutral_sticks():
    n = neutral_var("n", VNat())
    k = fresh_iname()
    got = comp_v(k, VNat(), make_system([]), n)
    assert isinstance(got, VNeutral) and isinstance(got.neutral, NComp)


def test_comp_at_later_is_stuck():
    later = VLaterT((), ValueClosure(VNat()))
    k = fresh_iname()
    got = comp_v(k, later, make_system([]), ev("next 0"))
    assert isinstance(got, VNeutral) and isinstance(got.neutral, NComp)


def test_comp_pi_degenerate_is_pointwise_identity():
    v = ev(r"(comp i (N -> N) [] (\x -> suc x)) 2")
    assert norm_v(v) == "3"


def test_comp_pi_total_face_equals_tube_end():
    env = {"f": neutral_var("f", nat_fn_type())}
    got = ev("<i> (comp j (N -> N) [ (i=0) -> f, (i=1) -> f ] f) 1", env)
    assert norm_v(papp_v(got, ZERO), {"f"}) == "f 1"


def test_comp_sigma_components():
    v = ev("comp i ((x : N) * N) [] (1, 2)")
    assert norm_v(v) == "(1, 2)"


def test_comp_sigma_fst_commutes():
    v = ev("(comp i ((x : N) * N) [] (1, 2)).1")
    w = ev("comp i N [] 1")
    assert conv((), v, w)


def test_comp_sigma_fills_the_first_component_only_for_a_dependent_family(
        monkeypatch):
    fills = []
    fill_at = E.fill_at

    def recording(*args):
        fills.append(args)
        return fill_at(*args)

    monkeypatch.setattr(E, "fill_at", recording)
    assert norm_v(ev("comp i ((x : N) * N) [] (1, 2)")) == "(1, 2)"
    assert fills == []
    assert norm_v(ev("comp i ((x : N) * Path N x x) [] (1, <j> 1)")) \
        == "(1, <i> 1)"
    assert fills


def test_a_closure_is_constant_when_it_ignores_its_arguments():
    p = neutral_var("p", VPathT(VNat(), VZero(), VZero()))
    assert ValueClosure(VZero()).constant()
    assert ev(r"\x -> 0").closure.constant()
    assert not ev(r"\x -> x").closure.constant()
    assert ev("<i> 0").closure.constant()
    # a path lambda's parameter is an interval name
    assert not ev("<i> p @ i", {"p": p}).closure.constant()
    assert not FnClosure(lambda x: VZero()).constant()
    assert not InlinedDsClosure(ValueClosure(VZero()), (), ()).constant()


def test_a_constant_closure_leaves_its_parameter_unbound():
    """A fixed point's registered type can mention a name its body does
    not, here the parameter `x` of a closure that ignores it. Applied to no
    argument, the closure leaves `x` unbound, so that type is out of scope
    and the fixed point gets none; a placeholder bound to `x` would be read
    as a value when the type is."""
    node = parse_term("dfix 0 r. r")
    x = neutral_var("x", VNat())
    E.register_dfix_type(node, frozenset({"x"}),
                         VLaterT((), ValueClosure(VPathT(VNat(), x, x))))
    closure = E.capture({}, ("x",), node)
    assert closure.constant()

    def no_argument():
        raise AssertionError("a constant closure's argument was evaluated")

    v = closure.apply_lazy(no_argument)
    assert isinstance(v, VNeutral) and v.type is None
    with pytest.raises(RuntimeError, match="ill-scoped variable 'x'"):
        closure.apply(None).type.body.apply()


def test_every_term_former_has_one_evaluator():
    assert set(E._EVAL) == set(S._SCHEME) and len(E._EVAL) == 25


@pytest.mark.parametrize("thing", [5, VZero(), None])
def test_what_is_not_a_term_cannot_be_evaluated(thing):
    with pytest.raises(TypeError, match="cannot evaluate"):
        eval_term({}, thing)


def test_a_body_captured_under_other_names_captures_its_own_free_names():
    body = parse_term("f x y")
    env = {name: neutral_var(name) for name in ("f", "x", "y", "z")}
    for names, kept in [(("x",), {"f", "y"}), (("y",), {"f", "x"}),
                        (("x",), {"f", "y"}), (("x", "y"), {"f"})]:
        closure = E.capture(env, names, body)
        assert set(closure.env) == kept and closure.names == names


def test_a_term_binder_named_like_a_free_interval_name_is_not_captured():
    body = parse_term("p @ i")
    env = {"p": neutral_var("p"), "i": IVar("j")}
    assert set(E.capture(env, ("i",), body).env) == {"p"}
    assert E.capture(env, ("x",), body).env == env


@given(term_st(), st.lists(st.lists(name_st, max_size=2).map(tuple),
                           min_size=1, max_size=3),
       st.sets(name_st | iname_st))
@settings(max_examples=200)
def test_a_closure_captures_the_free_names_of_its_body_in_scope(
        body, binders, scope):
    """Whatever names the same body was captured under before."""
    env = {name: neutral_var(name) for name in scope}
    fvs, fis = S.free_names(body)
    for names in binders:
        closure = E.capture(env, names, body)
        assert set(closure.env) == (fvs | fis).difference(names) & env.keys()
        assert all(closure.env[k] is env[k] for k in closure.env)


def test_comp_path_endpoints():
    r = ev("comp i (Path N 0 0) [] (<j> 0)")
    assert isinstance(r, VPLam)
    assert norm_v(papp_v(r, ZERO)) == "0"
    assert norm_v(papp_v(r, ONE)) == "0"


def test_comp_univ_empty_tube_is_glue_over_base():
    got = ev("comp i U [] N")
    assert isinstance(got, VGlueT)
    assert got.partial is None and isinstance(got.base, VNat)


def test_comp_univ_neutral_tube_sticks():
    d = neutral_var("D", None)
    k = fresh_iname()
    got = comp_v(k, VNeutral(d.neutral, None), make_system([]), d)
    assert isinstance(got, VNeutral)


def test_comp_univ_roundtrip_of_numeral():
    src = ("transp k (comp j U [ (k=1) -> N ] N)"
           " (transp i (comp j U [ (i=0) -> N ] N) 2)")
    assert norm(src) == "2"


def test_unglue_of_glue_intro():
    assert norm("unglue (glue [] 0)") == "0"


# an equivalence from N to N, typed as the kernel spells the equivalence type
EQ_NN = ("(x : (x1 : N) -> N) * ((x1 : N) -> (x2 : (x3 : N) * Path N x1"
         " (x x3)) * ((x3 : (x4 : N) * Path N x1 (x x4))"
         " -> Path ((x4 : N) * Path N x1 (x x4)) x2 x3))")


def test_comp_glue_commutes_with_restriction_where_the_face_holds():
    # the glue face (i=0) holds along the whole line, so at i=0 the
    # transport is one in the partial type N
    from gctt.typechecker import Checker, Ctx

    ck, ctx = Checker(), Ctx()
    ctx = ctx.bind_interval("i")
    ctx, _ = ctx.bind_term("e", ck.check_type(ctx, parse_term(EQ_NN)))
    t = parse_term("transp k (Glue [ (i=0) -> N, e ] N)"
                   " (glue [ (i=0) -> 0 ] (e.1 0))")
    ck.infer(ctx, t)
    restricted = act(eval_term(ctx.env, t), {"i": ZERO})
    at_zero = eval_term({**ctx.env, "i": ZERO}, t)
    assert norm_v(restricted, ctx.used) == norm_v(at_zero, ctx.used) == "0"


# ---------------------------------------------------------------------------
# fill


def test_fill_at_zero_is_base():
    base = VSuc(VZero())
    k = fresh_iname()
    assert fill_at(k, VNat(), make_system([]), base, ZERO) is base


def test_fill_at_one_is_comp():
    base = VSuc(VZero())
    k = fresh_iname()
    f1 = fill_at(k, VNat(), make_system([]), base, ONE)
    c = comp_v(k, VNat(), make_system([]), base)
    assert conv((), f1, c)


def test_fill_on_total_face_is_tube():
    a = neutral_var("a", VNat())
    k = fresh_iname()
    got = fill_at(k, VNat(), a, a, IVar("j"))
    assert got is a


# ---------------------------------------------------------------------------
# delayed fixed points


def test_dfix_one_unfolds_once():
    f = neutral_var(
        "f", VPi(VLaterT((), ValueClosure(VNat())), FnClosure(lambda _: VNat()))
    )
    env = {"f": f}
    assert norm("dfix 1 x. f x", env) == "next (f (dfix 0 x. f x))"
    assert norm("dfix 0 x. f x", env) == "dfix 0 x. f x"


def test_fix_at_one_is_single_unfolding():
    f = neutral_var(
        "f", VPi(VLaterT((), ValueClosure(VNat())), FnClosure(lambda _: VNat()))
    )
    env = {"f": f}
    assert norm("fix 1 x. f x", env) == "f (next (f (dfix 0 x. f x)))"


def test_next_eta_collapse():
    t = neutral_var("t", VLaterT((), ValueClosure(VNat())))
    assert norm("next [x <- t] x", {"t": t}) == "t"


def test_readback_of_next_weakens():
    t = neutral_var("t", VLaterT((), ValueClosure(VNat())))
    assert norm("next [x <- t] 0", {"t": t}) == "next 0"


def test_a_fixed_point_type_is_read_back_once_when_first_looked_up():
    node = parse_term("dfix 0 x. x")
    seen, runs = [], []

    def body():
        runs.append(None)
        if len(runs) == 1:
            raise RuntimeError("interrupted")
        # the entry is being read back: looking it up misses
        seen.append(E.registered_dfix_type({}, node))
        return VNat()

    E.register_dfix_type(node, frozenset(), VLaterT((), FnClosure(body)))
    assert runs == []
    with pytest.raises(RuntimeError):
        E.registered_dfix_type({}, node)
    for _ in range(2):  # a failed readback is retried, a done one kept
        assert norm_v(E.registered_dfix_type({}, node)) == "|> N"
    assert len(runs) == 2 and seen == [None]


def test_a_fixed_point_type_is_read_back_under_its_registration_expansions():
    """Delayed-substitution bindings are ordered by their contents under the
    expansions of the enclosing binders recorded with the registration."""
    later_n = ev("|> N")
    env = {"u": neutral_var("u", later_n), "w": neutral_var("w", later_n)}
    inner = ev("|> [a <- u, b <- w] Path N a b", env)
    ty = VLaterT((), ValueClosure(inner))
    node = parse_term("dfix 0 x. x")
    E.register_dfix_type(node, frozenset(env), ty,
                         {"u": S.Var(None, "z"), "w": S.Var(None, "a")})
    assert norm_v(ty, env) == "|> (|> [a <- u, b <- w] (Path N a b))"
    assert term_str(E._dfix_type_term(node._dfix_type)) == (
        "|> (|> [b <- w, a <- u] (Path N a b))")


def test_a_printed_fixed_point_is_registered_under_the_enclosing_expansions():
    """Readback registers the type of a `dfix` it prints under a `next`
    with the expansions of the next's binders: its type's bindings are
    ordered by what `u` and `w` stand for (`z` and `c`), not by their
    names."""
    later2_n = ev("|> |> N")
    env = {"z": neutral_var("z", later2_n), "c": neutral_var("c", later2_n)}

    def body(u, w):
        inner = ev("|> [a <- u, b <- w] Path N a b", {"u": u, "w": w})
        return VNeutral(E.NDFix(ZERO, FnClosure(lambda x: x)),
                        VLaterT((), ValueClosure(inner)))

    v = VNext((("u", env["z"]), ("w", env["c"])), FnClosure(body))
    printed = readback(frozenset(env), v)
    assert term_str(printed) == "next (dfix 0 x. x)"
    assert term_str(E._dfix_type_term(printed.body._dfix_type)) == (
        "|> (|> [b <- w, a <- u] (Path N a b))")


# ---------------------------------------------------------------------------
# readback


def test_readback_eta_long_at_function_type():
    f = neutral_var("f", nat_fn_type())
    assert norm_v(f, {"f"}, nat_fn_type()) == r"\x -> f x"


def test_readback_eta_at_path_type():
    a = neutral_var("a", VNat())
    p = neutral_var("p", VPathT(VNat(), a, a))
    assert norm_v(p, {"p", "a"}, p.type) == "<i> p @ i"


def test_readback_fresh_names_avoid_used():
    v = ev(r"\x -> x")
    assert norm_v(v, {"x"}) == r"\x1 -> x1"


def test_formers_describe_every_stuck_eliminator_and_constructor():
    """Each neutral class but a variable and a delayed fixed point has an
    entry, and names the eliminator that re-runs it.  Each entry's fields
    are, in order, its term former's fields, where it has a former, and the
    parameters of the function it names, where it names one."""
    explicit = {E.NVar, E.NDFix}
    assert set(E.Neutral.__subclasses__()) - explicit == {
        cls for cls in E.FORMERS if issubclass(cls, E.Neutral)}
    for cls, (former, build) in E.FORMERS.items():
        names = [f.name for f in dataclasses.fields(cls)]
        if former is not None:
            assert names == [f.name for f in dataclasses.fields(former)
                             if f.name != "span"], cls
        if issubclass(cls, E.Neutral):
            assert build is not None, cls
        if build is not None:
            params = inspect.signature(getattr(E, build)).parameters
            assert list(params) == names, cls


def test_formers_cover_exactly_the_first_order_term_formers():
    """A term former has an entry iff none of its fields is a binder, a
    delayed substitution, a system or a variable name: `eval_term`
    evaluates exactly those through the table."""
    first_order = {
        former for former, scheme in S._SCHEME.items()
        if not {kind for _, kind, _, _ in scheme}
        & {S.BINDER, S.IBINDER, S.DS, S.SYSTEM, S.NAME}}
    assert first_order == {
        former for former, _ in E.FORMERS.values() if former is not None}


def test_readback_idempotent_through_eval():
    srcs = [
        r"\y -> (\x -> suc x) y",
        "comp i N [] 2",
        "<i> comp j N [ (i=0) -> 0, (i=1) -> 0 ] 0",
        "next [x <- t] (suc 0)",
    ]
    t_ty = VLaterT((), ValueClosure(VNat()))
    env = {"t": neutral_var("t", t_ty)}
    used = frozenset(env)
    for src in srcs:
        once = readback(used, eval_term(dict(env), parse_term(src)))
        twice = readback(used, eval_term(dict(env), once))
        assert once == twice, src


# ---------------------------------------------------------------------------
# boundary law on generated compositions (the acceptance suite runs more)


def boundary_instances(count, seed=7):
    """Random well-typed composition terms over N, Path N, and Sigma/Pi over
    N, in a context with interval names i, l and a path variable."""
    rng = random.Random(seed)
    types = [
        "N",
        "Path N 0 0",
        "(x : N) * N",
        "N -> N",
    ]
    elements = {
        "N": ["0", "2", "p @ i", "p @ l"],
        "Path N 0 0": ["<m> 0", "p", "<m> p @ -m"],
        "(x : N) * N": ["(1, 2)", "(p @ i, 0)"],
        "N -> N": [r"\x -> x", r"\x -> suc x", r"\x -> p @ i"],
    }
    faces = ["(i=0)", "(i=1)", "(l=0)", "(i=0) \\/ (i=1)",
             "(i=1) /\\ (l=0)", "(l=1)"]
    out = []
    for _ in range(count):
        ty = rng.choice(types)
        elem = rng.choice(elements[ty])
        n_branches = rng.randint(1, 2)
        branch_faces = rng.sample(faces, n_branches)
        tube = ", ".join(f"{phi} -> {elem}" for phi in branch_faces)
        out.append(f"comp k ({ty}) [ {tube} ] ({elem})")
    return out


def test_boundary_law_sampled():
    from gctt.typechecker import Checker, Ctx
    from gctt.interval import clause_assignment, face_clauses
    from gctt.eval import act, env_face

    ck = Checker()
    ctx = Ctx()
    ctx = ctx.bind_interval("i").bind_interval("l")
    p_ty = ck.check_type(ctx, parse_term("Path N 0 0"))
    ctx, _ = ctx.bind_term("p", p_ty)
    for src in boundary_instances(40):
        comp = parse_term(src)
        ck.infer(ctx, comp)
        phi = FACE_BOT
        for psi, _ in comp.tube.branches:
            phi = face_join(phi, env_face(ctx.env, psi))
        result = eval_term(ctx.env, comp)
        env_i = dict(ctx.env)
        env_i[comp.binder] = IVar("?bl")
        tube1 = act(eval_term(env_i, comp.tube), {"?bl": ONE})
        for clause in face_clauses(phi):
            asg = clause_assignment(clause)
            assert conv((), act(result, asg), act(tube1, asg)), src


# ---------------------------------------------------------------------------
# the interval action: every field of every value, neutral and closure class


def _node_classes():
    from gctt import eval as E

    out, stack = set(), [E.Nominal]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__ == "gctt.eval" and dataclasses.is_dataclass(cls):
                out.add(cls)
    return out


def _interval_cases():
    """Per class, per field that can hold an interval name: a node with i
    in that field only (for a system, also one with i in a clause)."""
    p_at_i = VNeutral(E.NPApp(neutral_var("p"), IVar("i")))  # support {i}
    clo = ValueClosure(p_at_i)
    n, m = VNat(), neutral_var("m")
    const = ValueClosure(n)
    i1, j0 = face_lit("i", 1), face_lit("j", 0)
    sys_j0 = VSystem(((frozenset({("j", 0)}), p_at_i),))
    sys_i1 = VSystem(((frozenset({("i", 1)}), n),))
    return {
        E.VPi: {"domain": E.VPi(p_at_i, const), "codomain": E.VPi(n, clo)},
        E.VSigma: {"first": E.VSigma(p_at_i, const),
                   "second": E.VSigma(n, clo)},
        E.VPathT: {"space": VPathT(p_at_i, n, n), "lhs": VPathT(n, p_at_i, n),
                   "rhs": VPathT(n, n, p_at_i)},
        E.VNat: {}, E.VUniv: {}, E.VZero: {},
        E.VLaterT: {"entries": VLaterT((("x", p_at_i),), const),
                    "body": VLaterT((), clo)},
        E.VNext: {"entries": VNext((("x", p_at_i),), const),
                  "body": VNext((), clo)},
        E.VGlueT: {"face": VGlueT(i1, n, n, n),
                   "partial": VGlueT(j0, p_at_i, n, n),
                   "equiv": VGlueT(j0, n, p_at_i, n),
                   "base": VGlueT(j0, n, n, p_at_i)},
        E.VGlueIntro: {"face": VGlueIntro(i1, n, n),
                       "partial": VGlueIntro(j0, p_at_i, n),
                       "base": VGlueIntro(j0, n, p_at_i)},
        E.VLam: {"closure": VLam(clo)},
        E.VPLam: {"closure": VPLam(clo)},
        E.VPair: {"fst": VPair(p_at_i, n), "snd": VPair(n, p_at_i)},
        E.VSuc: {"pred": VSuc(p_at_i)},
        E.VSystem: {"branches": sys_j0,
                    "clauses": sys_i1},
        E.VNeutral: {"neutral": p_at_i, "type": VNeutral(E.NVar("x"), p_at_i)},
        E.NVar: {},
        E.NApp: {"fn": VNeutral(E.NApp(p_at_i, n)),
                 "arg": VNeutral(E.NApp(m, p_at_i))},
        E.NPApp: {"fn": VNeutral(E.NPApp(p_at_i, ZERO)), "arg": p_at_i},
        E.NFst: {"pair": VNeutral(E.NFst(p_at_i))},
        E.NSnd: {"pair": VNeutral(E.NSnd(p_at_i))},
        E.NNatRec: {
            "motive": VNeutral(E.NNatRec(p_at_i, n, n, m)),
            "base": VNeutral(E.NNatRec(m, p_at_i, n, m)),
            "step": VNeutral(E.NNatRec(m, n, p_at_i, m)),
            "scrutinee": VNeutral(E.NNatRec(m, n, n, p_at_i)),
        },
        E.NUnglue: {"arg": VNeutral(E.NUnglue(p_at_i))},
        E.NComp: {"line": VNeutral(NComp("k", p_at_i, VSystem(()), n)),
                  "tube": VNeutral(NComp("k", m, sys_j0, n)),
                  "clauses": VNeutral(NComp("k", m, sys_i1, n)),
                  "base": VNeutral(NComp("k", m, VSystem(()), p_at_i))},
        E.NDFix: {"clock": VNeutral(E.NDFix(IVar("i"), const)),
                  "closure": VNeutral(E.NDFix(ZERO, clo))},
        E.TermClosure: {
            "env": E.TermClosure({"x": p_at_i, "k": IVar("i")}, ("y",),
                                 S.Var(name="x")),
        },
        E.FnClosure: {"captured": FnClosure(
            lambda *_: n, ("k", p_at_i, IVar("i"), i1))},
        E.ValueClosure: {"value": clo},
        E.InlinedDsClosure: {
            "base": E.InlinedDsClosure(clo, (0,), ()),
            "recipe": E.InlinedDsClosure(const, (0,), ((1, clo, (0,)),)),
        },
    }


# fields that hold names, terms, integers or host functions: never acted on
NO_INTERVALS = {"NVar": {"name"}, "NComp": {"binder"},
                "TermClosure": {"names", "body"}, "FnClosure": {"fn"},
                "InlinedDsClosure": {"kept"}}


def test_interval_cases_cover_every_field_of_every_node_class():
    cases = _interval_cases()
    assert set(cases) == _node_classes()
    for cls, by_field in cases.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        covered = set(by_field) - {"clauses"} | NO_INTERVALS.get(cls.__name__,
                                                                 set())
        assert covered == fields, cls.__name__


@pytest.mark.parametrize("node", [
    pytest.param(node, id=f"{cls.__name__}.{field}")
    for cls, by_field in _interval_cases().items()
    for field, node in by_field.items()])
def test_support_sees_every_field_and_act_reaches_it(node):
    from gctt.eval import support

    assert "i" in support(node)
    assert "i" not in support(act(node, {"i": ZERO}))
    assert act(node, {"l": ZERO}) is node  # l is not in the support


def test_act_rebuilds_systems_and_glue_through_their_constructors():
    # where the face becomes total, each collapses to its partial part
    partial, base = VZero(), neutral_var("b")
    total = {"i": ZERO}
    assert act(VGlueT(face_lit("i", 0), partial, partial, base), total) \
        is partial
    assert act(VGlueIntro(face_lit("i", 0), partial, base), total) is partial
    assert act(VSystem(((frozenset({("i", 0)}), partial),)), total) is partial
