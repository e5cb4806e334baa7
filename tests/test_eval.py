"""Evaluator tests: beta/eta, endpoints, composition per type former,
fillers, delayed fixed points, readback."""

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
from gctt.record import fields
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
    q = neutral_var("q", VPathT(VNat(), ValueClosure(a), ValueClosure(b)))
    assert papp_v(q, ZERO) is a
    assert papp_v(q, ONE) is b
    stuck = papp_v(q, IVar("i"))
    assert isinstance(stuck, E.NPApp)


def test_papp_canonicalizes_argument():
    a = neutral_var("a", VNat())
    q = neutral_var("q", VPathT(VNat(), ValueClosure(a), ValueClosure(a)))
    got = papp_v(q, parse_interval_meet())
    assert got is a


def test_a_path_types_endpoints_are_evaluated_when_first_read():
    # `x` is unbound: evaluating the left endpoint raises
    path = eval_term({}, parse_term("Path N x (suc 0)"))
    assert isinstance(path, VPathT)
    one = E.path_end(path, 1)
    assert isinstance(one, VSuc) and E.path_end(path, 1) is one
    with pytest.raises(RuntimeError, match="ill-scoped variable 'x'"):
        E.path_end(path, 0)
    # acting on the type acts on the closures and reads no endpoint
    i = IVar("i")
    acted = act(eval_term({"i": i}, parse_term("Path N x (p @ i)")),
                {"i": ZERO})
    assert acted.rhs.env["i"] == ZERO and acted._ends is None


def test_forced_endpoints_agree_with_eager_evaluation_on_corpus(
        corpus_dir, monkeypatch, capsys):
    """For every path type built while checking the corpus, each endpoint
    it read reads back as the endpoint evaluated when the type was
    built."""
    from gctt.cli import main

    built = []
    init = VPathT.__init__

    def recording(self, space, lhs, rhs):
        init(self, space, lhs, rhs)
        built.append((self, lhs.apply(), rhs.apply()))

    monkeypatch.setattr(VPathT, "__init__", recording)
    for path in sorted(corpus_dir.glob("*.gctt")):
        assert main(["check", str(path)]) == 0, path
    monkeypatch.undo()
    capsys.readouterr()
    forced = 0
    for path, *eager in built:
        for end, value in enumerate(path._ends or ()):
            if value is not None:
                forced += 1
                assert (S.alpha_canonical(readback(frozenset(), value))
                        == S.alpha_canonical(
                            readback(frozenset(), eager[end])))
    # 57 of the 106 endpoints of 53 path types are read
    assert 0 < forced < 2 * len(built)


def test_act_substitutes_a_value_for_a_variable():
    """A variable in the substitution is replaced by its value, and every
    eliminator whose head becomes a value runs again; a variable's name is
    in its support, and one not substituted keeps its acted type."""
    from gctt.eval import support

    f, a = neutral_var("f"), neutral_var("a", ev("Path N 0 0"))
    v = ev("(f a @ i, a @ i)", {"f": f, "a": a, "i": IVar("i")})
    assert support(v) == {"f", "a", "i"}
    assert norm_v(act(v, {"f": ev(r"\x -> x")})) == "(a @ i, a @ i)"
    assert norm_v(act(v, {"f": ev(r"\x -> x"), "i": ONE})) == "(0, 0)"
    assert act(v, {"g": VZero()}) is v
    x = neutral_var("x", neutral_var("A"))
    acted = act(x, {"A": VNat()})
    assert type(acted) is E.NVar and acted.name == "x"
    assert acted.type is VNat() and x.type.name == "A"


def test_substituting_the_argument_is_applying_the_lambda_on_corpus(
        corpus_dir, monkeypatch):
    """β by substitution is β by evaluation: for every lambda over a term
    closure that is applied while the positive corpus is checked and each
    of its declarations normalized, the closure applied to a fresh
    variable, with the argument then substituted for the variable (`act`),
    reads back as the closure applied to the argument.  The variable is
    untyped, since an application does not know the lambda's domain."""
    import gctt.typechecker as T
    from gctt.cli import Loader
    from gctt.eval import TermClosure, probe_var, support

    applied = {}
    plain = E.apply_v

    def recording(fn, arg):
        if isinstance(fn, VLam) and isinstance(fn.closure, TermClosure):
            applied.setdefault((id(fn.closure), id(arg)), (fn.closure, arg))
        return plain(fn, arg)

    for mod in (E, T):
        monkeypatch.setattr(mod, "apply_v", recording)
    loader = Loader([str(corpus_dir)])
    for path in sorted(corpus_dir.glob("*.gctt")):
        checked = loader.load(path)
        for decl in checked.order:
            ty, value = checked.table[decl]
            readback(frozenset(checked.table), value, ty)
    monkeypatch.undo()
    moved = 0
    for c, a in applied.values():
        x = probe_var()
        by_substitution = act(c.apply(x), {x.name: a})
        by_evaluation = c.apply(a)
        names = support(by_substitution) | support(by_evaluation) | support(a)
        assert x.name not in names
        assert (S.alpha_canonical(readback(names, by_substitution))
                == S.alpha_canonical(readback(names, by_evaluation)))
        moved += not c.constant()
    # 892, 858 using the variable (500, 490 by checking alone before
    # applications of declarations were kept folded)
    assert len(applied) > 400 and moved > 400


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
    assert isinstance(got, NComp)


def test_comp_at_later_is_stuck():
    later = VLaterT((), ValueClosure(VNat()))
    k = fresh_iname()
    got = comp_v(k, later, make_system([]), ev("next 0"))
    assert isinstance(got, NComp)


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
    p = neutral_var("p", VPathT(VNat(), ValueClosure(VZero()),
                                ValueClosure(VZero())))
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
    and the fixed point gets none; applied to 0, it gets the type at 0."""
    node = parse_term("dfix 0 r. r")
    x = neutral_var("x", VNat())
    path = VPathT(VNat(), ValueClosure(x), ValueClosure(x))
    E.register_dfix_type(node, frozenset({"x"}),
                         VLaterT((), ValueClosure(path)))
    closure = E.capture({}, ("x",), node)
    assert closure.constant()

    def no_argument():
        raise AssertionError("a constant closure's argument was evaluated")

    v = closure.apply_lazy(no_argument)
    assert isinstance(v, E.NDFix) and E.neutral_type(v) is None
    path = E.neutral_type(closure.apply(VZero())).body.apply()
    assert E.path_end(path, 0) is VZero() and E.path_end(path, 1) is VZero()


def test_every_term_former_has_one_evaluator():
    for former in S._SCHEME:
        E._EVAL[former]  # a first-order former's is compiled on first use
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
    got = comp_v(k, d, make_system([]), d)
    assert isinstance(got, NComp)


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


# ---------------------------------------------------------------------------
# readback


def test_readback_eta_long_at_function_type():
    f = neutral_var("f", nat_fn_type())
    assert norm_v(f, {"f"}, nat_fn_type()) == r"\x -> f x"


def test_readback_eta_at_path_type():
    a = neutral_var("a", VNat())
    p = neutral_var("p", VPathT(VNat(), ValueClosure(a), ValueClosure(a)))
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
        names = [f.name for f in fields(cls)]
        if former is not None:
            assert names == [f.name for f in fields(former)
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
    abstract = {E.Closure, E.Value, E.Neutral}
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__ == "gctt.eval" and cls not in abstract:
                out.add(cls)
    return out


def _interval_cases():
    """Per class, per field that can hold an interval name: a node with i
    in that field only (for a system, also one with i in a clause)."""
    p_at_i = E.NPApp(neutral_var("p"), IVar("i"))  # support {i}
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
        E.VPathT: {"space": VPathT(p_at_i, const, const),
                   "lhs": VPathT(n, clo, const), "rhs": VPathT(n, const, clo)},
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
        E.NVar: {"type": E.NVar("x", p_at_i)},
        E.NApp: {"fn": E.NApp(p_at_i, n), "arg": E.NApp(m, p_at_i)},
        E.NPApp: {"fn": E.NPApp(p_at_i, ZERO), "arg": p_at_i},
        E.NFst: {"pair": E.NFst(p_at_i)},
        E.NSnd: {"pair": E.NSnd(p_at_i)},
        E.NNatRec: {
            "motive": E.NNatRec(p_at_i, n, n, m),
            "base": E.NNatRec(m, p_at_i, n, m),
            "step": E.NNatRec(m, n, p_at_i, m),
            "scrutinee": E.NNatRec(m, n, n, p_at_i),
        },
        E.NUnglue: {"arg": E.NUnglue(p_at_i)},
        E.NComp: {"line": NComp("k", p_at_i, VSystem(()), n),
                  "tube": NComp("k", m, sys_j0, n),
                  "clauses": NComp("k", m, sys_i1, n),
                  "base": NComp("k", m, VSystem(()), p_at_i)},
        E.VDef: {"args": E.VDef(0, (n, p_at_i), VLam(const))},
        E.NDFix: {"clock": E.NDFix(IVar("i"), const, None),
                  "closure": E.NDFix(ZERO, clo, None),
                  "type": E.NDFix(ZERO, const, p_at_i)},
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


# fields that hold names, terms, integers, host functions or closed values:
# never acted on
NO_INTERVALS = {"NVar": {"name"}, "NComp": {"binder"},
                "VDef": {"level", "base"},
                "TermClosure": {"names", "body"}, "FnClosure": {"fn"},
                "InlinedDsClosure": {"kept"}}


def test_interval_cases_cover_every_field_of_every_node_class():
    cases = _interval_cases()
    assert set(cases) == _node_classes()
    for cls, by_field in cases.items():
        names = {f.name for f in fields(cls)}
        covered = set(by_field) - {"clauses"} | NO_INTERVALS.get(cls.__name__,
                                                                 set())
        assert covered == names, cls.__name__


@pytest.mark.parametrize("node", [
    pytest.param(node, id=f"{cls.__name__}.{field}")
    for cls, by_field in _interval_cases().items()
    for field, node in by_field.items()])
def test_support_sees_every_field_and_act_reaches_it(node):
    from gctt.eval import support

    assert "i" in support(node)
    assert "i" not in support(act(node, {"i": ZERO}))
    assert act(node, {"l": ZERO}) is node  # l is not in the support


def test_every_field_of_every_node_class_has_a_kind():
    from gctt.conversion import _NFlex

    for cls in _node_classes() | {_NFlex}:
        assert all(f.type in E.FIELD_KINDS for f in fields(cls)), cls
        assert E._SUPPORT[cls] and E._ACT[cls]  # they compile
    pairing = {f.name: f for f in fields(_NFlex)}["pairing"]
    assert E.FIELD_KINDS[pairing.type] == (None, "{0}", None)  # opaque


def test_a_field_of_unknown_annotation_fails_loudly():
    class Weighed(E.Value):
        weight: "float"

    with pytest.raises(TypeError, match=r"Weighed\.weight: no field kind"):
        E.support(Weighed(0.5))
    with pytest.raises(TypeError, match=r"Weighed\.weight: no field kind"):
        act(Weighed(0.5), {"i": ZERO})


def test_compiled_code_looks_its_callees_up_when_it_runs(monkeypatch):
    """The evaluators and the interval action compiled per class call
    `eval_term` and `act` through the module globals, which the tracer and
    these wrappers rebind."""
    plain_eval, plain_act = E.eval_term, E.act
    marked, calls = neutral_var("marked"), []
    monkeypatch.setattr(E, "eval_term",
                        lambda env, t: calls.append(t) or marked)
    monkeypatch.setattr(E, "act", lambda x, sub: calls.append(x) or marked)
    env = {"f": neutral_var("f"), "a": neutral_var("a")}
    app = plain_eval(env, parse_term("f a"))
    pair = plain_eval(env, parse_term("(f, a)"))
    assert calls == [S.Var(name="f"), S.Var(name="a")] * 2
    assert (app.fn, app.arg) == (marked, marked)
    assert (pair.fst, pair.snd) == (marked, marked)
    p_at_i, n = E.NPApp(neutral_var("p"), IVar("i")), VNat()
    calls.clear()
    pair = plain_act(VPair(p_at_i, n), {"i": ZERO})
    app = plain_act(E.NApp(env["f"], p_at_i), {"i": ZERO})
    assert calls == [p_at_i, n, env["f"], p_at_i]
    assert (pair.fst, pair.snd) == (marked, marked)
    assert (app.fn, app.arg) == (marked, marked)


def test_the_values_without_fields_are_shared():
    assert VNat() is VNat() and E.VUniv() is E.VUniv()
    assert VZero() is VZero() and VNat() is not VZero()
    assert eval_term({}, S.Nat()) is VNat()
    assert eval_term({}, S.Zero()) is VZero()
    assert eval_term({}, S.Univ()) is E.VUniv()
    p_at_i = E.NPApp(neutral_var("p"), IVar("i"))
    acted = act(VPair(p_at_i, VZero()), {"i": ZERO})
    assert acted.snd is VZero() and act(VNat(), {"i": ZERO}) is VNat()


def test_act_rebuilds_systems_and_glue_through_their_constructors():
    # where the face becomes total, each collapses to its partial part
    partial, base = VZero(), neutral_var("b")
    total = {"i": ZERO}
    assert act(VGlueT(face_lit("i", 0), partial, partial, base), total) \
        is partial
    assert act(VGlueIntro(face_lit("i", 0), partial, base), total) is partial
    assert act(VSystem(((frozenset({("i", 0)}), partial),)), total) is partial
