"""Typechecker tests: inference, checking, delayed substitutions, systems,
compositions, glue formation, modules, and the negative suite."""

import pytest

from gctt.eval import VNat, VPathT, VPi, VUniv, eval_term, readback
from gctt.interval import face_lit
from gctt.parser import parse_module, parse_term
from gctt.syntax import term_str
from gctt.typechecker import Checker, Ctx, GcttTypeError


def make_ctx(*bindings):
    ck = Checker()
    ctx = Ctx()
    for entry in bindings:
        if entry.endswith(": I"):
            ctx, _ = ctx.bind_interval(entry.split(":")[0].strip())
        else:
            name, _, ty = entry.partition(":")
            tyv = ck.check_type(ctx, parse_term(ty.strip()))
            ctx, _ = ctx.bind_term(name.strip(), tyv)
    return ck, ctx


def infer_str(ck, ctx, src):
    return term_str(readback(ctx.used, ck.infer(ctx, parse_term(src))))


def check_ok(ck, ctx, src, ty_src):
    ty = ck.check_type(ctx, parse_term(ty_src))
    ck.check(ctx, parse_term(src), ty)


def check_fails(ck, ctx, src, ty_src, kind=None):
    ty = ck.check_type(ctx, parse_term(ty_src))
    with pytest.raises(GcttTypeError) as exc:
        ck.check(ctx, parse_term(src), ty)
    if kind is not None:
        assert exc.value.kind == kind, exc.value.message
    return exc.value


# ---------------------------------------------------------------------------
# inference


def test_infer_variable():
    ck, ctx = make_ctx("A : U", "x : A")
    assert infer_str(ck, ctx, "x") == "A"


def test_infer_unbound():
    ck, ctx = make_ctx()
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("nope"))
    assert exc.value.kind == "unbound"


def test_infer_path_application():
    ck, ctx = make_ctx("A : U", "a : A", "b : A", "p : Path A a b", "i : I")
    assert infer_str(ck, ctx, "p @ i") == "A"


def test_infer_path_application_needs_scoped_name():
    ck, ctx = make_ctx("A : U", "a : A", "p : Path A a a")
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("p @ j"))
    assert exc.value.kind == "unbound"


def test_infer_projections():
    ck, ctx = make_ctx("pr : (x : N) * Path N x x")
    assert infer_str(ck, ctx, "pr.1") == "N"
    assert infer_str(ck, ctx, "pr.2") == "Path N pr.1 pr.1"


def test_infer_application_not_a_function():
    ck, ctx = make_ctx("x : N")
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("x x"))
    assert exc.value.kind == "not-a-function"


def test_infer_natrec():
    ck, ctx = make_ctx()
    assert infer_str(ck, ctx, r"natrec (\n -> N) 0 (\n r -> suc r) 2") == "N"


def test_infer_unglue():
    ck, ctx = make_ctx("g : transp i U N")
    assert infer_str(ck, ctx, "unglue g") == "N"


# ---------------------------------------------------------------------------
# checking


def test_check_path_abstraction_endpoints():
    ck, ctx = make_ctx("A : U", "a : A")
    check_ok(ck, ctx, "<i> a", "Path A a a")


def test_check_path_abstraction_boundary_violation():
    ck, ctx = make_ctx("A : U", "a : A", "b : A")
    err = check_fails(ck, ctx, "<i> a", "Path A a b")
    assert err.kind == "boundary-violation"


def test_check_dfix():
    ck, ctx = make_ctx("A : U", "f : (|> A) -> A")
    check_ok(ck, ctx, "dfix 0 x. f x", "|> A")


def test_check_dfix_needs_later_codomain():
    ck, ctx = make_ctx("A : U", "f : (|> A) -> A")
    check_fails(ck, ctx, "dfix 0 x. f x", "A")


def test_check_lambda_annotation_must_match():
    ck, ctx = make_ctx()
    check_fails(ck, ctx, r"\(x : U) -> x", "N -> N")


def test_funext_checks():
    ck, ctx = make_ctx("A : U", "B : U", "f : A -> B", "g : A -> B",
                       "p : (x : A) -> Path B (f x) (g x)")
    check_ok(ck, ctx, r"<i> \x -> (p x) @ i", "Path (A -> B) f g")


def test_later_extensionality_term_checks():
    ck, ctx = make_ctx("A : U", "t : A", "u : A", "p : |> (Path A t u)")
    check_ok(ck, ctx, "<i> next [q <- p] (q @ i)",
             "Path (|> A) (next t) (next u)")


def test_ill_guarded_fix_rejected():
    ck, ctx = make_ctx("A : U", "f : A -> A")
    with pytest.raises(GcttTypeError):
        ck.check(ctx, parse_term("fix 0 x. f x"),
                 eval_term(ctx.env, parse_term("A")))


# ---------------------------------------------------------------------------
# delayed substitutions


def test_check_ds_empty():
    ck, ctx = make_ctx()
    ctx2, entries, binders = ck.check_ds(ctx, (), None)
    assert entries == [] and binders == []


def test_check_ds_later_entry():
    ck, ctx = make_ctx("A : U", "t : |> A")
    term = parse_term("next [x <- t] x")
    ctx2, entries, binders = ck.check_ds(ctx, term.subst, None)
    assert len(entries) == 1
    assert term_str(readback(ctx2.used, ctx2.types["x"])) == "A"


def test_check_ds_dependent_telescope():
    # the second binding's later type mentions the first binding
    ck, ctx = make_ctx("A : U", "t : |> A", "s : |> [x <- t] (Path A x x)")
    term = parse_term("next [x <- t, q <- s] (q @ 0)")
    ck.infer(ctx, term)


def test_check_ds_non_later_entry_rejected():
    ck, ctx = make_ctx("A : U", "a : A")
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("next [x <- a] x"))
    assert exc.value.kind == "ds-ill-formed"


def test_check_ds_prefix_mismatch_rejected():
    ck, ctx = make_ctx("A : U", "t : |> A", "u : |> A",
                       "s : |> [x <- t] (Path A x x)")
    # s's delayed substitution mentions t, but the prefix here binds u
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("next [x <- u, q <- s] (q @ 0)"))
    assert exc.value.kind == "ds-ill-formed"


def test_check_ds_next_substitution_under_the_context_face():
    # on (i=0) p @ i is t, so y's binding is inlined into q's later type,
    # whose delayed substitution then needs w only
    ck, ctx = make_ctx("t : |> N", "s : |> N", "p : Path (|> N) t s", "i : I")
    later = parse_term("|> [w <- p @ i, y <- next [z <- t] (suc z)]"
                       " (Path N y y)")
    with pytest.raises(GcttTypeError):
        ck.check_type(ctx, later)
    ctx0 = ctx.restrict(face_lit("i", 0))
    ctx0, _ = ctx0.bind_term("q", ck.check_type(ctx0, later))
    assert infer_str(ck, ctx0, "next [w <- p @ i, r <- q] (r @ 0)") == "|> N"


# ---------------------------------------------------------------------------
# systems


def test_system_checks_under_covering_restriction():
    ck, ctx = make_ctx("A : U", "a : A", "b : A", "i : I")
    ctx_r = ctx.restrict(parse_face_join("i"))
    ck.check_system(ctx_r, parse_term("[ (i=0) -> a, (i=1) -> b ]").branches,
                    eval_term(ctx.env, parse_term("A")), None)


def parse_face_join(name):
    from gctt.interval import face_join, face_lit

    return face_join(face_lit(name, 0), face_lit(name, 1))


def test_system_not_covering():
    ck, ctx = make_ctx("A : U", "a : A", "i : I")
    with pytest.raises(GcttTypeError) as exc:
        ck.check_system(ctx, parse_term("[ (i=0) -> a ]").branches,
                        eval_term(ctx.env, parse_term("A")), None)
    assert exc.value.kind == "face-not-covering"


def test_system_incompatible_overlap():
    ck, ctx = make_ctx("i : I", "j : I")
    ctx_r = ctx.restrict(parse_face_join("i"))
    with pytest.raises(GcttTypeError) as exc:
        ck.check_system(
            ctx_r,
            parse_term("[ (i=0) -> 0, (i=0) /\\ (j=0) -> 1, (i=1) -> 0 ]").branches,
            VNat(), None,
        )
    assert exc.value.kind == "system-incompatible"


def test_total_system_checks_like_its_body():
    ck, ctx = make_ctx("i : I")
    from gctt.interval import FACE_TOP

    ck.check_system(ctx, ((FACE_TOP, parse_term("0")),), VNat(), None)


# ---------------------------------------------------------------------------
# compositions


def test_transp_types_at_line_end():
    ck, ctx = make_ctx("A : U", "B : U", "P : Path U A B", "a : A")
    assert infer_str(ck, ctx, "transp i (P @ i) a") == "B"


def test_transitivity_checks():
    ck, ctx = make_ctx("A : U", "a : A", "b : A", "c : A",
                       "p : Path A a b", "q : Path A b c")
    check_ok(ck, ctx, "<i> comp j A [ (i=0) -> a, (i=1) -> q @ j ] (p @ i)",
             "Path A a c")


def test_comp_base_boundary_violation():
    ck, ctx = make_ctx("i : I")
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("comp j N [ (i=0) -> 1 ] 0"))
    assert exc.value.kind == "boundary-violation"


def test_comp_face_names_must_be_scoped():
    ck, ctx = make_ctx()
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("comp j N [ (i=0) -> 1 ] 1"))
    assert exc.value.kind == "unbound"


# ---------------------------------------------------------------------------
# later / glue type formation


def test_later_code_in_universe():
    # the encoding of the later operator on codes: x : |> U |- |>[y<-x] y : U
    ck, ctx = make_ctx("x : |> U")
    assert infer_str(ck, ctx, "|> [y <- x] y") == "U"


def test_later_formation_rejects_ill_formed_ds():
    ck, ctx = make_ctx("A : U", "a : A")
    with pytest.raises(GcttTypeError) as exc:
        ck.infer(ctx, parse_term("|> [x <- a] A"))
    assert exc.value.kind == "ds-ill-formed"


def test_glue_formation_checks_equiv_shape():
    ck, ctx = make_ctx(
        "i : I",
        "T : U", "A : U",
        "e : (f : T -> A) * ((a : A) -> "
        "(c : (t : T) * Path A a (f t)) * ((c' : (t : T) * Path A a (f t))"
        " -> Path ((t : T) * Path A a (f t)) c c'))",
    )
    check_ok(ck, ctx, "Glue [ (i=0) -> T, e ] A", "U")


def test_glue_formation_rejects_non_equiv():
    ck, ctx = make_ctx("i : I", "T : U", "A : U", "f : T -> A")
    with pytest.raises(GcttTypeError):
        ck.check(ctx, parse_term("Glue [ (i=0) -> T, f ] A"), VUniv())


# ---------------------------------------------------------------------------
# modules


def test_module_unbound_name():
    with pytest.raises(GcttTypeError) as exc:
        Checker().check_module(parse_module("module m where\nx : N = y"))
    assert exc.value.kind == "unbound"


def test_module_duplicate_declaration():
    src = "module m where\nx : N = 0\nx : N = 1"
    with pytest.raises(GcttTypeError):
        Checker().check_module(parse_module(src))


def test_module_later_declarations_see_earlier():
    src = "module m where\ntwo : N = 2\nfour : N = suc (suc two)"
    checked = Checker().check_module(parse_module(src))
    assert checked.order == ("two", "four")


def test_universe_code_used_as_type_commutes_with_evaluation():
    src = ("module m where\n"
           "code : U = (x : N) * N\n"
           "elem : code = (1, 2)\n"
           "back : N = elem.2")
    checked = Checker().check_module(parse_module(src))
    ty, val = checked.table["back"]
    assert term_str(readback(frozenset(), val, ty)) == "2"


def test_subject_reduction_on_module():
    src = ("module m where\n"
           "f : N -> N = \\n -> natrec (\\m -> N) 1 (\\m r -> suc r) n\n"
           "v : N = f 2\n"
           "p : Path N (f 0) 1 = <i> 1")
    checked = Checker().check_module(parse_module(src))
    ck = Checker()
    ctx = Ctx()
    for name in checked.order:
        ty, val = checked.table[name]
        nf = readback(frozenset(checked.order), val, ty)
        ck.check(ctx, nf, ty)
        ctx = ctx.define(name, ty, val)


def test_fuel_bound_surfaces_as_error():
    src = ("module m where\n"
           "big : N -> N = \\n -> natrec (\\m -> N) 0 (\\m r -> suc r) n\n"
           "p : Path N (big 9) (big 9) = <i> big 9")
    with pytest.raises(GcttTypeError) as exc:
        Checker(fuel=5).check_module(parse_module(src))
    assert "fuel" in exc.value.message


def test_subject_reduction_across_corpus(corpus_dir):
    """Normal forms of every corpus declaration recheck at their types."""
    from gctt.cli import Loader

    loader = Loader([str(corpus_dir)])
    ck = Checker()
    for path in sorted(corpus_dir.glob("*.gctt")):
        checked = loader.load(path)
        ctx = Ctx()
        for name in checked.order:
            ty, val = checked.table[name]
            nf = readback(ctx.used, val, ty)
            ck.check(ctx, nf, ty)
            ctx = ctx.define(name, ty, val)


@pytest.mark.parametrize("candidate", [
    "<i> 0",
    "<i> 1",
    "<i> comp j N [ (i=0) -> 0, (i=1) -> 1 ] 0",
    "<i> natrec (\\n -> N) 0 (\\n r -> 1) 0",
])
def test_no_closed_path_from_zero_to_one(candidate):
    ck, ctx = make_ctx()
    check_fails(ck, ctx, candidate, "Path N 0 1")
