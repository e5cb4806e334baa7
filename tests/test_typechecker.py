"""Typechecker tests: inference, checking, delayed substitutions, systems,
compositions, glue formation, modules, and the negative suite."""

import sys
import tempfile
from pathlib import Path

import pytest

import gctt.eval as E
from gctt import syntax as S
from gctt.eval import (
    IDENTITY_EQUIV,
    VNat,
    VPathT,
    VPi,
    VUniv,
    equiv_type_value,
    eval_term,
    readback,
    support,
)
from gctt.cli import main
from gctt.interval import ONE, ZERO, face_lit
from gctt.parser import parse_module, parse_term
from gctt.syntax import term_str
from gctt.typechecker import CheckedModule, Checker, Ctx, GcttTypeError

from test_cli import LATER_SHARING, SHADOW
from test_eval import EQ_NN

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def make_ctx(*bindings):
    ck = Checker()
    ctx = Ctx()
    for entry in bindings:
        if entry.endswith(": I"):
            ctx = ctx.bind_interval(entry.split(":")[0].strip())
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
    with pytest.raises(GcttTypeError) as exc:
        ck.check(ctx, parse_term("fix 0 x. f x"),
                 eval_term(ctx.env, parse_term("A")))
    assert exc.value.kind == "mismatch"


class _RecordingChecker(Checker):
    """A checker that records the terms it checks and infers."""

    def __init__(self):
        super().__init__()
        self.checked, self.inferred = [], []

    def check(self, ctx, t, ty):
        self.checked.append(t)
        super().check(ctx, t, ty)

    def infer(self, ctx, t):
        self.inferred.append(t)
        return super().infer(ctx, t)


def test_loeb_induction_body_is_checked_once(corpus_dir):
    from gctt.cli import Loader

    loader = Loader([str(corpus_dir)])
    loader.checker = _RecordingChecker()
    loader.load(corpus_dir / "zipwith.gctt")
    # the body of zipWith_preserves_comm's fix: `\s1 s2 -> ...` at 29:17
    body = [t for t in loader.checker.checked
            if isinstance(t, S.Lam) and t.binder == "s1"
            and (t.span.line, t.span.col) == (29, 17)]
    assert len(body) == 1


def test_positive_corpus_infers_no_delayed_fixed_point(corpus_dir):
    from gctt.cli import Loader

    loader = Loader([str(corpus_dir)])
    loader.checker = _RecordingChecker()
    for path in sorted(corpus_dir.glob("*.gctt")):
        loader.load(path)
    assert not [t for t in loader.checker.inferred if isinstance(t, S.DFix)]


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
    # at the top face y's binding stays, typed by the weakened |> N, and the
    # unused w is dropped
    assert term_str(readback(ctx.used, ck.check_type(ctx, later))) == (
        "|> [y <- next [z <- t] (suc z)] (Path N y y)")
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
        ck.check(ctx, parse_term("[ (i=0) -> a ]"),
                 eval_term(ctx.env, parse_term("A")))
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


def test_a_covering_system_term_checks_as_a_declaration_body():
    src = "module m where\nx : N = [ (1=1) -> 0 ]"
    ty, val = Checker().check_module(parse_module(src)).table["x"]
    assert term_str(readback(frozenset(), val, ty)) == "0"


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
    # the second face names only the composition's own binder, which does
    # not scope over the faces of its tube; in the third the binder shadows
    # an interval name in scope, and the face still may not name it
    for bound, src in (((), "comp j N [ (i=0) -> 1 ] 1"),
                       ((), "comp j N [ (j=0) -> 1 ] 1"),
                       (("i : I",), "comp i N [ (i=0) -> 1 ] 1")):
        ck, ctx = make_ctx(*bound)
        with pytest.raises(GcttTypeError) as exc:
            ck.infer(ctx, parse_term(src))
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


IDENTITY_EQUIV_NF = (
    r"(\x -> x, \x -> ((x, <i> x),"
    r" \x1 -> <i> (x1.2 @ i, <i1> x1.2 @ i /\ i1)))")
EQUIV_TYPE_NF = (
    "(x : A -> A) * ((x1 : A) -> (x2 : (x2 : A) * Path A x1 (x x2))"
    " * ((x3 : (x3 : A) * Path A x1 (x x3)) -> Path ((x4 : A) * Path A x1"
    " (x x4)) (x2.1, <i> x2.2 @ i) (x3.1, <i> x3.2 @ i)))")


def test_identity_equivalence_reads_back_and_rechecks():
    ck, ctx = make_ctx("A : U")
    ty = equiv_type_value(ctx.env["A"], ctx.env["A"])
    term = readback(ctx.used, IDENTITY_EQUIV, ty)
    assert term_str(term) == IDENTITY_EQUIV_NF
    assert term_str(readback(ctx.used, ty)) == EQUIV_TYPE_NF
    ck.check(ctx, term, ty)


def test_glue_type_eta_expands_a_neutral_equivalence():
    # the binder names come from the kernel's equivalence type, not from
    # the one e is declared with
    ck, ctx = make_ctx(
        "i : I",
        "T : U", "A : U",
        "e : (f : T -> A) * ((a : A) -> "
        "(c : (t : T) * Path A a (f t)) * ((c' : (t : T) * Path A a (f t))"
        " -> Path ((t : T) * Path A a (f t)) c c'))",
    )
    glue = parse_term("Glue [ (i=0) -> T, e ] A")
    ck.check(ctx, glue, VUniv())
    assert term_str(readback(ctx.used, eval_term(ctx.env, glue))) == (
        r"Glue [ (i=0) -> T, (\x -> e.1 x, \x -> (((e.2 x).1.1,"
        r" <i1> (e.2 x).1.2 @ i1), \x1 -> <i1> (((e.2 x).2 x1 @ i1).1,"
        r" <i2> ((e.2 x).2 x1 @ i1).2 @ i2))) ] A")


def test_glue_formation_rejects_non_equiv():
    ck, ctx = make_ctx("i : I", "T : U", "A : U", "f : T -> A")
    with pytest.raises(GcttTypeError):
        ck.check(ctx, parse_term("Glue [ (i=0) -> T, f ] A"), VUniv())


GLUE_NN = "Glue [ (i=0) -> N, e ] N"


def test_glue_base_must_be_the_image_of_its_partial_part():
    ck, ctx = make_ctx("i : I", f"e : {EQ_NN}")
    err = check_fails(ck, ctx, "glue [ (i=0) -> 1 ] (e.1 0)", GLUE_NN,
                      "boundary-violation")
    assert err.message == "glue base must equal the image of its partial part"


def test_glue_element_with_a_partial_part_and_a_path_of_them():
    # the path's endpoints are compared at the glue type
    ck, ctx = make_ctx("i : I", f"e : {EQ_NN}")
    g = "glue [ (i=0) -> 0 ] (e.1 0)"
    check_ok(ck, ctx, g, GLUE_NN)
    check_ok(ck, ctx, f"<j> {g}", f"Path ({GLUE_NN}) ({g}) ({g})")


def test_glue_elements_equal_only_in_the_base_are_not_equal():
    # \(x : N) -> 0 sends every number to 0, so glue [ (i=0) -> 1 ] 0 and
    # glue [ (i=0) -> 2 ] 0 agree in the base and differ where i=0.  pf, the
    # hypothesis that the function is an equivalence, types both.
    ck, ctx = make_ctx(
        "i : I",
        "pf : (a : N) -> (c : (t : N) * Path N a 0)"
        " * ((c' : (t : N) * Path N a 0) -> Path ((t : N) * Path N a 0) c c')",
    )
    glue_ty = r"Glue [ (i=0) -> N, (\(x : N) -> 0, pf) ] N"
    one, two = "glue [ (i=0) -> 1 ] 0", "glue [ (i=0) -> 2 ] 0"
    check_ok(ck, ctx, f"<j> {one}", f"Path ({glue_ty}) ({one}) ({one})")
    check_fails(ck, ctx, f"<j> {one}", f"Path ({glue_ty}) ({one}) ({two})",
                "boundary-violation")


def test_unglue_of_a_glue_transport_where_the_face_holds():
    # at i=0 the transport is one in the partial type N, whose image under
    # e.1 is the left endpoint
    ck, ctx = make_ctx(f"e : {EQ_NN}")
    check_ok(ck, ctx,
             "<i> unglue (transp k (Glue [ (i=0) -> N, e ] N)"
             " (glue [ (i=0) -> 0 ] (e.1 0)))",
             "Path N (e.1 0) (transp k N (transp k N (e.1 0)))")


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


def test_a_name_in_scope_is_not_bound_again():
    # the checker meets only terms renamed apart from their context, so a
    # second binding of a name is the checker's error, not the user's
    _, ctx = make_ctx("x : N", "i : I")
    for bind in (lambda: ctx.bind_term("i", VNat()),
                 lambda: ctx.bind_interval("x"),
                 lambda: ctx.define("x", VNat(), VNat())):
        with pytest.raises(RuntimeError, match="bound twice"):
            bind()


def test_a_declaration_hides_an_import_of_its_name():
    lib = Checker().check_module(parse_module("module lib where\none : N = 1"))
    src = ("module m where\nimport lib\n"
           "two : N = suc one\none : N = 5\nsix : N = suc one")
    table = Checker().check_module(parse_module(src), [lib]).table
    assert [term_str(readback(frozenset(), table[x][1]))
            for x in ("two", "six")] == ["2", "6"]


def test_a_next_with_its_bindings_exchanged_checks_by_inference():
    """The type's delayed substitution is matched against the `next`'s
    bindings in order, which fails here; its type is then inferred and
    compared with the expected one up to exchange."""
    src = ("module m where\n"
           "F : N -> N -> U = \\x -> \\y -> N\n"
           "g : (x : N) -> (y : N) -> F x y = \\x -> \\y -> x\n"
           "swapNext : (s : |> N) -> (t : |> N)"
           " -> |> [a <- s, b <- t] (F a b)"
           " = \\s -> \\t -> next [b <- t, a <- s] (g a b)")
    checked = Checker().check_module(parse_module(src))
    assert checked.order == ("F", "g", "swapNext")


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


def _guarded_modules(seed):
    """The positive `guarded` modules of a seed, by stem
    `guarded<seed>/zipwith<k>`."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "guarded"
        workloads.generate("guarded", seed, out)
        return {f"guarded{seed}/zipwith{k}":
                (out / f"zipwith{k}.gctt").read_text()
                for k in workloads.GUARDED_ARITIES}


# Generated `guarded` developments: one by name, and the positive modules of
# seeds 1 and 2 by seed and name.
NF_GENERATED = {"zipwith2": workloads.zipwith_module("zipwith2", 2, (0, 1)),
                **_guarded_modules(1), **_guarded_modules(2)}
# Every corpus module, and the generated ones, by name.
NF_MODULES = {**{path.stem: path.read_text()
                 for path in sorted((ROOT / "corpus").glob("*.gctt"))},
              **NF_GENERATED}
# FOUND in CHANGES.md: printing drops the later type of a `dfix` the checker
# must infer (a delayed-substitution binding), and no enclosing expected
# type fits its body
NOT_FROM_TEXT = pytest.mark.xfail(
    strict=True, raises=GcttTypeError,
    reason="FOUND: a printed normal form does not always check again from"
    " its text")
NF_DECLARATIONS = [
    pytest.param(stem, decl.name, None, id=f"{stem}.{decl.name}", marks=(
        NOT_FROM_TEXT if decl.name == "zipWith_preserves_comm"
        or decl.name.endswith("_swap") else ()))
    for stem, text in NF_MODULES.items()
    for decl in parse_module(text).declarations]

# The modules, besides the corpus, that `tests/test_cli.py` normalizes
# expressions in.
NF_EXPR_MODULES = {
    "ati": "i : N = 2\n\nf : N -> N = \\x -> suc x",
    "a": "za : N = 0", "b": "import a",
    "shadow": SHADOW.format(b="a"), "shadow2": SHADOW.format(b="a2"),
}
# The composition's binder is not bound (ROADMAP item 6): its printed
# normal form fails the base's boundary check
UNBOUND_BINDER = pytest.mark.xfail(
    strict=True, raises=GcttTypeError,
    reason="ROADMAP item 6: the golden univ_comp normal form reuses a"
    " composition binder")


def _kan_items(seed):
    with tempfile.TemporaryDirectory() as tmp:
        return workloads.generate("kan_normalize", seed, Path(tmp) / "kan")


# Each `--expr` normal form `tests/test_cli.py` pins, the golden one, and
# each `kan_normalize` item at seeds 1 and 2: (module or None, expression,
# `--at` arguments).
NF_EXPRESSIONS = [
    pytest.param(*case, id=f"cli{k}") for k, case in enumerate([
        ("streams", "hd N (cons N 2 (next zeros))", ()),
        (None, r"\(s : |> N) -> next [x <- s] ((\(y : N) -> y) x)", ()),
        *[("unfold_lemma",
           r"\(A : U) -> \(f : (|> A) -> A) -> (unfold_path A f) @ i", (at,))
          for at in ("i=0", "i=1")],
        (None, "<i> 0", ("i=0",)),
        (None, r"\(p : Path N 0 0) -> p @ x", ("x=1",)),
        (None, "comp k N [ (i=1) -> 0 ] 0", ("i=0",)),
        ("ati", r"\(q : Path N 0 0) -> <k> q @ i", ("i=0",)),
        ("ati", r"\(p : Path N 0 0) -> <i> p @ i", ("i=0",)),
        ("ati", "f i", ()),
        (None, r"(\(A : U) -> \(x : A) -> x) N 0", ()),
        (None, LATER_SHARING, ()),
        ("b", "suc za", ()),
        (None, "0", ()),
        ("funext", "transp i ((comp j U [ (i=0) -> N ] N) * N) (1, 2)", ()),
        ("shadow", "f (next 5) 0", ()),
        ("shadow2", "f (next 5) 0", ()),
        (None, r"(\(x : N) -> \(x : N) -> \(y : Path N x x) -> y) 0 1", ()),
        (None, r"\(x : |> N) -> next [x <- x] (<j> x)", ()),
        (None, r"\(t : |> N) -> next [y <- next [z <- t] (suc z)] y", ()),
    ])
] + [
    pytest.param(None, "<i> comp j U [ (i=0) -> N ] N", (),
                 id="golden.univ_comp", marks=UNBOUND_BINDER),
] + [
    pytest.param("kan", item["argv"][3], (),
                 id=f"kan_normalize{seed}.{item['group']}")
    for seed in (1, 2) for item in _kan_items(seed)
]


@pytest.fixture(scope="module")
def nf_path(tmp_path_factory):
    """The file of a module of NF_MODULES or NF_EXPR_MODULES, or of the
    `kan_normalize` prelude, by name."""
    tmp = tmp_path_factory.mktemp("nf")
    for stem, text in NF_GENERATED.items():
        (tmp / f"{stem}.gctt").parent.mkdir(exist_ok=True)
        (tmp / f"{stem}.gctt").write_text(text)
    (tmp / "kan.gctt").write_text(workloads.KAN_PRELUDE)
    for name, text in NF_EXPR_MODULES.items():
        (tmp / f"{name}.gctt").write_text(f"module {name} where\n\n{text}\n")
    return lambda stem: (tmp if (tmp / f"{stem}.gctt").exists()
                         else ROOT / "corpus") / f"{stem}.gctt"


@pytest.fixture(scope="module")
def nf_loader(nf_path):
    """Checks a module, and the modules it imports, once."""
    from gctt.cli import Loader

    loader = Loader([str(ROOT / "corpus")])
    return lambda stem: loader.load(nf_path(stem))


def _inferred_type(table, expr, at) -> str:
    """The type the checker infers for `expr` where `gctt normalize --expr`
    checks it, with its `--at` substitution applied, printed."""
    subs = {i: ONE if r == "1" else ZERO
            for i, r in (a.split("=") for a in at)}
    ctx = Ctx()
    for name, (ty, val) in table.items():
        if name not in subs:
            ctx = ctx.define(name, ty, val)
    for name in subs:
        ctx = ctx.bind_interval(name)
    ck = Checker()
    with ck.fuelled():
        ty = ck.infer(ctx, S.rename_apart(parse_term(expr), ctx.env))
        return term_str(readback(table.keys(), E.act(ty, subs)))


@pytest.mark.parametrize("stem, name, at", NF_DECLARATIONS + NF_EXPRESSIONS)
def test_printed_normal_forms_check_again_from_their_text(
        nf_loader, nf_path, capsys, stem, name, at):
    """A normal form and its type, printed as `gctt normalize` prints them
    and parsed into a module after what is in scope where it was
    normalized, check.  It is the normal form of the declaration `name` of
    the module `stem`, or, given `--at` arguments `at`, that of the
    expression `name` in that module (in none if `stem` is None), at the
    type the checker infers for it."""
    table = nf_loader(stem).table if stem else {}
    if at is None:
        names = list(table)  # the imported names, then the declarations
        before = {k: table[k] for k in names[:names.index(name)]}
        ty, val = table[name]
        ty_text = term_str(readback(table.keys(), ty))
        nf_text = term_str(readback(table.keys(), val, ty))
    else:
        before, ty_text = table, _inferred_type(table, name, at)
        argv = [str(nf_path(stem))] if stem else []
        for a in at:
            argv += ["--at", a]
        assert main(["normalize", *argv, "--expr", name]) == 0
        nf_text = capsys.readouterr().out.strip()
        name = S.fresh_name("d", table.keys())
    text = f"module nf where\n\n{name} : {ty_text} = {nf_text}\n"
    checked = Checker().check_module(parse_module(text),
                                     [CheckedModule("before", before)])
    assert checked.order == (name,)


def test_a_diagnostic_prints_a_binder_as_written():
    """The checker binds each variable of a declaration under the name it is
    written with, and prints it so."""
    from gctt.cli import Loader

    streams = Loader([]).load(ROOT / "corpus" / "streams.gctt")
    text = workloads.zipwith_module("zipwith_unguarded", 2, (0, 1),
                                    unguarded=True)
    with pytest.raises(GcttTypeError) as exc:
        Checker().check_module(parse_module(text), [streams])
    assert exc.value.kind == "not-a-function"
    assert exc.value.message.startswith(
        "applied a term of type |> ((A1 * |> [y <- dfix 0 x. A1 * ")


@pytest.mark.parametrize("candidate", [
    "<i> 0",
    "<i> 1",
    "<i> comp j N [ (i=0) -> 0, (i=1) -> 1 ] 0",
    "<i> natrec (\\n -> N) 0 (\\n r -> 1) 0",
])
def test_no_closed_path_from_zero_to_one(candidate):
    ck, ctx = make_ctx()
    check_fails(ck, ctx, candidate, "Path N 0 1")


def test_checking_never_reads_back_the_type_of_an_unevaluated_fix(
        corpus_dir, count_calls):
    """Checking zipwith.gctt reads back no registered fixed-point type, so
    the module's readbacks stay few (1048 when each registered type was
    read back at registration)."""
    ck = Checker()
    streams = ck.check_module(
        parse_module((corpus_dir / "streams.gctt").read_text()))
    module = parse_module((corpus_dir / "zipwith.gctt").read_text())
    (proof,) = [d for d in module.declarations
                if d.name == "zipWith_preserves_comm"]
    fix = proof.body
    while isinstance(fix, S.Lam):
        fix = fix.body
    assert isinstance(fix, S.Fix)
    calls = count_calls("readback", "readback_value", "readback_neutral")
    ck.check_module(module, [streams])
    assert sum(calls.values()) <= 400
    assert fix._dfix_type is not None


def test_a_constant_codomain_is_instantiated_without_its_argument():
    """`h`'s codomain ignores its binder `x`, which shadows the outer `x`.
    The `fix` in it is registered at `|> Path N x x`, over the outer `x`,
    though its body does not mention `x`. Inferring `h 0` instantiates the
    codomain with `x` unbound, so that type is out of scope there; bound to
    `0` it would type the fixed point at `|> Path N 0 0` and the module
    would fail, and bound to a placeholder reading the type back in the
    annotated lambda would raise."""
    src = (
        "module m where\n"
        "shadow : (x : N) -> (g : Path N x x -> U)\n"
        "  -> (k : |> N -> Path N x x)\n"
        "  -> (h : (x : N) -> g (fix 0 r. k (next [y <- r] (y @ 0))))\n"
        "  -> g (fix 0 r. k (next [y <- r] (y @ 0)))\n"
        "  = \\x g k h -> (\\(z : N) -> h 0) 0\n")
    checked = Checker().check_module(parse_module(src))
    assert checked.order == ("shadow",)


def test_a_shadowing_binder_leaves_a_fixed_point_type_alone():
    """The `fix` is registered at `|> Path N x x` over the outer `x`.
    Instantiating `h`'s codomain at `0` binds its own `x`, which the
    registered type must not see."""
    src = (
        "module m where\n"
        "m : (x : N) -> (g : N -> Path N x x -> U)\n"
        "  -> (k : |> N -> Path N x x)\n"
        "  -> (h : (x : N) -> g x (fix 0 r. k (next [y <- r] (y @ 0))))\n"
        "  -> g 0 (fix 0 r. k (next [y <- r] (y @ 0)))\n"
        "  = \\x g k h -> (\\(z : N) -> h 0) 0\n")
    checked = Checker().check_module(parse_module(src))
    assert checked.order == ("m",)


def test_deferred_fixed_point_types_read_back_as_eager_ones(
        corpus_dir, tmp_path, monkeypatch):
    """Every fixed-point type instantiated while the positive corpus and
    the positive `guarded` modules of seeds 1 and 2 are checked and
    normalized reads back, up to the names of its binders, as the type
    given by the route that reads the registered type back over its names
    in scope and evaluates the text in the same environment: the action on
    variables agrees with evaluation.  Where the instantiation gives no
    type, that route finds a name out of scope too."""
    import gctt.typechecker as T
    from gctt.cli import Loader
    from test_conversion import _guarded_positives

    instantiate = E.registered_dfix_type
    seen = []

    def recording(env, node):
        ty = instantiate(env, node)
        seen.append((env, node._dfix_type, ty))
        return ty

    for mod in (E, T):
        monkeypatch.setattr(mod, "registered_dfix_type", recording)
    for root, names in [(corpus_dir, [p.name for p in
                                      sorted(corpus_dir.glob("*.gctt"))]),
                        *_guarded_positives(tmp_path, (1, 2))]:
        loader = Loader([str(root)])
        for name in names:
            checked = loader.load(root / name)
            used = frozenset(checked.table)
            for decl in checked.order:
                ty, val = checked.table[decl]
                readback(used, val, ty)
    monkeypatch.undo()
    differ = instantiated = 0
    for env, entry, ty in seen:
        if entry is None:
            continue
        used, later = entry
        term = readback(used, later)
        fvs, fis = S.free_names(term)
        reference = (eval_term(env, term) if (fvs | fis) <= env.keys()
                     else None)
        if ty is None:
            assert reference is None, term_str(term)
            continue
        instantiated += 1
        names = support(ty) | support(reference) | frozenset(env)
        differ += (S.alpha_canonical(readback(names, ty))
                   != S.alpha_canonical(readback(names, reference)))
    # 981 instantiated (960 over seed 1 alone before applications of
    # declarations were kept folded)
    assert instantiated > 900 and differ == 0
