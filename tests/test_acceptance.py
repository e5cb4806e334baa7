"""Acceptance criteria, one test per criterion.

Each test prints a PASS line (with -s) and enforces the stated budget and
tolerance: these are exact checks, not approximations.
"""

import itertools
import random
import time

import pytest

from gctt.cli import main as cli_main
from gctt.conversion import conv
from gctt.eval import (
    VNat,
    VSuc,
    VZero,
    act,
    env_face,
    eval_term,
    readback,
)
from gctt.interval import (
    FACE_BOT,
    FACE_TOP,
    IVar,
    ONE,
    ZERO,
    clause_assignment,
    face_clauses,
    face_equal,
    face_forall,
    face_join,
    face_lit,
    face_meet,
    dm_dnf,
)
from gctt.parser import parse_module, parse_term
from gctt.syntax import Suc, Zero, term_str
from gctt.typechecker import Checker, Ctx

from test_interval import (
    all_faces,
    dm4_vector,
    entails,
    enumerate_iexprs,
    face_vector,
)

POSITIVE_CORPUS = [
    "funext.gctt",
    "later_ext.gctt",
    "unfold_lemma.gctt",
    "unique_fix.gctt",
    "streams.gctt",
    "zipwith.gctt",
    "y_combinator.gctt",
    "univ_comp.gctt",
]

NEGATIVE_KINDS = {
    "ill_guarded.gctt": "mismatch",
    "non_covering.gctt": "face-not-covering",
    "incompatible_system.gctt": "system-incompatible",
    "boundary_violation.gctt": "boundary-violation",
    "ill_formed_ds.gctt": "ds-ill-formed",
}


def ok(n, message):
    print(f"PASS criterion {n}: {message}")


def test_criterion_1_interval_oracle_equivalence():
    """dm_equal agrees with exhaustive four-element De Morgan evaluation on
    all expression trees over two names of height at most 3 (leaves count as
    height 1)."""
    start = time.monotonic()
    names = ["i", "j"]
    exprs = enumerate_iexprs(names, 3)
    by_dnf, by_vec = {}, {}
    for r in exprs:
        d, v = dm_dnf(r), dm4_vector(r, names)
        assert by_dnf.setdefault(d, v) == v
        assert by_vec.setdefault(v, d) == d
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(1, f"dm_equal matches the four-element oracle on {len(exprs)}"
          f" expressions ({elapsed:.1f}s)")


def test_criterion_2_face_oracle_equivalence():
    start = time.monotonic()
    names = ["i", "j"]
    faces = all_faces(names)
    vectors = [face_vector(f, names) for f in faces]
    for (f1, v1), (f2, v2) in itertools.product(zip(faces, vectors),
                                                repeat=2):
        assert face_equal(f1, f2) == (v1 == v2)
    assert face_meet(face_lit("i", 0), face_lit("i", 1)) == FACE_BOT
    assert not face_equal(
        face_join(face_lit("i", 0), face_lit("i", 1)), FACE_TOP
    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(2, f"face_equal matches the valuation oracle on {len(faces)} faces"
          f" ({elapsed:.1f}s)")


def test_criterion_3_forall_adjunction():
    start = time.monotonic()
    phis = all_faces(["i", "j"])
    psis = all_faces(["j"])
    checked = 0
    for phi in phis:
        forall = face_forall("i", phi)
        for psi in psis:
            assert entails(psi, forall) == entails(psi, phi)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    ok(3, f"forall adjunction verified on {checked} pairs ({elapsed:.1f}s)")


def test_criterion_4_golden_corpus(corpus_dir, capsys):
    start = time.monotonic()
    for name in POSITIVE_CORPUS:
        code = cli_main(["check", str(corpus_dir / name)])
        assert code == 0, name
    elapsed = time.monotonic() - start
    capsys.readouterr()
    assert elapsed < 30.0
    ok(4, f"{len(POSITIVE_CORPUS)} corpus modules check with exit 0"
          f" ({elapsed:.1f}s)")


def _normalize_expr(corpus_dir, module, expr, at=None):
    import io
    from contextlib import redirect_stdout

    args = ["normalize", str(corpus_dir / module), "--expr", expr]
    for a in at or []:
        args += ["--at", a]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(args)
    assert code == 0, (expr, at)
    return buf.getvalue()


def test_criterion_5_unfold_endpoints_byte_equal(corpus_dir):
    path_expr = (r"\(A : U) -> \(f : (|> A) -> A) -> (unfold_path A f) @ i")
    at0 = _normalize_expr(corpus_dir, "unfold_lemma.gctt", path_expr,
                          at=["i=0"])
    at1 = _normalize_expr(corpus_dir, "unfold_lemma.gctt", path_expr,
                          at=["i=1"])
    fix0 = _normalize_expr(
        corpus_dir, "unfold_lemma.gctt",
        r"\(A : U) -> \(f : (|> A) -> A) -> fix 0 x. f x",
    )
    unfolded = _normalize_expr(
        corpus_dir, "unfold_lemma.gctt",
        r"\(A : U) -> \(f : (|> A) -> A) -> f (next (fix 0 x. f x))",
    )
    assert at0 == fix0
    assert at1 == unfolded
    assert at0 != at1
    ok(5, f"unfold path endpoints print as {at0.strip()!r} and"
          f" {at1.strip()!r}")


def test_criterion_6_dfix_discipline():
    from gctt.eval import FnClosure, VLaterT, VPi, ValueClosure, neutral_var

    f = neutral_var("f", VPi(VLaterT((), ValueClosure(VNat())),
                             FnClosure(lambda _x: VNat())))
    env = {"f": f}
    d1 = eval_term(dict(env), parse_term("dfix 1 x. f x"))
    unfolded = eval_term(dict(env), parse_term("next (f (dfix 0 x. f x))"))
    assert conv((), d1, unfolded)
    d0 = eval_term(dict(env), parse_term("dfix 0 x. f x"))
    assert not conv((), d0, unfolded)
    ok(6, "dfix unfolds judgementally exactly at clock 1")


def test_criterion_7_later_equational_theory():
    import test_conversion as tc

    tc.test_term_weakening()
    tc.test_term_exchange()
    tc.test_term_next_substitution()
    tc.test_term_eta()
    tc.test_type_weakening()
    tc.test_type_exchange()
    tc.test_type_next_substitution()
    tc.test_term_weakening_negative_when_variable_occurs()
    tc.test_type_weakening_negative()
    ok(7, "all seven later-type equality rules hold; weakening side"
          " conditions enforced")


def test_criterion_8_boundary_law_200():
    from test_eval import boundary_instances

    ck = Checker()
    ctx = Ctx()
    ctx = ctx.bind_interval("i").bind_interval("l")
    pty = ck.check_type(ctx, parse_term("Path N 0 0"))
    ctx, _ = ctx.bind_term("p", pty)
    count = 0
    for src in boundary_instances(200, seed=20260810):
        comp = parse_term(src)
        ck.infer(ctx, comp)
        result = eval_term(ctx.env, comp)
        env_i = dict(ctx.env)
        env_i[comp.binder] = IVar("?bl8")
        tube1 = act(eval_term(env_i, comp.tube), {"?bl8": ONE})
        phi = FACE_BOT
        for psi, _ in comp.tube.branches:
            phi = face_join(phi, env_face(ctx.env, psi))
        for clause in face_clauses(phi):
            asg = clause_assignment(clause)
            assert conv((), act(result, asg), act(tube1, asg)), src
        count += 1
    assert count == 200
    ok(8, "boundary law holds on 200 generated well-typed compositions")


def _numeral(t):
    n = 0
    while isinstance(t, Suc):
        t, n = t.pred, n + 1
    return n if isinstance(t, Zero) else None


def test_criterion_9_canonicity_smoke(corpus_dir):
    from gctt.cli import Loader

    loader = Loader([str(corpus_dir)])
    found = []
    for name in POSITIVE_CORPUS:
        checked = loader.load(corpus_dir / name)
        for decl in checked.order:
            ty, val = checked.table[decl]
            if isinstance(ty, VNat):
                nf = readback(frozenset(checked.order), val, ty)
                num = _numeral(nf)
                assert num is not None, (name, decl, term_str(nf))
                found.append((decl, num))
    names = [d for d, _ in found]
    assert "headOfCons" in names        # stream head through fold/transp
    assert "two_roundtrip" in names     # through glue types from comp in U
    assert "zipHead" in names           # through a guarded higher-order map
    assert len(found) >= 4
    ok(9, f"all {len(found)} closed natural-number declarations are"
          f" numerals: {found}")


def test_criterion_10_negative_suite(corpus_dir, capsys):
    from gctt.cli import CliError, Loader

    for name, kind in NEGATIVE_KINDS.items():
        path = corpus_dir / "negative" / name
        code = cli_main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 1, name
        assert f"[{kind}]" in err, (name, err)
    ok(10, f"all {len(NEGATIVE_KINDS)} negative modules rejected with their"
           " designated error kinds")
