"""Conversion tests: the later-type equational theory decided on values,
systems, and general properties of judgemental equality."""

import itertools
import sys
from pathlib import Path

import pytest

from gctt import conversion
from gctt.conversion import conv, conv_under
from gctt.eval import (
    FnClosure,
    VLaterT,
    VNat,
    VNext,
    VPathT,
    VPi,
    VSigma,
    ValueClosure,
    canon_later_value,
    eval_term,
    match_later,
    neutral_var,
    readback_value,
)
from gctt.interval import FACE_TOP, IVar, face_join, face_lit, face_meet
from gctt.parser import parse_term
from gctt.syntax import alpha_canonical

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def later_of(v):
    return VLaterT((), ValueClosure(v))


def std_env():
    nat_fn = VPi(VNat(), FnClosure(lambda _x: VNat()))
    later_nat = later_of(VNat())
    env = {
        "A": neutral_var("A", None),
        "u": neutral_var("u", VNat()),
        "t": neutral_var("t", later_nat),
        "s": neutral_var("s", later_nat),
        "r": neutral_var("r", later_nat),
        "g": neutral_var("g", VPi(VNat(), FnClosure(
            lambda _x: VPi(VNat(), FnClosure(lambda _y: VNat()))
        ))),
        "f": neutral_var("f", VPi(later_nat, FnClosure(lambda _x: VNat()))),
        "h": neutral_var("h", nat_fn),
    }
    return env


def ev(src, env):
    return eval_term(dict(env), parse_term(src))


def cv(a, b, env=None):
    env = std_env() if env is None else env
    return conv((), ev(a, env), ev(b, env))


# ---------------------------------------------------------------------------
# the later-type equational theory (term rules)


def test_term_weakening():
    assert cv("next [x <- t] u", "next u")


def test_term_weakening_negative_when_variable_occurs():
    assert not cv("next [x <- t] (suc x)", "next (suc u)")


def test_term_exchange():
    assert cv("next [x <- t, y <- s] (g x y)",
              "next [y <- s, x <- t] (g x y)")


def test_term_next_substitution():
    assert cv("next [x <- next u] (suc x)", "next (suc u)")


def test_term_next_substitution_under_prefix():
    assert cv("next [a <- t, x <- next [a <- t] (suc a)] (g a x)",
              "next [a <- t] (g a (suc a))")


def test_term_eta():
    assert cv("next [x <- t] x", "t")


def test_term_eta_when_the_body_only_reduces_to_the_binder():
    nxt = "next [x <- t] ((\\(y : N) -> y) x)"
    assert cv(nxt, "t") and cv("t", nxt)
    assert not cv("next [x <- t] (suc x)", "t")
    assert not cv("next [x <- s] ((\\(y : N) -> y) x)", "t")


# ---------------------------------------------------------------------------
# the later-type equational theory (type rules)


def test_type_weakening():
    assert cv("|> [x <- t] N", "|> N")


def test_type_weakening_negative():
    env = std_env()
    lhs = ev("|> [x <- t] (Path N x x)", env)
    rhs = ev("|> (Path N u u)", env)
    assert not conv((), lhs, rhs)


def test_type_exchange():
    assert cv("|> [x <- t, y <- s] (Path N x y)",
              "|> [y <- s, x <- t] (Path N x y)")


def test_type_next_substitution():
    assert cv("|> [x <- next u] (Path N x x)", "|> (Path N u u)")


# ---------------------------------------------------------------------------
# the value-level decision: pairing, shared probes, dependencies


def test_weakening_of_several_bindings():
    assert cv("next [x <- t, y <- s] u", "next u")
    assert cv("|> [x <- t, y <- s] N", "|> N")


def test_weakening_of_a_binding_that_is_not_the_last():
    assert cv("next [x <- t, y <- s] (h y)", "next [y <- s] (h y)")
    assert cv("|> [x <- t, y <- s] (Path N y y)", "|> [y <- s] (Path N y y)")


def test_exchange_in_every_order():
    body = "(g x (g y z))"
    orders = itertools.permutations(["x <- t", "y <- s", "z <- r"])
    srcs = [f"next [{', '.join(o)}] {body}" for o in orders]
    for a in srcs:
        assert cv(srcs[0], a), a


def test_exchange_of_bindings_with_identical_contents():
    assert cv("next [x <- t, y <- t] (g x y)", "next [x <- t, y <- t] (g y x)")
    assert cv("next [x <- t, y <- t, z <- s] (g z (g x y))",
              "next [z <- s, y <- t, x <- t] (g z (g y x))")


def test_weakening_picks_the_used_one_of_identical_bindings():
    assert cv("next [x <- t, y <- t] (h y)", "next [z <- t] (h z)")
    assert cv("next [z <- t] (h z)", "next [x <- t, y <- t] (h y)")


def test_used_binding_with_different_contents_is_not_equal():
    assert not cv("next [x <- t] (suc x)", "next [x <- s] (suc x)")
    assert not cv("|> [x <- t] (Path N x x)", "|> [x <- s] (Path N x x)")


def test_identical_contents_do_not_identify_distinct_uses():
    assert not cv("next [x <- t, y <- t] (g x y)", "next [x <- t] (g x x)")
    assert not cv("next [x <- t] (g x x)", "next [x <- t, y <- t] (g x y)")


def test_next_is_not_a_later_type():
    assert not cv("next [x <- t] (suc x)", "|> [x <- t] N")


def test_pi_and_sigma_types_with_convertible_parts_are_not_equal():
    body = ValueClosure(VNat())
    assert not conv((), VPi(VNat(), body), VSigma(VNat(), body))
    assert not conv((), VSigma(VNat(), body), VPi(VNat(), body))
    assert not cv("N -> N", "N * N")


def test_next_substitution_of_several_bindings_under_a_prefix():
    assert cv("next [a <- t, x <- next [b <- t] (suc b),"
              " y <- next [c <- t] (h c)] (g x y)",
              "next [a <- t] (g (suc a) (h a))")


def test_canon_later_value_is_idempotent():
    env = std_env()
    v = canon_later_value(ev("next [a <- t, x <- next [b <- t] (suc b)]"
                             " (g a x)", env))
    assert isinstance(v, VNext) and len(v.entries) == 1
    assert canon_later_value(v) is v


def test_later_type_matches_bindings_under_a_face():
    # p @ i is t on (i=0) and s on (i=1), so the later type's substitution
    # matches the binding of t under (i=0) only
    env = std_env()
    env["p"] = neutral_var("p", VPathT(
        later_of(VNat()), ValueClosure(env["t"]), ValueClosure(env["s"])))
    env["i"] = IVar("i")
    lty = ev("|> [y <- p @ i] (Path N y y)", env)
    x = neutral_var("x", VNat())
    entries = [("x", env["t"])]
    matched = match_later(lty, entries, [x], face_lit("i", 0))
    assert matched is not None and matched[1] == (0,)
    assert conv((), matched[0],
                VPathT(VNat(), ValueClosure(x), ValueClosure(x)))
    assert match_later(lty, entries, [x]) is None
    assert match_later(lty, entries, [x], face_lit("i", 1)) is None


def test_binder_typed_through_its_dependency():
    # q's later type depends on the binding x before it; its probe must be
    # typed Path N (h x) (h x) for `q @ 0` to reduce to `h x`
    env = std_env()
    env["p"] = neutral_var("p", ev("|> [x <- s] (Path N (h x) (h x))", env))
    lhs = ev("next [x <- s, q <- p] (q @ 0)", env)
    assert conv((), lhs, ev("next [x <- s] (h x)", env))
    assert conv((), ev("next [x <- s] (h x)", env), lhs)
    assert conv((), lhs, ev("next [x <- s, q <- p] (q @ 1)", env))
    assert not conv((), lhs, ev("next [x <- s] x", env))


def test_paired_binding_needs_its_dependency_paired():
    env = std_env()
    env["p"] = neutral_var("p", ev("|> [x <- s] (Path N (h x) (h x))", env))
    env["p2"] = neutral_var(
        "p2", ev("|> [x <- s, y <- s] (Path N (g x y) (g x y))", env))
    env["k"] = neutral_var("k")

    def c(a, b):
        return conv((), ev(a, env), ev(b, env))

    # the bodies never meet x or y: they are paired as q's dependencies
    assert c("next [x <- s, q <- p] (k q)", "next [y <- s, q <- p] (k q)")
    # the bodies pair the second bindings; q depends on the first ones
    assert c("next [x <- s, y <- s, q <- p] (k q y)",
             "next [y <- s, x <- s, q <- p] (k q x)")
    # the bodies pair the right y with the left x, so q's unmet dependency,
    # the right x, pairs with the left y
    assert c("next [x <- s, y <- s, q <- p2] (k q x)",
             "next [x <- s, y <- s, q <- p2] (k q y)")
    # on the right, q's type has no binding to depend on
    assert not c("next [x <- s, q <- p] (k q)", "next [q <- p] (k q)")
    assert not c("next [q <- p] (k q)", "next [x <- s, q <- p] (k q)")


def test_identical_bindings_are_paired_without_a_search():
    # exchange among n bindings with identical contents costs a number of
    # conversion steps linear in n, not one per candidate bijection
    env = std_env()
    names = [f"x{k}" for k in range(16)]
    ds = ", ".join(f"{x} <- t" for x in names)

    def body(xs):
        return "".join(f"(g {x} " for x in xs) + "u" + ")" * len(xs)

    lhs = ev(f"next [{ds}] {body(names)}", env)
    rhs = ev(f"next [{ds}] {body(names[::-1])}", env)
    conversion.FUEL.set(500)
    try:
        assert conv((), lhs, rhs)
        assert not conv((), lhs, ev(f"next [{ds}] {body(names[1:])}", env))
    finally:
        conversion.FUEL.set(None)


@pytest.mark.xfail(strict=True, reason="_pair_dependencies pairs an unmet "
                   "dependency with the first convertible candidate")
def test_dependencies_paired_through_an_exchange_of_identical_bindings():
    # exchanging a1 with a3 and a2 with a4 makes the two sides equal
    env = std_env()
    env["F2"] = neutral_var("F2", VPi(VNat(), FnClosure(
        lambda _x: VPi(VNat(), FnClosure(lambda _y: later_of(VNat()))))))
    env["V"] = neutral_var("V", ev(
        "|> [a1 <- t, a2 <- t, a3 <- t, a4 <- t] (|> [z1 <- F2 a1 a2,"
        " z2 <- F2 a3 a4] (Path N (g z1 z2) (g z1 z2)))", env))
    env["k"] = neutral_var("k")
    src = ("next [a1 <- t, a2 <- t, a3 <- t, a4 <- t, v <- V] (k (next"
           " [e1 <- F2 a1 a2, e2 <- F2 a3 a4, q <- v] (k q {})))")
    assert cv(src.format("a4"), src.format("a2"), env)


def test_flexible_probe_has_no_support_of_its_own():
    # its pairing state holds both sides' values, which the action does
    # not walk, and nothing substitutes for its name
    from gctt.eval import support

    p_at_i = ev("p @ i", {"p": neutral_var("p"), "i": IVar("i")})
    side = VNext((("x", p_at_i),), ValueClosure(VNat()))
    flex = conversion._NFlex("?v", None, conversion._Pairing((), side, side),
                             0)
    assert support(side) == {"i", "p"} and support(flex) == set()


def test_acting_on_a_flexible_probe_rebuilds_it_with_its_type_acted_on():
    """A class with no builder of its own, declared outside `gctt.eval`, is
    rebuilt by the action as its own class: the probe keeps its name,
    pairing and index, and only its type is acted on."""
    from gctt.eval import VZero, act, support
    from gctt.interval import ONE

    p = neutral_var("p", ev("Path U N N", {}))
    side = VNext((), ValueClosure(VNat()))
    pairing = conversion._Pairing((), side, side)
    flex = conversion._NFlex("?v", ev("p @ i", {"p": p, "i": IVar("i")}),
                             pairing, 3)
    assert support(flex) == {"i", "p"}
    acted = act(flex, {"i": ONE})
    assert type(acted) is conversion._NFlex and acted is not flex
    assert (acted.name, acted.pairing, acted.index) == ("?v", pairing, 3)
    assert acted.type is VNat() and support(acted) == frozenset()
    assert "?v" not in support(acted) | support(flex)
    assert act(flex, {"?v": VZero()}) is flex  # nothing substitutes for it


def test_later_conversion_agrees_with_readback_on_corpus(corpus_dir,
                                                         tmp_path,
                                                         monkeypatch):
    """Every later/next comparison made while checking the corpus and the
    positive `guarded` modules of seeds 1 to 5 is decided as comparing
    alpha-canonical readbacks decides it.  The readbacks avoid every
    identifier of those modules, so no binder they choose captures a
    variable the checker bound."""
    from gctt.cli import Loader
    from gctt.parser import tokenize

    seen = []
    plain = conversion.conv

    def recording(pairings, a, b, ty=None):
        if isinstance(a, (VLaterT, VNext)) and isinstance(b, (VLaterT, VNext)):
            seen.append((a, b))
        return plain(pairings, a, b, ty)

    monkeypatch.setattr(conversion, "conv", recording)
    paths = []
    for root, names in [(corpus_dir, [p.name for p in
                                      sorted(corpus_dir.glob("*.gctt"))]),
                        *_guarded_positives(tmp_path, (1, 2, 3, 4, 5))]:
        loader = Loader([str(root)])
        for name in names:
            paths.append(root / name)
            loader.load(root / name)
    monkeypatch.undo()
    used = frozenset(tok.lexeme for path in paths
                     for tok in tokenize(path.read_text())
                     if tok.kind == "ident")
    # 271: the check sees many comparisons (331 over seeds 1 and 2 alone
    # before applications of declarations were compared by head)
    assert len(seen) > 200
    for a, b in seen:
        by_readback = (alpha_canonical(readback_value(used, a))
                       == alpha_canonical(readback_value(used, b)))
        assert conv((), a, b) == by_readback


def _guarded_positives(tmp_path, seeds):
    """(directory, file names) of the positive `guarded` modules of each
    seed, generated under `tmp_path`."""
    out = []
    for seed in seeds:
        root = tmp_path / f"guarded{seed}"
        items = workloads.generate("guarded", seed, root)
        out.append((root, [item["argv"][1] for item in items
                           if item["expect"]["exit"] == 0]))
    return out


def test_closure_check_agrees_with_applying_the_closures_on_corpus(
        corpus_dir, tmp_path, monkeypatch):
    """Every comparison made while checking the corpus and the positive
    `guarded` modules of seed 1 is decided alike when closures built alike
    are applied and compared instead, and captured values alike are
    compared by `conv`.  A nested comparison's verdict may rest on the
    pairings of its enclosing later comparison, so each is decided afresh
    both ways."""
    from gctt.cli import Loader

    seen = []
    plain = conversion.conv

    def recording(pairings, a, b, ty=None):
        seen.append((a, b, ty))
        return plain(pairings, a, b, ty)

    monkeypatch.setattr(conversion, "conv", recording)
    for root, names in [(corpus_dir, [p.name for p in
                                      sorted(corpus_dir.glob("*.gctt"))]),
                        *_guarded_positives(tmp_path, (1,))]:
        loader = Loader([str(root)])
        for name in names:
            loader.load(root / name)
    monkeypatch.setattr(conversion, "conv", plain)
    verdicts = [conv((), *call) for call in seen]
    monkeypatch.setattr(conversion, "_same_closure", lambda c, d: False)
    monkeypatch.setattr(conversion, "_same_captured", lambda u, v: u is v)
    assert len(seen) > 1000 and not all(verdicts)
    for call, verdict in zip(seen, verdicts):
        assert conv((), *call) == verdict


# ---------------------------------------------------------------------------
# closures built alike: one body term over identical values


def ev_twice(src, env, other=None):
    """One parsed term evaluated in `env` and in `other` (default: `env`),
    so that the two values close the same body terms."""
    term = parse_term(src)
    return eval_term(dict(env), term), eval_term(dict(other or env), term)


def deep(leaf):
    body = "u"
    for _ in range(12):
        body = f"(g {leaf} {body})"
    return body


BUILT_ALIKE = [
    "dfix 0 x. " + deep("(f x)"),
    # bindings convertible, but not the same objects
    "next [x <- k1 u, y <- k1 (suc u)] " + deep("(g x y)"),
    "\\(z : N) -> " + deep("(h z)"),
]


def converts_within_20_steps(a, b) -> bool:
    # applying the closures and comparing the bodies takes over 100 steps
    assert a is not b
    conversion.FUEL.set(20)
    try:
        return conv((), a, b)
    finally:
        conversion.FUEL.set(None)


def alike_env():
    env = std_env()
    env["k1"] = neutral_var("k1", VPi(VNat(), FnClosure(
        lambda _x: later_of(VNat()))))
    return env


@pytest.mark.parametrize("src", BUILT_ALIKE, ids=["dfix", "next", "lambda"])
def test_closures_built_alike_convert_without_applying_them(src):
    assert converts_within_20_steps(*ev_twice(src, alike_env()))


@pytest.mark.parametrize("src", BUILT_ALIKE, ids=["dfix", "next", "lambda"])
def test_closures_over_equal_body_terms_convert_without_applying_them(src):
    """Two parses of one source: distinct body nodes, structurally equal,
    each captured over variables of one name that are distinct objects."""
    env = alike_env()
    a = eval_term(dict(env), parse_term(src))
    b = eval_term({x: neutral_var(v.name, v.type)
                   for x, v in env.items()}, parse_term(src))
    assert converts_within_20_steps(a, b)


def test_arrow_types_over_differently_named_binders_are_alike():
    """Renaming apart names the inner binder of `A -> A -> B` by its
    nesting, so two copies of one arrow type close one codomain under
    different parameter names. Both closures ignore their parameter, so
    they are alike without being applied; a codomain that reads its
    parameter is alike only under the same name."""
    env = alike_env()
    a, b = [eval_term(dict(env), parse_term(f"({x} : A) -> {deep('(h u)')}"))
            for x in ("x1", "x2")]
    assert a.codomain.names != b.codomain.names
    assert conversion._same_closure(a.codomain, b.codomain)
    assert converts_within_20_steps(a, b)
    c, d = [eval_term(dict(env), parse_term(f"({x} : A) -> h {x}"))
            for x in ("x1", "x2")]
    assert not conversion._same_closure(c.codomain, d.codomain)
    assert conv((), c, d)


def test_probes_compositions_and_host_closures_are_alike_only_to_themselves():
    """A flexible probe of a later comparison, a stuck composition and a
    host closure never make two closures alike, however they are built."""
    from gctt.eval import NComp, TermClosure, VLam, VSystem, VZero

    side = VNext((), ValueClosure(VNat()))
    pairing = conversion._Pairing((), side, side)

    def identity(x):
        return x

    pairs = [[conversion._NFlex("?v", None, pairing, 0) for _ in "ab"],
             [NComp("k", VNat(), VSystem(()), VZero()) for _ in "ab"],
             [VLam(FnClosure(identity)) for _ in "ab"]]
    body = parse_term("g x u")
    for u, v in pairs:
        assert conversion._same_captured(u, u)
        assert not conversion._same_captured(u, v)
        assert not conversion._same_closure(
            *[TermClosure({"x": w}, ("u",), body) for w in (u, v)])
    assert not conversion._same_closure(FnClosure(identity),
                                        FnClosure(identity))
    # variables of one name are alike
    assert conversion._same_captured(neutral_var("x"), neutral_var("x"))


@pytest.mark.parametrize("src", ["\\(z : N) -> g z u",
                                 "dfix 0 x. g (f x) u"],
                         ids=["lambda", "dfix"])
def test_closures_over_different_values_are_applied(src):
    env = std_env()
    assert not conv((), *ev_twice(src, env, dict(
        env, u=neutral_var("w", VNat()))))
    # a captured value convertible with, but not identical to, the other
    assert conv((), *ev_twice(src, env, dict(
        env, u=neutral_var("u", VNat()))))


def test_one_next_over_exchanged_bindings_is_not_equal():
    env = std_env()
    src = "next [x <- a, y <- b] (g x y)"
    a, b = ev_twice(src, dict(env, a=env["t"], b=env["s"]),
                    dict(env, a=env["s"], b=env["t"]))
    assert a.body is not b.body and conversion._same_closure(a.body, b.body)
    assert not conv((), a, b)


def test_one_next_with_a_different_unused_binding_is_equal():
    env = std_env()
    for src in ["next [x <- a, y <- s] (h y)", "|> [x <- a, y <- s] N"]:
        assert conv((), *ev_twice(src, dict(env, a=env["t"]),
                                  dict(env, a=env["r"])))


def test_closure_check_pairs_no_binding_of_an_enclosing_next():
    # both sides apply G, whose next closes one body over u and w but uses
    # only w; its bindings are outer probes.  Checking the inner nexts
    # binding by binding must not pair the outer p with p: the right p is
    # the left r.  And a check that fails must not keep its pairings.
    env = std_env()
    env["T"] = neutral_var("T", later_of(later_of(VNat())))
    env["k"] = neutral_var("k")
    env["G"] = ev("\\(p : |> N) -> \\(q : |> N) -> next [u <- p, w <- q]"
                  " (h w)", env)
    ds = "next [p <- T, q <- T, r <- T] "
    assert cv(ds + "(k (G p q) r)", ds + "(k (G p q) p)", env)
    assert cv(ds + "(k (G p q))", ds + "(k (G q q))", env)


@pytest.mark.parametrize("domain, inner, use", [
    # the probe's type, from the left, holds G p q: typing the right b
    # matches it against the right a
    ("|> [z <- G p q] (Path N z z)", "x", "b @ 0"),
    # x @ 0 is the left's next over G p q: next-substitution on the right
    # matches it against the right a
    ("Path (|> N) (next [z <- G p q] (h z)) (next [z <- G p q] (h z))",
     "x @ 0", "h b"),
], ids=["binder-type", "next-substitution"])
def test_matching_inside_a_later_comparison_pairs_no_enclosing_binding(
        domain, inner, use):
    # the probe x is typed by the left domain, so the right next holds G p q
    # over the left's outer probes beside G p q over its own.  Matching the
    # two checks them binding by binding first, which must not pair the
    # outer p with p: the right p is the left r.
    env = std_env()
    env["T"] = neutral_var("T", later_of(later_of(VNat())))
    env["k"] = neutral_var("k")
    env["G"] = ev("\\(p : |> N) -> \\(q : |> N) -> next [u <- p, w <- q]"
                  " (h w)", env)
    ds = "|> [p <- T, q <- T, r <- T] "
    body = f"(x : {domain}) -> k (next [a <- G p q, b <- {inner}] ({use}))"
    assert cv(ds + f"({body} r)", ds + f"({body} p)", env)


# ---------------------------------------------------------------------------
# dfix discipline


def test_dfix_not_convertible_to_its_unfolding():
    assert not cv("dfix 0 x. f x", "next (f (dfix 0 x. f x))")


def test_dfix_one_convertible_to_unfolding():
    assert cv("dfix 1 x. f x", "next (f (dfix 0 x. f x))")


# ---------------------------------------------------------------------------
# systems


def test_system_with_total_branch_equals_branch():
    env = std_env()
    from gctt.eval import make_system

    v = make_system([(FACE_TOP, env["u"])])
    assert conv((), v, env["u"])


def test_system_branch_order_irrelevant():
    env = std_env()
    lhs = ev("<i> [ (i=0) -> 0, (i=1) -> suc u ]", env)
    rhs = ev("<i> [ (i=1) -> suc u, (i=0) -> 0 ]", env)
    assert conv((), lhs, rhs)


def test_system_equals_plain_value_under_covering_restriction():
    env = std_env()
    i = IVar("i")
    env2 = dict(env)
    env2["i"] = i
    lhs = ev("[ (i=0) -> u, (i=1) -> u ]", env2)
    rhs = env["u"]
    phi = face_join(face_lit("i", 0), face_lit("i", 1))
    assert conv_under(phi, lhs, rhs)


# ---------------------------------------------------------------------------
# general properties


SAMPLES = [
    "u",
    "suc u",
    "h (h u)",
    "next [x <- t] (suc x)",
    r"\n -> h n",
    "<i> u",
    "f t",
]


def test_reflexive():
    env = std_env()
    for s in SAMPLES:
        assert conv((), ev(s, env), ev(s, env)), s


def test_symmetric_and_transitive_on_samples():
    env = std_env()
    pairs = [
        ("next [x <- t] u", "next u"),
        ("next [x <- next u] (suc x)", "next (suc u)"),
        (r"\n -> h n", "h"),
    ]
    for a, b in pairs:
        va, vb = ev(a, env), ev(b, env)
        assert conv((), va, vb) and conv((), vb, va)
    va = ev("next [x <- next u] x", env)
    vb = ev("next u", env)
    vc = ev("next [y <- t] u", env)
    assert conv((), va, vb) and conv((), vb, vc) and conv((), va, vc)


def test_congruence_application():
    env = std_env()
    f1, f2 = ev(r"\n -> h n", env), ev("h", env)
    a1, a2 = ev("suc u", env), ev("suc u", env)
    assert conv((), f1, f2) and conv((), a1, a2)
    from gctt.eval import apply_v

    assert conv((), apply_v(f1, a1), apply_v(f2, a2))


def test_eta_function():
    assert cv(r"\n -> h n", "h")


def test_eta_pair():
    env = std_env()
    from gctt.eval import VSigma

    pty = VSigma(VNat(), FnClosure(lambda _x: VNat()))
    p = neutral_var("pr", pty)
    env2 = dict(env)
    env2["pr"] = p
    lhs = ev("(pr.1, pr.2)", env2)
    assert conv((), lhs, p, pty)


def test_eta_path():
    env = std_env()
    pty = VPathT(VNat(), ValueClosure(env["u"]), ValueClosure(env["u"]))
    p = neutral_var("q", pty)
    env2 = dict(env)
    env2["q"] = p
    lhs = ev("<i> q @ i", env2)
    assert conv((), lhs, p)


def test_restriction_monotonicity():
    env = std_env()
    env2 = dict(env)
    env2["i"] = IVar("i")
    lhs = ev("[ (i=0) -> 0, (i=1) -> suc u ]", env2)
    rhs = ev("0", env2)
    wide = face_join(face_lit("i", 0), face_lit("i", 1))
    narrow = face_lit("i", 0)
    assert not conv_under(wide, lhs, rhs)
    assert conv_under(narrow, lhs, rhs)


def test_conversion_under_contradictory_restriction_is_trivial():
    env = std_env()
    bot = face_meet(face_lit("i", 0), face_lit("i", 1))
    assert conv_under(bot, ev("0", env), ev("1", env))


def test_interval_arguments_compared_up_to_de_morgan():
    env = std_env()
    env2 = dict(env)
    env2.update({"i": IVar("i"), "j": IVar("j")})
    pty = VPathT(VNat(), ValueClosure(env["u"]), ValueClosure(env["u"]))
    env2["q"] = neutral_var("q", pty)
    lhs = ev("q @ -(i /\\ j)", env2)
    rhs = ev("q @ (-i \\/ -j)", env2)
    assert conv((), lhs, rhs)


def test_conv_system_operation():
    env = std_env()
    env2 = dict(env)
    env2["i"] = IVar("i")
    lhs = ev("[ (i=0) -> 0, (i=1) -> suc u ]", env2)
    rhs = ev("[ (i=1) -> suc u, (i=0) -> 0 ]", env2)
    assert conv((), lhs, rhs, VNat())
    other = ev("[ (i=0) -> 1, (i=1) -> suc u ]", env2)
    assert not conv((), lhs, other, VNat())


def test_glue_intros_are_compared_on_their_base_and_every_face():
    env = dict(std_env(), i=IVar("i"), g=neutral_var("g", None))
    g, one = env["g"], ev("glue [ (i=0) -> 1 ] 0", env)
    assert conv((), one, ev("glue [ (i=0) -> 1 ] 0", env))
    assert not conv((), one, ev("glue [ (i=0) -> 2 ] 0", env))
    assert not conv((), one, ev("glue [ (i=0) -> 1 ] 1", env))
    # eta: a neutral is the glue of its partial element and its unglue
    for partial, same in (("g", True), ("1", False)):
        intro = ev(f"glue [ (i=0) -> {partial} ] (unglue g)", env)
        assert conv((), intro, g) is same and conv((), g, intro) is same


def test_stuck_compositions_are_compared_on_their_tubes():
    env = dict(std_env(), i=IVar("i"))
    env.update(a=neutral_var("a", env["A"]), b=neutral_var("b", env["A"]))
    lhs = ev("comp j A [ (i=0) -> a ] a", env)
    assert conv((), lhs, ev("comp j A [ (i=0) -> a ] a", env))
    assert not conv((), lhs, ev("comp j A [ (i=0) -> b ] a", env))
