"""Seeded inputs for the benchmark workloads, each with its known answer.

Every workload writes its input files into a work directory together with
`expected.json`: one record per item holding the argv for `gctt.cli.main`
(paths relative to the work directory), the group the item belongs to and
the expected verdict. The expected verdict comes from how the input was
built (or, for `corpus`, from a table counted by hand), never from running
gctt.

A verdict is `{"exit": 0, "decls": N}` for a module that checks,
`{"exit": 1, "kind": K}` for one that fails with diagnostic kind K, and
`{"exit": 0, "nf": S}` for a normal form printed as the string S.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"

# The golden corpus, frozen inside the benchmark so that both sides of a
# comparison check the same files. Declaration counts are counted by hand
# from the sources; the negative kinds are the ones each file's comment
# describes.
CORPUS_ORACLE = {
    "funext.gctt": {"exit": 0, "decls": 4},
    "later_ext.gctt": {"exit": 0, "decls": 2},
    "streams.gctt": {"exit": 0, "decls": 12},
    "unfold_lemma.gctt": {"exit": 0, "decls": 1},
    "unique_fix.gctt": {"exit": 0, "decls": 1},
    "univ_comp.gctt": {"exit": 0, "decls": 3},
    "y_combinator.gctt": {"exit": 0, "decls": 9},
    "zipwith.gctt": {"exit": 0, "decls": 5},
    "negative/boundary_violation.gctt": {"exit": 1,
                                         "kind": "boundary-violation"},
    "negative/ill_formed_ds.gctt": {"exit": 1, "kind": "ds-ill-formed"},
    "negative/ill_guarded.gctt": {"exit": 1, "kind": "mismatch"},
    "negative/incompatible_system.gctt": {"exit": 1,
                                          "kind": "system-incompatible"},
    "negative/non_covering.gctt": {"exit": 1, "kind": "face-not-covering"},
}


def corpus(rng: random.Random, out: Path) -> list:
    items = []
    for rel, expect in CORPUS_ORACLE.items():
        dest = out / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(CORPUS / rel, dest)
        items.append({"argv": ["check", rel], "group": Path(rel).stem,
                      "expect": expect})
    return items


# ---------------------------------------------------------------------------
# guarded: k-ary zipWith over guarded streams


GUARDED_ARITIES = (2, 3, 4, 5)
# Failures each generated module can be built to have, with the diagnostic
# kind that construction implies.
GUARDED_NEGATIVES = {
    # the statement swaps another pair of streams than the hypothesis about
    # f does, so the proof term does not have the stated type
    "wrong_swap": "mismatch",
    # a delayed substitution binds the head of a stream, which is not of a
    # later type
    "head_binding": "ds-ill-formed",
    # the recursive call uses the delayed hypothesis without `next`, i.e. it
    # applies a term of a later type as if it were a function
    "unguarded": "not-a-function",
}


def _swapped(xs, pair):
    xs = list(xs)
    a, b = pair
    xs[a], xs[b] = xs[b], xs[a]
    return xs


def zipwith_module(name: str, k: int, swap, statement_swap=None,
                   head_binding=None, unguarded=False) -> str:
    """A development of k-ary zipWith: its step function, the fixed point,
    the canonical unfold path, and a Löb-induction proof that zipWith
    preserves invariance of f under swapping the argument pair `swap`.
    The keyword arguments build the negative variants."""
    statement_swap = statement_swap or swap
    z = f"zipWith{k}"
    As = [f"A{m}" for m in range(1, k + 1)]
    ss = [f"s{m}" for m in range(1, k + 1)]
    ts = [f"t{m}" for m in range(1, k + 1)]
    avs = [f"a{m}" for m in range(1, k + 1)]
    params = " ".join(f"({a} : U) ->" for a in As) + " (C : U)"
    fn_ty = " -> ".join(As) + " -> C"
    streams = " -> ".join(f"gStr {a}" for a in As)
    tails = [f"{t} <- {'hd' if m == head_binding else 'tl'} {a} {s}"
             for m, (t, a, s) in enumerate(zip(ts, As, ss))]
    rest = f"(z {' '.join(ts)})" if unguarded else \
        f"(next [z' <- z, {', '.join(tails)}] (z' {' '.join(ts)}))"
    heads = " ".join(f"(hd {a} {s})" for a, s in zip(As, ss))
    AA = " ".join(["A"] * k)
    lhs_ss = " ".join(ss)
    rhs_ss = " ".join(_swapped(ss, statement_swap))
    return "\n".join([
        f"module {name} where",
        "",
        "import streams",
        "",
        f"{z}F : {params} -> (f : {fn_ty})",
        f"  -> (|> ({streams} -> gStr C)) -> {streams} -> gStr C",
        f"  = \\{' '.join(As)} C f z {lhs_ss} ->",
        f"      cons C (f {heads})",
        f"             {rest}",
        "",
        f"{z} : {params} -> (f : {fn_ty}) -> {streams} -> gStr C",
        f"  = \\{' '.join(As)} C f -> fix 0 z. {z}F {' '.join(As)} C f z",
        "",
        f"{z}Path : {params} -> (f : {fn_ty})",
        f"  -> Path ({streams} -> gStr C)",
        f"      ({z} {' '.join(As)} C f)",
        f"      ({z}F {' '.join(As)} C f (next ({z} {' '.join(As)} C f)))",
        f"  = \\{' '.join(As)} C f -> <j> fix j z. {z}F {' '.join(As)} C f z",
        "",
        f"{z}_swap : (A : U) -> (B : U) -> (f : {' -> '.join(['A'] * k)} -> B)",
        f"  -> (c : {' '.join(f'({a} : A) ->' for a in avs)}"
        f" Path B (f {' '.join(avs)}) (f {' '.join(_swapped(avs, swap))}))",
        f"  -> {' -> '.join(f'({s} : gStr A)' for s in ss)}",
        f"  -> Path (gStr B) ({z} {AA} B f {lhs_ss}) ({z} {AA} B f {rhs_ss})",
        "  = \\A B f c ->",
        f"      fix 0 ih. \\{lhs_ss} -> <i>",
        "        comp j (gStr B)",
        f"          [ (i=0) -> (({z}Path {AA} B f) @ -j) {lhs_ss},",
        f"            (i=1) -> (({z}Path {AA} B f) @ -j)"
        f" {' '.join(_swapped(ss, swap))} ]",
        f"          (cons B ((c {' '.join(f'(hd A {s})' for s in ss)}) @ i)",
        f"                  (next [q <- ih,"
        f" {', '.join(f'{t} <- tl A {s}' for t, s in zip(ts, ss))}]",
        f"                        ((q {' '.join(ts)}) @ i)))",
        "",
    ])


def _pair(rng: random.Random, k: int, avoid=None):
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)
             if (a, b) != avoid]
    return rng.choice(pairs)


def guarded(rng: random.Random, out: Path) -> list:
    """One positive development for every arity in GUARDED_ARITIES and one
    negative variant of every kind in GUARDED_NEGATIVES. The seed picks the
    swapped pairs, and the arity and broken position of the negatives that
    fail in their first declaration; nothing it picks changes the amount of
    checking an item needs."""
    shutil.copyfile(CORPUS / "streams.gctt", out / "streams.gctt")
    items = []

    def add(name, text, group, expect):
        (out / f"{name}.gctt").write_text(text, encoding="utf-8")
        items.append({"argv": ["check", f"{name}.gctt"], "group": group,
                      "expect": expect})

    for k in GUARDED_ARITIES:
        name = f"zipwith{k}"
        add(name, zipwith_module(name, k, _pair(rng, k)), f"k={k}",
            {"exit": 0, "decls": 4})
    for variant, kind in GUARDED_NEGATIVES.items():
        name = f"zipwith_{variant}"
        if variant == "wrong_swap":
            # the smallest arity with two pairs; a fixed arity keeps the
            # amount of checking the same for every seed
            k = 3
            swap = _pair(rng, k)
            text = zipwith_module(name, k, swap,
                                  statement_swap=_pair(rng, k, avoid=swap))
        elif variant == "head_binding":
            k = rng.choice(GUARDED_ARITIES)
            text = zipwith_module(name, k, _pair(rng, k),
                                  head_binding=rng.randrange(k))
        else:
            k = rng.choice(GUARDED_ARITIES)
            text = zipwith_module(name, k, _pair(rng, k), unguarded=True)
        add(name, text, variant, {"exit": 1, "kind": kind})
    return items


# ---------------------------------------------------------------------------
# kan_normalize: Kan operations with no later types


KAN_PRELUDE = """\
module kan where

transitivity : (A : U) -> (a : A) -> (b : A) -> (c : A)
  -> Path A a b -> Path A b c -> Path A a c
  = \\A a b c p q -> <i> comp j A [ (i=0) -> a, (i=1) -> q @ j ] (p @ i)

inv : (A : U) -> (a : A) -> (b : A) -> Path A a b -> Path A b a
  = \\A a b p -> <i> comp j A [ (i=0) -> p @ j, (i=1) -> a ] a

intoGlue : N -> transp i U N = \\n -> transp i (comp j U [ (i=0) -> N ] N) n

outOfGlue : transp i U N -> N
  = \\g -> transp k (comp j U [ (k=1) -> N ] N) g
"""

# Input sizes per family; every pass normalizes one term of each size.
# Every term is linear in its size: no subterm is repeated inside a tube.
KAN_SIZES = {
    "glue": (2, 4, 6, 8),
    "sigma": (4, 8, 12, 16),
    "pi": (4, 8, 12),
    "path": (8, 16, 24, 32),
}

# transport into the glue type `comp j U [ (i=0) -> N ] N` and back out
_GLUE_IN = "(comp j U [ (i=0) -> N ] N)"
_GLUE_OUT = "(comp j U [ (k=1) -> N ] N)"


def glue_roundtrips(depth: int, v: int):
    """`depth` nested round trips of a numeral through a glue type."""
    t = str(v)
    for _ in range(depth):
        t = f"outOfGlue (intoGlue ({t}))"
    return t, str(v)


def sigma_transport(vs: list):
    """Transport of a right-nested tuple into a Sigma type whose last
    component is a glue type, and back out."""
    into, back = _GLUE_IN, _GLUE_OUT
    for _ in vs[:-1]:
        into, back = f"N * ({into})", f"N * ({back})"
    tup = str(vs[-1])
    for v in reversed(vs[:-1]):
        tup = f"({v}, {tup})"
    return f"transp k ({back}) (transp i ({into}) {tup})", tup


def pi_transport(args: list, pick: int):
    """A projection function transported along a Pi type whose domains are
    glue types, applied to numerals transported into those domains."""
    ty = " -> ".join([_GLUE_IN] * len(args) + ["N"])
    xs = " ".join(f"x{m}" for m in range(len(args)))
    applied = " ".join(f"(intoGlue {a})" for a in args)
    return (f"(transp i ({ty}) (\\{xs} -> x{pick})) {applied}",
            str(args[pick]))


def path_chain(steps: list, v: int, endpoint: int):
    """A chain of transitivity/inv over the constant path at v, applied at
    an endpoint."""
    t = f"<i> {v}"
    for step in steps:
        if step == "inv":
            t = f"inv N {v} {v} ({t})"
        else:
            t = f"transitivity N {v} {v} {v} ({t}) (<i> {v})"
    return f"({t}) @ {endpoint}", str(v)


def kan_normalize(rng: random.Random, out: Path) -> list:
    """One term of every family and size in KAN_SIZES. A numeral is a
    chain of `suc`, so its size is work for gctt: every term has a fixed
    multiset of numerals, and the seed picks only their order, the position
    of the argument a Pi term projects and the endpoint of a path chain."""
    (out / "kan.gctt").write_text(KAN_PRELUDE, encoding="utf-8")
    items = []

    def digits(n):
        ds = [m % 10 for m in range(n)]
        rng.shuffle(ds)
        return ds

    for family, sizes in KAN_SIZES.items():
        for n in sizes:
            if family == "glue":
                expr, nf = glue_roundtrips(n, 5)
            elif family == "sigma":
                expr, nf = sigma_transport(digits(n) + [5])
            elif family == "pi":
                args = digits(n)
                expr, nf = pi_transport(args, args.index(n // 2))
            else:
                expr, nf = path_chain(["inv", "transitivity"] * (n // 2), 5,
                                      rng.randrange(2))
            items.append({"argv": ["normalize", "kan.gctt", "--expr", expr],
                          "group": f"{family}={n}",
                          "expect": {"exit": 0, "nf": nf}})
    return items


WORKLOADS = {
    "corpus": corpus,
    "guarded": guarded,
    "kan_normalize": kan_normalize,
}


def generate(workload: str, seed: int, out: Path) -> list:
    """Write the inputs of `workload` for `seed` into the empty directory
    `out`, together with `expected.json`; return the items."""
    out.mkdir(parents=True)
    items = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out)
    for n, item in enumerate(items):
        item["id"] = n
    (out / "expected.json").write_text(json.dumps(items, indent=1),
                                       encoding="utf-8")
    return items
