"""Glued evaluation: a declaration's application stays folded (`VDef`)
until something inspects its class, and conversion compares two such
applications by head before unfolding either.

The mechanism changes no verdict and no printed normal form; it leaves
declarations that nothing reads unevaluated, unfolds the later-defined
side of two different heads first, and undoes the later-binding pairings
of an argument comparison that failed before it unfolds both sides.  A
failure is remembered with the pairings it started from, so unequal
arguments met again after unfolding are not compared again.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

import gctt.conversion as C
import gctt.eval as E
import gctt.typechecker as T
from gctt.cli import Loader, main
from gctt.syntax import term_str

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_source(tmp_path, name: str, source: str):
    path = tmp_path / f"{name}.gctt"
    path.write_text(source, encoding="utf-8")
    return run("check", str(path))


def _modules(corpus_dir, tmp_path, seeds) -> list:
    """The corpus modules, and the `guarded` modules of each seed generated
    under `tmp_path`."""
    paths = sorted(corpus_dir.glob("**/*.gctt"))
    for seed in seeds:
        root = tmp_path / f"guarded{seed}"
        paths += [root / item["argv"][1]
                  for item in workloads.generate("guarded", seed, root)]
    return paths


def _verdicts_and_normal_forms(paths) -> list:
    """The output of `check` on each module, and each declaration's normal
    form, as `normalize` prints it, of each module that checks."""
    out = []
    for path in paths:
        out.append(run("check", str(path)))
        if out[-1][0] != 0:
            continue
        checked = Loader([str(path.parent)]).load(path)
        with T.Checker().fuelled():
            for decl in checked.order:
                ty, value = checked.table[decl]
                out.append((decl, term_str(E.readback(checked.table.keys(),
                                                      value, ty))))
    return out


def test_gluing_changes_no_verdict_and_no_normal_form(corpus_dir, tmp_path,
                                                      monkeypatch):
    """Every corpus module and every `guarded` module of seeds 1 and 2 has
    the verdict, and each declaration of those that check the normal form,
    that it has with every declaration bound to its plain value."""
    paths = _modules(corpus_dir, tmp_path, (1, 2))
    glued = _verdicts_and_normal_forms(paths)
    monkeypatch.setattr(T, "declared", lambda level, value: value)
    plain = _verdicts_and_normal_forms(paths)
    assert glued == plain
    # 11 modules of the 27 fail; 69 declarations are normalized
    assert sum(out[0] == 1 for out in plain) == 11 and len(plain) == 96


# `k p 0 p` against `k p 1 q`: comparing the arguments pairs the right `p`
# with the left one before `0` and `1` differ. Unfolded, both sides are
# their last argument, and the right `q` must pair with the left `p`, which
# it can only if the first pairing was undone.
PAIRING = """module pairing where

k : N -> N -> N -> N = \\a b c -> c

e : (t : |> N) -> Path (|> N) (next [p <- t, q <- t] (k p 0 p))
                              (next [p <- t, q <- t] (k p 1 q))
  = \\t -> <i> next [p <- t, q <- t] (k p 0 p)
"""

# Comparing the arguments of `k` pairs the right `p` with the left one, and
# then `g p` against `g q` fails: the left `p` is taken. Once that pairing
# is undone, `k` unfolds to `suc` of its second argument, and `g p` against
# `g q` holds, pairing `q` with `p`: a failure remembered with some
# pairings does not hold with others.
REMEMBERED = """module remembered where

g : N -> N = \\x -> x

k : N -> N -> N -> N = \\a b c -> suc b

e : (t : |> N) -> Path (|> N) (next [p <- t, q <- t] (k (g p) (g p) 0))
                              (next [p <- t, q <- t] (k (g p) (g q) 1))
  = \\t -> <i> next [p <- t, q <- t] (k (g p) (g p) 0)
"""


@pytest.mark.parametrize("name, source", [("pairing", PAIRING),
                                          ("remembered", REMEMBERED)],
                         ids=["pairing", "remembered"])
def test_a_failed_argument_comparison_undoes_its_pairings(tmp_path, name,
                                                          source):
    assert check_source(tmp_path, name, source) == (
        0, f"{tmp_path / name}.gctt: ok ({source.count(' = ')} "
           f"declarations)\n", "")


def _chain(depth: int, leaf: str) -> str:
    term = leaf
    for _ in range(depth):
        term = f"f ({term})"
    return term


def _chain_module(shape: str, depth: int) -> str:
    """`f (f (... 0))` against `f (f (... (suc 0)))`, as the types of two
    paths, or under a `next`; or, under a `next` that binds `p` and `q`,
    `f (f (... (k p 0)))` against `f (f (... (k q 1)))`."""
    head = "module chain where\n\nf : N -> N = \\x -> suc x\n\n"
    if shape == "paired":
        ds = "[p <- t, q <- t]"
        zero, one = _chain(depth, "k p 0"), _chain(depth, "k q 1")
        return (f"{head}k : N -> N -> N = \\a b -> suc b\n\n"
                f"e : (t : |> N) -> Path (|> N) (next {ds} ({zero}))\n"
                f"                              (next {ds} ({one}))\n"
                f"  = \\t -> <i> next {ds} ({zero})\n")
    zero, one = _chain(depth, "0"), _chain(depth, "suc 0")
    if shape == "next":
        zero, one = f"next ({zero})", f"next ({one})"
    ty = "|> N" if shape == "next" else "N"
    return (f"{head}a : Path ({ty}) ({zero}) ({zero}) = <i> {zero}\n\n"
            f"b : Path ({ty}) ({zero}) ({one}) = a\n")


@pytest.mark.parametrize("shape, error", [
    ("plain", "[mismatch] type: expected Path"),
    ("next", "[mismatch] type: expected Path"),
    ("paired", "[boundary-violation] right endpoint")],
                         ids=["plain", "next", "paired"])
@pytest.mark.parametrize("depth", [20, 40])
def test_unequal_arguments_are_compared_once(tmp_path, depth, shape, error):
    """The arguments of each `f` disagree, and so do those of its
    unfolding, `suc` of the same arguments.  The failure is remembered, so
    it is found in a number of steps linear in the depth (5 to 7 per `f`),
    not doubled at each one: under a `next` too, and where comparing `k p 0`
    with `k q 1` pairs `q` with `p`, fails and undoes the pairing, leaving
    the pairings as it found them."""
    path = tmp_path / "chain.gctt"
    path.write_text(_chain_module(shape, depth), encoding="utf-8")
    code, out, err = run("check", "--fuel", str(10 * depth), str(path))
    assert (code, out) == (1, "") and error in err, err


ORDER = """module order where

f : N -> N = \\x -> suc x

g : N -> N = \\x -> f x

h : (a : N) -> Path N (g a) (f a) = \\a -> <i> f a
"""


def test_the_later_defined_head_unfolds_first(tmp_path, monkeypatch):
    """Converting `g a` with `f a` unfolds `g`, defined after `f`, once: its
    unfolding is `f a`, the very value of the other side, so `f` never
    unfolds.  A declaration is told by its body, `f x` for `g`."""
    unfolded = []
    plain = E.unfold

    def recording(v):
        unfolded.append(term_str(v.base.closure.body))
        return plain(v)

    for mod in (E, C):
        monkeypatch.setattr(mod, "unfold", recording)
    assert check_source(tmp_path, "order", ORDER)[0] == 0
    assert unfolded == ["f x"]


def test_a_declaration_nothing_reads_is_not_evaluated(corpus_dir,
                                                      count_calls):
    """`two_roundtrip = outOfGlue (intoGlue 2)` checks by the types of its
    two functions alone; evaluated eagerly, it ran `comp_glue` twice."""
    calls = count_calls("comp_glue")
    assert run("check", str(corpus_dir / "univ_comp.gctt"))[0] == 0
    assert calls == {"comp_glue": 0}
