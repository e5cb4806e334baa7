"""Lexer and parser tests, including the print/parse round trip."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gctt.interval import IVar, ONE, ZERO, face_join, face_lit, face_meet
from gctt.parser import ParseError, Parser, parse_module, parse_term, tokenize
from gctt.syntax import (
    App,
    Comp,
    DFix,
    Fix,
    GlueIntro,
    GlueT,
    Lam,
    LaterT,
    ModuleFile,
    Nat,
    Next,
    PApp,
    PLam,
    Pair,
    PathT,
    Pi,
    Sigma,
    Span,
    Suc,
    SystemTerm,
    Unglue,
    Var,
    Zero,
    alpha_canonical,
    module_str,
    subterms,
    term_str,
    unfold_fix,
)
from test_syntax import term_st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def toks(src):
    return [(t.kind, t.lexeme) for t in tokenize(src)[:-1]]


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_path_abstraction():
    assert toks("<i> t") == [
        ("symbol", "<"), ("ident", "i"), ("symbol", ">"), ("ident", "t"),
    ]


def test_tokenize_empty():
    assert toks("") == []


def test_tokenize_later():
    assert toks("|> A") == [("symbol", "|>"), ("ident", "A")]


def test_tokenize_delayed_subst_brackets():
    assert toks("[x <- t]") == [
        ("symbol", "["), ("ident", "x"), ("symbol", "<-"),
        ("ident", "t"), ("symbol", "]"),
    ]


def test_tokenize_keywords_and_comments():
    got = toks("module m where -- nothing\n  dfix")
    assert got == [
        ("keyword", "module"), ("ident", "m"), ("keyword", "where"),
        ("keyword", "dfix"),
    ]


def test_tokenize_spans():
    tok = tokenize("  abc")[0]
    assert (tok.span.line, tok.span.col) == (1, 3)
    assert (tok.span.start, tok.span.end) == (2, 5)


def test_tokenize_illegal_character():
    with pytest.raises(ParseError):
        tokenize("a # b")


# Each row is a source and either its tokens, eof included, as
# (kind, lexeme, line, col, start, end), or the ParseError it raises, as
# (line, col, start, end, expected, found).
LEXER_TABLE = [
    ("x' _y", [("ident", "x'", 1, 1, 0, 2), ("ident", "_y", 1, 4, 3, 5),
               ("eof", "", 1, 6, 5, 5)]),
    ("->-", [("symbol", "->", 1, 1, 0, 2), ("symbol", "-", 1, 3, 2, 3),
             ("eof", "", 1, 4, 3, 3)]),
    ("\\/\\", [("symbol", "\\/", 1, 1, 0, 2), ("symbol", "\\", 1, 3, 2, 3),
               ("eof", "", 1, 4, 3, 3)]),
    ("/\\/", (1, 3, 2, 2, ("a token",), "'/'")),
    ("|>>", [("symbol", "|>", 1, 1, 0, 2), ("symbol", ">", 1, 3, 2, 3),
             ("eof", "", 1, 4, 3, 3)]),
    ("next nexts", [("keyword", "next", 1, 1, 0, 4),
                    ("ident", "nexts", 1, 6, 5, 10),
                    ("eof", "", 1, 11, 10, 10)]),
    ("a -- c -> d\nb", [("ident", "a", 1, 1, 0, 1),
                        ("ident", "b", 2, 1, 12, 13),
                        ("eof", "", 2, 2, 13, 13)]),
    ("a -- c\n", [("ident", "a", 1, 1, 0, 1), ("eof", "", 2, 1, 7, 7)]),
    ("a -- c", [("ident", "a", 1, 1, 0, 1), ("eof", "", 1, 7, 6, 6)]),
    ("a\r\n\tb c", [("ident", "a", 1, 1, 0, 1), ("ident", "b", 2, 2, 4, 5),
                    ("ident", "c", 2, 4, 6, 7), ("eof", "", 2, 5, 7, 7)]),
    ("é ١٢", [("ident", "é", 1, 1, 0, 1), ("int", "١٢", 1, 3, 2, 4),
              ("eof", "", 1, 5, 4, 4)]),
    ("x ½", (1, 3, 2, 2, ("a token",), "'½'")),
    ("x =\n ²", (2, 2, 5, 5, ("a token",), "'²'")),
]


@pytest.mark.parametrize("source,expected", LEXER_TABLE)
def test_lexer_table(source, expected):
    if isinstance(expected, list):
        got = [(t.kind, t.lexeme, t.span.line, t.span.col, t.span.start,
                t.span.end) for t in tokenize(source)]
        assert got == expected
        return
    with pytest.raises(ParseError) as exc:
        tokenize(source)
    e = exc.value
    assert (e.span.line, e.span.col, e.span.start, e.span.end, e.expected,
            e.found) == expected


def _oracle_span(source, start, end):
    """(line, col, start, end) of `source[start:end]`, counted naively."""
    line = source.count("\n", 0, start) + 1
    col = start - (source.rfind("\n", 0, start) + 1) + 1
    return (line, col, start, end)


SYMBOLS = ["->", "<-", "|>", "/\\", "\\/", "\\", "<", ">", "@", ".", ",",
           ":", "=", "(", ")", "[", "]", "*", "-"]
# the pieces of a legal source: identifiers (Unicode letters and `'`),
# numerals (decimal digits of any script), symbols, blanks and comments
_piece = st.one_of(
    st.builds(str.__add__, st.sampled_from("xé_λЖ"),
              st.text(st.sampled_from("ab_'é1١"), max_size=3)),
    st.text(st.sampled_from("0129١٢"), min_size=1, max_size=3),
    st.sampled_from(SYMBOLS + ["next", "module", "fix"]),
    st.sampled_from([" ", "\t", "\r\n", "\n", "  "]),
    # the blank keeps a `<` before it from taking the comment's first `-`
    st.builds(" --{}".format, st.text(st.sampled_from(" a-½#>"), max_size=4)),
)
_source = st.lists(_piece, max_size=12).map("".join)


@given(_source)
@settings(max_examples=300)
def test_token_positions_agree_with_a_naive_count(source):
    tokens = tokenize(source)
    assert [t.kind for t in tokens].count("eof") == 1
    assert tokens[-1].kind == "eof"
    for t in tokens:
        s = t.span
        assert tuple(s) == _oracle_span(source, s.start, s.end)
        assert source[s.start:s.end] == t.lexeme


@given(_source, st.sampled_from("½#"), _source)
@settings(max_examples=150)
def test_an_illegal_character_is_reported_where_it_stands(before, bad, after):
    # the newline ends a comment, and parts an identifier from `½`
    source = before + "\n" + bad + after
    start = len(before) + 1
    with pytest.raises(ParseError) as exc:
        tokenize(source)
    assert tuple(exc.value.span) == _oracle_span(source, start, start)
    assert exc.value.found == repr(bad)


def _modules(tmp_path):
    """Every corpus module and every generated `guarded` module."""
    workloads.generate("guarded", 1, tmp_path / "guarded")
    root = Path(__file__).resolve().parent.parent / "corpus"
    return sorted(root.glob("**/*.gctt")) + sorted(
        (tmp_path / "guarded").glob("**/*.gctt"))


def test_every_node_starts_at_a_token_and_reparses(tmp_path):
    for path in _modules(tmp_path):
        source = path.read_text(encoding="utf-8")
        starts = {t.span.start for t in tokenize(source)}
        stack = [t for d in parse_module(source).declarations
                 for t in (d.type, d.body)]
        while stack:
            t = stack.pop()
            assert t.span.start in starts, (path.name, t)
            again = parse_term(term_str(t))
            assert alpha_canonical(again) == alpha_canonical(t), path.name
            stack.extend(subterms(t))


# ---------------------------------------------------------------------------
# terms


def test_parse_dfix():
    t = parse_term("dfix 0 x. t")
    assert t == DFix(None, ZERO, "x", Var(None, "t"))


def test_parse_next_with_subst():
    t = parse_term("next [x <- s] x")
    assert t == Next(None, (("x", Var(None, "s")),), Var(None, "x"))


def test_parse_comp():
    t = parse_term("comp i A [ (j=0) -> u ] a0")
    assert isinstance(t, Comp)
    assert t.binder == "i"
    assert t.tube == SystemTerm(None, ((face_lit("j", 0), Var(None, "u")),))


def test_parse_transp_sugar():
    t = parse_term("transp i A a")
    assert t == Comp(None, "i", Var(None, "A"), SystemTerm(None, ()),
                     Var(None, "a"))


def test_parse_fix_sugar_substitutes():
    t = parse_term("fix 0 x. f x")
    body = App(None, Var(None, "f"), Var(None, "x"))
    assert t == Fix(None, ZERO, "x", body)
    assert unfold_fix(t) == App(None, Var(None, "f"),
                                DFix(None, ZERO, "x", body))


def test_parse_precedences():
    t = parse_term(r"\x -> f x @ i /\ j")
    assert isinstance(t, Lam)
    assert isinstance(t.body, PApp)
    assert t.body.fn == App(None, Var(None, "f"), Var(None, "x"))


def test_parse_pi_binder_groups():
    t = parse_term("(A B : U) -> A -> B")
    assert isinstance(t, Pi) and t.binder == "A"
    assert isinstance(t.codomain, Pi) and t.codomain.binder == "B"


def test_parse_sigma_and_pair():
    t = parse_term("(x : N) * Path N x x")
    assert isinstance(t, Sigma)
    assert parse_term("(0, 1)") == Pair(None, Zero(), Suc(None, Zero()))


def test_parse_numerals():
    assert parse_term("2") == Suc(None, Suc(None, Zero()))


def test_numerals_are_bounded():
    # leading zeros and decimal digits of any script count for nothing
    assert parse_term("0" * 5000 + "12") == parse_term("١٢") == parse_term(
        "٠٠١٢")
    t, n = parse_term("100000"), 0
    while isinstance(t, Suc):
        t, n = t.pred, n + 1
    assert (n, t) == (100000, Zero())
    for digits in ("100001", "0099999999", "1" * 4301):
        with pytest.raises(ParseError) as exc:
            parse_term(f"f {digits}")
        assert exc.value.span == Span(1, 3, 2, 2 + len(digits))
        assert exc.value.expected == ("a numeral up to 100000",)


def test_parse_path_type():
    t = parse_term("Path N 0 1")
    assert t == PathT(None, Nat(), Zero(), Suc(None, Zero()))


def test_parse_glue_forms():
    t = parse_term("Glue [ (i=1) -> T, e ] A")
    assert isinstance(t, GlueT) and t.face == face_lit("i", 1)
    t2 = parse_term("glue [ (i=1) -> t ] a")
    assert isinstance(t2, GlueIntro)
    assert parse_term("unglue b") == Unglue(None, Var(None, "b"))


def test_parse_later_with_and_without_subst():
    t = parse_term("|> [x <- s] A")
    assert t == LaterT(None, (("x", Var(None, "s")),), Var(None, "A"))
    assert parse_term("|> A") == LaterT(None, (), Var(None, "A"))


def test_parse_face_joins():
    t = parse_term("<i> <j> [ (i=0) /\\ (j=0) -> a, (i=1) \\/ (j=1) -> b ]")
    sys = t.body.body
    assert sys.branches[0][0] == face_meet(face_lit("i", 0), face_lit("j", 0))
    assert sys.branches[1][0] == face_join(face_lit("i", 1), face_lit("j", 1))


# ---------------------------------------------------------------------------
# modules


def test_parse_empty_module():
    m = parse_module("module m where")
    assert m == ModuleFile("m", (), ())


def test_parse_simple_declaration():
    m = parse_module("module m where\nf : N -> N = \\x -> x")
    assert len(m.declarations) == 1
    d = m.declarations[0]
    assert d.name == "f" and isinstance(d.body, Lam)


def test_parse_imports():
    m = parse_module("module m where\nimport other\nx : N = 0")
    assert m.imports == ("other",)


def test_declaration_boundary_lookahead():
    m = parse_module("module m where\nf : N -> N = \\x -> x\ng : N = 0")
    assert [d.name for d in m.declarations] == ["f", "g"]


def test_parse_corpus_zipwith(corpus_dir):
    m = parse_module((corpus_dir / "zipwith.gctt").read_text())
    names = [d.name for d in m.declarations]
    assert "zipWith" in names and "zipWith_preserves_comm" in names


# ---------------------------------------------------------------------------
# errors


def test_parse_error_reports_expected():
    with pytest.raises(ParseError) as exc:
        parse_module("module m")
    assert "where" in exc.value.expected


def test_parse_error_deterministic():
    def get():
        try:
            parse_term("comp i [ ] ]")
        except ParseError as e:
            return (str(e), e.expected, e.found)
        raise AssertionError

    assert get() == get()


# ---------------------------------------------------------------------------
# round trip


ROUND_TRIP_TERMS = [
    r"\x -> x",
    r"\(x : N) -> suc x",
    "(x : N) -> Path N x x",
    "(x : N) * Path N x x",
    "<i> p @ i",
    r"<i> \x -> (p x) @ i",
    "comp i N [ (j=0) -> 0, (j=1) -> 1 ] (q @ j)",
    "comp i A [] a",
    "next [x <- s, y <- t] (f x y)",
    "|> [x <- s] (P x)",
    "dfix -r x. f x",
    "fix -r x. f x",
    "natrec (\\n -> N) 0 (\\n r -> suc r) 2",
    "Glue [ (i=1) -> T, e ] A",
    "glue [] a",
    "unglue b",
    "(f x).1",
    "(p @ 0) q",
    "[ (i=0) -> a, (i=1) -> b ]",
    "3",
    "p @ -(-i)",
    "0.1",
    "N.1",
]


@pytest.mark.parametrize("src", ROUND_TRIP_TERMS)
def test_round_trip_terms(src):
    t = parse_term(src)
    assert parse_term(term_str(t)) == t


@given(term_st())
@settings(max_examples=400)
def test_printed_terms_reparse(t):
    s = term_str(t)
    assert term_str(parse_term(s)) == s


def test_round_trip_corpus_modules(corpus_dir):
    for path in sorted(corpus_dir.glob("*.gctt")):
        m = parse_module(path.read_text())
        again = parse_module(module_str(m))
        assert again.name == m.name
        assert len(again.declarations) == len(m.declarations)
        for d1, d2 in zip(m.declarations, again.declarations):
            assert d1.name == d2.name
            assert alpha_canonical(d1.type) == alpha_canonical(d2.type)
            assert alpha_canonical(d1.body) == alpha_canonical(d2.body)
