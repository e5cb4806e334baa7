r"""Lexer and parser for the surface language.

Lexical grammar: an identifier starts with a letter or `_` and continues
with word characters and `'`; a numeral is a run of decimal digits, of
value at most `MAX_NUMERAL`; a `--` comment runs to the end of the line.
Keywords are identifiers reserved in `KEYWORDS`; the symbols are
`-> <- |> /\ \/ \ < > @ . , : = ( ) [ ] * -`, the longest match first.
Blanks are space, tab and carriage return; a column counts characters, so
a tab is one column.

One module per file: `module name where` followed by declarations
`name : Type = term`.  There is no layout rule; an application chain stops
when the next identifier is followed by `:`, which begins a new declaration.

The formers written as a keyword (or `|>`) followed by their fields are
read from the table `syntax.KEYWORD_FORMERS`, from which the printer also
writes them.  Every atom takes the projections `.1` and `.2` after it.
`transp i A a` is surface sugar for a composition with an empty tube.
`fix r x. t` stays a term of its own: the checker types it by the guarded
fixed-point rule and unfolds it to t[dfix r x. t / x] only where its type
must be inferred (`syntax.unfold_fix`).  The tube of
`comp i A [ phi1 -> u1, ... ] a` is the system as written, defined on the
join of its faces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .interval import (
    FACE_BOT,
    Face,
    IExpr,
    IJoin,
    IMeet,
    INeg,
    IVar,
    ONE,
    ZERO,
    face_join,
    face_meet,
    face_of_eq,
)
from .syntax import (
    DS,
    KEYWORD_FORMERS,
    _SCHEME,
    App,
    Comp,
    DFix,
    Declaration,
    Fix,
    Fst,
    GlueIntro,
    GlueT,
    Lam,
    ModuleFile,
    PApp,
    PLam,
    Pair,
    Pi,
    Sigma,
    Snd,
    Span,
    Suc,
    SystemTerm,
    Term,
    Var,
    Zero,
)

# what starts an atom of `Parser.keyword_atom`: the keywords of the keyword
# formers, and their one symbol `|>`, then four formers written out
ATOM_KEYWORDS = frozenset(KEYWORD_FORMERS) | {"comp", "transp", "Glue", "glue"}
KEYWORDS = (ATOM_KEYWORDS - {"|>"}) | {"module", "where", "import", "data",
                                       "let", "dfix", "fix"}
# the largest numeral; `Parser.numeral` builds one node per unit
MAX_NUMERAL = 100_000

# One alternative per token kind, tried in order; symbols longest first.
# An identifier group may start with a numeric character that is not a
# letter (`½`); `tokenize` rejects it.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|--[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[^\W\d][\w']*)
  | (?P<symbol>->|<-|\|>|/\\|\\/|[\\<>@.,:=()\[\]*-])
  | (?P<illegal>.)
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | keyword | symbol | int | eof
    lexeme: str
    span: Span


class ParseError(Exception):
    def __init__(self, span: Optional[Span], expected, found: str):
        self.span = span
        self.expected = tuple(sorted(set(expected)))
        self.found = found
        where = f"{span.line}:{span.col}" if span else "?"
        exp = ", ".join(self.expected)
        super().__init__(f"{where}: expected {exp}, found {found}")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind, lexeme, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "illegal" or kind == "ident" and not (
                lexeme[0].isalpha() or lexeme[0] == "_"):
            raise ParseError(Span(line, col, start, start), ["a token"],
                             repr(lexeme[0]))
        elif kind != "skip":
            if kind == "ident" and lexeme in KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, lexeme, Span(line, col, start, m.end())))
    end = len(source)
    tokens.append(Token("eof", "", Span(line, end - line_start + 1, end, end)))
    return tokens


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_symbol(self, *syms: str) -> bool:
        t = self.peek()
        return t.kind == "symbol" and t.lexeme in syms

    def at_keyword(self, *kws: str) -> bool:
        t = self.peek()
        return t.kind == "keyword" and t.lexeme in kws

    def expect(self, kind: str, lexeme: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (lexeme is not None and t.lexeme != lexeme):
            raise ParseError(t.span, [lexeme or kind], t.lexeme or t.kind)
        return self.next()

    def fail(self, expected) -> ParseError:
        t = self.peek()
        return ParseError(t.span, expected, t.lexeme or t.kind)

    def ident(self) -> str:
        return self.expect("ident").lexeme

    # -- modules -----------------------------------------------------------

    def module(self) -> ModuleFile:
        self.expect("keyword", "module")
        name = self.ident()
        self.expect("keyword", "where")
        imports = []
        while self.at_keyword("import"):
            self.next()
            imports.append(self.ident())
        decls = []
        while self.peek().kind != "eof":
            decls.append(self.declaration())
        return ModuleFile(name, tuple(imports), tuple(decls))

    def declaration(self) -> Declaration:
        start = self.peek().span
        name = self.ident()
        self.expect("symbol", ":")
        ty = self.term()
        self.expect("symbol", "=")
        body = self.term()
        return Declaration(name, ty, body, span=start)

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        span = self.peek().span
        if self.at_symbol("\\"):
            return self.lam(span)
        if self.at_symbol("<"):
            return self.path_lam(span)
        if self.at_keyword("dfix", "fix"):
            return self.fixpoint(span)
        return self.arrow()

    def lam(self, span: Span) -> Term:
        self.next()
        binders = self.binder_group()
        self.expect("symbol", "->")
        body = self.term()
        for x, ann in reversed(binders):
            body = Lam(span, x, ann, body)
        return body

    def binder_group(self) -> list[tuple[str, Optional[Term]]]:
        binders: list[tuple[str, Optional[Term]]] = []
        while True:
            if self.peek().kind == "ident":
                binders.append((self.ident(), None))
            elif self._binder_groups_ahead():
                binders.extend(self.binder_groups())
            else:
                break
        if not binders:
            raise self.fail(["a binder"])
        return binders

    def path_lam(self, span: Span) -> Term:
        self.next()
        names = [self.ident()]
        while self.peek().kind == "ident":
            names.append(self.ident())
        self.expect("symbol", ">")
        body = self.term()
        for x in reversed(names):
            body = PLam(span, x, body)
        return body

    def fixpoint(self, span: Span) -> Term:
        kw = self.next().lexeme
        clock = self.interval_atom()
        x = self.ident()
        self.expect("symbol", ".")
        body = self.term()
        return (Fix if kw == "fix" else DFix)(span, clock, x, body)

    def _binder_groups_ahead(self) -> bool:
        """Is the upcoming '(' the start of a (x y : A) binder group?"""
        if not self.at_symbol("("):
            return False
        k = 1
        while self.peek(k).kind == "ident":
            k += 1
        return k > 1 and self.peek(k).kind == "symbol" and self.peek(k).lexeme == ":"

    def binder_groups(self) -> list[tuple[str, Term]]:
        """The (x y : A) binder groups ahead, one (name, type) per name."""
        groups: list[tuple[str, Term]] = []
        while self._binder_groups_ahead():
            self.next()
            names = []
            while self.peek().kind == "ident":
                names.append(self.ident())
            self.expect("symbol", ":")
            ty = self.term()
            self.expect("symbol", ")")
            groups.extend((x, ty) for x in names)
        return groups

    def arrow(self) -> Term:
        span = self.peek().span
        groups = self.binder_groups()
        if groups:
            if self.at_symbol("*"):
                self.next()
                body = self.arrow()
                for x, ty in reversed(groups):
                    body = Sigma(span, x, ty, body)
                return body
            self.expect("symbol", "->")
            body = self.term()
            for x, ty in reversed(groups):
                body = Pi(span, x, ty, body)
            return body
        lhs = self.sigma()
        if self.at_symbol("->"):
            self.next()
            return Pi(span, "_", lhs, self.term())
        return lhs

    def sigma(self) -> Term:
        span = self.peek().span
        lhs = self.path_app()
        if self.at_symbol("*"):
            self.next()
            return Sigma(span, "_", lhs, self.sigma())
        return lhs

    def path_app(self) -> Term:
        t = self.app()
        while self.at_symbol("@"):
            span = self.next().span
            t = PApp(span, t, self.interval())
        return t

    def _stops_chain(self) -> bool:
        # an identifier followed by ':' starts the next declaration
        t = self.peek()
        if t.kind == "ident":
            nxt = self.peek(1)
            return nxt.kind == "symbol" and nxt.lexeme == ":"
        return False

    def _at_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("ident", "int"):
            return not self._stops_chain()
        return t.lexeme in ATOM_KEYWORDS or self.at_symbol("(", "[")

    def app(self) -> Term:
        span = self.peek().span
        t = self.atom()
        while self._at_atom():
            t = App(span, t, self.atom())
        return t

    def atom(self) -> Term:
        """An atom, then any `.1` and `.2` projections of it."""
        t = self.peek()
        span = t.span
        if t.kind == "ident":
            self.next()
            term = Var(span, t.lexeme)
        elif t.kind == "int":
            term = self.numeral()
        elif t.lexeme in ATOM_KEYWORDS:
            term = self.keyword_atom()
        elif self.at_symbol("("):
            self.next()
            term = self.term()
            if self.at_symbol(","):
                self.next()
                term = Pair(span, term, self.term())
            self.expect("symbol", ")")
            term = term.with_span(span)
        elif self.at_symbol("["):
            term = self.system(span)
        else:
            raise self.fail(["a term"])
        while self.at_symbol(".") and self.peek(1).kind == "int":
            span = self.next().span
            idx = self.next().lexeme
            if idx not in ("1", "2"):
                raise ParseError(span, [".1", ".2"], f".{idx}")
            term = (Fst if idx == "1" else Snd)(span, term)
        return term

    def numeral(self) -> Term:
        """A numeral n as n `Suc`s of `Zero`.  One above MAX_NUMERAL is an
        error, found before its digits are converted: a long numeral would
        take long to convert, and its nodes would not fit in memory."""
        t = self.next()
        # leading zeros, of any script, left out
        k = next((k for k, c in enumerate(t.lexeme) if int(c)), len(t.lexeme))
        digits = t.lexeme[k:] or "0"
        if len(digits) > len(str(MAX_NUMERAL)) or int(digits) > MAX_NUMERAL:
            found = t.lexeme if len(t.lexeme) <= 12 else t.lexeme[:12] + "..."
            raise ParseError(t.span, [f"a numeral up to {MAX_NUMERAL}"], found)
        term: Term = Zero(t.span)
        for _ in range(int(digits)):
            term = Suc(t.span, term)
        return term

    def keyword_atom(self) -> Term:
        kw = self.peek().lexeme
        span = self.next().span
        former = KEYWORD_FORMERS.get(kw)
        if former is not None:
            return former(span, *[
                self.delayed_subst() if kind is DS else self.atom()
                for _, kind, _, _ in _SCHEME[former]])
        if kw == "comp":
            binder = self.ident()
            line = self.atom()
            tube = self.system(self.peek().span)
            return Comp(span, binder, line, tube, self.atom())
        if kw == "transp":
            binder = self.ident()
            line = self.atom()
            base = self.atom()
            return Comp(span, binder, line, SystemTerm(span, ()), base)
        if kw == "Glue":
            return GlueT(span, *self.glue_head(equiv=True), self.atom())
        face, part, _ = self.glue_head(equiv=False)  # "glue"
        return GlueIntro(span, face, part, self.atom())

    def glue_head(self, equiv: bool) -> tuple:
        """The `[]` or `[ phi -> t ]` of `glue`, `[ phi -> t, e ]` of `Glue`,
        as (face, t, e); an empty head is on the false face."""
        self.expect("symbol", "[")
        if self.at_symbol("]"):
            self.next()
            return FACE_BOT, None, None
        face, part = self.branch()
        e = None
        if equiv:
            self.expect("symbol", ",")
            e = self.term()
        self.expect("symbol", "]")
        return face, part, e

    def _at_delayed_subst(self) -> bool:
        return (
            self.at_symbol("[")
            and self.peek(1).kind == "ident"
            and self.peek(2).kind == "symbol"
            and self.peek(2).lexeme == "<-"
        )

    def delayed_subst(self) -> tuple:
        return self.bracketed(self.ds_entry) if self._at_delayed_subst() else ()

    def ds_entry(self) -> tuple:
        x = self.ident()
        self.expect("symbol", "<-")
        return (x, self.term())

    def system(self, span: Span) -> Term:
        return SystemTerm(span, self.bracketed(self.branch))

    def branch(self) -> tuple:
        face = self.face()
        self.expect("symbol", "->")
        return (face, self.term())

    def bracketed(self, item) -> tuple:
        """`[ item, ..., item ]`, or `[]` for none."""
        self.expect("symbol", "[")
        items = []
        if not self.at_symbol("]"):
            items.append(item())
            while self.at_symbol(","):
                self.next()
                items.append(item())
        self.expect("symbol", "]")
        return tuple(items)

    # -- faces and intervals ------------------------------------------------

    def _chain(self, operand, symbol: str, combine):
        """`operand symbol operand ...`, combined from the left."""
        x = operand()
        while self.at_symbol(symbol):
            self.next()
            x = combine(x, operand())
        return x

    def face(self) -> Face:
        return self._chain(
            lambda: self._chain(self.face_atom, "/\\", face_meet),
            "\\/", face_join)

    def face_atom(self) -> Face:
        self.expect("symbol", "(")
        if self.at_symbol("("):
            inner = self.face()
            self.expect("symbol", ")")
            return inner
        r = self.interval()
        self.expect("symbol", "=")
        pol = self.expect("int")
        if pol.lexeme not in ("0", "1"):
            raise ParseError(pol.span, ["0", "1"], pol.lexeme)
        self.expect("symbol", ")")
        return face_of_eq(r, int(pol.lexeme))

    def interval(self) -> IExpr:
        return self._chain(
            lambda: self._chain(self.interval_atom, "/\\", IMeet),
            "\\/", IJoin)

    def interval_atom(self) -> IExpr:
        t = self.peek()
        if self.at_symbol("-"):
            self.next()
            return INeg(self.interval_atom())
        if t.kind == "int" and t.lexeme in ("0", "1"):
            self.next()
            return ZERO if t.lexeme == "0" else ONE
        if t.kind == "ident":
            self.next()
            return IVar(t.lexeme)
        if self.at_symbol("("):
            self.next()
            r = self.interval()
            self.expect("symbol", ")")
            return r
        raise self.fail(["an interval expression"])


def parse_module(source: str) -> ModuleFile:
    p = Parser(tokenize(source))
    m = p.module()
    p.expect("eof")
    return m


def parse_term(source: str) -> Term:
    p = Parser(tokenize(source))
    t = p.term()
    p.expect("eof")
    return t


def parse_interval(source: str) -> IExpr:
    p = Parser(tokenize(source))
    r = p.interval()
    p.expect("eof")
    return r
