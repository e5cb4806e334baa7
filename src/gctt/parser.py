r"""Lexer and parser for the surface language.

Lexical grammar: an identifier starts with a letter or `_` and continues
with word characters and `'`; a numeral is a run of decimal digits, of
value at most `MAX_NUMERAL`; a `--` comment runs to the end of the line.
Keywords are identifiers reserved in `KEYWORDS`; the symbols are
`-> <- |> /\ \/ \ < > @ . , : = ( ) [ ] * -`, the longest match first.
Blanks are space, tab and carriage return; a column counts characters, so
a tab is one column.

`tokenize` makes one match of `_TOKEN` per token, which takes the blanks,
newlines and comments before the token with it; `Token` and `Span` are
named tuples.  The parser's cursor holds the current token (`Parser.tok`).
A symbol or keyword is told by its lexeme alone: no identifier, numeral
or `eof` has the lexeme of one.

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
from typing import NamedTuple, Optional

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
_ATOM_START = ATOM_KEYWORDS | {"(", "["}  # what starts an atom
# the largest numeral; `Parser.numeral` builds one node per unit
MAX_NUMERAL = 100_000

# One match per token: the blanks, newlines and comments before it (blanks,
# then each comment with the blanks after it, so nothing backtracks), then
# the token as one group of numeral, identifier, symbol (longest first) or
# an illegal character; none of these at the end of the source is `eof`.
# An identifier may start with a numeric non-letter (`½`) `tokenize` rejects.
_TOKEN = re.compile(r"""
    ([ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*)
    (?:(\d+)
     | ([^\W\d][\w']*)
     | (->|<-|\|>|/\\|\\/|[\\<>@.,:=()\[\]*-])
     | \Z
     | (.))
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # ident | keyword | symbol | int | eof
    lexeme: str
    span: Span


# `_new(cls, fields)` builds a named tuple without its Python-level `__new__`
_new = tuple.__new__


class ParseError(Exception):
    def __init__(self, span: Optional[Span], expected, found: str):
        self.span = span
        self.expected = tuple(sorted(set(expected)))
        self.found = found
        exp = ", ".join(self.expected)
        super().__init__(f"{span or '?'}: expected {exp}, found {found}")


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for skip, num, name, sym, bad in _TOKEN.findall(source):
        if skip:
            if "\n" in skip:
                line += skip.count("\n")
                line_start = pos + skip.rindex("\n") + 1
            pos += len(skip)
        if sym:
            kind, lexeme = "symbol", sym
        elif name:
            kind, lexeme = "ident", name
            if name in KEYWORDS:
                kind = "keyword"
            elif name >= "\x80" and not name[0].isalpha():
                bad = name[0]
        elif num:
            kind, lexeme = "int", num
        elif not bad:
            kind, lexeme = "eof", ""
        if bad:
            span = Span(line, pos - line_start + 1, pos, pos)
            raise ParseError(span, ["a token"], repr(bad))
        end = pos + len(lexeme)
        append(_new(Token, (kind, lexeme, _new(Span, (
            line, pos - line_start + 1, pos, end)))))
        if not lexeme:
            break  # `eof`; `findall` may match the empty end once more
        pos = end
    return tokens


class Parser:
    """A cursor over the tokens: `tok` is the token at `pos`.  A lookahead
    indexes `tokens` past a token that is not `eof`, the last one, so it
    needs no bound."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]

    # -- token plumbing ----------------------------------------------------

    def next(self) -> Token:
        """The current token, moving past it; never called at `eof`."""
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def expect(self, lexeme: str) -> None:
        """Move past the symbol or keyword `lexeme`."""
        if self.tok.lexeme != lexeme:
            raise self.fail([lexeme])
        self.next()

    def fail(self, expected) -> ParseError:
        t = self.tok
        return ParseError(t.span, expected, t.lexeme or t.kind)

    def ident(self) -> str:
        if self.tok.kind != "ident":
            raise self.fail(["ident"])
        return self.next().lexeme

    # -- modules -----------------------------------------------------------

    def module(self) -> ModuleFile:
        self.expect("module")
        name = self.ident()
        self.expect("where")
        imports = []
        while self.tok.lexeme == "import":
            self.next()
            imports.append(self.ident())
        decls = []
        while self.tok.kind != "eof":
            decls.append(self.declaration())
        return ModuleFile(name, tuple(imports), tuple(decls))

    def declaration(self) -> Declaration:
        start = self.tok.span
        name = self.ident()
        self.expect(":")
        ty = self.term()
        self.expect("=")
        body = self.term()
        return Declaration(name, ty, body, span=start)

    # -- terms -------------------------------------------------------------

    def term(self) -> Term:
        _, lexeme, span = self.tok
        if lexeme == "\\":
            return self.lam(span)
        if lexeme == "<":
            return self.path_lam(span)
        if lexeme == "dfix" or lexeme == "fix":
            return self.fixpoint(span)
        return self.arrow()

    def lam(self, span: Span) -> Term:
        self.next()
        binders = self.binders(bare=True)
        if not binders:
            raise self.fail(["a binder"])
        self.expect("->")
        body = self.term()
        for x, ann in reversed(binders):
            body = Lam(span, x, ann, body)
        return body

    def path_lam(self, span: Span) -> Term:
        self.next()
        names = [self.ident()]
        while self.tok.kind == "ident":
            names.append(self.next().lexeme)
        self.expect(">")
        body = self.term()
        for x in reversed(names):
            body = PLam(span, x, body)
        return body

    def fixpoint(self, span: Span) -> Term:
        kw = self.next().lexeme
        clock = self.interval_atom()
        x = self.ident()
        self.expect(".")
        body = self.term()
        return (Fix if kw == "fix" else DFix)(span, clock, x, body)

    def _binder_groups_ahead(self) -> bool:
        """Is the current '(' the start of a (x y : A) binder group?"""
        if self.tok.lexeme != "(":
            return False
        tokens, k = self.tokens, self.pos + 1
        while tokens[k].kind == "ident":
            k += 1
        return k > self.pos + 1 and tokens[k].lexeme == ":"

    def binders(self, bare: bool) -> list[tuple[str, Optional[Term]]]:
        """The (x y : A) binder groups ahead, one (name, type) per name, and
        where `bare`, the names ahead with no type, each as (name, None)."""
        binders: list[tuple[str, Optional[Term]]] = []
        while True:
            if bare and self.tok.kind == "ident":
                binders.append((self.next().lexeme, None))
            elif self._binder_groups_ahead():
                self.next()
                names = []
                while self.tok.kind == "ident":
                    names.append(self.next().lexeme)
                self.expect(":")
                ty = self.term()
                self.expect(")")
                binders.extend((x, ty) for x in names)
            else:
                return binders

    def arrow(self) -> Term:
        """Binder groups before `*` or `->`, or `A * B * ... -> C` with each
        of A, B, ... a path application: `*` and `->` group to the right."""
        span = self.tok.span
        if self._binder_groups_ahead():
            groups = self.binders(bare=False)
            if self.tok.lexeme == "*":
                self.next()
                body, former = self.arrow(), Sigma
            else:
                self.expect("->")
                body, former = self.term(), Pi
            for x, ty in reversed(groups):
                body = former(span, x, ty, body)
            return body
        factors = [(span, self.path_app())]
        while self.tok.lexeme == "*":
            self.next()
            factors.append((self.tok.span, self.path_app()))
        lhs = factors.pop()[1]
        for s, factor in reversed(factors):
            lhs = Sigma(s, "_", factor, lhs)
        if self.tok.lexeme == "->":
            self.next()
            return Pi(span, "_", lhs, self.term())
        return lhs

    def path_app(self) -> Term:
        """An application chain, then any `@ r`."""
        span = self.tok.span
        t = self.atom()
        while True:
            kind, lexeme, _ = self.tok
            if kind == "ident":
                # an identifier followed by ':' starts the next declaration
                if self.tokens[self.pos + 1].lexeme == ":":
                    break
            elif kind != "int" and lexeme not in _ATOM_START:
                break
            t = App(span, t, self.atom())
        while self.tok.lexeme == "@":
            t = PApp(self.next().span, t, self.interval())
        return t

    def atom(self) -> Term:
        """An atom, then any `.1` and `.2` projections of it."""
        kind, lexeme, span = self.tok
        if kind == "ident":
            self.next()
            term = Var(span, lexeme)
        elif kind == "int":
            term = self.numeral()
        elif lexeme in ATOM_KEYWORDS:
            term = self.keyword_atom()
        elif lexeme == "(":
            self.next()
            term = self.term()
            if self.tok.lexeme == ",":
                self.next()
                term = Pair(span, term, self.term())
            self.expect(")")
            term = term.with_span(span)
        elif lexeme == "[":
            term = self.system(span)
        else:
            raise self.fail(["a term"])
        tokens = self.tokens
        while self.tok.lexeme == "." and tokens[self.pos + 1].kind == "int":
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
        _, kw, span = self.next()
        former = KEYWORD_FORMERS.get(kw)
        if former is not None:
            return former(span, *[
                self.delayed_subst() if kind is DS else self.atom()
                for _, kind, _, _ in _SCHEME[former]])
        if kw == "comp":
            binder = self.ident()
            line = self.atom()
            tube = self.system(self.tok.span)
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
        self.expect("[")
        if self.tok.lexeme == "]":
            self.next()
            return FACE_BOT, None, None
        face, part = self.branch()
        e = None
        if equiv:
            self.expect(",")
            e = self.term()
        self.expect("]")
        return face, part, e

    def delayed_subst(self) -> tuple:
        """`[x <- t, ...]`, or no entries where none is ahead."""
        tokens, k = self.tokens, self.pos
        if (self.tok.lexeme == "[" and tokens[k + 1].kind == "ident"
                and tokens[k + 2].lexeme == "<-"):
            return self.bracketed(self.ds_entry)
        return ()

    def ds_entry(self) -> tuple:
        x = self.ident()
        self.expect("<-")
        return (x, self.term())

    def system(self, span: Span) -> Term:
        return SystemTerm(span, self.bracketed(self.branch))

    def branch(self) -> tuple:
        face = self.face()
        self.expect("->")
        return (face, self.term())

    def bracketed(self, item) -> tuple:
        """`[ item, ..., item ]`, or `[]` for none."""
        self.expect("[")
        items = []
        if self.tok.lexeme != "]":
            items.append(item())
            while self.tok.lexeme == ",":
                self.next()
                items.append(item())
        self.expect("]")
        return tuple(items)

    # -- faces and intervals ------------------------------------------------

    def _chain(self, operand, symbol: str, combine):
        """`operand symbol operand ...`, combined from the left."""
        x = operand()
        while self.tok.lexeme == symbol:
            self.next()
            x = combine(x, operand())
        return x

    def face(self) -> Face:
        return self._chain(
            lambda: self._chain(self.face_atom, "/\\", face_meet),
            "\\/", face_join)

    def face_atom(self) -> Face:
        self.expect("(")
        if self.tok.lexeme == "(":
            inner = self.face()
            self.expect(")")
            return inner
        r = self.interval()
        self.expect("=")
        pol = self.tok.lexeme
        if pol not in ("0", "1"):
            raise self.fail(["0", "1"] if self.tok.kind == "int" else ["int"])
        self.next()
        self.expect(")")
        return face_of_eq(r, int(pol))

    def interval(self) -> IExpr:
        return self._chain(
            lambda: self._chain(self.interval_atom, "/\\", IMeet),
            "\\/", IJoin)

    def interval_atom(self) -> IExpr:
        kind, lexeme, _ = self.tok
        if lexeme == "-":
            self.next()
            return INeg(self.interval_atom())
        if kind == "int" and lexeme in ("0", "1"):
            self.next()
            return ZERO if lexeme == "0" else ONE
        if kind == "ident":
            self.next()
            return IVar(lexeme)
        if lexeme == "(":
            self.next()
            r = self.interval()
            self.expect(")")
            return r
        raise self.fail(["an interval expression"])


def _parse(source: str, rule):
    """The source as `rule` of the grammar, and nothing after it."""
    p = Parser(tokenize(source))
    result = rule(p)
    if p.tok.kind != "eof":
        raise p.fail(["eof"])
    return result


def parse_module(source: str) -> ModuleFile:
    return _parse(source, Parser.module)


def parse_term(source: str) -> Term:
    return _parse(source, Parser.term)


def parse_interval(source: str) -> IExpr:
    return _parse(source, Parser.interval)
