"""Abstract syntax: terms, delayed substitutions, systems, modules.

Terms are immutable trees with named binders.  Each term former declares,
field by field, what it binds (`_part`); free names, capture-avoiding
substitution of terms and interval expressions, alpha-canonical renaming,
renaming apart and the subterm walk are all read off that one description.
Spans are carried for diagnostics but ignored by structural equality.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .interval import (
    Face,
    IExpr,
    IVar,
    dm_subst_all,
    face_names,
    face_str,
    face_subst_all,
    iexpr_str,
    inames,
)
from .record import Record, field, fields


class Span(NamedTuple):
    line: int
    col: int
    start: int
    end: int

    def __str__(self):
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Binding structure.  Every field of a term former but its span is one of:

NAME = "name"        # the name a variable occurrence refers to
TERM = "term"        # a subterm, or None where optional
IEXPR = "iexpr"      # an interval expression
FACE = "face"        # a face
SYSTEM = "system"    # a tuple of (Face, Term) branches
BINDER = "binder"    # a term binder
IBINDER = "ibinder"  # an interval binder
DS = "ds"            # a delayed substitution: a tuple of (term binder, Term);
                     # every entry lies outside all of the binders


def _part(kind: str, default=None, under: Optional[str] = None):
    """A field of the given kind.  A subterm `under` a binder field (BINDER,
    IBINDER or DS) is in the scope of what that field binds; every other
    subterm, face and interval expression is in the scope of the node."""
    return field(default, metadata={"kind": kind, "under": under})


class Term(metaclass=Record, eq=True, memos=("_free_names", "_captured")):
    span: Optional[Span] = field(None, compare=False)

    def with_span(self, span: Optional[Span]) -> "Term":
        if span is None:
            return self
        return type(self)(span, *self.field_values[1:])


class Var(Term):
    name: str = _part(NAME, "")


class Lam(Term):
    binder: str = _part(BINDER, "")
    annotation: Optional[Term] = _part(TERM)
    body: Term = _part(TERM, under="binder")


class App(Term):
    fn: Term = _part(TERM)
    arg: Term = _part(TERM)


class Pi(Term):
    binder: str = _part(BINDER, "")
    domain: Term = _part(TERM)
    codomain: Term = _part(TERM, under="binder")


class Sigma(Term):
    binder: str = _part(BINDER, "")
    first: Term = _part(TERM)
    second: Term = _part(TERM, under="binder")


class Pair(Term):
    fst: Term = _part(TERM)
    snd: Term = _part(TERM)


class Fst(Term):
    pair: Term = _part(TERM)


class Snd(Term):
    pair: Term = _part(TERM)


class Zero(Term):
    pass


class Suc(Term):
    pred: Term = _part(TERM)


class NatRec(Term):
    motive: Term = _part(TERM)
    base: Term = _part(TERM)
    step: Term = _part(TERM)
    scrutinee: Term = _part(TERM)


class Nat(Term):
    pass


class Univ(Term):
    pass


class PLam(Term):
    binder: str = _part(IBINDER, "")
    body: Term = _part(TERM, under="binder")


class PApp(Term):
    fn: Term = _part(TERM)
    arg: IExpr = _part(IEXPR)


class PathT(Term):
    space: Term = _part(TERM)
    lhs: Term = _part(TERM)
    rhs: Term = _part(TERM)


class SystemTerm(Term):
    branches: tuple = _part(SYSTEM, ())


class Comp(Term):
    binder: str = _part(IBINDER, "")
    line: Term = _part(TERM, under="binder")
    # a SystemTerm, defined on the join of its faces; no face names the binder
    tube: Term = _part(TERM, under="binder")
    base: Term = _part(TERM)


class GlueT(Term):
    face: Face = _part(FACE)
    partial: Optional[Term] = _part(TERM)  # type on the face; None iff bottom
    equiv: Optional[Term] = _part(TERM)
    base: Term = _part(TERM)


class GlueIntro(Term):
    face: Face = _part(FACE)
    partial: Optional[Term] = _part(TERM)  # term on the face; None iff bottom
    base: Term = _part(TERM)


class Unglue(Term):
    arg: Term = _part(TERM)


class LaterT(Term):
    subst: tuple = _part(DS, ())
    body: Term = _part(TERM, under="subst")


class Next(Term):
    subst: tuple = _part(DS, ())
    body: Term = _part(TERM, under="subst")


class DFix(Term, memos=("_dfix_type",)):
    clock: IExpr = _part(IEXPR)  # interval element controlling the unfolding
    binder: str = _part(BINDER, "")
    body: Term = _part(TERM, under="binder")


class Fix(Term, memos=("_dfix_type",)):
    clock: IExpr = _part(IEXPR)  # the clock of the delayed fixed point
    binder: str = _part(BINDER, "")
    body: Term = _part(TERM, under="binder")


class Declaration(metaclass=Record, eq=True):
    name: str
    type: Term
    body: Term
    span: Optional[Span] = field(None, compare=False)


class ModuleFile(metaclass=Record, eq=True):
    name: str
    imports: tuple = ()
    declarations: tuple = ()


# For each term former, its fields in order as (name, kind, binder field
# the field is under, that binder field's kind).
_SCHEME = {
    cls: tuple(
        (name, part["kind"], part["under"],
         parts[part["under"]]["kind"] if part["under"] else None)
        for name, part in parts.items()
    )
    for cls in Term.__subclasses__()
    for parts in [{f.name: f.metadata for f in fields(cls) if f.metadata}]
}


def subterms(t: Term):
    """The immediate subterms of t, in field order."""
    for name, kind, _, _ in _SCHEME[type(t)]:
        value = getattr(t, name)
        if kind is TERM:
            if value is not None:
                yield value
        elif kind is SYSTEM or kind is DS:
            for _, u in value:
                yield u


def same_term(a: Term, b: Term) -> bool:
    """`a == b`, spans ignored, by a loop: `==` takes C stack per level."""
    stack = [(a, b)]
    while stack:
        p, q = stack.pop()
        if p is q:
            continue
        if isinstance(p, Term) and type(p) is type(q):
            stack.extend(zip(p.field_values[1:], q.field_values[1:]))
        elif type(p) is tuple and type(q) is tuple and len(p) == len(q):
            stack.extend(zip(p, q))  # a system's or delayed substitution's
        elif isinstance(p, (Term, tuple)) or p != q:
            return False
    return True


def _bound(value, kind) -> tuple[frozenset, frozenset]:
    """The term and interval names a binder field binds."""
    if kind is BINDER:
        return frozenset((value,)), frozenset()
    if kind is IBINDER:
        return frozenset(), frozenset((value,))
    return frozenset(x for x, _ in value), frozenset()


# ---------------------------------------------------------------------------
# Free names


def free_names(t: Term) -> tuple[frozenset, frozenset]:
    """Free term variables and free interval names of a term, memoized in
    its `_free_names` slot (terms are immutable)."""
    memo = t._free_names
    if memo is not None:
        return memo
    fvs, fis = set(), set()
    for name, kind, under, under_kind in _SCHEME[type(t)]:
        value = getattr(t, name)
        if kind is NAME:
            fvs.add(value)
        elif kind is TERM:
            if value is not None:
                vs, js = free_names(value)
                if under is not None:
                    bvs, bjs = _bound(getattr(t, under), under_kind)
                    vs, js = vs - bvs, js - bjs
                fvs |= vs
                fis |= js
        elif kind is IEXPR:
            fis |= inames(value)
        elif kind is FACE:
            fis |= face_names(value)
        elif kind is SYSTEM or kind is DS:
            for head, u in value:
                if kind is SYSTEM:
                    fis |= face_names(head)
                vs, js = free_names(u)
                fvs |= vs
                fis |= js
    t._free_names = memo = (frozenset(fvs), frozenset(fis))
    return memo


# ---------------------------------------------------------------------------
# Substitution and alpha-renaming


def fresh_name(base: str, avoid) -> str:
    base = base.rstrip("0123456789") or "x"
    if base not in avoid:
        return base
    for n in itertools.count(1):
        cand = f"{base}{n}"
        if cand not in avoid:
            return cand
    raise AssertionError


def substitute(t: Term, terms: dict, intervals: dict) -> Term:
    """Capture-avoiding simultaneous substitution of terms for term names
    and interval expressions for interval names.  A binder that could
    capture a free name of a substituted term or expression is renamed,
    whatever its name space.  A term in which no substituted name is free
    is returned as it is."""
    # every name free in a term or expression the walk may put in; a
    # renamed binder's new name joins it, so that an inner binder of that
    # name is renamed in turn rather than capturing the renamed occurrences
    avoid = set()
    for u in terms.values():
        for names in free_names(u):
            avoid |= names
    for r in intervals.values():
        avoid |= inames(r)

    def rename(x, kind, node, chosen, bound):
        if x not in avoid:
            return x
        used = avoid | chosen | _binders(node)
        for names in free_names(node):
            used |= names
        x2 = fresh_name(x, used)
        avoid.add(x2)
        return x2

    return _rebuild(t, terms, intervals, None, rename, True)


def subst_term(t: Term, x: str, u: Term) -> Term:
    """Capture-avoiding substitution of u for the term variable x."""
    return substitute(t, {x: u}, {})


def subst_terms(t: Term, sub: dict) -> Term:
    """Capture-avoiding simultaneous substitution for term variables."""
    return substitute(t, sub, {})


def unfold_fix(t: Fix) -> Term:
    """The definition of `fix r x. t`: t[dfix r x. t / x]."""
    dfix = DFix(t.span, t.clock, t.binder, t.body)
    return subst_term(t.body, t.binder, dfix).with_span(t.span)


def subst_interval(t: Term, i: str, r: IExpr) -> Term:
    """Substitute the interval expression r for the name i everywhere."""
    return substitute(t, {}, {i: r})


def alpha_canonical(t: Term) -> Term:
    """Rename the binders of t to x0, x1, ... (term binders) and i0, i1, ...
    (interval binders), skipping names free in t, and drop the spans, so
    that alpha-equivalent terms give equal results.  A binder is numbered
    just before the first subterm it scopes over; a delayed substitution's
    binder right after its entry."""
    fvs, fis = free_names(t)
    counters = {BINDER: ("x", fvs, itertools.count()),
                IBINDER: ("i", fis, itertools.count())}

    def rename(x, kind, node, chosen, bound):
        prefix, free, counter = counters[kind]
        while (name := f"{prefix}{next(counter)}") in free:
            pass
        return name

    return _rebuild(t, {}, {}, None, rename, False)


def rename_apart(t: Term, avoid) -> Term:
    """t with each binder that shadows a name in scope (in `avoid` or bound
    around it, in either name space) renamed by `fresh_name` to a name
    neither in scope nor free in its node.  A subterm in which nothing is
    renamed is returned as it is, and t itself, without a rebuild, when no
    binder shadows (`_shadows`)."""
    def rename(x, kind, node, chosen, bound):
        if x not in avoid and x not in bound:
            return x
        return fresh_name(x, bound.union(avoid, *free_names(node)))

    if not _shadows(t, avoid):
        return t
    return _rebuild(t, {}, {}, frozenset(), rename, True)


def _shadows(t: Term, avoid) -> bool:
    """Whether a binder of t is in `avoid` or bound around it, in
    `_rebuild`'s scopes: a delayed substitution's entries, a lambda's
    annotation and a composition's base lie outside the binder, and a
    delayed substitution binds in sequence.  It builds no term."""
    stack = [(t, frozenset())]
    while stack:
        t, bound = stack.pop()
        scopes = {None: bound}
        for name, kind, under, _ in _SCHEME[type(t)]:
            value = getattr(t, name)
            if kind is TERM and value is not None:
                stack.append((value, scopes[under]))
            elif kind is SYSTEM or kind is DS:
                stack.extend((u, bound) for _, u in value)
            if kind is BINDER or kind is IBINDER or kind is DS:
                inner = bound
                for x in [x for x, _ in value] if kind is DS else [value]:
                    if x in avoid or x in inner:
                        return True
                    inner = inner | {x}
                scopes[name] = inner
    return False


def _binders(t: Term) -> set:
    """The names the binder fields of t bind, in either name space."""
    names = set()
    for name, kind, _, _ in _SCHEME[type(t)]:
        if kind is BINDER or kind is IBINDER or kind is DS:
            for bound in _bound(getattr(t, name), kind):
                names |= bound
    return names


def _rebuild(t: Term, terms: dict, intervals: dict, bound, rename,
             keep_spans: bool) -> Term:
    """t with `terms` and `intervals` substituted for its free names and
    each binder x renamed to `rename(x, kind, node, names already chosen
    for the node's binders, names bound around it)`; `bound`, the names
    bound around t, is None for a policy that does not ask for them.
    Keeping the spans, a node whose parts come back unchanged is returned
    as it is, and a substitution skips a subterm in which no substituted
    name is free; alpha-canonical renaming drops the spans."""
    cls = type(t)
    if cls is Var:
        u = terms.get(t.name)
        if u is not None:
            return u
        return t if keep_spans else Var(None, t.name)
    if keep_spans and bound is None:
        fvs, fis = free_names(t)
        if fvs.isdisjoint(terms) and fis.isdisjoint(intervals):
            return t
    out, scopes, chosen = {}, {}, set()

    def bind(x, kind, scope):
        ts, js, bs = scope
        x2 = rename(x, kind, t, chosen, bs)
        chosen.add(x2)
        sub = dict(ts if kind is BINDER else js)
        if x2 == x:
            sub.pop(x, None)
        else:
            sub[x] = Var(None, x2) if kind is BINDER else IVar(x2)
        bs = None if bs is None else bs | {x2}
        return x2, ((sub, js, bs) if kind is BINDER else (ts, sub, bs))

    outer = (terms, intervals, bound)
    for name, kind, under, under_kind in _SCHEME[cls]:
        value = getattr(t, name)
        if kind is TERM:
            if under is not None and under not in scopes:
                out[under], scopes[under] = bind(getattr(t, under),
                                                 under_kind, outer)
            ts, js, bs = scopes.get(under, outer)
            out[name] = value if value is None else _rebuild(
                value, ts, js, bs, rename, keep_spans)
        elif kind is IEXPR:
            out[name] = dm_subst_all(value, intervals)
        elif kind is FACE:
            out[name] = face_subst_all(value, intervals)
        elif kind is SYSTEM:
            out[name] = tuple([(face_subst_all(phi, intervals),
                                _rebuild(u, terms, intervals, bound, rename,
                                         keep_spans))
                               for phi, u in value])
        elif kind is DS:
            entries, scope = [], outer
            for x, u in value:
                u2 = _rebuild(u, terms, intervals, bound, rename, keep_spans)
                x2, scope = bind(x, BINDER, scope)
                entries.append((x2, u2))
            out[name], scopes[name] = tuple(entries), scope
    if keep_spans and all(_same(kind, out[name], getattr(t, name))
                          for name, kind, _, _ in _SCHEME[cls]):
        return t
    return cls(t.span if keep_spans else None, **out)


def _same(kind, new, old) -> bool:
    """Is the rebuilt part `new` of this kind the part `old`?  An unchanged
    subterm comes back as the same object, so a subterm is compared by
    identity, which stops where a structural `==` would walk down to the
    change; a system or delayed substitution is compared entry by entry,
    and a name, face or interval expression by `==`."""
    if kind is TERM:
        return new is old
    if kind is SYSTEM or kind is DS:
        return all(a == b and u is v for (a, u), (b, v) in zip(new, old))
    return new == old


# ---------------------------------------------------------------------------
# Concrete syntax of the formers written as a keyword (or `|>`) followed by
# their fields in order: each field an atom, except a delayed substitution,
# written `[x <- t, ...]` and left out when it is empty.  The parser reads
# them from this table (`Parser.keyword_atom`) and `term_str` prints them
# from it.

KEYWORD_FORMERS = {"U": Univ, "N": Nat, "Path": PathT, "suc": Suc,
                   "natrec": NatRec, "unglue": Unglue, "next": Next,
                   "|>": LaterT}
_KEYWORD_OF = {cls: kw for kw, cls in KEYWORD_FORMERS.items()}


# ---------------------------------------------------------------------------
# Pretty printer.  Precedence levels, loosest to tightest:
#   0 lambdas / arrows / sigma / dfix / fix
#   1 pairs never bare (always parenthesized), path application @
#   2 application and the keyword formers with fields
#   3 atoms and projections

ARROW = 0
PATHAPP = 1
APPLY = 2
ATOM = 3


def _wrap(s: str, have: int, want: int) -> str:
    return f"({s})" if have < want else s


def _numeral(t: Term):
    n = 0
    while isinstance(t, Suc):
        t = t.pred
        n += 1
    return n if isinstance(t, Zero) else None


def term_str(t: Term, prec: int = ARROW) -> str:
    match t:
        case Var(name=x):
            return x
        case Lam(binder=x, annotation=ann, body=b):
            head = f"\\({x} : {term_str(ann, ARROW)})" if ann is not None else f"\\{x}"
            return _wrap(f"{head} -> {term_str(b, ARROW)}", ARROW, prec)
        case App(fn=f, arg=a):
            s = f"{term_str(f, APPLY)} {term_str(a, ATOM)}"
            return _wrap(s, APPLY, prec)
        case Pi(binder=x, domain=d, codomain=c) | Sigma(
                binder=x, first=d, second=c):
            if x in free_names(c)[0]:
                dom = f"({x} : {term_str(d, ARROW)})"
            else:
                dom = term_str(d, PATHAPP)
            op, rhs = ("->", ARROW) if isinstance(t, Pi) else ("*", PATHAPP)
            return _wrap(f"{dom} {op} {term_str(c, rhs)}", ARROW, prec)
        case Pair(fst=a, snd=b):
            return f"({term_str(a, ARROW)}, {term_str(b, ARROW)})"
        case Fst(pair=p):
            return f"{term_str(p, ATOM)}.1"
        case Snd(pair=p):
            return f"{term_str(p, ATOM)}.2"
        case Zero():
            return "0"
        case Suc() if (n := _numeral(t)) is not None:
            return str(n)
        case PLam(binder=x, body=b):
            return _wrap(f"<{x}> {term_str(b, ARROW)}", ARROW, prec)
        case PApp(fn=f, arg=r):
            s = f"{term_str(f, PATHAPP)} @ {iexpr_str(r)}"
            return _wrap(s, PATHAPP, prec)
        case SystemTerm(branches=bs):
            body = ", ".join(f"{face_str(phi)} -> {term_str(u, ARROW)}"
                             for phi, u in bs)
            return f"[ {body} ]" if bs else "[]"
        case Comp(binder=x, line=a, tube=u, base=b):
            s = (f"comp {x} {term_str(a, ATOM)} {term_str(u, ATOM)}"
                 f" {term_str(b, ATOM)}")
            return _wrap(s, APPLY, prec)
        case GlueT(face=phi, partial=p, base=b) | GlueIntro(
                face=phi, partial=p, base=b):
            kw, head = ("Glue" if isinstance(t, GlueT) else "glue"), "[]"
            if p is not None:
                e = f", {term_str(t.equiv, ARROW)}" if kw == "Glue" else ""
                head = f"[ {face_str(phi)} -> {term_str(p, ARROW)}{e} ]"
            return _wrap(f"{kw} {head} {term_str(b, ATOM)}", APPLY, prec)
        case DFix(clock=r, binder=x, body=b) | Fix(clock=r, binder=x, body=b):
            kw = "dfix" if isinstance(t, DFix) else "fix"
            s = f"{kw} {iexpr_str(r, 2)} {x}. {term_str(b, ARROW)}"
            return _wrap(s, ARROW, prec)
        case _ if type(t) in _KEYWORD_OF:
            words = [_KEYWORD_OF[type(t)]]
            for name, kind, _, _ in _SCHEME[type(t)]:
                value = getattr(t, name)
                if kind is not DS:
                    words.append(term_str(value, ATOM))
                elif value:
                    entries = (f"{x} <- {term_str(u, ARROW)}" for x, u in value)
                    words.append(f"[{', '.join(entries)}]")
            s = " ".join(words)
            return _wrap(s, APPLY, prec) if len(words) > 1 else s
        case _:
            raise TypeError(f"not a term: {t!r}")


def module_str(m: ModuleFile) -> str:
    lines = [f"module {m.name} where", ""]
    for imp in m.imports:
        lines.append(f"import {imp}")
    if m.imports:
        lines.append("")
    for d in m.declarations:
        lines.append(f"{d.name} : {term_str(d.type)} = {term_str(d.body)}")
        lines.append("")
    return "\n".join(lines)
