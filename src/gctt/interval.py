r"""Interval algebra and face lattice.

The interval is the free De Morgan algebra over a countable set of names;
the face lattice is the free distributive lattice on the atoms (i=0), (i=1)
quotiented by (i=0) /\ (i=1) = bot.  Both are decided through canonical
disjunctive normal forms: a clause is a set of literals, a normal form is an
antichain of clauses under inclusion.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

Name = str

# ---------------------------------------------------------------------------
# Interval expressions


class IExpr:
    """Element of the interval algebra; endpoints, names, -, /\\, \\/."""

    __slots__ = ()


@dataclass(frozen=True)
class I0(IExpr):
    __slots__ = ()


@dataclass(frozen=True)
class I1(IExpr):
    __slots__ = ()


@dataclass(frozen=True)
class IVar(IExpr):
    __slots__ = ("name",)
    name: Name


@dataclass(frozen=True)
class INeg(IExpr):
    __slots__ = ("arg",)
    arg: IExpr


@dataclass(frozen=True)
class IMeet(IExpr):
    __slots__ = ("lhs", "rhs")
    lhs: IExpr
    rhs: IExpr


@dataclass(frozen=True)
class IJoin(IExpr):
    __slots__ = ("lhs", "rhs")
    lhs: IExpr
    rhs: IExpr


ZERO = I0()
ONE = I1()

# A literal is (name, polarity): polarity 1 stands for i, 0 for -i, as in
# the face (i=1) or (i=0); a clause is a frozenset of literals, a normal
# form a frozenset of clauses.  Bottom is the empty set of clauses, top the
# singleton of the empty clause.
Literal = tuple[Name, int]
Dnf = frozenset


def inames(r: IExpr) -> frozenset[Name]:
    match r:
        case I0() | I1():
            return frozenset()
        case IVar(name):
            return frozenset((name,))
        case INeg(arg):
            return inames(arg)
        case IMeet(lhs, rhs) | IJoin(lhs, rhs):
            return inames(lhs) | inames(rhs)
    raise TypeError(f"not an interval expression: {r!r}")


def dm_subst_all(r: IExpr, sub: dict[Name, IExpr]) -> IExpr:
    """Substitute sub[i] for each name i in sub, simultaneously and
    structurally."""
    if not sub:
        return r
    match r:
        case I0() | I1():
            return r
        case IVar(name):
            return sub.get(name, r)
        case INeg(arg):
            return INeg(dm_subst_all(arg, sub))
        case IMeet(lhs, rhs):
            return IMeet(dm_subst_all(lhs, sub), dm_subst_all(rhs, sub))
        case IJoin(lhs, rhs):
            return IJoin(dm_subst_all(lhs, sub), dm_subst_all(rhs, sub))
    raise TypeError(f"not an interval expression: {r!r}")


DNF_BOT: Dnf = frozenset()
DNF_TOP: Dnf = frozenset((frozenset(),))


def _antichain(clauses) -> Dnf:
    """Drop every clause that contains another clause."""
    cs = sorted(set(clauses), key=len)
    kept: list[frozenset] = []
    for c in cs:
        if not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def _dnf_meet(a: Dnf, b: Dnf) -> Dnf:
    return _antichain(ca | cb for ca in a for cb in b)


def _dnf_join(a: Dnf, b: Dnf) -> Dnf:
    return _antichain(a | b)


def dm_dnf(r: IExpr, polarity: int = 1) -> Dnf:
    """Canonical DNF of r (of -r at polarity 0) over the literals {i, -i}.

    Negation is pushed to the leaves (`polarity` tracks parity), so the
    result is a normal form in the free distributive lattice on twice the
    names.  No relation between i and -i is assumed.
    """
    match r:
        case I0():
            return DNF_TOP if polarity == 0 else DNF_BOT
        case I1():
            return DNF_TOP if polarity == 1 else DNF_BOT
        case IVar(name):
            return frozenset((frozenset(((name, polarity),)),))
        case INeg(arg):
            return dm_dnf(arg, 1 - polarity)
        case IMeet(lhs, rhs):
            op = _dnf_meet if polarity == 1 else _dnf_join
            return op(dm_dnf(lhs, polarity), dm_dnf(rhs, polarity))
        case IJoin(lhs, rhs):
            op = _dnf_join if polarity == 1 else _dnf_meet
            return op(dm_dnf(lhs, polarity), dm_dnf(rhs, polarity))
    raise TypeError(f"not an interval expression: {r!r}")


def _clause_key(clause) -> list[Literal]:
    return sorted(clause)


def _expr_of_dnf(dnf: Dnf) -> IExpr:
    if dnf == DNF_BOT:
        return ZERO
    if dnf == DNF_TOP:
        return ONE
    clauses = sorted(dnf, key=_clause_key)
    meets = []
    for clause in clauses:
        lits = [IVar(n) if pos else INeg(IVar(n)) for n, pos in sorted(clause)]
        meets.append(reduce(IMeet, lits))
    return reduce(IJoin, meets)


def dm_canonical(r: IExpr) -> IExpr:
    """Canonical representative; syntactic equality on results decides dm_equal."""
    return _expr_of_dnf(dm_dnf(r))


def dm_equal(r: IExpr, s: IExpr) -> bool:
    return dm_dnf(r) == dm_dnf(s)


def dm_is_zero(r: IExpr) -> bool:
    return dm_dnf(r) == DNF_BOT


def dm_is_one(r: IExpr) -> bool:
    return dm_dnf(r) == DNF_TOP


# ---------------------------------------------------------------------------
# Faces


@dataclass(frozen=True)
class Face:
    """Canonical DNF in the face lattice.

    Clauses are frozensets of (name, polarity) with polarity 0 or 1; a clause
    containing both polarities of a name is inconsistent and never stored, and
    the clause set is an antichain.
    """

    __slots__ = ("clauses",)
    clauses: frozenset


def _mk_face(clauses) -> Face:
    consistent = [
        c for c in clauses
        if not any((n, 1 - p) in c for n, p in c)
    ]
    return Face(_antichain(consistent))


FACE_BOT = Face(frozenset())
FACE_TOP = Face(frozenset((frozenset(),)))


def face_lit(i: Name, polarity: int) -> Face:
    """The face (i=0) or (i=1)."""
    return Face(frozenset((frozenset(((i, polarity),)),)))


def face_is_true(phi: Face) -> bool:
    return phi == FACE_TOP


def face_is_false(phi: Face) -> bool:
    return phi == FACE_BOT


def face_meet(phi: Face, psi: Face) -> Face:
    return _mk_face(ca | cb for ca in phi.clauses for cb in psi.clauses)


def face_join(phi: Face, psi: Face) -> Face:
    return _mk_face(phi.clauses | psi.clauses)


def face_equal(phi: Face, psi: Face) -> bool:
    return phi.clauses == psi.clauses


def face_of_eq(r: IExpr, polarity: int) -> Face:
    """The face (r = polarity): the normal form of r (of -r at polarity 0)
    read as a face, literal (i, p) as the atom (i=p), with the clauses that
    hold both (i=0) and (i=1) dropped."""
    return _mk_face(dm_dnf(r, polarity))


def face_subst_all(phi: Face, sub: dict[Name, IExpr]) -> Face:
    """Replace every literal (i=b) with i in sub by the face (sub[i]=b)."""
    if not sub:
        return phi
    result = FACE_BOT
    for clause in phi.clauses:
        acc = FACE_TOP
        for n, p in sorted(clause):
            lit = face_of_eq(sub[n], p) if n in sub else face_lit(n, p)
            acc = face_meet(acc, lit)
        result = face_join(result, acc)
    return result


def face_forall(i: Name, phi: Face) -> Face:
    """Largest face not mentioning i below phi: delete the clauses using i."""
    return Face(frozenset(
        c for c in phi.clauses if not any(n == i for n, _ in c)
    ))


def face_names(phi: Face) -> frozenset[Name]:
    return frozenset(n for c in phi.clauses for n, _ in c)


def face_clauses(phi: Face) -> list[frozenset]:
    """Clauses in a deterministic order."""
    return sorted(phi.clauses, key=_clause_key)


def clause_assignment(clause) -> dict[Name, IExpr]:
    """The interval substitution a consistent clause stands for."""
    return {n: (ONE if p == 1 else ZERO) for n, p in clause}


def clause_face(clause) -> Face:
    return Face(frozenset((clause,)))


# ---------------------------------------------------------------------------
# Printing (surface grammar: 0 1 i -i /\ \/ and (i=0)-style atoms)


def iexpr_str(r: IExpr, prec: int = 0) -> str:
    """Render with precedence - > /\\ > \\/; prec 0 join, 1 meet, 2 atom."""
    match r:
        case I0():
            return "0"
        case I1():
            return "1"
        case IVar(name):
            return name
        case INeg(arg):
            s = iexpr_str(arg, 2)
            # `--` would begin a comment
            return f"-({s})" if isinstance(arg, INeg) else "-" + s
        case IMeet(lhs, rhs):
            s = f"{iexpr_str(lhs, 1)} /\\ {iexpr_str(rhs, 1)}"
            return f"({s})" if prec > 1 else s
        case IJoin(lhs, rhs):
            s = f"{iexpr_str(lhs, 0)} \\/ {iexpr_str(rhs, 0)}"
            return f"({s})" if prec > 0 else s
    raise TypeError(f"not an interval expression: {r!r}")


def face_str(phi: Face) -> str:
    if face_is_false(phi):
        return "(0=1)"
    if face_is_true(phi):
        return "(1=1)"
    parts = []
    for clause in face_clauses(phi):
        atoms = [f"({n}={p})" for n, p in sorted(clause)]
        parts.append(" /\\ ".join(atoms))
    if len(parts) == 1:
        return parts[0]
    return " \\/ ".join(f"({p})" if " /\\ " in p else p for p in parts)
