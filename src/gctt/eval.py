"""Normalization by evaluation.

Terms evaluate into a semantic domain of weak-head values; composition is
implemented per type former; `readback` turns values into canonical terms.
Closures capture their environment, and every value supports the action of
interval substitutions, which can unstick neutrals (a delayed fixed point
whose clock reaches 1, a path application reaching an endpoint, a stuck
composition whose face becomes total).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

from . import syntax as S
from .interval import (
    FACE_BOT,
    FACE_TOP,
    Face,
    IExpr,
    IMeet,
    INeg,
    IVar,
    ONE,
    ZERO,
    clause_assignment,
    clause_face,
    dm_canonical,
    dm_is_one,
    dm_is_zero,
    dm_subst_all,
    face_clauses,
    face_forall,
    face_is_false,
    face_is_true,
    face_join,
    face_of_eq,
    face_subst_all,
)
from .syntax import Term, fresh_name

_internal_names = itertools.count()


def fresh_iname() -> str:
    return f"?i{next(_internal_names)}"


# ---------------------------------------------------------------------------
# Closures


class Closure:
    """Semantic function from values (or an interval element) to a value."""

    def apply(self, *vals):
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class TermClosure(Closure):
    env: dict
    names: tuple
    body: Term

    def apply(self, *vals):
        env = dict(self.env)
        env.update(zip(self.names, vals))
        return eval_term(env, self.body)


def capture(env: dict, names: tuple, body: Term) -> TermClosure:
    """A term closure over just the free names of the body."""
    fvs, fis = S.free_names(body)
    need = (fvs | fis).difference(names)
    return TermClosure({k: env[k] for k in need if k in env}, names, body)


@dataclass(frozen=True, eq=False)
class FnClosure(Closure):
    """Host-level function; `captured` is acted on by interval substitution,
    `const` (internal binder names) is not."""

    fn: Callable
    captured: tuple = ()
    const: tuple = ()

    def apply(self, *vals):
        return self.fn(*self.const, *self.captured, *vals)


@dataclass(frozen=True, eq=False)
class ValueClosure(Closure):
    value: "Value"

    def apply(self, *vals):
        return self.value


@dataclass(frozen=True, eq=False)
class InlinedDsClosure(Closure):
    """A delayed-substitution body closure with some bindings inlined:
    `kept` lists the surviving original positions, `recipe` rebuilds the
    inlined ones (ascending original position) from earlier values."""

    base: Closure
    kept: tuple
    recipe: tuple  # of (position, closure, argument positions)

    def apply(self, *vals):
        full = dict(zip(self.kept, vals))
        for pos, clo, arg_pos in self.recipe:
            full[pos] = clo.apply(*[full[p] for p in arg_pos])
        return self.base.apply(*[full[i] for i in range(len(full))])


# ---------------------------------------------------------------------------
# Values


class Value:
    pass


@dataclass(frozen=True, eq=False)
class VPi(Value):
    domain: Value
    codomain: Closure


@dataclass(frozen=True, eq=False)
class VSigma(Value):
    first: Value
    second: Closure


@dataclass(frozen=True, eq=False)
class VPathT(Value):
    space: Value
    lhs: Value
    rhs: Value


@dataclass(frozen=True, eq=False)
class VNat(Value):
    pass


@dataclass(frozen=True, eq=False)
class VUniv(Value):
    pass


@dataclass(frozen=True, eq=False)
class VLaterT(Value):
    entries: tuple  # of (name, Value)
    body: Closure  # expects one value per entry


@dataclass(frozen=True, eq=False)
class VGlueT(Value):
    face: Face
    partial: Optional[Value]  # type on the face; None iff face is bottom
    equiv: Optional[Value]
    base: Value


@dataclass(frozen=True, eq=False)
class VLam(Value):
    closure: Closure


@dataclass(frozen=True, eq=False)
class VPLam(Value):
    closure: Closure


@dataclass(frozen=True, eq=False)
class VPair(Value):
    fst: Value
    snd: Value


@dataclass(frozen=True, eq=False)
class VZero(Value):
    pass


@dataclass(frozen=True, eq=False)
class VSuc(Value):
    pred: Value


@dataclass(frozen=True, eq=False)
class VNext(Value):
    entries: tuple
    body: Closure


@dataclass(frozen=True, eq=False)
class VGlueIntro(Value):
    face: Face
    partial: Optional[Value]
    base: Value


@dataclass(frozen=True, eq=False)
class VSystem(Value):
    branches: tuple  # of (clause frozenset, Value valid under the clause)


class Neutral:
    pass


@dataclass(frozen=True, eq=False)
class NVar(Neutral):
    name: str


@dataclass(frozen=True, eq=False)
class NApp(Neutral):
    fn: "VNeutral"
    arg: Value


@dataclass(frozen=True, eq=False)
class NPApp(Neutral):
    fn: "VNeutral"
    arg: IExpr


@dataclass(frozen=True, eq=False)
class NFst(Neutral):
    pair: "VNeutral"


@dataclass(frozen=True, eq=False)
class NSnd(Neutral):
    pair: "VNeutral"


@dataclass(frozen=True, eq=False)
class NNatRec(Neutral):
    motive: Value
    base: Value
    step: Value
    scrutinee: "VNeutral"


@dataclass(frozen=True, eq=False)
class NUnglue(Neutral):
    arg: "VNeutral"


@dataclass(frozen=True, eq=False)
class NComp(Neutral):
    binder: str  # internal fresh interval name bound in line and tube
    line: Value
    face: Face
    tube: Value
    base: Value


@dataclass(frozen=True, eq=False)
class NDFix(Neutral):
    clock: IExpr  # canonical, not 1
    closure: Closure


@dataclass(frozen=True, eq=False)
class VNeutral(Value):
    neutral: Neutral
    type: Optional[Value] = None


def neutral_var(name: str, ty: Optional[Value] = None) -> VNeutral:
    return VNeutral(NVar(name), ty)


_probe_counter = itertools.count()


def probe_var(ty: Optional[Value] = None) -> VNeutral:
    """A fresh variable for conversion probes; the name space is disjoint
    from anything the parser can produce."""
    return VNeutral(NVar(f"?v{next(_probe_counter)}"), ty)


# ---------------------------------------------------------------------------
# Environments map names to Values (term variables) or IExprs (intervals)


def env_iexpr(env: dict, r: IExpr) -> IExpr:
    from .interval import inames

    sub = {n: env[n] for n in inames(r) if n in env and isinstance(env[n], IExpr)}
    return dm_subst_all(r, sub)


def env_face(env: dict, phi: Face) -> Face:
    from .interval import face_names

    sub = {n: env[n] for n in face_names(phi) if n in env and isinstance(env[n], IExpr)}
    return face_subst_all(phi, sub)


# ---------------------------------------------------------------------------
# Interval action on values

_support_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def support(x) -> frozenset:
    """Interval names occurring anywhere in a value or closure."""
    if isinstance(x, IExpr):
        from .interval import inames

        return inames(x)
    if isinstance(x, Face):
        from .interval import face_names

        return face_names(x)
    try:
        return _support_cache[x]
    except KeyError:
        pass
    s = _support_of(x)
    _support_cache[x] = s
    return s


def _support_of(x) -> frozenset:
    parts: list = []
    match x:
        case VPi(domain=d, codomain=c) | VSigma(first=d, second=c):
            parts = [d, c]
        case VPathT(space=a, lhs=l, rhs=r):
            parts = [a, l, r]
        case VNat() | VUniv() | VZero():
            return frozenset()
        case VSuc(pred=p):
            parts = [p]
        case VLam(closure=c) | VPLam(closure=c):
            parts = [c]
        case VPair(fst=a, snd=b):
            parts = [a, b]
        case VLaterT(entries=es, body=c) | VNext(entries=es, body=c):
            parts = [u for _, u in es] + [c]
        case VGlueT(face=phi, partial=p, equiv=e, base=b):
            parts = [phi, b] + [z for z in (p, e) if z is not None]
        case VGlueIntro(face=phi, partial=p, base=b):
            parts = [phi, b] + ([p] if p is not None else [])
        case VSystem(branches=bs):
            out = set()
            for cl, val in bs:
                out.update(n for n, _ in cl)
                out.update(support(val))
            return frozenset(out)
        case VNeutral(neutral=ne, type=ty):
            parts = [ne] + ([ty] if ty is not None else [])
        case NVar():
            return frozenset()
        case NApp(fn=f, arg=a):
            parts = [f, a]
        case NPApp(fn=f, arg=r):
            parts = [f, r]
        case NFst(pair=p) | NSnd(pair=p):
            parts = [p]
        case NNatRec(motive=m, base=z, step=s, scrutinee=n):
            parts = [m, z, s, n]
        case NUnglue(arg=a):
            parts = [a]
        case NComp(binder=k, line=line, face=phi, tube=tube, base=b):
            return frozenset(
                support(line) | support(phi) | support(tube) | support(b)
            )
        case NDFix(clock=r, closure=c):
            parts = [r, c]
        case TermClosure(env=env):
            out = set()
            for v in env.values():
                out.update(support(v))
            return frozenset(out)
        case FnClosure(captured=cap):
            out = set()
            for v in cap:
                out.update(support(v))
            return frozenset(out)
        case ValueClosure(value=v):
            parts = [v]
        case InlinedDsClosure(base=base, recipe=recipe):
            parts = [base] + [clo for _, clo, _ in recipe]
        case _:
            raise TypeError(f"no support for {x!r}")
    out = set()
    for p in parts:
        out.update(support(p))
    return frozenset(out)


def act(v: Value, sub: dict) -> Value:
    if not sub:
        return v
    if support(v).isdisjoint(sub):
        return v
    match v:
        case VPi(domain=d, codomain=c):
            return VPi(act(d, sub), act_closure(c, sub))
        case VSigma(first=d, second=c):
            return VSigma(act(d, sub), act_closure(c, sub))
        case VPathT(space=a, lhs=l, rhs=r):
            return VPathT(act(a, sub), act(l, sub), act(r, sub))
        case VNat() | VUniv() | VZero():
            return v
        case VSuc(pred=p):
            return VSuc(act(p, sub))
        case VLam(closure=c):
            return VLam(act_closure(c, sub))
        case VPLam(closure=c):
            return VPLam(act_closure(c, sub))
        case VPair(fst=a, snd=b):
            return VPair(act(a, sub), act(b, sub))
        case VLaterT(entries=es, body=c):
            return VLaterT(tuple((x, act(u, sub)) for x, u in es),
                           act_closure(c, sub))
        case VNext(entries=es, body=c):
            return VNext(tuple((x, act(u, sub)) for x, u in es),
                         act_closure(c, sub))
        case VGlueT(face=phi, partial=p, equiv=e, base=b):
            return make_glue_type(
                face_subst_all(phi, sub),
                act(p, sub) if p is not None else None,
                act(e, sub) if e is not None else None,
                act(b, sub),
            )
        case VGlueIntro(face=phi, partial=p, base=b):
            return make_glue_intro(
                face_subst_all(phi, sub),
                act(p, sub) if p is not None else None,
                act(b, sub),
            )
        case VSystem(branches=bs):
            pieces = []
            for clause, val in bs:
                phi = face_subst_all(clause_face(clause), sub)
                if face_is_true(phi):
                    return act(val, sub)
                if face_is_false(phi):
                    continue
                pieces.append((phi, act(val, sub)))
            return VSystem(_clause_branches(pieces))
        case VNeutral(neutral=ne, type=ty):
            return act_neutral(ne, sub, ty)
    raise TypeError(f"not a value: {v!r}")


def act_closure(c: Closure, sub: dict) -> Closure:
    if not sub or support(c).isdisjoint(sub):
        return c
    match c:
        case TermClosure(env=env, names=names, body=body):
            return TermClosure(act_env(env, sub), names, body)
        case FnClosure(fn=fn, captured=cap, const=const):
            return FnClosure(fn, tuple(act_any(x, sub) for x in cap), const)
        case ValueClosure(value=val):
            return ValueClosure(act(val, sub))
        case InlinedDsClosure(base=base, kept=kept, recipe=recipe):
            return InlinedDsClosure(
                act_closure(base, sub), kept,
                tuple((p, act_closure(clo, sub), ap) for p, clo, ap in recipe),
            )
    raise TypeError(f"not a closure: {c!r}")


def act_any(x, sub: dict):
    if isinstance(x, Value):
        return act(x, sub)
    if isinstance(x, IExpr):
        return dm_subst_all(x, sub)
    if isinstance(x, Face):
        return face_subst_all(x, sub)
    if isinstance(x, Closure):
        return act_closure(x, sub)
    raise TypeError(f"cannot act on captured {x!r}")


def act_env(env: dict, sub: dict) -> dict:
    return {
        k: dm_subst_all(v, sub) if isinstance(v, IExpr) else act(v, sub)
        for k, v in env.items()
    }


def act_neutral(ne: Neutral, sub: dict, ty: Optional[Value]) -> Value:
    match ne:
        case NVar():
            return VNeutral(ne, act(ty, sub) if ty is not None else None)
        case NApp(fn=f, arg=a):
            return apply_v(act(f, sub), act(a, sub))
        case NPApp(fn=f, arg=r):
            return papp_v(act(f, sub), dm_subst_all(r, sub))
        case NFst(pair=p):
            return fst_v(act(p, sub))
        case NSnd(pair=p):
            return snd_v(act(p, sub))
        case NNatRec(motive=m, base=z, step=s, scrutinee=n):
            return natrec_v(act(m, sub), act(z, sub), act(s, sub), act(n, sub))
        case NUnglue(arg=a):
            return unglue_v(act(a, sub))
        case NComp(binder=k, line=line, face=phi, tube=tube, base=b):
            return comp_v(k, act(line, sub), face_subst_all(phi, sub),
                          act(tube, sub), act(b, sub))
        case NDFix(clock=r, closure=c):
            return dfix_v(dm_subst_all(r, sub), act_closure(c, sub),
                          act(ty, sub) if ty is not None else None)
    raise TypeError(f"not a neutral: {ne!r}")


# ---------------------------------------------------------------------------
# Eliminators and smart constructors


def apply_v(f: Value, a: Value) -> Value:
    match f:
        case VLam(closure=c):
            return c.apply(a)
        case VSystem(branches=bs):
            return VSystem(tuple(
                (cl, apply_v(val, act(a, clause_assignment(cl))))
                for cl, val in bs
            ))
        case VNeutral(neutral=_, type=ty):
            res_ty = ty.codomain.apply(a) if isinstance(ty, VPi) else None
            return VNeutral(NApp(f, a), res_ty)
    raise TypeError(f"cannot apply {f!r}")


def papp_v(p: Value, r: IExpr) -> Value:
    r = dm_canonical(r)
    match p:
        case VPLam(closure=c):
            return c.apply(r)
        case VSystem(branches=bs):
            return VSystem(tuple(
                (cl, papp_v(val, dm_subst_all(r, clause_assignment(cl))))
                for cl, val in bs
            ))
        case VNeutral(neutral=_, type=ty):
            if isinstance(ty, VPathT):
                if r == ZERO:
                    return ty.lhs
                if r == ONE:
                    return ty.rhs
                return VNeutral(NPApp(p, r), ty.space)
            return VNeutral(NPApp(p, r), None)
    raise TypeError(f"cannot path-apply {p!r}")


def fst_v(p: Value) -> Value:
    match p:
        case VPair(fst=a):
            return a
        case VSystem(branches=bs):
            return VSystem(tuple((cl, fst_v(val)) for cl, val in bs))
        case VNeutral(neutral=_, type=ty):
            res_ty = ty.first if isinstance(ty, VSigma) else None
            return VNeutral(NFst(p), res_ty)
    raise TypeError(f"cannot project {p!r}")


def snd_v(p: Value) -> Value:
    match p:
        case VPair(snd=b):
            return b
        case VSystem(branches=bs):
            return VSystem(tuple((cl, snd_v(val)) for cl, val in bs))
        case VNeutral(neutral=_, type=ty):
            res_ty = ty.second.apply(fst_v(p)) if isinstance(ty, VSigma) else None
            return VNeutral(NSnd(p), res_ty)
    raise TypeError(f"cannot project {p!r}")


def natrec_v(motive: Value, base: Value, step: Value, n: Value) -> Value:
    match n:
        case VZero():
            return base
        case VSuc(pred=p):
            return apply_v(apply_v(step, p), natrec_v(motive, base, step, p))
        case VSystem(branches=bs):
            return VSystem(tuple(
                (cl, natrec_v(
                    act(motive, clause_assignment(cl)),
                    act(base, clause_assignment(cl)),
                    act(step, clause_assignment(cl)),
                    val,
                ))
                for cl, val in bs
            ))
        case VNeutral():
            return VNeutral(NNatRec(motive, base, step, n), apply_v(motive, n))
    raise TypeError(f"natrec on {n!r}")


def unglue_v(b: Value) -> Value:
    match b:
        case VGlueIntro(base=a):
            return a
        case VSystem(branches=bs):
            return VSystem(tuple((cl, unglue_v(val)) for cl, val in bs))
        case VNeutral(neutral=_, type=ty):
            if isinstance(ty, VGlueT):
                if face_is_true(ty.face):
                    return apply_v(fst_v(ty.equiv), b)
                return VNeutral(NUnglue(b), ty.base)
            return VNeutral(NUnglue(b), None)
    raise TypeError(f"cannot unglue {b!r}")


def _clause_branches(pieces) -> tuple:
    branches = []
    seen = set()
    for phi, val in pieces:
        for clause in face_clauses(phi):
            if clause not in seen:
                seen.add(clause)
                branches.append((clause, act(val, clause_assignment(clause))))
    branches.sort(key=lambda b: sorted(b[0]))
    return tuple(branches)


def make_system(pieces) -> Value:
    """Assemble a partial value from (face, ambient value) pieces; collapses
    when some face is total."""
    for phi, val in pieces:
        if face_is_true(phi):
            return val
    return VSystem(_clause_branches(
        (phi, val) for phi, val in pieces if not face_is_false(phi)
    ))


def make_glue_type(phi: Face, partial, equiv, base) -> Value:
    if face_is_true(phi):
        return partial
    if face_is_false(phi):
        return VGlueT(FACE_BOT, None, None, base)
    return VGlueT(phi, partial, equiv, base)


def make_glue_intro(phi: Face, partial, base) -> Value:
    if face_is_true(phi):
        return partial
    if face_is_false(phi):
        return VGlueIntro(FACE_BOT, None, base)
    return VGlueIntro(phi, partial, base)


def _prune_ds(entries: tuple, body: Closure):
    """Drop trailing bindings unused by the body (always sound; an inner
    binding may be needed by a later binding's type), narrowing the closure
    to match."""
    if not isinstance(body, TermClosure):
        return entries, body
    used = S.free_names(body.body)[0]
    kept = list(entries)
    while kept and kept[-1][0] not in used:
        kept.pop()
    kept = tuple(kept)
    if len(kept) != len(entries):
        body = TermClosure(body.env, tuple(x for x, _ in kept), body.body)
    return kept, body


def make_next(entries, body: Closure) -> Value:
    """Next with trailing weakening and eta applied when inspectable."""
    entries, body = _prune_ds(tuple(entries), body)
    if isinstance(body, TermClosure) and entries \
            and body.body == S.Var(name=entries[-1][0]):
        return entries[-1][1]
    return VNext(entries, body)


def make_later(entries, body: Closure) -> Value:
    entries, body = _prune_ds(tuple(entries), body)
    return VLaterT(entries, body)


# Types established by the checker for delayed fixed points, keyed by the
# identity of the (shared, immutable) term node; the term is kept alive so
# ids stay stable.
DFIX_TYPES: dict = {}


def register_dfix_type(node, type_term: Term):
    DFIX_TYPES[id(node)] = (node, type_term)


def registered_dfix_type(env: dict, node) -> Optional[Value]:
    """The later type registered for this fixed-point node, evaluated in
    `env`, when its free names are all in scope there."""
    hit = DFIX_TYPES.get(id(node))
    if hit is None:
        return None
    fvs, fis = S.free_names(hit[1])
    if not all(n in env for n in fvs | fis):
        return None
    return eval_term(env, hit[1])


def dfix_v(clock: IExpr, closure: Closure, ty: Optional[Value] = None) -> Value:
    clock = dm_canonical(clock)
    if dm_is_one(clock):
        stuck = VNeutral(NDFix(ZERO, closure), ty)
        return VNext((), ValueClosure(closure.apply(stuck)))
    return VNeutral(NDFix(clock, closure), ty)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(env: dict, t: Term) -> Value:
    match t:
        case S.Var(name=x):
            v = env.get(x)
            if not isinstance(v, Value):
                raise RuntimeError(f"ill-scoped variable {x!r} (checker bug)")
            return v
        case S.Lam(binder=x, body=b):
            return VLam(capture(env, (x,), b))
        case S.App(fn=f, arg=a):
            return apply_v(eval_term(env, f), eval_term(env, a))
        case S.Pi(binder=x, domain=d, codomain=c):
            return VPi(eval_term(env, d), capture(env, (x,), c))
        case S.Sigma(binder=x, first=d, second=c):
            return VSigma(eval_term(env, d), capture(env, (x,), c))
        case S.Pair(fst=a, snd=b):
            return VPair(eval_term(env, a), eval_term(env, b))
        case S.Fst(pair=p):
            return fst_v(eval_term(env, p))
        case S.Snd(pair=p):
            return snd_v(eval_term(env, p))
        case S.Zero():
            return VZero()
        case S.Suc(pred=p):
            return VSuc(eval_term(env, p))
        case S.NatRec(motive=m, base=z, step=s, scrutinee=n):
            return natrec_v(eval_term(env, m), eval_term(env, z),
                            eval_term(env, s), eval_term(env, n))
        case S.Nat():
            return VNat()
        case S.Univ():
            return VUniv()
        case S.PLam(binder=x, body=b):
            return VPLam(capture(env, (x,), b))
        case S.PApp(fn=f, arg=r):
            return papp_v(eval_term(env, f), env_iexpr(env, r))
        case S.PathT(space=a, lhs=l, rhs=r):
            return VPathT(eval_term(env, a), eval_term(env, l),
                          eval_term(env, r))
        case S.SystemTerm(branches=bs):
            return make_system(
                [(env_face(env, phi), eval_term(env, u)) for phi, u in bs]
            )
        case S.Comp(binder=x, line=a, face=phi, tube=u, base=b):
            k = fresh_iname()
            env_k = dict(env)
            env_k[x] = IVar(k)
            return comp_v(k, eval_term(env_k, a), env_face(env, phi),
                          eval_term(env_k, u), eval_term(env, b))
        case S.GlueT(face=phi, partial=p, equiv=e, base=b):
            return make_glue_type(
                env_face(env, phi),
                eval_term(env, p) if p is not None else None,
                eval_term(env, e) if e is not None else None,
                eval_term(env, b),
            )
        case S.GlueIntro(face=phi, partial=p, base=b):
            return make_glue_intro(
                env_face(env, phi),
                eval_term(env, p) if p is not None else None,
                eval_term(env, b),
            )
        case S.Unglue(arg=a):
            return unglue_v(eval_term(env, a))
        case S.LaterT(subst=ds, body=b):
            entries = [(x, eval_term(env, u)) for x, u in ds]
            return make_later(entries, capture(env, tuple(x for x, _ in ds), b))
        case S.Next(subst=ds, body=b):
            entries = [(x, eval_term(env, u)) for x, u in ds]
            return make_next(entries, capture(env, tuple(x for x, _ in ds), b))
        case S.DFix(clock=r, binder=x, body=b):
            return dfix_v(env_iexpr(env, r), capture(env, (x,), b),
                          registered_dfix_type(env, t))
    raise TypeError(f"cannot evaluate {t!r}")


# ---------------------------------------------------------------------------
# Composition


def line_at(line: Value, k: str, r: IExpr) -> Value:
    return act(line, {k: r})


def comp_v(k: str, line: Value, phi: Face, tube: Value, base: Value) -> Value:
    """comp^k line [phi -> tube] base; line and tube may mention k."""
    if face_is_true(phi):
        return line_at(tube, k, ONE)
    match line:
        case VPi():
            return comp_pi(k, line, phi, tube, base)
        case VSigma():
            return comp_sigma(k, line, phi, tube, base)
        case VPathT():
            return comp_path(k, line, phi, tube, base)
        case VNat():
            return comp_nat(k, phi, tube, base)
        case VUniv():
            return comp_univ(k, phi, tube, base)
        case VGlueT():
            return comp_glue(k, line, phi, tube, base)
        case VSystem(branches=bs):
            if all(n != k for cl, _ in bs for n, _ in cl):
                return VSystem(tuple(
                    (cl, comp_v(
                        k, val,
                        face_subst_all(phi, clause_assignment(cl)),
                        act(tube, clause_assignment(cl)),
                        act(base, clause_assignment(cl)),
                    ))
                    for cl, val in bs
                ))
            return _stuck_comp(k, line, phi, tube, base)
        case VLaterT() | VNeutral():
            return _stuck_comp(k, line, phi, tube, base)
    raise TypeError(f"cannot compose at {line!r}")


def _stuck_comp(k, line, phi, tube, base):
    return VNeutral(NComp(k, line, phi, tube, base), line_at(line, k, ONE))


def fill_at(k: str, line: Value, phi: Face, tube: Value, base: Value,
            r: IExpr) -> Value:
    """The connection-based filler of the composition, at interval element r."""
    r = dm_canonical(r)
    if dm_is_zero(r):
        return base
    k2 = fresh_iname()
    conn = {k: IMeet(r, IVar(k2))}
    pieces = [(face_of_eq(r, 0), base)]
    if not face_is_false(phi):
        pieces.insert(0, (phi, act(tube, conn)))
    return comp_v(k2, act(line, conn), face_join(phi, face_of_eq(r, 0)),
                  make_system(pieces), base)


def transp_at(k: str, line: Value, base: Value, r: IExpr) -> Value:
    return fill_at(k, line, FACE_BOT, make_system([]), base, r)


def comp_pi(k, line, phi, tube, base):
    def fn(k, line, phi, tube, base, a1):
        def arg_at(r):
            # transport a1 backwards along the domain line
            k2 = fresh_iname()
            rev_dom = act(line, {k: INeg(IVar(k2))}).domain
            return transp_at(k2, rev_dom, a1, INeg(r))

        a_k = arg_at(IVar(k))
        cod_line = line.codomain.apply(a_k)
        return comp_v(k, cod_line, phi,
                      apply_v(tube, a_k), apply_v(base, arg_at(ZERO)))

    return VLam(FnClosure(fn, captured=(line, phi, tube, base), const=(k,)))


def comp_sigma(k, line, phi, tube, base):
    fst_tube, fst_base = fst_v(tube), fst_v(base)
    first = comp_v(k, line.first, phi, fst_tube, fst_base)
    fill_fst = fill_at(k, line.first, phi, fst_tube, fst_base, IVar(k))
    second = comp_v(k, line.second.apply(fill_fst), phi,
                    snd_v(tube), snd_v(base))
    return VPair(first, second)


def comp_path(k, line, phi, tube, base):
    def fn(k, line, phi, tube, base, j):
        pieces = [
            (face_of_eq(j, 0), line.lhs),
            (face_of_eq(j, 1), line.rhs),
        ]
        if not face_is_false(phi):
            pieces.insert(0, (phi, papp_v(tube, j)))
        face = face_join(phi, face_join(face_of_eq(j, 0), face_of_eq(j, 1)))
        return comp_v(k, line.space, face, make_system(pieces),
                      papp_v(base, j))

    return VPLam(FnClosure(fn, captured=(line, phi, tube, base), const=(k,)))


def comp_nat(k, phi, tube, base):
    match base:
        case VZero():
            return VZero()
        case VSuc(pred=p):
            pred_tube = _nat_pred(tube)
            if pred_tube is None:
                return _stuck_comp(k, VNat(), phi, tube, base)
            return VSuc(comp_nat(k, phi, pred_tube, p))
        case _:
            return _stuck_comp(k, VNat(), phi, tube, base)


def _nat_pred(v: Value):
    match v:
        case VSuc(pred=p):
            return p
        case VSystem(branches=bs):
            preds = [(cl, _nat_pred(val)) for cl, val in bs]
            if any(p is None for _, p in preds):
                return None
            return VSystem(tuple(preds))
        case _:
            return None


# -- composition in the universe ---------------------------------------------


def _id_fn(x):
    return x


def _const_path_fn(b, _r):
    return b


def _singleton_contract_fn(z, i):
    path = snd_v(z)

    def inner(path, i, j):
        return papp_v(path, IMeet(i, j))

    return VPair(papp_v(path, i), VPLam(FnClosure(inner, captured=(path, i))))


def _singleton_contraction(z):
    """The path from the center (b, <_> b) of a fiber of the identity to
    z = (a, p): at i it is (p @ i, <j> p @ (i /\\ j))."""
    return VPLam(FnClosure(_singleton_contract_fn, captured=(z,)))


def _id_contract_fn(b):
    center = VPair(b, VPLam(FnClosure(_const_path_fn, captured=(b,))))
    contract = VLam(FnClosure(_singleton_contraction))
    return VPair(center, contract)


def identity_equiv() -> Value:
    """The identity function with its contractible-fibers witness, built from
    connections only."""
    return VPair(VLam(FnClosure(_id_fn)),
                 VLam(FnClosure(_id_contract_fn)))


def is_contr_type(c: Value) -> Value:
    def cod(c, center):
        def paths(c, center, other):
            return VPathT(c, center, other)

        return VPi(c, FnClosure(paths, captured=(c, center)))

    return VSigma(c, FnClosure(cod, captured=(c,)))


def fiber_type(fn: Value, domain: Value, space: Value, a: Value) -> Value:
    """Sigma(t : domain). Path space a (fn t)."""

    def cod(fn, space, a, t):
        return VPathT(space, a, apply_v(fn, t))

    return VSigma(domain, FnClosure(cod, captured=(fn, space, a)))


def equiv_type_value(domain: Value, target: Value) -> Value:
    """Sigma(f : domain -> target). Pi(a : target). isContr(fiber f a)."""

    def arrow_cod(target, _t):
        return target

    def sigma_cod(domain, target, f):
        def per_point(domain, target, f, a):
            return is_contr_type(fiber_type(f, domain, target, a))

        return VPi(target, FnClosure(per_point, captured=(domain, target, f)))

    arrow = VPi(domain, FnClosure(arrow_cod, captured=(target,)))
    return VSigma(arrow, FnClosure(sigma_cod, captured=(domain, target)))


def transport_equiv(k: str, tube: Value) -> Value:
    """Equivalence  tube@1 -> tube@0  obtained by transporting the identity
    equivalence of tube@1 along the reversed tube line."""
    t_end = line_at(tube, k, ONE)
    k2 = fresh_iname()
    target_line = act(tube, {k: INeg(IVar(k2))})
    equiv_line = equiv_type_value(t_end, target_line)
    return comp_v(k2, equiv_line, FACE_BOT, make_system([]), identity_equiv())


def comp_univ(k, phi, tube, base):
    if face_is_false(phi):
        return VGlueT(FACE_BOT, None, None, base)
    parts_t, parts_e = [], []
    for cl in face_clauses(phi):
        asg = clause_assignment(cl)
        tube_c = act(tube, asg)
        parts_t.append((clause_face(cl), line_at(tube_c, k, ONE)))
        parts_e.append((clause_face(cl), transport_equiv(k, tube_c)))
    partial = parts_t[0][1] if len(parts_t) == 1 else make_system(parts_t)
    equiv = parts_e[0][1] if len(parts_e) == 1 else make_system(parts_e)
    return make_glue_type(phi, partial, equiv, base)


# -- composition at glue types -----------------------------------------------


def extend_fiber(equiv: Value, domain: Value, space: Value, a: Value,
                 pieces) -> Value:
    """Complete partial fibers of `equiv` over `a` into a total fiber,
    via the contraction of the fiber at a."""
    contr = apply_v(snd_v(equiv), a)
    center = fst_v(contr)
    if not pieces:
        return center
    contract = snd_v(contr)
    fiber_ty = fiber_type(fst_v(equiv), domain, space, a)
    j = fresh_iname()
    tube = [(f, papp_v(apply_v(contract, fb), IVar(j))) for f, fb in pieces]
    face = FACE_BOT
    for f, _ in pieces:
        face = face_join(face, f)
    return comp_v(j, fiber_ty, face, make_system(tube), center)


def _refl_path(v: Value) -> Value:
    return VPLam(FnClosure(_const_path_fn, captured=(v,)))


def _pres(k, glue_line, psi, tube, base, part_fill):
    """Path (in a fresh direction j) from the composition in the base line to
    the image of the composed partial-type element, where the glue face holds
    along the whole line."""
    base_img = apply_v(fst_v(act(glue_line.equiv, {k: ZERO})), base)

    def fn(k, glue_line, psi, tube, part_fill, base_img, j):
        w = fst_v(glue_line.equiv)
        pieces = [(face_of_eq(j, 1), apply_v(w, part_fill))]
        if not face_is_false(psi):
            pieces.insert(0, (psi, apply_v(w, tube)))
        return comp_v(k, glue_line.base, face_join(psi, face_of_eq(j, 1)),
                      make_system(pieces), base_img)

    return VPLam(FnClosure(
        fn, captured=(glue_line, psi, tube, part_fill, base_img), const=(k,)
    ))


def _unglue_on(line: Value, asg: dict, v: Value) -> Value:
    """Unglue v, an element of the glue line restricted by asg; where the
    glue face is total there, v is a partial-type element and the
    equivalence's function applies instead."""
    if face_is_true(face_subst_all(line.face, asg)):
        return apply_v(fst_v(act(line.equiv, asg)), act(v, asg))
    return unglue_v(act(v, asg))


def comp_glue(k, line, psi, tube, base):
    """Composition in a line of glue types (face, parts may vary with k)."""
    a0 = _unglue_on(line, {k: ZERO}, base)
    a_tube = make_system(
        [(clause_face(cl), _unglue_on(line, clause_assignment(cl), tube))
         for cl in face_clauses(psi)]
    )
    a1p = comp_v(k, line.base, psi, a_tube, a0)

    face1 = face_subst_all(line.face, {k: ONE})
    if face_is_false(face1):
        return make_glue_intro(FACE_BOT, None, a1p)

    delta = face_forall(k, line.face)
    fiber_pieces = []
    for cl in face_clauses(delta):
        asg = clause_assignment(cl)
        line_c = act(line, asg)
        psi_c = face_subst_all(psi, asg)
        tube_c, base_c = act(tube, asg), act(base, asg)
        if not isinstance(line_c, VGlueT):
            continue  # face became total under the clause; psi piece covers it
        t1p = comp_v(k, line_c.partial, psi_c, tube_c, base_c)
        fill_c = fill_at(k, line_c.partial, psi_c, tube_c, base_c, IVar(k))
        omega = _pres(k, line_c, psi_c, tube_c, base_c, fill_c)
        fiber_pieces.append((clause_face(cl), VPair(t1p, omega)))
    for cl in face_clauses(psi):
        asg = clause_assignment(cl)
        u1 = line_at(act(tube, asg), k, ONE)
        fiber_pieces.append(
            (clause_face(cl), VPair(u1, _refl_path(act(a1p, asg))))
        )

    t1_pieces, alpha_pieces = [], []
    equiv1 = act(line.equiv, {k: ONE})
    partial1 = act(line.partial, {k: ONE})
    base1 = act(line.base, {k: ONE})
    for cl in face_clauses(face1):
        asg = clause_assignment(cl)
        sub_pieces = [
            (face_subst_all(f, asg), act(fb, asg)) for f, fb in fiber_pieces
        ]
        sub_pieces = [(f, fb) for f, fb in sub_pieces if not face_is_false(f)]
        fb = extend_fiber(act(equiv1, asg), act(partial1, asg),
                          act(base1, asg), act(a1p, asg), sub_pieces)
        t1_pieces.append((clause_face(cl), fst_v(fb)))
        alpha_pieces.append((clause_face(cl), snd_v(fb)))

    j = fresh_iname()
    alpha_tube = [(f, papp_v(al, IVar(j))) for f, al in alpha_pieces]
    if not face_is_false(psi):
        alpha_tube.append((psi, line_at(a_tube, k, ONE)))
    a1 = comp_v(j, line_at(line.base, k, ONE), face_join(face1, psi),
                make_system(alpha_tube), a1p)
    t1 = t1_pieces[0][1] if len(t1_pieces) == 1 else make_system(t1_pieces)
    return make_glue_intro(face1, t1, a1)


# ---------------------------------------------------------------------------
# Readback


def readback(used: frozenset, v: Value, ty: Optional[Value] = None) -> Term:
    match ty:
        case VPi(domain=d, codomain=c):
            x = fresh_name(_preferred_name(v, _closure_name(c, "x")), used)
            var = neutral_var(x, d)
            return S.Lam(None, x, None,
                         readback(used | {x}, apply_v(v, var), c.apply(var)))
        case VSigma(first=d, second=c):
            a = fst_v(v)
            return S.Pair(None, readback(used, a, d),
                          readback(used, snd_v(v), c.apply(a)))
        case VPathT(space=sp):
            i = fresh_name(_preferred_iname(v), used)
            return S.PLam(None, i, readback(used | {i}, papp_v(v, IVar(i)), sp))
    return readback_value(used, v)


def _closure_name(c: Closure, default: str) -> str:
    if isinstance(c, TermClosure) and c.names:
        return c.names[0]
    return default


def _preferred_name(v: Value, default: str) -> str:
    if isinstance(v, VLam):
        return _closure_name(v.closure, default)
    return default


def _preferred_iname(v: Value) -> str:
    if isinstance(v, VPLam):
        return _closure_name(v.closure, "i")
    return "i"


def readback_value(used: frozenset, v: Value) -> Term:
    match v:
        case VPi(domain=d, codomain=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x, d)
            return S.Pi(None, x, readback(used, d),
                        readback(used | {x}, c.apply(var)))
        case VSigma(first=d, second=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x, d)
            return S.Sigma(None, x, readback(used, d),
                           readback(used | {x}, c.apply(var)))
        case VPathT(space=sp, lhs=l, rhs=r):
            return S.PathT(None, readback(used, sp),
                           readback(used, l, sp), readback(used, r, sp))
        case VNat():
            return S.Nat()
        case VUniv():
            return S.Univ()
        case VZero():
            return S.Zero()
        case VSuc(pred=p):
            return S.Suc(None, readback(used, p))
        case VLam(closure=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x)
            return S.Lam(None, x, None, readback(used | {x}, c.apply(var)))
        case VPLam(closure=c):
            i = fresh_name(_preferred_iname(v), used)
            return S.PLam(None, i, readback(used | {i}, c.apply(IVar(i))))
        case VPair(fst=a, snd=b):
            return S.Pair(None, readback(used, a), readback(used, b))
        case VLaterT() | VNext():
            entries, body = _readback_ds(used, v)
            if isinstance(v, VNext):
                if entries and body == S.Var(name=entries[-1][0]):
                    return entries[-1][1]
                return S.Next(None, tuple(entries), body)
            return S.LaterT(None, tuple(entries), body)
        case VGlueT(face=phi, partial=p, equiv=e, base=b):
            if p is None:
                return S.GlueT(None, FACE_BOT, None, None, readback(used, b))
            return S.GlueT(None, phi, readback(used, p),
                           readback(used, e, equiv_type_value(p, b)),
                           readback(used, b))
        case VGlueIntro(face=phi, partial=p, base=b):
            return S.GlueIntro(None, phi,
                               readback(used, p) if p is not None else None,
                               readback(used, b))
        case VSystem(branches=bs):
            return S.SystemTerm(None, tuple(
                (clause_face(cl), readback(used, val)) for cl, val in bs
            ))
        case VNeutral(neutral=ne, type=ty):
            return readback_neutral(used, ne, ty)
    raise TypeError(f"cannot read back {v!r}")


def _first_use(t: Term, name: str) -> int:
    """Pre-order index of the first occurrence of a variable; used to order
    bindings with identical contents deterministically.  Binder names here
    are readback-fresh, so shadowing cannot occur."""
    stack, index = [t], 0
    while stack:
        u = stack.pop()
        index += 1
        if isinstance(u, S.Var) and u.name == name:
            return index
        stack.extend(reversed(tuple(S.subterms(u))))
    return 1 << 30


# Enclosing delayed-substitution binders mapped to their fully expanded
# contents; binding-sort keys must not depend on positional binder names.
_ds_expansion: dict = {}


def _expand_key(term: Term) -> str:
    expanded = S.subst_terms(term, _ds_expansion) if _ds_expansion else term
    return S.term_str(S.alpha_canonical(expanded))


def _readback_ds(used: frozenset, v: Value):
    """Read back a later type or a next's delayed substitution with its
    body: inline next-bindings (`canon_later_value`), drop bindings not
    needed by the body or by another binding's type, and order the rest
    canonically respecting those type dependencies.  Binder names are
    chosen over all the original bindings."""
    es = v.entries
    names, vars_, deps, used2 = [], [], [], used
    for idx, (x, u) in enumerate(es):
        x2 = fresh_name(x, used2)
        names.append(x2)
        used2 = used2 | {x2}
        bty, dep = ds_binder_type_deps(u, es[:idx], vars_, used2)
        deps.append(dep)
        vars_.append(neutral_var(x2, bty))
    canon = canon_later_value(v, used2)
    kept = range(len(es)) if canon is v else canon.body.kept
    body_v = canon.body.apply(*[vars_[i] for i in kept])
    entry_terms = {i: readback(used, es[i][1]) for i in kept}
    global _ds_expansion
    saved = _ds_expansion
    _ds_expansion = dict(saved)
    try:
        for i, term in entry_terms.items():
            _ds_expansion[names[i]] = (
                S.subst_terms(term, saved) if saved else term
            )
        body = readback(used2, body_v)
        fv = S.free_names(body)[0]
        # generalized weakening: keep what the body uses, plus the type
        # dependencies of anything kept
        needed = {i for i in entry_terms if names[i] in fv}
        queue = list(needed)
        while queue:
            for j in deps[queue.pop()]:
                if j in entry_terms and j not in needed:
                    needed.add(j)
                    queue.append(j)
        # canonical order: repeatedly emit the dependency-free entry with the
        # smallest content key
        remaining = sorted(needed)
        placed: set = set()
        entries = []
        keys = {
            i: (_expand_key(entry_terms[i]), _first_use(body, names[i]))
            for i in remaining
        }
        while remaining:
            ready = [i for i in remaining
                     if all(j in placed or j not in needed for j in deps[i])]
            ready.sort(key=lambda i: keys[i])
            pick = ready[0]
            placed.add(pick)
            remaining.remove(pick)
            entries.append((names[pick], entry_terms[pick]))
    finally:
        _ds_expansion = saved
    return entries, body


def _match_ds_positions(needed_entries, prefix_entries, used: frozenset,
                        face: Face = FACE_TOP):
    """Match entry values, in order, against a subsequence of the prefix
    entry values (up to weakening), comparing under `face`; returns the
    matched positions or None.  Matching is greedy: each entry takes the
    first convertible prefix entry after the previous match."""
    from .conversion import conv_under

    positions, pos = [], 0
    for _, needed in needed_entries:
        while pos < len(prefix_entries) and not conv_under(
                face, used, needed, prefix_entries[pos][1]):
            pos += 1
        if pos == len(prefix_entries):
            return None
        positions.append(pos)
        pos += 1
    return positions


def match_later(lty, entries, vars_, used: frozenset,
                face: Face = FACE_TOP):
    """Instantiate a later type at a delayed substitution's bindings: match
    the later type's own delayed substitution (after next-substitution)
    against `entries`, both under `face`, and apply its body to the
    variables `vars_` of the matched entries.  Returns the body and the
    matched positions, or None."""
    if not isinstance(lty, VLaterT):
        return None
    lty = canon_later_value(lty, used, face)
    positions = _match_ds_positions(lty.entries, entries, used, face)
    if positions is None:
        return None
    return lty.body.apply(*[vars_[p] for p in positions]), tuple(positions)


def canon_later_value(v: Value, used: frozenset = frozenset(),
                      face: Face = FACE_TOP) -> Value:
    """Next-substitution on a later type or a next, at the value level:
    inline each binding `next ds' t` whose ds' matches (under `face`) a
    subsequence of the bindings kept before it.  One pass in order
    suffices: matching is greedy, so a binding that fails to match a prefix
    cannot match a subset of that prefix."""
    if not isinstance(v, (VLaterT, VNext)) or not v.entries:
        return v
    kept, recipe = [], []
    for i, (_, u) in enumerate(v.entries):
        pos = None
        if isinstance(u, VNext):
            pos = _match_ds_positions(
                u.entries, [v.entries[j] for j in kept], used, face)
        if pos is None:
            kept.append(i)
        else:
            recipe.append((i, u.body, tuple(kept[p] for p in pos)))
    if not recipe:
        return v
    body = InlinedDsClosure(v.body, tuple(kept), tuple(recipe))
    return type(v)(tuple(v.entries[i] for i in kept), body)


def ds_binder_type_deps(entry_value: Value, prefix_entries, prefix_vars,
                        used: frozenset):
    """The type a delayed-substitution binder stands for, recovered from its
    entry's later type by matching that type's own delayed substitution
    against the preceding entries (up to weakening), together with the
    prefix positions the type depends on."""
    ty = entry_value.type if isinstance(entry_value, VNeutral) else None
    return match_later(ty, prefix_entries, prefix_vars, used) or (None, ())


def readback_neutral(used: frozenset, ne: Neutral,
                     ty: Optional[Value] = None) -> Term:
    match ne:
        case NVar(name=x):
            return S.Var(None, x)
        case NApp(fn=f, arg=a):
            return S.App(None, readback_value(used, f), readback(used, a))
        case NPApp(fn=f, arg=r):
            return S.PApp(None, readback_value(used, f), r)
        case NFst(pair=p):
            return S.Fst(None, readback_value(used, p))
        case NSnd(pair=p):
            return S.Snd(None, readback_value(used, p))
        case NNatRec(motive=m, base=z, step=s, scrutinee=n):
            return S.NatRec(None, readback(used, m), readback(used, z),
                            readback(used, s), readback_value(used, n))
        case NUnglue(arg=a):
            return S.Unglue(None, readback_value(used, a))
        case NComp(binder=k, line=line, face=phi, tube=tube, base=b):
            i = fresh_name("i", used)
            sub = {k: IVar(i)}
            line_t = readback(used | {i}, act(line, sub))
            tube_t = readback(used | {i}, act(tube, sub))
            if not isinstance(tube_t, S.SystemTerm):
                tube_t = S.SystemTerm(None, ((phi, tube_t),))
            return S.Comp(None, i, line_t, phi, tube_t, readback(used, b))
        case NDFix(clock=r, closure=c):
            x = fresh_name(_closure_name(c, "x"), used)
            node = S.DFix(None, r, x,
                          readback(used | {x}, c.apply(neutral_var(x))))
            # keep the checked type attached to the printed fixed point, so
            # normal forms stay inferable when rechecked
            if isinstance(ty, VLaterT) and not ty.entries:
                register_dfix_type(node, readback(used, ty))
            return node
    raise TypeError(f"cannot read back neutral {ne!r}")


def normalize(env: dict, t: Term, ty: Optional[Value] = None,
              used: frozenset = frozenset()) -> Term:
    return readback(used, eval_term(env, t), ty)
