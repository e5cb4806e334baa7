"""Normalization by evaluation.

Terms evaluate into a semantic domain of weak-head values; composition is
implemented per type former; `readback` turns values into canonical terms.
Closures capture their environment.  Values, neutrals and closures are
records, and an interval substitution acts on one by acting on its fields
(`act`); acting on a neutral re-runs its eliminators, which can unstick it
(a delayed fixed point whose clock reaches 1, a path application reaching
an endpoint, a stuck composition whose face becomes total).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import reduce
from operator import attrgetter
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
    face_names,
    face_of_eq,
    face_subst_all,
    inames,
)
from .parser import parse_term
from .syntax import Term, fresh_name

def fresh_iname() -> str:
    return f"?i{next(FUEL.names)}"


# ---------------------------------------------------------------------------
# Closures


class Nominal:
    """A value, neutral or closure: an immutable record on whose fields
    interval substitutions act (`support`, `act`)."""

    _support = None  # memo of `support`, set on the node


def node(cls):
    """Make a value, neutral or closure class a frozen record compared by
    identity, whose `field_values` are read by a getter built once here."""
    cls = dataclass(frozen=True, eq=False)(cls)
    names = tuple(f.name for f in fields(cls))
    cls.field_values = property(
        attrgetter(*names) if len(names) > 1
        else lambda x: tuple(getattr(x, n) for n in names))
    return cls


class Closure(Nominal):
    """Semantic function from values (or an interval element) to a value."""

    def apply(self, *vals):
        raise NotImplementedError

    def constant(self) -> bool:
        """Whether the closure ignores its arguments: then `apply()`, with
        none, gives its value, and no placeholder stands for them."""
        return False

    def apply_lazy(self, arg: Callable[[], "Value"]) -> "Value":
        """Apply to the value `arg()`, calling `arg` only if the closure
        reads it."""
        return self.apply() if self.constant() else self.apply(arg())


@node
class TermClosure(Closure):
    env: dict
    names: tuple
    body: Term

    def apply(self, *vals):
        env = dict(self.env)
        env.update(zip(self.names, vals))
        return eval_term(env, self.body)

    def constant(self) -> bool:
        # a path lambda's parameter is an interval name
        fvs, fis = S.free_names(self.body)
        return fvs.isdisjoint(self.names) and fis.isdisjoint(self.names)


def capture(env: dict, names: tuple, body: Term) -> TermClosure:
    """A term closure over the free names of the body but `names`, a list
    memoized on the body node for the last `names` it was captured under."""
    memo = body.__dict__.get("_captured")
    if memo is None or memo[0] != names:
        fvs, fis = S.free_names(body)
        memo = (names, tuple((fvs | fis).difference(names)))
        object.__setattr__(body, "_captured", memo)
    return TermClosure({k: env[k] for k in memo[1] if k in env}, names, body)


@node
class FnClosure(Closure):
    """Host-level function, applied to the captured fields and then to the
    arguments."""

    fn: Callable
    captured: tuple = ()

    def apply(self, *vals):
        return self.fn(*self.captured, *vals)


@node
class ValueClosure(Closure):
    value: "Value"

    def apply(self, *vals):
        return self.value

    def constant(self) -> bool:
        return True


@node
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


class Value(Nominal):
    pass


@node
class VPi(Value):
    domain: Value
    codomain: Closure


@node
class VSigma(Value):
    first: Value
    second: Closure


@node
class VPathT(Value):
    space: Value
    lhs: Value
    rhs: Value


@node
class VNat(Value):
    pass


@node
class VUniv(Value):
    pass


@node
class VLaterT(Value):
    entries: tuple  # of (name, Value)
    body: Closure  # expects one value per entry


@node
class VGlueT(Value):
    face: Face
    partial: Optional[Value]  # type on the face; None iff face is bottom
    equiv: Optional[Value]
    base: Value


@node
class VLam(Value):
    closure: Closure


@node
class VPLam(Value):
    closure: Closure


@node
class VPair(Value):
    fst: Value
    snd: Value


@node
class VZero(Value):
    pass


@node
class VSuc(Value):
    pred: Value


@node
class VNext(Value):
    entries: tuple
    body: Closure


@node
class VGlueIntro(Value):
    face: Face
    partial: Optional[Value]
    base: Value


@node
class VSystem(Value):
    branches: tuple  # of (clause frozenset, Value valid under the clause)


class Neutral(Nominal):
    pass


@node
class NVar(Neutral):
    name: str


@node
class NApp(Neutral):
    fn: "VNeutral"
    arg: Value


@node
class NPApp(Neutral):
    fn: "VNeutral"
    arg: IExpr


@node
class NFst(Neutral):
    pair: "VNeutral"


@node
class NSnd(Neutral):
    pair: "VNeutral"


@node
class NNatRec(Neutral):
    motive: Value
    base: Value
    step: Value
    scrutinee: "VNeutral"


@node
class NUnglue(Neutral):
    arg: "VNeutral"


@node
class NComp(Neutral):
    binder: str  # internal fresh interval name bound in line and tube
    line: Value
    tube: VSystem
    base: Value


@node
class NDFix(Neutral):
    clock: IExpr  # canonical, not 1
    closure: Closure


@node
class VNeutral(Value):
    neutral: Neutral
    type: Optional[Value] = None


# The term former of each constructor value and stuck eliminator, and the
# name of the function that builds or re-runs the node from its fields (a
# smart constructor or an eliminator; None: the class itself), whose
# parameters are the node's fields, in the former's order.  `eval_term`
# applies the function to a former's evaluated fields (`_EVAL`), the
# interval action to a node's acted fields, readback applies the former to
# the read-back fields, and conversion compares field by field; both write
# path and glue types out, to compare endpoints and equivalences at a type.
# A stuck composition has no former; as `S.Comp` does, it reads its face
# off its tube (`tube_face`).  A function is looked up by name when it runs,
# so it is whatever this module binds the name to then.
FORMERS = {
    VNat: (S.Nat, None),
    VUniv: (S.Univ, None),
    VZero: (S.Zero, None),
    VSuc: (S.Suc, None),
    VPair: (S.Pair, None),
    VPathT: (S.PathT, None),
    VGlueT: (S.GlueT, "make_glue_type"),
    VGlueIntro: (S.GlueIntro, "make_glue_intro"),
    NApp: (S.App, "apply_v"),
    NPApp: (S.PApp, "papp_v"),
    NFst: (S.Fst, "fst_v"),
    NSnd: (S.Snd, "snd_v"),
    NNatRec: (S.NatRec, "natrec_v"),
    NUnglue: (S.Unglue, "unglue_v"),
    NComp: (None, "comp_v"),
}
# each entry's function by its name in this module
_BUILDERS = {cls: build or cls.__name__ for cls, (_, build) in FORMERS.items()}


def neutral_var(name: str, ty: Optional[Value] = None) -> VNeutral:
    return VNeutral(NVar(name), ty)


def probe_var(ty: Optional[Value] = None) -> VNeutral:
    """A fresh variable for conversion probes; the name space is disjoint
    from anything the parser can produce."""
    return VNeutral(NVar(f"?v{next(FUEL.names)}"), ty)


# ---------------------------------------------------------------------------
# Environments map names to Values (term variables) or IExprs (intervals)


def env_iexpr(env: dict, r: IExpr) -> IExpr:
    sub = {n: env[n] for n in inames(r) if n in env and isinstance(env[n], IExpr)}
    return dm_subst_all(r, sub)


def env_face(env: dict, phi: Face) -> Face:
    sub = {n: env[n] for n in face_names(phi) if n in env and isinstance(env[n], IExpr)}
    return face_subst_all(phi, sub)


# ---------------------------------------------------------------------------
# Interval action on values, neutrals and closures: one walk over the fields


def support(x) -> frozenset:
    """The interval names occurring in x: a value, neutral or closure (the
    union over its fields, memoized on the node), an interval expression, a
    face, or a tuple or dict of these.  A name, a term, an integer or a host
    function has none.  A system's clause names count too."""
    if isinstance(x, Nominal):
        s = x._support
        if s is None:
            s = frozenset().union(*map(support, x.field_values))
            if type(x) is VSystem:
                s = s | {n for cl, _ in x.branches for n, _ in cl}
            object.__setattr__(x, "_support", s)
        return s
    if isinstance(x, IExpr):
        return inames(x)
    if isinstance(x, Face):
        return face_names(x)
    if isinstance(x, tuple):
        return frozenset().union(*map(support, x))
    if isinstance(x, dict):
        return frozenset().union(*map(support, x.values()))
    return frozenset()


def act(x, sub: dict):
    """The interval substitution `sub` applied to a value or closure: the
    node rebuilt from its fields, each acted on (`_act_field`), by its
    `FORMERS` function where it has one.  A system rebuilds through
    `make_system`, and a neutral re-runs its eliminators (`act_neutral`),
    which may unstick it.  Whatever has no interval names in `sub`, None
    included, is returned as it is."""
    if not sub or support(x).isdisjoint(sub):
        return x
    cls = type(x)
    if cls is VNeutral:
        return act_neutral(x.neutral, sub, x.type)
    if cls is VSystem:
        pieces = [(face_subst_all(clause_face(cl), sub), val)
                  for cl, val in x.branches]
        return make_system([(phi, act(val, sub)) for phi, val in pieces
                            if not face_is_false(phi)])
    parts = [_act_field(p, sub) for p in x.field_values]
    build = _BUILDERS.get(cls)
    return globals()[build](*parts) if build else cls(*parts)


def _act_field(p, sub: dict):
    if isinstance(p, Nominal):
        return act(p, sub)
    if isinstance(p, IExpr):
        return dm_subst_all(p, sub)
    if isinstance(p, Face):
        return face_subst_all(p, sub)
    if isinstance(p, tuple):
        return tuple([_act_field(q, sub) for q in p])
    if isinstance(p, dict):
        return {k: _act_field(q, sub) for k, q in p.items()}
    return p


def act_neutral(ne: Neutral, sub: dict, ty: Optional[Value]) -> Value:
    """The eliminator of `ne` re-run on its acted fields (`FORMERS`); a
    variable and a delayed fixed point keep or rebuild their type."""
    match ne:
        case NVar():
            return VNeutral(ne, act(ty, sub))
        case NDFix(clock=r, closure=c):
            return dfix_v(dm_subst_all(r, sub), act(c, sub), act(ty, sub))
    elim = globals()[_BUILDERS[type(ne)]]
    return elim(*[_act_field(p, sub) for p in ne.field_values])


# ---------------------------------------------------------------------------
# Eliminators and smart constructors


def _by_branch(elim, args: tuple, at: int = 0) -> Value:
    """`elim` applied to the system `args[at]` branch by branch, the other
    arguments restricted by each branch's clause."""
    return VSystem(tuple(
        (cl, elim(*[val if k == at else _act_field(a, clause_assignment(cl))
                    for k, a in enumerate(args)]))
        for cl, val in args[at].branches
    ))


class FuelExhausted(Exception):
    """Raised when conversion exceeds its step bound."""


class _Fuel:
    """The conversion steps a check has left, and its β-reduction memo
    (`apply_v`), None outside a check. Owned by the check, not the closure
    (which would close a cycle through it), it is freed by refcounting.
    `names` numbers the internal names (`fresh_iname`, `probe_var`); it is
    never reset, since an imported module's values outlive its check."""

    def __init__(self):
        self.remaining: Optional[int] = None
        self.memo: Optional[dict] = None
        self.names = itertools.count()

    def set(self, limit: Optional[int]):
        self.remaining = limit

    def tick(self):
        if self.remaining is not None:
            self.remaining -= 1
            if self.remaining < 0:
                raise FuelExhausted("conversion step bound exceeded")


FUEL = _Fuel()


def apply_v(fn: Value, arg: Value) -> Value:
    match fn:
        case VLam(closure=c):
            memo = FUEL.memo
            if memo is None:
                return c.apply(arg)
            res = memo.get((fn, arg))
            if res is None:
                res = memo[fn, arg] = c.apply(arg)
            return res
        case VSystem():
            return _by_branch(apply_v, (fn, arg))
        case VNeutral(neutral=_, type=ty):
            res_ty = ty.codomain.apply(arg) if isinstance(ty, VPi) else None
            return VNeutral(NApp(fn, arg), res_ty)
    raise TypeError(f"cannot apply {fn!r}")


def papp_v(fn: Value, arg: IExpr) -> Value:
    r = dm_canonical(arg)
    match fn:
        case VPLam(closure=c):
            return c.apply(r)
        case VSystem():
            return _by_branch(papp_v, (fn, r))
        case VNeutral(neutral=_, type=ty):
            if isinstance(ty, VPathT):
                if r == ZERO:
                    return ty.lhs
                if r == ONE:
                    return ty.rhs
                return VNeutral(NPApp(fn, r), ty.space)
            return VNeutral(NPApp(fn, r), None)
    raise TypeError(f"cannot path-apply {fn!r}")


def fst_v(pair: Value) -> Value:
    match pair:
        case VPair(fst=a):
            return a
        case VSystem():
            return _by_branch(fst_v, (pair,))
        case VNeutral(neutral=_, type=ty):
            res_ty = ty.first if isinstance(ty, VSigma) else None
            return VNeutral(NFst(pair), res_ty)
    raise TypeError(f"cannot project {pair!r}")


def snd_v(pair: Value) -> Value:
    match pair:
        case VPair(snd=b):
            return b
        case VSystem():
            return _by_branch(snd_v, (pair,))
        case VNeutral(neutral=_, type=ty):
            res_ty = (ty.second.apply(fst_v(pair)) if isinstance(ty, VSigma)
                      else None)
            return VNeutral(NSnd(pair), res_ty)
    raise TypeError(f"cannot project {pair!r}")


def natrec_v(motive: Value, base: Value, step: Value,
             scrutinee: Value) -> Value:
    match scrutinee:
        case VZero():
            return base
        case VSuc(pred=p):
            return apply_v(apply_v(step, p), natrec_v(motive, base, step, p))
        case VSystem():
            return _by_branch(natrec_v, (motive, base, step, scrutinee), at=3)
        case VNeutral():
            return VNeutral(NNatRec(motive, base, step, scrutinee),
                            apply_v(motive, scrutinee))
    raise TypeError(f"natrec on {scrutinee!r}")


def unglue_v(arg: Value) -> Value:
    match arg:
        case VGlueIntro(base=a):
            return a
        case VSystem():
            return _by_branch(unglue_v, (arg,))
        case VNeutral(neutral=_, type=ty):
            return VNeutral(NUnglue(arg),
                            ty.base if isinstance(ty, VGlueT) else None)
    raise TypeError(f"cannot unglue {arg!r}")


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


def make_glue_type(face: Face, partial, equiv, base) -> Value:
    if face_is_true(face):
        return partial
    if face_is_false(face):
        return VGlueT(FACE_BOT, None, None, base)
    return VGlueT(face, partial, equiv, base)


def make_glue_intro(face: Face, partial, base) -> Value:
    if face_is_true(face):
        return partial
    if face_is_false(face):
        return VGlueIntro(FACE_BOT, None, base)
    return VGlueIntro(face, partial, base)


def _prune_ds(entries: tuple, body: Closure):
    """Drop trailing bindings whose closure parameter the body does not use
    (always sound; an inner binding may be needed by a later binding's
    type), narrowing the closure to match."""
    if not isinstance(body, TermClosure):
        return entries, body
    used = S.free_names(body.body)[0]
    n = len(entries)
    while n and body.names[n - 1] not in used:
        n -= 1
    if n != len(entries):
        body = TermClosure(body.env, body.names[:n], body.body)
    return entries[:n], body


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


# Unused: the benchmark's traced run still reads its length.
DFIX_TYPES: dict = {}


def register_dfix_type(node, used: frozenset, later: Value,
                       expansion: Optional[dict] = None):
    """Record on a fixed-point node the later type `later` the checker
    established for it (for a `fix`, the type of the `dfix` its binder
    stands for), to be read back over `used` under the delayed-substitution
    `expansion` of the enclosing binders (`_readback_ds`).  The entry
    `[term, pending]` lives as long as the node: the type is read back from
    `pending` (the readback's arguments) only when the node is first looked
    up, which is when it is evaluated."""
    object.__setattr__(node, "_dfix_type", [None, (used, later, expansion)])


def _dfix_type_term(entry) -> Optional[Term]:
    """The read-back type of a node's entry, read back on first use.
    While it is being read back the entry has no term yet, so a lookup of
    it from inside that readback misses; the β-reduction memo is suspended
    meanwhile, so that no value evaluated without the type is served later."""
    pending = entry[1]
    if pending is not None:
        used, later, expansion = pending
        entry[1] = None
        memo, FUEL.memo = FUEL.memo, None
        try:
            entry[0] = readback(used, later, None, expansion)
        finally:
            FUEL.memo = memo
            if entry[0] is None:  # the readback failed: retry on next use
                entry[1] = pending
    return entry[0]


def registered_dfix_type(env: dict, node) -> Optional[Value]:
    """The later type registered for this fixed-point node, evaluated in
    `env`, when its free names are all in scope there."""
    entry = node.__dict__.get("_dfix_type")
    term = None if entry is None else _dfix_type_term(entry)
    if term is None:
        return None
    fvs, fis = S.free_names(term)
    if not all(n in env for n in fvs | fis):
        return None
    return eval_term(env, term)


def dfix_v(clock: IExpr, closure: Closure, ty: Optional[Value] = None) -> Value:
    clock = dm_canonical(clock)
    if dm_is_one(clock):
        stuck = VNeutral(NDFix(ZERO, closure), ty)
        return VNext((), ValueClosure(closure.apply(stuck)))
    return VNeutral(NDFix(clock, closure), ty)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(env: dict, t: Term) -> Value:
    """The value of `t` in `env`, by the evaluator of its former (`_EVAL`)."""
    try:
        ev = _EVAL[type(t)]
    except KeyError:
        raise TypeError(f"cannot evaluate {t!r}") from None
    return ev(env, t)


def _evaluator(build: str, parts: tuple):
    """The evaluator of a `FORMERS` former: each field evaluated by its kind
    (`parts`), then the builder named `build` applied to them."""
    def ev(env, t):
        args = []
        for name, kind in parts:
            p = getattr(t, name)
            if kind is S.TERM:
                args.append(None if p is None else eval_term(env, p))
            elif kind is S.IEXPR:
                args.append(env_iexpr(env, p))
            else:
                args.append(env_face(env, p))
        return globals()[build](*args)
    return ev


def _eval_var(env: dict, t: S.Var) -> Value:
    v = env.get(t.name)
    if not isinstance(v, Value):
        raise RuntimeError(f"ill-scoped variable {t.name!r} (checker bug)")
    return v


def _eval_comp(env: dict, t: S.Comp) -> Value:
    k = fresh_iname()
    env_k = {**env, t.binder: IVar(k)}
    return comp_pieces(
        k, eval_term(env_k, t.line),
        [(env_face(env, phi), eval_term(env_k, v))
         for phi, v in t.tube.branches],
        eval_term(env, t.base))


def _eval_ds(env: dict, t) -> tuple:
    """A later type's or next's evaluated bindings and body closure."""
    return ([(x, eval_term(env, u)) for x, u in t.subst],
            capture(env, tuple(x for x, _ in t.subst), t.body))


def _eval_dfix(env: dict, t) -> Value:
    """The delayed fixed point of a `dfix`, or the one a `fix` binds."""
    return dfix_v(env_iexpr(env, t.clock), capture(env, (t.binder,), t.body),
                  registered_dfix_type(env, t))


# The evaluator of each term former: a `FORMERS` former's made from its
# scheme, the others written out.  Each calls `eval_term` and its builder
# through the module globals, whatever they are bound to when it runs.
_EVAL = {
    former: _evaluator(_BUILDERS[cls],
                       tuple((n, k) for n, k, _, _ in S._SCHEME[former]))
    for cls, (former, _) in FORMERS.items() if former is not None
} | {
    S.Var: _eval_var,
    S.Lam: lambda env, t: VLam(capture(env, (t.binder,), t.body)),
    S.PLam: lambda env, t: VPLam(capture(env, (t.binder,), t.body)),
    S.Pi: lambda env, t: VPi(eval_term(env, t.domain),
                             capture(env, (t.binder,), t.codomain)),
    S.Sigma: lambda env, t: VSigma(eval_term(env, t.first),
                                   capture(env, (t.binder,), t.second)),
    S.SystemTerm: lambda env, t: make_system(
        [(env_face(env, phi), eval_term(env, u)) for phi, u in t.branches]),
    S.Comp: _eval_comp,
    S.LaterT: lambda env, t: make_later(*_eval_ds(env, t)),
    S.Next: lambda env, t: make_next(*_eval_ds(env, t)),
    S.DFix: _eval_dfix,
    S.Fix: lambda env, t: eval_term({**env, t.binder: _eval_dfix(env, t)},
                                    t.body),
}


def surface(source: str, *params: str) -> Callable[..., Value]:
    """A construction written as a surface term whose free names are
    `params`: parsed once, here, and evaluated at one value per name each
    time it is called.  Its binders are named `x`, `x1`, ... and `i`, `i1`,
    ...: `fresh_name` drops the digits, so readback prints the names it
    gives a host closure's binder."""
    term = parse_term(source)
    return lambda *vals: eval_term(dict(zip(params, vals)), term)


# ---------------------------------------------------------------------------
# Composition


def line_at(line: Value, k: str, r: IExpr) -> Value:
    return act(line, {k: r})


def tube_face(tube: Value) -> Face:
    """A composition's face, read off its tube: the join of a system's
    clauses, and total for any other tube (`make_system` collapses there)."""
    if not isinstance(tube, VSystem):
        return FACE_TOP
    return reduce(face_join, [clause_face(cl) for cl, _ in tube.branches],
                  FACE_BOT)


def comp_v(binder: str, line: Value, tube: Value, base: Value) -> Value:
    """comp^binder line [tube_face(tube) -> tube] base; line and tube may
    mention the binder."""
    if not isinstance(tube, VSystem):
        return line_at(tube, binder, ONE)
    args = (binder, line, tube, base)
    match line:
        case VPi():
            return comp_pi(*args)
        case VSigma():
            return comp_sigma(*args)
        case VPathT():
            return comp_path(*args)
        case VNat():
            return comp_nat(binder, tube, base)
        case VUniv():
            return comp_univ(binder, tube, base)
        case VGlueT():
            return comp_glue(*args)
        case VSystem(branches=bs):
            if all(n != binder for cl, _ in bs for n, _ in cl):
                return _by_branch(comp_v, args, at=1)
            return _stuck_comp(*args)
        case VLaterT() | VNeutral():
            return _stuck_comp(*args)
    raise TypeError(f"cannot compose at {line!r}")


def _stuck_comp(k, line, tube, base):
    return VNeutral(NComp(k, line, tube, base), line_at(line, k, ONE))


def comp_pieces(k: str, line: Value, pieces: list, base: Value) -> Value:
    """comp^k line [phi1 -> u1, ...] base from its tube's (face, value)
    pieces: the tube is their system (`make_system`).  A piece on the
    bottom face drops out."""
    return comp_v(k, line, make_system(pieces), base)


def fill_at(k: str, line: Value, tube: Value, base: Value,
            r: IExpr) -> Value:
    """The connection-based filler of the composition, at interval element r."""
    r = dm_canonical(r)
    if dm_is_zero(r):
        return base
    k2 = fresh_iname()
    conn = {k: IMeet(r, IVar(k2))}
    pieces = [(tube_face(tube), act(tube, conn)), (face_of_eq(r, 0), base)]
    return comp_pieces(k2, act(line, conn), pieces, base)


def transp_at(k: str, line: Value, base: Value, r: IExpr) -> Value:
    return fill_at(k, line, make_system([]), base, r)


def comp_pi(k, line, tube, base):
    def fn(k, line, tube, base, a1):
        def arg_at(r):
            # transport a1 backwards along the domain line
            k2 = fresh_iname()
            rev_dom = act(line, {k: INeg(IVar(k2))}).domain
            return transp_at(k2, rev_dom, a1, INeg(r))

        a_k = arg_at(IVar(k))
        cod_line = line.codomain.apply(a_k)
        return comp_v(k, cod_line, apply_v(tube, a_k),
                      apply_v(base, arg_at(ZERO)))

    return VLam(FnClosure(fn, captured=(k, line, tube, base)))


def comp_sigma(k, line, tube, base):
    fst_tube, fst_base = fst_v(tube), fst_v(base)
    first = comp_v(k, line.first, fst_tube, fst_base)
    second_line = line.second.apply_lazy(
        lambda: fill_at(k, line.first, fst_tube, fst_base, IVar(k)))
    second = comp_v(k, second_line, snd_v(tube), snd_v(base))
    return VPair(first, second)


def comp_path(k, line, tube, base):
    def fn(k, line, tube, base, j):
        pieces = [(tube_face(tube), papp_v(tube, j)),
                  (face_of_eq(j, 0), line.lhs), (face_of_eq(j, 1), line.rhs)]
        return comp_pieces(k, line.space, pieces, papp_v(base, j))

    return VPLam(FnClosure(fn, captured=(k, line, tube, base)))


def comp_nat(k, tube, base):
    match base:
        case VZero():
            return VZero()
        case VSuc(pred=p):
            pred_tube = _nat_pred(tube)
            if pred_tube is None:
                return _stuck_comp(k, VNat(), tube, base)
            return VSuc(comp_nat(k, pred_tube, p))
        case _:
            return _stuck_comp(k, VNat(), tube, base)


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


# The identity function with its contractible-fibers witness, built from
# connections only: the fiber of b is contracted onto (b, <i> b) along
# <i> (p @ i, <i1> p @ (i /\ i1)) for (a, p) in it.
IDENTITY_EQUIV = surface(
    r"(\x -> x, \x -> ((x, <i> x),"
    r" \x1 -> <i> (x1.2 @ i, <i1> x1.2 @ (i /\ i1))))")()

# Sigma(t : A). Path B a (f t)
fiber_type = surface("(x : A) * Path B a (f x)", "f", "A", "B", "a")

# Sigma(f : A -> B). Pi(b : B). isContr (fiber f b), where
# isContr C = Sigma(c : C). Pi(c' : C). Path C c c'
equiv_type_value = surface(
    "(x : (x1 : A) -> B) * ((x1 : B) -> (x2 : (x3 : A) * Path B x1 (x x3))"
    " * ((x3 : (x4 : A) * Path B x1 (x x4))"
    " -> Path ((x4 : A) * Path B x1 (x x4)) x2 x3))", "A", "B")


def transport_equiv(k: str, tube: Value) -> Value:
    """Equivalence  tube@1 -> tube@0  obtained by transporting the identity
    equivalence of tube@1 along the reversed tube line."""
    t_end = line_at(tube, k, ONE)
    k2 = fresh_iname()
    target_line = act(tube, {k: INeg(IVar(k2))})
    equiv_line = equiv_type_value(t_end, target_line)
    return comp_pieces(k2, equiv_line, [], IDENTITY_EQUIV)


def comp_univ(k, tube, base):
    phi = tube_face(tube)
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
    return comp_pieces(
        j, fiber_ty,
        [(f, papp_v(apply_v(contract, fb), IVar(j))) for f, fb in pieces],
        center)


_refl_path = surface("<i> a", "a")  # the constant path at a


def _pres(k, equiv, base_line, tube, base, part_fill):
    """Path (in a fresh direction j) from the composition in the base line to
    the image of the composed partial-type element, where the glue face holds
    along the whole line.  `equiv` is the line of equivalences from the
    partial type to `base_line` there; `tube`, `base` and the filler
    `part_fill` are partial-type elements."""
    base_img = apply_v(fst_v(act(equiv, {k: ZERO})), base)

    def fn(k, equiv, base_line, tube, part_fill, base_img, j):
        w = fst_v(equiv)
        pieces = [(tube_face(tube), apply_v(w, tube)),
                  (face_of_eq(j, 1), apply_v(w, part_fill))]
        return comp_pieces(k, base_line, pieces, base_img)

    return VPLam(FnClosure(
        fn, captured=(k, equiv, base_line, tube, part_fill, base_img)))


def _unglue_on(line: Value, asg: dict, v: Value) -> Value:
    """Unglue v, an element of the glue line restricted by asg; where the
    glue face is total there, v is a partial-type element and the
    equivalence's function applies instead."""
    if face_is_true(face_subst_all(line.face, asg)):
        return apply_v(fst_v(act(line.equiv, asg)), act(v, asg))
    return unglue_v(act(v, asg))


def comp_glue(k, line, tube, base):
    """Composition in a line of glue types (face, parts may vary with k).
    On each clause of delta, the part of the glue face that holds along the
    whole line, the line's parts are restricted one by one, since the
    restricted glue type itself collapses to its partial type there."""
    psi = tube_face(tube)
    a0 = _unglue_on(line, {k: ZERO}, base)
    a_pieces = [
        (clause_face(cl), _unglue_on(line, clause_assignment(cl), tube))
        for cl in face_clauses(psi)]
    a1p = comp_pieces(k, line.base, a_pieces, a0)

    face1 = face_subst_all(line.face, {k: ONE})
    if face_is_false(face1):
        return make_glue_intro(FACE_BOT, None, a1p)

    delta = face_forall(k, line.face)
    fiber_pieces = []
    for cl in face_clauses(delta):
        asg = clause_assignment(cl)
        partial_c = act(line.partial, asg)
        tube_c, base_c = act(tube, asg), act(base, asg)
        t1p = comp_v(k, partial_c, tube_c, base_c)
        fill_c = fill_at(k, partial_c, tube_c, base_c, IVar(k))
        omega = _pres(k, act(line.equiv, asg), act(line.base, asg), tube_c,
                      base_c, fill_c)
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
    a1 = comp_pieces(
        j, base1,
        [(f, papp_v(al, IVar(j))) for f, al in alpha_pieces]
        + [(f, line_at(a, k, ONE)) for f, a in a_pieces],
        a1p)
    t1 = t1_pieces[0][1] if len(t1_pieces) == 1 else make_system(t1_pieces)
    return make_glue_intro(face1, t1, a1)


# ---------------------------------------------------------------------------
# Readback


def readback(used: frozenset, v: Value, ty: Optional[Value] = None,
             expansion: Optional[dict] = None) -> Term:
    """`v` read back over `used`, eta-long at `ty`; `expansion` maps the
    enclosing delayed-substitution binders to their expanded contents."""
    match ty:
        case VPi(domain=d, codomain=c):
            x = fresh_name(_preferred_name(v, _closure_name(c, "x")), used)
            var = neutral_var(x, d)
            return S.Lam(None, x, None, readback(
                used | {x}, apply_v(v, var), c.apply(var), expansion))
        case VSigma(first=d, second=c):
            a = fst_v(v)
            return S.Pair(None, readback(used, a, d, expansion),
                          readback(used, snd_v(v), c.apply(a), expansion))
        case VPathT(space=sp):
            i = fresh_name(_preferred_iname(v), used)
            return S.PLam(None, i, readback(
                used | {i}, papp_v(v, IVar(i)), sp, expansion))
    return readback_value(used, v, expansion)


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


def readback_value(used: frozenset, v: Value,
                   expansion: Optional[dict] = None) -> Term:
    match v:
        case VPi(domain=d, codomain=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x, d)
            return S.Pi(None, x, readback(used, d, None, expansion),
                        readback(used | {x}, c.apply(var), None, expansion))
        case VSigma(first=d, second=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x, d)
            return S.Sigma(None, x, readback(used, d, None, expansion),
                           readback(used | {x}, c.apply(var), None,
                                    expansion))
        case VPathT(space=sp, lhs=l, rhs=r):
            return S.PathT(None, readback(used, sp, None, expansion),
                           readback(used, l, sp, expansion),
                           readback(used, r, sp, expansion))
        case VLam(closure=c):
            x = fresh_name(_closure_name(c, "x"), used)
            var = neutral_var(x)
            return S.Lam(None, x, None, readback(used | {x}, c.apply(var),
                                                 None, expansion))
        case VPLam(closure=c):
            i = fresh_name(_preferred_iname(v), used)
            return S.PLam(None, i, readback(used | {i}, c.apply(IVar(i)),
                                            None, expansion))
        case VLaterT() | VNext():
            entries, body = _readback_ds(used, v, expansion)
            if isinstance(v, VNext):
                if entries and body == S.Var(name=entries[-1][0]):
                    return entries[-1][1]
                return S.Next(None, tuple(entries), body)
            return S.LaterT(None, tuple(entries), body)
        case VGlueT(face=phi, partial=p, equiv=e, base=b):
            if p is None:
                return S.GlueT(None, FACE_BOT, None, None,
                               readback(used, b, None, expansion))
            return S.GlueT(None, phi, readback(used, p, None, expansion),
                           readback(used, e, equiv_type_value(p, b),
                                    expansion),
                           readback(used, b, None, expansion))
        case VSystem(branches=bs):
            return S.SystemTerm(None, tuple(
                (clause_face(cl), readback(used, val, None, expansion))
                for cl, val in bs
            ))
        case VNeutral(neutral=ne, type=ty):
            return readback_neutral(used, ne, ty, expansion)
    return _readback_former(used, v, expansion)


def _readback_former(used: frozenset, x, expansion: Optional[dict]) -> Term:
    """The term former of a constructor value or stuck eliminator
    (`FORMERS`) applied to its fields, each value read back without a type;
    an interval expression, a face, a binder name or an absent field is
    kept as it is."""
    entry = FORMERS.get(type(x))
    if entry is None:
        raise TypeError(f"cannot read back {x!r}")
    return entry[0](None, *[
        readback_value(used, p, expansion) if isinstance(p, Value) else p
        for p in x.field_values])


def _first_use(t: Term, name: str) -> int:
    """Pre-order index of the first occurrence of a variable; used to order
    bindings with identical contents deterministically.  A read-back term is
    renamed apart, as the checker's terms are: no binder in it shadows
    `name`."""
    stack, index = [t], 0
    while stack:
        u = stack.pop()
        index += 1
        if isinstance(u, S.Var) and u.name == name:
            return index
        stack.extend(reversed(tuple(S.subterms(u))))
    return 1 << 30


def _readback_ds(used: frozenset, v: Value, expansion: Optional[dict]):
    """Read back a later type or a next's delayed substitution with its
    body: inline next-bindings (`canon_later_value`), drop bindings not
    needed by the body or by another binding's type, and order the rest
    canonically respecting those type dependencies.  Binder names are
    chosen over all the original bindings.  `inner` extends `expansion`
    with each kept binding's expanded contents, whose printed alpha-canonical
    form is its sort key: no key depends on positional binder names."""
    es = v.entries
    names, used2 = [], used
    for x, _ in es:
        names.append(fresh_name(x, used2))
        used2 = used2 | {names[-1]}
    vars_, deps = ds_binders(es, lambda idx, ty: neutral_var(names[idx], ty))
    canon = canon_later_value(v)
    kept = range(len(es)) if canon is v else canon.body.kept
    body_v = canon.body.apply(*[vars_[i] for i in kept])
    entry_terms = {i: readback(used, es[i][1], None, expansion)
                   for i in kept}
    inner = dict(expansion or {})
    for i, term in entry_terms.items():
        inner[names[i]] = S.subst_terms(term, expansion) if expansion else term
    body = readback(used2, body_v, None, inner)
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
    keys = {i: (S.term_str(S.alpha_canonical(inner[names[i]])),
                _first_use(body, names[i])) for i in remaining}
    while remaining:
        ready = [i for i in remaining
                 if all(j in placed or j not in needed for j in deps[i])]
        ready.sort(key=lambda i: keys[i])
        pick = ready[0]
        placed.add(pick)
        remaining.remove(pick)
        entries.append((names[pick], entry_terms[pick]))
    return entries, body


def _match_ds_positions(needed_entries, prefix_entries, face: Face,
                        pairings: tuple):
    """Match entry values, in order, against a subsequence of the prefix
    entry values (up to weakening), comparing under `face`; returns the
    matched positions or None.  Matching is greedy: each entry takes the
    first convertible prefix entry after the previous match."""
    from .conversion import conv_under

    positions, pos = [], 0
    for _, needed in needed_entries:
        while pos < len(prefix_entries) and not conv_under(
                face, needed, prefix_entries[pos][1], pairings=pairings):
            pos += 1
        if pos == len(prefix_entries):
            return None
        positions.append(pos)
        pos += 1
    return positions


def match_later(lty, entries, vars_, face: Face = FACE_TOP,
                pairings: tuple = ()):
    """Instantiate a later type at a delayed substitution's bindings: match
    the later type's own delayed substitution (after next-substitution)
    against `entries`, both under `face`, and apply its body to the
    variables `vars_` of the matched entries.  Returns the body and the
    matched positions, or None."""
    if not isinstance(lty, VLaterT):
        return None
    lty = canon_later_value(lty, face, pairings)
    positions = _match_ds_positions(lty.entries, entries, face, pairings)
    if positions is None:
        return None
    return lty.body.apply(*[vars_[p] for p in positions]), tuple(positions)


def match_next(u: Value, entries, face: Face = FACE_TOP,
               pairings: tuple = ()):
    """Next-substitution of one binding: if its value u is `next ds' t` and
    ds' matches (under `face`) a subsequence of `entries`, the matched
    positions, at which the binding is inlined as t; else None."""
    if not isinstance(u, VNext):
        return None
    return _match_ds_positions(u.entries, entries, face, pairings)


def canon_later_value(v: Value, face: Face = FACE_TOP,
                      pairings: tuple = ()) -> Value:
    """Next-substitution on a later type or a next, at the value level:
    inline each binding `next ds' t` whose ds' matches (under `face`) a
    subsequence of the bindings kept before it.  One pass in order
    suffices: matching is greedy, so a binding that fails to match a prefix
    cannot match a subset of that prefix."""
    if not isinstance(v, (VLaterT, VNext)) or not v.entries:
        return v
    kept, recipe = [], []
    for i, (_, u) in enumerate(v.entries):
        pos = match_next(u, [v.entries[j] for j in kept], face, pairings)
        if pos is None:
            kept.append(i)
        else:
            recipe.append((i, u.body, tuple(kept[p] for p in pos)))
    if not recipe:
        return v
    body = InlinedDsClosure(v.body, tuple(kept), tuple(recipe))
    return type(v)(tuple(v.entries[i] for i in kept), body)


def ds_binders(entries: tuple, make_var, pairings: tuple = ()):
    """One variable per binding of a delayed substitution, in order, made by
    `make_var(position, type)`, and the earlier positions each type depends
    on.  The type a binder stands for is recovered from its entry's later
    type by matching that type's own delayed substitution against the
    preceding entries (up to weakening)."""
    vars_, deps = [], []
    for idx, (_, u) in enumerate(entries):
        lty = u.type if isinstance(u, VNeutral) else None
        ty, dep = match_later(lty, entries[:idx], vars_,
                              pairings=pairings) or (None, ())
        vars_.append(make_var(idx, ty))
        deps.append(dep)
    return vars_, deps


def readback_neutral(used: frozenset, ne: Neutral,
                     ty: Optional[Value] = None,
                     expansion: Optional[dict] = None) -> Term:
    match ne:
        case NVar(name=x):
            return S.Var(None, x)
        case NComp(binder=k, line=line, tube=tube, base=b):
            i = fresh_name("i", used)
            sub = {k: IVar(i)}
            line_t = readback(used | {i}, act(line, sub), None, expansion)
            tube_t = readback(used | {i}, act(tube, sub), None, expansion)
            return S.Comp(None, i, line_t, tube_t,
                          readback(used, b, None, expansion))
        case NDFix(clock=r, closure=c):
            x = fresh_name(_closure_name(c, "x"), used)
            node = S.DFix(None, r, x, readback(
                used | {x}, c.apply(neutral_var(x)), None, expansion))
            # keep the checked type attached to the printed fixed point, so
            # normal forms stay inferable when rechecked
            if isinstance(ty, VLaterT) and not ty.entries:
                register_dfix_type(node, used, ty, expansion)
            return node
    return _readback_former(used, ne, expansion)
