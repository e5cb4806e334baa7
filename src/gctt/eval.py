"""Normalization by evaluation.

Terms evaluate into a semantic domain of weak-head values; composition is
implemented per type former; `readback` turns values into canonical terms.
Closures capture their environment.  A path type holds its endpoints as
closures of no parameter, each evaluated on its first read (`path_end`):
many are never read.  Values and closures are records, a stuck value one
node (`Neutral`), and a substitution of interval expressions for interval
names and of values for variables acts on one by acting on its fields
(`act`); acting on a stuck value re-runs it, which can unstick it (a
variable given a value, a delayed fixed point whose clock reaches 1, a
path application reaching an endpoint, a stuck composition whose face
becomes total).  A fixed point's registered type is instantiated so.  The
walks over a node's fields (`support`, `act`) and the evaluators of the
first-order term formers are compiled per class, on first use, from the
kinds of its fields (`FIELD_KINDS`).

Evaluation is glued: a declaration applied to arguments is one node
(`VDef`), kept folded until something inspects the class of its value,
which forces it first (`force`): the declaration's value is applied to
the arguments (`unfold`) until the value is no such application.
"""

from __future__ import annotations

import itertools
from functools import reduce
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
from .record import Record, fields
from .syntax import Term, fresh_name

def fresh_iname() -> str:
    return f"?i{next(FUEL.names)}"


# ---------------------------------------------------------------------------
# Closures


class Nominal(metaclass=Record, memos=("_support",)):
    """A value, neutral or closure: an immutable record compared by
    identity, on whose fields substitutions act (`support`, `act`); its
    `_support` slot memoizes `support`."""


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
    memo = body._captured
    if memo is None or memo[0] != names:
        fvs, fis = S.free_names(body)
        body._captured = memo = (names, tuple((fvs | fis).difference(names)))
    return TermClosure({k: env[k] for k in memo[1] if k in env}, names, body)


class FnClosure(Closure):
    """Host-level function, applied to the captured fields and then to the
    arguments."""

    fn: Callable
    captured: tuple = ()

    def apply(self, *vals):
        return self.fn(*self.captured, *vals)


class ValueClosure(Closure):
    value: Value

    def apply(self, *vals):
        return self.value

    def constant(self) -> bool:
        return True


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


def _shared(cls):
    """A value class without fields, every call of which returns one
    instance; its `__init__`, now `object.__init__`, leaves the instance's
    memo slot as it is."""
    one = cls()
    cls.__new__, cls.__init__ = lambda cls: one, object.__init__
    return cls


class VPi(Value):
    domain: Value
    codomain: Closure


class VSigma(Value):
    first: Value
    second: Closure


class VPathT(Value, memos=("_ends",)):
    """A path type.  Its endpoints are closures of no parameter, each
    evaluated on its first read and kept (`path_end`)."""
    space: Value
    lhs: Closure
    rhs: Closure


@_shared
class VNat(Value):
    pass


@_shared
class VUniv(Value):
    pass


class VLaterT(Value):
    entries: tuple  # of (name, Value)
    body: Closure  # expects one value per entry


class VGlueT(Value):
    face: Face
    partial: Optional[Value]  # type on the face; None iff face is bottom
    equiv: Optional[Value]
    base: Value


class VLam(Value):
    closure: Closure


class VPLam(Value):
    closure: Closure


class VPair(Value):
    fst: Value
    snd: Value


@_shared
class VZero(Value):
    pass


class VSuc(Value):
    pred: Value


class VNext(Value):
    entries: tuple
    body: Closure


class VGlueIntro(Value):
    face: Face
    partial: Optional[Value]
    base: Value


class VSystem(Value):
    branches: tuple  # of (clause frozenset, Value valid under the clause)


class VDef(Value, memos=("_unfolded",)):
    """A top-level declaration applied to the arguments `args`, its spine,
    which applying it extends (`apply_v`).  `base` is the declaration's
    value, a closed lambda, so `support` and `act` reach only the spine,
    and `level` its position in the checking order, imports first."""
    level: int
    args: tuple
    base: Closed


class Neutral(Value, memos=("_type",)):
    """A stuck value, one node: a variable, a delayed fixed point, or an
    eliminator or composition stuck on one.  A variable or fixed point
    carries the type given with it, if any (`type`): a variable's or a
    probe's, or a fixed point's (`dfix_v`), its registered type
    instantiated when it was evaluated.  An eliminator's type is derived
    from its head's when it is read (`neutral_type`), memoized in its
    `_type` slot."""


class NVar(Neutral):
    name: str
    type: Optional[Value]


class NApp(Neutral):
    fn: Neutral
    arg: Value


class NPApp(Neutral):
    fn: Neutral
    arg: IExpr


class NFst(Neutral):
    pair: Neutral


class NSnd(Neutral):
    pair: Neutral


class NNatRec(Neutral):
    motive: Value
    base: Value
    step: Value
    scrutinee: Neutral


class NUnglue(Neutral):
    arg: Neutral


class NComp(Neutral):
    binder: str  # internal fresh interval name bound in line and tube
    line: Value
    tube: VSystem
    base: Value


class NDFix(Neutral):
    clock: IExpr  # canonical, not 1
    closure: Closure
    type: Optional[Value]


# The term former of each constructor value and stuck eliminator, and the
# name of the function that builds or re-runs the node from its fields (a
# smart constructor or an eliminator; None: the class itself), whose
# parameters are the node's fields, in the former's order.  `eval_term`
# applies the function to a former's evaluated fields (`_EVAL`; a path
# type's endpoints are captured, not evaluated), the
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
# each entry's function by its name in this module, and each former's
_BUILDERS = {cls: build or cls.__name__ for cls, (_, build) in FORMERS.items()}
_FORMER_BUILDERS = {former: _BUILDERS[cls]
                    for cls, (former, _) in FORMERS.items() if former}


def neutral_var(name: str, ty: Optional[Value] = None) -> NVar:
    return NVar(name, ty)


def probe_var(ty: Optional[Value] = None) -> NVar:
    """A fresh variable for conversion probes; the name space is disjoint
    from anything the parser can produce."""
    return NVar(f"?v{next(FUEL.names)}", ty)


# ---------------------------------------------------------------------------
# Environments map names to Values (term variables) or IExprs (intervals)


def env_iexpr(env: dict, r: IExpr) -> IExpr:
    sub = {n: env[n] for n in inames(r) if n in env and isinstance(env[n], IExpr)}
    return dm_subst_all(r, sub)


def env_face(env: dict, phi: Face) -> Face:
    sub = {n: env[n] for n in face_names(phi) if n in env and isinstance(env[n], IExpr)}
    return face_subst_all(phi, sub)


# ---------------------------------------------------------------------------
# The action of substitutions on values, neutrals and closures, and
# evaluation, by code compiled per class from its fields on first use


class _PerClass(dict):
    """The code `make` compiles for each class, on first use."""

    def __init__(self, make, preset=()):
        super().__init__(preset)
        self.make = make

    def __missing__(self, cls):
        code = self[cls] = self.make(cls)
        return code


# What each walk makes of a field, by the field's annotation: the code of
# its free names (`support`), of its acted form (`act`) and of its value
# (`eval_term`, for a term former's field) over the field `{0}`, or None
# where the walk skips the field.  A node, an interval expression or a face
# is acted on itself, a tuple or dict entry by entry; the rest is opaque.
_NODE = ("support({0})", "act({0}, sub)", None)
_CONTAINER = ("support({0})", "_act_field({0}, sub)", None)
_OPAQUE = (None, "{0}", None)
FIELD_KINDS = {
    "Value": _NODE, "VSystem": _NODE, "Closure": _NODE,
    "Neutral": _NODE, "Optional[Value]": (
        "support({0})", "(None if {0} is None else act({0}, sub))", None),
    "IExpr": ("inames({0})", "dm_subst_all({0}, sub)", "env_iexpr(env, {0})"),
    "Face": ("face_names({0})", "face_subst_all({0}, sub)",
             "env_face(env, {0})"),
    "Term": (None, "{0}", "eval_term(env, {0})"), "Optional[Term]": (
        None, "{0}", "(None if {0} is None else eval_term(env, {0}))"),
    "tuple": _CONTAINER, "dict": _CONTAINER, "str": _OPAQUE, "int": _OPAQUE,
    "Closed": _OPAQUE,  # a closed value: no name to act on
    "Callable": _OPAQUE, "_Pairing": _OPAQUE, "Optional[Span]": _OPAQUE}


def _compile(cls, walk: int, params: str, build: Optional[str]):
    """The function of `params` that applies `build` to the code of `walk`
    (a column of `FIELD_KINDS`) over the fields of `x`, an instance of
    `cls`, or else returns their union.  It runs in this module's globals,
    so it calls whatever the names here are bound to when it runs."""
    parts = []
    for f in fields(cls):
        if f.type not in FIELD_KINDS:
            raise TypeError(f"{cls.__qualname__}.{f.name}: no field kind for"
                            f" the annotation {f.type!r}")
        if FIELD_KINDS[f.type][walk]:
            parts.append(FIELD_KINDS[f.type][walk].format(f"x.{f.name}"))
    if walk == 0 and cls is VSystem:  # a system's clause names count too
        parts.append("frozenset([n for cl, _ in x.branches for n, _ in cl])")
    body = (f"{build}({', '.join(parts)})" if build
            else " | ".join(parts) or "frozenset()")
    space = {}
    exec(compile(f"def code({params}): return {body}",
                 f"<{cls.__qualname__}>", "exec"), globals(), space)
    return space["code"]


_SUPPORT = _PerClass(lambda cls: _compile(cls, 0, "x", None),
                     {NVar: lambda x: support(x.type) | {x.name}})
# a class with no `FORMERS` function rebuilds itself, whatever module binds
# its name; a variable in `sub` is replaced by its value, and a fixed point
# re-runs `dfix_v`, which unfolds it if its clock reaches 1
_ACT = _PerClass(lambda cls: _compile(cls, 1, "x, sub",
                                      _BUILDERS.get(cls, "type(x)")), {
    NVar: lambda x, sub: sub[x.name] if x.name in sub
    else NVar(x.name, act(x.type, sub)),
    NDFix: lambda x, sub: dfix_v(dm_subst_all(x.clock, sub),
                                 act(x.closure, sub), act(x.type, sub)),
})


def support(x) -> frozenset:
    """The free names of x, interval names and variables alike: a value
    or closure (by its class's code, memoized in its `_support` slot; a
    variable counts its name and its type's), an interval expression, a
    face, or a tuple or dict of these.  A name, a term, an integer or a
    host function has none.  A system's clause names count too."""
    if isinstance(x, Nominal):
        s = x._support
        if s is None:
            s = x._support = _SUPPORT[type(x)](x)
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
    """The substitution `sub`, of interval expressions for interval names
    and of values for variables, applied to a value or closure: the node
    rebuilt from its fields, each acted on by its kind, by its `FORMERS`
    function where it has one (its class's code).  A system rebuilds
    through `make_system`.  A stuck eliminator re-runs on its acted fields,
    which may unstick it; a variable in `sub` is replaced by its value, so
    every eliminator over it runs again, and a variable or fixed point
    otherwise keeps its name and clock with its given type acted on.
    Whatever has no name in `sub`, None included, is returned as it is."""
    if not sub or support(x).isdisjoint(sub):
        return x
    cls = type(x)
    if cls is VSystem:
        pieces = [(face_subst_all(clause_face(cl), sub), val)
                  for cl, val in x.branches]
        return make_system([(phi, act(val, sub)) for phi, val in pieces
                            if not face_is_false(phi)])
    return _ACT[cls](x, sub)


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
    (which would close a cycle through it), it is freed by refcounting,
    as is `unequal`, the failed comparisons `conversion.conv` remembers.
    `names` numbers the internal names (`fresh_iname`, `probe_var`); it is
    never reset, since an imported module's values outlive its check."""

    def __init__(self):
        self.remaining: Optional[int] = None
        self.memo: Optional[dict] = None
        self.unequal: Optional[set] = None
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
    """A lambda's closure applied, or a declaration's spine extended, each
    through the β memo: equal applications in a declaration are one value."""
    match fn:
        case VLam() | VDef():
            memo = FUEL.memo
            res = None if memo is None else memo.get((fn, arg))
            if res is None:
                res = (fn.closure.apply(arg) if type(fn) is VLam else
                       VDef(fn.level, fn.args + (arg,), fn.base))
                if memo is not None:
                    memo[fn, arg] = res
            return res
        case VSystem():
            return _by_branch(apply_v, (fn, arg))
        case Neutral():
            return NApp(fn, arg)
    raise TypeError(f"cannot apply {fn!r}")


def unfold(v: VDef) -> Value:
    """One step of a declaration's application: its value applied to the
    spine, memoized in the `_unfolded` slot.  It may be another
    declaration's application."""
    res = v._unfolded
    if res is None:
        res = v._unfolded = reduce(apply_v, v.args, v.base)
    return res


def declared(level: int, value: Value) -> Value:
    """A declaration's value as its name is bound in scope: a lambda as its
    application to no argument (`VDef`), any other value as it is."""
    return VDef(level, (), value) if type(value) is VLam else value


def force(v):
    """`v` unfolded until it is no declaration's application, so that its
    class can be inspected; anything else, None included, as it is."""
    while type(v) is VDef:
        v = unfold(v)
    return v


def papp_v(fn: Value, arg: IExpr) -> Value:
    r = dm_canonical(arg)
    fn = force(fn)
    match fn:
        case VPLam(closure=c):
            return c.apply(r)
        case VSystem():
            return _by_branch(papp_v, (fn, r))
        case Neutral():
            if r == ZERO or r == ONE:  # a path's endpoints are in its type
                ty = neutral_type(fn)
                if isinstance(ty, VPathT):
                    return path_end(ty, r == ONE)
            return NPApp(fn, r)
    raise TypeError(f"cannot path-apply {fn!r}")


def path_end(ty: VPathT, end: int) -> Value:
    """The endpoint of a path type at 0 or 1 (`end`): its closure applied
    to nothing on the first read, memoized in the `_ends` slot."""
    ends = ty._ends = ty._ends or [None, None]
    if ends[end] is None:
        ends[end] = (ty.rhs if end else ty.lhs).apply()
    return ends[end]


def fst_v(pair: Value) -> Value:
    pair = force(pair)
    match pair:
        case VPair(fst=a):
            return a
        case VSystem():
            return _by_branch(fst_v, (pair,))
        case Neutral():
            return NFst(pair)
    raise TypeError(f"cannot project {pair!r}")


def snd_v(pair: Value) -> Value:
    pair = force(pair)
    match pair:
        case VPair(snd=b):
            return b
        case VSystem():
            return _by_branch(snd_v, (pair,))
        case Neutral():
            return NSnd(pair)
    raise TypeError(f"cannot project {pair!r}")


def natrec_v(motive: Value, base: Value, step: Value,
             scrutinee: Value) -> Value:
    scrutinee = force(scrutinee)
    match scrutinee:
        case VZero():
            return base
        case VSuc(pred=p):
            return apply_v(apply_v(step, p), natrec_v(motive, base, step, p))
        case VSystem():
            return _by_branch(natrec_v, (motive, base, step, scrutinee), at=3)
        case Neutral():
            return NNatRec(motive, base, step, scrutinee)
    raise TypeError(f"natrec on {scrutinee!r}")


def unglue_v(arg: Value) -> Value:
    arg = force(arg)
    match arg:
        case VGlueIntro(base=a):
            return a
        case VSystem():
            return _by_branch(unglue_v, (arg,))
        case Neutral():
            return NUnglue(arg)
    raise TypeError(f"cannot unglue {arg!r}")


def neutral_type(v: Neutral) -> Optional[Value]:
    """The type of the stuck value `v`, None where it has none: a variable's
    or fixed point's given type, or else the one its eliminator's typing
    rule derives from its head's type (`_derived_type`).  It, or the lack of
    one (`False`), is memoized, forced (`force`), in its `_type` slot."""
    ty = v._type
    if ty is None:
        ty = v._type = force(_derived_type(v)) or False
    return ty or None


def _derived_type(ne: Neutral) -> Optional[Value]:
    """The type of a stuck value: a variable's or fixed point's given one
    (a field, which `support` counts), or a stuck eliminator's, from its
    head's type by its typing rule.  The latter's free names are among
    those of the head's type, which are the head's own (`support`, by
    induction), and of the other fields, so `support` need not count it;
    each rule says why.  The only other names it can have are the binders of
    the stuck compositions evaluated while deriving it, drawn fresh then and
    bound there, so no substitution on the stuck value names them."""
    match ne:
        case NVar(type=ty) | NDFix(type=ty):
            return ty
        case NApp(fn=f, arg=a):
            # the codomain closure (a field of f's type) applied to a
            ty = neutral_type(f)
            return ty.codomain.apply(a) if isinstance(ty, VPi) else None
        case NPApp(fn=f):
            ty = neutral_type(f)  # a field of f's type
            return ty.space if isinstance(ty, VPathT) else None
        case NFst(pair=p):
            ty = neutral_type(p)  # a field of p's type
            return ty.first if isinstance(ty, VSigma) else None
        case NSnd(pair=p):
            # the family (a field of p's type) applied to the first
            # projection of p
            ty = neutral_type(p)
            return ty.second.apply(fst_v(p)) if isinstance(ty, VSigma) else None
        case NNatRec(motive=m, scrutinee=n):
            return apply_v(m, n)  # two of the fields
        case NUnglue(arg=g):
            ty = neutral_type(g)  # a field of g's type
            return ty.base if isinstance(ty, VGlueT) else None
        case NComp(binder=k, line=line):
            return line_at(line, k, ONE)  # the line's names, k replaced by 1
    return None


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


def _prune_ds(entries: tuple, body: TermClosure):
    """Drop trailing bindings whose closure parameter the body does not use
    (always sound; an inner binding may be needed by a later binding's
    type), narrowing the closure to match."""
    used = S.free_names(body.body)[0]
    n = len(entries)
    while n and body.names[n - 1] not in used:
        n -= 1
    if n != len(entries):
        body = TermClosure(body.env, body.names[:n], body.body)
    return entries[:n], body


def make_next(entries, body: TermClosure) -> Value:
    """Next with trailing weakening and eta applied."""
    entries, body = _prune_ds(tuple(entries), body)
    if entries and body.body == S.Var(name=entries[-1][0]):
        return entries[-1][1]
    return VNext(entries, body)


def make_later(entries, body: TermClosure) -> Value:
    entries, body = _prune_ds(tuple(entries), body)
    return VLaterT(entries, body)


# Unused: the benchmark's traced run still reads its length.
DFIX_TYPES: dict = {}


def register_dfix_type(node, used, later: Value):
    """Record on a fixed-point node the later type `later` the checker
    established for it (for a `fix`, the type of the `dfix` its binder
    stands for), and the names `used` in scope there.  The entry lives as
    long as the node."""
    node._dfix_type = (used, later)


def registered_dfix_type(env: dict, node) -> Optional[Value]:
    """The later type registered for this fixed-point node, instantiated at
    `env`: each name in scope at the registration that the type mentions is
    replaced by its value in `env` (`act`).  None if the node has no type,
    or if one of those names is not bound in `env`."""
    if node._dfix_type is None:
        return None
    used, later = node._dfix_type
    names = [n for n in support(later) if n in used]
    if not all(n in env for n in names):
        return None
    return act(later, {n: env[n] for n in names})


def dfix_v(clock: IExpr, closure: Closure, ty: Optional[Value] = None) -> Value:
    clock = dm_canonical(clock)
    if dm_is_one(clock):
        stuck = NDFix(ZERO, closure, ty)
        return VNext((), ValueClosure(closure.apply(stuck)))
    return NDFix(clock, closure, ty)


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(env: dict, t: Term) -> Value:
    """The value of `t` in `env`, by the evaluator of its former (`_EVAL`)."""
    try:
        ev = _EVAL[type(t)]
    except KeyError:
        raise TypeError(f"cannot evaluate {t!r}") from None
    return ev(env, t)


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
    """The delayed fixed point of a `dfix`, or the one a `fix` binds, typed
    by the node's registered type instantiated at `env` now."""
    return dfix_v(env_iexpr(env, t.clock), capture(env, (t.binder,), t.body),
                  registered_dfix_type(env, t))


# The evaluator of each term former: a `FORMERS` former's compiled from its
# fields on first use (`_compile`), the others written out.  Each calls
# `eval_term` and its builder through the module globals, whatever they are
# bound to when it runs.
_EVAL = _PerClass(lambda former: _compile(former, 2, "env, x",
                                          _FORMER_BUILDERS[former]), {
    S.Var: _eval_var,
    S.Lam: lambda env, t: VLam(capture(env, (t.binder,), t.body)),
    S.PLam: lambda env, t: VPLam(capture(env, (t.binder,), t.body)),
    S.PathT: lambda env, t: VPathT(eval_term(env, t.space),
                                   capture(env, (), t.lhs),
                                   capture(env, (), t.rhs)),
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
})


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
    line = force(line)
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
            return NComp(*args)
        case VLaterT() | Neutral():
            return NComp(*args)
    raise TypeError(f"cannot compose at {line!r}")


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
                  (face_of_eq(j, 0), path_end(line, 0)),
                  (face_of_eq(j, 1), path_end(line, 1))]
        return comp_pieces(k, line.space, pieces, papp_v(base, j))

    return VPLam(FnClosure(fn, captured=(k, line, tube, base)))


def comp_nat(k, tube, base):
    match force(base):
        case VZero():
            return VZero()
        case VSuc(pred=p):
            pred_tube = _nat_pred(tube)
            if pred_tube is None:
                return NComp(k, VNat(), tube, base)
            return VSuc(comp_nat(k, pred_tube, p))
        case _:
            return NComp(k, VNat(), tube, base)


def _nat_pred(v: Value):
    match force(v):
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
    v, ty = force(v), force(ty)
    match ty:
        case VSigma(first=d, second=c):
            a = fst_v(v)
            return S.Pair(None, readback(used, a, d, expansion),
                          readback(used, snd_v(v), c.apply(a), expansion))
        case VPi() | VPathT():
            return _readback_binder(used, v, ty, expansion)
    return readback_value(used, v, expansion)


def _readback_binder(used: frozenset, v: Value, ty: Optional[Value],
                     expansion: Optional[dict]) -> Term:
    """A lambda or path lambda, or any value at a Pi or Path type `ty`, read
    back as one over a fresh variable named after its own binder, else the
    Pi type's; `ty`, when known, types the variable and the body."""
    if isinstance(v, VPLam) or isinstance(ty, VPathT):
        i = fresh_name(_preferred_name(v, "i"), used)
        return S.PLam(None, i, readback(used | {i}, papp_v(v, IVar(i)),
                                        ty and ty.space, expansion))
    x = fresh_name(_preferred_name(
        v, _preferred_name(ty.codomain, "x") if ty else "x"), used)
    var = neutral_var(x, ty and ty.domain)
    return S.Lam(None, x, None, readback(
        used | {x}, apply_v(v, var), ty and ty.codomain.apply(var), expansion))


def _preferred_name(x, default: str) -> str:
    """The first parameter name of a term closure or a (path) lambda's."""
    c = x.closure if isinstance(x, (VLam, VPLam)) else x
    return c.names[0] if isinstance(c, TermClosure) and c.names else default


def readback_value(used: frozenset, v: Value,
                   expansion: Optional[dict] = None) -> Term:
    v = force(v)
    match v:
        case VPi(domain=d, codomain=c) | VSigma(first=d, second=c):
            x = fresh_name(_preferred_name(c, "x"), used)
            former = S.Pi if isinstance(v, VPi) else S.Sigma
            return former(None, x, readback(used, d, None, expansion),
                          readback(used | {x}, c.apply(neutral_var(x, d)),
                                   None, expansion))
        case VPathT(space=sp):
            return S.PathT(None, readback(used, sp, None, expansion),
                           readback(used, path_end(v, 0), sp, expansion),
                           readback(used, path_end(v, 1), sp, expansion))
        case VLam() | VPLam():
            return _readback_binder(used, v, None, expansion)
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
        case Neutral():
            return readback_neutral(used, v, expansion)
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
    lty = force(lty)
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
    u = force(u)
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
    v = force(v)
    if not isinstance(v, (VLaterT, VNext)) or not v.entries:
        return v
    kept, recipe = [], []
    for i, (_, u) in enumerate(v.entries):
        u = force(u)
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
        u = force(u)
        lty = neutral_type(u) if isinstance(u, Neutral) else None
        ty, dep = match_later(lty, entries[:idx], vars_,
                              pairings=pairings) or (None, ())
        vars_.append(make_var(idx, ty))
        deps.append(dep)
    return vars_, deps


def readback_neutral(used: frozenset, ne: Neutral,
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
        case NDFix(clock=r, closure=c, type=ty):
            x = fresh_name(_preferred_name(c, "x"), used)
            node = S.DFix(None, r, x, readback(
                used | {x}, c.apply(neutral_var(x)), None, expansion))
            # keep the checked type attached to the printed fixed point, so
            # normal forms stay inferable when rechecked
            if isinstance(ty, VLaterT) and not ty.entries:
                register_dfix_type(node, used, ty)
            return node
    return _readback_former(used, ne, expansion)
