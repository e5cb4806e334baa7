"""Judgemental equality on values.

Conversion is type-directed where a type is available (eta for functions,
pairs, paths, and glue) and structural otherwise.  Later types and nexts are
compared on values, up to weakening, exchange, next-substitution and eta
(`_conv_later`); a neutral met by a next is eta-expanded.  The pairings of
the enclosing later comparisons travel with the call, innermost last
(`pairings`); a comparison started afresh passes `()`.  Equality under a
face restriction is checked clause by clause.

Two sides that are one object are equal at once.  That test is lifted to
closures (`_same_closure`): closures over one body term and identical
captured values are equal without applying them to a probe, for lambdas,
codomains, delayed fixed points and the bodies of later values.
"""

from __future__ import annotations

from typing import Optional

from .interval import (
    Face,
    IExpr,
    IVar,
    clause_assignment,
    dm_equal,
    face_clauses,
    face_equal,
)
from .eval import (
    FUEL,
    FnClosure,
    InlinedDsClosure,
    NApp,
    NComp,
    NDFix,
    NVar,
    TermClosure,
    VGlueIntro,
    VGlueT,
    VLam,
    VLaterT,
    VNext,
    VNeutral,
    VPair,
    VPathT,
    VPi,
    VPLam,
    VSigma,
    VSystem,
    VUniv,
    Value,
    ValueClosure,
    act,
    apply_v,
    canon_later_value,
    ds_binders,
    fresh_iname,
    fst_v,
    node,
    papp_v,
    probe_var,
    snd_v,
    tube_face,
    unglue_v,
)


# ---------------------------------------------------------------------------
# Conversion


def conv(pairings: tuple, a: Value, b: Value,
         ty: Optional[Value] = None) -> bool:
    FUEL.tick()
    if a is b or (type(a) is type(b) in (VLam, VPLam)
                  and _same_closure(a.closure, b.closure)):
        return True
    match ty:
        case VPi(domain=d, codomain=c):
            x = probe_var(d)
            return conv(pairings, apply_v(a, x), apply_v(b, x), c.apply(x))
        case VSigma(first=d, second=c):
            fa = fst_v(a)
            return (conv(pairings, fa, fst_v(b), d)
                    and conv(pairings, snd_v(a), snd_v(b), c.apply(fa)))
        case VPathT(space=sp):
            i = IVar(fresh_iname())
            return conv(pairings, papp_v(a, i), papp_v(b, i), sp)
        case VGlueT(face=phi, partial=p, base=base):
            return (conv(pairings, unglue_v(a), unglue_v(b), base)
                    and _conv_clauses(pairings, face_clauses(phi), a, b, p))
    if isinstance(a, VSystem) or isinstance(b, VSystem):
        clauses = set()
        for v in (a, b):
            if isinstance(v, VSystem):
                clauses.update(cl for cl, _ in v.branches)
        return _conv_clauses(pairings, sorted(clauses, key=sorted), a, b, ty)
    return _conv_structural(pairings, a, b)


def _conv_structural(pairings: tuple, a: Value, b: Value) -> bool:
    match (a, b):
        case (VLam(), VLam() | VNeutral()) | (VNeutral(), VLam()):
            x = probe_var()
            return conv(pairings, apply_v(a, x), apply_v(b, x))
        case (VPLam(), VPLam() | VNeutral()) | (VNeutral(), VPLam()):
            i = IVar(fresh_iname())
            return conv(pairings, papp_v(a, i), papp_v(b, i))
        case (VPair(), VPair() | VNeutral()) | (VNeutral(), VPair()):
            return (conv(pairings, fst_v(a), fst_v(b))
                    and conv(pairings, snd_v(a), snd_v(b)))
        case (VPi(domain=d1, codomain=c1), VPi(domain=d2, codomain=c2)) | \
             (VSigma(first=d1, second=c1), VSigma(first=d2, second=c2)):
            if not conv(pairings, d1, d2):
                return False
            return _conv_bodies(pairings, c1, c2, probe_var(d1))
        case (VPathT(space=s1, lhs=l1, rhs=r1),
              VPathT(space=s2, lhs=l2, rhs=r2)):
            return (conv(pairings, s1, s2) and conv(pairings, l1, l2, s1)
                    and conv(pairings, r1, r2, s1))
        case (VLaterT(), VLaterT()) | (VNext(), VNext()):
            return _conv_later(pairings, a, b)
        case (VNext(), VNeutral()):
            return _conv_later(pairings, a, _eta_next(b))
        case (VNeutral(), VNext()):
            return _conv_later(pairings, _eta_next(a), b)
        case (VGlueT(face=f1, partial=p1, equiv=e1, base=b1),
              VGlueT(face=f2, partial=p2, equiv=e2, base=b2)):
            return (face_equal(f1, f2) and conv(pairings, b1, b2)
                    and _conv_clauses(pairings, face_clauses(f1), p1, p2,
                                      VUniv())
                    and _conv_clauses(pairings, face_clauses(f1), e1, e2))
        case (VGlueIntro(face=f1, partial=p1, base=b1),
              VGlueIntro(face=f2, partial=p2, base=b2)):
            clauses = set(face_clauses(f1)) | set(face_clauses(f2))
            return (conv(pairings, b1, b2) and _conv_clauses(
                pairings, sorted(clauses, key=sorted), a, b))
        case (VGlueIntro(), VNeutral()) | (VNeutral(), VGlueIntro()):
            intro, other = (a, b) if isinstance(a, VGlueIntro) else (b, a)
            return (conv(pairings, intro.base, unglue_v(other))
                    and _conv_clauses(pairings, face_clauses(intro.face),
                                      intro, other))
        case (VNeutral(neutral=n1), VNeutral(neutral=n2)):
            return _conv_neutral(pairings, n1, n2)
    return _conv_fields(pairings, a, b)  # VNat, VUniv, VZero, VSuc


def _conv_fields(pairings: tuple, a, b) -> bool:
    """Same class, and every field convertible: an interval field equal in
    the De Morgan algebra, any other by `conv`."""
    return type(a) is type(b) and all(
        dm_equal(p, q) if isinstance(p, IExpr) else conv(pairings, p, q)
        for p, q in zip(a.field_values, b.field_values))


def _conv_later(pairings: tuple, a: Value, b: Value) -> bool:
    """Later types or nexts, up to the equational theory of delayed
    substitutions.  After next-substitution (`canon_later_value`), each
    binding gets a probe typed by `ds_binders`; the right side's
    probes are flexible.  The first time the bodies' comparison meets a
    flexible probe against a free left probe of the same call, their
    bindings are paired if their contents are convertible (`_same_var`).
    Any successful comparison needs that pairing, so bindings are paired in
    one pass, in any order (exchange).  A binding never paired stays a probe
    of its own side, so the bodies agree only if neither uses it
    (weakening).  The type dependencies of paired bindings must be paired
    with each other too.  This call's pairing travels on, after those of the
    enclosing calls (`pairings`), into the comparisons it makes.

    Before pairing, the `a is b` test lifted to closures is tried
    (`_same_later`): two sides with one body closure (`_same_closure`) are
    equal if their bindings convert position by position."""
    a, b = [canon_later_value(v, pairings=pairings) for v in (a, b)]
    if _same_later(pairings, a, b):
        return True
    st = _Pairing(pairings, a, b)
    pairings += (st,)
    try:
        return (conv(pairings, a.body.apply(*st.probes_a),
                     b.body.apply(*st.probes_b))
                and _pair_dependencies(pairings, st))
    finally:
        # probes that outlive the call in some value are plain variables
        st.pairs, st.left = {}, {}


def _same_later(pairings: tuple, a: Value, b: Value) -> bool:
    """One body closure and bindings convertible position by position.  The
    check holds only if it paired no binding of an enclosing call (in
    `pairings`): pairing might leave an unused binding unpaired, or pair it
    otherwise, so such pairings are undone and the caller pairs anew."""
    if len(a.entries) != len(b.entries) or not _same_closure(a.body, b.body):
        return False
    sizes = [len(st.pairs) for st in pairings]
    same = all(conv(pairings, u, v)
               for (_, u), (_, v) in zip(a.entries, b.entries))
    for st, n in zip(pairings, sizes):
        while len(st.pairs) > n:
            same = False
            st.taken.discard(st.pairs.popitem()[1])
    return same


def _same_closure(c, d) -> bool:
    """Closures equal on every argument because they are built alike: one
    body term over the same binders and identical captured values (interval
    expressions equal), or one inlining of such closures, or one value."""
    if c is d:
        return True
    match (c, d):
        case (TermClosure(), TermClosure()):
            # `==` on the environments compares a value by identity and an
            # interval expression by value
            return (c.body is d.body and c.names == d.names
                    and c.env == d.env)
        case (InlinedDsClosure(), InlinedDsClosure()):
            return (c.kept == d.kept and len(c.recipe) == len(d.recipe)
                    and _same_closure(c.base, d.base)
                    and all(p == q and ps == qs and _same_closure(f, g)
                            for (p, f, ps), (q, g, qs)
                            in zip(c.recipe, d.recipe)))
        case (ValueClosure(), ValueClosure()):
            return c.value is d.value
    return False


def _conv_bodies(pairings: tuple, c, d, x: Value) -> bool:
    """Two closures agree at x: at once if they are the same."""
    return _same_closure(c, d) or conv(pairings, c.apply(x), d.apply(x))


_IDENTITY = FnClosure(lambda v: v)


def _eta_next(n: VNeutral) -> VNext:
    """`next [x <- n] x`, built as is: `make_next` would contract it to n."""
    return VNext((("x", n),), _IDENTITY)


class _Pairing:
    """One `_conv_later` call: the probes of both sides, and the left
    binding each right binding has been paired with."""

    def __init__(self, pairings: tuple, a: Value, b: Value):
        self.a, self.b = a, b
        self.probes_a, self.deps_a = ds_binders(
            a.entries, lambda idx, ty: probe_var(ty), pairings)
        self.probes_b, self.deps_b = ds_binders(
            b.entries, lambda idx, ty: VNeutral(
                _NFlex(probe_var().neutral.name, self, idx), ty), pairings)
        self.left = {p.neutral.name: k for k, p in enumerate(self.probes_a)}
        self.pairs, self.taken = {}, set()

    def pair(self, pairings: tuple, j: int, k: int) -> bool:
        """Pair right binding j with left binding k if k is free and their
        contents are convertible."""
        if k in self.taken or not conv(pairings, self.a.entries[k][1],
                                       self.b.entries[j][1]):
            return False
        self.pairs[j] = k
        self.taken.add(k)
        return True


@node
class _NFlex(NVar):
    """The probe of right binding `index` of a `_conv_later` call."""
    pairing: _Pairing
    index: int


def _same_var(pairings: tuple, x: NVar, y: NVar) -> bool:
    """Two variables are equal if they are, or come to be, paired probes."""
    (nx, fx), (ny, fy) = _resolve(x), _resolve(y)
    for flex, rigid in ((fx, ny), (fy, nx)):
        if flex is not None and rigid in flex.pairing.left:
            return flex.pairing.pair(pairings, flex.index,
                                     flex.pairing.left[rigid])
    return nx == ny


def _resolve(x: NVar):
    """The name a variable stands for, and the probe itself if it is an
    unpaired flexible one."""
    if not isinstance(x, _NFlex):
        return x.name, None
    k = x.pairing.pairs.get(x.index)
    if k is None:
        return x.name, x
    return x.pairing.probes_a[k].neutral.name, None


def _pair_dependencies(pairings: tuple, st: _Pairing) -> bool:
    """Every paired binding's type dependencies are paired with its
    partner's.  A dependency the bodies never met is paired here with the
    first free dependency of the partner whose contents are convertible.
    A candidate that fails keeps the pairings it made in enclosing calls;
    that can only turn an equality into an inequality, never the reverse."""
    queue = list(st.pairs.items())
    while queue:
        j, k = queue.pop()
        da, db = st.deps_a[k], st.deps_b[j]
        if len(da) != len(db):
            return False
        for d in db:
            if d not in st.pairs:
                if not any(st.pair(pairings, d, e) for e in da):
                    return False
                queue.append((d, st.pairs[d]))
            if st.pairs[d] not in da:
                return False
    return True


def _conv_neutral(pairings: tuple, a, b) -> bool:
    FUEL.tick()
    match (a, b):
        case (NVar(name=x), NVar(name=y)):
            return x == y or _same_var(pairings, a, b)
        case (NApp(fn=f1, arg=a1), NApp(fn=f2, arg=a2)):
            arg_ty = f1.type.domain if isinstance(f1.type, VPi) else None
            return conv(pairings, f1, f2) and conv(pairings, a1, a2, arg_ty)
        case (NComp(binder=k1, line=l1, tube=t1, base=b1),
              NComp(binder=k2, line=l2, tube=t2, base=b2)):
            f1 = tube_face(t1)
            if not face_equal(f1, tube_face(t2)):
                return False
            k = IVar(fresh_iname())
            if not conv(pairings, act(l1, {k1: k}), act(l2, {k2: k})):
                return False
            for cl in face_clauses(f1):
                asg = clause_assignment(cl)
                if not conv(pairings, act(act(t1, {k1: k}), asg),
                            act(act(t2, {k2: k}), asg)):
                    return False
            return conv(pairings, b1, b2)
        case (NDFix(clock=r, closure=c), NDFix(clock=s, closure=d)):
            return dm_equal(r, s) and _conv_bodies(pairings, c, d, probe_var())
    return _conv_fields(pairings, a, b)


def conv_under(phi: Face, a: Value, b: Value, ty: Optional[Value] = None,
               pairings: tuple = ()) -> bool:
    """Equality under a face restriction: checked clause by clause.  A
    contradictory restriction makes everything equal."""
    return _conv_clauses(pairings, face_clauses(phi), a, b, ty)


def _conv_clauses(pairings: tuple, clauses, a: Value, b: Value,
                  ty: Optional[Value] = None) -> bool:
    return all(conv(pairings, act(a, asg), act(b, asg), act(ty, asg))
               for asg in map(clause_assignment, clauses))
