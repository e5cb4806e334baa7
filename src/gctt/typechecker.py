"""Bidirectional type checking and elaboration.

Contexts interleave term variables, interval variables and face
restrictions; every equality judgement is taken relative to the effective
face of the context (the meet of its restrictions), clause by clause.
Checked modules elaborate to a table of type and body values.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from . import syntax as S
from .conversion import conv_under
from .eval import (
    FUEL,
    FuelExhausted,
    ValueClosure,
    VGlueT,
    VLam,
    VLaterT,
    VNat,
    VPathT,
    VPi,
    VSigma,
    VUniv,
    VZero,
    Value,
    act,
    apply_v,
    canon_later_value,
    capture,
    equiv_type_value,
    eval_term,
    fresh_iname,
    fst_v,
    make_later,
    make_system,
    match_later,
    match_next,
    neutral_var,
    readback,
    register_dfix_type,
    registered_dfix_type,
    surface,
)
from .interval import (
    FACE_BOT,
    FACE_TOP,
    Face,
    IVar,
    ONE,
    ZERO,
    face_equal,
    face_is_false,
    face_join,
    face_meet,
    face_names,
    face_str,
    inames,
)
from .syntax import Span, Term, term_str


class GcttTypeError(Exception):
    def __init__(self, span: Optional[Span], kind: str, message: str):
        self.span = span
        self.kind = kind
        self.message = message
        super().__init__(message)

    def located(self) -> str:
        where = f"{self.span.line}:{self.span.col}" if self.span else "?:?"
        return f"{where}: [{self.kind}] {self.message}"

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.located()}"


@dataclass(frozen=True)
class Ctx:
    """Term and interval variables in scope, each bound once under its own
    name (the checked term is renamed apart, `syntax.rename_apart`), which
    is also the name readback prints for it."""

    env: dict = field(default_factory=dict)
    types: dict = field(default_factory=dict)
    face: Face = FACE_TOP

    @property
    def used(self):
        """The names in scope, which a read-back binder avoids."""
        return self.env.keys()

    def bind_term(self, x: str, ty: Value):
        var = neutral_var(x, ty)
        return self.define(x, ty, var), var

    def bind_interval(self, i: str) -> "Ctx":
        if i in self.env:
            raise RuntimeError(f"{i!r} is bound twice (checker bug)")
        return replace(self, env={**self.env, i: IVar(i)})

    def restrict(self, phi: Face) -> "Ctx":
        return replace(self, face=face_meet(self.face, phi))

    def define(self, x: str, ty: Value, value: Value) -> "Ctx":
        if x in self.env:
            raise RuntimeError(f"{x!r} is bound twice (checker bug)")
        return replace(self, env={**self.env, x: value},
                       types={**self.types, x: ty})


@dataclass
class CheckedModule:
    name: str
    table: dict  # decl name -> (type Value, body Value)
    order: tuple = ()
    reports: list = field(default_factory=list)


@dataclass
class DeclReport:
    name: str
    status: str
    millis: float


class Checker:
    def __init__(self, fuel: Optional[int] = None):
        self.fuel = fuel
        # expected types of the enclosing check frames; used to recover the
        # Löb hypothesis when a delayed fixed point without a registered
        # type lands in an inference position, as in a re-checked normal form
        self._expected: list = []

    # -- helpers -------------------------------------------------------------

    def _show(self, ctx: Ctx, v: Value) -> str:
        return term_str(readback(ctx.used, v))

    def ensure_conv(self, ctx: Ctx, got: Value, want: Value, span, what: str,
                    ty: Optional[Value] = None, kind: str = "mismatch"):
        if not conv_under(ctx.face, got, want, ty):
            raise GcttTypeError(
                span, kind,
                f"{what}: expected {self._show(ctx, want)}"
                f" found {self._show(ctx, got)}",
            )

    def check_interval(self, ctx: Ctx, r, span):
        self._check_interval_names(ctx, inames(r), span)

    def check_face(self, ctx: Ctx, phi: Face, span):
        self._check_interval_names(ctx, face_names(phi), span)

    def _check_interval_names(self, ctx: Ctx, names, span):
        for n in names:
            if not isinstance(ctx.env.get(n), IVar):
                raise GcttTypeError(span, "unbound",
                                    f"interval name {n} not in scope")

    def check_type(self, ctx: Ctx, t: Term) -> Value:
        self.check(ctx, t, VUniv())
        return eval_term(ctx.env, t)

    def abstract(self, ctx: Ctx, names: tuple, value: Value):
        """Turn a value over the variables `names` of the context into a
        closure with one parameter per name: read the value back and
        evaluate it over the context, whose names are the printed ones."""
        return capture(ctx.env, names, readback(ctx.used, value))

    # -- inference -----------------------------------------------------------

    def infer(self, ctx: Ctx, t: Term) -> Value:
        match t:
            case S.Var(name=x):
                if x in ctx.types:
                    return ctx.types[x]
                raise GcttTypeError(t.span, "unbound", f"unbound variable {x}")
            case S.App(fn=f, arg=a):
                fty = self.infer(ctx, f)
                if not isinstance(fty, VPi):
                    raise GcttTypeError(
                        t.span, "not-a-function",
                        f"applied a term of type {self._show(ctx, fty)}",
                    )
                self.check(ctx, a, fty.domain)
                return fty.codomain.apply_lazy(lambda: eval_term(ctx.env, a))
            case S.PApp(fn=f, arg=r):
                fty = self.infer(ctx, f)
                if not isinstance(fty, VPathT):
                    raise GcttTypeError(
                        t.span, "not-a-function",
                        f"path-applied a term of type {self._show(ctx, fty)}",
                    )
                self.check_interval(ctx, r, t.span)
                return fty.space
            case S.Fst(pair=p):
                pty = self.infer(ctx, p)
                if not isinstance(pty, VSigma):
                    raise GcttTypeError(t.span, "mismatch",
                                        "projection from a non-pair")
                return pty.first
            case S.Snd(pair=p):
                pty = self.infer(ctx, p)
                if not isinstance(pty, VSigma):
                    raise GcttTypeError(t.span, "mismatch",
                                        "projection from a non-pair")
                return pty.second.apply_lazy(
                    lambda: fst_v(eval_term(ctx.env, p)))
            case S.Lam(binder=x, annotation=ann, body=b):
                if ann is None:
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "cannot infer an unannotated lambda",
                    )
                dom = self.check_type(ctx, ann)
                ctx2, _ = ctx.bind_term(x, dom)
                return VPi(dom, self.abstract(ctx2, (x,), self.infer(ctx2, b)))
            case S.Zero():
                return VNat()
            case S.Suc(pred=p):
                self.check(ctx, p, VNat())
                return VNat()
            case S.NatRec(motive=m, base=z, step=s, scrutinee=n):
                self.check(ctx, m, _NATREC_MOTIVE)
                mv = eval_term(ctx.env, m)
                self.check(ctx, z, apply_v(mv, VZero()))
                self.check(ctx, s, _NATREC_STEP(mv))
                self.check(ctx, n, VNat())
                if isinstance(mv, VLam):
                    return mv.closure.apply_lazy(lambda: eval_term(ctx.env, n))
                return apply_v(mv, eval_term(ctx.env, n))
            case S.Nat() | S.Univ():
                return VUniv()
            case S.Pi(binder=x, domain=d, codomain=c) | \
                 S.Sigma(binder=x, first=d, second=c):
                dom = self.check_type(ctx, d)
                ctx2, _ = ctx.bind_term(x, dom)
                self.check(ctx2, c, VUniv())
                return VUniv()
            case S.PathT(space=a, lhs=l, rhs=r):
                space = self.check_type(ctx, a)
                self.check(ctx, l, space)
                self.check(ctx, r, space)
                return VUniv()
            case S.PLam(binder=i, body=b):
                ctx2 = ctx.bind_interval(i)
                body_ty = self.infer(ctx2, b)
                space = act(body_ty, {i: IVar(fresh_iname())})
                if not conv_under(ctx2.face, body_ty, space):
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "path abstraction over a dependent type",
                    )
                body_v = eval_term(ctx2.env, b)
                return VPathT(
                    act(body_ty, {i: ZERO}),
                    act(body_v, {i: ZERO}),
                    act(body_v, {i: ONE}),
                )
            case S.LaterT(subst=ds, body=b):
                # later formation; this also covers the code rule, since
                # types are universe elements here
                ctx2, _, _ = self.check_ds(ctx, ds, t.span)
                self.check(ctx2, b, VUniv())
                return VUniv()
            case S.Next(subst=ds, body=b):
                ctx2, entries, _ = self.check_ds(ctx, ds, t.span)
                names = tuple(x for x, _ in ds)
                return make_later(entries, self.abstract(ctx2, names,
                                                         self.infer(ctx2, b)))
            case S.GlueT(face=phi, partial=p, equiv=e, base=b):
                return self.check_glue_type(ctx, phi, p, e, b, t.span)
            case S.Unglue(arg=a):
                aty = self.infer(ctx, a)
                if not isinstance(aty, VGlueT):
                    raise GcttTypeError(t.span, "mismatch",
                                        "unglue of a non-glue term")
                return aty.base
            case S.Comp():
                return self.check_comp(ctx, t)
            case S.SystemTerm():
                raise GcttTypeError(t.span, "mismatch",
                                    "cannot infer the type of a system")
            case S.DFix(clock=r, binder=x, body=b):
                self.check_interval(ctx, r, t.span)
                tried = []
                candidates = list(self._expected)
                registered = registered_dfix_type(ctx.env, t)
                if isinstance(registered, VLaterT) and not registered.entries:
                    candidates.append(registered.body.apply())
                for cand in reversed(candidates):
                    if any(cand is seen for seen in tried):
                        continue
                    tried.append(cand)
                    later = VLaterT((), ValueClosure(cand))
                    try:
                        ctx2, _ = ctx.bind_term(x, later)
                        self.check(ctx2, b, cand)
                        register_dfix_type(t, ctx.used, later)
                        return later
                    except GcttTypeError:
                        continue
                raise GcttTypeError(
                    t.span, "mismatch",
                    "cannot infer the type of a delayed fixed point here;"
                    " no enclosing expected type fits its body",
                )
            case S.Fix(clock=r):
                self.check_interval(ctx, r, t.span)
                return self.infer(ctx, S.rename_apart(S.unfold_fix(t),
                                                      ctx.env))
        raise GcttTypeError(t.span, "mismatch",
                            f"cannot infer the type of {term_str(t)}")

    # -- checking ------------------------------------------------------------

    def check(self, ctx: Ctx, t: Term, ty: Value):
        self._expected.append(ty)
        try:
            self._check(ctx, t, ty)
        finally:
            self._expected.pop()

    def _check(self, ctx: Ctx, t: Term, ty: Value):
        match t:
            case S.Lam(binder=x, annotation=ann, body=b) if isinstance(ty, VPi):
                if ann is not None:
                    dom = self.check_type(ctx, ann)
                    self.ensure_conv(ctx, dom, ty.domain, t.span,
                                     "lambda annotation")
                ctx2, var = ctx.bind_term(x, ty.domain)
                self.check(ctx2, b, ty.codomain.apply(var))
                return
            case S.Pair(fst=a, snd=b) if isinstance(ty, VSigma):
                self.check(ctx, a, ty.first)
                self.check(ctx, b,
                           ty.second.apply_lazy(lambda: eval_term(ctx.env, a)))
                return
            case S.PLam(binder=i, body=b) if isinstance(ty, VPathT):
                ctx2 = ctx.bind_interval(i)
                self.check(ctx2, b, ty.space)
                body_v = eval_term(ctx2.env, b)
                for r, endpoint, side in ((ZERO, ty.lhs, "left"),
                                          (ONE, ty.rhs, "right")):
                    self.ensure_conv(ctx, act(body_v, {i: r}), endpoint,
                                     t.span, f"{side} endpoint", ty.space,
                                     "boundary-violation")
                return
            case S.Next(subst=ds, body=b) if isinstance(ty, VLaterT):
                ctx2, entries, binders = self.check_ds(ctx, ds, t.span)
                matched = match_later(ty, entries, binders, ctx.face)
                if matched is not None:
                    self.check(ctx2, b, matched[0])
                    return
            case S.DFix(clock=r, binder=x, body=b) if isinstance(ty, VLaterT):
                self.check_interval(ctx, r, t.span)
                later = canon_later_value(ty)
                if later.entries:
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "delayed fixed point needs a later type without"
                        " a delayed substitution",
                    )
                inner = later.body.apply()
                ctx2, _ = ctx.bind_term(x, later)
                self.check(ctx2, b, inner)
                register_dfix_type(t, ctx.used, later)
                return
            case S.Fix(clock=r, binder=x, body=b):
                # guarded fixed points: from x : |> A |- b : A, fix r x. b : A
                self.check_interval(ctx, r, t.span)
                later = VLaterT((), ValueClosure(ty))
                ctx2, _ = ctx.bind_term(x, later)
                try:
                    self.check(ctx2, b, ty)
                except GcttTypeError as err:
                    raise GcttTypeError(
                        t.span, "mismatch",
                        f"fixed point body does not check: {err.located()}",
                    ) from None
                register_dfix_type(t, ctx.used, later)
                return
            case S.SystemTerm(branches=bs):
                face = self.check_system(ctx, bs, ty, t.span)
                if not face_equal(face_meet(ctx.face, face), ctx.face):
                    raise GcttTypeError(
                        t.span, "face-not-covering",
                        f"system faces {face_str(face)} do not cover the"
                        " context",
                    )
                return
            case S.GlueIntro(face=phi, partial=p, base=a) \
                    if isinstance(ty, VGlueT):
                if not face_equal(phi, ty.face):
                    raise GcttTypeError(
                        t.span, "mismatch",
                        f"glue face {face_str(phi)} differs from the"
                        f" type's face {face_str(ty.face)}",
                    )
                self.check(ctx, a, ty.base)
                if p is None:
                    return
                ctx_p = ctx.restrict(ty.face)
                self.check(ctx_p, p, ty.partial)
                a_v = eval_term(ctx.env, a)
                p_v = eval_term(ctx.env, p)
                want = apply_v(fst_v(ty.equiv), p_v)
                if not conv_under(ctx_p.face, a_v, want, ty.base):
                    raise GcttTypeError(
                        t.span, "boundary-violation",
                        "glue base must equal the image of its partial part",
                    )
                return
            case S.Comp():
                got = self.check_comp(ctx, t)
                self.ensure_conv(ctx, got, ty, t.span, "composition type")
                return
        got = self.infer(ctx, t)
        self.ensure_conv(ctx, got, ty, t.span, "type")

    # -- type formation ------------------------------------------------------

    def check_glue_type(self, ctx: Ctx, phi, partial, equiv, base,
                        span) -> Value:
        """Glue formation: the partial type lives on the face and the
        attached term must be an equivalence onto the base there."""
        self.check_face(ctx, phi, span)
        self.check(ctx, base, VUniv())
        if partial is not None:
            ctx_p = ctx.restrict(phi)
            self.check(ctx_p, partial, VUniv())
            part_v = eval_term(ctx.env, partial)
            base_v = eval_term(ctx.env, base)
            self.check(ctx_p, equiv, equiv_type_value(part_v, base_v))
        return VUniv()

    # -- delayed substitutions -----------------------------------------------

    def check_ds(self, ctx: Ctx, ds, span):
        """Check a delayed substitution by inference; returns the extended
        context, the entry values, and the binders' values.  A binder is a
        variable, unless next-substitution inlines its binding
        (`match_next`): then it is defined as the `next` body at the
        matched variables, and no read-back term mentions it."""
        entries, binders, kept = [], [], []
        ctx2 = ctx
        for x, u in ds:
            uty = self.infer(ctx, u)
            if not isinstance(uty, VLaterT):
                raise GcttTypeError(
                    span, "ds-ill-formed",
                    f"binding for {x} has type {self._show(ctx, uty)},"
                    " which is not a later type",
                )
            matched = match_later(uty, entries, binders, ctx.face)
            if matched is None:
                raise GcttTypeError(
                    span, "ds-ill-formed",
                    f"binding for {x}: its later type's delayed substitution"
                    " does not match the preceding bindings",
                )
            value = eval_term(ctx.env, u)
            pos = match_next(value, [entries[k] for k in kept], ctx.face)
            if pos is None:
                kept.append(len(entries))
                ctx2, var = ctx2.bind_term(x, matched[0])
            else:
                var = value.body.apply(*[binders[kept[p]] for p in pos])
                ctx2 = ctx2.define(x, matched[0], var)
            binders.append(var)
            entries.append((x, value))
        return ctx2, entries, binders

    # -- systems ---------------------------------------------------------

    def check_system(self, ctx: Ctx, branches, ty: Value, span) -> Face:
        """Check each branch at `ty` on its face, and that the branches agree
        where their faces overlap in the context.  Returns the face the
        system is defined on, the join of its branch faces; whether it
        covers the context is for the caller to decide.  A branch is
        evaluated only for such a comparison, and at most once."""
        total = FACE_BOT
        for phi, _ in branches:
            self.check_face(ctx, phi, span)
            total = face_join(total, phi)
        for phi, u in branches:
            self.check(ctx.restrict(phi), u, ty)
        value = functools.cache(lambda k: eval_term(ctx.env, branches[k][1]))
        for i in range(len(branches)):
            for j in range(i + 1, len(branches)):
                overlap = face_meet(branches[i][0], branches[j][0])
                ctx_o = ctx.restrict(overlap)
                if face_is_false(ctx_o.face):
                    continue
                if not conv_under(ctx_o.face, value(i), value(j), ty):
                    raise GcttTypeError(
                        span, "system-incompatible",
                        f"branches {i + 1} and {j + 1} disagree on"
                        f" {face_str(overlap)}",
                    )
        return total

    # -- compositions ------------------------------------------------------

    def check_comp(self, ctx: Ctx, t: S.Comp) -> Value:
        # the faces of the tube are checked outside the binder, which they
        # may not name
        for psi, _ in t.tube.branches:
            if t.binder in face_names(psi):
                raise GcttTypeError(t.span, "unbound", "a tube face names"
                                    " the composition's own binder")
            self.check_face(ctx, psi, t.span)
        ctx_i = ctx.bind_interval(t.binder)
        line = self.check_type(ctx_i, t.line)
        line0 = act(line, {t.binder: ZERO})
        line1 = act(line, {t.binder: ONE})
        phi = self.check_system(ctx_i, t.tube.branches, line, t.span)
        self.check(ctx, t.base, line0)
        if not face_is_false(phi):
            base_v = eval_term(ctx.env, t.base)
            tube_v = make_system([(psi, eval_term(ctx_i.env, u))
                                  for psi, u in t.tube.branches])
            tube0 = act(tube_v, {t.binder: ZERO})
            if not conv_under(face_meet(ctx.face, phi), base_v, tube0,
                              line0):
                raise GcttTypeError(
                    t.span, "boundary-violation",
                    "composition base disagrees with the tube at 0",
                )
        return line1

    # -- top level ---------------------------------------------------------

    @contextmanager
    def fuelled(self, span: Optional[Span] = None):
        """Bound the conversion steps of what runs inside by one budget of
        fuel, and report running out of it as a type error at `span`.
        What runs inside shares one β-reduction memo, dropped at the end."""
        FUEL.set(self.fuel)
        FUEL.memo = {}
        try:
            with _fuel_error_at(span):
                yield
        finally:
            FUEL.set(None)
            FUEL.memo = None

    def check_module(self, module: S.ModuleFile, imports=()) -> CheckedModule:
        with self.fuelled():
            ctx = Ctx()
            table = {}
            reports = []
            for imported in imports:
                for name, (ty, val) in imported.table.items():
                    if name not in table:
                        table[name] = (ty, val)
                        ctx = ctx.define(name, ty, val)
            order = {}  # the declared names, in order
            for decl in module.declarations:
                if decl.name in order:
                    raise GcttTypeError(decl.span, "mismatch",
                                        f"duplicate declaration {decl.name}")
                start = time.monotonic()
                FUEL.memo = {}  # each declaration is one memo scope
                with _fuel_error_at(decl.span):
                    ty = self.check_type(ctx, S.rename_apart(decl.type,
                                                             ctx.env))
                    body = S.rename_apart(decl.body, ctx.env)
                    self.check(ctx, body, ty)
                    value = eval_term(ctx.env, body)
                if decl.name in ctx.env:  # the declaration hides an import
                    ctx = replace(ctx, env={k: v for k, v in ctx.env.items()
                                            if k != decl.name})
                ctx = ctx.define(decl.name, ty, value)
                table[decl.name] = (ty, value)
                order[decl.name] = None
                reports.append(DeclReport(
                    decl.name, "ok", (time.monotonic() - start) * 1000.0
                ))
            return CheckedModule(module.name, table, tuple(order), reports)


@contextmanager
def _fuel_error_at(span: Optional[Span]):
    """Report running out of conversion fuel as a type error at `span`."""
    try:
        yield
    except FuelExhausted:
        raise GcttTypeError(span, "mismatch",
                            "conversion fuel exhausted (see --fuel)") from None


_NATREC_MOTIVE = surface("(x : N) -> U")()
_NATREC_STEP = surface("(x : N) -> (x1 : m x) -> m (suc x)", "m")
