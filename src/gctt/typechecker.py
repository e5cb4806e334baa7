"""Bidirectional type checking and elaboration.

Contexts interleave term variables, interval variables and face
restrictions; every equality judgement is taken relative to the effective
face of the context (the meet of its restrictions), clause by clause.
Checked modules elaborate to a table of type and body values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

from . import syntax as S
from .conversion import FUEL, FuelExhausted, conv_under
from .eval import (
    FnClosure,
    ValueClosure,
    VGlueT,
    VLaterT,
    VNat,
    VPathT,
    VPi,
    VSigma,
    VSuc,
    VUniv,
    VZero,
    Value,
    act,
    apply_v,
    canon_later_value,
    env_face,
    env_iexpr,
    equiv_type_value,
    eval_term,
    fresh_iname,
    fst_v,
    make_later,
    match_later,
    neutral_var,
    readback,
    register_dfix_type,
    registered_dfix_type,
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
from .syntax import Span, Term, fresh_name, term_str


class GcttTypeError(Exception):
    def __init__(self, span: Optional[Span], kind: str, message: str):
        self.span = span
        self.kind = kind
        self.message = message
        super().__init__(message)

    def render(self, filename: str = "<input>") -> str:
        where = f"{self.span.line}:{self.span.col}" if self.span else "?:?"
        return f"{filename}:{where}: [{self.kind}] {self.message}"


@dataclass(frozen=True)
class Ctx:
    env: dict = field(default_factory=dict)
    types: dict = field(default_factory=dict)
    interval_names: frozenset = frozenset()
    face: Face = FACE_TOP
    used: frozenset = frozenset()

    def bind_term(self, x: str, ty: Value):
        name = fresh_name(x, self.used)
        var = neutral_var(name, ty)
        env = dict(self.env)
        env[x] = var
        types = dict(self.types)
        types[x] = ty
        ctx = replace(self, env=env, types=types, used=self.used | {name, x})
        return ctx, var

    def bind_interval(self, i: str):
        name = fresh_name(i, self.used)
        env = dict(self.env)
        env[i] = IVar(name)
        ctx = replace(
            self, env=env,
            interval_names=self.interval_names | {name},
            used=self.used | {name, i},
        )
        return ctx, name

    def restrict(self, phi: Face) -> "Ctx":
        return replace(self, face=face_meet(self.face, phi))

    def define(self, x: str, ty: Value, value: Value) -> "Ctx":
        env = dict(self.env)
        env[x] = value
        types = dict(self.types)
        types[x] = ty
        return replace(self, env=env, types=types, used=self.used | {x})


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
        # Löb hypothesis when a delayed fixed point produced by the
        # `fix r x. t` sugar lands in an inference position
        self._expected: list = []

    # -- helpers -------------------------------------------------------------

    def _show(self, ctx: Ctx, v: Value) -> str:
        return term_str(readback(ctx.used, v))

    def ensure_conv(self, ctx: Ctx, got: Value, want: Value, span, what: str,
                    ty: Optional[Value] = None, kind: str = "mismatch"):
        if not conv_under(ctx.face, ctx.used, got, want, ty):
            raise GcttTypeError(
                span, kind,
                f"{what}: expected {self._show(ctx, want)}"
                f" found {self._show(ctx, got)}",
            )

    def check_interval(self, ctx: Ctx, r, span):
        for n in inames(env_iexpr(ctx.env, r)):
            if n not in ctx.interval_names:
                raise GcttTypeError(span, "unbound",
                                    f"interval name {n} not in scope")

    def check_face(self, ctx: Ctx, phi: Face, span):
        for n in face_names(env_face(ctx.env, phi)):
            if n not in ctx.interval_names:
                raise GcttTypeError(span, "unbound",
                                    f"interval name {n} not in scope")

    def check_type(self, ctx: Ctx, t: Term) -> Value:
        self.check(ctx, t, VUniv())
        return eval_term(ctx.env, t)

    def abstract(self, ctx: Ctx, binders, value: Value):
        """Turn a value over binder neutrals into a closure."""
        term = readback(ctx.used, value)
        return FnClosure(_apply_abstracted,
                         const=(ctx.env, tuple(x for x, _ in binders), term))

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
                return fty.codomain.apply(eval_term(ctx.env, a))
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
                return pty.second.apply(fst_v(eval_term(ctx.env, p)))
            case S.Lam(binder=x, annotation=ann, body=b):
                if ann is None:
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "cannot infer an unannotated lambda",
                    )
                dom = self.check_type(ctx, ann)
                ctx2, var = ctx.bind_term(x, dom)
                body_ty = self.infer(ctx2, b)
                return VPi(dom, self.abstract(ctx2, [(x, var)], body_ty))
            case S.Zero():
                return VNat()
            case S.Suc(pred=p):
                self.check(ctx, p, VNat())
                return VNat()
            case S.NatRec(motive=m, base=z, step=s, scrutinee=n):
                self.check(ctx, m, VPi(VNat(), FnClosure(_const_univ)))
                mv = eval_term(ctx.env, m)
                self.check(ctx, z, apply_v(mv, VZero()))
                self.check(ctx, s, _natrec_step_type(mv))
                self.check(ctx, n, VNat())
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
                ctx2, iname = ctx.bind_interval(i)
                body_ty = self.infer(ctx2, b)
                space = act(body_ty, {iname: IVar(fresh_iname())})
                if not conv_under(ctx2.face, ctx2.used, body_ty, space):
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "path abstraction over a dependent type",
                    )
                body_v = eval_term(ctx2.env, b)
                return VPathT(
                    act(body_ty, {iname: ZERO}),
                    act(body_v, {iname: ZERO}),
                    act(body_v, {iname: ONE}),
                )
            case S.LaterT(subst=ds, body=b):
                return self.check_later_type(ctx, ds, b, t.span)
            case S.Next(subst=ds, body=b):
                ctx2, entries, binders = self.check_ds(ctx, ds, t.span)
                body_ty = self.infer(ctx2, b)
                return make_later(entries, self.abstract(ctx2, binders, body_ty))
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
                        register_dfix_type(t, readback(ctx.used, later))
                        return later
                    except GcttTypeError:
                        continue
                raise GcttTypeError(
                    t.span, "mismatch",
                    "cannot infer the type of a delayed fixed point here;"
                    " no enclosing expected type fits its body",
                )
            case S.Pair() | S.GlueIntro():
                raise GcttTypeError(
                    t.span, "mismatch",
                    f"cannot infer the type of {term_str(t)}",
                )
        raise GcttTypeError(t.span, "mismatch", f"cannot infer {term_str(t)}")

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
                self.check(ctx, b, ty.second.apply(eval_term(ctx.env, a)))
                return
            case S.PLam(binder=i, body=b) if isinstance(ty, VPathT):
                ctx2, iname = ctx.bind_interval(i)
                self.check(ctx2, b, ty.space)
                body_v = eval_term(ctx2.env, b)
                for r, endpoint, side in ((ZERO, ty.lhs, "left"),
                                          (ONE, ty.rhs, "right")):
                    got = act(body_v, {iname: r})
                    if not conv_under(ctx.face, ctx.used, got, endpoint,
                                      ty.space):
                        raise GcttTypeError(
                            t.span, "boundary-violation",
                            f"{side} endpoint: expected"
                            f" {self._show(ctx, endpoint)}"
                            f" found {self._show(ctx, got)}",
                        )
                return
            case S.Next(subst=ds, body=b) if isinstance(ty, VLaterT):
                ctx2, entries, binders = self.check_ds(ctx, ds, t.span)
                matched = match_later(ty, entries, [v for _, v in binders],
                                      ctx.used, ctx.face)
                if matched is None:
                    # fall back to inference and conversion
                    got = self.infer(ctx, t)
                    self.ensure_conv(ctx, got, ty, t.span, "type")
                    return
                self.check(ctx2, b, matched[0])
                return
            case S.DFix(clock=r, binder=x, body=b) if isinstance(ty, VLaterT):
                self.check_interval(ctx, r, t.span)
                later = canon_later_value(ty, ctx.used)
                if later.entries:
                    raise GcttTypeError(
                        t.span, "mismatch",
                        "delayed fixed point needs a later type without"
                        " a delayed substitution",
                    )
                inner = later.body.apply()
                ctx2, _ = ctx.bind_term(x, later)
                self.check(ctx2, b, inner)
                register_dfix_type(t, readback(ctx.used, later))
                return
            case S.SystemTerm(branches=bs):
                self.check_system(ctx, bs, ty, t.span)
                return
            case S.GlueIntro(face=phi, partial=p, base=a) \
                    if isinstance(ty, VGlueT):
                phi_v = env_face(ctx.env, phi)
                if not face_equal(phi_v, ty.face):
                    raise GcttTypeError(
                        t.span, "mismatch",
                        f"glue face {face_str(phi_v)} differs from the"
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
                if not conv_under(ctx_p.face, ctx_p.used, a_v, want, ty.base):
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

    def check_later_type(self, ctx: Ctx, ds, body, span) -> Value:
        """Later formation: the delayed substitution must be well-formed and
        the body a type (or code) under its binders.  Also covers the code
        rule, since types are universe elements here."""
        ctx2, _entries, _binders = self.check_ds(ctx, ds, span)
        self.check(ctx2, body, VUniv())
        return VUniv()

    def check_glue_type(self, ctx: Ctx, phi, partial, equiv, base,
                        span) -> Value:
        """Glue formation: the partial type lives on the face and the
        attached term must be an equivalence onto the base there."""
        self.check_face(ctx, phi, span)
        self.check(ctx, base, VUniv())
        phi_v = env_face(ctx.env, phi)
        if partial is not None:
            ctx_p = ctx.restrict(phi_v)
            self.check(ctx_p, partial, VUniv())
            part_v = eval_term(ctx.env, partial)
            base_v = eval_term(ctx.env, base)
            self.check(ctx_p, equiv, equiv_type_value(part_v, base_v))
        elif not face_is_false(phi_v):
            raise GcttTypeError(span, "mismatch",
                                "glue type missing its partial type")
        return VUniv()

    # -- delayed substitutions -----------------------------------------------

    def check_ds(self, ctx: Ctx, ds, span):
        """Check a delayed substitution by inference; returns the extended
        context, the entry values, and (binder, neutral) pairs."""
        entries = []
        binders = []
        ctx2 = ctx
        for x, u in ds:
            uty = self.infer(ctx, u)
            if not isinstance(uty, VLaterT):
                raise GcttTypeError(
                    span, "ds-ill-formed",
                    f"binding for {x} has type {self._show(ctx, uty)},"
                    " which is not a later type",
                )
            matched = match_later(uty, entries, [v for _, v in binders],
                                  ctx.used, ctx.face)
            if matched is None:
                raise GcttTypeError(
                    span, "ds-ill-formed",
                    f"binding for {x}: its later type's delayed substitution"
                    " does not match the preceding bindings",
                )
            entries.append((x, eval_term(ctx.env, u)))
            ctx2, var = ctx2.bind_term(x, matched[0])
            binders.append((x, var))
        return ctx2, entries, binders

    # -- systems ---------------------------------------------------------

    def check_system(self, ctx: Ctx, branches, ty: Value, span):
        total = FACE_BOT
        for phi, _ in branches:
            self.check_face(ctx, phi, span)
            total = face_join(total, env_face(ctx.env, phi))
        if not face_equal(face_meet(ctx.face, total), ctx.face):
            raise GcttTypeError(
                span, "face-not-covering",
                f"system faces {face_str(total)} do not cover the context",
            )
        vals = []
        for phi, u in branches:
            phi_v = env_face(ctx.env, phi)
            ctx_b = ctx.restrict(phi_v)
            self.check(ctx_b, u, ty)
            vals.append((phi_v, eval_term(ctx.env, u)))
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                overlap = face_meet(vals[i][0], vals[j][0])
                ctx_o = ctx.restrict(overlap)
                if face_is_false(ctx_o.face):
                    continue
                if not conv_under(ctx_o.face, ctx_o.used, vals[i][1],
                                  vals[j][1], ty):
                    raise GcttTypeError(
                        span, "system-incompatible",
                        f"branches {i + 1} and {j + 1} disagree on"
                        f" {face_str(overlap)}",
                    )

    # -- compositions ------------------------------------------------------

    def check_comp(self, ctx: Ctx, t: S.Comp) -> Value:
        self.check_face(ctx, t.face, t.span)
        phi = env_face(ctx.env, t.face)
        ctx_i, iname = ctx.bind_interval(t.binder)
        line = self.check_type(ctx_i, t.line)
        line0 = act(line, {iname: ZERO})
        line1 = act(line, {iname: ONE})
        tube_v = None
        if isinstance(t.tube, S.SystemTerm):
            if t.tube.branches:
                ctx_tube = ctx_i.restrict(phi)
                self.check_system(ctx_tube, t.tube.branches, line, t.span)
                tube_v = eval_term(ctx_i.env, t.tube)
            elif not face_is_false(phi):
                raise GcttTypeError(
                    t.span, "face-not-covering",
                    "empty tube with a non-empty face",
                )
        else:
            ctx_tube = ctx_i.restrict(phi)
            self.check(ctx_tube, t.tube, line)
            tube_v = eval_term(ctx_i.env, t.tube)
        self.check(ctx, t.base, line0)
        if tube_v is not None and not face_is_false(phi):
            base_v = eval_term(ctx.env, t.base)
            tube0 = act(tube_v, {iname: ZERO})
            if not conv_under(face_meet(ctx.face, phi), ctx.used,
                              base_v, tube0, line0):
                raise GcttTypeError(
                    t.span, "boundary-violation",
                    "composition base disagrees with the tube at 0",
                )
        return line1

    # -- top level ---------------------------------------------------------

    @contextmanager
    def _fuelled(self):
        """Bound the conversion steps of what runs inside by the fuel."""
        FUEL.set(self.fuel)
        try:
            yield
        finally:
            FUEL.set(None)

    def infer_top(self, ctx: Ctx, t: Term) -> Value:
        """Infer the type of a term standing on its own, under the fuel."""
        with self._fuelled(), _fuel_error_at(t.span):
            return self.infer(ctx, t)

    def check_module(self, module: S.ModuleFile, imports=()) -> CheckedModule:
        with self._fuelled():
            ctx = Ctx()
            table = {}
            reports = []
            for imported in imports:
                for name, (ty, val) in imported.table.items():
                    if name not in table:
                        table[name] = (ty, val)
                        ctx = ctx.define(name, ty, val)
            order = []
            for decl in module.declarations:
                if decl.name in order:
                    raise GcttTypeError(decl.span, "mismatch",
                                        f"duplicate declaration {decl.name}")
                start = time.monotonic()
                with _fuel_error_at(decl.span):
                    ty = self.check_type(ctx, decl.type)
                    self.check(ctx, decl.body, ty)
                    value = eval_term(ctx.env, decl.body)
                ctx = ctx.define(decl.name, ty, value)
                table[decl.name] = (ty, value)
                order.append(decl.name)
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


def _apply_abstracted(env, names, term, *vals):
    env = dict(env)
    env.update(zip(names, vals))
    return eval_term(env, term)


def _const_univ(_n):
    return VUniv()


def _natrec_step_type(motive: Value) -> Value:
    def outer(motive, n):
        def inner(motive, n, _prev):
            return apply_v(motive, VSuc(n))

        return VPi(apply_v(motive, n), FnClosure(inner, captured=(motive, n)))

    return VPi(VNat(), FnClosure(outer, captured=(motive,)))
