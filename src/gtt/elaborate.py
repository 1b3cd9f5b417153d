"""Cast elaboration and the beta-eta-error normalizer.

``elaborate`` rewrites every structural cast into wrapping code over
*ground* casts: single-layer tags ``Nat``, ``? -> ?``, ``? * ?``, ``1`` and
user base types, each cast directly against ``?``.  Identity casts vanish,
function casts become wrappers that cast the argument down and the result
up, product casts cast componentwise, and a cast against ``?`` factors
through the ground tag of its other endpoint.

``normalize`` computes eta-long beta-normal forms of elaborated terms by
evaluation (Berger and Schwichtenberg, LICS 1991).  It evaluates the term
to a value, pushing the error through eliminators and ground casts,
collapsing same-tag round trips when the retract flag is on and sending
unrelated cross-tag round trips to the error when the disjointness flag
is on; other ground casts on neutrals stay neutral.  It then reads the
value back eta-long at the type.  ``equal_terms`` composes the two and
compares with ``==``, equality up to renaming of bound variables; it is
the package's decision layer for order-equalities.  It types each side
once, with ``infer_type``'s walk, and normalizes the elaborated side at
that type.

The elaborator, the evaluator and readback run once per node, and
dispatch on ``type(t)`` (or the value's or type's class) in an if-chain,
frequent classes first, for the reason ``gtt.syntax`` gives: a ``match``
class pattern costs an ``isinstance`` test and a ``__match_args__`` lookup
per field, case after case.
"""

from __future__ import annotations

from typing import Callable

from .syntax import (
    App, Base, Bound, Context, Downcast, Dyn, DYN, Err, Fn, FnApp, GttError,
    Lam, Pair, Prod, Proj, Term, Type, Unit, UNITVAL, Upcast, Var, fresh_name,
    shift, subterms,
)
from .typecheck import (
    Signature, TypeCheckError, _unrelated_grounds, floor_type, infer_type,
    is_ground,
)


class ElaborationError(GttError):
    pass


class NormalizeBudgetExceeded(GttError):
    pass


def is_elaborated(t: Term) -> bool:
    """True when every cast inside ``t`` is a ground cast against ``?``."""
    for s in subterms(t):
        match s:
            case Upcast(lo, hi, _) | Downcast(lo, hi, _):
                if hi != DYN or not is_ground(lo):
                    return False
            case _:
                pass
    return True


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

def elaborate(sig: Signature, ctx: Context, t: Term) -> Term:
    """Rewrite all casts of a well-typed term to ground casts, preserving
    the type."""
    infer_type(sig, ctx, t)  # reject ill-typed input up front
    return _elab(sig, t)[0]


def _elab(sig: Signature, t: Term, hints: tuple[str, ...] = ()) -> tuple[Term, set]:
    """``t`` elaborated, and its free variables: by name, or by index for the
    enclosing binders, whose hints are ``hints``, innermost last."""
    k = type(t)
    if k is Var:
        return t, {t.name}
    if k is Bound:
        return t, {t.index}
    if k is Upcast or k is Downcast:
        body, free = _elab(sig, t.body, hints)
        names = {hints[-1 - v] if type(v) is int else v for v in free}
        loose = any(type(v) is int for v in free)
        placed = lambda d: shift(body, d) if d and loose else body
        return _build(sig, k is Upcast, t.low, t.high, placed, names, 0), free
    if k is Pair:
        (a, fa), (b, fb) = _elab(sig, t.fst, hints), _elab(sig, t.snd, hints)
        return Pair(a, b), fa | fb
    if k is App:
        (f, ff), (a, fa) = _elab(sig, t.fn, hints), _elab(sig, t.arg, hints)
        return App(f, a), ff | fa
    if k is Proj:
        body, free = _elab(sig, t.tup, hints)
        return Proj(t.index, body), free
    if k is Lam:
        body, free = _elab(sig, t.body, (*hints, t.var))
        return Lam.nameless(t.var, t.annot, body), {
            v - 1 if type(v) is int else v for v in free if v != 0}
    if k is FnApp:
        elab = [_elab(sig, a, hints) for a in t.args]
        return FnApp(t.sym, tuple(a for a, _ in elab)), set().union(*(v for _, v in elab))
    return t, set()


def _build(sig: Signature, up: bool, lo: Type, hi: Type,
           body: Callable[[int], Term], fvs: set[str], depth: int) -> Term:
    """The cast of the subject from ``lo`` up to ``hi`` if ``up``, else from
    ``hi`` down to ``lo``, under ``depth`` wrapper binders.  ``body`` puts the
    subject under a number of them, so no body is closed by a walk.  ``fvs``
    are the subject's names, which every wrapper has, so a function wrapper
    adds its own binder's hint to them instead of scanning."""
    if lo == hi:
        return body(depth)
    if hi == DYN:
        tag = floor_type(lo)
        if lo == tag:
            return (Upcast if up else Downcast)(tag, DYN, body(depth))
        if up:
            return Upcast(tag, DYN, _build(sig, up, lo, tag, body, fvs, depth))
        return _build(sig, up, lo, tag, lambda d: Downcast(tag, DYN, body(d)), fvs, depth)
    k = type(lo)
    if k is Fn and type(hi) is Fn:
        a, b, a1, b1 = lo.dom, lo.cod, hi.dom, hi.cod
        x, arg = fresh_name("x", fvs), lambda d: Bound(d - 1 - depth)
        inner = lambda d: App(body(d), _build(sig, not up, a, a1, arg, {x}, d))
        return Lam.nameless(x, a1 if up else a,
                            _build(sig, up, b, b1, inner, fvs | {x}, depth + 1))
    if k is Prod and type(hi) is Prod:
        a, b, a1, b1 = lo.fst, lo.snd, hi.fst, hi.snd
        built: dict[int, Term] = {}  # both components share the subject
        shared = lambda d: built.get(d) or built.setdefault(d, body(d))
        return Pair(_build(sig, up, a, a1, lambda d: Proj(1, shared(d)), fvs, depth),
                    _build(sig, up, b, b1, lambda d: Proj(2, shared(d)), fvs, depth))
    if k is Base and type(hi) is Base:
        # axiom-related bases have no structural route; go through ?
        source, target = (lo, hi) if up else (hi, lo)
        return Downcast(target, DYN, Upcast(source, DYN, body(depth)))
    cast = f"upcast {lo} => {hi}" if up else f"downcast {hi} => {lo}"
    raise ElaborationError(f"no elaboration for {cast}")


def oblique_cast(a: Type, b: Type, t: Term) -> Term:
    """The general cast from ``a`` to ``b``: up through ``?`` then down,
    with identity halves dropped."""
    if a == b:
        return t
    up = t if a == DYN else Upcast(a, DYN, t)
    return up if b == DYN else Downcast(b, DYN, up)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

class _Fuel:
    def __init__(self, steps: int | None):
        self.remaining = steps

    def spend(self):
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise NormalizeBudgetExceeded("normalization step budget exhausted")


def normalize(sig: Signature, t: Term, ctx: Context = Context(),
              max_steps: int | None = None) -> Term:
    """Eta-long beta-normal form of a well-typed elaborated term."""
    return _normal_form(sig, t, infer_type(sig, ctx, t), ctx, max_steps)


def _normal_form(sig: Signature, t: Term, ty: Type, ctx: Context,
                 max_steps: int | None = None) -> Term:
    """Evaluate ``t`` and read its value back at ``ty``, its type."""
    fuel = _Fuel(max_steps)
    v = _eval(sig, fuel, t, ({x: _Var(x, a) for x, a in ctx}, ()))
    return _readback(sig, fuel, v, ty, ctx.names())


# Values: closures, ``Pair``s of values, the error ``_ERR``, ``()``, ``Upcast``s
# of a value, and neutrals: ``_Var``s and ``App``, ``Proj``, ``Downcast`` and
# ``FnApp`` nodes holding values.
_ERR = object()  # the error, at whatever type it is read back


class _Var:
    """A neutral variable; readback names a bound one and gives it a level."""
    __slots__ = ("name", "type", "level")

    def __init__(self, name: str | None, ty: Type):
        self.name, self.type, self.level = name, ty, None


class _Closure:
    """A lambda and its environment; the hint for its binder's name is
    ``lam.var``.  ``opened`` caches the body's value at a fresh variable."""
    __slots__ = ("lam", "env", "opened")

    def __init__(self, lam: Lam, env: tuple):
        self.lam, self.env, self.opened = lam, env, None


def _eval(sig: Signature, fuel: _Fuel, t: Term, env: tuple):
    """The value of ``t`` in ``env``: the values of the free variables by
    name, and those of the enclosing binders, innermost last."""
    k = type(t)
    if k is Proj:
        v = _eval(sig, fuel, t.tup, env)
        if type(v) is Pair:
            fuel.spend()
        return _proj(t.index, v)
    if k is Pair:
        return Pair(_eval(sig, fuel, t.fst, env), _eval(sig, fuel, t.snd, env))
    if k is Err:
        return _ERR
    if k is App:
        fv, av = _eval(sig, fuel, t.fn, env), _eval(sig, fuel, t.arg, env)
        if type(fv) is _Closure:
            fuel.spend()
            return _eval(sig, fuel, fv.lam.body, (fv.env[0], (*fv.env[1], av)))
        return _ERR if fv is _ERR else App(fv, av)
    if k is Downcast:
        g, v = t.low, _eval(sig, fuel, t.body, env)
        if type(v) is Upcast:
            if v.low is g and sig.retract:
                fuel.spend()
                return v.body
            if sig.disjointness and _unrelated_grounds(sig, g, v.low):
                fuel.spend()
                return _ERR
        return _ERR if v is _ERR else Downcast(g, t.high, v)
    if k is Upcast:
        g, v = t.low, _eval(sig, fuel, t.body, env)
        return _ERR if _is_err(sig, fuel, v, g) else Upcast(g, t.high, v)
    if k is Lam:
        return _Closure(t, env)
    if k is Var:
        return env[0][t.name]
    if k is Bound:
        return env[1][-1 - t.index]
    if k is FnApp:
        return FnApp(t.sym, tuple(_eval(sig, fuel, a, env) for a in t.args))
    return t


def _open(sig: Signature, fuel: _Fuel, c: _Closure):
    """A fresh variable for the closure's binder and the body's value at it,
    computed once: an upcast's error test and readback share them."""
    if c.opened is None:
        x = _Var(None, c.lam.annot)
        c.opened = x, _eval(sig, fuel, c.lam.body, (c.env[0], (*c.env[1], x)))
    return c.opened


def _proj(i: int, v):
    if type(v) is Pair:
        return v.fst if i == 1 else v.snd
    return _ERR if v is _ERR else Proj(i, v)


def _is_err(sig: Signature, fuel: _Fuel, v, ty: Type) -> bool:
    """Whether ``v`` is the error at ``ty``.  At function and product types
    the error is a constant-error closure or a pair of errors; at the unit
    type every value is the error by the eta law."""
    if v is _ERR or type(ty) is Unit:
        return True
    k = type(v)
    if k is _Closure:
        return _is_err(sig, fuel, _open(sig, fuel, v)[1], ty.cod)
    return (k is Pair and _is_err(sig, fuel, v.fst, ty.fst)
            and _is_err(sig, fuel, v.snd, ty.snd))


def _readback(sig: Signature, fuel: _Fuel, v, ty: Type, scope: set[str]) -> Term:
    """The eta-long normal form of ``v`` at ``ty`` under the names in
    ``scope``, one more per binder.  Binder hints are chosen here only."""
    k = type(ty)
    if k is Dyn or k is Base:
        return Err(ty) if v is _ERR else _neutral(sig, fuel, v, scope)[0]
    if k is Fn:
        if type(v) is _Closure:
            (x, body), hint = _open(sig, fuel, v), v.lam.var
        else:
            x, hint = _Var(None, ty.dom), "x"
            body = _ERR if v is _ERR else App(v, x)
        x.name, x.level = fresh_name(hint, scope), len(scope)
        return Lam.nameless(
            x.name, ty.dom, _readback(sig, fuel, body, ty.cod, scope | {x.name}))
    if k is Prod:
        return Pair(_readback(sig, fuel, _proj(1, v), ty.fst, scope),
                    _readback(sig, fuel, _proj(2, v), ty.snd, scope))
    return UNITVAL


def _neutral(sig: Signature, fuel: _Fuel, v, scope: set[str]) -> tuple[Term, Type]:
    """Read back a neutral or an upcast, with its type, which comes from
    the variable, the cast or the symbol at its head."""
    k = type(v)
    if k is _Var:
        if v.level is None:
            return Var(v.name), v.type
        return Bound(len(scope) - 1 - v.level), v.type
    if k is Proj:
        tp, pty = _neutral(sig, fuel, v.tup, scope)
        return Proj(v.index, tp), pty.fst if v.index == 1 else pty.snd
    if k is App:
        tf, fty = _neutral(sig, fuel, v.fn, scope)
        return App(tf, _readback(sig, fuel, v.arg, fty.dom, scope)), fty.cod
    if k is Upcast:
        return Upcast(v.low, v.high, _readback(sig, fuel, v.body, v.low, scope)), v.high
    if k is Downcast:
        return Downcast(v.low, v.high, _readback(sig, fuel, v.body, v.high, scope)), v.low
    ins, out = sig.fn_signature(v.sym)  # a symbol application
    return FnApp(v.sym, tuple(_readback(sig, fuel, a, want, scope)
                              for a, want in zip(v.args, ins))), out


def equal_terms(sig: Signature, t: Term, u: Term,
                ctx: Context = Context()) -> bool:
    """Equality of eta-long normal forms after elaboration; both
    terms must share the context and the type.  Each side is typed once:
    elaboration preserves the type."""
    ta = infer_type(sig, ctx, t)
    tb = infer_type(sig, ctx, u)
    if ta != tb:
        raise TypeCheckError(f"equal_terms: type mismatch {ta} vs {tb}")
    nt = _normal_form(sig, _elab(sig, t)[0], ta, ctx)
    nu = _normal_form(sig, _elab(sig, u)[0], tb, ctx)
    return nt == nu
