"""Cast elaboration and the beta-eta-error normalizer.

``elaborate`` rewrites every structural cast into wrapping code over
*ground* casts: single-layer tags ``Nat``, ``? -> ?``, ``? * ?``, ``1`` and
user base types, each cast directly against ``?``.  Identity casts vanish,
function casts become wrappers that cast the argument down and the result
up, product casts cast componentwise, a cast against ``?`` factors
through the ground tag of its other endpoint, and a cast between
axiom-related base types goes up to ``?`` and down.

``normalize`` computes eta-long beta-normal forms by evaluation (Berger
and Schwichtenberg, LICS 1991).  It evaluates the term to a value, pushing
the error through eliminators and ground casts, collapsing same-tag round
trips when the retract flag is on and sending unrelated cross-tag round
trips to the error when the disjointness flag is on; other ground casts
on neutrals stay neutral.  It then reads the value back eta-long at the
type.  Every other cast it runs on values by elaboration's cases
(``_cast`` follows ``_build``): a function cast is a cast closure, the
wrapper as a value, which evaluates its subject only where the wrapper's
body would.  So the normal form of a term is that of its elaboration, up
to the hints of the wrappers' binders.  The term that ``elaborate``
returned last is not typed again: its output, context and type wait in a
one-entry slot on the ``Signature``.

``equal_terms`` types each side once, normalizes it as it is, with no
elaborated term built, and compares with ``==``, equality up to renaming
of bound variables; it is the package's decision layer for
order-equalities.

The elaborator, the evaluator and readback run once per node, and
dispatch on ``type(t)`` (or the value's or type's class) in an if-chain,
frequent classes first, for the reason ``gtt.syntax`` gives: a ``match``
class pattern costs an ``isinstance`` test and a ``__match_args__`` lookup
per field, case after case.
"""

from __future__ import annotations

from functools import partial
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
    ty = infer_type(sig, ctx, t)  # reject ill-typed input up front
    out = _elab(sig, t)[0]
    sig._elaborated = out, ctx, ty
    return out


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
    # typing leaves only axiom-related bases, with no structural route: via ?
    source, target = (lo, hi) if up else (hi, lo)
    return Downcast(target, DYN, Upcast(source, DYN, body(depth)))


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
    """The state of one normalization: the steps left, and for each
    ``Proj`` subject, by ``id``, the subject, its last environment and its
    value there.  Elaboration shares a product cast's subject between the
    two components as one object, so each is evaluated once per
    environment, not once per component at every level of a chain.  An
    entry holds its subject, so no ``id`` is reused while it lives."""
    def __init__(self, steps: int | None):
        self.remaining = steps
        self.subjects: dict[int, tuple] = {}

    def spend(self):
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise NormalizeBudgetExceeded("normalization step budget exhausted")


def normalize(sig: Signature, t: Term, ctx: Context = Context(),
              max_steps: int | None = None) -> Term:
    """Eta-long beta-normal form of a well-typed term.  The term that
    ``elaborate`` returned last on ``sig`` is not typed again under an equal
    context: elaboration keeps the type."""
    last = sig._elaborated
    if last is not None and last[0] is t and last[1] == ctx:
        ty = last[2]
    else:
        ty = infer_type(sig, ctx, t)
    return _normal_form(sig, t, ty, ctx, max_steps)


def _normal_form(sig: Signature, t: Term, ty: Type, ctx: Context,
                 max_steps: int | None = None) -> Term:
    """Evaluate ``t`` and read its value back at ``ty``, its type."""
    fuel = _Fuel(max_steps)
    v = _eval(sig, fuel, t, ({x: _Var(x, a) for x, a in ctx}, ()))
    return _readback(sig, fuel, v, ty, ctx.names())


# Values: closures, cast closures, ``Pair``s of values, the error ``_ERR``,
# ``()``, ground ``Upcast``s of a value, and neutrals: ``_Var``s and ``App``,
# ``Proj``, ground ``Downcast`` and ``FnApp`` nodes holding values.
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


class _CastClosure:
    """A cast between two function types: the wrapper that ``_build`` writes,
    which casts its argument back, applies the subject and casts the result
    on.  ``subject`` computes the subject's value; it is called when the
    wrapper is first applied or opened, where the wrapper's body would
    evaluate it, and its value is kept in ``value``.  ``opened`` caches the
    body's value at a fresh variable, as ``_Closure.opened`` does."""
    __slots__ = ("up", "low", "high", "subject", "value", "opened")

    def __init__(self, up: bool, lo: Fn, hi: Fn, subject: Callable[[], object]):
        self.up, self.low, self.high, self.subject = up, lo, hi, subject
        self.value = self.opened = None


def _eval(sig: Signature, fuel: _Fuel, t: Term, env: tuple):
    """The value of ``t`` in ``env``: the values of the free variables by
    name, and those of the enclosing binders, innermost last."""
    k = type(t)
    if k is Proj:
        tup = t.tup
        seen = fuel.subjects.get(id(tup))
        if seen is not None and seen[1] is env:
            v = seen[2]
        else:
            v = _eval(sig, fuel, tup, env)
            fuel.subjects[id(tup)] = tup, env, v
        if type(v) is Pair:
            fuel.spend()
        return _proj(t.index, v)
    if k is Pair:
        return Pair(_eval(sig, fuel, t.fst, env), _eval(sig, fuel, t.snd, env))
    if k is Err:
        return _ERR
    if k is App:
        fv, av = _eval(sig, fuel, t.fn, env), _eval(sig, fuel, t.arg, env)
        if type(fv) is _Closure:  # here, a beta step takes one frame
            fuel.spend()
            return _eval(sig, fuel, fv.lam.body, (fv.env[0], (*fv.env[1], av)))
        return _apply(sig, fuel, fv, av)
    if k is Downcast or k is Upcast:
        lo, hi = t.low, t.high
        if hi is DYN and is_ground(lo):  # as every cast of an elaborated term
            # is: evaluated here, it takes one frame, as other nodes do
            v = _eval(sig, fuel, t.body, env)
            return _tag(sig, fuel, lo, v) if k is Upcast else _untag(sig, fuel, lo, v)
        return _cast(sig, fuel, k is Upcast, lo, hi, partial(_eval, sig, fuel, t.body, env))
    if k is Lam:
        return _Closure(t, env)
    if k is Var:
        return env[0][t.name]
    if k is Bound:
        return env[1][-1 - t.index]
    if k is FnApp:
        return FnApp(t.sym, tuple(_eval(sig, fuel, a, env) for a in t.args))
    return t


def _apply(sig: Signature, fuel: _Fuel, fv, av):
    """The value of ``fv`` applied to ``av``."""
    k = type(fv)
    if k is _Closure:
        fuel.spend()
        return _eval(sig, fuel, fv.lam.body, (fv.env[0], (*fv.env[1], av)))
    if k is _CastClosure:
        fuel.spend()
        return _unwrap(sig, fuel, fv, av)
    return _ERR if fv is _ERR else App(fv, av)


def _cast(sig: Signature, fuel: _Fuel, up: bool, lo: Type, hi: Type,
          subject: Callable[[], object]):
    """The value of the cast of ``subject()`` from ``lo`` up to ``hi`` if
    ``up``, else from ``hi`` down to ``lo``, by ``_build``'s cases: the value
    of the term that ``_build`` writes, and ``subject`` is called where that
    term would evaluate the subject.  Subjects are ``partial``s where they
    can be, which take no interpreter frame of their own."""
    if lo is hi:
        return subject()
    if hi is DYN:
        tag = floor_type(lo)
        if lo is tag:
            v = subject()
            return _tag(sig, fuel, tag, v) if up else _untag(sig, fuel, tag, v)
        if up:
            return _tag(sig, fuel, tag, _cast(sig, fuel, up, lo, tag, subject))
        return _cast(sig, fuel, up, lo, tag,
                     lambda: _untag(sig, fuel, tag, subject()))
    k = type(lo)
    if k is Fn and type(hi) is Fn:
        return _CastClosure(up, lo, hi, subject)
    if k is Prod and type(hi) is Prod:
        shared: list = []  # both components share the subject's value

        def part(i: int):
            if not shared:
                shared.append(subject())
            return _proj(i, shared[0])
        return Pair(_cast(sig, fuel, up, lo.fst, hi.fst, partial(part, 1)),
                    _cast(sig, fuel, up, lo.snd, hi.snd, partial(part, 2)))
    # axiom-related bases, through ?, as ``_build`` goes
    source, target = (lo, hi) if up else (hi, lo)
    return _untag(sig, fuel, target, _tag(sig, fuel, source, subject()))


def _unwrap(sig: Signature, fuel: _Fuel, c: _CastClosure, av, cast_result: bool = True):
    """The body of the wrapper ``c`` at the argument ``av``: the subject
    applied to the argument cast back, then cast on if ``cast_result``.  An
    identity or ground result cast runs here, so a chain of wrappers takes
    two frames a cast; any other gets the result as a thunk."""
    lo, hi, up = c.low, c.high, c.up
    b, b1 = lo.cod, hi.cod
    if cast_result and b is not b1 and not (b1 is DYN and is_ground(b)):
        return _cast(sig, fuel, up, b, b1, partial(_unwrap, sig, fuel, c, av, False))
    if c.value is None:
        c.value = c.subject()
    v = _apply(sig, fuel, c.value, _cast(sig, fuel, not up, lo.dom, hi.dom, lambda: av))
    if not cast_result or b is b1:
        return v
    return _tag(sig, fuel, b, v) if up else _untag(sig, fuel, b, v)


def _tag(sig: Signature, fuel: _Fuel, g: Type, v):
    """The value of ``up[g => ?]`` on ``v``, for a ground ``g``."""
    return _ERR if _is_err(sig, fuel, v, g) else Upcast(g, DYN, v)


def _untag(sig: Signature, fuel: _Fuel, g: Type, v):
    """The value of ``dn[? => g]`` on ``v``, for a ground ``g``."""
    if type(v) is Upcast:
        if v.low is g and sig.retract:
            fuel.spend()
            return v.body
        if sig.disjointness and _unrelated_grounds(sig, g, v.low):
            fuel.spend()
            return _ERR
    return _ERR if v is _ERR else Downcast(g, DYN, v)


def _open(sig: Signature, fuel: _Fuel, c):
    """A fresh variable for a closure's or cast closure's binder and the
    body's value at it, computed once: an upcast's error test and readback
    share them."""
    if c.opened is None:
        if type(c) is _Closure:
            x = _Var(None, c.lam.annot)
            c.opened = x, _eval(sig, fuel, c.lam.body, (c.env[0], (*c.env[1], x)))
        else:
            x = _Var(None, (c.high if c.up else c.low).dom)
            c.opened = x, _unwrap(sig, fuel, c, x)
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
    if k is _Closure or k is _CastClosure:
        return _is_err(sig, fuel, _open(sig, fuel, v)[1], ty.cod)
    return (k is Pair and _is_err(sig, fuel, v.fst, ty.fst)
            and _is_err(sig, fuel, v.snd, ty.snd))


def _readback(sig: Signature, fuel: _Fuel, v, ty: Type, scope: set[str]) -> Term:
    """The eta-long normal form of ``v`` at ``ty`` under the names in
    ``scope``, one more per binder.  Binder hints are chosen here only; a
    cast closure's is ``x``, where its elaborated wrapper's may be primed."""
    k = type(ty)
    if k is Dyn or k is Base:
        return Err(ty) if v is _ERR else _neutral(sig, fuel, v, scope)[0]
    if k is Fn:
        kv = type(v)
        if kv is _Closure or kv is _CastClosure:
            x, body = _open(sig, fuel, v)
            hint = v.lam.var if kv is _Closure else "x"
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
    """Equality of eta-long normal forms; both terms must share the context
    and the type.  Each side is typed once and normalized as it is: the
    evaluator runs its casts as elaboration would write them."""
    ta = infer_type(sig, ctx, t)
    tb = infer_type(sig, ctx, u)
    if ta != tb:
        raise TypeCheckError(f"equal_terms: type mismatch {ta} vs {tb}")
    return _normal_form(sig, t, ta, ctx) == _normal_form(sig, u, tb, ctx)
