"""Cast elaboration and the beta-eta-error normalizer.

``elaborate`` rewrites every structural cast into wrapping code over
*ground* casts: single-layer tags ``Nat``, ``? -> ?``, ``? * ?``, ``1`` and
user base types, each cast directly against ``?``.  Identity casts vanish,
function casts become wrappers that cast the argument down and the result
up, product casts cast componentwise, and a cast against ``?`` factors
through the ground tag of its other endpoint.

``normalize`` computes eta-long beta-normal forms of elaborated terms,
additionally pushing the error constant through eliminators and ground
casts, collapsing same-tag round trips when the retract flag is on and
sending unrelated cross-tag round trips to the error when the
disjointness flag is on.  ``equal_terms`` composes the two and compares
up to alpha, which is the package's decision layer for order-equalities.
"""

from __future__ import annotations

from .syntax import (
    App, Base, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair,
    Prod, Proj, Term, Type, Unit, UNIT, UnitVal, UNITVAL, Upcast, Var,
    alpha_eq, free_vars, fresh_name, subst1,
)
from .typecheck import Signature, TypeCheckError, infer_type, tydyn_holds


class ElaborationError(GttError):
    pass


class NormalizeBudgetExceeded(GttError):
    pass


# ---------------------------------------------------------------------------
# Ground types
# ---------------------------------------------------------------------------

def is_ground(ty: Type) -> bool:
    """A ground type is one tag layer: a base type, ``? -> ?``, ``? * ?``
    or ``1``.  Every ground type sits directly below ``?``."""
    match ty:
        case Base(_) | Unit():
            return True
        case Fn(a, b) | Prod(a, b):
            return a == DYN and b == DYN
        case _:
            return False


def floor_type(ty: Type) -> Type:
    """The ground tag of a non-dynamic type: its head constructor with
    dynamic arguments."""
    match ty:
        case Base(_) | Unit():
            return ty
        case Fn(_, _):
            return Fn(DYN, DYN)
        case Prod(_, _):
            return Prod(DYN, DYN)
        case _:
            raise ElaborationError("the dynamic type has no ground tag")


def is_elaborated(t: Term) -> bool:
    """True when every cast inside ``t`` is a ground cast against ``?``."""
    from .syntax import subterms
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
    return _elab(sig, t)


def _elab(sig: Signature, t: Term) -> Term:
    match t:
        case Upcast(lo, hi, b):
            return _build_up(sig, lo, hi, _elab(sig, b))
        case Downcast(lo, hi, b):
            return _build_dn(sig, lo, hi, _elab(sig, b))
        case Lam(x, annot, b):
            return Lam(x, annot, _elab(sig, b))
        case App(f, a):
            return App(_elab(sig, f), _elab(sig, a))
        case Pair(a, b):
            return Pair(_elab(sig, a), _elab(sig, b))
        case Proj(i, b):
            return Proj(i, _elab(sig, b))
        case FnApp(f, args):
            return FnApp(f, tuple(_elab(sig, a) for a in args))
        case _:
            return t


def _build_up(sig: Signature, lo: Type, hi: Type, body: Term) -> Term:
    if lo == hi:
        return body
    if hi == DYN:
        tag = floor_type(lo)
        if lo == tag:
            return Upcast(tag, DYN, body)
        return Upcast(tag, DYN, _build_up(sig, lo, tag, body))
    match lo, hi:
        case Fn(a, b), Fn(a1, b1):
            x = fresh_name("x", free_vars(body))
            inner = App(body, _build_dn(sig, a, a1, Var(x)))
            return Lam(x, a1, _build_up(sig, b, b1, inner))
        case Prod(a, b), Prod(a1, b1):
            return Pair(_build_up(sig, a, a1, Proj(1, body)),
                        _build_up(sig, b, b1, Proj(2, body)))
        case Base(_), Base(_):
            # axiom-related bases have no structural route; go through ?
            return Downcast(hi, DYN, Upcast(lo, DYN, body))
        case _:
            raise ElaborationError(f"no elaboration for upcast {lo} => {hi}")


def _build_dn(sig: Signature, lo: Type, hi: Type, body: Term) -> Term:
    if lo == hi:
        return body
    if hi == DYN:
        tag = floor_type(lo)
        if lo == tag:
            return Downcast(tag, DYN, body)
        return _build_dn(sig, lo, tag, Downcast(tag, DYN, body))
    match lo, hi:
        case Fn(a, b), Fn(a1, b1):
            x = fresh_name("x", free_vars(body))
            inner = App(body, _build_up(sig, a, a1, Var(x)))
            return Lam(x, a, _build_dn(sig, b, b1, inner))
        case Prod(a, b), Prod(a1, b1):
            return Pair(_build_dn(sig, a, a1, Proj(1, body)),
                        _build_dn(sig, b, b1, Proj(2, body)))
        case Base(_), Base(_):
            return Downcast(lo, DYN, Upcast(hi, DYN, body))
        case _:
            raise ElaborationError(f"no elaboration for downcast {hi} => {lo}")


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
    ty = infer_type(sig, ctx, t)
    reduced = _reduce(sig, t, _Fuel(max_steps))
    return _eta_long(sig, ctx, reduced, ty)


def _unrelated_grounds(sig: Signature, g: Type, g2: Type) -> bool:
    return g != g2 and not tydyn_holds(sig, g, g2) and not tydyn_holds(sig, g2, g)


def _is_error_value(t: Term, ty: Type) -> bool:
    """Whether a reduced term is the canonical error at its type.  At
    function and product types the error is a constant-error wrapper; at
    the unit type every term already equals the error by the eta law."""
    if t == Err(ty):
        return True
    match ty:
        case Unit():
            return True
        case Fn(_, cod):
            return isinstance(t, Lam) and _is_error_value(t.body, cod)
        case Prod(a, b):
            return (isinstance(t, Pair)
                    and _is_error_value(t.fst, a) and _is_error_value(t.snd, b))
        case _:
            return False


def _reduce(sig: Signature, t: Term, fuel: _Fuel) -> Term:
    match t:
        case Lam(x, annot, b):
            return Lam(x, annot, _reduce(sig, b, fuel))
        case Pair(a, b):
            return Pair(_reduce(sig, a, fuel), _reduce(sig, b, fuel))
        case FnApp(f, args):
            return FnApp(f, tuple(_reduce(sig, a, fuel) for a in args))
        case App(f, a):
            rf = _reduce(sig, f, fuel)
            ra = _reduce(sig, a, fuel)
            match rf:
                case Lam(x, _, body):
                    fuel.spend()
                    return _reduce(sig, subst1(body, x, ra), fuel)
                case Err(Fn(_, cod)):
                    return Err(cod)
                case _:
                    return App(rf, ra)
        case Proj(i, b):
            rb = _reduce(sig, b, fuel)
            match rb:
                case Pair(t1, t2):
                    fuel.spend()
                    return t1 if i == 1 else t2
                case Err(Prod(t1, t2)):
                    return Err(t1 if i == 1 else t2)
                case _:
                    return Proj(i, rb)
        case Upcast(g, hi, b):
            rb = _reduce(sig, b, fuel)
            if _is_error_value(rb, g):
                return Err(hi)
            return Upcast(g, hi, rb)
        case Downcast(g, hi, b):
            rb = _reduce(sig, b, fuel)
            if rb == Err(hi):
                return Err(g)
            match rb:
                case Upcast(g2, _, v):
                    if g2 == g and sig.retract:
                        fuel.spend()
                        return v
                    if sig.disjointness and _unrelated_grounds(sig, g, g2):
                        fuel.spend()
                        return Err(g)
            return Downcast(g, hi, rb)
        case _:
            return t


def _eta_long(sig: Signature, ctx: Context, t: Term, ty: Type) -> Term:
    match ty:
        case Unit():
            return UNITVAL
        case Fn(dom, cod):
            match t:
                case Lam(x, _, b):
                    if x in ctx.names():
                        x2 = fresh_name(x, ctx.names() | free_vars(b))
                        b = subst1(b, x, Var(x2))
                        x = x2
                    return Lam(x, dom, _eta_long(sig, ctx.extend(x, dom), b, cod))
                case Err(_):
                    x = fresh_name("x", ctx.names())
                    return Lam(x, dom, _eta_long(sig, ctx.extend(x, dom), Err(cod), cod))
                case _:
                    x = fresh_name("x", free_vars(t) | ctx.names())
                    inner = ctx.extend(x, dom)
                    return Lam(x, dom, _eta_long(sig, inner, App(t, Var(x)), cod))
        case Prod(a, b):
            match t:
                case Pair(t1, t2):
                    return Pair(_eta_long(sig, ctx, t1, a), _eta_long(sig, ctx, t2, b))
                case Err(_):
                    return Pair(_eta_long(sig, ctx, Err(a), a),
                                _eta_long(sig, ctx, Err(b), b))
                case _:
                    return Pair(_eta_long(sig, ctx, Proj(1, t), a),
                                _eta_long(sig, ctx, Proj(2, t), b))
        case _:
            return _eta_spine(sig, ctx, t)


def _eta_spine(sig: Signature, ctx: Context, t: Term) -> Term:
    """Eta-expand inside a neutral spine without expanding its head."""
    match t:
        case App(f, a):
            fty = infer_type(sig, ctx, f)
            return App(_eta_spine(sig, ctx, f), _eta_long(sig, ctx, a, fty.dom))
        case Proj(i, b):
            return Proj(i, _eta_spine(sig, ctx, b))
        case Upcast(g, hi, b):
            return Upcast(g, hi, _eta_long(sig, ctx, b, g))
        case Downcast(g, hi, b):
            return Downcast(g, hi, _eta_long(sig, ctx, b, hi))
        case FnApp(f, args):
            ins, _ = sig.fn_signature(f)
            return FnApp(f, tuple(
                _eta_long(sig, ctx, a, want) for a, want in zip(args, ins)))
        case _:
            return t


def equal_terms(sig: Signature, t: Term, u: Term, ctx: Context = Context(),
                max_steps: int | None = None) -> bool:
    """Alpha equality of eta-long normal forms after elaboration; both
    terms must share the context and the type."""
    ta = infer_type(sig, ctx, t)
    tb = infer_type(sig, ctx, u)
    if ta != tb:
        raise TypeCheckError(f"equal_terms: type mismatch {ta} vs {tb}")
    nt = normalize(sig, elaborate(sig, ctx, t), ctx, max_steps)
    nu = normalize(sig, elaborate(sig, ctx, u), ctx, max_steps)
    return alpha_eq(nt, nu)
