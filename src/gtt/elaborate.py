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
compares up to alpha, which is the package's decision layer for
order-equalities.  It types each side once, with ``infer_type``'s
environment walk, and normalizes the elaborated side at that type.
"""

from __future__ import annotations

from .syntax import (
    App, Base, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair,
    Prod, Proj, Term, Type, Unit, UNITVAL, Upcast, Var,
    alpha_eq, free_vars, fresh_name,
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
            body = _elab(sig, b)
            return _build_up(sig, lo, hi, body, free_vars(body))
        case Downcast(lo, hi, b):
            body = _elab(sig, b)
            return _build_dn(sig, lo, hi, body, free_vars(body))
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


# ``_build_up`` and ``_build_dn`` take the free variables of ``body``.  Every
# wrapper they build has exactly those free variables, so a function wrapper
# passes them on with its own binder added instead of scanning its body.

def _build_up(sig: Signature, lo: Type, hi: Type, body: Term, fvs: set[str]) -> Term:
    if lo == hi:
        return body
    if hi == DYN:
        tag = floor_type(lo)
        if lo == tag:
            return Upcast(tag, DYN, body)
        return Upcast(tag, DYN, _build_up(sig, lo, tag, body, fvs))
    match lo, hi:
        case Fn(a, b), Fn(a1, b1):
            x = fresh_name("x", fvs)
            inner = App(body, _build_dn(sig, a, a1, Var(x), {x}))
            return Lam(x, a1, _build_up(sig, b, b1, inner, fvs | {x}))
        case Prod(a, b), Prod(a1, b1):
            return Pair(_build_up(sig, a, a1, Proj(1, body), fvs),
                        _build_up(sig, b, b1, Proj(2, body), fvs))
        case Base(_), Base(_):
            # axiom-related bases have no structural route; go through ?
            return Downcast(hi, DYN, Upcast(lo, DYN, body))
        case _:
            raise ElaborationError(f"no elaboration for upcast {lo} => {hi}")


def _build_dn(sig: Signature, lo: Type, hi: Type, body: Term, fvs: set[str]) -> Term:
    if lo == hi:
        return body
    if hi == DYN:
        tag = floor_type(lo)
        if lo == tag:
            return Downcast(tag, DYN, body)
        return _build_dn(sig, lo, tag, Downcast(tag, DYN, body), fvs)
    match lo, hi:
        case Fn(a, b), Fn(a1, b1):
            x = fresh_name("x", fvs)
            inner = App(body, _build_up(sig, a, a1, Var(x), {x}))
            return Lam(x, a, _build_dn(sig, b, b1, inner, fvs | {x}))
        case Prod(a, b), Prod(a1, b1):
            return Pair(_build_dn(sig, a, a1, Proj(1, body), fvs),
                        _build_dn(sig, b, b1, Proj(2, body), fvs))
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
    return _normal_form(sig, t, infer_type(sig, ctx, t), ctx, max_steps)


def _normal_form(sig: Signature, t: Term, ty: Type, ctx: Context,
                 max_steps: int | None = None) -> Term:
    """Evaluate ``t`` and read its value back at ``ty``, its type."""
    fuel = _Fuel(max_steps)
    v = _eval(sig, fuel, t, {x: _Var(x, a) for x, a in ctx})
    return _readback(sig, fuel, v, ty, ctx.names())


# Values: closures, ``Pair``s of values, the error ``_ERR``, ``()``, ``Upcast``s
# of a value, and neutrals: ``_Var``s and ``App``, ``Proj``, ``Downcast`` and
# ``FnApp`` nodes holding values.
_ERR = object()  # the error, at whatever type it is read back


class _Var:
    """A neutral variable; readback names it as it enters scope."""
    __slots__ = ("name", "type")

    def __init__(self, name: str | None, ty: Type):
        self.name, self.type = name, ty


class _Closure:
    """A lambda and its environment; the hint for its binder's name is
    ``lam.var``.  ``opened`` caches the body's value at a fresh variable."""
    __slots__ = ("lam", "env", "opened")

    def __init__(self, lam: Lam, env: dict):
        self.lam, self.env, self.opened = lam, env, None


def _eval(sig: Signature, fuel: _Fuel, t: Term, env: dict):
    match t:
        case Var(x):
            return env[x]
        case Lam():
            return _Closure(t, env)
        case App(f, a):
            fv, av = _eval(sig, fuel, f, env), _eval(sig, fuel, a, env)
            if isinstance(fv, _Closure):
                fuel.spend()
                return _eval(sig, fuel, fv.lam.body, {**fv.env, fv.lam.var: av})
            return _ERR if fv is _ERR else App(fv, av)
        case Pair(a, b):
            return Pair(_eval(sig, fuel, a, env), _eval(sig, fuel, b, env))
        case Proj(i, b):
            v = _eval(sig, fuel, b, env)
            if isinstance(v, Pair):
                fuel.spend()
            return _proj(i, v)
        case FnApp(f, args):
            return FnApp(f, tuple(_eval(sig, fuel, a, env) for a in args))
        case Upcast(g, hi, b):
            v = _eval(sig, fuel, b, env)
            return _ERR if _is_err(sig, fuel, v, g) else Upcast(g, hi, v)
        case Downcast(g, hi, b):
            v = _eval(sig, fuel, b, env)
            if isinstance(v, Upcast):
                if v.low == g and sig.retract:
                    fuel.spend()
                    return v.body
                if sig.disjointness and _unrelated_grounds(sig, g, v.low):
                    fuel.spend()
                    return _ERR
            return _ERR if v is _ERR else Downcast(g, hi, v)
        case Err(_):
            return _ERR
        case _:
            return t


def _open(sig: Signature, fuel: _Fuel, c: _Closure):
    """A fresh variable for the closure's binder and the body's value at it,
    computed once: an upcast's error test and readback share them."""
    if c.opened is None:
        x = _Var(None, c.lam.annot)
        c.opened = x, _eval(sig, fuel, c.lam.body, {**c.env, c.lam.var: x})
    return c.opened


def _proj(i: int, v):
    if isinstance(v, Pair):
        return v.fst if i == 1 else v.snd
    return _ERR if v is _ERR else Proj(i, v)


def _is_err(sig: Signature, fuel: _Fuel, v, ty: Type) -> bool:
    """Whether ``v`` is the error at ``ty``.  At function and product types
    the error is a constant-error closure or a pair of errors; at the unit
    type every value is the error by the eta law."""
    if v is _ERR or isinstance(ty, Unit):
        return True
    if isinstance(v, _Closure):
        return _is_err(sig, fuel, _open(sig, fuel, v)[1], ty.cod)
    return (isinstance(v, Pair) and _is_err(sig, fuel, v.fst, ty.fst)
            and _is_err(sig, fuel, v.snd, ty.snd))


def _readback(sig: Signature, fuel: _Fuel, v, ty: Type, scope: set[str]) -> Term:
    """The eta-long normal form of ``v`` at ``ty`` under the names in
    ``scope``.  Binder names are chosen here and nowhere else."""
    match ty:
        case Unit():
            return UNITVAL
        case Fn(dom, cod):
            if isinstance(v, _Closure):
                (x, body), hint = _open(sig, fuel, v), v.lam.var
            else:
                x, hint = _Var(None, dom), "x"
                body = _ERR if v is _ERR else App(v, x)
            x.name = fresh_name(hint, scope)
            return Lam(x.name, dom, _readback(sig, fuel, body, cod, scope | {x.name}))
        case Prod(a, b):
            return Pair(_readback(sig, fuel, _proj(1, v), a, scope),
                        _readback(sig, fuel, _proj(2, v), b, scope))
        case _:
            return Err(ty) if v is _ERR else _neutral(sig, fuel, v, scope)[0]


def _neutral(sig: Signature, fuel: _Fuel, v, scope: set[str]) -> tuple[Term, Type]:
    """Read back a neutral or an upcast, with its type, which comes from
    the variable, the cast or the symbol at its head."""
    match v:
        case _Var():
            return Var(v.name), v.type
        case App(f, a):
            tf, fty = _neutral(sig, fuel, f, scope)
            return App(tf, _readback(sig, fuel, a, fty.dom, scope)), fty.cod
        case Proj(i, p):
            tp, pty = _neutral(sig, fuel, p, scope)
            return Proj(i, tp), pty.fst if i == 1 else pty.snd
        case Upcast(g, hi, b):
            return Upcast(g, hi, _readback(sig, fuel, b, g, scope)), hi
        case Downcast(g, hi, b):
            return Downcast(g, hi, _readback(sig, fuel, b, hi, scope)), g
        case FnApp(f, args):
            ins, out = sig.fn_signature(f)
            return FnApp(f, tuple(_readback(sig, fuel, a, want, scope)
                                  for a, want in zip(args, ins))), out


def equal_terms(sig: Signature, t: Term, u: Term,
                ctx: Context = Context()) -> bool:
    """Alpha equality of eta-long normal forms after elaboration; both
    terms must share the context and the type.  Each side is typed once:
    elaboration preserves the type."""
    ta = infer_type(sig, ctx, t)
    tb = infer_type(sig, ctx, u)
    if ta != tb:
        raise TypeCheckError(f"equal_terms: type mismatch {ta} vs {tb}")
    nt = _normal_form(sig, _elab(sig, t), ta, ctx)
    nu = _normal_form(sig, _elab(sig, u), tb, ctx)
    return alpha_eq(nt, nu)
