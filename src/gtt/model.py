"""A pointed-preorder model in which ``?`` is a sum of the other types.

Types denote pointed preorders: naturals-with-error for base types,
componentwise pairs, a one-point unit and monotone maps for functions.
The dynamic type solves ``D = N + D * D`` with one value domain: its
error is the base types' error ``NatVal(None)``, a leaf is a ``NatVal``
and a node is a ``PairVal`` of two values of ``?``, so its values are
finite binary trees whose order lets any subtree collapse to the error.
Every derivable dynamism pair carries a coreflection (an upcast whose
downcast retracts it), with first-order types embedding into ``?`` by the
ground tags of its summands:

* a base value ``n`` becomes the leaf ``n`` (shifted by its code range),
* a value of ``? * ?`` is itself a node, except that the pair of errors
  glues to the error,
* the unit value embeds as the error itself,
* downcasts strip the matching tag and error out on anything else.

The dynamic type has no function summand, so function types never sit
below ``?`` here; everything stays away from ``?`` or first-order.
Checks over function spaces are bounded: they enumerate arguments up to a
bound and say so, proving nothing beyond it.

Terms and orders are compiled, not interpreted: ``compile_term`` turns a
term into a closure over the environment once, each cast finding its
coreflection map on first use, and ``order_at`` builds each type's order
once per bound.  A judgment check compiles its two terms once and walks
every related pair of environments, but it evaluates each term, and
upcasts each left value, once per distinct environment of its side: the
values are memoized per call, keyed by their positions in
``enumerate_values``, and computed at the first pair that needs them, so
an evaluation error is raised at the same pair as without the memo.  An
equipment check applies the upcast and the downcast once per value.
``eval_term`` and ``value_leq_at`` compile and apply in one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .syntax import (
    App, Base, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair, Prod,
    Proj, Term, Type, Unit, UNIT, UnitVal, Upcast, Var,
)
from .typecheck import Signature, first_order, tydyn_holds
from .dynamism import Derivation, DynJudgment


class ModelError(GttError):
    pass


# ---------------------------------------------------------------------------
# Semantic values
# ---------------------------------------------------------------------------

class SemValue:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class NatVal(SemValue):
    """A base-type value or a leaf of ``?``: a natural, or None for the
    error."""
    n: Optional[int]


@dataclass(frozen=True, slots=True)
class PairVal(SemValue):
    fst: SemValue
    snd: SemValue


@dataclass(frozen=True, slots=True)
class UnitValSem(SemValue):
    pass


UNIT_SEM = UnitValSem()
ERR_SEM = NatVal(None)  # the error of a base type and of ``?``


class FnVal(SemValue):
    """A monotone map represented as a closure; compared only pointwise
    within a bound, never by identity."""
    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[SemValue], SemValue]):
        self.fn = fn

    def __call__(self, v: SemValue) -> SemValue:
        return self.fn(v)


def least_value(sig: Signature, ty: Type) -> SemValue:
    match ty:
        case Unit():
            return UNIT_SEM
        case Prod(a, b):
            return PairVal(least_value(sig, a), least_value(sig, b))
        case Fn(_, cod):
            bottom = least_value(sig, cod)
            return FnVal(lambda _v: bottom)
        case _:
            return ERR_SEM


def denotable(sig: Signature, ty: Type) -> bool:
    """Types this model interprets: everything built from declared bases
    (with code ranges when there is more than one), unit, products,
    functions and ``?``."""
    match ty:
        case Base(n):
            return n in sig.base_types and _base_range(sig, n) is not None
        case Prod(a, b) | Fn(a, b):
            return denotable(sig, a) and denotable(sig, b)
        case _:
            return True


def _base_range(sig: Signature, name: str) -> tuple[int, float] | None:
    if name in sig.base_codes:
        return sig.base_codes[name]
    if name == "Nat" and not sig.base_codes:
        return (0, float("inf"))
    return None


def model_signature(sig: Signature) -> Signature:
    """The signature with ``?`` restricted to function-free types, which is
    the fragment this model supports."""
    cached = sig._model_cache.get("fo_sig")
    if cached is None:
        cached = sig.first_order_dyn()
        sig._model_cache["fo_sig"] = cached
    return cached


# ---------------------------------------------------------------------------
# Orders and enumeration
# ---------------------------------------------------------------------------

Order = Callable[[SemValue, SemValue], bool]


def order_at(sig: Signature, ty: Type, bound: int = 2) -> Order:
    """The pointed-preorder order within one type's denotation, compiled
    once per type and bound.  Function orders are checked pointwise on the
    arguments within the bound."""
    key = ("leq", ty, bound)
    cached = sig._model_cache.get(key)
    if cached is None:
        cached = _compile_order(sig, ty, bound)
        sig._model_cache[key] = cached
    return cached


def _compile_order(sig: Signature, ty: Type, bound: int) -> Order:
    match ty:
        case Base(_):
            return lambda v, w: v.n is None or v == w
        case Unit():
            return lambda v, w: True
        case Prod(a, b):
            leq_a, leq_b = order_at(sig, a, bound), order_at(sig, b, bound)
            return lambda v, w: leq_a(v.fst, w.fst) and leq_b(v.snd, w.snd)
        case Fn(dom, cod):
            leq_cod = order_at(sig, cod, bound)
            return lambda v, w: all(leq_cod(v(arg), w(arg))
                                    for arg in enumerate_values(sig, dom, bound))
        case _:
            return _dyn_leq


def _dyn_leq(v: SemValue, w: SemValue) -> bool:
    """The order at ``?``: ``v`` is below ``w`` when it arises by replacing
    subtrees of ``w`` with the error."""
    if type(v) is PairVal:
        return (type(w) is PairVal and _dyn_leq(v.fst, w.fst)
                and _dyn_leq(v.snd, w.snd))
    return v.n is None or (type(w) is NatVal and w.n == v.n)


def value_leq_at(sig: Signature, ty: Type, v: SemValue, w: SemValue,
                 bound: int = 2) -> bool:
    """Whether ``v`` is below ``w`` in ``ty``'s denotation."""
    return order_at(sig, ty, bound)(v, w)


def enumerate_values(sig: Signature, ty: Type, bound: int = 2) -> list[SemValue]:
    """All values of a function-free type within the bound: naturals below
    ``bound``, and at ``?`` pairs nested at most ``bound - 1`` deep."""
    key = ("values", ty, bound)
    cached = sig._model_cache.get(key)
    if cached is None:
        cached = _enumerate_values(sig, ty, bound)
        sig._model_cache[key] = cached
    return cached


def _enumerate_values(sig: Signature, ty: Type, bound: int) -> list[SemValue]:
    match ty:
        case Base(name):
            rng = _base_range(sig, name)
            if rng is None:
                raise ModelError(f"base type {name} has no code range")
            lo, hi = rng
            top = min(bound, hi - lo) if hi != float("inf") else bound
            return [NatVal(None)] + [NatVal(n) for n in range(int(top))]
        case Unit():
            return [UNIT_SEM]
        case Prod(a, b):
            return [PairVal(x, y)
                    for x in enumerate_values(sig, a, bound)
                    for y in enumerate_values(sig, b, bound)]
        case Fn(_, _):
            raise ModelError("cannot enumerate a function space")
        case _:
            return _enumerate_dyn(bound)


def _enumerate_dyn(bound: int) -> list[SemValue]:
    """The error and the leaves ``0 .. bound-1``, then each round the new
    pairs of everything so far, the first component varying slowest."""
    out: list[SemValue] = [ERR_SEM] + [NatVal(n) for n in range(bound)]
    seen = set(out)
    for _ in range(bound - 1):
        fresh = [p for a in out for b in out
                 if (p := PairVal(a, b)) not in seen]
        seen.update(fresh)
        out.extend(fresh)
    return out


# ---------------------------------------------------------------------------
# Coreflections
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Coreflection:
    src: Type
    tgt: Type
    up: Callable[[SemValue], SemValue]
    dn: Callable[[SemValue], SemValue]

    @staticmethod
    def identity(ty: Type) -> "Coreflection":
        return Coreflection(ty, ty, lambda v: v, lambda v: v)

    def compose(self, outer: "Coreflection") -> "Coreflection":
        """self : A <| B composed with outer : B <| C gives A <| C."""
        up1, dn1, up2, dn2 = self.up, self.dn, outer.up, outer.dn
        return Coreflection(self.src, outer.tgt,
                            lambda v: up2(up1(v)),
                            lambda v: dn1(dn2(v)))


def _tag_coreflection(sig: Signature, ground: Type) -> Coreflection:
    """The chosen embedding of a ground tag into ``?``."""
    match ground:
        case Base(name):
            rng = _base_range(sig, name)
            if rng is None:
                raise ModelError(
                    f"base type {name} needs a code range to embed into ?")
            lo, hi = rng

            def up(v: SemValue) -> SemValue:
                if v.n is None:
                    return ERR_SEM
                if lo + v.n >= hi:
                    raise ModelError(f"value {v.n} exceeds the code range of {name}")
                return NatVal(lo + v.n)

            def dn(v: SemValue) -> SemValue:
                match v:
                    case NatVal(int(m)) if lo <= m < hi:
                        return NatVal(m - lo)
                    case _:
                        return ERR_SEM

            return Coreflection(ground, DYN, up, dn)
        case Prod(a, b) if a == DYN and b == DYN:
            bottom = PairVal(ERR_SEM, ERR_SEM)
            return Coreflection(
                ground, DYN,
                # the wedge glues the two bottoms
                lambda v: ERR_SEM if v == bottom else v,
                lambda v: v if type(v) is PairVal else bottom)
        case Unit():
            return Coreflection(UNIT, DYN,
                                lambda _v: ERR_SEM,
                                lambda _v: UNIT_SEM)
        case _:
            raise ModelError(f"type {ground} has no tag in the dynamic type")


def denote_coreflection(sig: Signature, a: Type, b: Type) -> Coreflection:
    """The coreflection for a derivable pair ``a <= b``, built structurally
    and through ground tags at ``?``."""
    key = ("coref", a, b)
    cached = sig._model_cache.get(key)
    if cached is not None:
        return cached
    msig = model_signature(sig)
    if not (denotable(sig, a) and denotable(sig, b)):
        raise ModelError(f"types not denotable in the tree model: {a}, {b}")
    if not tydyn_holds(msig, a, b):
        raise ModelError(f"{a} <= {b} is not derivable in the first-order model")
    out = _coref(sig, a, b)
    sig._model_cache[key] = out
    return out


def _coref(sig: Signature, a: Type, b: Type) -> Coreflection:
    if a == b:
        return Coreflection.identity(a)
    if b == DYN:
        from .elaborate import floor_type
        tag = floor_type(a)
        tagc = _tag_coreflection(sig, tag)
        if a == tag:
            return tagc
        return _coref(sig, a, tag).compose(tagc)
    match a, b:
        case Prod(a1, a2), Prod(b1, b2):
            c1, c2 = _coref(sig, a1, b1), _coref(sig, a2, b2)
            return Coreflection(
                a, b,
                lambda v: PairVal(c1.up(v.fst), c2.up(v.snd)),
                lambda v: PairVal(c1.dn(v.fst), c2.dn(v.snd)))
        case Fn(a1, a2), Fn(b1, b2):
            carg, cres = _coref(sig, a1, b1), _coref(sig, a2, b2)
            return Coreflection(
                a, b,
                lambda f: FnVal(lambda v: cres.up(f(carg.dn(v)))),
                lambda f: FnVal(lambda v: cres.dn(f(carg.up(v)))))
        case _:
            raise ModelError(f"no structural coreflection for {a} <= {b}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Env = dict[str, SemValue]
Compiled = Callable[[Env], SemValue]


def compile_term(sig: Signature, t: Term) -> Compiled:
    """Compositional denotation, compiled once into a closure over the
    environment.  Function symbols other than numerals have no canonical
    meaning.  Nothing fails at compile time: an unbound variable, an
    unevaluable symbol or a missing coreflection raises ``ModelError`` when
    its subterm is evaluated."""
    match t:
        case Var(x):
            def var(env: Env) -> SemValue:
                try:
                    return env[x]
                except KeyError:
                    raise ModelError(f"environment does not bind {x}") from None
            return var
        case FnApp(f, args):
            if f.isdigit() and not args and sig.numerals_enabled():
                n = NatVal(int(f))
                return lambda env: n
            return _failing(f"function symbol {f} is not evaluable")
        case Lam(x, _, body):
            body_c = compile_term(sig, body)
            return lambda env: FnVal(lambda v: body_c({**env, x: v}))
        case App(f, a):
            f_c, a_c = compile_term(sig, f), compile_term(sig, a)
            return lambda env: f_c(env)(a_c(env))
        case Pair(a, b):
            a_c, b_c = compile_term(sig, a), compile_term(sig, b)
            return lambda env: PairVal(a_c(env), b_c(env))
        case Proj(1, b):
            b_c = compile_term(sig, b)
            return lambda env: b_c(env).fst
        case Proj(_, b):
            b_c = compile_term(sig, b)
            return lambda env: b_c(env).snd
        case UnitVal():
            return lambda env: UNIT_SEM
        case Upcast(lo, hi, b):
            return _cast(sig, lo, hi, "up", compile_term(sig, b))
        case Downcast(lo, hi, b):
            return _cast(sig, lo, hi, "dn", compile_term(sig, b))
        case Err(at):
            least = least_value(sig, at)
            return lambda env: least
    return _failing(f"cannot evaluate {t!r}")


def _failing(message: str) -> Compiled:
    def fail(env: Env) -> SemValue:
        raise ModelError(message)
    return fail


def _cast(sig: Signature, lo: Type, hi: Type, direction: str,
          body: Compiled) -> Compiled:
    """A cast whose coreflection map is looked up on first evaluation."""
    apply = None

    def cast(env: Env) -> SemValue:
        nonlocal apply
        if apply is None:
            apply = getattr(denote_coreflection(sig, lo, hi), direction)
        return apply(body(env))
    return cast


def eval_term(sig: Signature, env: Env, t: Term) -> SemValue:
    """The denotation of ``t`` in ``env``."""
    return compile_term(sig, t)(dict(env))


def value_to_text(v: SemValue) -> str:
    match v:
        case NatVal(None):
            return "err"
        case NatVal(n):
            return str(n)
        case PairVal(a, b):
            return f"({value_to_text(a)} , {value_to_text(b)})"
        case UnitValSem():
            return "()"
    return "<fun>"


# ---------------------------------------------------------------------------
# Cross-type order and checks
# ---------------------------------------------------------------------------

def cross_order(sig: Signature, a: Type, b: Type, bound: int = 2) -> Order:
    """``v : [[a]]`` is below ``w : [[b]]`` when its upcast is below ``w``.
    The upcast is looked up on first use."""
    leq = order_at(sig, b, bound)
    if a == b:
        return leq
    up = None

    def cross(v: SemValue, w: SemValue) -> bool:
        nonlocal up
        if up is None:
            up = denote_coreflection(sig, a, b).up
        return leq(up(v), w)
    return cross


def value_leq(sig: Signature, a: Type, b: Type, v: SemValue, w: SemValue,
              bound: int = 2) -> bool:
    """Whether ``v : [[a]]`` is below ``w : [[b]]``."""
    return cross_order(sig, a, b, bound)(v, w)


@dataclass
class Report:
    """Outcome of a bounded semantic check."""
    subject: str
    bound: int
    passed: bool
    counterexample: str | None = None
    checks: int = 0

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"RESULT {status} {self.subject} (bound {self.bound}, "
               f"{self.checks} checks; no counterexample within bound)"
               if self.passed else
               f"RESULT {status} {self.subject} (bound {self.bound})"]
        if self.counterexample:
            out.append(f"COUNTEREXAMPLE {self.counterexample}")
        return out


def check_equipment(sig: Signature, a: Type, b: Type, bound: int = 2) -> Report:
    """Exhaustively check, within the bound: the downcast retracts the
    upcast, the round trip deflates, both maps are monotone, and embedding
    into ``?`` factors through the pair's upcast."""
    from .grammar import type_to_text
    subject = f"equipment {type_to_text(a)} <= {type_to_text(b)}"
    if not (first_order(a) and first_order(b)):
        raise ModelError("equipment checks need function-free types")
    c = denote_coreflection(sig, a, b)
    values_a = enumerate_values(sig, a, bound)
    values_b = enumerate_values(sig, b, bound)
    leq_a, leq_b = order_at(sig, a, bound), order_at(sig, b, bound)
    ups, dns = [], []  # the maps at each value, by position
    checks = 0

    for v in values_a:
        checks += 1
        ups.append(c.up(v))
        if c.dn(ups[-1]) != v:
            return Report(subject, bound, False,
                          f"dn (up v) != v at v = {value_to_text(v)}", checks)
    for w in values_b:
        checks += 1
        dns.append(c.dn(w))
        if not leq_b(c.up(dns[-1]), w):
            return Report(subject, bound, False,
                          f"up (dn w) not below w at w = {value_to_text(w)}", checks)
    for i, k in related_indices(sig, a, a, bound):
        checks += 1
        if not leq_b(ups[i], ups[k]):
            return Report(subject, bound, False,
                          f"up not monotone at {value_to_text(values_a[i])} <= "
                          f"{value_to_text(values_a[k])}", checks)
    for i, k in related_indices(sig, b, b, bound):
        checks += 1
        if not leq_a(dns[i], dns[k]):
            return Report(subject, bound, False,
                          f"dn not monotone at {value_to_text(values_b[i])} <= "
                          f"{value_to_text(values_b[k])}", checks)
    msig = model_signature(sig)
    if tydyn_holds(msig, a, DYN) and tydyn_holds(msig, b, DYN):
        into_dyn_a = denote_coreflection(sig, a, DYN)
        into_dyn_b = denote_coreflection(sig, b, DYN)
        for v, up_v in zip(values_a, ups):
            checks += 1
            if into_dyn_a.up(v) != into_dyn_b.up(up_v):
                return Report(subject, bound, False,
                              f"embedding into ? does not factor at "
                              f"{value_to_text(v)}", checks)
    return Report(subject, bound, True, None, checks)


def related_indices(sig: Signature, a: Type, b: Type, bound: int = 2
                    ) -> list[tuple[int, int]]:
    """All ``(i, k)`` such that value ``i`` of ``enumerate_values(sig, a,
    bound)`` is below value ``k`` of ``enumerate_values(sig, b, bound)``,
    the first position varying slowest."""
    key = ("relidx", a, b, bound)
    cached = sig._model_cache.get(key)
    if cached is None:
        leq = cross_order(sig, a, b, bound)
        values_b = enumerate_values(sig, b, bound)
        cached = [(i, k)
                  for i, v in enumerate(enumerate_values(sig, a, bound))
                  for k, w in enumerate(values_b)
                  if leq(v, w)]
        sig._model_cache[key] = cached
    return cached


def check_judgment_semantics(sig: Signature, j: DynJudgment, bound: int = 2) -> Report:
    """Check a dynamism judgment against the model: over every pair of
    environments related pointwise along the context (the first entry
    varying slowest), the left denotation sits below the right."""
    subject = f"judgment {j.describe()}"
    for _, _, tl, tr in j.phi:
        if not (first_order(tl) and first_order(tr)):
            raise ModelError("judgment context mentions function types")
        if not (denotable(sig, tl) and denotable(sig, tr)):
            raise ModelError("judgment context is not denotable")
    if not (first_order(j.type_left) and first_order(j.type_right)):
        raise ModelError("judgment endpoint types mention function types")
    left, right = compile_term(sig, j.left), compile_term(sig, j.right)
    leq = order_at(sig, j.type_right, bound)

    def env_at(names: list[str], types: list[Type]) -> Callable[[tuple], Env]:
        """A side's environment from the positions of its values."""
        values = [enumerate_values(sig, ty, bound) for ty in types]
        return lambda key: {x: vs[i] for x, vs, i in zip(names, values, key)}

    left_env = env_at([e[0] for e in j.phi], [e[2] for e in j.phi])
    right_env = env_at([e[1] for e in j.phi], [e[3] for e in j.phi])
    lmemo: dict = {}  # a side's values by environment key, for this call
    rmemo: dict = {}
    # the left values cast up to the right type, by the same keys (with
    # one type the cast is the identity, so they are the left values); the
    # coreflection is looked up at the first pair that compares
    umemo = lmemo if j.type_left == j.type_right else {}
    up = None
    checks = 0
    for combo in product(*[related_indices(sig, tl, tr, bound)
                           for _, _, tl, tr in j.phi]):
        lkey, rkey = tuple(zip(*combo)) or ((), ())
        lv = lmemo.get(lkey)
        if lv is None:
            lv = lmemo[lkey] = left(left_env(lkey))
        rv = rmemo.get(rkey)
        if rv is None:
            rv = rmemo[rkey] = right(right_env(rkey))
        uv = umemo.get(lkey)
        if uv is None:
            if up is None:
                up = denote_coreflection(sig, j.type_left, j.type_right).up
            uv = umemo[lkey] = up(lv)
        checks += 1
        if not leq(uv, rv):
            env_text = ", ".join(
                f"{x}={value_to_text(v)}" for x, v in
                list(left_env(lkey).items())
                + [(f"{x}'", v) for x, v in right_env(rkey).items()])
            return Report(subject, bound, False,
                          f"[{env_text}] gives {value_to_text(lv)} not below "
                          f"{value_to_text(rv)}", checks)
    return Report(subject, bound, True, None, checks)


def derivation_first_order(d: Derivation) -> bool:
    """Whether a derivation's root judgment stays in the model fragment."""
    from .theorems import judgment_types
    return all(first_order(ty) for ty in judgment_types(d))
