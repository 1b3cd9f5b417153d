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
term into a closure over the environment once, each cast with its
coreflection map, which ``denote_coreflection`` builds once per pair from
the pairs it is made of, and ``order_at`` builds each type's order once
per bound.  Each function-free type has one ``Enumeration`` per bound,
built in one pass and kept on the signature: its values, the position of
each, the size of each down-set and the covering pairs of its order.
Checks go through the adjunction ``up v <= w`` iff ``v <= dn w`` that
every coreflection is.  Denotations are monotone, so a judgment holds at
every related pair of environments iff it holds at ``(dn g, g)`` for each
right environment ``g``: the check evaluates the right side once per
right environment and casts the left side up once per distinct downcast
environment, keyed by positions.  An equipment check applies the upcast
and the downcast once per value and tests monotonicity along the covering
pairs of each order, which generate it.  Both count the related pairs
they cover, from the sizes of down-sets, so a pass reports the pairs of
the all-pairs walk.  The shortcut is sound only for monotone maps whose
downcasts stay inside the enumeration, so a judgment check whose test
fails, raises ``ModelError`` or leaves the enumeration walks every related
pair instead, and a failing cover walks every related pair of its order:
a failure reports the walk's first counterexample, error and count.
Each query has one entry point, compiled or built once and kept on the
signature: ``compile_term`` evaluates, ``order_at`` and ``cross_order``
compare, and ``enumeration`` enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .syntax import (
    App, Base, Bound, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair, Prod,
    Proj, Term, Type, Unit, UnitVal, Upcast, Var, cast_annotations, frozen,
)
from .typecheck import Signature, first_order, floor_type, tydyn_holds

if TYPE_CHECKING:  # annotations only, so that the model loads without the checker
    from .dynamism import Derivation, DynJudgment


class ModelError(GttError):
    pass


# ---------------------------------------------------------------------------
# Semantic values
# ---------------------------------------------------------------------------

class SemValue:
    __slots__ = ()


@frozen
class NatVal(SemValue):
    """A base-type value or a leaf of ``?``: a natural, or None for the
    error."""
    n: Optional[int]


@frozen
class PairVal(SemValue):
    """A value of a product type, or a pair node of ``?``."""
    fst: SemValue
    snd: SemValue


@frozen
class UnitValSem(SemValue):
    """The one value of the unit type."""


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


_MISSING = object()


def _memo(sig: Signature, key, make: Callable[[], object]):
    """The model's cache entry on ``sig`` at ``key``, ``make()`` on first
    use.  An entry may be None; what ``make`` raises is not kept."""
    cached = sig._model_cache.get(key, _MISSING)
    if cached is _MISSING:
        cached = sig._model_cache[key] = make()
    return cached


def model_signature(sig: Signature) -> Signature:
    """The signature with ``?`` restricted to function-free types, which is
    the fragment this model supports."""
    return _memo(sig, "fo_sig", sig.first_order_dyn)


# ---------------------------------------------------------------------------
# Orders and enumeration
# ---------------------------------------------------------------------------

Order = Callable[[SemValue, SemValue], bool]


def order_at(sig: Signature, ty: Type, bound: int = 2) -> Order:
    """The pointed-preorder order within one type's denotation, compiled
    once per type and bound.  Function orders are checked pointwise on the
    arguments within the bound."""
    return _memo(sig, ("leq", ty, bound), lambda: _compile_order(sig, ty, bound))


def _compile_order(sig: Signature, ty: Type, bound: int) -> Order:
    match ty:
        case Base(_):
            return lambda v, w: v.n is None or v == w
        case Unit():
            return lambda v, w: True
        case Prod(a, b):
            leq_a, leq_b = order_at(sig, a, bound), order_at(sig, b, bound)
            return lambda v, w: v is w or (leq_a(v.fst, w.fst) and leq_b(v.snd, w.snd))
        case Fn(dom, cod):
            leq_cod = order_at(sig, cod, bound)
            return lambda v, w: all(leq_cod(v(arg), w(arg))
                                    for arg in enumeration(sig, dom, bound).values)
        case _:
            return _dyn_leq


def _dyn_leq(v: SemValue, w: SemValue) -> bool:
    """The order at ``?``: ``v`` is below ``w`` when it arises by replacing
    subtrees of ``w`` with the error."""
    if v is w:
        return True
    if type(v) is PairVal:
        return (type(w) is PairVal and _dyn_leq(v.fst, w.fst)
                and _dyn_leq(v.snd, w.snd))
    return v.n is None or (type(w) is NatVal and w.n == v.n)


@frozen
class Enumeration:
    """The values of a function-free type within a bound (naturals below
    ``bound``, and at ``?`` pairs nested at most ``bound - 1`` deep), with
    what the checks read off them, all by position in ``values``:

    * ``position`` maps a value of the type to its position, or None when
      it is not there;
    * ``downs`` is the number of values below each value;
    * ``covers()`` yields the covering pairs ``(i, k)``: value ``k`` is
      above value ``i`` with nothing in between.  The enumeration is closed
      downwards, so its order is the reflexive-transitive closure of these.
    """
    values: list[SemValue]
    position: Callable[[SemValue], int | None]
    downs: list[int]
    covers: Callable[[], Iterator[tuple[int, int]]]


def enumeration(sig: Signature, ty: Type, bound: int = 2) -> Enumeration:
    """The enumeration of a function-free type, built once per type and
    bound.  Each natural covers the error, and a product pairs its
    components' values, the first varying slowest, covered componentwise."""
    return _memo(sig, ("enumeration", ty, bound), lambda: _enumeration(sig, ty, bound))


def _enumeration(sig: Signature, ty: Type, bound: int) -> Enumeration:
    match ty:
        case Base(name):
            rng = _base_range(sig, name)
            if rng is None:
                raise ModelError(f"base type {name} has no code range")
            lo, hi = rng
            top = min(bound, hi - lo) if hi != float("inf") else bound
            values = [NatVal(None)] + [NatVal(n) for n in range(int(top))]
            edges = [(0, k) for k in range(1, len(values))]
            return Enumeration(values, {v: p for p, v in enumerate(values)}.get,
                               [1] + [2] * len(edges), edges.__iter__)
        case Unit():
            return Enumeration([UNIT_SEM], {UNIT_SEM: 0}.get, [1], [].__iter__)
        case Prod(a, b):
            first, second = enumeration(sig, a, bound), enumeration(sig, b, bound)
            width = len(second.values)

            def position(v: SemValue) -> int | None:
                i, k = first.position(v.fst), second.position(v.snd)
                return None if i is None or k is None else i * width + k

            def covers() -> Iterator[tuple[int, int]]:
                for i, k in first.covers():
                    yield from ((i * width + j, k * width + j) for j in range(width))
                cb = list(second.covers())
                for i in range(len(first.values)):
                    yield from ((i * width + j, i * width + k) for j, k in cb)

            return Enumeration(
                [PairVal(x, y) for x in first.values for y in second.values],
                position, [x * y for x in first.downs for y in second.downs], covers)
        case Fn(_, _):
            raise ModelError("cannot enumerate a function space")
        case _:
            return _dyn_enumeration(bound)


def _dyn_enumeration(bound: int) -> Enumeration:
    """The error and the leaves ``0 .. bound-1``, then each round the new
    pairs of the values that existed when the round began, the first
    component varying slowest.  The error is covered by each leaf and by
    the pair of errors, and a node ``(a, b)`` covers the nodes ``(a', b)``
    and ``(a, b')`` for ``a'`` covered by ``a`` and ``b'`` by ``b``, which
    come earlier; a node has one more value below it than the pairs of the
    values below its components, since the pair of errors collapses to the
    error."""
    values: list[SemValue] = [ERR_SEM] + [NatVal(n) for n in range(bound)]
    position = {v: p for p, v in enumerate(values)}
    downs = [1] + [2] * bound
    below: list[list[int]] = [[]] + [[0]] * bound  # the positions each value covers
    for _ in range(bound - 1):
        count = len(values)
        for i in range(count):
            for k in range(count):
                v = PairVal(values[i], values[k])
                if v in position:
                    continue
                position[v] = len(values)
                values.append(v)
                downs.append(1 + downs[i] * downs[k])
                below.append(
                    [0] if i == k == 0 else
                    [position[PairVal(values[x], values[k])] for x in below[i]]
                    + [position[PairVal(values[i], values[x])] for x in below[k]])
    edges = [(i, k) for k, under in enumerate(below) for i in under]
    return Enumeration(values, position.get, downs, edges.__iter__)


# ---------------------------------------------------------------------------
# Coreflections
# ---------------------------------------------------------------------------

@frozen
class Coreflection:
    """The coreflection of a pair ``A <= B``: an upcast ``up`` into ``B``
    and a downcast ``dn`` that retracts it."""
    up: Callable[[SemValue], SemValue]
    dn: Callable[[SemValue], SemValue]

    def compose(self, outer: "Coreflection") -> "Coreflection":
        """self : A <| B composed with outer : B <| C gives A <| C."""
        up1, dn1, up2, dn2 = self.up, self.dn, outer.up, outer.dn
        return Coreflection(lambda v: up2(up1(v)), lambda v: dn1(dn2(v)))


_IDENTITY = Coreflection(lambda v: v, lambda v: v)


def _tag_coreflection(sig: Signature, ground: Type) -> Coreflection:
    """The chosen embedding into ``?`` of a coded base, ``? * ?`` or ``1``."""
    match ground:
        case Base(name):
            lo, hi = _base_range(sig, name)

            # a range from 0 leaves values as they are, so they are reused
            def up(v: SemValue) -> SemValue:
                if v.n is None:
                    return ERR_SEM
                if lo + v.n >= hi:
                    raise ModelError(f"value {v.n} exceeds the code range of {name}")
                return NatVal(lo + v.n) if lo else v

            def dn(v: SemValue) -> SemValue:
                m = v.n if type(v) is NatVal else None
                if m is None or not lo <= m < hi:
                    return ERR_SEM
                return NatVal(m - lo) if lo else v

            return Coreflection(up, dn)
        case Prod():
            bottom = PairVal(ERR_SEM, ERR_SEM)
            return Coreflection(
                # the wedge glues the two bottoms
                lambda v: ERR_SEM if v == bottom else v,
                lambda v: v if type(v) is PairVal else bottom)
    return Coreflection(lambda _v: ERR_SEM, lambda _v: UNIT_SEM)  # the unit


def denote_coreflection(sig: Signature, a: Type, b: Type) -> Coreflection:
    """The coreflection for a derivable pair ``a <= b``, built structurally
    and through ground tags at ``?``."""
    def make() -> Coreflection:
        if not (denotable(sig, a) and denotable(sig, b)):
            raise ModelError(f"types not denotable in the tree model: {a}, {b}")
        if not tydyn_holds(model_signature(sig), a, b):
            raise ModelError(f"{a} <= {b} is not derivable in the first-order model")
        return _coref(sig, a, b)
    return _memo(sig, ("coref", a, b), make)


def _coref(sig: Signature, a: Type, b: Type) -> Coreflection:
    """The coreflection of ``a <= b`` from those of its parts, each looked
    up through ``denote_coreflection``, so that every derivable pair has one
    coreflection wherever it occurs."""
    if a == b:
        return _IDENTITY
    if b == DYN:
        tag = floor_type(a)
        if a == tag:
            return _tag_coreflection(sig, tag)
        return denote_coreflection(sig, a, tag).compose(
            denote_coreflection(sig, tag, DYN))
    match a, b:
        case Prod(a1, a2), Prod(b1, b2):
            (up1, dn1), (up2, dn2) = [(c.up, c.dn) for c in (
                denote_coreflection(sig, a1, b1), denote_coreflection(sig, a2, b2))]
            return Coreflection(
                lambda v: PairVal(up1(v.fst), up2(v.snd)),
                lambda v: PairVal(dn1(v.fst), dn2(v.snd)))
        case Fn(a1, a2), Fn(b1, b2):
            carg, cres = denote_coreflection(sig, a1, b1), denote_coreflection(sig, a2, b2)
            return Coreflection(
                lambda f: FnVal(lambda v: cres.up(f(carg.dn(v)))),
                lambda f: FnVal(lambda v: cres.dn(f(carg.up(v)))))
        case _:
            raise ModelError(f"no structural coreflection for {a} <= {b}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Env = dict[str | int, SemValue]
Compiled = Callable[[Env], SemValue]


def compile_term(sig: Signature, t: Term, depth: int = 0) -> Compiled:
    """Compositional denotation, compiled once into a closure over the
    environment.  Function symbols other than numerals have no canonical
    meaning.  Nothing fails at compile time: an unbound variable, an
    unevaluable symbol or a missing coreflection raises ``ModelError`` when
    its subterm is evaluated.  The environment holds the binders by depth."""
    match t:
        case Var(x):
            def var(env: Env) -> SemValue:
                try:
                    return env[x]
                except KeyError:
                    raise ModelError(f"environment does not bind {x}") from None
            return var
        case Bound(i):
            level = depth - 1 - i
            return lambda env: env[level]
        case FnApp(f, args):
            if f.isdigit() and not args and sig.numerals_enabled():
                n = NatVal(int(f))
                return lambda env: n
            return _failing(f"function symbol {f} is not evaluable")
        case Lam(_, _, body):
            body_c = compile_term(sig, body, depth + 1)
            return lambda env: FnVal(lambda v: body_c({**env, depth: v}))
        case App(f, a):
            f_c, a_c = compile_term(sig, f, depth), compile_term(sig, a, depth)
            return lambda env: f_c(env)(a_c(env))
        case Pair(a, b):
            a_c, b_c = compile_term(sig, a, depth), compile_term(sig, b, depth)
            return lambda env: PairVal(a_c(env), b_c(env))
        case Proj(1, b):
            b_c = compile_term(sig, b, depth)
            return lambda env: b_c(env).fst
        case Proj(_, b):
            b_c = compile_term(sig, b, depth)
            return lambda env: b_c(env).snd
        case UnitVal():
            return lambda env: UNIT_SEM
        case Upcast(lo, hi, b):
            return _cast(sig, lo, hi, "up", compile_term(sig, b, depth))
        case Downcast(lo, hi, b):
            return _cast(sig, lo, hi, "dn", compile_term(sig, b, depth))
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
    """A cast through its coreflection map, which is looked up here; when
    there is none, its ``ModelError`` is raised on evaluation instead.  A
    cast between equal types is its body."""
    try:
        apply = getattr(denote_coreflection(sig, lo, hi), direction)
    except ModelError as e:
        return _failing(str(e))
    if lo == hi:
        return body
    return lambda env: apply(body(env))


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
    into ``?`` factors through the pair's upcast.  Monotonicity is tested
    along the covering pairs of each order and counted as every related
    pair; a failing cover reruns the walk over the related pairs, so the
    report names the first related pair at which a map fails."""
    from .grammar import type_to_text
    subject = f"equipment {type_to_text(a)} <= {type_to_text(b)}"
    if not (first_order(a) and first_order(b)):
        raise ModelError("equipment checks need function-free types")
    c = denote_coreflection(sig, a, b)
    enum_a, enum_b = enumeration(sig, a, bound), enumeration(sig, b, bound)
    values_a, values_b = enum_a.values, enum_b.values
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
    for name, ty, enum, images, leq in (("up", a, enum_a, ups, leq_b),
                                        ("dn", b, enum_b, dns, leq_a)):
        if all(leq(images[i], images[k]) for i, k in enum.covers()):
            checks += sum(enum.downs)
            continue
        for i, k in related_indices(sig, ty, ty, bound):
            checks += 1
            if not leq(images[i], images[k]):
                return Report(subject, bound, False,
                              f"{name} not monotone at {value_to_text(enum.values[i])} "
                              f"<= {value_to_text(enum.values[k])}", checks)
    # both types are function-free, so both sit below ``?`` in the model
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
    """All ``(i, k)`` such that value ``i`` of ``enumeration(sig, a,
    bound)`` is below value ``k`` of ``enumeration(sig, b, bound)``, the
    first position varying slowest."""
    def make() -> list[tuple[int, int]]:
        leq = cross_order(sig, a, b, bound)
        values_b = enumeration(sig, b, bound).values
        return [(i, k)
                for i, v in enumerate(enumeration(sig, a, bound).values)
                for k, w in enumerate(values_b)
                if leq(v, w)]
    return _memo(sig, ("relidx", a, b, bound), make)


def _dn_column(sig: Signature, tl: Type, tr: Type, bound: int
               ) -> tuple[Sequence[int], int] | None:
    """For a context entry ``tl <= tr``: the position of ``dn w`` in
    ``enumeration(sig, tl, bound)`` for each value ``w`` of ``tr``, and the
    number of related pairs of values, ``sum |down(dn w)|``, which the
    adjunction ``up v <= w`` iff ``v <= dn w`` gives.  None when some ``dn
    w`` lies outside the enumeration, where that count does not hold."""
    def make() -> tuple[Sequence[int], int] | None:
        left = enumeration(sig, tl, bound)
        if tl == tr:
            column: Sequence[int] = range(len(left.values))
        else:
            dn, position = denote_coreflection(sig, tl, tr).dn, left.position
            column = []
            for w in enumeration(sig, tr, bound).values:
                p = position(dn(w))
                if p is None:
                    return None
                column.append(p)
        return column, sum(left.downs[p] for p in column)
    return _memo(sig, ("column", tl, tr, bound), make)


def check_judgment_semantics(sig: Signature, j: DynJudgment, bound: int = 2) -> Report:
    """Check a dynamism judgment against the model: over every pair of
    environments related pointwise along the context, the left denotation
    sits below the right.  Denotations are monotone and each cast pair is
    an adjunction, so it is enough to test, for each right environment,
    the left one that is its downcast; the report counts every related
    pair.  When that test fails, raises ``ModelError`` or meets a downcast
    outside the enumeration, the check walks every related pair (the first
    entry varying slowest) and reports the first counterexample or error
    there."""
    subject = f"judgment {j.describe()}"
    for _, _, tl, tr in j.phi:
        if not (first_order(tl) and first_order(tr)):
            raise ModelError("judgment context mentions function types")
        if not (denotable(sig, tl) and denotable(sig, tr)):
            raise ModelError("judgment context is not denotable")
    if not (first_order(j.type_left) and first_order(j.type_right)):
        raise ModelError("judgment endpoint types mention function types")
    left, right = compile_term(sig, j.left), compile_term(sig, j.right)
    try:
        checks = _adjoint_checks(sig, j, bound, left, right)
    except ModelError:
        checks = None
    if checks is not None:
        return Report(subject, bound, True, None, checks)
    return _walk_related_pairs(sig, j, bound, left, right, subject)


def _adjoint_checks(sig: Signature, j: DynJudgment, bound: int,
                    left: Compiled, right: Compiled) -> int | None:
    """The number of related environment pairs if the judgment holds at
    ``(dn g, g)`` for every right environment ``g``, else None.  The left
    side is evaluated and cast up once per distinct downcast environment,
    keyed by its positions."""
    columns = [_dn_column(sig, tl, tr, bound) for _, _, tl, tr in j.phi]
    if None in columns:
        return None
    up = (denote_coreflection(sig, j.type_left, j.type_right).up
          if j.type_left != j.type_right else lambda v: v)
    leq = order_at(sig, j.type_right, bound)
    entries = [(xl, xr, enumeration(sig, tl, bound).values,
                enumeration(sig, tr, bound).values, column)
               for (xl, xr, tl, tr), (column, _) in zip(j.phi, columns)]
    # the last entry varies in the inner loop; an empty context has one
    # environment, taken as a last entry that binds nothing
    *outer, (xl, xr, last_left, last_right, last_column) = (
        entries or [(None, None, [None], [None], [0])])
    downcasts = set(last_column)
    memo: dict[tuple, list] = {}  # up (L env) by the outer and last positions
    for prefix in product(*[zip(right_values, column)
                            for _, _, _, right_values, column in outer]):
        left_key = tuple(p for _, p in prefix)
        ups = memo.get(left_key)
        if ups is None:
            left_outer = {x: values[p] for (x, _, values, _, _), p in zip(outer, left_key)}
            ups = memo[left_key] = [None] * len(last_left)
            for p in downcasts:
                ups[p] = up(left({**left_outer, xl: last_left[p]}))
        right_outer = {x: w for (_, x, _, _, _), (w, _) in zip(outer, prefix)}
        if not all(map(leq, map(ups.__getitem__, last_column),
                       map(right, ({**right_outer, xr: w} for w in last_right)))):
            return None
    return prod(count for _, count in columns)


def _walk_related_pairs(sig: Signature, j: DynJudgment, bound: int,
                        left: Compiled, right: Compiled, subject: str) -> Report:
    """Evaluate both sides at every related pair of environments, the
    first context entry varying slowest, up to the first counterexample;
    an evaluation error is raised at the first pair that meets it.  A
    counterexample primes the right names only if one is a left name."""
    cross = cross_order(sig, j.type_left, j.type_right, bound)
    names = [(xl, xr) for xl, xr, _, _ in j.phi]
    mark = "'" if {xl for xl, _ in names} & {xr for _, xr in names} else ""
    values = [(enumeration(sig, tl, bound).values, enumeration(sig, tr, bound).values)
              for _, _, tl, tr in j.phi]
    checks = 0
    for combo in product(*[related_indices(sig, tl, tr, bound)
                           for _, _, tl, tr in j.phi]):
        left_env = {xl: vl[i] for (xl, _), (vl, _), (i, _) in zip(names, values, combo)}
        right_env = {xr: vr[k] for (_, xr), (_, vr), (_, k) in zip(names, values, combo)}
        lv, rv = left(left_env), right(right_env)
        checks += 1
        if not cross(lv, rv):
            env_text = ", ".join(
                f"{x}={value_to_text(v)}" for x, v in
                list(left_env.items()) + [(x + mark, v) for x, v in right_env.items()])
            return Report(subject, bound, False,
                          f"[{env_text}] gives {value_to_text(lv)} not below "
                          f"{value_to_text(rv)}", checks)
    return Report(subject, bound, True, None, checks)


def judgment_types(d: Derivation) -> Iterator[Type]:
    """Every type mentioned by a derivation's root judgment: endpoints,
    context entries, and annotations inside the two terms."""
    j = d.conclusion
    yield j.type_left
    yield j.type_right
    for _, _, tl, tr in j.phi:
        yield tl
        yield tr
    yield from cast_annotations(j.left)
    yield from cast_annotations(j.right)


def derivation_first_order(d: Derivation) -> bool:
    """Whether a derivation's root judgment stays in the model fragment."""
    return all(first_order(ty) for ty in judgment_types(d))
