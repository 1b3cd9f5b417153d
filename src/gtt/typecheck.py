"""Signatures, type checking and the type-dynamism decision procedure.

A signature collects base types, type-dynamism axioms between them,
typed function symbols, term-dynamism axioms and two semantic switches:
the retract axiom (round trips through a more dynamic type are identity)
and disjointness (casting across distinct ground tags errors).

Type dynamism ``A <= B`` is decided structurally: ``B`` is the dynamic
type (subject to an optional restriction), or both sides are base types
related by the reflexive-transitive closure of the axioms, or the two
sides share a head constructor with componentwise dynamism (function
types are covariant in both positions).  Axioms between composite types
would make the relation a general rewriting problem, so a signature
rejects them.

Typing checks the context once, then walks the term with the free
variables' types by name and the binders' by index, renaming nothing.
The walk dispatches on ``type(t)``, as ``gtt.syntax``'s walks do and for
the same reason (a ``match`` class pattern is an ``isinstance`` test and
field lookups, case after case), and compares hash-consed types with ``is``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .syntax import (
    App, Base, Bound, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam,
    Pair, Prod, Proj, Term, Type, Unit, UNIT, UnitVal, Upcast, Var, frozen,
)


class SignatureError(GttError):
    pass


class TypeCheckError(GttError):
    def __init__(self, msg: str, subterm: Term | None = None):
        super().__init__(msg)
        self.subterm = subterm


@frozen
class DynCtx:
    """A context-dynamism witness: pointwise pairing of two contexts."""

    entries: tuple[tuple[str, str, Type, Type], ...] = ()

    @classmethod
    def of(cls, *entries: tuple[str, str, Type, Type]) -> "DynCtx":
        return cls(tuple(entries))

    @classmethod
    def diag(cls, ctx: Context) -> "DynCtx":
        return cls(tuple((n, n, ty, ty) for n, ty in ctx))

    def left_ctx(self) -> Context:
        return Context(tuple((xl, tl) for xl, _, tl, _ in self.entries))

    def right_ctx(self) -> Context:
        return Context(tuple((xr, tr) for _, xr, _, tr in self.entries))

    def is_diagonal(self) -> bool:
        return all(xl == xr and tl == tr for xl, xr, tl, tr in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def first_order(ty: Type) -> bool:
    """Whether a type is function-free."""
    k = type(ty)
    if k is Prod:
        return first_order(ty.fst) and first_order(ty.snd)
    return k is not Fn


class Signature:
    """Immutable bundle of declarations; validation happens on creation.

    It also holds the caches of the queries made against it: type
    dynamism, well-formedness, the model's denotations, the checker's
    verdict memo, and ``elaborate``'s last output with its context and
    type, one entry that ``normalize`` reads so as not to type that term
    again.  A new ``Signature``, ``replace`` included, starts them
    empty."""

    def __init__(self,
                 base_types: Iterable[str] = ("Nat",),
                 tydyn_axioms: Iterable[tuple[Type, Type]] = (),
                 fn_symbols: dict[str, tuple[tuple[Type, ...], Type]] | None = None,
                 tmdyn_axioms: Iterable[tuple[Context, Term, Context, Term]] = (),
                 retract: bool = True,
                 disjointness: bool = True,
                 dyn_top: Optional[Callable[[Type], bool]] = None,
                 base_codes: dict[str, tuple[int, int]] | None = None):
        self.base_types = frozenset(base_types)
        self.tydyn_axioms = tuple(tydyn_axioms)
        self.fn_symbols = dict(fn_symbols or {})
        self.tmdyn_axioms = tuple(tmdyn_axioms)
        self.retract = retract
        self.disjointness = disjointness
        self.dyn_top = dyn_top
        self.base_codes = dict(base_codes or {})
        self._dyn_cache: dict[tuple[Type, Type], bool] = {}
        self._wf_cache: dict[Type, bool] = {}
        self._model_cache: dict = {}
        # ``dynamism``'s verdict memo: the new generation, then the old
        self._verdicts: tuple[dict, dict] = ({}, {})
        # ``elaborate``'s last (output, context, type), read by ``normalize``
        self._elaborated: tuple[Term, Context, Type] | None = None
        self._validate()

    # -- construction helpers ------------------------------------------------

    def replace(self, **kwargs) -> "Signature":
        fields = dict(
            base_types=self.base_types,
            tydyn_axioms=self.tydyn_axioms,
            fn_symbols=self.fn_symbols,
            tmdyn_axioms=self.tmdyn_axioms,
            retract=self.retract,
            disjointness=self.disjointness,
            dyn_top=self.dyn_top,
            base_codes=self.base_codes,
        )
        fields.update(kwargs)
        return Signature(**fields)

    def first_order_dyn(self) -> "Signature":
        """Variant where only function-free types sit below ``?``.

        Term-dynamism axioms are dropped: the variant only ever answers
        type-dynamism queries, and axioms whose typing leans on casts
        through ``?`` at function type would fail revalidation here."""
        return self.replace(dyn_top=first_order, tmdyn_axioms=())

    # -- queries ---------------------------------------------------------------

    def numerals_enabled(self) -> bool:
        return "Nat" in self.base_types

    def has_fn_symbol(self, name: str) -> bool:
        if name in self.fn_symbols:
            return True
        return name.isdigit() and self.numerals_enabled()

    def fn_signature(self, name: str) -> tuple[tuple[Type, ...], Type]:
        if name in self.fn_symbols:
            return self.fn_symbols[name]
        if name.isdigit() and self.numerals_enabled():
            return (), Base("Nat")
        raise TypeCheckError(f"unknown function symbol: {name}")

    def base_closure(self) -> dict[str, frozenset[str]]:
        """Reflexive-transitive closure of the base-type axioms, by one
        Warshall pass: after step ``k``, every path whose inner nodes are
        among the first ``k`` is closed."""
        reach: dict[str, set[str]] = {n: {n} for n in self.base_types}
        for a, b in self.tydyn_axioms:
            reach[a.name].add(b.name)
        for k in reach:
            for n in reach:
                if k in reach[n]:
                    reach[n] |= reach[k]
        return {n: frozenset(s) for n, s in reach.items()}

    # -- validation -------------------------------------------------------------

    def _validate(self):
        for a, b in self.tydyn_axioms:
            if not (isinstance(a, Base) and isinstance(b, Base)):
                raise SignatureError(
                    f"type-dynamism axiom {a} <= {b} does not relate two base types")
            for ty in (a, b):
                if not check_type_wf(self, ty):
                    raise SignatureError(
                        f"type-dynamism axiom mentions unknown base type: {ty}")
        for name, (ins, out) in self.fn_symbols.items():
            for ty in (*ins, out):
                if not check_type_wf(self, ty):
                    raise SignatureError(
                        f"function symbol {name} mentions unknown base type: {ty}")
        self._closure = self.base_closure()
        codes = list(self.base_codes.items())
        for i, (name, (lo, hi)) in enumerate(codes):
            if name not in self.base_types:
                raise SignatureError(f"base codes for unknown base type: {name}")
            if lo >= hi:
                raise SignatureError(f"empty base-code range: [{lo}, {hi})")
            # unrelated tags must stay apart in ``?``
            for other, (lo2, hi2) in codes[:i]:
                if (lo < hi2 and lo2 < hi and other not in self._closure[name]
                        and name not in self._closure[other]):
                    raise SignatureError(
                        f"base-code ranges of unrelated base types overlap: "
                        f"{other} [{lo2}, {hi2}) and {name} [{lo}, {hi})")
        for i, (lctx, lt, rctx, rt) in enumerate(self.tmdyn_axioms):
            try:
                ta = infer_type(self, lctx, lt)
                tb = infer_type(self, rctx, rt)
            except GttError as e:
                raise SignatureError(f"term-dynamism axiom {i} does not type check: {e}")
            if check_ctx_dyn(self, lctx, rctx) is None:
                raise SignatureError(
                    f"term-dynamism axiom {i}: contexts are not pointwise related")
            if not tydyn_holds(self, ta, tb):
                raise SignatureError(
                    f"term-dynamism axiom {i}: result types are not related")


def default_signature(retract: bool = True, disjointness: bool = True) -> Signature:
    """``Nat`` with numerals, no axioms."""
    return Signature(base_types=("Nat",), retract=retract, disjointness=disjointness)


# ---------------------------------------------------------------------------
# Well-formedness and typing
# ---------------------------------------------------------------------------

def check_type_wf(sig: Signature, ty: Type) -> bool:
    """Whether every base type in ``ty`` is declared; memoized on the
    signature."""
    cached = sig._wf_cache.get(ty)
    if cached is not None:
        return cached
    k = type(ty)
    if k is Base:
        out = ty.name in sig.base_types
    elif k is Fn:
        out = check_type_wf(sig, ty.dom) and check_type_wf(sig, ty.cod)
    elif k is Prod:
        out = check_type_wf(sig, ty.fst) and check_type_wf(sig, ty.snd)
    else:
        out = True
    sig._wf_cache[ty] = out
    return out


def infer_type(sig: Signature, ctx: Context, t: Term) -> Type:
    """The unique type of ``t`` under ``ctx``, or a TypeCheckError naming
    the offending subterm.  Every context entry must be well formed."""
    for x, ty in ctx:
        if not check_type_wf(sig, ty):
            raise TypeCheckError(f"ill-formed context entry {x} : {ty}")
    return _infer(sig, dict(ctx.entries), t)


def _infer(sig: Signature, env: dict[str, Type], t: Term,
           bound: tuple[Type, ...] = ()) -> Type:
    """Typing under ``env`` and the binders' types ``bound``, innermost last."""
    k = type(t)
    if k is Var:
        ty = env.get(t.name)
        if ty is None:
            raise TypeCheckError(f"unbound variable {t.name}", t)
        return ty
    if k is Upcast or k is Downcast:
        lo, hi = t.low, t.high
        for ty in (lo, hi):
            if not check_type_wf(sig, ty):
                raise TypeCheckError(f"ill-formed cast endpoint {ty}", t)
        if not tydyn_holds(sig, lo, hi):
            raise TypeCheckError(
                f"cast endpoints not in the dynamism relation: "
                f"{lo} <= {hi} fails", t)
        expect, out = (lo, hi) if k is Upcast else (hi, lo)
        got = _infer(sig, env, t.body, bound)
        if got is not expect:
            raise TypeCheckError(
                f"cast body has type {got}, expected {expect}", t.body)
        return out
    if k is Proj:
        i = t.index
        if i not in (1, 2):
            raise TypeCheckError("projection index must be 1 or 2", t)
        pty = _infer(sig, env, t.tup, bound)
        if type(pty) is not Prod:
            raise TypeCheckError(f"projecting from a non-product of type {pty}", t.tup)
        return pty.fst if i == 1 else pty.snd
    if k is Pair:
        return Prod(_infer(sig, env, t.fst, bound), _infer(sig, env, t.snd, bound))
    if k is App:
        fty = _infer(sig, env, t.fn, bound)
        if type(fty) is not Fn:
            raise TypeCheckError(f"applying a non-function of type {fty}", t.fn)
        aty = _infer(sig, env, t.arg, bound)
        if aty is not fty.dom:
            raise TypeCheckError(
                f"argument type {aty} does not match domain {fty.dom}", t.arg)
        return fty.cod
    if k is Err:
        if not check_type_wf(sig, t.at):
            raise TypeCheckError(f"ill-formed error annotation {t.at}", t)
        return t.at
    if k is Bound and t.index < len(bound):  # a loose index is unrecognized
        return bound[-1 - t.index]
    if k is Lam:
        if not check_type_wf(sig, t.annot):
            raise TypeCheckError(f"ill-formed annotation on {t.var}", t)
        return Fn(t.annot, _infer(sig, env, t.body, (*bound, t.annot)))
    if k is UnitVal:
        return UNIT
    if k is FnApp:
        f, args = t.sym, t.args
        ins, out = sig.fn_signature(f)
        if len(ins) != len(args):
            raise TypeCheckError(
                f"symbol {f} expects {len(ins)} arguments, got {len(args)}", t)
        for i, (want, arg) in enumerate(zip(ins, args)):
            got = _infer(sig, env, arg, bound)
            if got is not want:
                raise TypeCheckError(
                    f"argument {i} of {f} has type {got}, expected {want}", arg)
        return out
    raise TypeCheckError(f"unrecognized term {t!r}", t)


# ---------------------------------------------------------------------------
# Type dynamism
# ---------------------------------------------------------------------------

def tydyn_holds(sig: Signature, a: Type, b: Type) -> bool:
    """Decide ``a <= b``: equal types, ``?`` on top, the closure of the
    base-type axioms, or componentwise for ``Fn`` and ``Prod``.  Answers
    are memoized on the signature."""
    key = (a, b)
    cached = sig._dyn_cache.get(key)
    if cached is not None:
        return cached
    if a == b:
        out = True
    elif b == DYN:
        out = sig.dyn_top is None or sig.dyn_top(a)
    else:
        match a, b:
            case Base(x), Base(y):
                out = y in sig._closure.get(x, ())
            case (Fn(a1, b1), Fn(a2, b2)) | (Prod(a1, b1), Prod(a2, b2)):
                out = tydyn_holds(sig, a1, a2) and tydyn_holds(sig, b1, b2)
            case _:
                out = False
    sig._dyn_cache[key] = out
    return out


# ---------------------------------------------------------------------------
# Ground types
# ---------------------------------------------------------------------------

def is_ground(ty: Type) -> bool:
    """A ground type is one tag layer: a base type, ``? -> ?``, ``? * ?``
    or ``1``.  Every ground type sits directly below ``?``."""
    k = type(ty)
    if k is Base or k is Unit:
        return True
    if k is Fn:
        return ty.dom is DYN and ty.cod is DYN
    if k is Prod:
        return ty.fst is DYN and ty.snd is DYN
    return False


def floor_type(ty: Type) -> Type:
    """The ground tag of a non-dynamic type: its head constructor with
    dynamic arguments."""
    k = type(ty)
    if k is Base or k is Unit:
        return ty
    if k is Fn:
        return _FN_TAG
    if k is Prod:
        return _PROD_TAG
    raise TypeCheckError("the dynamic type has no ground tag")


_FN_TAG, _PROD_TAG = Fn(DYN, DYN), Prod(DYN, DYN)


def _unrelated_grounds(sig: Signature, g: Type, g2: Type) -> bool:
    return g != g2 and not tydyn_holds(sig, g, g2) and not tydyn_holds(sig, g2, g)


def check_ctx_dyn(sig: Signature, left: Context, right: Context) -> DynCtx | None:
    """The unique pointwise pairing when lengths match and every position
    is related; None otherwise."""
    if len(left) != len(right):
        return None
    entries = []
    for (xl, tl), (xr, tr) in zip(left, right):
        if not tydyn_holds(sig, tl, tr):
            return None
        entries.append((xl, xr, tl, tr))
    return DynCtx(tuple(entries))


def check_dynctx_wf(sig: Signature, phi: DynCtx) -> bool:
    """Names distinct on each side, and every pair of types well formed
    and related."""
    entries = phi.entries
    n = len(entries)
    if (len({xl for xl, _, _, _ in entries}) != n
            or len({xr for _, xr, _, _ in entries}) != n):
        return False
    return all(check_type_wf(sig, tl) and check_type_wf(sig, tr)
               and tydyn_holds(sig, tl, tr) for _, _, tl, tr in entries)


def enumerate_types(sig: Signature, max_size: int) -> list[Type]:
    """All well-formed types up to the given size, smallest first."""
    atoms = [Base(n) for n in sorted(sig.base_types)] + [DYN, UNIT]
    by_size: dict[int, list[Type]] = {1: atoms}
    for size in range(2, max_size + 1):
        bucket: list[Type] = []
        for lsize in range(1, size - 1):
            rsize = size - 1 - lsize
            for a in by_size.get(lsize, ()):
                for b in by_size.get(rsize, ()):
                    bucket.append(Fn(a, b))
                    bucket.append(Prod(a, b))
        by_size[size] = bucket
    out: list[Type] = []
    for size in range(1, max_size + 1):
        out.extend(by_size.get(size, ()))
    return out
