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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .syntax import (
    App, Base, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair,
    Prod, Proj, Term, Type, UNIT, UnitVal, Upcast, Var, base_names,
    contains_fn, fresh_name,
)


class SignatureError(GttError):
    pass


class TypeCheckError(GttError):
    def __init__(self, msg: str, subterm: Term | None = None):
        super().__init__(msg)
        self.subterm = subterm


@dataclass(frozen=True, slots=True)
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
    return not contains_fn(ty)


class Signature:
    """Immutable bundle of declarations; validation happens on creation."""

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
        self._model_cache: dict = {}
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
        """Reflexive-transitive closure of the base-type axioms."""
        reach: dict[str, set[str]] = {n: {n} for n in self.base_types}
        for a, b in self.tydyn_axioms:
            reach[a.name].add(b.name)
        changed = True
        while changed:
            changed = False
            for n in reach:
                extra = set()
                for m in reach[n]:
                    extra |= reach[m]
                if not extra <= reach[n]:
                    reach[n] |= extra
                    changed = True
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
        for lo, hi in self.base_codes.values():
            if lo >= hi:
                raise SignatureError(f"empty base-code range: [{lo}, {hi})")
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
    return base_names(ty) <= sig.base_types


def check_ctx_wf(sig: Signature, ctx: Context) -> bool:
    return all(check_type_wf(sig, ty) for _, ty in ctx)


def infer_type(sig: Signature, ctx: Context, t: Term) -> Type:
    """The unique type of ``t`` under ``ctx``, or a TypeCheckError naming
    the offending subterm."""
    match t:
        case Var(x):
            ty = ctx.lookup(x)
            if ty is None:
                raise TypeCheckError(f"unbound variable {x}", t)
            return ty
        case FnApp(f, args):
            ins, out = sig.fn_signature(f)
            if len(ins) != len(args):
                raise TypeCheckError(
                    f"symbol {f} expects {len(ins)} arguments, got {len(args)}", t)
            for i, (want, arg) in enumerate(zip(ins, args)):
                got = infer_type(sig, ctx, arg)
                if got != want:
                    raise TypeCheckError(
                        f"argument {i} of {f} has type {got}, expected {want}", arg)
            return out
        case Lam(x, annot, body):
            if not check_type_wf(sig, annot):
                raise TypeCheckError(f"ill-formed annotation on {x}", t)
            if x in ctx.names():
                from .syntax import subst1
                x2 = fresh_name(x, ctx.names() | {x})
                return Fn(annot, infer_type(sig, ctx.extend(x2, annot),
                                            subst1(body, x, Var(x2))))
            return Fn(annot, infer_type(sig, ctx.extend(x, annot), body))
        case App(fn, arg):
            fty = infer_type(sig, ctx, fn)
            if not isinstance(fty, Fn):
                raise TypeCheckError(f"applying a non-function of type {fty}", fn)
            aty = infer_type(sig, ctx, arg)
            if aty != fty.dom:
                raise TypeCheckError(
                    f"argument type {aty} does not match domain {fty.dom}", arg)
            return fty.cod
        case Pair(a, b):
            return Prod(infer_type(sig, ctx, a), infer_type(sig, ctx, b))
        case Proj(i, tup):
            pty = infer_type(sig, ctx, tup)
            if not isinstance(pty, Prod):
                raise TypeCheckError(f"projecting from a non-product of type {pty}", tup)
            return pty.fst if i == 1 else pty.snd
        case UnitVal():
            return UNIT
        case Upcast(lo, hi, body):
            _check_cast(sig, ctx, t, lo, hi, body, expect=lo)
            return hi
        case Downcast(lo, hi, body):
            _check_cast(sig, ctx, t, lo, hi, body, expect=hi)
            return lo
        case Err(at):
            if not check_type_wf(sig, at):
                raise TypeCheckError(f"ill-formed error annotation {at}", t)
            return at
    raise TypeCheckError(f"unrecognized term {t!r}", t)


def _check_cast(sig, ctx, cast, lo, hi, body, expect):
    for ty in (lo, hi):
        if not check_type_wf(sig, ty):
            raise TypeCheckError(f"ill-formed cast endpoint {ty}", cast)
    if not tydyn_holds(sig, lo, hi):
        raise TypeCheckError(
            f"cast endpoints not in the dynamism relation: "
            f"{lo} <= {hi} fails", cast)
    got = infer_type(sig, ctx, body)
    if got != expect:
        raise TypeCheckError(
            f"cast body has type {got}, expected {expect}", body)


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
    try:
        left, right = phi.left_ctx(), phi.right_ctx()
    except GttError:
        return False
    if not (check_ctx_wf(sig, left) and check_ctx_wf(sig, right)):
        return False
    return all(tydyn_holds(sig, tl, tr) for _, _, tl, tr in phi)


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
