"""Abstract syntax for gradual types and terms.

Types are base names, the dynamic type ``?``, functions, binary products
and the unit type.  Terms are a simply typed lambda calculus extended with
explicit upcasts and downcasts (each carrying both endpoint types), the
error constant at every type, and applications of signature-declared
function symbols.  Terms are identified up to renaming of bound variables;
``alpha_eq`` is the official equality and ``substitute`` is capture
avoiding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping


class GttError(Exception):
    """Base class for every error raised by this package."""


class UnboundVariable(GttError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class ContextError(GttError):
    pass


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    __slots__ = ()

    def __str__(self) -> str:
        from .grammar import type_to_text
        return type_to_text(self)


@dataclass(frozen=True, slots=True)
class Base(Type):
    name: str


@dataclass(frozen=True, slots=True)
class Dyn(Type):
    """The dynamic type ``?``, the most dynamic type."""


@dataclass(frozen=True, slots=True)
class Fn(Type):
    dom: Type
    cod: Type


@dataclass(frozen=True, slots=True)
class Prod(Type):
    fst: Type
    snd: Type


@dataclass(frozen=True, slots=True)
class Unit(Type):
    pass


DYN = Dyn()
UNIT = Unit()
NAT = Base("Nat")


def type_size(ty: Type) -> int:
    match ty:
        case Fn(a, b) | Prod(a, b):
            return 1 + type_size(a) + type_size(b)
        case _:
            return 1


def base_names(ty: Type) -> set[str]:
    match ty:
        case Base(n):
            return {n}
        case Fn(a, b) | Prod(a, b):
            return base_names(a) | base_names(b)
        case _:
            return set()


def contains_fn(ty: Type) -> bool:
    match ty:
        case Fn(_, _):
            return True
        case Prod(a, b):
            return contains_fn(a) or contains_fn(b)
        case _:
            return False


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class FnApp(Term):
    """Application of a signature function symbol (numerals included)."""
    sym: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Lam(Term):
    var: str
    annot: Type
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True, slots=True)
class Proj(Term):
    index: int  # 1 or 2
    tup: Term


@dataclass(frozen=True, slots=True)
class UnitVal(Term):
    pass


@dataclass(frozen=True, slots=True)
class Upcast(Term):
    """``up[low => high] body``: cast body from ``low`` up to ``high``.

    Well-formedness requires ``low`` less dynamic than ``high``; the body
    has type ``low`` and the cast has type ``high``.
    """
    low: Type
    high: Type
    body: Term


@dataclass(frozen=True, slots=True)
class Downcast(Term):
    """``dn[high => low] body``: cast body from ``high`` down to ``low``.

    Requires ``low`` less dynamic than ``high``; the body has type ``high``
    and the cast has type ``low``.
    """
    low: Type
    high: Type
    body: Term


@dataclass(frozen=True, slots=True)
class Err(Term):
    """The error constant, least term at its annotated type."""
    at: Type


UNITVAL = UnitVal()


def num(n: int) -> Term:
    """Numeral literal: sugar for a nullary function symbol."""
    return FnApp(str(n))


def term_size(t: Term) -> int:
    match t:
        case FnApp(_, args):
            return 1 + sum(term_size(a) for a in args)
        case Lam(_, _, b):
            return 1 + term_size(b)
        case App(f, a):
            return 1 + term_size(f) + term_size(a)
        case Pair(a, b):
            return 1 + term_size(a) + term_size(b)
        case Proj(_, b) | Upcast(_, _, b) | Downcast(_, _, b):
            return 1 + term_size(b)
        case _:
            return 1


def subterms(t: Term) -> Iterator[Term]:
    yield t
    match t:
        case FnApp(_, args):
            for a in args:
                yield from subterms(a)
        case Lam(_, _, b) | Proj(_, b) | Upcast(_, _, b) | Downcast(_, _, b):
            yield from subterms(b)
        case App(a, b) | Pair(a, b):
            yield from subterms(a)
            yield from subterms(b)


def cast_annotations(t: Term) -> Iterator[Type]:
    """All types carried by casts, error constants and binders inside t."""
    for s in subterms(t):
        match s:
            case Upcast(lo, hi, _) | Downcast(lo, hi, _):
                yield lo
                yield hi
            case Err(at):
                yield at
            case Lam(_, annot, _):
                yield annot
            case _:
                pass


# ---------------------------------------------------------------------------
# Contexts and substitutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Context:
    """Ordered typing context with pairwise distinct variable names."""

    entries: tuple[tuple[str, Type], ...] = ()

    def __post_init__(self):
        names = [n for n, _ in self.entries]
        if len(names) != len(set(names)):
            raise ContextError(f"duplicate variable in context: {names}")

    @classmethod
    def of(cls, *entries: tuple[str, Type]) -> "Context":
        return cls(tuple(entries))

    def extend(self, name: str, ty: Type) -> "Context":
        return Context(self.entries + ((name, ty),))

    def lookup(self, name: str) -> Type | None:
        for n, ty in self.entries:
            if n == name:
                return ty
        return None

    def names(self) -> set[str]:
        return {n for n, _ in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


EMPTY = Context()

# A substitution maps variable names to replacement terms.  ``substitute``
# requires the map to cover every free variable of its argument.
Substitution = Mapping[str, Term]


def free_vars(t: Term) -> set[str]:
    match t:
        case Var(x):
            return {x}
        case FnApp(_, args):
            out: set[str] = set()
            for a in args:
                out |= free_vars(a)
            return out
        case Lam(x, _, b):
            return free_vars(b) - {x}
        case App(a, b) | Pair(a, b):
            return free_vars(a) | free_vars(b)
        case Proj(_, b) | Upcast(_, _, b) | Downcast(_, _, b):
            return free_vars(b)
        case _:
            return set()


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest primed variant of ``base`` not occurring in ``avoid``."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


def substitute(t: Term, sigma: Substitution) -> Term:
    """Simultaneous capture-avoiding substitution.

    Every free variable of ``t`` must be in ``sigma``'s domain; binders are
    renamed whenever they would capture a free variable of an image term.
    """
    return _subst(t, dict(sigma))


def subst1(t: Term, name: str, image: Term) -> Term:
    """Substitute a single variable, keeping all other free variables."""
    sigma = {x: Var(x) for x in free_vars(t)}
    sigma[name] = image
    return _subst(t, sigma)


def _subst(t: Term, sigma: dict[str, Term]) -> Term:
    match t:
        case Var(x):
            if x not in sigma:
                raise UnboundVariable(x)
            return sigma[x]
        case FnApp(f, args):
            return FnApp(f, tuple(_subst(a, sigma) for a in args))
        case Lam(x, annot, body):
            inner = {y: img for y, img in sigma.items() if y != x}
            captured = set()
            for y in free_vars(body) - {x}:
                if y not in inner:
                    raise UnboundVariable(y)
                captured |= free_vars(inner[y])
            if x in captured:
                x2 = fresh_name(x, captured | free_vars(body))
                inner[x] = Var(x2)
                return Lam(x2, annot, _subst(body, inner))
            inner[x] = Var(x)
            return Lam(x, annot, _subst(body, inner))
        case App(f, a):
            return App(_subst(f, sigma), _subst(a, sigma))
        case Pair(a, b):
            return Pair(_subst(a, sigma), _subst(b, sigma))
        case Proj(i, b):
            return Proj(i, _subst(b, sigma))
        case Upcast(lo, hi, b):
            return Upcast(lo, hi, _subst(b, sigma))
        case Downcast(lo, hi, b):
            return Downcast(lo, hi, _subst(b, sigma))
        case _:
            return t


def compose_subst(sigma: Substitution, delta: Substitution) -> dict[str, Term]:
    """The substitution sending x to sigma(x)[delta]."""
    return {x: substitute(img, delta) for x, img in sigma.items()}


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""
    return _aeq(t, u, {}, {}, 0)


def _aeq(t: Term, u: Term, lenv: dict[str, int], renv: dict[str, int], depth: int) -> bool:
    match t, u:
        case Var(x), Var(y):
            lx, ry = lenv.get(x), renv.get(y)
            if lx is None and ry is None:
                return x == y
            return lx == ry and lx is not None
        case FnApp(f, fargs), FnApp(g, gargs):
            return f == g and len(fargs) == len(gargs) and all(
                _aeq(a, b, lenv, renv, depth) for a, b in zip(fargs, gargs))
        case Lam(x, ax, bx), Lam(y, ay, by):
            if ax != ay:
                return False
            lenv2 = dict(lenv)
            renv2 = dict(renv)
            lenv2[x] = depth
            renv2[y] = depth
            return _aeq(bx, by, lenv2, renv2, depth + 1)
        case App(f1, a1), App(f2, a2):
            return _aeq(f1, f2, lenv, renv, depth) and _aeq(a1, a2, lenv, renv, depth)
        case Pair(a1, b1), Pair(a2, b2):
            return _aeq(a1, a2, lenv, renv, depth) and _aeq(b1, b2, lenv, renv, depth)
        case Proj(i, b1), Proj(j, b2):
            return i == j and _aeq(b1, b2, lenv, renv, depth)
        case UnitVal(), UnitVal():
            return True
        case Upcast(l1, h1, b1), Upcast(l2, h2, b2):
            return l1 == l2 and h1 == h2 and _aeq(b1, b2, lenv, renv, depth)
        case Downcast(l1, h1, b1), Downcast(l2, h2, b2):
            return l1 == l2 and h1 == h2 and _aeq(b1, b2, lenv, renv, depth)
        case Err(a1), Err(a2):
            return a1 == a2
        case _:
            return False
