"""Abstract syntax for gradual types and terms.

Types are base names, the dynamic type ``?``, functions, binary products
and the unit type.  Terms are a simply typed lambda calculus extended with
explicit upcasts and downcasts (each carrying both endpoint types), the
error constant at every type, and applications of signature-declared
function symbols.

Types are hash-consed: there is one live instance per type, so ``==`` on
types is identity and hashing one is O(1).  Terms are structural frozen
dataclasses in the locally nameless representation (Charguéraud, *The
Locally Nameless Representation*, JAR 2012): a variable bound by a lambda
is ``Bound(i)``, the ``i``-th enclosing binder counting from 0, and a free
one is a named ``Var``.  A lambda keeps its binder's name only as a hint
for printing, which ``==`` and ``hash`` ignore, so ``==`` is equality up
to renaming of bound variables.  Substituting terms without loose indices
cannot capture, so no substitution ever renames.

The walks over every node (``_walk``, which substitution, shifting and
closing a lambda share, ``free_vars`` and ``_children``) dispatch on
``type(t)`` in an if-chain, frequent classes first, and read fields by
attribute.  A ``case App(f, a)`` pattern costs an ``isinstance`` test and a
``__match_args__`` lookup per field, case after case; terms are never
subclassed, so ``type(t) is App`` picks the same branch for less.
"""

from __future__ import annotations

import weakref
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Callable, Iterator, Mapping


class GttError(Exception):
    """Base class for every error raised by this package."""


class UnboundVariable(GttError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class ContextError(GttError):
    pass


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """``cls`` as a ``dataclass(frozen=True, slots=True)`` with an
    ``__init__`` that stores each field through its slot descriptor and
    then calls ``__post_init__``, if the class defines one.  The dataclass
    ``__init__`` stores through ``object.__setattr__``, which looks the
    descriptor up again for every field, and so costs about twice as much
    per object.  A class that writes its own ``__init__`` keeps it, and
    gets the storing one as ``_store``.  ``==``, ``hash``, ``repr`` and
    ``__match_args__`` are the dataclass's.  Assigning or deleting any
    attribute, field or not, raises ``FrozenInstanceError``: the
    dataclass's own ``__setattr__`` tests ``type(self)`` against the class
    it was given, not the slotted copy it returns, so for a name that is
    not a field it calls ``super()`` with the wrong class and raises
    ``TypeError``."""
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_delete
    scope, params, stores = {}, [], []
    for f in fields(cls):
        scope[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        stores.append(f"\n    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        stores.append("\n    self.__post_init__()")
    exec(f"def store(self, {', '.join(params)}):{''.join(stores) or ' pass'}", scope)
    if "__init__" in cls.__dict__:
        cls._store = staticmethod(scope["store"])
    else:
        scope["store"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = scope["store"]
    return cls


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

class Type:
    """A hash-consed type: a constructor returns the one live instance for
    its fields, so ``==`` is identity and ``hash`` is O(1).  Each class
    keeps a table of weak references, and an entry dies with its type
    (Filliâtre and Conchon, *Type-Safe Modular Hash-Consing*, 2006).
    ``grammar.type_to_text`` keeps a type's text in ``_text`` once made."""

    __slots__ = ("__weakref__", "_text")
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls):
        table: dict[tuple, weakref.KeyedRef] = {}

        def forget(entry: weakref.KeyedRef):
            if table.get(entry.key) is entry:
                del table[entry.key]

        cls._table, cls._forget = table, forget

    __setattr__, __delattr__ = _refuse_set, _refuse_delete

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __str__(self) -> str:
        from .grammar import type_to_text
        return type_to_text(self)


def _intern(cls, fields: tuple):
    """The live instance of ``cls`` with these fields, made if there is none."""
    entry = cls._table.get(fields)
    if entry is not None:
        ty = entry()
        if ty is not None:
            return ty
    ty = object.__new__(cls)
    for name, value in zip(cls.__match_args__, fields):
        object.__setattr__(ty, name, value)
    cls._table[fields] = weakref.KeyedRef(ty, cls._forget, fields)
    return ty


class Base(Type):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Base":
        return _intern(cls, (name,))


class Dyn(Type):
    """The dynamic type ``?``, the most dynamic type."""
    __slots__ = ()

    def __new__(cls) -> "Dyn":
        return _intern(cls, ())


class Fn(Type):
    __slots__ = __match_args__ = ("dom", "cod")

    def __new__(cls, dom: Type, cod: Type) -> "Fn":
        return _intern(cls, (dom, cod))


class Prod(Type):
    __slots__ = __match_args__ = ("fst", "snd")

    def __new__(cls, fst: Type, snd: Type) -> "Prod":
        return _intern(cls, (fst, snd))


class Unit(Type):
    __slots__ = ()

    def __new__(cls) -> "Unit":
        return _intern(cls, ())


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


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()


@frozen
class Var(Term):
    """A free variable, by name."""
    name: str


@frozen
class FnApp(Term):
    """Application of a signature function symbol (numerals included)."""
    sym: str
    args: tuple[Term, ...] = ()


@frozen
class Bound(Term):
    """The variable of the ``index``-th enclosing lambda, the nearest 0."""
    index: int


@frozen
class Lam(Term):
    """``\\var:annot. body``; the body refers to the binder as ``Bound(0)``
    and ``var`` is a hint for printing.  ``Lam(x, annot, body)`` closes a
    body that names the binder ``x``; ``Lam.nameless`` takes a closed one."""
    var: str = field(compare=False)
    annot: Type
    body: Term

    def __init__(self, var: str, annot: Type, body: Term):
        Lam._store(self, var, annot, _walk(body, lambda v, d: Bound(d) if (
            type(v) is Var and v.name == var) else v))

    @classmethod
    def nameless(cls, var: str, annot: Type, body: Term) -> "Lam":
        lam = object.__new__(cls)
        cls._store(lam, var, annot, body)
        return lam


@frozen
class App(Term):
    """Application of a term of function type to an argument."""
    fn: Term
    arg: Term


@frozen
class Pair(Term):
    """A pair, of product type."""
    fst: Term
    snd: Term


@frozen
class Proj(Term):
    """The first or second component of a pair."""
    index: int  # 1 or 2
    tup: Term


@frozen
class UnitVal(Term):
    """The value ``()`` of the unit type."""


@frozen
class Upcast(Term):
    """``up[low => high] body``: cast body from ``low`` up to ``high``.

    Well-formedness requires ``low`` less dynamic than ``high``; the body
    has type ``low`` and the cast has type ``high``.
    """
    low: Type
    high: Type
    body: Term


@frozen
class Downcast(Term):
    """``dn[high => low] body``: cast body from ``high`` down to ``low``.

    Requires ``low`` less dynamic than ``high``; the body has type ``high``
    and the cast has type ``low``.
    """
    low: Type
    high: Type
    body: Term


@frozen
class Err(Term):
    """The error constant, least term at its annotated type."""
    at: Type


UNITVAL = UnitVal()


def num(n: int) -> Term:
    """Numeral literal: sugar for a nullary function symbol."""
    return FnApp(str(n))


def _children(t: Term) -> tuple[Term, ...]:
    """The immediate subterms of ``t``, left to right."""
    k = type(t)
    if k is Upcast or k is Downcast or k is Lam:
        return (t.body,)
    if k is App:
        return (t.fn, t.arg)
    if k is Pair:
        return (t.fst, t.snd)
    if k is Proj:
        return (t.tup,)
    if k is FnApp:
        return t.args
    return ()


def term_size(t: Term) -> int:
    return 1 + sum(map(term_size, _children(t)))


def subterms(t: Term) -> Iterator[Term]:
    yield t
    for child in _children(t):
        yield from subterms(child)


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

@frozen
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

    def names(self) -> set[str]:
        return {n for n, _ in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# A substitution maps variable names to terms without loose indices, which
# no binder can capture; ``substitute`` requires it to cover every free one.
Substitution = Mapping[str, Term]


def free_vars(t: Term) -> set[str]:
    k = type(t)
    if k is Var:
        return {t.name}
    if k is Upcast or k is Downcast or k is Lam:
        return free_vars(t.body)
    if k is App:
        return free_vars(t.fn) | free_vars(t.arg)
    if k is Pair:
        return free_vars(t.fst) | free_vars(t.snd)
    if k is Proj:
        return free_vars(t.tup)
    if k is FnApp:
        return set().union(*map(free_vars, t.args))
    return set()


def loose_indices(t: Term, depth: int = 0) -> set[int]:
    """The indices, at ``t``'s root, of the outer binders that ``t`` refers to."""
    if type(t) is Bound:
        return {t.index - depth} if t.index >= depth else set()
    depth += type(t) is Lam
    return set().union(*(loose_indices(child, depth) for child in _children(t)))


def fresh_name(base: str, avoid: set[str]) -> str:
    """Smallest primed variant of ``base`` not occurring in ``avoid``."""
    candidate = base
    while candidate in avoid:
        candidate += "'"
    return candidate


def substitute(t: Term, sigma: Substitution) -> Term:
    """Simultaneous substitution; every free variable of ``t`` must be in
    ``sigma``'s domain."""
    def leaf(v: Term, depth: int) -> Term:
        if isinstance(v, Bound):
            return v
        if v.name not in sigma:
            raise UnboundVariable(v.name)
        return sigma[v.name]
    return _walk(t, leaf)


def subst1(t: Term, name: str, image: Term) -> Term:
    """Substitute a single variable, keeping all other free variables."""
    return _walk(t, lambda v, d: image if type(v) is Var and v.name == name else v)


def shift(t: Term, by: int) -> Term:
    """``t`` put under ``by`` more binders: its loose indices raised by ``by``."""
    return _walk(t, lambda v, d: Bound(v.index + by) if (
        type(v) is Bound and v.index >= d) else v)


def instantiate(body: Term, image: Term) -> Term:
    """A lambda's body with its binder replaced by ``image``."""
    return _walk(body, lambda v, d: image if type(v) is Bound and v.index == d else v)


def _walk(t: Term, leaf: Callable[[Term, int], Term], depth: int = 0) -> Term:
    """``t`` with each variable ``v`` under ``depth`` binders replaced by
    ``leaf(v, depth)``."""
    k = type(t)
    if k is Var or k is Bound:
        return leaf(t, depth)
    if k is Upcast or k is Downcast:
        return k(t.low, t.high, _walk(t.body, leaf, depth))
    if k is App:
        return App(_walk(t.fn, leaf, depth), _walk(t.arg, leaf, depth))
    if k is Pair:
        return Pair(_walk(t.fst, leaf, depth), _walk(t.snd, leaf, depth))
    if k is Proj:
        return Proj(t.index, _walk(t.tup, leaf, depth))
    if k is Lam:
        return Lam.nameless(t.var, t.annot, _walk(t.body, leaf, depth + 1))
    if k is FnApp:
        return FnApp(t.sym, tuple(_walk(a, leaf, depth) for a in t.args))
    return t
