"""Independent reference implementations used only as test oracles.

These deliberately take different routes from the library code they
check: alpha equivalence by brute-force canonical renaming, substitution
through a nameless (de Bruijn) representation, the tree order by
enumerating every subtree replacement, and s-expressions by recursive
descent.
"""

from __future__ import annotations

import re

from gtt.grammar import ParseError, SexpList
from gtt.syntax import (
    App, Downcast, Err, FnApp, Lam, Pair, Proj, Term, Upcast, UnitVal, Var,
)
from gtt.model import ErrLeaf, ERR_LEAF, NatLeaf, Node, Tree


# -- alpha equivalence: rename every binder to its nesting depth -------------

def canonical_rename(t: Term, depth: int = 0, env: dict[str, str] | None = None) -> Term:
    env = env or {}
    match t:
        case Var(x):
            return Var(env.get(x, x))
        case Lam(x, annot, body):
            inner = dict(env)
            inner[x] = f"%{depth}"
            return Lam(f"%{depth}", annot, canonical_rename(body, depth + 1, inner))
        case App(f, a):
            return App(canonical_rename(f, depth, env), canonical_rename(a, depth, env))
        case Pair(a, b):
            return Pair(canonical_rename(a, depth, env), canonical_rename(b, depth, env))
        case Proj(i, b):
            return Proj(i, canonical_rename(b, depth, env))
        case Upcast(lo, hi, b):
            return Upcast(lo, hi, canonical_rename(b, depth, env))
        case Downcast(lo, hi, b):
            return Downcast(lo, hi, canonical_rename(b, depth, env))
        case FnApp(f, args):
            return FnApp(f, tuple(canonical_rename(a, depth, env) for a in args))
        case _:
            return t


def alpha_eq_oracle(t: Term, u: Term) -> bool:
    return canonical_rename(t) == canonical_rename(u)


# -- substitution through a nameless representation --------------------------
#
# Terms become nested tuples with de Bruijn indices for bound variables and
# names for free ones, so capture is impossible by construction.

def to_nameless(t: Term, bound: tuple[str, ...] = ()) -> object:
    match t:
        case Var(x):
            for i, name in enumerate(reversed(bound)):
                if name == x:
                    return ("ix", i)
            return ("free", x)
        case Lam(x, annot, body):
            return ("lam", annot, to_nameless(body, bound + (x,)))
        case App(f, a):
            return ("app", to_nameless(f, bound), to_nameless(a, bound))
        case Pair(a, b):
            return ("pair", to_nameless(a, bound), to_nameless(b, bound))
        case Proj(i, b):
            return ("proj", i, to_nameless(b, bound))
        case Upcast(lo, hi, b):
            return ("up", lo, hi, to_nameless(b, bound))
        case Downcast(lo, hi, b):
            return ("dn", lo, hi, to_nameless(b, bound))
        case FnApp(f, args):
            return ("fnapp", f, tuple(to_nameless(a, bound) for a in args))
        case UnitVal():
            return ("unit",)
        case Err(at):
            return ("err", at)
    raise AssertionError(t)


def _shift(t: object, by: int, cutoff: int = 0) -> object:
    match t:
        case ("ix", i):
            return ("ix", i + by) if i >= cutoff else t
        case ("lam", annot, b):
            return ("lam", annot, _shift(b, by, cutoff + 1))
        case ("app", f, a):
            return ("app", _shift(f, by, cutoff), _shift(a, by, cutoff))
        case ("pair", a, b):
            return ("pair", _shift(a, by, cutoff), _shift(b, by, cutoff))
        case ("proj", i, b):
            return ("proj", i, _shift(b, by, cutoff))
        case ("up", lo, hi, b):
            return ("up", lo, hi, _shift(b, by, cutoff))
        case ("dn", lo, hi, b):
            return ("dn", lo, hi, _shift(b, by, cutoff))
        case ("fnapp", f, args):
            return ("fnapp", f, tuple(_shift(a, by, cutoff) for a in args))
        case _:
            return t


def subst_nameless(t: object, images: dict[str, object]) -> object:
    """Replace free names by nameless images, shifting under binders."""
    def go(t, depth):
        match t:
            case ("free", x):
                if x not in images:
                    raise KeyError(x)
                return _shift(images[x], depth)
            case ("lam", annot, b):
                return ("lam", annot, go(b, depth + 1))
            case ("app", f, a):
                return ("app", go(f, depth), go(a, depth))
            case ("pair", a, b):
                return ("pair", go(a, depth), go(b, depth))
            case ("proj", i, b):
                return ("proj", i, go(b, depth))
            case ("up", lo, hi, b):
                return ("up", lo, hi, go(b, depth))
            case ("dn", lo, hi, b):
                return ("dn", lo, hi, go(b, depth))
            case ("fnapp", f, args):
                return ("fnapp", f, tuple(go(a, depth) for a in args))
            case _:
                return t
    return go(t, 0)


# -- tree order by enumerating subtree replacements --------------------------

def replacements(t: Tree) -> set[Tree]:
    """Every tree obtained by replacing some subtrees of ``t`` with the
    error leaf."""
    match t:
        case ErrLeaf():
            return {ERR_LEAF}
        case NatLeaf(_):
            return {t, ERR_LEAF}
        case Node(l, r):
            out = {Node(a, b) for a in replacements(l) for b in replacements(r)}
            out.add(ERR_LEAF)
            return out
    raise AssertionError(t)


def tree_leq_oracle(a: Tree, b: Tree) -> bool:
    return a in replacements(b)


# -- s-expressions by recursive descent ---------------------------------------
#
# One call per list, character tests in place of a token regex.  Errors are
# the first one met left to right, with the same message and offset as
# ``gtt.grammar.parse_sexps``.

_ATOM = re.compile(r"[^\s(){}#]+")


def parse_sexps_reference(text: str) -> list:
    items, _ = _sexp_seq(text, 0, top=True)
    return items


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
        elif text[pos] == "#":
            nl = text.find("\n", pos)
            pos = len(text) if nl < 0 else nl + 1
        else:
            break
    return pos


def _sexp_seq(text: str, pos: int, top: bool = False):
    items = []
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            if not top:
                raise ParseError("unexpected end of input in s-expression", pos)
            return items, pos
        ch = text[pos]
        if ch == ")":
            if top:
                raise ParseError("unbalanced ')'", pos)
            return items, pos
        if ch == "(":
            inner, pos = _sexp_seq(text, pos + 1)
            items.append(SexpList(inner))
            pos += 1
        elif ch == "{":
            end = text.find("}", pos)
            if end < 0:
                raise ParseError("unterminated '{' chunk", pos)
            items.append(("chunk", text[pos + 1:end]))
            pos = end + 1
        elif ch == "}":
            raise ParseError("unbalanced '}'", pos)
        else:
            m = _ATOM.match(text, pos)
            items.append(m.group())
            pos = m.end()
