"""Independent reference implementations used only as test oracles.

These deliberately take different routes from the library code they
check: type dynamism by a bounded search for derivations that may use
transitivity, alpha equivalence by brute-force canonical renaming,
substitution through a nameless (de Bruijn) representation, the tree
order by enumerating every subtree replacement, s-expressions by
recursive descent, theorem instances by deriving every parameter tuple
before the size filter, and the model by walking the term for every
environment.
"""

from __future__ import annotations

import re

from gtt.grammar import ParseError, SexpList
from gtt.syntax import (
    App, DYN, Downcast, Err, FnApp, Lam, Pair, Proj, Term, Type, UNIT,
    Upcast, UnitVal, Var,
)
from gtt.model import (
    ErrLeaf, ERR_LEAF, FnVal, ModelError, NatLeaf, NatVal, Node, PairVal,
    Report, Tree, UNIT_SEM, denote_coreflection, enumerate_values,
    least_value, tree_leq, value_to_text,
)
from gtt.syntax import Base, Fn, Prod, Unit, contains_fn, type_size
from gtt.theorems import (
    FlagRequired, THEOREMS, derive_theorem, judgment_types,
)
from gtt.typecheck import Signature, enumerate_types, tydyn_holds


# -- type dynamism by bounded derivation search -------------------------------

def _search_universe(sig: Signature, a: Type, b: Type) -> list[Type]:
    seen: list[Type] = []

    def add(ty: Type):
        if ty not in seen:
            seen.append(ty)
            match ty:
                case Fn(x, y) | Prod(x, y):
                    add(x)
                    add(y)
                case _:
                    pass

    for ty in (a, b, DYN, UNIT):
        add(ty)
    for x, y in sig.tydyn_axioms:
        add(x)
        add(y)
    return seen


def tydyn_search(sig: Signature, a: Type, b: Type, depth: int = 5,
                 universe: list[Type] | None = None) -> bool:
    """Brute-force search for a dynamism derivation of bounded depth.

    Rules tried: reflexivity, axioms, the top rule for ``?``, head-constructor
    monotonicity, and transitivity through every type in ``universe``
    (defaults to the subterm closure of the query and the axioms).
    """
    mids = universe if universe is not None else _search_universe(sig, a, b)
    memo: dict[tuple[Type, Type, int], bool] = {}

    def go(x: Type, y: Type, d: int) -> bool:
        if d <= 0:
            return False
        key = (x, y, d)
        if key in memo:
            return memo[key]
        out = _step(x, y, d)
        memo[key] = out
        return out

    def _step(x: Type, y: Type, d: int) -> bool:
        if x == y:
            return True
        if (x, y) in sig.tydyn_axioms:
            return True
        if y == DYN and (sig.dyn_top is None or sig.dyn_top(x)):
            return True
        match x, y:
            case (Fn(x1, y1), Fn(x2, y2)) | (Prod(x1, y1), Prod(x2, y2)):
                if go(x1, x2, d - 1) and go(y1, y2, d - 1):
                    return True
            case _:
                pass
        for mid in mids:
            if mid != x and mid != y and go(x, mid, d - 1) and go(mid, y, d - 1):
                return True
        return False

    return go(a, b, depth)


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


# -- theorem instances by generate-then-filter --------------------------------
#
# Every hypothesis-satisfying parameter tuple is derived, and the size
# filter on the built conclusions alone decides what is kept.

def _params_reference(sig, kind: str, types: list):
    pairs = [(a, b) for a in types for b in types if tydyn_holds(sig, a, b)]
    if kind == "ty":
        for a in types:
            yield (a,)
    elif kind == "pair":
        yield from pairs
    elif kind == "chain":
        for a, a1 in pairs:
            for a2 in types:
                if tydyn_holds(sig, a1, a2):
                    yield (a, a1, a2)
    elif kind == "pair2":
        for a, a1 in pairs:
            for b, b1 in pairs:
                yield (a, b, a1, b1)
    elif kind == "square":
        for a, a1 in pairs:
            for b, b1 in pairs:
                if tydyn_holds(sig, a, b) and tydyn_holds(sig, a1, b1):
                    yield (a, a1, b, b1)
    elif kind == "equi":
        for a, b in pairs:
            if tydyn_holds(sig, b, a):
                yield (a, b)
    elif kind == "tri_r":
        for a1, a2 in pairs:
            for b2 in types:
                if tydyn_holds(sig, a1, b2):
                    yield (a1, a2, b2)
    elif kind == "tri_l":
        for a1, a2 in pairs:
            for b1 in types:
                if tydyn_holds(sig, b1, a2):
                    yield (a1, a2, b1)
    elif kind == "errsh":
        for shape in ("app", "prj1", "prj2"):
            for a in types:
                for b in types:
                    yield (shape, a, b)
    else:
        raise ValueError(kind)


def theorem_instances_reference(sig, size: int = 3, names=None, types=None):
    if types is None:
        types = enumerate_types(sig, size)
    for name in (names or THEOREMS):
        kind, _ = THEOREMS[name]
        for params in _params_reference(sig, kind, types):
            try:
                ds = derive_theorem(sig, name, *params)
            except FlagRequired:
                yield name, params, "SKIPPED(flag)"
                continue
            if all(type_size(ty) <= size
                   for d in ds for ty in judgment_types(d)):
                yield name, params, ds


# -- the model by walking the term for every environment ----------------------

def eval_term_reference(sig, env: dict, t: Term):
    match t:
        case Var(x):
            if x not in env:
                raise ModelError(f"environment does not bind {x}")
            return env[x]
        case FnApp(f, args):
            if f.isdigit() and not args and sig.numerals_enabled():
                return NatVal(int(f))
            raise ModelError(f"function symbol {f} is not evaluable")
        case Lam(x, _, body):
            def closure(v, _x=x, _body=body, _env=dict(env)):
                inner = dict(_env)
                inner[_x] = v
                return eval_term_reference(sig, inner, _body)
            return FnVal(closure)
        case App(f, a):
            fv = eval_term_reference(sig, env, f)
            return fv(eval_term_reference(sig, env, a))
        case Pair(a, b):
            return PairVal(eval_term_reference(sig, env, a),
                           eval_term_reference(sig, env, b))
        case Proj(i, b):
            v = eval_term_reference(sig, env, b)
            return v.fst if i == 1 else v.snd
        case UnitVal():
            return UNIT_SEM
        case Upcast(lo, hi, b):
            return denote_coreflection(sig, lo, hi).up(eval_term_reference(sig, env, b))
        case Downcast(lo, hi, b):
            return denote_coreflection(sig, lo, hi).dn(eval_term_reference(sig, env, b))
        case Err(at):
            return least_value(sig, at)
    raise ModelError(f"cannot evaluate {t!r}")


def value_leq_at_reference(sig, ty, v, w, bound: int = 2) -> bool:
    match ty:
        case Base(_):
            return v.n is None or v == w
        case Unit():
            return True
        case Prod(a, b):
            return (value_leq_at_reference(sig, a, v.fst, w.fst, bound)
                    and value_leq_at_reference(sig, b, v.snd, w.snd, bound))
        case Fn(dom, cod):
            return all(value_leq_at_reference(sig, cod, v(arg), w(arg), bound)
                       for arg in enumerate_values(sig, dom, bound))
        case _:
            return tree_leq(v.tree, w.tree)


def value_leq_reference(sig, a, b, v, w, bound: int = 2) -> bool:
    if a == b:
        return value_leq_at_reference(sig, a, v, w, bound)
    up = denote_coreflection(sig, a, b).up
    return value_leq_at_reference(sig, b, up(v), w, bound)


_RELATED: dict = {}


def _related_reference(sig, a, b, bound: int) -> list:
    key = (sig, a, b, bound)
    if key not in _RELATED:
        _RELATED[key] = [(v, w)
                         for v in enumerate_values(sig, a, bound)
                         for w in enumerate_values(sig, b, bound)
                         if value_leq_reference(sig, a, b, v, w, bound)]
    return _RELATED[key]


def check_judgment_semantics_reference(sig, j, bound: int = 2) -> Report:
    """The same report as ``gtt.model.check_judgment_semantics``, from
    every environment pair re-evaluated by the walkers above."""
    subject = f"judgment {j.describe()}"
    for _, _, tl, tr in j.phi:
        if contains_fn(tl) or contains_fn(tr):
            raise ModelError("judgment context mentions function types")
    if contains_fn(j.type_left) or contains_fn(j.type_right):
        raise ModelError("judgment endpoint types mention function types")

    def envs(entries, left_env, right_env):
        if not entries:
            yield dict(left_env), dict(right_env)
            return
        (xl, xr, tl, tr), *rest = entries
        for v, w in _related_reference(sig, tl, tr, bound):
            left_env[xl] = v
            right_env[xr] = w
            yield from envs(rest, left_env, right_env)

    checks = 0
    for left_env, right_env in envs(list(j.phi.entries), {}, {}):
        lv = eval_term_reference(sig, left_env, j.left)
        rv = eval_term_reference(sig, right_env, j.right)
        checks += 1
        if not value_leq_reference(sig, j.type_left, j.type_right, lv, rv, bound):
            env_text = ", ".join(
                f"{x}={value_to_text(v)}" for x, v in
                list(left_env.items()) + [(f"{x}'", v) for x, v in right_env.items()])
            return Report(subject, bound, False,
                          f"[{env_text}] gives {value_to_text(lv)} not below "
                          f"{value_to_text(rv)}", checks)
    return Report(subject, bound, True, None, checks)
