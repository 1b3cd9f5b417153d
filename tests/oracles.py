"""Independent reference implementations used only as test oracles.

These deliberately take different routes from the library code they
check: type dynamism by a bounded search for derivations that may use
transitivity, alpha equivalence by brute-force canonical renaming,
substitution through a nameless (de Bruijn) representation, the order
at ``?`` by enumerating every subtree replacement and its values by
rounds deduplicated through list membership, terms and types by a
parser over token tuples that are matched at each position, derivation
files read by the reference reader (a scan of
the whole text into an s-expression tree, then a walk of that tree that
checks each list's shape before its items) and written through an
s-expression tree that renders every type and term at each occurrence,
theorem instances by deriving every parameter tuple
before the size filter, the model by walking the term for every
environment and testing each map at every related pair of values, normal forms by substitution, re-reduction and eta
expansion with a type inferred at every spine node, types by renaming
each shadowing binder through substitution, and derivation checking with
every context rebuilt and checked again for each side of each judgment.
"""

from __future__ import annotations

import functools
import re

from gtt.dynamism import _SCHEMA, Derivation, DynJudgment, _rule_errors
from gtt.elaborate import _Fuel
from gtt.grammar import (
    RESERVED, ParseError, parse_term, parse_type, term_to_text, type_to_text,
)
from gtt.syntax import (
    App, Bound, Context, DYN, Downcast, Err, FnApp, GttError, Lam, Pair, Proj,
    Term, Type, UNIT, UNITVAL, Upcast, UnitVal, Var, free_vars, fresh_name,
    instantiate, substitute,
)
from gtt.model import (
    FnVal, ModelError, NatVal, PairVal, Report, SemValue, UNIT_SEM,
    denote_coreflection, enumeration, judgment_types, least_value,
    value_to_text,
)
from gtt.syntax import Base, Fn, Prod, Unit, type_size
from gtt.theorems import (
    FlagRequired, HypothesisError, THEOREMS, derive_theorem,
)
from gtt.typecheck import (
    DynCtx, Signature, TypeCheckError, _unrelated_grounds, check_type_wf,
    enumerate_types, first_order, infer_type, tydyn_holds,
)


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

def canonical_rename(t: Term, depth: int = 0) -> object:
    """``t`` as nested tuples, with every binder named by its nesting depth
    and every bound variable by its binder's name."""
    match t:
        case Var(x):
            return ("var", x)
        case Bound(i):
            return ("var", f"%{depth - 1 - i}")
        case Lam(_, annot, body):
            return ("lam", f"%{depth}", annot, canonical_rename(body, depth + 1))
        case App(f, a):
            return ("app", canonical_rename(f, depth), canonical_rename(a, depth))
        case Pair(a, b):
            return ("pair", canonical_rename(a, depth), canonical_rename(b, depth))
        case Proj(i, b):
            return ("proj", i, canonical_rename(b, depth))
        case Upcast(lo, hi, b):
            return ("up", lo, hi, canonical_rename(b, depth))
        case Downcast(lo, hi, b):
            return ("dn", lo, hi, canonical_rename(b, depth))
        case FnApp(f, args):
            return ("fnapp", f, tuple(canonical_rename(a, depth) for a in args))
        case UnitVal():
            return ("unit",)
        case Err(at):
            return ("err", at)
    raise AssertionError(t)


def alpha_eq_oracle(t: Term, u: Term) -> bool:
    return canonical_rename(t) == canonical_rename(u)


# -- substitution through a nameless representation --------------------------
#
# Terms become nested tuples with de Bruijn indices for bound variables and
# names for free ones, without binder hints, so capture is impossible by
# construction.

def to_nameless(t: Term) -> object:
    match t:
        case Var(x):
            return ("free", x)
        case Bound(i):
            return ("ix", i)
        case Lam(_, annot, body):
            return ("lam", annot, to_nameless(body))
        case App(f, a):
            return ("app", to_nameless(f), to_nameless(a))
        case Pair(a, b):
            return ("pair", to_nameless(a), to_nameless(b))
        case Proj(i, b):
            return ("proj", i, to_nameless(b))
        case Upcast(lo, hi, b):
            return ("up", lo, hi, to_nameless(b))
        case Downcast(lo, hi, b):
            return ("dn", lo, hi, to_nameless(b))
        case FnApp(f, args):
            return ("fnapp", f, tuple(to_nameless(a) for a in args))
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


# -- the values of ? and their order by subtree replacement --------------------

@functools.cache
def replacements(v: SemValue) -> frozenset[SemValue]:
    """Every value of ``?`` obtained by replacing some subtrees of ``v``
    (a leaf ``NatVal`` or a node ``PairVal``) with the error."""
    match v:
        case NatVal(None):
            return frozenset({v})
        case NatVal(_):
            return frozenset({v, NatVal(None)})
        case PairVal(l, r):
            return frozenset({PairVal(a, b) for a in replacements(l)
                              for b in replacements(r)} | {NatVal(None)})
    raise AssertionError(v)


def dyn_leq_oracle(v: SemValue, w: SemValue) -> bool:
    return v in replacements(w)


def enumerate_dyn_reference(bound: int, leaves: tuple[int, ...] | None = None
                            ) -> list[SemValue]:
    """The values of ``?`` of depth at most ``bound`` over the error and
    the given leaves (default ``0 .. bound-1``): each round appends the
    pairs of everything so far that are not yet in the list."""
    if leaves is None:
        leaves = tuple(range(bound))
    out = [NatVal(None)] + [NatVal(n) for n in leaves]
    for _ in range(bound - 1):
        level = [PairVal(a, b) for a in out for b in out]
        out.extend([v for v in level if v not in out])
    return out


# -- derivation files read through an s-expression tree ----------------------
#
# ``gtt.derivio.parse_derivations`` as it was when it had two paths, kept
# whole as the reference reader: ``parse_sexps`` scans the whole text into
# an s-expression tree first, so a fault of the text itself wins over any
# other, and the ``_read_*`` walk then checks each list's shape before what
# is in it, naming each fault with the item that stands in its place.

class SexpList(list):
    pass


# one token, if any, and the whitespace and comments after it
_SEXP_TOKEN = re.compile(r"""
    (?: (?P<atom>[^\s(){}\#]+)
      | \{(?P<chunk>[^}]*)\}
      | (?P<open>\()
      | (?P<close>\))
      | (?P<unterminated>\{)
      | (?P<stray>\})
    )?
    (?:\s+|\#[^\n]*)*
""", re.VERBOSE)


def parse_sexps(text: str) -> list:
    """Parse a sequence of s-expressions in one left-to-right pass.

    Atoms are bare words; ``{...}`` chunks are raw text handed to the term
    and type parsers by the derivation reader.  ``#`` comments allowed.
    Open lists are kept on an explicit stack, so nesting depth is not
    bounded by the interpreter's recursion limit.
    """
    stack: list[list] = []
    items: list = []
    for m in _SEXP_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "atom":
            items.append(m.group(kind))
        elif kind == "chunk":
            items.append(("chunk", m.group(kind)))
        elif kind == "open":
            stack.append(items)
            items = []
        elif kind == "close":
            if not stack:
                raise ParseError("unbalanced ')'", m.start())
            inner = SexpList(items)
            items = stack.pop()
            items.append(inner)
        elif kind == "unterminated":
            raise ParseError("unterminated '{' chunk", m.start())
        elif kind == "stray":
            raise ParseError("unbalanced '}'", m.start())
    if stack:
        raise ParseError("unexpected end of input in s-expression", len(text))
    return items


def _chunk(x) -> str:
    if isinstance(x, tuple) and x and x[0] == "chunk":
        return x[1]
    raise ParseError(f"expected a {{...}} chunk, found {x!r}")


def _name(x) -> str:
    if isinstance(x, str):
        return x
    raise ParseError(f"expected a variable name, found {x!r}")


def _headed(sx, head: str) -> bool:
    return isinstance(sx, SexpList) and len(sx) > 0 and sx[0] == head


def _memo(parse):
    table: dict = {}

    def read(x):
        text = _chunk(x)
        out = table.get(text)
        if out is None:
            out = table[text] = parse(text)
        return out
    return read


class _Reader:
    """Chunk readers for one ``parse_derivations_reference`` call, one table
    for types and one for terms (``Nat`` is a base type in one, a variable
    in the other).  Parses are frozen values and ``sig`` is fixed for the
    call, so repeats can share them; the tables die with the call."""

    def __init__(self, sig: Signature):
        self.type = _memo(parse_type)
        self.term = _memo(lambda text: parse_term(text, sig))


def _binding(entry, read):
    """``(x {chunk})``, with the chunk read by ``read``."""
    if not (isinstance(entry, SexpList) and len(entry) == 2):
        raise ParseError(f"expected (x {{...}}), found {entry!r}")
    return _name(entry[0]), read(entry[1])


def _read_dynctx(sx, rd: _Reader) -> DynCtx:
    if not _headed(sx, "ctx"):
        raise ParseError("expected (ctx ...)")
    entries = []
    for entry in sx[1:]:
        if not (isinstance(entry, SexpList) and len(entry) == 4):
            raise ParseError("context entry must be (x x' {A} {A'})")
        entries.append((_name(entry[0]), _name(entry[1]),
                        rd.type(entry[2]), rd.type(entry[3])))
    return DynCtx(tuple(entries))


def _read_concl(sx, rd: _Reader) -> DynJudgment:
    if not (_headed(sx, "concl") and len(sx) == 6):
        raise ParseError("expected (concl (ctx ...) {t} {t'} {A} {A'})")
    return DynJudgment(_read_dynctx(sx[1], rd), rd.term(sx[2]), rd.term(sx[3]),
                       rd.type(sx[4]), rd.type(sx[5]))


def _read_aux(sx, rd: _Reader):
    body = sx[1:]
    if len(body) == 1 and isinstance(body[0], str):
        word = body[0]
        if word in ("fwd", "bwd"):
            return word
        if not (word.isascii() and word.isdigit()):
            raise ParseError(f"bad aux atom {word!r}")
        return int(word)
    if len(body) == 2 and all(_headed(b, "sub") for b in body):
        return tuple(tuple(_binding(e, rd.term) for e in b[1:]) for b in body)
    if len(body) == 1 and _headed(body[0], "mid") and len(body[0]) == 4:
        _, ctx_sx, term, ty = body[0]
        if not _headed(ctx_sx, "ctx"):
            raise ParseError("expected (mid (ctx (x {A}) ...) {t} {A})")
        entries = tuple(_binding(e, rd.type) for e in ctx_sx[1:])
        return entries, rd.term(term), rd.type(ty)
    raise ParseError(f"unrecognized aux form: {sx!r}")


def _read_derivation(sx, rd: _Reader) -> Derivation:
    if not (isinstance(sx, SexpList) and sx and isinstance(sx[0], str)):
        raise ParseError("derivation must be (rule (concl ...) ...)")
    rule = sx[0]
    if len(sx) < 2:
        raise ParseError(f"rule {rule} is missing its conclusion")
    conclusion = _read_concl(sx[1], rd)
    aux = None
    rest = sx[2:]
    if rest and _headed(rest[0], "aux"):
        aux = _read_aux(rest[0], rd)
        rest = rest[1:]
    premises = tuple(_read_derivation(p, rd) for p in rest)
    return Derivation(rule, conclusion, premises, aux)


def parse_derivations_reference(text: str, sig: Signature) -> list[Derivation]:
    """Scan, then walk the s-expressions."""
    rd = _Reader(sig)
    return [_read_derivation(sx, rd) for sx in parse_sexps(text)]


# -- tokens by matching at each position --------------------------------------
#
# The lexer of the reference parser below: the grammar's token pattern
# without its catch-all group, matched at each position in a loop that stops
# at the first character no token starts with.

_TOKEN_REFERENCE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow2>=>)
  | (?P<arrow>->)
  | (?P<leq><=)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[()\[\],:.\\*?=|{}])
""", re.VERBOSE)


def tokenize_reference(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_REFERENCE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out



# -- terms and types by a parser over token tuples ------------------------------
#
# ``gtt.grammar``'s parser as it was before it walked a list of token texts
# by index: a stream of ``(kind, text, offset)`` tuples read through method
# calls, with each bound variable found by a search of the enclosing binders.
# It lexes with ``tokenize_reference``, so an unexpected character anywhere
# in the text is raised before parsing starts.

class _Stream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.bound: list[str] = []  # the enclosing binders' names, innermost last

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", pos)

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def done(self) -> bool:
        return self.peek()[0] == "eof"


def parse_type_reference(text: str) -> Type:
    s = _Stream(tokenize_reference(text))
    ty = _type(s)
    if not s.done():
        raise ParseError(f"trailing input after type: {s.peek()[1]!r}", s.peek()[2])
    return ty


def _type(s: _Stream) -> Type:
    left = _prod_type(s)
    if s.at("->"):
        s.next()
        return Fn(left, _type(s))
    return left


def _prod_type(s: _Stream) -> Type:
    left = _atom_type(s)
    while s.at("*"):
        s.next()
        left = Prod(left, _atom_type(s))
    return left


def _atom_type(s: _Stream) -> Type:
    kind, text, pos = s.next()
    if text == "?":
        return DYN
    if text == "1":
        return UNIT
    if text == "(":
        ty = _type(s)
        s.expect(")")
        return ty
    if kind == "ident":
        if text in RESERVED:
            raise ParseError(f"reserved word {text!r} is not a type", pos)
        return Base(text)
    raise ParseError(f"expected a type, found {text!r}", pos)


def parse_term_reference(text: str, sig) -> Term:
    s = _Stream(tokenize_reference(text))
    t = _term(s, sig)
    if not s.done():
        raise ParseError(f"trailing input after term: {s.peek()[1]!r}", s.peek()[2])
    return t


def _term(s: _Stream, sig) -> Term:
    if s.at("\\"):
        s.next()
        kind, name, pos = s.next()
        if kind != "ident" or name in RESERVED:
            raise ParseError(f"expected a variable after lambda, found {name!r}", pos)
        s.expect(":")
        ty = _type(s)
        s.expect(".")
        s.bound.append(name)
        body = _term(s, sig)
        s.bound.pop()
        return Lam.nameless(name, ty, body)
    t = _prefix(s, sig)
    while _starts_prefix(s):
        t = App(t, _prefix(s, sig))
    return t


def _starts_prefix(s: _Stream) -> bool:
    kind, text, _ = s.peek()
    return kind in ("num", "ident") or text == "("


def _prefix(s: _Stream, sig) -> Term:
    kind, text, pos = s.peek()
    if text in ("fst", "snd"):
        s.next()
        return Proj(1 if text == "fst" else 2, _prefix(s, sig))
    if text in ("up", "dn"):
        s.next()
        s.expect("[")
        source = _type(s)
        s.expect("=>")
        target = _type(s)
        s.expect("]")
        if text == "up":
            return Upcast(source, target, _prefix(s, sig))
        return Downcast(target, source, _prefix(s, sig))
    if text == "err":
        s.next()
        s.expect("[")
        ty = _type(s)
        s.expect("]")
        return Err(ty)
    return _atom(s, sig)


def _atom(s: _Stream, sig) -> Term:
    kind, text, pos = s.next()
    if kind == "num":
        return FnApp(text)
    if text == "(":
        if s.at(")"):
            s.next()
            return UNITVAL
        t = _term(s, sig)
        if s.at(","):
            s.next()
            u = _term(s, sig)
            s.expect(")")
            return Pair(t, u)
        s.expect(")")
        return t
    if kind == "ident":
        if text in RESERVED:
            raise ParseError(f"reserved word {text!r} is not a term", pos)
        if s.at("(") and sig.has_fn_symbol(text):
            s.next()
            return FnApp(text, tuple(_items(s, ")", lambda: _term(s, sig))))
        return Bound(s.bound[::-1].index(text)) if text in s.bound else Var(text)
    raise ParseError(f"expected a term, found {text or 'end of input'!r}", pos)


def _context(s: _Stream) -> Context:
    def entry() -> tuple[str, Type]:
        kind, name, pos = s.next()
        if kind != "ident" or name in RESERVED:
            raise ParseError(f"expected a variable, found {name!r}", pos)
        s.expect(":")
        return name, _type(s)
    s.expect("[")
    return Context(tuple(_items(s, "]", entry)))


def _items(s: _Stream, close: str, item) -> list:
    """Zero or more ``item`` parses separated by commas, then ``close``."""
    out = []
    if not s.at(close):
        out.append(item())
        while s.at(","):
            s.next()
            out.append(item())
    s.expect(close)
    return out


def parse_term_file_reference(text: str, sig) -> tuple[Context, Term]:
    """A term file: optional ``[x : T, ...]`` context prefix, then a term."""
    s = _Stream(tokenize_reference(text))
    ctx = _context(s) if s.at("[") else Context()
    t = _term(s, sig)
    if not s.done():
        raise ParseError(f"trailing input: {s.peek()[1]!r}", s.peek()[2])
    return ctx, t

# -- derivation files by way of an s-expression tree ---------------------------
#
# ``gtt.derivio.derivations_to_text`` as it was before it wrote text
# directly: each derivation becomes a ``SexpList`` tree with every type and
# term rendered again at each occurrence, and ``sexp_to_text`` lays the tree
# out, one line per element of any list that holds a list.

def sexp_to_text(x, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(x, SexpList):
        if any(isinstance(e, SexpList) for e in x):
            head = x[0] if x and not isinstance(x[0], SexpList) else None
            parts = []
            for i, e in enumerate(x):
                if i == 0 and head is not None:
                    continue
                parts.append(sexp_to_text(e, indent + 1))
            first = sexp_to_text(head, 0) if head is not None else ""
            inner = "\n".join(parts)
            return f"{pad}({first}\n{inner})"
        return pad + "(" + " ".join(sexp_to_text(e, 0) for e in x) + ")"
    if isinstance(x, tuple) and x and x[0] == "chunk":
        return pad + "{" + x[1] + "}"
    return pad + str(x)


def _ty_sexp(ty: Type) -> tuple[str, str]:
    return ("chunk", type_to_text(ty))


def _tm_sexp(t: Term) -> tuple[str, str]:
    return ("chunk", term_to_text(t))


def _aux_sexp(aux) -> SexpList:
    if isinstance(aux, str):
        return SexpList(["aux", aux])
    if isinstance(aux, int):
        return SexpList(["aux", str(aux)])
    if isinstance(aux, tuple) and len(aux) == 2 and all(
            isinstance(side, tuple) for side in aux):
        return SexpList(["aux", *(
            SexpList(["sub", *(SexpList([name, _tm_sexp(img)])
                               for name, img in side)])
            for side in aux)])
    if isinstance(aux, tuple) and len(aux) == 3:
        ctx, term, ty = aux
        ctx_sx = SexpList(["ctx", *(SexpList([name, _ty_sexp(t)])
                                    for name, t in ctx)])
        return SexpList(["aux", SexpList(["mid", ctx_sx, _tm_sexp(term),
                                          _ty_sexp(ty)])])
    raise ValueError(f"cannot serialize aux {aux!r}")


def derivation_to_sexp(d: Derivation) -> SexpList:
    j = d.conclusion
    ctx = SexpList(["ctx", *(SexpList([xl, xr, _ty_sexp(tl), _ty_sexp(tr)])
                             for xl, xr, tl, tr in j.phi)])
    out = SexpList([d.rule, SexpList([
        "concl", ctx, _tm_sexp(j.left), _tm_sexp(j.right),
        _ty_sexp(j.type_left), _ty_sexp(j.type_right)])])
    if d.aux is not None:
        out.append(_aux_sexp(d.aux))
    out.extend(derivation_to_sexp(p) for p in d.premises)
    return out


def derivations_to_text_reference(ds) -> str:
    return "\n\n".join(sexp_to_text(derivation_to_sexp(d)) for d in ds) + "\n"


# -- theorem instances by generate-then-filter --------------------------------
#
# Every parameter tuple the kind's loops yield is derived; a tuple whose
# declared hypotheses fail is skipped, and the size filter on the built
# conclusions alone decides what is kept.

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
    for name in (THEOREMS if names is None else names):
        for params in _params_reference(sig, THEOREMS[name].kind, types):
            try:
                ds = derive_theorem(sig, name, *params)
            except FlagRequired:
                yield name, params, "SKIPPED(flag)"
                continue
            except HypothesisError:
                continue
            if all(type_size(ty) <= size
                   for d in ds for ty in judgment_types(d)):
                yield name, params, ds


# -- the model by walking the term for every environment ----------------------

def eval_term_reference(sig, env: dict, t: Term):
    """The value of ``t`` in ``env``, for ``gtt.model.compile_term``."""
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
            # the body opened at a name that no variable in scope has
            x = fresh_name(x, set(env) | free_vars(body))
            body = instantiate(body, Var(x))

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
    """Whether ``v`` is below ``w`` at ``ty``, for ``gtt.model.order_at``."""
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
                       for arg in enumeration(sig, dom, bound).values)
        case _:
            return dyn_leq_oracle(v, w)


def value_leq_reference(sig, a, b, v, w, bound: int = 2) -> bool:
    """Whether ``v`` at ``a`` is below ``w`` at ``b``, for
    ``gtt.model.cross_order``."""
    if a == b:
        return value_leq_at_reference(sig, a, v, w, bound)
    up = denote_coreflection(sig, a, b).up
    return value_leq_at_reference(sig, b, up(v), w, bound)


_RELATED: dict = {}


def _related_reference(sig, a, b, bound: int) -> list:
    key = (sig, a, b, bound)
    if key not in _RELATED:
        _RELATED[key] = [(v, w)
                         for v in enumeration(sig, a, bound).values
                         for w in enumeration(sig, b, bound).values
                         if value_leq_reference(sig, a, b, v, w, bound)]
    return _RELATED[key]


def check_judgment_semantics_reference(sig, j, bound: int = 2) -> Report:
    """The same report as ``gtt.model.check_judgment_semantics``, from
    every environment pair re-evaluated by the walkers above."""
    subject = f"judgment {j.describe()}"
    for _, _, tl, tr in j.phi:
        if not (first_order(tl) and first_order(tr)):
            raise ModelError("judgment context mentions function types")
    if not (first_order(j.type_left) and first_order(j.type_right)):
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


def check_equipment_reference(sig, a, b, bound: int = 2) -> Report:
    """The same report as ``gtt.model.check_equipment``, testing
    monotonicity at every related pair of values with the orders above."""
    subject = f"equipment {type_to_text(a)} <= {type_to_text(b)}"
    c = denote_coreflection(sig, a, b)
    values_a = enumeration(sig, a, bound).values
    values_b = enumeration(sig, b, bound).values
    checks = 0
    for v in values_a:
        checks += 1
        if c.dn(c.up(v)) != v:
            return Report(subject, bound, False,
                          f"dn (up v) != v at v = {value_to_text(v)}", checks)
    for w in values_b:
        checks += 1
        if not value_leq_at_reference(sig, b, c.up(c.dn(w)), w, bound):
            return Report(subject, bound, False,
                          f"up (dn w) not below w at w = {value_to_text(w)}", checks)
    for name, ty, other, f in (("up", a, b, c.up), ("dn", b, a, c.dn)):
        values = enumeration(sig, ty, bound).values
        for v in values:
            for w in values:
                if not value_leq_at_reference(sig, ty, v, w, bound):
                    continue
                checks += 1
                if not value_leq_at_reference(sig, other, f(v), f(w), bound):
                    return Report(subject, bound, False,
                                  f"{name} not monotone at {value_to_text(v)} <= "
                                  f"{value_to_text(w)}", checks)
    msig = sig.first_order_dyn()
    if tydyn_holds(msig, a, DYN) and tydyn_holds(msig, b, DYN):
        into_dyn_a = denote_coreflection(sig, a, DYN)
        into_dyn_b = denote_coreflection(sig, b, DYN)
        for v in values_a:
            checks += 1
            if into_dyn_a.up(v) != into_dyn_b.up(c.up(v)):
                return Report(subject, bound, False,
                              f"embedding into ? does not factor at "
                              f"{value_to_text(v)}", checks)
    return Report(subject, bound, True, None, checks)


# -- normal forms by substitution and re-reduction -----------------------------

# ``normalize`` as it was before normalization by evaluation: reduce with
# substitution, re-reducing each substituted body, then eta-expand,
# inferring the type of every neutral application's head.  Each binder is
# opened at a named variable on the way down, so every term substituted is
# closed; a binder keeps its hint until eta expansion renames it apart
# from the context.

def normalize_reference(sig: Signature, t: Term, ctx: Context = Context(),
                        max_steps: int | None = None) -> Term:
    """Eta-long beta-normal form of a well-typed elaborated term."""
    ty = infer_type(sig, ctx, t)
    reduced = _reduce(sig, t, _Fuel(max_steps))
    return _eta_long(sig, ctx, reduced, ty)


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
            y = fresh_name(x, free_vars(b))
            body = Lam(y, annot, _reduce(sig, instantiate(b, Var(y)), fuel)).body
            return Lam.nameless(x, annot, body)
        case Pair(a, b):
            return Pair(_reduce(sig, a, fuel), _reduce(sig, b, fuel))
        case FnApp(f, args):
            return FnApp(f, tuple(_reduce(sig, a, fuel) for a in args))
        case App(f, a):
            rf = _reduce(sig, f, fuel)
            ra = _reduce(sig, a, fuel)
            match rf:
                case Lam(_, _, body):
                    fuel.spend()
                    return _reduce(sig, instantiate(body, ra), fuel)
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
                        x = fresh_name(x, ctx.names() | free_vars(b))
                    b = instantiate(b, Var(x))
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


# -- typing by renaming shadowed binders ---------------------------------------

# ``infer_type`` as it was before the environment walk: a binder whose name
# is already in the context is renamed apart and its body opened at the new
# name.  A binder whose body has a free variable of its own name had that
# variable substituted in by an outer opening, and is renamed apart from it
# first, as capture-avoiding substitution renamed it.  Like ``infer_type``,
# this never checks the context's own types.

def infer_type_reference(sig: Signature, ctx: Context, t: Term) -> Type:
    """The unique type of ``t`` under ``ctx``, or a TypeCheckError naming
    the offending subterm."""
    match t:
        case Var(x):
            ty = dict(ctx.entries).get(x)
            if ty is None:
                raise TypeCheckError(f"unbound variable {x}", t)
            return ty
        case FnApp(f, args):
            ins, out = sig.fn_signature(f)
            if len(ins) != len(args):
                raise TypeCheckError(
                    f"symbol {f} expects {len(ins)} arguments, got {len(args)}", t)
            for i, (want, arg) in enumerate(zip(ins, args)):
                got = infer_type_reference(sig, ctx, arg)
                if got != want:
                    raise TypeCheckError(
                        f"argument {i} of {f} has type {got}, expected {want}", arg)
            return out
        case Lam(x, annot, body):
            if x in free_vars(body):
                x = fresh_name(x, free_vars(body))
            if not check_type_wf(sig, annot):
                raise TypeCheckError(f"ill-formed annotation on {x}", t)
            if x in ctx.names():
                x = fresh_name(x, ctx.names() | {x})
            return Fn(annot, infer_type_reference(
                sig, ctx.extend(x, annot), instantiate(body, Var(x))))
        case App(fn, arg):
            fty = infer_type_reference(sig, ctx, fn)
            if not isinstance(fty, Fn):
                raise TypeCheckError(f"applying a non-function of type {fty}", fn)
            aty = infer_type_reference(sig, ctx, arg)
            if aty != fty.dom:
                raise TypeCheckError(
                    f"argument type {aty} does not match domain {fty.dom}", arg)
            return fty.cod
        case Pair(a, b):
            return Prod(infer_type_reference(sig, ctx, a),
                        infer_type_reference(sig, ctx, b))
        case Proj(i, tup):
            pty = infer_type_reference(sig, ctx, tup)
            if not isinstance(pty, Prod):
                raise TypeCheckError(f"projecting from a non-product of type {pty}", tup)
            return pty.fst if i == 1 else pty.snd
        case UnitVal():
            return UNIT
        case Upcast(lo, hi, body):
            _check_cast_reference(sig, ctx, t, lo, hi, body, expect=lo)
            return hi
        case Downcast(lo, hi, body):
            _check_cast_reference(sig, ctx, t, lo, hi, body, expect=hi)
            return lo
        case Err(at):
            if not check_type_wf(sig, at):
                raise TypeCheckError(f"ill-formed error annotation {at}", t)
            return at
    raise TypeCheckError(f"unrecognized term {t!r}", t)


def _check_cast_reference(sig, ctx, cast, lo, hi, body, expect):
    for ty in (lo, hi):
        if not check_type_wf(sig, ty):
            raise TypeCheckError(f"ill-formed cast endpoint {ty}", cast)
    if not tydyn_holds(sig, lo, hi):
        raise TypeCheckError(
            f"cast endpoints not in the dynamism relation: "
            f"{lo} <= {hi} fails", cast)
    got = infer_type_reference(sig, ctx, body)
    if got != expect:
        raise TypeCheckError(
            f"cast body has type {got}, expected {expect}", body)


# -- derivation checking with a fresh context per call ------------------------

# ``dynamism.derivation_errors`` as it was before its presupposition check
# was made one pass: ``Context`` objects are rebuilt for every judgment to
# test that names are distinct, each side is typed by ``infer_type``, which
# checks the context's types again, and type well-formedness is recomputed
# structurally.  The rule schema is the library's, shape rows and checks,
# except the checks of ``trans`` and ``ax``, which still compare and rename
# along ``Context`` objects, so a premise context or a stored middle
# context that repeats a name raises ``ContextError``.

def derivation_errors_reference(sig: Signature, d: Derivation) -> list[str]:
    errors: list[str] = []
    _check_node_reference(sig, d, "root", errors)
    return errors


def _check_node_reference(sig: Signature, d: Derivation, path: str, errors: list[str]):
    for i, prem in enumerate(d.premises):
        _check_node_reference(sig, prem, f"{path}.{i}", errors)
    pres = _presupposition_errors_reference(sig, d.conclusion)
    if pres:
        errors.extend(f"{path}: {d.rule}: {msg}" for msg in pres)
        return
    if d.rule not in _SCHEMA:
        errors.append(f"{path}: unknown rule {d.rule!r}")
        return
    for msg in _rule_errors(sig, d, _SCHEMA_REFERENCE[d.rule]):
        errors.append(f"{path}: {d.rule}: {msg}")


def _rename_along_reference(t: Term, src: Context, dst: Context) -> Term:
    sigma = {x: Var(y) for (x, _), (y, _) in zip(src.entries, dst.entries)}
    for v in free_vars(t):
        sigma.setdefault(v, Var(v))
    return substitute(t, sigma)


def _chk_trans_reference(sig, d):
    if len(d.premises) != 2:
        return ["expects exactly two premises"]
    j = d.conclusion
    j1, j2 = d.premises[0].conclusion, d.premises[1].conclusion
    out = []
    if j1.phi.left_ctx() != j.phi.left_ctx():
        out.append("left context does not match first premise")
    if j2.phi.right_ctx() != j.phi.right_ctx():
        out.append("right context does not match second premise")
    mid1, mid2 = j1.phi.right_ctx(), j2.phi.left_ctx()
    if [ty for _, ty in mid1] != [ty for _, ty in mid2]:
        out.append("premises do not share the middle context")
    elif j1.right != _rename_along_reference(j2.left, mid2, mid1):
        out.append("premises do not share the middle term")
    if j1.type_right != j2.type_left:
        out.append("premises do not share the middle type")
    if j1.left != j.left or j1.type_left != j.type_left:
        out.append("left side does not match first premise")
    if j2.right != j.right or j2.type_right != j.type_right:
        out.append("right side does not match second premise")
    if d.aux is not None:
        if not (isinstance(d.aux, tuple) and len(d.aux) == 3):
            return out + ["aux must be the stored middle judgment"]
        mid_ctx, mid_term, mid_type = d.aux
        mid_ctx = Context(tuple(mid_ctx))  # raises on a repeated name
        if ([ty for _, ty in mid_ctx] != [ty for _, ty in mid1]
                or _rename_along_reference(mid_term, mid_ctx, mid1) != j1.right
                or mid_type != j1.type_right):
            out.append("stored middle judgment disagrees with the premises")
    return out


def _chk_ax_reference(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    indices = [d.aux] if isinstance(d.aux, int) else range(len(sig.tmdyn_axioms))
    for i in indices:
        if not 0 <= i < len(sig.tmdyn_axioms):
            return [f"no term-dynamism axiom with index {i}"]
        lctx, lt, rctx, rt = sig.tmdyn_axioms[i]
        if (j.phi.left_ctx() == lctx and j.phi.right_ctx() == rctx
                and j.left == lt and j.right == rt):
            return []
    return ["conclusion is not a term-dynamism axiom of the signature"]


_SCHEMA_REFERENCE = {
    **_SCHEMA, "trans": _SCHEMA["trans"]._replace(check=_chk_trans_reference),
    "ax": _SCHEMA["ax"]._replace(check=_chk_ax_reference)}


def _presupposition_errors_reference(sig: Signature, j: DynJudgment) -> list[str]:
    if not _check_dynctx_wf_reference(sig, j.phi):
        return ["context dynamism presupposition fails"]
    out = []
    try:
        tl = infer_type(sig, j.phi.left_ctx(), j.left)
        if tl != j.type_left:
            out.append(f"left term has type {tl}, judgment claims {j.type_left}")
    except GttError as e:
        out.append(f"left term does not type check: {e}")
    try:
        tr = infer_type(sig, j.phi.right_ctx(), j.right)
        if tr != j.type_right:
            out.append(f"right term has type {tr}, judgment claims {j.type_right}")
    except GttError as e:
        out.append(f"right term does not type check: {e}")
    if not tydyn_holds(sig, j.type_left, j.type_right):
        out.append(f"type dynamism presupposition fails: "
                   f"{j.type_left} <= {j.type_right} not derivable")
    return out


def _check_dynctx_wf_reference(sig: Signature, phi: DynCtx) -> bool:
    try:
        phi.left_ctx(), phi.right_ctx()  # names distinct on each side
    except GttError:
        return False
    return all(_type_wf_reference(sig, tl) and _type_wf_reference(sig, tr)
               and tydyn_holds(sig, tl, tr) for _, _, tl, tr in phi)


def _type_wf_reference(sig: Signature, ty: Type) -> bool:
    match ty:
        case Base(n):
            return n in sig.base_types
        case Fn(a, b) | Prod(a, b):
            return _type_wf_reference(sig, a) and _type_wf_reference(sig, b)
    return True
