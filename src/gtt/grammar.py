"""Text grammar shared by every front end.

Types::

    Nat | ? | 1 | (T -> T) | (T * T) | X

``->`` is right associative and binds looser than ``*``.  Terms::

    x | f(t,...) | \\x:T. t | t u | (t, u) | fst t | snd t | ()
      | up[T => T'] t | dn[T' => T] t | err[T] | n

``fst``, ``snd``, ``up``, ``dn`` and ``err`` are reserved words.  Casts
are written source ``=>`` target, so ``up[Nat => ?] t`` casts ``t`` from
``Nat`` up to ``?`` and ``dn[? => Nat] t`` casts it back down.  Numerals
parse as nullary function symbols.  Comments run from ``#`` to end of line.

Whether ``f(...)`` is a symbol application or a variable applied to a
parenthesized argument depends on the signature, so the term parser takes
the ambient signature (defaulting to the built-in one with only ``Nat``
and its numerals).
"""

from __future__ import annotations

import re

from .syntax import (
    App, Base, Bound, Context, Downcast, Dyn, DYN, Err, Fn, FnApp, GttError,
    Lam, Pair, Prod, Proj, Term, Type, Unit, UNIT, UnitVal, UNITVAL, Upcast,
    Var, free_vars, fresh_name, loose_indices,
)

RESERVED = {"fst", "snd", "up", "dn", "err"}


class ParseError(GttError):
    def __init__(self, msg: str, pos: int = -1):
        super().__init__(msg if pos < 0 else f"{msg} (at offset {pos})")
        self.pos = pos


_TOKEN = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<arrow2>=>)
  | (?P<arrow>->)
  | (?P<leq><=)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<sym>[()\[\],:.\\*?=|{}])
  | (?P<bad>[\s\S])
""", re.VERBOSE)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """One scan; a character that starts no other token is ``bad``."""
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        out.append((kind, m.group(), m.start()))
    out.append(("eof", "", len(text)))
    return out


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


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def parse_type(text: str) -> Type:
    s = _Stream(tokenize(text))
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


def type_to_text(ty: Type) -> str:
    match ty:
        case Base(n):
            return n
        case Fn(a, b):
            return f"{_operand(a, Fn)} -> {type_to_text(b)}"
        case Prod(a, b):
            return f"{_operand(a, (Fn, Prod))} * {_operand(b, (Fn, Prod))}"
        case Unit():
            return "1"
        case Dyn():
            return "?"
    raise TypeError(f"not a type: {ty!r}")


def _operand(ty: Type, looser) -> str:
    """The text of ``ty``, in parentheses if it is one of ``looser``."""
    return f"({type_to_text(ty)})" if isinstance(ty, looser) else type_to_text(ty)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

def parse_term(text: str, sig=None) -> Term:
    sig = _default_sig(sig)
    s = _Stream(tokenize(text))
    t = _term(s, sig)
    if not s.done():
        raise ParseError(f"trailing input after term: {s.peek()[1]!r}", s.peek()[2])
    return t


def _default_sig(sig):
    if sig is None:
        from .typecheck import default_signature
        sig = default_signature()
    return sig


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


def term_to_text(t: Term) -> str:
    return _Printer().term(t)


class _Printer:
    """Names each binder by its hint, or, if the hint would capture a name
    free in its body, by the hint made fresh for those names.  Each name
    is checked in O(1) as it is printed, and only a binder that captures
    is printed again, under its fresh name."""

    def __init__(self):
        self.names: list[str] = []            # the binders' names, outermost first
        self.levels: dict[str, list[int]] = {}  # a name -> its binders' levels
        self.captor = float("inf")  # the level of the outermost binder that captured

    def term(self, t: Term) -> str:
        if isinstance(t, App):
            return f"{self._app(t.fn)} {self._prefix(t.arg)}"
        if not isinstance(t, Lam):
            return self._prefix(t)
        level, name = len(self.names), t.var
        while True:
            self.names.append(name)
            stack = self.levels.setdefault(name, [])
            stack.append(level)
            text = f"\\{name}:{type_to_text(t.annot)}. {self.term(t.body)}"
            self.names.pop()
            stack.pop()
            if self.captor != level:
                return text
            self.captor = float("inf")
            name = fresh_name(t.var, free_vars(t.body) | {
                self.names[level - i] for i in loose_indices(t.body) if i})

    def _name(self, t: Var | Bound) -> str:
        """The name of a variable; a binder of that name inside its own, if
        there is one, captures it and is printed again."""
        level = -1 if type(t) is Var else len(self.names) - 1 - t.index
        name = t.name if level < 0 else self.names[level]
        stack = self.levels.get(name)
        if stack and stack[-1] != level:
            self.captor = min(self.captor, stack[-1])
        return name

    def _app(self, t: Term) -> str:
        match t:
            case App(f, a):
                return f"{self._app(f)} {self._prefix(a)}"
            case _:
                return self._prefix(t)

    def _prefix(self, t: Term) -> str:
        match t:
            case Proj(1, b):
                return f"fst {self._prefix(b)}"
            case Proj(2, b):
                return f"snd {self._prefix(b)}"
            case Upcast(lo, hi, b):
                return f"up[{type_to_text(lo)} => {type_to_text(hi)}] {self._prefix(b)}"
            case Downcast(lo, hi, b):
                return f"dn[{type_to_text(hi)} => {type_to_text(lo)}] {self._prefix(b)}"
            case Proj(i, _):
                raise ValueError(f"projection index must be 1 or 2, not {i!r}")
            case _:
                return self._atom(t)

    def _atom(self, t: Term) -> str:
        match t:
            case Var() | Bound():
                return self._name(t)
            case FnApp(f, args):
                if not args and f.isdigit():
                    return f
                return f + "(" + ", ".join(self.term(a) for a in args) + ")"
            case UnitVal():
                return "()"
            case Pair(a, b):
                return f"({self.term(a)}, {self.term(b)})"
            case Err(ty):
                return f"err[{type_to_text(ty)}]"
            case App() | Lam():
                return f"({self.term(t)})"
        raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Contexts: ``[x : T, y : U]`` prefix used by term files and tmdyn lines
# ---------------------------------------------------------------------------

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


def parse_term_file(text: str, sig=None) -> tuple[Context, Term]:
    """A term file: optional ``[x : T, ...]`` context prefix, then a term."""
    sig = _default_sig(sig)
    s = _Stream(tokenize(text))
    ctx = _context(s) if s.at("[") else Context()
    t = _term(s, sig)
    if not s.done():
        raise ParseError(f"trailing input: {s.peek()[1]!r}", s.peek()[2])
    return ctx, t


def context_to_text(ctx: Context) -> str:
    inner = ", ".join(f"{n} : {type_to_text(ty)}" for n, ty in ctx)
    return f"[{inner}]"


# ---------------------------------------------------------------------------
# Signature files
# ---------------------------------------------------------------------------

def parse_signature(text: str):
    """Parse a ``.gttsig`` file.

    Sections (each optional, order free)::

        basetypes: Nat Foo
        tydyn:
          Foo <= Bar
        fnsyms:
          f : (Nat, Nat) -> Nat
        tmdyn:
          [x : Nat] t <= [x' : ?] t'
        flags:
          retract = on
          disjointness = off
        basecodes:
          Foo 100 200
    """
    from .typecheck import Signature

    found: dict = {name: [] for name in _SECTIONS}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.strip().lower()
        if line.endswith(":") or head in _SECTIONS:
            if head not in _SECTIONS:
                raise ParseError(f"unknown signature section {head!r}")
            section, line = head, rest.strip()
            if not line:
                continue
        elif section is None:
            raise ParseError(f"signature line outside any section: {line!r}")
        _sig_line(section, line, found)

    flags = _once(found["flags"], "flag")
    sig = Signature(
        base_types=frozenset(found["basetypes"]),
        tydyn_axioms=tuple(_parse_type_pair(line) for line in found["tydyn"]),
        fn_symbols=_once(map(_parse_fnsym, found["fnsyms"]), "function symbol"),
        tmdyn_axioms=(),
        retract=flags.get("retract", True),
        disjointness=flags.get("disjointness", True),
        base_codes=_once(found["basecodes"], "basecodes line for"),
    )
    if found["tmdyn"]:
        axioms = tuple(_parse_tmdyn(line, sig) for line in found["tmdyn"])
        sig = sig.replace(tmdyn_axioms=axioms)
    return sig


_SECTIONS = ("basetypes", "tydyn", "fnsyms", "tmdyn", "flags", "basecodes")


def _once(pairs, what: str) -> dict:
    """The ``(key, value)`` pairs as a dict; a repeated key is an error."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"repeated {what} {key!r}")
        out[key] = value
    return out


def _is_identifier(name: str) -> bool:
    """Whether ``name`` is one grammar identifier and no reserved word."""
    token = _TOKEN.fullmatch(name)
    return token is not None and token.lastgroup == "ident" and name not in RESERVED


def _sig_line(section: str, line: str, found: dict):
    if section == "basetypes":
        for name in line.split():
            if not _is_identifier(name):
                raise ParseError(f"base type name {name!r} is not an identifier")
            found[section].append(name)
    elif section == "flags":
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip().lower()
        if key not in ("retract", "disjointness") or val not in ("on", "off", "true", "false"):
            raise ParseError(f"bad flag line: {line!r}")
        found[section].append((key, val in ("on", "true")))
    elif section == "basecodes":
        name, *codes = line.split()
        try:
            low, high = map(int, codes)
        except ValueError:
            raise ParseError(f"bad basecodes line: {line!r}") from None
        found[section].append((name, (low, high)))
    else:
        found[section].append(line)


def _parse_type_pair(line: str) -> tuple[Type, Type]:
    left, sep, right = line.partition("<=")
    if not sep:
        raise ParseError(f"expected 'A <= B': {line!r}")
    return parse_type(left.strip()), parse_type(right.strip())


def _parse_fnsym(line: str):
    name, sep, rest = line.partition(":")
    if not sep:
        raise ParseError(f"expected 'f : (A, ...) -> B': {line!r}")
    name = name.strip()
    if name in RESERVED:
        raise ParseError(f"function symbol name {name!r} is a reserved word")
    if not _is_identifier(name):
        raise ParseError(f"function symbol name {name!r} is not an identifier")
    s = _Stream(tokenize(rest))
    s.expect("(")
    ins = _items(s, ")", lambda: _type(s))
    s.expect("->")
    out = _type(s)
    if not s.done():
        raise ParseError(f"trailing input in fnsyms line: {line!r}")
    return name, (tuple(ins), out)


def _parse_tmdyn(line: str, sig):
    left, sep, right = line.partition("<=")
    if not sep:
        raise ParseError(f"expected 'ctx t <= ctx t'': {line!r}")
    lctx, lterm = parse_term_file(left.strip(), sig)
    rctx, rterm = parse_term_file(right.strip(), sig)
    return lctx, lterm, rctx, rterm
