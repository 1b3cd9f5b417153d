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
the ambient signature.

One ``re.findall`` cuts a type, term, term file or signature line into
token texts, and the parser walks that list by index.  Identifiers are
ASCII; numerals (``\\d``) and whitespace (``\\s``) are Unicode.  Only a
failed parse scans the text again, to count offsets, and a character that
starts no token, wherever it is, wins over every other error.  A type's
text is made once and kept on the (hash-consed) type.
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


# the whitespace and comments before a token, then the token: a character
# that starts no token is a token no parse accepts.  The token is optional, so
# no text is skipped, and an empty token appears only at the end of the text.
_WORDS = r"[A-Za-z_][A-Za-z0-9_']*|[()\[\],:.\\*?|{}]|=>?|->|<=|\d+"
_SKIP = r"(?:\s+|\#[^\n]*)*"
_TOKEN = re.compile(rf"{_SKIP}({_WORDS}|[\s\S])?")
_SCAN = re.compile(rf"{_SKIP}(?:({_WORDS})|([\s\S]))?")  # the same, faults apart

_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# the tokens that end an application spine: all but identifiers, numerals,
# "(" and a character that starts no token (which ``_prefix`` then raises on)
_SPINE_ENDS = frozenset(["", "=>", "->", "<=", *")[],:.\\*?=|{}"])


class _Fault(Exception):
    """``(message, at)``: a parse error at the token ``toks[at]``."""


def _expected(value: str, toks: list[str], at: int) -> _Fault:
    return _Fault(f"expected {value!r}, found {toks[at] or 'end of input'!r}", at)


def _read(text: str, trailing: str, walk, *args, what: str = ""):
    """What ``walk(toks, 0, *args)`` reads from the token texts of ``text``, to
    their end (else ``trailing`` input is raised).  Only a failure scans
    ``text`` again, to count offsets: a character that starts no token wins,
    else the fault's token names its offset.  ``what`` prefixes messages."""
    toks = _TOKEN.findall(text)
    try:
        value, i = walk(toks, 0, *args)
        if toks[i]:
            raise _Fault(f"{trailing}: {toks[i]!r}", i)
        return value
    except _Fault as fault:
        msg, at = fault.args
        raise ParseError(what + msg, _offset(text, at, what)) from None
    except Exception:  # nesting too deep, a duplicate context entry
        _offset(text, -1, what)
        raise


def _offset(text: str, at: int, what: str) -> int:
    """The offset of token ``at`` of ``text``, after raising the first
    character that starts no token, if there is one."""
    pos = len(text)
    for k, m in enumerate(_SCAN.finditer(text)):
        if m[2]:
            raise ParseError(f"{what}unexpected character {m[2]!r}", m.start(2))
        if k == at and m[1]:
            pos = m.start(1)
    return pos


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def parse_type(text: str) -> Type:
    return _read(text, "trailing input after type", _type)


def _type(toks: list[str], i: int) -> tuple[Type, int]:
    """The type at ``toks[i]`` and the index after it: a ``*``-chain of
    atoms, and after a ``->`` the type it maps to."""
    left = None  # the ``*``-chain so far
    while True:
        tok = toks[i]
        if tok == "?":
            ty = DYN
        elif tok == "(":
            ty, i = _type(toks, i + 1)
            if toks[i] != ")":
                raise _expected(")", toks, i)
        elif tok == "1":
            ty = UNIT
        elif tok[:1] in _IDENT_START and tok not in RESERVED:
            ty = Base(tok)
        elif tok in RESERVED:
            raise _Fault(f"reserved word {tok!r} is not a type", i)
        else:
            raise _Fault(f"expected a type, found {tok!r}", i)
        if left is not None:
            ty = Prod(left, ty)
        tok = toks[i + 1]
        if tok == "*":
            left, i = ty, i + 2
        elif tok == "->":
            cod, i = _type(toks, i + 2)
            return Fn(ty, cod), i
        else:
            return ty, i + 1


def type_to_text(ty: Type) -> str:
    """The text of ``ty``, made once: it stays on the type while the type lives."""
    text = getattr(ty, "_text", None)
    if text is None:
        match ty:
            case Base(n):
                text = n
            case Fn(a, b):
                text = f"{_operand(a, Fn)} -> {type_to_text(b)}"
            case Prod(a, b):
                text = f"{_operand(a, (Fn, Prod))} * {_operand(b, (Fn, Prod))}"
            case Unit():
                text = "1"
            case Dyn():
                text = "?"
            case _:
                raise TypeError(f"not a type: {ty!r}")
        object.__setattr__(ty, "_text", text)
    return text


def _operand(ty: Type, looser) -> str:
    """The text of ``ty``, in parentheses if it is one of ``looser``."""
    return f"({type_to_text(ty)})" if isinstance(ty, looser) else type_to_text(ty)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------
#
# The walk passes ``bound``, each enclosing binder's name -> its level (the
# innermost binder of a name wins; None once it is closed), and ``depth``,
# the number of binders: the name at level ``l`` is ``Bound(depth - 1 - l)``.

def parse_term(text: str, sig) -> Term:
    return _read(text, "trailing input after term", _term, sig, {}, 0)


def _term(toks: list[str], i: int, sig, bound: dict, depth: int) -> tuple[Term, int]:
    """The term at ``toks[i]`` and the index after it."""
    if toks[i] == "\\":
        (name, ty), i = _entry(toks, i + 1, "a variable after lambda")
        if toks[i] != ".":
            raise _expected(".", toks, i)
        outer, bound[name] = bound.get(name), depth
        body, i = _term(toks, i + 1, sig, bound, depth + 1)
        bound[name] = outer
        return Lam.nameless(name, ty, body), i
    t, i = _prefix(toks, i, sig, bound, depth)
    while toks[i] not in _SPINE_ENDS:
        arg, i = _prefix(toks, i, sig, bound, depth)
        t = App(t, arg)
    return t, i


def _prefix(toks: list[str], i: int, sig, bound: dict, depth: int) -> tuple[Term, int]:
    """The term at ``toks[i]`` that no application spine or lambda holds."""
    tok = toks[i]
    if tok[:1] in _IDENT_START:
        if tok not in RESERVED:
            if toks[i + 1] == "(" and sig.has_fn_symbol(tok):
                args, i = _items(toks, i + 2, ")", _term, sig, bound, depth)
                return FnApp(tok, args), i
            level = bound.get(tok)
            return (Var(tok) if level is None else Bound(depth - 1 - level)), i + 1
        if tok == "fst" or tok == "snd":
            body, i = _prefix(toks, i + 1, sig, bound, depth)
            return Proj(1 if tok == "fst" else 2, body), i
        # up[A => B] t, dn[B => A] t or err[A]
        if toks[i + 1] != "[":
            raise _expected("[", toks, i + 1)
        ty, i = _type(toks, i + 2)
        if tok != "err":
            if toks[i] != "=>":
                raise _expected("=>", toks, i)
            target, i = _type(toks, i + 1)
        if toks[i] != "]":
            raise _expected("]", toks, i)
        if tok == "err":
            return Err(ty), i + 1
        body, i = _prefix(toks, i + 1, sig, bound, depth)
        return (Upcast(ty, target, body) if tok == "up" else Downcast(target, ty, body)), i
    if tok == "(":
        if toks[i + 1] == ")":
            return UNITVAL, i + 2
        t, i = _term(toks, i + 1, sig, bound, depth)
        if toks[i] == ",":
            u, i = _term(toks, i + 1, sig, bound, depth)
            t = Pair(t, u)
        if toks[i] != ")":
            raise _expected(")", toks, i)
        return t, i + 1
    if tok.isdecimal():
        return FnApp(tok), i + 1
    raise _Fault(f"expected a term, found {tok or 'end of input'!r}", i)


def _items(toks: list[str], i: int, close: str, item, *args) -> tuple[tuple, int]:
    """``item`` walks separated by commas from ``toks[i]`` to ``close``, and
    the index after it."""
    out = []
    if toks[i] != close:
        x, i = item(toks, i, *args)
        out.append(x)
        while toks[i] == ",":
            x, i = item(toks, i + 1, *args)
            out.append(x)
    if toks[i] != close:
        raise _expected(close, toks, i)
    return tuple(out), i + 1


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
        if type(t) is not Lam:
            return self._app(t)
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
        if type(t) is App:
            return f"{self._app(t.fn)} {self._prefix(t.arg)}"
        return self._prefix(t)

    def _prefix(self, t: Term) -> str:
        cls = type(t)
        if cls is Upcast:
            return f"up[{type_to_text(t.low)} => {type_to_text(t.high)}] {self._prefix(t.body)}"
        if cls is Downcast:
            return f"dn[{type_to_text(t.high)} => {type_to_text(t.low)}] {self._prefix(t.body)}"
        if cls is Proj:
            if t.index in (1, 2):
                return f"{'fst' if t.index == 1 else 'snd'} {self._prefix(t.tup)}"
            raise ValueError(f"projection index must be 1 or 2, not {t.index!r}")
        if cls is Var or cls is Bound:
            return self._name(t)
        if cls is FnApp:
            if not t.args and t.sym.isdigit():
                return t.sym
            return t.sym + "(" + ", ".join(self.term(a) for a in t.args) + ")"
        if cls is UnitVal:
            return "()"
        if cls is Pair:
            return f"({self.term(t.fst)}, {self.term(t.snd)})"
        if cls is Err:
            return f"err[{type_to_text(t.at)}]"
        if cls is App or cls is Lam:
            return f"({self.term(t)})"
        raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Term files: an optional ``[x : T, y : U]`` context, then a term
# ---------------------------------------------------------------------------

def parse_term_file(text: str, sig) -> tuple[Context, Term]:
    """A term file: optional ``[x : T, ...]`` context prefix, then a term."""
    return _read(text, "trailing input", _file, sig)


def _file(toks: list[str], i: int, sig) -> tuple[tuple[Context, Term], int]:
    entries = ()
    if toks[i] == "[":
        entries, i = _items(toks, i + 1, "]", _entry)
    ctx = Context(entries)  # a repeated name is raised before the term
    t, i = _term(toks, i, sig, {}, 0)
    return (ctx, t), i


def _entry(toks: list[str], i: int, what="a variable") -> tuple[tuple[str, Type], int]:
    """``x : T`` from ``toks[i]``, and the index after it."""
    name = toks[i]
    if name[:1] not in _IDENT_START or name in RESERVED:
        raise _Fault(f"expected {what}, found {name!r}", i)
    if toks[i + 1] != ":":
        raise _expected(":", toks, i + 1)
    ty, i = _type(toks, i + 2)
    return (name, ty), i


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
        tydyn_axioms=tuple(read_type_pair(line, "tydyn") for line in found["tydyn"]),
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
    return (_TOKEN.findall(name)[0] == name and name[:1] in _IDENT_START
            and name not in RESERVED)


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


def read_type_pair(line: str, section: str) -> tuple[Type, Type]:
    """The types of the ``A <= B`` line ``line`` in one walk; an error names
    the line and ``section``, and its offset counts from the line's start."""
    return _read(line, "trailing input after type", _pair, _type,
                 what=f"{section} line {line!r}: ")


def _pair(toks: list[str], i: int, side, *args) -> tuple[tuple, int]:
    """``side <= side`` from ``toks[i]``, and the index after it."""
    left, i = side(toks, i, *args)
    if toks[i] != "<=":
        raise _expected("<=", toks, i)
    right, i = side(toks, i + 1, *args)
    return (left, right), i


def _parse_fnsym(line: str):
    name, sep, _ = line.partition(":")
    if not sep:
        raise ParseError(f"expected 'f : (A, ...) -> B': {line!r}")
    name = name.strip()
    if name in RESERVED:
        raise ParseError(f"function symbol name {name!r} is a reserved word")
    if not _is_identifier(name):
        raise ParseError(f"function symbol name {name!r} is not an identifier")
    return name, _read(line, "trailing input after type", _fn_type,
                       what=f"fnsyms line {line!r}: ")


def _fn_type(toks: list[str], i: int) -> tuple[tuple, int]:
    """``(A, ...) -> B`` after the ``f :`` at ``toks[i]``."""
    if toks[i + 2] != "(":
        raise _expected("(", toks, i + 2)
    ins, i = _items(toks, i + 3, ")", _type)
    if toks[i] != "->":
        raise _expected("->", toks, i)
    out, i = _type(toks, i + 1)
    return (ins, out), i


def _parse_tmdyn(line: str, sig):
    (lctx, lterm), (rctx, rterm) = _read(line, "trailing input", _pair, _file, sig,
                                         what=f"tmdyn line {line!r}: ")
    return lctx, lterm, rctx, rterm
