"""Reading and writing derivation files (``.gttd``).

A file holds one or more s-expressions, one per derivation::

    (rule
      (concl (ctx (x x' {Nat} {?}) ...) {left} {right} {A} {A'})
      (aux ...)            # rule-specific, may be absent
      premise...)

Aux forms: ``(aux fwd)`` / ``(aux bwd)`` for the beta and eta rules,
``(aux 1)`` / ``(aux 2)`` for projection congruence, ``(aux N)`` for an
axiom index, ``(aux (sub (x {t}) ...) (sub (x' {t}) ...))`` for the
substitution rule, and ``(aux (mid (ctx (x {A}) ...) {t} {A}))`` for the
stored middle judgment of transitivity.  Variable names are bare atoms;
types and terms are ``{...}`` chunks, which may not contain ``}``.
``#`` starts a comment that runs to the end of the line.

Reading is one pass over one token list.  A single ``re.findall`` cuts the
file into tokens (parentheses, bare words and ``{...}`` chunks, with the
whitespace and comments between them dropped), and a walk by index builds
the ``DynCtx``, ``DynJudgment`` and ``Derivation`` values directly, checking
each token where the format puts it.  Within one ``parse_derivations`` call
each distinct chunk text is parsed once as a type and once as a term, and
every repeat shares that parse.  The walk carries no error messages: on the
first token out of place, a chunk that does not parse or nesting too deep
for it, it hands the text to the error path, which scans it into
s-expressions with ``grammar.parse_sexps`` and walks those with the
``_read_*`` functions.  That path raises the ``ParseError`` that names the
fault, and a scanner error, which carries its offset, wins over a
structural one before it.  Should that path read the text without fault,
the walk has a gap, and ``RuntimeError`` says so: a result never comes
from the error path.  Both costs are linear in the file size.

Writing is one pass that appends strings to one list and joins it once.
Within one ``derivations_to_text`` call each distinct type (interned, so
keyed by itself) and each distinct term object (keyed by ``id``) is rendered
once, and every repeat reuses that text; the tables die with the call.
"""

from __future__ import annotations

import re

from .grammar import (
    ParseError, SexpList, parse_sexps, parse_term, parse_type, term_to_text,
    type_to_text,
)
from .syntax import GttError, Term, Type
from .typecheck import DynCtx, Signature
from .dynamism import Derivation, DynJudgment


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
    """Chunk readers for one ``_read_sexps`` call, one table for types
    and one for terms (``Nat`` is a base type in one, a variable in the
    other).  Parses are frozen values and ``sig`` is fixed for the call, so
    repeats can share them; the tables die with the call."""

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


def _read_sexps(text: str, sig: Signature) -> list[Derivation]:
    """The error path: scan, then walk the s-expressions."""
    rd = _Reader(sig)
    return [_read_derivation(sx, rd) for sx in parse_sexps(text)]


# the whitespace and comments before a token, then the token: a chunk, a
# parenthesis, a bare word or a brace that opens or closes no chunk.  The
# token is optional, so every match starts where the one before it ended and
# no text is skipped; an empty token appears only at the end of the text.
_TOKENS = re.compile(r"(?:\s+|\#[^\n]*)*(\{[^}]*\}|[()]|[^\s(){}\#]+|[{}])?")


class _Mismatch(Exception):
    """A token out of place; the error path names the fault."""


class _Chunks(dict):
    """Chunk token -> its parse, one per distinct token for one call."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, token: str):
        if token[0] != "{" or len(token) < 2:
            raise _Mismatch
        out = self[token] = self.parse(token[1:-1])
        return out


# The walk is module functions that take the token list, not closures over
# it: a closure that calls itself is a reference cycle, which would keep a
# file's tokens alive until the cycle collector runs.

def _bindings(toks: list[str], i: int, chunks: _Chunks):
    """The ``(x {...})`` entries from ``toks[i]`` to a ``)``, and the index
    after that ``)``."""
    out = []
    while toks[i] == "(":
        x, chunk, close = toks[i + 1:i + 4]
        if x[0] in "(){}" or close != ")":
            raise _Mismatch
        out.append((x, chunks[chunk]))
        i += 4
    if toks[i] != ")":
        raise _Mismatch
    return tuple(out), i + 1


def _derivation(toks: list[str], i: int, types: _Chunks, terms: _Chunks):
    """The derivation whose ``(`` is ``toks[i]``, and the index after its
    ``)``.  Every check is inline: an index past the end or a short unpack
    is a mismatch as well."""
    rule, open_concl, concl, open_ctx, ctx = toks[i + 1:i + 6]
    if (rule[0] in "(){}" or open_concl != "(" or concl != "concl"
            or open_ctx != "(" or ctx != "ctx"):
        raise _Mismatch
    i += 6
    entries = []
    while toks[i] == "(":
        x, y, a, b, close = toks[i + 1:i + 6]
        if x[0] in "(){}" or y[0] in "(){}" or close != ")":
            raise _Mismatch
        entries.append((x, y, types[a], types[b]))
        i += 6
    close_ctx, left, right, a, b, close = toks[i:i + 6]
    if close_ctx != ")" or close != ")":
        raise _Mismatch
    conclusion = DynJudgment(DynCtx(tuple(entries)), terms[left],
                             terms[right], types[a], types[b])
    i += 6
    aux = None
    if toks[i] == "(" and toks[i + 1] == "aux":
        word = toks[i + 2]
        if word != "(":
            if toks[i + 3] != ")":
                raise _Mismatch
            if word == "fwd" or word == "bwd":
                aux = word
            elif word.isascii() and word.isdigit():
                aux = int(word)
            else:
                raise _Mismatch
            i += 4
        elif toks[i + 3] == "sub":
            left, i = _bindings(toks, i + 4, terms)
            if toks[i] != "(" or toks[i + 1] != "sub":
                raise _Mismatch
            right, i = _bindings(toks, i + 2, terms)
            if toks[i] != ")":
                raise _Mismatch
            aux = left, right
            i += 1
        elif toks[i + 3] == "mid" and toks[i + 4] == "(" and toks[i + 5] == "ctx":
            ctx, i = _bindings(toks, i + 6, types)
            term, ty, close, close_aux = toks[i:i + 4]
            if close != ")" or close_aux != ")":
                raise _Mismatch
            aux = ctx, terms[term], types[ty]
            i += 4
        else:
            raise _Mismatch
    premises = []
    while toks[i] == "(":
        premise, i = _derivation(toks, i, types, terms)
        premises.append(premise)
    if toks[i] != ")":
        raise _Mismatch
    return Derivation(rule, conclusion, tuple(premises), aux), i + 1


def _read_tokens(toks: list[str], sig: Signature) -> list[Derivation]:
    """The derivations spelled by ``toks``, which ends in one ``""``."""
    types = _Chunks(parse_type)
    terms = _Chunks(lambda text: parse_term(text, sig))
    out = []
    i = 0
    while toks[i] == "(":
        d, i = _derivation(toks, i, types, terms)
        out.append(d)
    if i != len(toks) - 1:
        raise _Mismatch
    return out


def _tokens(text: str) -> list[str]:
    toks = _TOKENS.findall(text)
    while toks and not toks[-1]:
        toks.pop()
    toks.append("")  # the end, which no check accepts
    return toks


def parse_derivations(text: str, sig: Signature) -> list[Derivation]:
    try:
        return _read_tokens(_tokens(text), sig)
    # a token out of place, an index past the end, a short unpack, a chunk
    # that does not parse, or nesting deeper than the interpreter allows
    except (_Mismatch, IndexError, ValueError, GttError, RecursionError) as e:
        mismatch = e
    _read_sexps(text, sig)  # raises the error that names the fault
    raise RuntimeError("the token reader rejected a derivation file that "
                       "the s-expression reader accepts") from mismatch


def derivations_to_text(ds) -> str:
    out: list[str] = []
    put = out.append
    types: dict[Type, str] = {}
    terms: dict[int, tuple[Term, str]] = {}  # holding the term keeps its id its own

    def ty(t: Type) -> str:
        if t not in types:
            types[t] = "{" + type_to_text(t) + "}"
        return types[t]

    def tm(t: Term) -> str:
        if id(t) not in terms:
            terms[id(t)] = t, "{" + term_to_text(t) + "}"
        return terms[id(t)][1]

    def block(pad: str, head: str, rows: list[str]) -> str:
        """``(head`` and then each row on a line of its own, or ``(head)``."""
        if not rows:
            return f"{pad}({head})"
        sep = f"\n{pad}  "
        return f"{pad}({head}{sep}{sep.join(rows)})"

    def aux(a, pad: str) -> str:
        if isinstance(a, (str, int)):
            return f"{pad}(aux {a})"
        if isinstance(a, tuple) and len(a) == 2 and all(
                isinstance(side, tuple) for side in a):
            return f"{pad}(aux\n" + "\n".join(block(pad + "  ", "sub", [
                f"({x} {tm(t)})" for x, t in side]) for side in a) + ")"
        if isinstance(a, tuple) and len(a) == 3:
            ctx, term, mid_ty = a
            inner = pad + "    "
            rows = [f"({x} {ty(t)})" for x, t in ctx]
            return (f"{pad}(aux\n{pad}  (mid\n{block(inner, 'ctx', rows)}"
                    f"\n{inner}{tm(term)}\n{inner}{ty(mid_ty)}))")
        raise ValueError(f"cannot serialize aux {a!r}")

    def node(d: Derivation, pad: str):
        j = d.conclusion
        inner = pad + "    "
        rows = [f"({xl} {xr} {ty(tl)} {ty(tr)})" for xl, xr, tl, tr in j.phi]
        put(f"{pad}({d.rule}\n{pad}  (concl\n{block(inner, 'ctx', rows)}"
            f"\n{inner}{tm(j.left)}\n{inner}{tm(j.right)}"
            f"\n{inner}{ty(j.type_left)}\n{inner}{ty(j.type_right)})")
        if d.aux is not None:
            put("\n" + aux(d.aux, pad + "  "))
        for p in d.premises:
            put("\n")
            node(p, pad + "  ")
        put(")")

    for d in ds:
        node(d, "")
        put("\n\n")
    return "".join(out[:-1]) + "\n"  # one newline in place of the last "\n\n"
