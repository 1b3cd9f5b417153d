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

Reading is one walk by index over one token list, which a single
``re.findall`` cuts (parentheses, bare words and ``{...}`` chunks, with the
whitespace and comments between them dropped).  It builds the ``DynCtx``,
``DynJudgment`` and ``Derivation`` values directly, checks each token where
the format puts it, and parses each distinct chunk text once per call as a
type and once as a term, so that repeats share the parse.  It raises the
``ParseError`` of the first fault it meets, but one inside a ``concl`` or an
``aux`` only if that list has its shape (six items; one of the forms above).
A fault of the text itself (a ``)`` or ``}`` that closes nothing, a ``{``
never closed, the end inside a list) wins over all others: when the walk
stops, one more linear scan, the only code that counts offsets, looks for it.

Writing is one pass that appends strings to one list and joins it once.
Within one ``derivations_to_text`` call each distinct type (interned, so
keyed by itself) and each distinct term object (keyed by ``id``) is rendered
once, and every repeat reuses that text; the tables die with the call.
"""

from __future__ import annotations

import re

from .grammar import (
    ParseError, parse_term, parse_type, term_to_text, type_to_text,
)
from .syntax import Term, Type
from .typecheck import DynCtx, Signature
from .dynamism import Derivation, DynJudgment

# the whitespace and comments before a token, then the token: a chunk, a
# parenthesis, a bare word or a brace that opens or closes no chunk.  The
# token is optional, so every match starts where the one before it ended and
# no text is skipped; an empty token appears only at the end of the text.
_TOKENS = re.compile(r"(?:\s+|\#[^\n]*)*(\{[^}]*\}|[()]|[^\s(){}\#]+|[{}])?")

_NOT_A_DERIVATION = "derivation must be (rule (concl ...) ...)"
_NOT_A_CONCL = "expected (concl (ctx ...) {t} {t'} {A} {A'})"
_NOT_AN_AUX = "unrecognized aux form"  # ``_aux_form`` raises it with the aux
_TEXT_FAULTS = {")": "unbalanced ')'", "{": "unterminated '{' chunk",
                "}": "unbalanced '}'"}


class _Chunks(dict):
    """Chunk token -> its parse, one per distinct token for one call."""

    def __init__(self, parse):
        self.parse = parse

    def __missing__(self, token: str):
        out = self[token] = self.parse(token[1:-1])
        return out


# The walk is module functions, not closures over the token list: a closure
# that calls itself is a reference cycle, which keeps a file's tokens alive
# until the cycle collector runs.  Its messages hold for a text with no fault
# of its own; ``_scan`` names that fault first.

def _items(toks: list[str], at: int) -> list[int]:
    """The index of each item of the list whose ``(`` is ``toks[at]``."""
    out, depth, j = [], 0, at + 1
    while depth or toks[j] != ")":
        if not depth:
            out.append(j)
        depth += (toks[j] == "(") - (toks[j] == ")")
        j += 1
    return out


def _show(toks: list[str], at: int) -> str:
    """The item at ``toks[at]`` in a message: a word, ``("chunk", text)`` or list."""
    stack: list[list] = [[]]
    for tok in toks[at:]:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            stack[-2].append(stack.pop())
        else:
            stack[-1].append(("chunk", tok[1:-1]) if tok[0] == "{" else tok)
        if len(stack) == 1:
            return repr(stack[0][0])


def _fault(toks: list[str], at: int, tables: tuple, message: str, skip=0):
    """Raise ``message`` unless the item at ``toks[at]`` is a list of ``skip +
    len(tables)`` items, else its first item after ``skip`` that is out of
    place (a word for ``None``, else a chunk the table parses), else ``message``."""
    items = _items(toks, at) if toks[at] == "(" else []
    if len(items) == skip + len(tables):
        for j, table in zip(items[skip:], tables):
            if table is None and toks[j][0] in "(){}":
                raise ParseError(f"expected a variable name, found {_show(toks, j)}")
            if table is not None and toks[j][0] != "{":
                raise ParseError(f"expected a {{...}} chunk, found {_show(toks, j)}")
            if table is not None:
                table[toks[j]]
    raise ParseError(message)


def _aux_form(toks: list[str], at: int):
    """Raise unless the aux list at ``toks[at]`` has one of the three forms."""
    body = _items(toks, at)[1:]
    heads = [toks[j:j + 2] for j in body]
    if not (len(body) == 2 and heads == [["(", "sub"]] * 2 or len(body) == 1 and (
            heads[0][0][0] not in "({" or heads[0] == ["(", "mid"]
            and len(_items(toks, body[0])) == 4)):
        raise ParseError(f"{_NOT_AN_AUX}: {_show(toks, at)}") from None


def _bindings(toks: list[str], i: int, chunks: _Chunks):
    """The ``(x {...})`` entries from ``toks[i]`` to a ``)``, and the index after it."""
    out = []
    while toks[i] != ")":
        x, chunk, close = toks[i + 1:i + 4]
        if toks[i] != "(" or x[0] in "(){}" or chunk[0] != "{" or close != ")":
            _fault(toks, i, (None, chunks),
                   f"expected (x {{...}}), found {_show(toks, i)}")
        out.append((x, chunks[chunk]))
        i += 4
    return tuple(out), i + 1


def _derivation(toks: list[str], i: int, types: _Chunks, terms: _Chunks):
    """The derivation whose ``(`` is ``toks[i]``, and the index after its
    ``)``.  Every check is inline; only a fault calls out, to name itself."""
    rule = toks[i + 1]
    if rule[0] in "(){}":
        raise ParseError(_NOT_A_DERIVATION)
    if toks[i + 2] == ")":
        raise ParseError(f"rule {rule} is missing its conclusion")
    if toks[i + 2] != "(" or toks[i + 3] != "concl":
        raise ParseError(_NOT_A_CONCL)
    at = i + 2
    try:
        if toks[i + 4] != "(" or toks[i + 5] != "ctx":
            raise ParseError("expected (ctx ...)")
        i += 6
        entries = []
        while toks[i] != ")":
            x, y, a, b, close = toks[i + 1:i + 6]
            if (toks[i] != "(" or x[0] in "(){}" or y[0] in "(){}"
                    or a[0] != "{" or b[0] != "{" or close != ")"):
                _fault(toks, i, (None, None, types, types),
                       "context entry must be (x x' {A} {A'})")
            entries.append((x, y, types[a], types[b]))
            i += 6
        left, right, a, b, close = toks[i + 1:i + 6]
        if (left[0] != "{" or right[0] != "{" or a[0] != "{" or b[0] != "{"
                or close != ")"):
            _fault(toks, at, (terms, terms, types, types), _NOT_A_CONCL, 2)
        conclusion = DynJudgment(DynCtx(tuple(entries)), terms[left],
                                 terms[right], types[a], types[b])
    except Exception:
        if len(_items(toks, at)) != 6:
            raise ParseError(_NOT_A_CONCL) from None
        raise
    i += 6
    aux = None
    if toks[i] == "(" and toks[i + 1] == "aux":
        at = i
        try:
            word = toks[i + 2]
            if word != "(":
                if toks[i + 3] != ")":
                    raise ParseError(_NOT_AN_AUX)
                if word == "fwd" or word == "bwd":
                    aux = word
                elif word.isascii() and word.isdigit():
                    aux = int(word)
                else:
                    raise ParseError(f"bad aux atom {word!r}")
                i += 4
            elif toks[i + 3] == "sub":
                left, i = _bindings(toks, i + 4, terms)
                if toks[i] != "(" or toks[i + 1] != "sub":
                    raise ParseError(_NOT_AN_AUX)
                right, i = _bindings(toks, i + 2, terms)
                if toks[i] != ")":
                    raise ParseError(_NOT_AN_AUX)
                aux = left, right
                i += 1
            elif toks[i + 3] == "mid":
                if toks[i + 4] != "(" or toks[i + 5] != "ctx":
                    raise ParseError("expected (mid (ctx (x {A}) ...) {t} {A})")
                ctx, i = _bindings(toks, i + 6, types)
                term, ty, close, close_aux = toks[i:i + 4]
                if (term[0] != "{" or ty[0] != "{" or close != ")"
                        or close_aux != ")"):
                    _fault(toks, at + 2, (terms, types), _NOT_AN_AUX, 2)
                aux = ctx, terms[term], types[ty]
                i += 4
            else:
                raise ParseError(_NOT_AN_AUX)
        except Exception:
            _aux_form(toks, at)
            raise
    premises = []
    while toks[i] == "(":
        premise, i = _derivation(toks, i, types, terms)
        premises.append(premise)
    if toks[i] != ")":  # a premise that is a word or a chunk
        raise ParseError(_NOT_A_DERIVATION)
    return Derivation(rule, conclusion, tuple(premises), aux), i + 1


def _scan(text: str):
    """Raise the first fault of the text itself, if it has one."""
    depth = 0
    for m in _TOKENS.finditer(text):
        depth += (m[1] == "(") - (m[1] == ")")
        if depth < 0 or m[1] in ("{", "}"):
            raise ParseError(_TEXT_FAULTS[m[1]], m.start(1))
    if depth:
        raise ParseError("unexpected end of input in s-expression", len(text))


def parse_derivations(text: str, sig: Signature) -> list[Derivation]:
    toks = _TOKENS.findall(text)
    toks[toks.index(""):] = [""]  # one "" at the end, which no check accepts
    types = _Chunks(parse_type)
    terms = _Chunks(lambda text: parse_term(text, sig))
    out, i = [], 0
    try:
        while toks[i] == "(":
            d, i = _derivation(toks, i, types, terms)
            out.append(d)
        if i != len(toks) - 1:  # a word or a chunk at the top level
            raise ParseError(_NOT_A_DERIVATION)
    except Exception:
        # whatever stopped the walk (a fault it names, a chunk that does not
        # parse, nesting too deep), a fault of the text itself comes first
        _scan(text)
        raise
    return out


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
