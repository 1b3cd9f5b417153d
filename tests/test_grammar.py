import itertools
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gtt.grammar import (
    ParseError, context_to_text, parse_signature, parse_term, parse_term_file,
    parse_type, term_to_text, type_to_text,
)
from gtt.syntax import (
    App, Base, Context, DYN, Fn, FnApp, GttError, NAT, Pair, Type, UNIT,
    UNITVAL, Upcast, Var,
)
from gtt.typecheck import DynCtx, default_signature
from gtt.derivio import derivations_to_text, parse_derivations
from gtt.theorems import derive_theorem, theorem_instances
from gtt.dynamism import Derivation, DynJudgment, check_derivation
from perfbench import bench_gen

from oracles import (
    derivations_to_text_reference, parse_derivations_reference,
    parse_term_file_reference, parse_term_reference, parse_type_reference,
)
from termgen import gen_welltyped, normalize_inputs

SIG = default_signature()

TYPE_FIXTURES = [
    "Nat", "?", "1", "Nat -> Nat", "(Nat -> Nat) -> ?", "Nat * (1 -> ?)",
    "? -> ? -> ?", "(Nat * Nat) * ?", "1 * 1",
]

TERM_FIXTURES = [
    "x", "f x", "\\x:Nat. x", "(x, y)", "fst p", "snd p", "()",
    "up[Nat => ?] x", "dn[? => Nat] x", "err[Nat -> ?]", "3",
    "\\f:Nat -> Nat. \\x:Nat. f (f x)",
    "up[Nat -> Nat => ? -> ?] (\\x:Nat. x)",
    "dn[? => ? * ?] up[Nat => ?] 0",
    "fst (x, err[1])",
]


@pytest.mark.parametrize("text", TYPE_FIXTURES)
def test_type_roundtrip(text):
    ty = parse_type(text)
    assert parse_type(type_to_text(ty)) == ty


@pytest.mark.parametrize("text", TERM_FIXTURES)
def test_term_roundtrip(text):
    t = parse_term(text, SIG)
    assert parse_term(term_to_text(t), SIG) == t


def test_term_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        _, t, _ = gen_welltyped(rng, SIG, size=rng.randint(1, 20))
        assert parse_term(term_to_text(t), SIG) == t


def test_arrow_right_associative():
    assert parse_type("Nat -> Nat -> ?") == Fn(NAT, Fn(NAT, DYN))


def test_cast_binds_tighter_than_application():
    t = parse_term("up[Nat => ?] x y", SIG)
    assert t == App(Upcast(NAT, DYN, Var("x")), Var("y"))


# -- the term and type grammar's errors, pinned --------------------------------

ADD = parse_signature("basetypes: Nat\nfnsyms:\n  add : (Nat, Nat) -> Nat")
_ENTRY = {
    "type": parse_type,
    "term": lambda text: parse_term(text, SIG),
    "file": lambda text: parse_term_file(text, SIG),
    "add": lambda text: parse_term(text, ADD),
    "sig": parse_signature,
}

# every message the grammar raises, with an entry point, a text that raises
# it and the exact string, offset included
GRAMMAR_ERRORS = [
    # an unexpected character: after a comment or a CRLF, among Unicode
    # whitespace and numerals (`\s` and `\d` are Unicode classes, identifiers
    # ASCII), and ahead of every parse error, wherever in the text it is
    ("type", "Nat é", "unexpected character 'é' (at offset 4)"),
    ("term", "é", "unexpected character 'é' (at offset 0)"),
    ("term", "x 😀", "unexpected character '😀' (at offset 2)"),
    ("term", "x ²", "unexpected character '²' (at offset 2)"),
    ("type", "Nat # c\n é", "unexpected character 'é' (at offset 9)"),
    ("term", "x # é\r\n é", "unexpected character 'é' (at offset 8)"),
    ("file", "[x : Nat]\r\n  x é", "unexpected character 'é' (at offset 15)"),
    ("type", "Nat\u2003é", "unexpected character 'é' (at offset 4)"),
    ("term", "١ é", "unexpected character 'é' (at offset 2)"),
    ("type", "١", "expected a type, found '١' (at offset 0)"),
    ("type", "-> é", "unexpected character 'é' (at offset 3)"),
    ("term", ") é", "unexpected character 'é' (at offset 2)"),
    ("term", "x ) é", "unexpected character 'é' (at offset 4)"),
    ("file", "[x Nat] é", "unexpected character 'é' (at offset 8)"),
    ("term", "\\x:Nat . . é", "unexpected character 'é' (at offset 11)"),
    ("term", "(" * 3000 + " é", "unexpected character 'é' (at offset 3001)"),
    ("type", "(" * 3000 + "é", "unexpected character 'é' (at offset 3000)"),
    # reserved words as a type, as a term and as a bound or context variable
    ("type", "up", "reserved word 'up' is not a type (at offset 0)"),
    ("type", "Nat -> err", "reserved word 'err' is not a type (at offset 7)"),
    ("term", "fst", "expected a term, found 'end of input' (at offset 3)"),
    ("term", "up", "expected '[', found 'end of input' (at offset 2)"),
    ("term", "x err", "expected '[', found 'end of input' (at offset 5)"),
    ("term", "snd snd", "expected a term, found 'end of input' (at offset 7)"),
    ("term", "\\up:Nat. x", "expected a variable after lambda, found 'up' (at offset 1)"),
    ("term", "\\:Nat. x", "expected a variable after lambda, found ':' (at offset 1)"),
    ("term", "\\", "expected a variable after lambda, found '' (at offset 1)"),
    ("file", "[up : Nat] x", "expected a variable, found 'up' (at offset 1)"),
    ("file", "[(x : Nat] x", "expected a variable, found '(' (at offset 1)"),
    ("file", "[x : Nat,] x", "expected a variable, found ']' (at offset 9)"),
    ("file", "[", "expected a variable, found '' (at offset 1)"),
    # each expected token, in the middle and at the end of the input
    ("type", "(Nat", "expected ')', found 'end of input' (at offset 4)"),
    ("type", "(Nat ?", "expected ')', found '?' (at offset 5)"),
    ("term", "(x", "expected ')', found 'end of input' (at offset 2)"),
    ("term", "(x y ]", "expected ')', found ']' (at offset 5)"),
    ("term", "(x, y", "expected ')', found 'end of input' (at offset 5)"),
    ("term", "(x, y z", "expected ')', found 'end of input' (at offset 7)"),
    ("add", "add(1, x", "expected ')', found 'end of input' (at offset 8)"),
    ("add", "add(1 ]", "expected ')', found ']' (at offset 6)"),
    ("add", "add(", "expected a term, found 'end of input' (at offset 4)"),
    ("add", "add(1,)", "expected a term, found ')' (at offset 6)"),
    ("term", "up[Nat", "expected '=>', found 'end of input' (at offset 6)"),
    ("term", "up[Nat ?] x", "expected '=>', found '?' (at offset 7)"),
    ("term", "up x", "expected '[', found 'x' (at offset 3)"),
    ("term", "err", "expected '[', found 'end of input' (at offset 3)"),
    ("term", "err x", "expected '[', found 'x' (at offset 4)"),
    ("term", "up[Nat => ?", "expected ']', found 'end of input' (at offset 11)"),
    ("term", "up[Nat => ? x", "expected ']', found 'x' (at offset 12)"),
    ("term", "err[Nat", "expected ']', found 'end of input' (at offset 7)"),
    ("term", "err[Nat x]", "expected ']', found 'x' (at offset 8)"),
    ("file", "[x : Nat x", "expected ']', found 'x' (at offset 9)"),
    ("file", "[x : Nat", "expected ']', found 'end of input' (at offset 8)"),
    ("term", "\\x Nat. x", "expected ':', found 'Nat' (at offset 3)"),
    ("term", "\\x", "expected ':', found 'end of input' (at offset 2)"),
    ("file", "[x Nat] x", "expected ':', found 'Nat' (at offset 3)"),
    ("file", "[x", "expected ':', found 'end of input' (at offset 2)"),
    ("term", "\\x:Nat x", "expected '.', found 'x' (at offset 7)"),
    ("term", "\\x:Nat", "expected '.', found 'end of input' (at offset 6)"),
    ("type", "Nat ->", "expected a type, found '' (at offset 6)"),
    ("type", "->", "expected a type, found '->' (at offset 0)"),
    ("type", "", "expected a type, found '' (at offset 0)"),
    ("type", "Nat * ", "expected a type, found '' (at offset 6)"),
    ("term", "up[=> ?] x", "expected a type, found '=>' (at offset 3)"),
    ("term", "\\x:. x", "expected a type, found '.' (at offset 3)"),
    ("term", "", "expected a term, found 'end of input' (at offset 0)"),
    ("term", ")", "expected a term, found ')' (at offset 0)"),
    ("term", "\\x:Nat.", "expected a term, found 'end of input' (at offset 7)"),
    ("term", "(x, )", "expected a term, found ')' (at offset 4)"),
    ("term", "\\x:Nat . . x", "expected a term, found '.' (at offset 9)"),
    ("file", "[x : Nat]", "expected a term, found 'end of input' (at offset 9)"),
    ("file", "", "expected a term, found 'end of input' (at offset 0)"),
    # the three kinds of trailing input
    ("type", "Nat Nat", "trailing input after type: 'Nat' (at offset 4)"),
    ("type", "Nat )", "trailing input after type: ')' (at offset 4)"),
    ("term", "x )", "trailing input after term: ')' (at offset 2)"),
    ("term", "x => y", "trailing input after term: '=>' (at offset 2)"),
    ("file", "[x : Nat] x )", "trailing input: ')' (at offset 12)"),
    ("file", "x ]", "trailing input: ']' (at offset 2)"),
    # signature files: each section's faults.  A tydyn, fnsyms or tmdyn line
    # is read in one walk, so its message names the line and its offset
    # counts from the start of the line
    ("sig", "nosuch:\n  x", "unknown signature section 'nosuch'"),
    ("sig", "Nat <= ?", "signature line outside any section: 'Nat <= ?'"),
    ("sig", "basetypes: Nat 9x", "base type name '9x' is not an identifier"),
    ("sig", "basetypes: Nat up", "base type name 'up' is not an identifier"),
    ("sig", "flags:\n  retract = maybe", "bad flag line: 'retract = maybe'"),
    ("sig", "flags:\n  retract = on\n  retract = off", "repeated flag 'retract'"),
    ("sig", "basecodes:\n  Nat 1", "bad basecodes line: 'Nat 1'"),
    ("sig", "basecodes:\n  Nat 1 2\n  Nat 3 4", "repeated basecodes line for 'Nat'"),
    ("sig", "tydyn:\n  Nat ?", "tydyn line 'Nat ?': expected '<=', found '?' (at offset 4)"),
    ("sig", "tydyn:\n  Nat <= Nat ->",
     "tydyn line 'Nat <= Nat ->': expected a type, found '' (at offset 13)"),
    ("sig", "tydyn:\n  Nat -> <= Nat",
     "tydyn line 'Nat -> <= Nat': expected a type, found '<=' (at offset 7)"),
    ("sig", "tydyn:\n  Nat Nat <= Nat",
     "tydyn line 'Nat Nat <= Nat': expected '<=', found 'Nat' (at offset 4)"),
    ("sig", "tydyn:\n  Nat <= Nat Nat",
     "tydyn line 'Nat <= Nat Nat': trailing input after type: 'Nat' (at offset 11)"),
    ("sig", "tydyn:\n  Nat <= é",
     "tydyn line 'Nat <= é': unexpected character 'é' (at offset 7)"),
    ("sig", "fnsyms:\n  g Nat", "expected 'f : (A, ...) -> B': 'g Nat'"),
    ("sig", "fnsyms:\n  up : () -> Nat", "function symbol name 'up' is a reserved word"),
    ("sig", "fnsyms:\n  9 : () -> Nat", "function symbol name '9' is not an identifier"),
    ("sig", "fnsyms:\n  f(x) : () -> Nat", "function symbol name 'f(x)' is not an identifier"),
    ("sig", "fnsyms:\n  g : () -> Nat\n  g : (Nat) -> Nat", "repeated function symbol 'g'"),
    ("sig", "fnsyms: g : Nat",
     "fnsyms line 'g : Nat': expected '(', found 'Nat' (at offset 4)"),
    ("sig", "fnsyms:\n  g : (Nat Nat) -> Nat",
     "fnsyms line 'g : (Nat Nat) -> Nat': expected ')', found 'Nat' (at offset 9)"),
    ("sig", "fnsyms:\n  g : (Nat) Nat",
     "fnsyms line 'g : (Nat) Nat': expected '->', found 'Nat' (at offset 10)"),
    ("sig", "fnsyms:\n  g : (Nat)",
     "fnsyms line 'g : (Nat)': expected '->', found 'end of input' (at offset 9)"),
    ("sig", "fnsyms:\n  g : (Nat) -> é",
     "fnsyms line 'g : (Nat) -> é': unexpected character 'é' (at offset 13)"),
    ("sig", "fnsyms:\n  g : () -> Nat Nat",
     "fnsyms line 'g : () -> Nat Nat': trailing input after type: 'Nat' (at offset 14)"),
    ("sig", "tmdyn:\n  [x : Nat] x",
     "tmdyn line '[x : Nat] x': expected '<=', found 'end of input' (at offset 11)"),
    ("sig", "tmdyn:\n  [x Nat] x <= y",
     "tmdyn line '[x Nat] x <= y': expected ':', found 'Nat' (at offset 3)"),
    ("sig", "tmdyn:\n  [x : Nat] x ) <= [y : ?] y",
     "tmdyn line '[x : Nat] x ) <= [y : ?] y': expected '<=', found ')' (at offset 12)"),
    ("sig", "tmdyn:\n  [x : Nat] x <= [y : ?] y )",
     "tmdyn line '[x : Nat] x <= [y : ?] y )': trailing input: ')' (at offset 25)"),
]


@pytest.mark.parametrize("entry, text, message", GRAMMAR_ERRORS)
def test_grammar_errors_are_pinned(entry, text, message):
    with pytest.raises(ParseError) as info:
        _ENTRY[entry](text)
    assert str(info.value) == message
    offset = re.search(r" \(at offset (\d+)\)$", message)
    assert info.value.pos == (int(offset[1]) if offset else -1)


def test_term_file_context_prefix():
    ctx, t = parse_term_file("[x : Nat, y : ?] (x, y)", SIG)
    assert ctx == Context.of(("x", NAT), ("y", DYN))
    assert t == Pair(Var("x"), Var("y"))
    assert context_to_text(ctx) == "[x : Nat, y : ?]"


def test_numerals_are_fn_symbols():
    assert parse_term("41", SIG) == FnApp("41")


def test_signature_file_roundtrip():
    sig = parse_signature("""
    # two bases, one axiom
    basetypes: Nat Even
    tydyn:
      Even <= Nat
    fnsyms:
      double : (Nat) -> Even
      pick : (Nat, Nat) -> Nat
    tmdyn:
      [x : Nat] x <= [y : ?] y
    flags:
      retract = off
      disjointness = on
    basecodes:
      Even 100 200
    """)
    assert sig.base_types == {"Nat", "Even"}
    assert (Base("Even"), Base("Nat")) in sig.tydyn_axioms
    assert sig.fn_symbols["pick"] == ((NAT, NAT), NAT)
    assert not sig.retract and sig.disjointness
    assert len(sig.tmdyn_axioms) == 1
    assert sig.base_codes["Even"] == (100, 200)


def test_fn_symbol_application_parses():
    sig = parse_signature("basetypes: Nat\nfnsyms:\n  add : (Nat, Nat) -> Nat")
    assert parse_term("add(1, x)", sig) == FnApp("add", (FnApp("1"), Var("x")))
    # undeclared names followed by parens are ordinary application
    assert parse_term("h (x)", sig) == App(Var("h"), Var("x"))


def test_derivation_file_roundtrip():
    ds = derive_theorem(SIG, "galois_counit", NAT, DYN)
    ds += derive_theorem(SIG, "fn_cast_up", NAT, NAT, DYN, DYN)
    ds += derive_theorem(SIG, "strict_dn", NAT, DYN)
    text = derivations_to_text(ds)
    back = parse_derivations(text, SIG)
    assert len(back) == len(ds)
    for d in back:
        assert check_derivation(SIG, d)
    assert derivations_to_text(back) == text


# -- the derivation writer against the s-expression tree ----------------------

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _same_text(ds):
    text, want = derivations_to_text(ds), derivations_to_text_reference(ds)
    if text != want:
        # name the first line that differs: pytest's own diff of megabytes
        # of text takes minutes
        pairs = itertools.zip_longest(text.split("\n"), want.split("\n"))
        n, (got, ref) = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {n}: {got!r} where the reference has {ref!r}")
    return text


def test_writer_matches_reference_on_the_corpus():
    pool = bench_gen.catalog_pool()
    assert len(pool) == 3847
    _same_text(pool)


@pytest.mark.parametrize("name", ["errbot.gttd", "galois_unit.gttd"])
def test_writer_matches_reference_on_the_fixtures(name):
    text = (FIXTURES / name).read_text()
    assert _same_text(parse_derivations(text, SIG)) == text


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_writer_matches_reference_on_the_prove_benchmark_files(seed):
    # mutated derivations included; the reader shares one object per
    # distinct chunk text, so these hit the writer's tables most
    files = bench_gen.prove_inputs(seed).files
    assert len(files) == 200
    for text in files.values():
        assert _same_text(parse_derivations(text, SIG)) == text


def test_writer_keeps_each_term_alive_while_its_id_is_a_key():
    # derivations read one at a time and dropped once written: a term freed
    # mid-call could hand its id to a different term
    texts = ["(r (concl (ctx) {x} {y} {Nat} {Nat}))",
             "(r (concl (ctx) {(x, x)} {fst y} {Nat} {Nat}))"] * 50
    lazily = derivations_to_text(
        parse_derivations(t, SIG)[0] for t in texts)
    eagerly = [parse_derivations(t, SIG)[0] for t in texts]
    assert lazily == derivations_to_text_reference(eagerly)


_EDGE = DynJudgment(DynCtx(), UNITVAL, UNITVAL, UNIT, UNIT)
_ONE = DynJudgment(DynCtx.of(("x", "x'", NAT, DYN)), Var("x"),
                   Upcast(NAT, DYN, Var("x'")), NAT, DYN)
_EDGE_AUX = [
    None, 0, 2, "fwd", "bwd",
    ((), ()),
    ((("x", Var("x")),), ()),
    ((), (("y", UNITVAL), ("z", Pair(UNITVAL, UNITVAL)))),
    (Context(), UNITVAL, UNIT),
    (Context.of(("z", NAT), ("w", DYN)), Var("z"), NAT),
]


@pytest.mark.parametrize("aux", _EDGE_AUX)
def test_writer_matches_reference_on_edge_cases(aux):
    leaf = Derivation("leaf", _EDGE, (), aux)
    for d in (leaf, Derivation("r", _ONE, (leaf, leaf), aux)):
        _same_text([d])
    _same_text([leaf, Derivation("r", _ONE, (), aux), leaf])


def test_writer_matches_reference_on_no_derivations():
    assert _same_text([]) == "\n"


@pytest.mark.parametrize("aux", [1.5, ["fwd"], ((), (), (), ())])
def test_writer_rejects_an_unknown_aux_like_the_reference(aux):
    d = Derivation("r", _ONE, (Derivation("leaf", _EDGE, (), aux),))
    with pytest.raises(ValueError) as new:
        derivations_to_text([d])
    with pytest.raises(ValueError) as old:
        derivations_to_text_reference([d])
    assert str(new.value) == str(old.value) == f"cannot serialize aux {aux!r}"


# -- the parser against the parser over token tuples --------------------------

_TOKEN_PIECES = st.sampled_from([
    "=>", "->", "<=", "=", "<", "-", ">", "(", ")", "[", "]", "{", "}", ",",
    ":", ".", "\\", "*", "?", "|", "up", "x'", "Nat", "_a1", "0", "42",
    " ", "\t", "\n", "\r\n", "#", "# a comment\n", "# \u00e9\r\n", "\u00e9",
    "\u0661", "\u2003", "\U0001f600",
])
_TOKEN_TEXT = st.lists(st.one_of(_TOKEN_PIECES, st.characters(codec="utf-8")),
                       max_size=16).map("".join)


def _shown(result):
    """A parse result with its binder hints, which ``==`` ignores."""
    if isinstance(result, tuple):
        return context_to_text(result[0]), term_to_text(result[1])
    if isinstance(result, Type):
        return type_to_text(result)
    return term_to_text(result)


def _parses_alike(parse, reference, text, faults=None):
    """Either both parsers read ``text`` to equal results with equal binder
    hints, or both raise the same error, message and offset included; True
    when the text is read.  The message goes into the set ``faults``."""
    try:
        want = reference(text)
    except GttError as e:
        with pytest.raises(GttError) as info:
            parse(text)
        assert (type(info.value), str(info.value), getattr(info.value, "pos", None)) \
            == (type(e), str(e), getattr(e, "pos", None))
        if faults is not None:
            faults.add(str(e))
        return False
    got = parse(text)
    assert got == want and _shown(got) == _shown(want)
    return True


def _file(text):
    return parse_term_file(text, SIG)


def _file_reference(text):
    return parse_term_file_reference(text, SIG)


@settings(max_examples=500, deadline=None)
@given(_TOKEN_TEXT)
def test_parser_matches_reference_on_token_soup(text):
    _parses_alike(parse_type, parse_type_reference, text)
    _parses_alike(_file, _file_reference, text)
    _parses_alike(lambda t: parse_term(t, SIG),
                  lambda t: parse_term_reference(t, SIG), text)


def _normalize_texts():
    return [text for seed in (1, 2)
            for text in normalize_inputs(seed).files.values()]


def _termgen_texts(count=600):
    """Term files and type texts of seeded well-typed terms."""
    rng = random.Random(22)
    files, types = [], []
    for _ in range(count):
        ctx, t, ty = gen_welltyped(rng, SIG, size=rng.randint(1, 14))
        files.append(f"{context_to_text(ctx)} {term_to_text(t)}")
        types.append(type_to_text(ty))
    return files, types


def test_parser_matches_reference_on_generated_inputs():
    files, types = _termgen_texts()
    texts = _normalize_texts()
    assert len(texts) == 800
    for text in texts + files:
        assert _parses_alike(_file, _file_reference, text)
    for text in types:
        assert _parses_alike(parse_type, parse_type_reference, text)


_GRAMMAR_PIECES = [
    "(", ")", "[", "]", ",", ":", ".", "\\", "*", "?", "->", "=>", "<=", "=",
    "up", "dn", "err", "fst", "snd", "x", "y'", "Nat", "1", "0", "42", "\u0661",
    " ", "\n", "\r\n", "# c\n", "#", "\u00e9", "\u2003", "{", "-", "[x : Nat]",
    ", a : 1",
]
_WORD = re.compile(r"[A-Za-z0-9_']+|[=-]>|<=|\S")  # roughly a token


def _mutate_text(text, rng):
    """``text`` with one character deleted or replaced by a grammar piece,
    one piece inserted, or one whole token deleted or repeated."""
    op = rng.randrange(5)
    if op >= 3:
        spans = [m.span() for m in _WORD.finditer(text)]
        if spans:
            start, end = rng.choice(spans)
            return text[:start] + text[start:end] * (op - 3) + text[end:]
    pos = rng.randrange(len(text) + 1)
    if op == 0:
        return text[:pos] + text[pos + 1:]
    return text[:pos] + rng.choice(_GRAMMAR_PIECES) + text[pos + op - 1:]


def test_parser_matches_reference_on_mutated_inputs():
    rng = random.Random(23)
    files, types = _termgen_texts(300)
    small = [text for text in _normalize_texts() if len(text) < 200]
    faults: set[str] = set()
    read = 0
    for k in range(20_000):
        if k % 4 == 3:
            text, parse, reference = rng.choice(types), parse_type, parse_type_reference
        else:
            text = rng.choice(small if k % 4 == 2 else files)
            parse, reference = _file, _file_reference
        for _ in range(rng.randint(1, 3)):
            text = _mutate_text(text, rng)
        read += _parses_alike(parse, reference, text, faults)
    # the fuzz reaches both outcomes and every kind of message
    assert 2000 < read < 18_000
    for kind in ["unexpected character", "expected a type", "expected a term",
                 "expected ')'", "expected ']'", "expected ':'", "expected '.'",
                 "expected '=>'", "expected '['", "trailing input:",
                 "trailing input after type", "reserved word",
                 "expected a variable after lambda", "expected a variable,",
                 "duplicate variable"]:
        assert any(kind in fault for fault in faults), kind


def test_an_unexpected_character_names_its_offset():
    with pytest.raises(ParseError) as info:
        parse_term("x ->\r\n  \u00e9 y", SIG)
    assert str(info.value) == "unexpected character '\u00e9' (at offset 8)"
    assert info.value.pos == 8


# -- the reader against the reference on random s-expressions ----------------

_WS = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c",
                       "\x1f", "\u00a0", "\u2003"])
# no whitespace character lies outside these categories
_ATOM = st.text(st.characters(codec="utf-8", exclude_characters="(){}#",
                              exclude_categories=("Cc", "Zs", "Zl", "Zp")),
                min_size=1, max_size=5)
_CHUNK = st.text(st.characters(codec="utf-8", exclude_characters="}"),
                 max_size=8).map(lambda body: "{" + body + "}")
_COMMENT = st.text(st.characters(codec="utf-8", exclude_characters="\n"),
                   max_size=6).map(lambda body: "#" + body + "\n")
_GAP = st.lists(st.one_of(_WS, _COMMENT), min_size=1, max_size=2).map("".join)

_WELL_FORMED_ITEM = st.recursive(
    st.one_of(_ATOM, _CHUNK),
    lambda inner: st.tuples(st.lists(st.tuples(_GAP, inner), max_size=4), _GAP)
    .map(lambda t: "(" + "".join(g + x for g, x in t[0]) + t[1] + ")"),
    max_leaves=20)
_WELL_FORMED = st.lists(st.tuples(_GAP, _WELL_FORMED_ITEM), max_size=4).map(
    lambda parts: "".join(g + x for g, x in parts))
_FRAGMENTS = st.lists(st.one_of(
    _WS, _ATOM, _CHUNK, _COMMENT, st.sampled_from(["(", ")", "{", "}", "#"]),
    _WELL_FORMED_ITEM), max_size=12).map("".join)


def _outcome(parse, text):
    try:
        return "items", parse(text)
    except ParseError as e:
        return "error", str(e), e.pos


@settings(max_examples=300, deadline=None)
@given(st.one_of(_WELL_FORMED, _FRAGMENTS))
def test_reader_matches_reference_on_random_sexps(text):
    _reads_alike(text)


@pytest.mark.parametrize("text, message, pos", [
    ("(a))", "unbalanced ')'", 3),
    ("(a {b", "unterminated '{' chunk", 3),
    ("(a (b)", "unexpected end of input in s-expression", 6),
    ("(a } b)", "unbalanced '}'", 3),
])
def test_sexp_errors_name_their_offset(text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_derivations(text, SIG)
    assert str(info.value) == f"{message} (at offset {pos})"
    assert info.value.pos == pos


def test_sexp_scanner_is_not_bounded_by_recursion_depth():
    depth = 5000
    with pytest.raises(ParseError, match="derivation must be"):
        parse_derivations("(" * depth + ")" * depth, SIG)
    # the scan for a fault of the text keeps no stack of its own either
    with pytest.raises(ParseError) as info:
        parse_derivations("(" * depth + ")" * (depth + 1), SIG)
    assert str(info.value) == f"unbalanced ')' (at offset {2 * depth})"


def test_derivation_reader_keeps_types_and_terms_apart():
    # within one file {Nat} is a term variable first, then a type, and then
    # the other way round
    text = ("(r (concl (ctx) {Nat} {Nat} {Nat} {Nat}))\n"
            "(r (concl (ctx (x y {Nat} {Nat})) {Nat} {Nat} {Nat} {Nat}))")
    for d in parse_derivations(text, SIG):
        j = d.conclusion
        assert (j.left, j.right, j.type_left, j.type_right) == (
            Var("Nat"), Var("Nat"), NAT, NAT)


# -- the derivation reader's errors, pinned -----------------------------------

_C = "(concl (ctx) {0} {0} {Nat} {Nat})"

# every message of the derivation reader and of the s-expression scanner,
# with the text that raises it and the exact string, offset included
READER_ERRORS = [
    # a {...} chunk expected
    ("(r (concl (ctx) x {0} {Nat} {Nat}))", "expected a {...} chunk, found 'x'"),
    ("(r (concl (ctx) {0} {0} (Nat) {Nat}))",
     "expected a {...} chunk, found ['Nat']"),
    # a variable name expected
    ("(r (concl (ctx ({x} y {Nat} {Nat})) {0} {0} {Nat} {Nat}))",
     "expected a variable name, found ('chunk', 'x')"),
    ("(r (concl (ctx ((a) y {Nat} {Nat})) {0} {0} {Nat} {Nat}))",
     "expected a variable name, found ['a']"),
    # a (x {...}) binding
    (f"(comp {_C} (aux (sub (x)) (sub)))", "expected (x {...}), found ['x']"),
    (f"(comp {_C} (aux (sub y) (sub)))", "expected (x {...}), found 'y'"),
    (f"(trans {_C} (aux (mid (ctx (z)) {{z}} {{Nat}})))",
     "expected (x {...}), found ['z']"),
    # a context entry of the wrong arity
    ("(r (concl (ctx (x y {Nat})) {0} {0} {Nat} {Nat}))",
     "context entry must be (x x' {A} {A'})"),
    ("(r (concl (ctx x) {0} {0} {Nat} {Nat}))",
     "context entry must be (x x' {A} {A'})"),
    # (ctx ...) and (concl ...)
    ("(r (concl (cx) {0} {0} {Nat} {Nat}))", "expected (ctx ...)"),
    ("(r (concl {0} {0} {Nat} {Nat}))",
     "expected (concl (ctx ...) {t} {t'} {A} {A'})"),
    ("(r (concl (ctx) {0} {0} {Nat} {Nat} {Nat}))",
     "expected (concl (ctx ...) {t} {t'} {A} {A'})"),
    ("(r (conc (ctx) {0} {0} {Nat} {Nat}))",
     "expected (concl (ctx ...) {t} {t'} {A} {A'})"),
    ("(r x)", "expected (concl (ctx ...) {t} {t'} {A} {A'})"),
    # an aux after the first is a premise, and so needs a conclusion
    (f"(r {_C} (aux 1) (aux 2))", "expected (concl (ctx ...) {t} {t'} {A} {A'})"),
    # aux atoms: '²' is a digit to str.isdigit but not to int()
    (f"(ax {_C} (aux seven))", "bad aux atom 'seven'"),
    (f"(ax {_C} (aux ²))", "bad aux atom '²'"),
    (f"(ax {_C} (aux -1))", "bad aux atom '-1'"),
    (f"(ax {_C} (aux))", "unrecognized aux form: ['aux']"),
    # (mid ...) and the other aux forms
    (f"(trans {_C} (aux (mid (cx (z {{Nat}})) {{z}} {{Nat}})))",
     "expected (mid (ctx (x {A}) ...) {t} {A})"),
    (f"(trans {_C} (aux (mid (ctx (z {{Nat}})) {{z}})))",
     "unrecognized aux form: ['aux', ['mid', ['ctx', ['z', ('chunk', 'Nat')]], "
     "('chunk', 'z')]]"),
    (f"(ur {_C} (aux fwd bwd))", "unrecognized aux form: ['aux', 'fwd', 'bwd']"),
    (f"(ur {_C} (aux {{1}}))", "unrecognized aux form: ['aux', ('chunk', '1')]"),
    (f"(comp {_C} (aux (sub) (mid)))",
     "unrecognized aux form: ['aux', ['sub'], ['mid']]"),
    # a missing conclusion, and a derivation not headed by an atom
    ("(r)", "rule r is missing its conclusion"),
    ("x", "derivation must be (rule (concl ...) ...)"),
    ("()", "derivation must be (rule (concl ...) ...)"),
    ("({r} (concl (ctx) {0} {0} {Nat} {Nat}))",
     "derivation must be (rule (concl ...) ...)"),
    (f"(r {_C} x)", "derivation must be (rule (concl ...) ...)"),
    (f"(r {_C} ())", "derivation must be (rule (concl ...) ...)"),
    # the four scanner errors
    ("(a))", "unbalanced ')' (at offset 3)"),
    ("(a {b", "unterminated '{' chunk (at offset 3)"),
    ("(a (b)", "unexpected end of input in s-expression (at offset 6)"),
    ("(a } b)", "unbalanced '}' (at offset 3)"),
    # a scanner error wins over a structural or chunk error before it
    ("(r) )", "unbalanced ')' (at offset 4)"),
    ("x (a {b", "unterminated '{' chunk (at offset 5)"),
    ("(r (concl (ctx) {0} {0} {Nat ->} {Nat})) )", "unbalanced ')' (at offset 41)"),
    # a comment swallows the closing parentheses
    (f"(r {_C} # )\n", "unexpected end of input in s-expression (at offset 41)"),
    ("(r (concl (ctx) {0} {0} {Nat} {?})#))",
     "unexpected end of input in s-expression (at offset 37)"),
    # a '#' inside a chunk is chunk text: the term parser reads the comment
    ("(r (concl (ctx) {#} {0} {Nat} {Nat}))",
     "expected a term, found 'end of input' (at offset 1)"),
    ("(r (concl (ctx) {0} {0} {Nat #} {Nat}) x)",
     "derivation must be (rule (concl ...) ...)"),
    # CRLF line ends: offsets count the '\r'
    ("(r\r\n  (concl (ctx) {0} {0} {Nat} {Nat})\r\n",
     "unexpected end of input in s-expression (at offset 41)"),
    (f"(r {_C})\r\n)", "unbalanced ')' (at offset 39)"),
    # chunks that the type and term parsers reject
    ("(r (concl (ctx) {0} {0} {Nat ->} {Nat}))", "expected a type, found '' (at offset 6)"),
    ("(r (concl (ctx) {\\x:Nat.} {0} {Nat} {Nat}))",
     "expected a term, found 'end of input' (at offset 7)"),
]


@pytest.mark.parametrize("text, message", READER_ERRORS)
def test_derivation_reader_errors_are_pinned(text, message):
    with pytest.raises(ParseError) as info:
        parse_derivations(text, SIG)
    assert str(info.value) == message


def test_a_comment_or_crlf_between_tokens_reads_like_a_space():
    text = ("(r\r\n  (concl # a comment (ctx) {x}\r\n"
            "    (ctx) {0 # a comment in a chunk} {0} {Nat} {Nat}))\r\n")
    (d,) = parse_derivations(text, SIG)
    assert d == Derivation("r", DynJudgment(DynCtx(), FnApp("0"), FnApp("0"), NAT, NAT))


# -- the reader against the reference reader ---------------------------------

def _sharing(ds):
    """Each chunk's parse in reading order, as the index of the first leaf
    of its kind that is the same object: types and terms apart."""
    types, terms = [], []

    def walk(d):
        j = d.conclusion
        for _, _, a, b in j.phi:
            types.extend((a, b))
        terms.extend((j.left, j.right))
        types.extend((j.type_left, j.type_right))
        if isinstance(d.aux, tuple) and len(d.aux) == 2:
            terms.extend(t for side in d.aux for _, t in side)
        elif isinstance(d.aux, tuple):
            ctx, term, ty = d.aux
            types.extend(a for _, a in ctx)
            terms.append(term)
            types.append(ty)
        for p in d.premises:
            walk(p)
    for d in ds:
        walk(d)
    return [[first.setdefault(id(x), k) for k, x in enumerate(xs)]
            for first, xs in (({}, types), ({}, terms))]


def _reads_alike(text, sig=SIG, faults=None):
    """Either both readers read ``text`` to equal derivations that share
    their parses alike, or ``parse_derivations`` raises the error of the
    reference reader, offset included; True when the text is read.  The
    message of an error goes into the set ``faults``, if one is given."""
    try:
        want = parse_derivations_reference(text, sig)
    except ParseError as e:
        with pytest.raises(ParseError) as info:
            parse_derivations(text, sig)
        assert (str(info.value), info.value.pos) == (str(e), e.pos)
        if faults is not None:
            faults.add(str(e))
        return False
    got = parse_derivations(text, sig)
    assert got == want
    assert _sharing(got) == _sharing(want)
    return True


GTTD_FIXTURES = sorted(FIXTURES.glob("*.gttd"))


@pytest.mark.parametrize("path", GTTD_FIXTURES, ids=lambda p: p.name)
def test_token_reader_matches_on_the_fixtures(path):
    assert _reads_alike(path.read_text())


@pytest.mark.parametrize("retract", ["on", "off"])
def test_token_reader_matches_on_the_corpus(retract):
    sig = SIG.replace(retract=retract == "on")
    ds = [d for _, _, built in theorem_instances(sig, 3)
          if not isinstance(built, str) for d in built]
    assert len(ds) == {"on": 3847, "off": 3016}[retract]
    assert _reads_alike(derivations_to_text(ds), sig)


_PIECES = list("(){}# \n") + [
    "aux", "sub", "mid", "ctx", "concl", "fwd", "bwd", "7", "{Nat}", "{x}"]


def _mutate(text, rng):
    """``text`` with one character deleted or replaced by a piece, or one
    piece inserted."""
    pos = rng.randrange(len(text) + 1)
    op = rng.randrange(3)
    if op == 0:
        return text[:pos] + text[pos + 1:]
    piece = rng.choice(_PIECES)
    return text[:pos] + piece + text[pos + op - 1:]


def test_token_reader_matches_on_mutated_fixtures():
    rng = random.Random(19)
    texts = [path.read_text() for path in GTTD_FIXTURES]
    read = 0
    for _ in range(20_000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(text, rng)
        read += _reads_alike(text)
    # the fuzz reaches both outcomes
    assert 1000 < read < 19_000


# pieces of the format: openers, which the soup closes at its end, and whole
# lists and leaves.  A concl or an aux of the wrong length often holds a
# fault of its own, and the shape of the list must win over it.
_OPENERS = ["(r (concl (ctx", f"(r {_C} (aux (sub", f"(r {_C} (aux (mid (ctx",
            f"(r {_C} (aux", f"(trans {_C}", "(concl", "(ctx", "(sub", "(mid", "("]
_WHOLE = [
    f"(r {_C})", "(aux fwd)", "(aux 7)", "(aux (sub (x {0})) (sub (y {0})))",
    "(aux (mid (ctx (z {Nat})) {z} {Nat}))", _C, "(x y {Nat} {Nat})",
    "(x y {Nat})", "(x {0})", "({x} {0})", "((a) y {Nat} {Nat})",
    "{\\x:Nat.}", "x", "{0}", "{Nat}", "{Nat ->}", "²", "#c\n", ")", ")", ")",
]


def _soup(rng):
    """0 to 14 pieces, and a ``)`` for each list still open at the end."""
    out, depth = [], 0
    for _ in range(rng.randint(0, 14)):
        piece = rng.choice(_OPENERS + _WHOLE)
        depth = max(depth + piece.count("(") - piece.count(")"), 0)
        out.append(piece)
    return " ".join(out) + ")" * depth


def test_token_reader_matches_on_a_soup_of_pieces():
    rng = random.Random(21)
    faults: set[str] = set()
    read = sum(_reads_alike(_soup(rng), faults=faults) for _ in range(20_000))
    assert read > 1000
    # the soup reaches every structural message, and a fault of the text
    for kind in ["derivation must be", "missing its conclusion",
                 "expected (concl", "expected (ctx", "context entry",
                 "expected a variable name", "expected a {...} chunk",
                 "expected (x {...})", "bad aux atom", "unrecognized aux form",
                 "expected (mid", "unbalanced ')'"]:
        assert any(kind in fault for fault in faults), kind


def test_signature_section_header_without_colon():
    sig = parse_signature("basetypes: Nat\nflags\n  retract = off\n")
    assert sig.retract is False
