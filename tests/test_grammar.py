import random

import pytest
from hypothesis import given, settings, strategies as st

from gtt.grammar import (
    ParseError, context_to_text, parse_sexps, parse_signature, parse_term,
    parse_term_file, parse_type, sexp_to_text, term_to_text, type_to_text,
)
from gtt.syntax import (
    App, Base, Context, DYN, Downcast, Err, Fn, FnApp, Lam, NAT, Pair, Prod,
    Proj, UNIT, UNITVAL, Upcast, Var, alpha_eq,
)
from gtt.typecheck import default_signature
from gtt.derivio import derivations_to_text, parse_derivations
from gtt.theorems import derive_theorem
from gtt.dynamism import check_derivation

from oracles import parse_sexps_reference
from termgen import gen_welltyped

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
    assert alpha_eq(parse_term(term_to_text(t), SIG), t)


def test_term_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        _, t, _ = gen_welltyped(rng, SIG, size=rng.randint(1, 20))
        assert alpha_eq(parse_term(term_to_text(t), SIG), t)


def test_arrow_right_associative():
    assert parse_type("Nat -> Nat -> ?") == Fn(NAT, Fn(NAT, DYN))


def test_cast_binds_tighter_than_application():
    t = parse_term("up[Nat => ?] x y", SIG)
    assert t == App(Upcast(NAT, DYN, Var("x")), Var("y"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_type("Nat ->")
    with pytest.raises(ParseError):
        parse_term("\\x:Nat . . x", SIG)
    with pytest.raises(ParseError):
        parse_term("fst", SIG)


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


def test_sexp_roundtrip():
    sexps = parse_sexps("(a (b {Nat -> ?} c) d) (e)")
    text = "\n".join(sexp_to_text(s) for s in sexps)
    assert parse_sexps(text) == sexps


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


# -- the s-expression scanner against the recursive reference -----------------

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
def test_sexp_scanner_matches_reference(text):
    assert _outcome(parse_sexps, text) == _outcome(parse_sexps_reference, text)


@settings(deadline=None)
@given(_WELL_FORMED)
def test_well_formed_sexps_round_trip(text):
    items = parse_sexps(text)
    assert parse_sexps("\n".join(sexp_to_text(x) for x in items)) == items


@pytest.mark.parametrize("text, message, pos", [
    ("(a))", "unbalanced ')'", 3),
    ("(a {b", "unterminated '{' chunk", 3),
    ("(a (b)", "unexpected end of input in s-expression", 6),
    ("(a } b)", "unbalanced '}'", 3),
])
def test_sexp_errors_name_their_offset(text, message, pos):
    with pytest.raises(ParseError) as info:
        parse_sexps(text)
    assert str(info.value) == f"{message} (at offset {pos})"
    assert info.value.pos == pos


def test_sexp_scanner_is_not_bounded_by_recursion_depth():
    depth = 5000
    (item,) = parse_sexps("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        (item,) = item
    assert item == "x"
    with pytest.raises(ParseError, match="derivation must be"):
        parse_derivations("(" * depth + ")" * depth, SIG)


def test_derivation_reader_keeps_types_and_terms_apart():
    # within one file {Nat} is a term variable first, then a type, and then
    # the other way round
    text = ("(r (concl (ctx) {Nat} {Nat} {Nat} {Nat}))\n"
            "(r (concl (ctx (x y {Nat} {Nat})) {Nat} {Nat} {Nat} {Nat}))")
    for d in parse_derivations(text, SIG):
        j = d.conclusion
        assert (j.left, j.right, j.type_left, j.type_right) == (
            Var("Nat"), Var("Nat"), NAT, NAT)


def test_signature_section_header_without_colon():
    sig = parse_signature("basetypes: Nat\nflags\n  retract = off\n")
    assert sig.retract is False
