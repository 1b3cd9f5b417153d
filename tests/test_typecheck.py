import itertools
import pathlib
import random

import pytest

from gtt.grammar import parse_signature, parse_term, parse_type
from gtt.syntax import (
    App, Base, Context, DYN, Err, Fn, Lam, NAT, Pair, Prod, Proj, UNIT,
    UNITVAL, Upcast, Var, num, subst1,
)
from gtt.typecheck import (
    DynCtx, Signature, SignatureError, TypeCheckError, check_ctx_dyn,
    check_type_wf, default_signature, enumerate_types, infer_type,
    tydyn_holds,
)

from oracles import tydyn_search
from termgen import gen_welltyped

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SIG = default_signature()
TWO_BASES = parse_signature((FIXTURES / "two_bases.gttsig").read_text())


# -- well-formedness ---------------------------------------------------------

def test_type_wf():
    assert check_type_wf(SIG, parse_type("Nat -> ?"))
    assert check_type_wf(SIG, parse_type("Nat * (1 -> ?)"))
    empty = Signature(base_types=())
    assert not check_type_wf(empty, NAT)


# -- inference ---------------------------------------------------------------

def test_infer_lambda():
    t = parse_term("\\x:Nat. x", SIG)
    assert infer_type(SIG, Context(), t) == Fn(NAT, NAT)


def test_infer_cast_of_error():
    t = Upcast(NAT, DYN, Err(NAT))
    assert infer_type(SIG, Context(), t) == DYN


def test_infer_proj_pair():
    ctx = Context.of(("x", NAT))
    t = Proj(1, Pair(Var("x"), UNITVAL))
    assert infer_type(SIG, ctx, t) == NAT


def test_infer_names_offending_subterm():
    bad = App(Lam("x", NAT, Var("x")), UNITVAL)
    with pytest.raises(TypeCheckError) as exc:
        infer_type(SIG, Context(), bad)
    assert exc.value.subterm == UNITVAL

    with pytest.raises(TypeCheckError):
        infer_type(SIG, Context(), Upcast(DYN, NAT, Err(DYN)))  # ? <= Nat fails

    with pytest.raises(TypeCheckError):
        infer_type(SIG, Context(), Var("nope"))


def test_infer_arity_mismatch():
    sig = Signature(fn_symbols={"f": ((NAT,), NAT)})
    from gtt.syntax import FnApp
    with pytest.raises(TypeCheckError):
        infer_type(sig, Context(), FnApp("f", ()))


def test_shadowing_binder_is_alpha_renamed():
    ctx = Context.of(("x", DYN))
    t = Lam("x", NAT, Var("x"))
    assert infer_type(SIG, ctx, t) == Fn(NAT, NAT)


# -- type dynamism -----------------------------------------------------------

def test_dyn_top():
    assert tydyn_holds(SIG, parse_type("Nat -> Nat"), DYN)


def test_fn_monotone_both_positions():
    assert tydyn_holds(SIG, parse_type("Nat -> Nat"), parse_type("? -> ?"))
    assert not tydyn_holds(SIG, parse_type("? -> Nat"), parse_type("Nat -> ?"))


def test_dyn_not_below_base():
    assert not tydyn_holds(SIG, DYN, NAT)
    # cross-checked by exhaustive derivation search to depth 4
    assert not tydyn_search(SIG, DYN, NAT, depth=4,
                            universe=enumerate_types(SIG, 3))


def test_base_axioms_closure():
    sig = Signature(base_types=("A", "B", "C"),
                    tydyn_axioms=((Base("A"), Base("B")), (Base("B"), Base("C"))))
    assert tydyn_holds(sig, Base("A"), Base("C"))
    assert not tydyn_holds(sig, Base("C"), Base("A"))
    assert tydyn_holds(sig, Fn(Base("C"), Base("A")), Fn(Base("C"), Base("B")))


@pytest.mark.parametrize("axiom", [(Prod(UNIT, UNIT), UNIT), (DYN, NAT)],
                         ids=["composite", "dyn"])
def test_signature_rejects_axioms_between_non_base_types(axiom):
    with pytest.raises(SignatureError):
        Signature(tydyn_axioms=(axiom,))


def test_dyn_top_restriction():
    fo = SIG.first_order_dyn()
    assert not tydyn_holds(fo, parse_type("Nat -> Nat"), DYN)
    assert tydyn_holds(fo, parse_type("Nat * 1"), DYN)
    assert tydyn_holds(fo, DYN, DYN)


def test_reflexive_transitive_exhaustive_size6():
    types = enumerate_types(SIG, 6)
    assert len(types) > 200
    for ty in types:
        assert tydyn_holds(SIG, ty, ty)
    pairs = [(a, b) for a in types for b in types if tydyn_holds(SIG, a, b)]
    above = {}
    for a, b in pairs:
        above.setdefault(a, []).append(b)
    for a, b in pairs:
        for c in above.get(b, ()):
            assert tydyn_holds(SIG, a, c), (a, b, c)


def _one_layer(atoms):
    return atoms + [ctor(a, b) for a in atoms for b in atoms for ctor in (Fn, Prod)]


@pytest.mark.parametrize("sig, types, related", [
    (SIG, enumerate_types(SIG, 4), 73),
    (TWO_BASES, _one_layer([Base("Even"), NAT, DYN]), 96),
    (TWO_BASES.first_order_dyn(), _one_layer([Base("Even"), NAT, DYN]), 87),
], ids=["default", "two_bases", "two_bases_first_order"])
def test_agrees_with_derivation_search_size4(sig, types, related):
    assert len(types) == 21  # atoms and one constructor layer
    holds = {(a, b) for a in types for b in types if tydyn_holds(sig, a, b)}
    assert len(holds) == related
    for a in types:
        for b in types:
            assert ((a, b) in holds) == tydyn_search(
                sig, a, b, depth=5, universe=types), (a, b)


def test_monotone_closure_small():
    atoms = [NAT, UNIT, DYN]
    for a, a1, b, b1 in itertools.product(atoms, repeat=4):
        if tydyn_holds(SIG, a, a1) and tydyn_holds(SIG, b, b1):
            assert tydyn_holds(SIG, Fn(a, b), Fn(a1, b1))
            assert tydyn_holds(SIG, Prod(a, b), Prod(a1, b1))


def test_typing_preserved_by_substitution():
    rng = random.Random(12)
    for _ in range(200):
        ctx, t, ty = gen_welltyped(rng, SIG, size=rng.randint(1, 15))
        u = num(rng.randint(0, 3))
        out = subst1(t, "a", u)  # a : Nat in the generator's context
        assert infer_type(SIG, ctx, out) == ty


# -- context dynamism --------------------------------------------------------

def test_ctx_dyn_present():
    phi = check_ctx_dyn(SIG, Context.of(("x", NAT)), Context.of(("x'", DYN)))
    assert phi == DynCtx.of(("x", "x'", NAT, DYN))


def test_ctx_dyn_empty():
    assert check_ctx_dyn(SIG, Context(), Context()) == DynCtx()


def test_ctx_dyn_length_mismatch():
    left = Context.of(("x", NAT), ("y", NAT))
    right = Context.of(("x'", NAT))
    assert check_ctx_dyn(SIG, left, right) is None


def test_ctx_dyn_unrelated_entry():
    assert check_ctx_dyn(SIG, Context.of(("x", DYN)), Context.of(("y", NAT))) is None


# -- signature validation ----------------------------------------------------

def test_tmdyn_axioms_validated():
    good = (Context.of(("x", NAT)), Var("x"), Context.of(("y", DYN)), Var("y"))
    sig = Signature(tmdyn_axioms=(good,))
    assert len(sig.tmdyn_axioms) == 1
    bad = (Context.of(("x", DYN)), Var("x"), Context.of(("y", NAT)), Var("y"))
    with pytest.raises(SignatureError):
        Signature(tmdyn_axioms=(bad,))
    illtyped = (Context(), Var("x"), Context(), Var("x"))
    with pytest.raises(SignatureError):
        Signature(tmdyn_axioms=(illtyped,))
