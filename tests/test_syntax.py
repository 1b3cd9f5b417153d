import copy
import dataclasses
import gc
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest

from gtt.grammar import parse_term, parse_type, term_to_text
from gtt.syntax import (
    App, Base, Bound, Context, ContextError, Dyn, Err, Fn, Lam, NAT, Pair,
    Prod, UNIT, UnboundVariable, Unit, Upcast, DYN, Var, free_vars, num,
    substitute,
)
from gtt.dynamism import Derivation, DynJudgment
from gtt.model import NatVal, PairVal, UnitValSem, denote_coreflection, enumeration
from gtt.typecheck import DynCtx, default_signature

from oracles import alpha_eq_oracle, subst_nameless, to_nameless
from termgen import gen_welltyped

SIG = default_signature()


def test_alpha_eq_renamed_binder():
    assert Lam("x", NAT, Var("x")) == Lam("y", NAT, Var("y"))


def test_alpha_eq_distinct_bodies():
    assert Lam("x", NAT, Var("x")) != Lam("x", NAT, Err(NAT))


def test_alpha_eq_free_vs_bound():
    # free x on the left, bound binder renamed on the right
    t = Pair(Var("x"), Lam("x", NAT, Var("x")))
    u = Pair(Var("x"), Lam("z", NAT, Var("z")))
    assert t == u
    assert alpha_eq_oracle(t, u)
    # but a free variable cannot be renamed
    assert Pair(Var("x"), Var("x")) != Pair(Var("y"), Var("y"))


def test_alpha_eq_casts_compare_types():
    assert Upcast(NAT, DYN, Var("x")) != Upcast(DYN, DYN, Var("x"))


def test_equality_ignores_binder_hints_and_repr_keeps_them():
    t, u = Lam("x", NAT, Var("x")), Lam.nameless("y", NAT, Bound(0))
    assert t == u and hash(t) == hash(u)
    assert repr(t) == "Lam(var='x', annot=Base(name='Nat'), body=Bound(index=0))"
    assert repr(u) == "Lam(var='y', annot=Base(name='Nat'), body=Bound(index=0))"
    assert term_to_text(t) == "\\x:Nat. x" and term_to_text(u) == "\\y:Nat. y"


def test_substitute_disjoint():
    t = App(Var("x"), Var("y"))
    out = substitute(t, {"x": Lam("z", NAT, Var("z")), "y": num(0)})
    assert out == App(Lam("z", NAT, Var("z")), num(0))


def test_substitute_identity_up_to_alpha():
    t = Lam("x", NAT, Var("x"))
    assert substitute(t, {}) == t


def test_substitute_avoids_capture():
    # (\y:Nat. x)[x := y] keeps the image free; the binder keeps its hint,
    # and the printer renames it
    t = Lam("y", NAT, Var("x"))
    out = substitute(t, {"x": Var("y")})
    assert isinstance(out, Lam) and out.var == "y"
    assert out.body == Var("y")
    assert term_to_text(out) == "\\y':Nat. y"
    # cross-checked against the nameless-representation oracle
    assert to_nameless(out) == subst_nameless(to_nameless(t), {"x": ("free", "y")})


def test_substitute_unbound_raises():
    with pytest.raises(UnboundVariable) as exc:
        substitute(Var("q"), {})
    assert "q" in str(exc.value)


def test_free_vars():
    assert free_vars(Lam("x", NAT, Var("x"))) == set()
    assert free_vars(App(Var("x"), Var("y"))) == {"x", "y"}
    assert free_vars(Upcast(NAT, DYN, Var("x"))) == {"x"}


def test_context_rejects_duplicates():
    with pytest.raises(ContextError):
        Context.of(("x", NAT), ("x", DYN))


def _identity_subst(t):
    return {x: Var(x) for x in free_vars(t)}


def test_substitution_composes():
    rng = random.Random(7)
    for _ in range(150):
        ctx, t, _ = gen_welltyped(rng, SIG, size=rng.randint(1, 20))
        sigma = {x: Var(x) for x, _ in ctx}
        sigma["a"] = num(1)
        sigma["b"] = Upcast(NAT, DYN, num(0))
        delta = {x: Var(x) for x, _ in ctx}
        delta["p"] = Pair(num(2), Upcast(NAT, DYN, num(3)))
        one_two = substitute(substitute(t, sigma), delta)
        composed = substitute(
            t, {x: substitute(img, delta) for x, img in sigma.items()})
        assert one_two == composed


def test_substitute_never_captures():
    rng = random.Random(8)
    image = Lam("w", NAT, App(Var("g"), Var("free"))), Var("free")
    for _ in range(150):
        ctx, t, _ = gen_welltyped(rng, SIG, size=rng.randint(1, 15))
        sigma = {x: Var(x) for x, _ in ctx}
        sigma["a"] = rng.choice(image)
        out = substitute(t, sigma)
        if "a" in free_vars(t):
            assert "free" in free_vars(out)


def test_alpha_eq_is_equivalence_and_congruence():
    rng = random.Random(9)
    terms = [gen_welltyped(rng, SIG, size=rng.randint(1, 10))[1] for _ in range(60)]
    for t in terms:
        assert t == t
    for t in terms:
        for u in terms[:20]:
            assert (t == u) == (u == t)
            if t == u:
                assert Pair(t, num(0)) == Pair(u, num(0))
                assert Lam("x", NAT, t) == Lam("x", NAT, u)


def test_alpha_eq_matches_canonical_renaming_oracle():
    rng = random.Random(10)
    terms = [gen_welltyped(rng, SIG, size=rng.randint(1, 12))[1] for _ in range(80)]
    for t in terms:
        for u in terms[:25]:
            assert (t == u) == alpha_eq_oracle(t, u)


def test_a_capturing_substitution_prints_with_fresh_names():
    # each binder is primed past the names free in its body, which include
    # the outer binder's printed name; the text parses back to an equal term
    t = parse_term("\\y:Nat. \\y':Nat. x y y'", SIG)
    out = substitute(t, {"x": Var("y")})
    assert out.var == "y" and out.body.var == "y'"
    text = term_to_text(out)
    assert text == "\\y':Nat. \\y'':Nat. y y' y''"
    assert parse_term(text, SIG) == out


# -- hash-consed types -----------------------------------------------------------

def test_equal_types_are_one_object():
    built = Fn(Prod(Base("Nat"), Dyn()), Fn(Unit(), Base("Nat")))
    assert built is Fn(Prod(NAT, DYN), Fn(UNIT, NAT))
    assert parse_type("Nat * ? -> 1 -> Nat") is built
    assert parse_type("(Nat * ?) -> (1 -> Nat)") is built
    assert Base("Nat") is NAT and Dyn() is DYN and Unit() is UNIT
    assert Fn(NAT, DYN) is not Prod(NAT, DYN)
    assert Fn(NAT, DYN) != Prod(NAT, DYN) and Fn(NAT, DYN) != Fn(DYN, NAT)
    assert copy.deepcopy(built) is built
    assert pickle.loads(pickle.dumps(built)) is built


def test_types_print_and_match_as_before():
    ty = Fn(Prod(NAT, DYN), UNIT)
    assert repr(ty) == ("Fn(dom=Prod(fst=Base(name='Nat'), snd=Dyn()), "
                        "cod=Unit())")
    assert str(ty) == "Nat * ? -> 1"
    match ty:
        case Fn(Prod(Base(name), Dyn()), Unit()):
            assert name == "Nat"
        case _:
            pytest.fail("the pattern did not match")
    match Prod(UNIT, NAT):
        case Fn(_, _):
            pytest.fail("a product matched a function pattern")
        case Prod(a, b=b):
            assert (a, b) == (UNIT, NAT)
    with pytest.raises(FrozenInstanceError):
        ty.dom = NAT


ZERO_JUDGMENT = DynJudgment(DynCtx(), num(0), num(0), NAT, NAT)
FROZEN = [  # one instance of each frozen class that is not a term
    Context.of(("x", NAT)), DynCtx.of(("x", "y", NAT, DYN)), ZERO_JUDGMENT,
    Derivation("refl", ZERO_JUDGMENT), NatVal(1), PairVal(NatVal(1), NatVal(None)),
    UnitValSem(), enumeration(SIG, NAT, 2), denote_coreflection(SIG, NAT, DYN),
]


@pytest.mark.parametrize("obj", FROZEN, ids=lambda o: type(o).__name__)
def test_every_frozen_class_refuses_any_attribute(obj):
    names = tuple(f.name for f in dataclasses.fields(obj))
    values = tuple(getattr(obj, name) for name in names)
    for name in (*names, "extra"):
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert tuple(getattr(obj, name) for name in names) == values
    assert dataclasses.replace(obj) == obj == type(obj)(*values)
    if not any(callable(v) for v in values):  # maps do not pickle
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and hash(copy) == hash(obj)


def test_the_intern_table_does_not_keep_types_alive():
    key = (Base("Ephemeral"), UNIT)
    ty = Prod(*key)
    assert Prod._table[key]() is ty
    del ty, key
    gc.collect()
    assert ("Ephemeral",) not in Base._table
    assert not any(isinstance(fst, Base) and fst.name == "Ephemeral"
                   for fst, _ in Prod._table)
    # a type made again after its first instance died is interned afresh
    assert Prod(Base("Ephemeral"), UNIT) is Prod(Base("Ephemeral"), UNIT)
