import itertools
import pathlib
import random
import sys

import pytest

from gtt.elaborate import elaborate
from gtt.grammar import parse_signature, parse_term, parse_term_file, parse_type
from gtt.syntax import (
    App, Base, Bound, Context, DYN, Downcast, Err, Fn, FnApp, Lam, NAT, Pair,
    Prod, Proj, UNIT, UNITVAL, Upcast, Var, instantiate, num, subst1, subterms,
    term_size,
)
from gtt.theorems import theorem_instances
from gtt.typecheck import (
    DynCtx, Signature, SignatureError, TypeCheckError, check_ctx_dyn,
    check_type_wf, default_signature, enumerate_types, infer_type,
    tydyn_holds,
)

from oracles import infer_type_reference, tydyn_search
from termgen import gen_welltyped

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SIG = default_signature()
TWO_BASES = parse_signature((FIXTURES / "two_bases.gttsig").read_text())
EVEN = Base("Even")


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


def test_a_projection_index_other_than_1_or_2_does_not_type():
    ctx = Context.of(("x", Prod(NAT, UNIT)))
    for i in (0, 3):
        with pytest.raises(TypeCheckError, match="^projection index must be 1 or 2$"):
            infer_type(SIG, ctx, Proj(i, Var("x")))


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


ADD = Signature(fn_symbols={"add": ((NAT, NAT), NAT)})
ERR_CTX = Context.of(("x", NAT), ("f", Fn(NAT, NAT)), ("p", Prod(NAT, UNIT)))
ODD = Base("Odd")
_add = lambda *args: FnApp("add", args)

# every error ``infer_type`` raises, under ``ADD`` and ``ERR_CTX`` unless a
# row gives its own context: the term, the exact message and the subterm the
# error names; where two errors are present, the row pins which one wins
TYPE_ERRORS = [
    (None, Var("y"), "unbound variable y", Var("y")),
    (Context.of(("y", EVEN)), Var("nope"), "ill-formed context entry y : Even", None),
    # a loose index, at the root and under a binder
    (None, Bound(0), "unrecognized term Bound(index=0)", Bound(0)),
    (None, Lam.nameless("z", NAT, Bound(1)), "unrecognized term Bound(index=1)", Bound(1)),
    (None, FnApp("g"), "unknown function symbol: g", None),
    (None, _add(num(1)), "symbol add expects 2 arguments, got 1", _add(num(1))),
    # the arity before the arguments, and the arguments left to right
    (None, _add(Var("y")), "symbol add expects 2 arguments, got 1", _add(Var("y"))),
    (None, _add(num(1), UNITVAL), "argument 1 of add has type 1, expected Nat", UNITVAL),
    (None, _add(UNITVAL, Var("y")), "argument 0 of add has type 1, expected Nat", UNITVAL),
    # the annotation before the body
    (None, Lam("z", EVEN, Var("y")), "ill-formed annotation on z", Lam("z", EVEN, Var("y"))),
    (None, Lam("z", NAT, App(Var("z"), Var("x"))),
     "applying a non-function of type Nat", Bound(0)),
    # the function before the argument
    (None, App(UNITVAL, Var("y")), "applying a non-function of type 1", UNITVAL),
    (None, App(Var("f"), UNITVAL), "argument type 1 does not match domain Nat", UNITVAL),
    (None, Pair(Var("y"), Var("w")), "unbound variable y", Var("y")),
    # the index before the tuple
    (None, Proj(3, Var("p")), "projection index must be 1 or 2", Proj(3, Var("p"))),
    (None, Proj(3, Var("y")), "projection index must be 1 or 2", Proj(3, Var("y"))),
    (None, Proj(0, UNITVAL), "projection index must be 1 or 2", Proj(0, UNITVAL)),
    (None, Proj(2, UNITVAL), "projecting from a non-product of type 1", UNITVAL),
    # an ill-formed endpoint before the relation and the body, the low one first
    (None, Upcast(EVEN, DYN, UNITVAL), "ill-formed cast endpoint Even",
     Upcast(EVEN, DYN, UNITVAL)),
    (None, Upcast(NAT, EVEN, UNITVAL), "ill-formed cast endpoint Even",
     Upcast(NAT, EVEN, UNITVAL)),
    (None, Downcast(ODD, EVEN, Var("y")), "ill-formed cast endpoint Odd",
     Downcast(ODD, EVEN, Var("y"))),
    # the relation before the body
    (None, Upcast(DYN, NAT, Var("y")),
     "cast endpoints not in the dynamism relation: ? <= Nat fails",
     Upcast(DYN, NAT, Var("y"))),
    (None, Downcast(DYN, NAT, Var("y")),
     "cast endpoints not in the dynamism relation: ? <= Nat fails",
     Downcast(DYN, NAT, Var("y"))),
    (None, Upcast(NAT, DYN, UNITVAL), "cast body has type 1, expected Nat", UNITVAL),
    (None, Downcast(NAT, DYN, UNITVAL), "cast body has type 1, expected ?", UNITVAL),
    (None, Downcast(NAT, DYN, Var("y")), "unbound variable y", Var("y")),
    (None, Err(EVEN), "ill-formed error annotation Even", Err(EVEN)),
    (None, Upcast(NAT, DYN, Err(EVEN)), "ill-formed error annotation Even", Err(EVEN)),
]


@pytest.mark.parametrize("ctx, t, message, subterm", TYPE_ERRORS)
def test_type_errors_are_pinned(ctx, t, message, subterm):
    with pytest.raises(TypeCheckError) as info:
        infer_type(ADD, ERR_CTX if ctx is None else ctx, t)
    assert str(info.value) == message
    assert info.value.subterm == subterm


def test_ill_formed_context_entry_is_rejected():
    ctx = Context.of(("y", NAT), ("x", EVEN))
    with pytest.raises(TypeCheckError, match="^ill-formed context entry x : Even$"):
        infer_type(SIG, ctx, Var("y"))
    assert infer_type(TWO_BASES, ctx, Var("x")) == EVEN


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


def test_base_codes_may_overlap_only_between_related_base_types():
    even, nat = Base("Even"), NAT
    # Even <= Nat: the tags are related, so their ranges may share codes
    Signature(base_types=("Nat", "Even"), tydyn_axioms=((even, nat),),
              base_codes={"Nat": (0, 10), "Even": (5, 15)})
    # disjoint ranges load whether or not the tags are related
    Signature(base_types=("Nat", "Even"),
              base_codes={"Nat": (0, 10), "Even": (10, 15)})
    with pytest.raises(SignatureError, match="unrelated base types overlap"):
        Signature(base_types=("Nat", "Even"),
                  base_codes={"Nat": (0, 10), "Even": (9, 15)})
    with pytest.raises(SignatureError, match="unknown base type: Odd"):
        Signature(base_types=("Nat",), base_codes={"Odd": (0, 10)})


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


@pytest.mark.parametrize("axioms, related", [
    # a chain listed from its top, so each axiom extends the ones after it
    ("D <= E, C <= D, B <= C, A <= B", 23),
    # a cycle A <= B <= C <= A with a way out to D and a way in from E
    ("A <= B, B <= C, C <= A, C <= D, E <= A", 26),
], ids=["chain", "cycle"])
def test_the_base_closure_agrees_with_derivation_search(axioms, related):
    pairs = [line.split(" <= ") for line in axioms.split(", ")]
    sig = Signature(base_types=("A", "B", "C", "D", "E", "F"),
                    tydyn_axioms=tuple((Base(a), Base(b)) for a, b in pairs))
    types = [Base(n) for n in "ABCDEF"] + [DYN]
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
    undeclared = (Context.of(("x", EVEN)), Var("x"), Context.of(("x", EVEN)), Var("x"))
    with pytest.raises(SignatureError, match="ill-formed context entry x : Even"):
        Signature(tmdyn_axioms=(undeclared,))


# -- the environment walk against the renaming reference ---------------------

def _outcome(infer, sig, ctx, t):
    try:
        return "type", infer(sig, ctx, t)
    except TypeCheckError as e:
        return "error", str(e)


def _agree(sig, ctx, t):
    got = _outcome(infer_type, sig, ctx, t)
    assert got == _outcome(infer_type_reference, sig, ctx, t), t
    return got[0]


def _rebind(t, rng, pool):
    """``t`` with every binder renamed from ``pool``, as if written with
    that name; a renamed binder may shadow an outer one or capture a
    variable of its body."""
    match t:
        case Lam(_, annot, body):
            y = rng.choice(pool)
            return Lam(y, annot, _rebind(instantiate(body, Var(y)), rng, pool))
        case App(f, a):
            return App(_rebind(f, rng, pool), _rebind(a, rng, pool))
        case Pair(a, b):
            return Pair(_rebind(a, rng, pool), _rebind(b, rng, pool))
        case Proj(i, b):
            return Proj(i, _rebind(b, rng, pool))
        case Upcast(lo, hi, b):
            return Upcast(lo, hi, _rebind(b, rng, pool))
        case Downcast(lo, hi, b):
            return Downcast(lo, hi, _rebind(b, rng, pool))
        case FnApp(f, args):
            return FnApp(f, tuple(_rebind(a, rng, pool) for a in args))
    return t


def _mutations(t):
    """Ill-typed variants: swapped cast endpoints, an unbound variable, an
    undeclared base type in an annotation or an error, the unit value in
    place of a subterm, and a dropped function argument."""
    match t:
        case Upcast(lo, hi, b):
            yield Upcast(hi, lo, b)
        case Downcast(lo, hi, b):
            yield Downcast(hi, lo, b)
        case Var(_) | Bound(_):
            yield Var("unbound")
        case Lam(x, _, b):
            yield Lam.nameless(x, EVEN, b)
        case Err(_):
            yield Err(Fn(NAT, EVEN))
        case App(f, _):
            yield f
    yield num(0) if t == UNITVAL else UNITVAL


def _mutants(t, rng, count):
    """``count`` terms, each ``t`` with one subterm mutated."""
    def at(t, k):
        # the preorder-k-th subterm of t replaced by a mutation of it
        if k == 0:
            return rng.choice(list(_mutations(t)))
        k -= 1
        match t:
            case Lam(x, annot, b):
                return Lam.nameless(x, annot, at(b, k))
            case App(a, b) | Pair(a, b):
                n = term_size(a)
                if k < n:
                    return type(t)(at(a, k), b)
                return type(t)(a, at(b, k - n))
            case Proj(i, b):
                return Proj(i, at(b, k))
            case Upcast(lo, hi, b) | Downcast(lo, hi, b):
                return type(t)(lo, hi, at(b, k))
            case FnApp(f, args):
                out = list(args)
                for i, a in enumerate(args):
                    n = term_size(a)
                    if k < n:
                        out[i] = at(a, k)
                        return FnApp(f, tuple(out))
                    k -= n
        raise AssertionError(k)
    return [at(t, rng.randrange(term_size(t))) for _ in range(count)]


def test_infer_type_agrees_with_the_reference_on_shadowing_terms():
    # binder names come from a pool that includes context names, so binders
    # shadow the context and each other, and some capture a variable
    rng = random.Random(31)
    pool = ("x", "y", "a", "g")
    outcomes, shadowing = {"type": 0, "error": 0}, 0
    for i in range(1500):
        ctx, t, _ = gen_welltyped(rng, SIG, size=1 + i % 25)
        u = _rebind(t, rng, pool)
        shadowing += any(isinstance(s, Lam) and s.var in ("a", "g")
                         for s in subterms(u))
        for v in (u, *_mutants(u, rng, 2)):
            outcomes[_agree(SIG, ctx, v)] += 1
    assert shadowing > 100
    assert min(outcomes.values()) > 500, outcomes


@pytest.mark.parametrize("sig", [SIG, TWO_BASES], ids=["default", "two_bases"])
@pytest.mark.parametrize("path", sorted(
    p for p in FIXTURES.glob("*.gtt") if p.name != "bad_syntax.gtt"),
    ids=lambda p: p.name)
def test_infer_type_agrees_with_the_reference_on_fixtures(sig, path):
    rng = random.Random(path.name)
    ctx, t = parse_term_file(path.read_text(), sig)
    for u in (t, elaborate(sig, ctx, t)):
        assert _agree(sig, ctx, u) == "type"
        for v in _mutants(u, rng, 10):
            _agree(sig, ctx, v)


def test_infer_type_agrees_with_the_reference_on_the_corpus():
    rng = random.Random(5)
    roots = [d.conclusion for _, _, ds in theorem_instances(SIG, 3)
             if not isinstance(ds, str) for d in ds]
    assert len(roots) == 3847
    for j in roots:
        sides = ((j.phi.left_ctx(), j.left, j.type_left),
                 (j.phi.right_ctx(), j.right, j.type_right))
        for ctx, t, ty in sides:
            assert infer_type(SIG, ctx, t) == ty
            assert infer_type_reference(SIG, ctx, t) == ty
            for v in _mutants(t, rng, 1):
                _agree(SIG, ctx, v)


def test_error_lines_name_the_source_binder_not_the_renamed_one():
    # the reference renames the outer x to x' and so the inner x' to x'';
    # the walk renames nothing and names the binder as written
    ctx = Context.of(("x", NAT))
    t = Lam("x", NAT, Lam("x'", EVEN, Var("x")))
    with pytest.raises(TypeCheckError, match="^ill-formed annotation on x'$"):
        infer_type(SIG, ctx, t)
    with pytest.raises(TypeCheckError, match="^ill-formed annotation on x''$"):
        infer_type_reference(SIG, ctx, t)


def _fn_tower_round_trip(height):
    ty = NAT
    for _ in range(height):
        ty = Fn(ty, ty)
    ctx = Context.of(("f", ty))
    return ctx, elaborate(SIG, ctx, Downcast(ty, DYN, Upcast(ty, DYN, Var("f"))))


def test_typing_neither_substitutes_nor_computes_free_variables(monkeypatch):
    trips = [_fn_tower_round_trip(h) for h in (5, 6, 7, 8)]
    assert [term_size(t) for _, t in trips] == [313, 633, 1273, 2553]
    want = [infer_type_reference(SIG, ctx, t) for ctx, t in trips]
    syntax = sys.modules["gtt.syntax"]

    def forbidden(*args):
        raise AssertionError("typing called the substitution machinery")
    monkeypatch.setattr(syntax, "_walk", forbidden)
    monkeypatch.setattr(syntax, "free_vars", forbidden)
    assert [infer_type(SIG, ctx, t) for ctx, t in trips] == want
