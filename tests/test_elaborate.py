import dataclasses
import hashlib
import itertools
import pathlib
import pickle
import random
import sys
from dataclasses import FrozenInstanceError

import pytest

from gtt.grammar import (
    parse_signature, parse_term, parse_term_file, parse_type, term_to_text,
)
from gtt.syntax import (
    App, Base, Bound, Context, DYN, Downcast, Err, Fn, FnApp, Lam, NAT, Pair, Prod,
    Proj, Term, UNIT, UNITVAL, UnitVal, Upcast, Var, num, shift, substitute,
    subterms, term_size,
)
from gtt.typecheck import (
    Signature, TypeCheckError, default_signature, floor_type, infer_type,
    is_ground,
)
from gtt.elaborate import (
    NormalizeBudgetExceeded, elaborate, equal_terms, is_elaborated, normalize,
    oblique_cast,
)
from gtt.theorems import (
    REDUCTION_THEOREMS, conclusion_equation, theorem_instances,
)

from oracles import normalize_reference
from termgen import gen_welltyped, normalize_inputs

SIG = default_signature()
NO_RETRACT = default_signature(retract=False)
NO_DISJ = default_signature(disjointness=False)
FN_CTX = Context.of(("f", Fn(NAT, NAT)), ("x", NAT))
SETTINGS = pytest.mark.parametrize(
    "sig", [SIG, NO_RETRACT, NO_DISJ], ids=["default", "retract-off", "disjointness-off"])
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _norm(sig, text, ctx=Context()):
    t = parse_term(text, sig)
    return normalize(sig, elaborate(sig, ctx, t), ctx)


# -- ground types --------------------------------------------------------------

def test_ground_predicates():
    assert is_ground(NAT)
    assert is_ground(parse_type("? -> ?"))
    assert is_ground(parse_type("? * ?"))
    assert is_ground(UNIT)
    assert not is_ground(parse_type("Nat -> ?"))
    assert not is_ground(DYN)
    assert floor_type(parse_type("Nat -> Nat")) == parse_type("? -> ?")
    assert floor_type(parse_type("(Nat * 1) * Nat")) == parse_type("? * ?")


# -- elaboration ----------------------------------------------------------------

def test_identity_cast_dropped():
    t = Upcast(NAT, NAT, Var("x"))
    assert elaborate(SIG, FN_CTX, t) == Var("x")


def test_function_cast_wraps():
    t = parse_term("up[Nat -> Nat => ? -> ?] f", SIG)
    out = elaborate(SIG, FN_CTX, t)
    want = parse_term("\\y:?. up[Nat => ?] (f dn[? => Nat] y)", SIG)
    assert out == want


def test_cast_to_dyn_factors_through_tag():
    t = parse_term("up[Nat -> Nat => ?] f", SIG)
    out = elaborate(SIG, FN_CTX, t)
    want = parse_term("up[? -> ? => ?] (\\y:?. up[Nat => ?] (f dn[? => Nat] y))", SIG)
    assert out == want


def test_product_cast_projects():
    ctx = Context.of(("p", Prod(NAT, NAT)))
    t = parse_term("up[Nat * Nat => ? * ?] p", SIG)
    out = elaborate(SIG, ctx, t)
    want = parse_term("(up[Nat => ?] fst p, up[Nat => ?] snd p)", SIG)
    assert out == want


def test_elaborate_rejects_ill_typed():
    with pytest.raises(TypeCheckError):
        elaborate(SIG, Context(), Var("nope"))


def test_elaborate_preserves_types_randomized():
    rng = random.Random(14)
    for _ in range(300):
        ctx, t, ty = gen_welltyped(rng, SIG, size=rng.randint(1, 25))
        out = elaborate(SIG, ctx, t)
        assert is_elaborated(out), term_to_text(out)
        assert infer_type(SIG, ctx, out) == ty
        nf = normalize(SIG, out, ctx, max_steps=20_000)
        assert infer_type(SIG, ctx, nf) == ty


# -- oblique casts ----------------------------------------------------------------

def test_oblique_identity_normalizes_away():
    t = oblique_cast(NAT, NAT, Var("x"))
    assert t == Var("x")
    t2 = oblique_cast(NAT, NAT, Upcast(NAT, NAT, Var("x")))
    assert equal_terms(SIG, t2, Var("x"), FN_CTX)


def test_oblique_round_trip_needs_retract():
    chain = Downcast(NAT, DYN, Upcast(NAT, DYN, Var("x")))
    assert equal_terms(SIG, chain, Var("x"), FN_CTX)
    assert not equal_terms(NO_RETRACT, chain, Var("x"), FN_CTX)


def test_oblique_cross_tag_errors_under_disjointness():
    t = oblique_cast(NAT, Prod(DYN, DYN), num(0))
    assert equal_terms(SIG, t, Err(Prod(DYN, DYN)))
    assert not equal_terms(NO_DISJ, t, Err(Prod(DYN, DYN)))


def test_oblique_to_dyn_is_plain_upcast():
    assert oblique_cast(NAT, DYN, Var("x")) == Upcast(NAT, DYN, Var("x"))


# -- normalization ----------------------------------------------------------------

def test_beta():
    assert _norm(SIG, "(\\x:Nat. x) 0") == num(0)


def test_proj_of_error():
    assert _norm(SIG, "fst err[Nat * Nat]") == Err(NAT)
    # the rewrite is certified by a checked derivation
    from gtt.theorems import derive_theorem
    from gtt.dynamism import check_derivation
    ds = derive_theorem(SIG, "err_elim", "prj1", NAT, NAT)
    assert all(check_derivation(SIG, d) for d in ds)


def test_cross_tag_reduction_flag_sensitivity():
    text = "dn[? => ? * ?] up[Nat => ?] 0"
    on = _norm(SIG, text)
    assert on == Pair(Err(DYN), Err(DYN))  # eta-long error at ? * ?
    off = _norm(NO_DISJ, text)
    assert off == Pair(Proj(1, Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, num(0)))),
                       Proj(2, Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, num(0)))))


def test_eta_long_at_function_type():
    ctx = Context.of(("f", Fn(NAT, NAT)))
    assert _norm(SIG, "f", ctx) == Lam("x", NAT, App(Var("f"), Var("x")))


def test_eta_long_at_unit():
    assert _norm(SIG, "err[1]") == UNITVAL
    assert _norm(SIG, "()", Context.of(("u", UNIT))) == UNITVAL
    assert _norm(SIG, "u", Context.of(("u", UNIT))) == UNITVAL


def test_error_pushed_through_types():
    assert _norm(SIG, "err[Nat -> Nat]") == Lam("x", NAT, Err(NAT))
    assert _norm(SIG, "err[Nat * ?]") == Pair(Err(NAT), Err(DYN))


def test_neutral_chains_are_normal():
    ctx = Context.of(("b", DYN))
    out = _norm(SIG, "dn[? => Nat] b", ctx)
    assert out == Downcast(NAT, DYN, Var("b"))
    # up then dn at different layers stays put without rules to fire
    out2 = _norm(SIG, "up[Nat => ?] dn[? => Nat] b", ctx)
    assert out2 == Upcast(NAT, DYN, Downcast(NAT, DYN, Var("b")))


def test_normalize_idempotent():
    rng = random.Random(15)
    for _ in range(120):
        ctx, t, ty = gen_welltyped(rng, SIG, size=rng.randint(1, 18))
        nf = normalize(SIG, elaborate(SIG, ctx, t), ctx)
        assert normalize(SIG, nf, ctx) == nf


def test_watchdog_budget():
    # a chain of nested beta redexes exhausts a tiny budget
    t = parse_term("(\\x:Nat. x) ((\\x:Nat. x) ((\\x:Nat. x) 0))", SIG)
    with pytest.raises(NormalizeBudgetExceeded):
        normalize(SIG, t, max_steps=1)
    assert normalize(SIG, t, max_steps=100) == num(0)


# -- equality decision layer -------------------------------------------------------

def test_equal_terms_examples():
    assert equal_terms(SIG, Upcast(NAT, NAT, Var("x")), Var("x"), FN_CTX)
    lhs = parse_term("up[Nat -> Nat => ?] f", SIG)
    rhs = parse_term("up[Nat -> ? => ?] up[Nat -> Nat => Nat -> ?] f", SIG)
    assert equal_terms(SIG, lhs, rhs, FN_CTX)
    assert not equal_terms(SIG, num(0), Err(NAT))


def test_equal_terms_type_mismatch():
    with pytest.raises(TypeCheckError):
        equal_terms(SIG, num(0), UNITVAL)


def test_reduction_theorems_cohere_small():
    count = 0
    for name, params, ds in theorem_instances(SIG, 2, names=REDUCTION_THEOREMS):
        ctx, lhs, rhs = conclusion_equation(ds[0])
        assert equal_terms(SIG, lhs, rhs, ctx), (name, params)
        count += 1
    assert count >= 30


def test_direction_sensitivity_without_retract():
    ctx = Context.of(("v", NAT))
    chain = Downcast(NAT, DYN, Upcast(NAT, DYN, Var("v")))
    assert not equal_terms(NO_RETRACT, chain, Var("v"), ctx)
    # the inflationary direction is still derivable
    from gtt.theorems import derive_theorem
    from gtt.dynamism import check_derivation
    (d,) = derive_theorem(NO_RETRACT, "galois_unit", NAT, DYN)
    assert check_derivation(NO_RETRACT, d)


# -- normalization by evaluation against the substitution-based reference ------

@pytest.fixture(scope="module")
def termgen_sources():
    rng = random.Random(7)
    return [gen_welltyped(rng, SIG, size=1 + i % 30)[:2] for i in range(3000)]


@pytest.fixture(scope="module")
def termgen_battery(termgen_sources):
    return [(ctx, elaborate(SIG, ctx, t)) for ctx, t in termgen_sources]


@SETTINGS
def test_normal_forms_print_as_the_reference_on_termgen(termgen_battery, sig):
    for ctx, t in termgen_battery:
        want = term_to_text(normalize_reference(sig, t, ctx))
        assert term_to_text(normalize(sig, t, ctx)) == want, term_to_text(t)


@SETTINGS
@pytest.mark.parametrize("path", sorted(
    p for p in FIXTURES.glob("*.gtt") if p.name != "bad_syntax.gtt"),
    ids=lambda p: p.name)
def test_normal_forms_print_as_the_reference_on_fixtures(sig, path):
    ctx, t = parse_term_file(path.read_text(), sig)
    t = elaborate(sig, ctx, t)
    assert term_to_text(normalize(sig, t, ctx)) == term_to_text(
        normalize_reference(sig, t, ctx))


# -- casts evaluated as values, against elaboration -----------------------------

FLAGS = [(r, d) for r in (True, False) for d in (True, False)]
FLAG_IDS = [f"retract-{'on' if r else 'off'}-disjointness-{'on' if d else 'off'}"
            for r, d in FLAGS]
TWO_BASES = parse_signature((FIXTURES / "two_bases.gttsig").read_text())
EVEN = Base("Even")
TWO_BASES_CTX = Context.of(("x", EVEN), ("n", NAT), ("f", Fn(EVEN, EVEN)),
                           ("g", Fn(NAT, NAT)), ("p", Prod(EVEN, NAT)))
# casts between the axiom-related bases, alone and under the type formers
TWO_BASES_TERMS = [
    "up[Even => Nat] x", "dn[? => Nat] up[Even => ?] x", "n",
    "up[Even => Nat] dn[Nat => Even] n", "dn[? => Nat] up[? => ?] up[Nat => ?] n",
    "dn[Nat => Even] n", "dn[Nat => Even] up[Even => Nat] x", "x",
    "dn[? => Even] up[Nat => ?] n",
    "up[Even -> Even => Nat -> Nat] f", "dn[Nat -> Nat => Even -> Nat] g",
    "dn[? -> ? => Nat -> Nat] up[Even -> Even => ? -> ?] f", "g",
    "up[Even * Nat => Nat * ?] p", "dn[? => Nat * ?] up[Even * Nat => ?] p",
    "dn[? => Even * Nat] up[Even * Nat => ?] p", "p",
]


def _normal_form_agrees(sig, ctx, t, reference=True):
    """The normal form of the source ``t``, which must equal its
    elaboration's, and the reference normalizer's on the elaboration."""
    elab = elaborate(sig, ctx, t)
    nf = normalize(sig, elab, ctx)
    assert normalize(sig, t, ctx) == nf, term_to_text(t)
    if reference:
        assert normalize_reference(sig, elab, ctx) == nf, term_to_text(t)
    return nf


@pytest.mark.parametrize("retract, disjointness", FLAGS, ids=FLAG_IDS)
def test_casts_evaluate_as_their_elaborations(termgen_sources, retract, disjointness):
    # equal_terms and the normalizer run casts on values; elaboration writes
    # them out as terms first: both must give one normal form
    verdicts = []

    def agree(sig, ctx, t, u, nt, nu):
        verdicts.append(equal_terms(sig, t, u, ctx))
        assert verdicts[-1] is (nt == nu), (term_to_text(t), term_to_text(u))

    sig = default_signature(retract, disjointness)
    last = {}  # the previous source of each type
    for ctx, t in termgen_sources:
        nf = _normal_form_agrees(sig, ctx, t)
        u, nu = last.get(infer_type(sig, ctx, t), (t, nf))
        agree(sig, ctx, t, u, nf, nu)
        last[infer_type(sig, ctx, t)] = t, nf
    # the benchmark's pairs; the reference, slower, sees every fourth
    inputs = normalize_inputs(1)
    for k, job in enumerate(inputs.jobs):
        (ctx, t), (ctx2, u) = (parse_term_file(inputs.files[job[side]], sig)
                               for side in ("left", "right"))
        assert ctx == ctx2
        reference = k % 4 == FLAGS.index((retract, disjointness))
        nt, nu = (_normal_form_agrees(sig, ctx, s, reference) for s in (t, u))
        agree(sig, ctx, t, u, nt, nu)
    two = TWO_BASES.replace(retract=retract, disjointness=disjointness)
    sources = [parse_term(text, two) for text in TWO_BASES_TERMS]
    forms = [_normal_form_agrees(two, TWO_BASES_CTX, t) for t in sources]
    for (t, nt), (u, nu) in itertools.product(zip(sources, forms), repeat=2):
        if infer_type(two, TWO_BASES_CTX, t) is infer_type(two, TWO_BASES_CTX, u):
            agree(two, TWO_BASES_CTX, t, u, nt, nu)
    assert True in verdicts and False in verdicts


def test_a_function_cast_evaluates_its_subject_where_its_wrapper_would():
    # the wrapper is a lambda: a discarded cast of a diverging subject is
    # never run, so both sides normalize to 0
    omega = "(\\x:?. (dn[? => ? -> ?] x) x)"
    t = parse_term(f"(\\f:Nat -> Nat. 0) (dn[? => Nat -> Nat] ({omega} up[? -> ? => ?] {omega}))",
                   SIG)
    assert equal_terms(SIG, t, num(0))
    pair = parse_term(f"(\\q:(Nat -> Nat) * (1 -> Nat). 0) "
                      f"(dn[? * ? => (Nat -> Nat) * (1 -> Nat)] ({omega} up[? -> ? => ?] {omega}, err[?]))",
                      SIG)
    assert equal_terms(SIG, pair, num(0))


def test_binder_names_come_from_the_source_not_from_renaming_history():
    # substituting x for x' renames no binder; readback and the reference
    # each start again from the binder's own name, and prime it past x
    ctx = Context.of(("x", NAT))
    t = parse_term("(\\x':Nat. \\x:Nat. x') x", SIG)
    nf, ref = normalize(SIG, t, ctx), normalize_reference(SIG, t, ctx)
    assert term_to_text(nf) == "\\x':Nat. x"
    assert term_to_text(ref) == "\\x':Nat. x"
    assert nf == ref


def test_one_closure_read_back_under_two_scopes():
    # g's value is shared; each readback names its binder in its own scope
    ctx = Context.of(("z", NAT))
    t = parse_term("(\\g:Nat -> Nat. (g, \\z':Nat. g)) (\\z:Nat. z)", SIG)
    nf = normalize(SIG, t, ctx)
    assert term_to_text(nf) == "(\\z':Nat. z', \\z':Nat. \\z'':Nat. z'')"
    assert nf == normalize_reference(SIG, t, ctx)


def test_each_lambda_body_is_evaluated_once(monkeypatch):
    # up[? -> ? => ?] (\x. up[? -> ? => ?] (\x'. ...)): the error test of
    # each upcast and the readback share one evaluation of the body below
    evaluator = sys.modules["gtt.elaborate"]
    calls = []
    real = evaluator._eval
    monkeypatch.setattr(evaluator, "_eval",
                        lambda *args: calls.append(None) or real(*args))

    def evaluations(depth):
        t = Var("b")
        for i in range(depth):
            t = Upcast(Fn(DYN, DYN), DYN, Lam(f"x{i}", DYN, t))
        calls.clear()
        normalize(SIG, t, Context.of(("b", DYN)))
        return len(calls)

    # one for each cast and each lambda body, one for b; not quadratic
    assert [evaluations(d) for d in (20, 40)] == [41, 81]


def test_each_entry_point_types_each_term_once(monkeypatch):
    evaluator = sys.modules["gtt.elaborate"]
    calls = []
    monkeypatch.setattr(evaluator, "infer_type",
                        lambda *args: calls.append(None) or infer_type(*args))

    def count(f, *args):
        calls.clear()
        f(*args)
        return len(calls)

    t = parse_term("dn[? => Nat -> Nat] up[Nat -> Nat => ?] f", SIG)
    u = elaborate(SIG, FN_CTX, t)
    assert count(equal_terms, SIG, t, Var("f"), FN_CTX) == 2
    assert count(elaborate, SIG, FN_CTX, t) == 1
    assert count(normalize, SIG, u, FN_CTX) == 1


def test_normalize_takes_the_type_only_of_what_elaborate_just_returned(monkeypatch):
    evaluator = sys.modules["gtt.elaborate"]
    typed = []
    monkeypatch.setattr(evaluator, "infer_type",
                        lambda *args: typed.append(args[1]) or infer_type(*args))
    sig = default_signature()
    t = parse_term("dn[? => Nat -> Nat] up[Nat -> Nat => ?] f", sig)
    out = elaborate(sig, FN_CTX, t)
    want = normalize_reference(sig, out, FN_CTX)
    typed.clear()
    # that very object under an equal context is not typed again
    assert normalize(sig, out, Context(FN_CTX.entries)) == want
    assert typed == []
    # an equal copy, a wider context, another signature: each is typed
    assert normalize(sig, pickle.loads(pickle.dumps(out)), FN_CTX) == want
    wider = FN_CTX.extend("u", UNIT)
    assert normalize(sig, out, wider) == want
    retract_off = sig.replace(retract=False)
    assert normalize(retract_off, out, FN_CTX) == normalize_reference(retract_off, out, FN_CTX)
    assert typed == [FN_CTX, wider, FN_CTX]
    # under a context where the output is ill typed, typing still rejects it
    with pytest.raises(TypeCheckError, match="^argument type Nat does not match domain 1$"):
        normalize(sig, out, Context.of(("f", Fn(UNIT, NAT))))
    # an ill-typed term that elaborate never returned
    bad = Upcast(NAT, DYN, Pair(Var("x"), Var("x")))
    with pytest.raises(TypeCheckError, match=r"^cast body has type Nat \* Nat, expected Nat$"):
        normalize(sig, bad, FN_CTX)
    # the slot holds the last output only
    for i in range(1000):
        out = elaborate(sig, FN_CTX, Upcast(NAT, DYN, num(i)))
        assert normalize(sig, out, FN_CTX) == out
    assert sig._elaborated == (out, FN_CTX, DYN) and sig._elaborated[0] is out
    assert vars(sig).keys() == vars(default_signature()).keys()


def test_elaboration_scans_free_variables_linearly(monkeypatch):
    # the fn-tower round trips nest one function wrapper per tower level;
    # each wrapper adds its binder to the free variables it was given
    # instead of scanning its body again, refers to its binder by index
    # instead of closing its body by a walk, and names binders as before
    from perfbench.bench_gen import tower
    syntax = sys.modules["gtt.syntax"]
    calls, walks = [], []
    real, real_walk = syntax.free_vars, syntax._walk

    def counting(t):
        calls.append(None)
        return real(t)

    def counting_walk(*args):
        walks.append(None)
        return real_walk(*args)
    monkeypatch.setattr(syntax, "free_vars", counting)
    monkeypatch.setattr(syntax, "_walk", counting_walk)

    def elaborated(height):
        ty = tower("b", height)
        ctx = Context.of(("f", ty))
        calls.clear()
        walks.clear()
        out = elaborate(SIG, ctx, Downcast(ty, DYN, Upcast(ty, DYN, Var("f"))))
        return term_size(out), len(calls), out, len(walks)

    runs = [elaborated(h) for h in (5, 6, 7, 8)]
    assert [size for size, _, _, _ in runs] == [313, 633, 1273, 2553]
    # each call visits one node of the elaborated term at most once
    assert all(count <= size for size, count, _, _ in runs)
    assert all(walk <= size for size, _, _, walk in runs)
    assert term_to_text(elaborated(2)[2]) == (
        "\\x:Nat -> Nat. \\x':Nat. dn[? => Nat] (dn[? => ? -> ?] "
        "(dn[? => ? -> ?] up[? -> ? => ?] (\\x:?. up[? -> ? => ?] "
        "(\\x':?. up[Nat => ?] (f (\\x':Nat. dn[? => Nat] (dn[? => ? -> ?] "
        "x up[Nat => ?] x')) dn[? => Nat] x'))) up[? -> ? => ?] "
        "(\\x':?. up[Nat => ?] (x dn[? => Nat] x'))) up[Nat => ?] x')")


EDGE_TERM = "(\\x:Nat -> Nat. dn[? => Nat -> Nat] up[Nat -> Nat => ?] x) (\\y:Nat. y)"


def test_printed_elaborations_and_normal_forms_are_pinned():
    # the text `gtt elaborate` and `gtt normalize` print for every term file
    # of the benchmark's normalize inputs, each under its job's retract flag
    inputs = normalize_inputs(1)
    sigs = {"on": SIG, "off": NO_RETRACT}
    digest = {"elaborate": hashlib.sha256(), "normalize": hashlib.sha256()}
    for job in inputs.jobs:
        sig = sigs[job["retract"]]
        for name in (job["left"], job["right"]):
            ctx, t = parse_term_file(inputs.files[name], sig)
            elab = elaborate(sig, ctx, t)
            digest["elaborate"].update(f"{name}\n{term_to_text(elab)}\n".encode())
            nf = normalize(sig, elab, ctx)
            digest["normalize"].update(f"{name}\n{term_to_text(nf)}\n".encode())
    assert {k: h.hexdigest() for k, h in digest.items()} == {
        "elaborate": "f44c66e20d7f80409f4f42dadb5f315ac7b3d7eabe67a8037e36b3264e091b02",
        "normalize": "4ec6051bd6f324f7327fbb7bb6c85778b5c75422cf7e1d3590f01e47ecb2c61d",
    }
    # a function wrapper under a user binder named x primes its own binder
    # past x, in the elaborated term and in the normal form
    t = parse_term(EDGE_TERM, SIG)
    elab = elaborate(SIG, Context(), t)
    assert term_to_text(elab) == (
        "(\\x:Nat -> Nat. \\x':Nat. dn[? => Nat] (dn[? => ? -> ?] "
        "up[? -> ? => ?] (\\x':?. up[Nat => ?] (x dn[? => Nat] x')) "
        "up[Nat => ?] x')) (\\y:Nat. y)")
    assert term_to_text(normalize(SIG, elab)) == "\\x':Nat. x'"


# -- every term walk handles every term class ---------------------------------

def _concrete(cls):
    """The leaf subclasses of ``cls`` that their modules name: a slotted
    dataclass is a copy of the class its decorator was given, which stays
    listed among the subclasses."""
    subs = [c for c in cls.__subclasses__()
            if getattr(sys.modules[c.__module__], c.__qualname__, None) is c]
    return set().union(*map(_concrete, subs)) if subs else {cls}


X, SEVEN = Var("x"), num(7)
ID_X, ID_SEVEN = Upcast(NAT, NAT, X), Upcast(NAT, NAT, SEVEN)
ADD_SIG = Signature(fn_symbols={"add": ((NAT, NAT), NAT)})
DISPATCH_CTX = Context.of(("x", NAT), ("f", Fn(NAT, NAT)))
_add = lambda *args: FnApp("add", args)

# each term class: an instance under ``DISPATCH_CTX`` whose every child holds
# ``x`` inside an identity cast, then its type, the instance with ``x := 7``,
# its elaboration (the identity casts dropped) and its normal form; ``Bound``
# is the binder's variable inside a lambda
DISPATCH = {
    Var: (X, NAT, SEVEN, X, X),
    Bound: (Lam("y", NAT, Pair(Var("y"), ID_X)), Fn(NAT, Prod(NAT, NAT)),
            Lam("y", NAT, Pair(Var("y"), ID_SEVEN)), Lam("y", NAT, Pair(Var("y"), X)),
            Lam("y", NAT, Pair(Var("y"), X))),
    FnApp: (_add(ID_X, ID_X), NAT, _add(ID_SEVEN, ID_SEVEN), _add(X, X), _add(X, X)),
    Lam: (Lam("y", NAT, ID_X), Fn(NAT, NAT), Lam("y", NAT, ID_SEVEN), Lam("y", NAT, X),
          Lam("y", NAT, X)),
    App: (App(Var("f"), ID_X), NAT, App(Var("f"), ID_SEVEN), App(Var("f"), X),
          App(Var("f"), X)),
    Pair: (Pair(ID_X, UNITVAL), Prod(NAT, UNIT), Pair(ID_SEVEN, UNITVAL), Pair(X, UNITVAL),
           Pair(X, UNITVAL)),
    Proj: (Proj(2, Pair(UNITVAL, ID_X)), NAT, Proj(2, Pair(UNITVAL, ID_SEVEN)),
           Proj(2, Pair(UNITVAL, X)), X),
    UnitVal: (UNITVAL, UNIT, UNITVAL, UNITVAL, UNITVAL),
    Upcast: (Upcast(NAT, DYN, ID_X), DYN, Upcast(NAT, DYN, ID_SEVEN), Upcast(NAT, DYN, X),
             Upcast(NAT, DYN, X)),
    Downcast: (Downcast(NAT, DYN, Upcast(NAT, DYN, ID_X)), NAT,
               Downcast(NAT, DYN, Upcast(NAT, DYN, ID_SEVEN)),
               Downcast(NAT, DYN, Upcast(NAT, DYN, X)), X),
    Err: (Err(NAT), NAT, Err(NAT), Err(NAT), Err(NAT)),
}


def test_every_term_class_has_a_dispatch_row():
    # a term class added later fails here until each walk handles it
    assert set(DISPATCH) == _concrete(Term)


@pytest.mark.parametrize("cls", DISPATCH, ids=lambda c: c.__name__)
def test_every_walk_handles_the_term_class(cls):
    t, ty, substituted, elaborated, normal = DISPATCH[cls]
    assert substitute(t, {"x": SEVEN, "f": Var("f")}) == substituted
    assert infer_type(ADD_SIG, DISPATCH_CTX, t) is ty
    elab = elaborate(ADD_SIG, DISPATCH_CTX, t)
    assert elab == elaborated
    assert normalize(ADD_SIG, elab, DISPATCH_CTX) == normal
    if cls is Bound:  # substitution keeps an index; ``shift`` moves a loose one
        assert shift(Bound(0), 1) == Bound(1)


@pytest.mark.parametrize("cls", DISPATCH, ids=lambda c: c.__name__)
def test_every_term_class_is_a_frozen_dataclass(cls):
    # each class stores its fields through its own ``__init__``; the rest
    # is the frozen dataclass's
    t = next(s for s in subterms(DISPATCH[cls][0]) if type(s) is cls)
    names = tuple(f.name for f in dataclasses.fields(cls))
    values = tuple(getattr(t, name) for name in names)
    assert cls.__match_args__ == names
    for name in (*names, "extra"):  # a name that is no field is refused too
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(t, name, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(t, name)
    assert tuple(getattr(t, name) for name in names) == values
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and copy is not t
    assert repr(t) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    if cls is not Lam:  # ``Lam`` closes a named body; ``Lam.nameless`` stores
        assert cls(*values) == t == cls(**dict(zip(names, values))) == dataclasses.replace(t)
    assert Lam.nameless("z", NAT, t) == Lam.nameless("y", NAT, t) != Lam.nameless("y", UNIT, t)
    match t:
        case Var(a) | Bound(a) | Err(a):
            matched = (a,)
        case App(a, b) | Pair(a, b) | Proj(a, b) | FnApp(a, b):
            matched = (a, b)
        case Lam(a, b, c) | Upcast(a, b, c) | Downcast(a, b, c):
            matched = (a, b, c)
        case UnitVal():
            matched = ()
    assert matched == values
