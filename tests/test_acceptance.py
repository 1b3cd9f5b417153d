"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import random
import time

import pytest

from gtt.grammar import parse_term
from gtt.syntax import (
    Context, DYN, Downcast, Err, NAT, Pair, Prod, Proj, Upcast, Var, num,
)
from gtt.typecheck import DynCtx, default_signature, enumerate_types, infer_type
from gtt.derivio import derivations_to_text, parse_derivations
from gtt.dynamism import DynJudgment, check_derivation
from gtt.elaborate import elaborate, equal_terms, is_elaborated, normalize
from gtt.model import (
    check_equipment, check_judgment_semantics, compile_term,
    derivation_first_order, first_order, least_value, model_signature,
    order_at, tydyn_holds,
)
from gtt.theorems import (
    REDUCTION_THEOREMS, conclusion_equation, derive_theorem, theorem_instances,
)

from oracles import dyn_leq_oracle, enumerate_dyn_reference
from termgen import gen_welltyped

SIG = default_signature()


@pytest.fixture(scope="module")
def corpus():
    return [(name, params, ds) for name, params, ds in theorem_instances(SIG, 3)]


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_theorem_corpus():
    start = time.perf_counter()
    accepted = total = 0
    first_failure = None
    for name, params, ds in theorem_instances(SIG, 3):
        assert not isinstance(ds, str)
        total += 1
        if all(check_derivation(SIG, d) for d in ds):
            accepted += 1
        elif first_failure is None:
            first_failure = (name, params)
    elapsed = time.perf_counter() - start
    ok = total >= 200 and accepted == total and elapsed < 30.0
    _report(1, ok, f"{accepted}/{total} derivations accepted in {elapsed:.1f}s "
                   f"(first failure: {first_failure})")


def test_criterion_2_reduction_coherence(corpus):
    start = time.perf_counter()
    good = total = 0
    first_failure = None
    for name, params, ds in corpus:
        if name not in REDUCTION_THEOREMS or isinstance(ds, str):
            continue
        total += 1
        ctx, lhs, rhs = conclusion_equation(ds[0])
        if equal_terms(SIG, lhs, rhs, ctx):
            good += 1
        elif first_failure is None:
            first_failure = (name, params)
    elapsed = time.perf_counter() - start
    ok = total > 0 and good == total and elapsed < 30.0
    _report(2, ok, f"{good}/{total} reduction theorems agree after "
                   f"elaboration in {elapsed:.1f}s (first failure: {first_failure})")


def test_criterion_3_tree_order_oracle():
    start = time.perf_counter()
    # the 147 values of ? of depth at most 3 over the leaves 0 and 1
    values = enumerate_dyn_reference(3, leaves=(0, 1))
    pairs = agreements = 0
    for a in values:
        for b in values:
            pairs += 1
            if order_at(SIG, DYN, 3)(a, b) == dyn_leq_oracle(a, b):
                agreements += 1
    elapsed = time.perf_counter() - start
    ok = pairs > 1000 and agreements == pairs and elapsed < 10.0
    _report(3, ok, f"tree order agrees with the replacement oracle on "
                   f"{agreements}/{pairs} pairs in {elapsed:.1f}s")


def test_criterion_4_equipment_laws():
    start = time.perf_counter()
    msig = model_signature(SIG)
    grammar = [ty for ty in enumerate_types(SIG, 3)
               if first_order(ty)]  # Nat, 1, ?, and products thereof
    pairs = [(a, b) for a in grammar for b in grammar if tydyn_holds(msig, a, b)]
    failures = []
    checks = 0
    for a, b in pairs:
        report = check_equipment(SIG, a, b, bound=2)
        checks += report.checks
        if not report.passed:
            failures.append((a, b, report.counterexample))
    elapsed = time.perf_counter() - start
    ok = len(pairs) >= 30 and not failures and elapsed < 60.0
    _report(4, ok, f"equipment laws hold for {len(pairs)} derivable pairs "
                   f"({checks} pointwise checks) in {elapsed:.1f}s; "
                   f"failures: {failures[:2]}")


def test_criterion_5_semantic_soundness(corpus):
    start = time.perf_counter()
    checked = 0
    failures = []
    for name, params, ds in corpus:
        if isinstance(ds, str):
            continue
        for d in ds:
            if not derivation_first_order(d):
                continue
            report = check_judgment_semantics(SIG, d.conclusion, bound=2)
            checked += 1
            if not report.passed:
                failures.append((name, params, report.counterexample))

    # three hand-written non-theorems must each yield a counterexample
    non_theorems = []
    non_theorems.append(DynJudgment(DynCtx(), num(0), Err(NAT), NAT, NAT))
    phi = DynCtx.of(("x", "x'", NAT, NAT))
    mismatch_right = Upcast(Prod(DYN, DYN), DYN,
                            Upcast(Prod(NAT, NAT), Prod(DYN, DYN),
                                   Pair(Var("x'"), Var("x'"))))
    non_theorems.append(DynJudgment(phi, Upcast(NAT, DYN, Var("x")),
                                    mismatch_right, DYN, DYN))
    phi2 = DynCtx.of(("x", "x'", NAT, NAT), ("y", "y'", NAT, NAT))
    non_theorems.append(DynJudgment(phi2, Pair(Var("x"), Var("y")),
                                    Pair(Var("y'"), Var("x'")),
                                    Prod(NAT, NAT), Prod(NAT, NAT)))
    refuted = 0
    for j in non_theorems:
        report = check_judgment_semantics(SIG, j, bound=2)
        if not report.passed and report.counterexample:
            refuted += 1
    elapsed = time.perf_counter() - start
    ok = (checked > 200 and not failures and refuted == len(non_theorems)
          and elapsed < 60.0)
    _report(5, ok, f"{checked} first-order judgments sound at bound 2, "
                   f"{refuted}/3 non-theorems refuted, in {elapsed:.1f}s; "
                   f"failures: {failures[:2]}")


def test_criterion_6_flag_sensitivity():
    no_retract = default_signature(retract=False)
    no_disj = default_signature(disjointness=False)
    ctx = Context.of(("v", NAT))
    round_trip = Downcast(NAT, DYN, Upcast(NAT, DYN, Var("v")))

    # retract off: retract-dependent derivations rejected ...
    retract_ds = derive_theorem(SIG, "strict_dn", NAT, DYN)
    rejected = not all(check_derivation(no_retract, d) for d in retract_ds)
    # ... the round trip is not an equality ...
    inequal = not equal_terms(no_retract, round_trip, Var("v"), ctx)
    # ... while the counit still checks
    (counit,) = derive_theorem(no_retract, "galois_counit", NAT, DYN)
    counit_ok = check_derivation(no_retract, counit)

    # disjointness off: cross-tag casts stay neutral
    cross = parse_term("dn[? => ? * ?] up[Nat => ?] 0", SIG)
    neutral_nf = normalize(no_disj, elaborate(no_disj, Context(), cross))
    stays_neutral = neutral_nf == Pair(
        Proj(1, Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, num(0)))),
        Proj(2, Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, num(0)))))

    # both defaults on: the cross-tag cast is the error, and eval agrees
    err_nf = normalize(SIG, elaborate(SIG, Context(), cross))
    collapses = err_nf == normalize(SIG, Err(Prod(DYN, DYN)))
    eval_agrees = compile_term(SIG, cross)({}) == least_value(SIG, Prod(DYN, DYN))

    # with retract back on the round trip is an equality again
    equal_with_retract = equal_terms(SIG, round_trip, Var("v"), ctx)

    ok = all([rejected, inequal, counit_ok, stays_neutral, collapses,
              eval_agrees, equal_with_retract])
    _report(6, ok, "flag sensitivity: "
            f"retract-off rejects={rejected}, round-trip-unequal={inequal}, "
            f"counit-still-checks={counit_ok}, cross-tag-neutral={stays_neutral}, "
            f"default-collapses={collapses}, eval-agrees={eval_agrees}, "
            f"retract-on-equal={equal_with_retract}")


def test_criterion_7_elaboration_fuzz():
    start = time.perf_counter()
    rng = random.Random(2024)
    good = 0
    total = 1000
    first_failure = None
    from gtt.syntax import term_size
    for i in range(total):
        while True:
            ctx, t, ty = gen_welltyped(rng, SIG, size=rng.randint(1, 22))
            if term_size(t) <= 25:
                break
        try:
            out = elaborate(SIG, ctx, t)
            assert is_elaborated(out)
            assert infer_type(SIG, ctx, out) == ty
            nf = normalize(SIG, out, ctx, max_steps=50_000)
            assert infer_type(SIG, ctx, nf) == ty
            good += 1
        except AssertionError:
            if first_failure is None:
                first_failure = t
    elapsed = time.perf_counter() - start
    ok = good == total
    _report(7, ok, f"{good}/{total} random well-typed terms elaborate to "
                   f"ground casts, preserve types and normalize within the "
                   f"watchdog in {elapsed:.1f}s (first failure: {first_failure})")


def test_corpus_round_trips_through_derivation_files(corpus):
    """Every corpus instance is read back from its ``.gttd`` text unchanged."""
    mismatched = [(name, params) for name, params, ds in corpus
                  if parse_derivations(derivations_to_text(ds), SIG) != list(ds)]
    assert not mismatched, f"{len(mismatched)} instances differ, first {mismatched[0]}"


def test_corpus_text_is_pinned(corpus):
    """The ``.gttd`` text of the whole corpus in one file, pinned when the
    writer still built an s-expression tree and laid it out."""
    text = derivations_to_text([d for _, _, ds in corpus for d in ds])
    assert text.count("\n") == 809_931
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8e8d69ee120fc5319a51836ab009fdcd7b27cc9f5d3ac377024b7e322a3f1bd8")
