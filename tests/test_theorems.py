import hashlib
import itertools
import random

import pytest

import gtt.theorems

from gtt.derivio import derivations_to_text
from gtt.grammar import parse_type
from gtt.syntax import (
    Context, DYN, Downcast, Err, Fn, NAT, Prod, Upcast, Var, type_size,
)
from gtt.typecheck import (
    DynCtx, Signature, default_signature, enumerate_types, tydyn_holds,
)
from gtt.dynamism import DerivationError, check_derivation, derivation_errors
from gtt.theorems import (
    KINDS, FlagRequired, HypothesisError, REDUCTION_THEOREMS, THEOREMS,
    conclusion_equation, derive_theorem, dl_s, dr_s, theorem_instances,
    trans_node, ul_s, ur_s, var_node,
)

from oracles import _params_reference, theorem_instances_reference

SIG = default_signature()
NO_RETRACT = default_signature(retract=False)


def _accept_all(sig, ds):
    for d in ds:
        errs = derivation_errors(sig, d)
        assert not errs, errs[:4]


def test_identity_both_directions():
    _accept_all(SIG, derive_theorem(SIG, "identity_up", NAT))
    _accept_all(SIG, derive_theorem(SIG, "identity_dn", parse_type("? -> ?")))
    le, ge = derive_theorem(SIG, "identity_up", NAT)
    assert le.conclusion.left == Upcast(NAT, NAT, Var("x"))
    assert ge.conclusion.right == Upcast(NAT, NAT, Var("x'"))


def test_galois_unit_shape():
    (d,) = derive_theorem(SIG, "galois_unit", NAT, DYN)
    assert check_derivation(SIG, d)
    assert d.conclusion.right == Downcast(NAT, DYN, Upcast(NAT, DYN, Var("x'")))
    assert d.conclusion.left == Var("x")


def test_decompose_through_function_types():
    params = (parse_type("Nat -> Nat"), parse_type("Nat -> ?"), parse_type("? -> ?"))
    le, ge = derive_theorem(SIG, "decompose_up", *params)
    _accept_all(SIG, (le, ge))
    a, a1, a2 = params
    assert le.conclusion.left == Upcast(a, a2, Var("x"))
    assert le.conclusion.right == Upcast(a1, a2, Upcast(a, a1, Var("x'")))


def test_hypothesis_violation_raises():
    with pytest.raises(HypothesisError):
        derive_theorem(SIG, "decompose_up", DYN, NAT, NAT)
    with pytest.raises(HypothesisError):
        derive_theorem(SIG, "cast_r", NAT, DYN, Prod(NAT, NAT))


def test_flag_requirements():
    with pytest.raises(FlagRequired):
        derive_theorem(NO_RETRACT, "strict_dn", NAT, DYN)
    with pytest.raises(FlagRequired):
        derive_theorem(NO_RETRACT, "cast_l", NAT, DYN, DYN)
    # everything else still derives with the flag off
    _accept_all(NO_RETRACT, derive_theorem(NO_RETRACT, "galois_counit", NAT, DYN))
    _accept_all(NO_RETRACT, derive_theorem(NO_RETRACT, "equidyn_iso_3", NAT, NAT))


def test_strict_dn_uses_retract():
    ds = derive_theorem(SIG, "strict_dn", NAT, DYN)
    _accept_all(SIG, ds)

    def rules(d):
        yield d.rule
        for p in d.premises:
            yield from rules(p)

    assert any(r == "retract" for d in ds for r in rules(d))
    # and is therefore rejected wholesale when the flag is off
    assert not all(check_derivation(NO_RETRACT, d) for d in ds)


def test_err_elim_app_shape():
    le, ge = derive_theorem(SIG, "err_elim", "app", NAT, NAT)
    _accept_all(SIG, (le, ge))
    from gtt.syntax import App
    assert le.conclusion.left == App(Err(Fn(NAT, NAT)), Var("u"))
    assert le.conclusion.right == Err(NAT)


def test_equidyn_on_axiom_related_bases():
    sig = Signature(
        base_types=("A", "B"),
        tydyn_axioms=((parse_type("A"), parse_type("B")),
                      (parse_type("B"), parse_type("A"))))
    for name in ("equidyn_iso_1", "equidyn_iso_2", "equidyn_iso_3", "equidyn_iso_4"):
        ds = derive_theorem(sig, name, parse_type("A"), parse_type("B"))
        _accept_all(sig, ds)


def test_soundness_over_all_small_instances():
    count = 0
    for name, params, ds in theorem_instances(SIG, 3):
        assert not isinstance(ds, str)
        for d in ds:
            assert check_derivation(SIG, d), (name, params,
                                              derivation_errors(SIG, d)[:4])
        count += 1
    assert count >= 200


def test_fn_cast_full_parameter_sweep():
    # every dynamism pair of parameter types up to size 3, both positions
    types = enumerate_types(SIG, 3)
    pairs = [(a, b) for a in types for b in types if tydyn_holds(SIG, a, b)]
    rng = random.Random(13)
    sample = rng.sample([(p, q) for p in pairs for q in pairs], 300)
    for (a, a1), (b, b1) in sample:
        for name in ("fn_cast_up", "fn_cast_dn", "prod_cast_up", "prod_cast_dn"):
            ds = derive_theorem(SIG, name, a, b, a1, b1)
            for d in ds:
                assert check_derivation(SIG, d), (name, a, b, a1, b1)


def test_trans_composition_of_accepted_derivations():
    le1, _ = derive_theorem(SIG, "decompose_up", NAT, NAT, DYN)
    # compose with the reverse direction at matching endpoints
    _, ge2 = derive_theorem(SIG, "decompose_up", NAT, NAT, DYN)
    # le1: up x <= up (up x') ;  ge2: up (up x) <= up x'
    t = trans_node(le1, ge2)
    assert check_derivation(SIG, t)


@pytest.mark.parametrize("rule, endpoint", [
    (ur_s, DYN), (ul_s, DYN), (dr_s, NAT), (dl_s, NAT)],
    ids=["ur_s", "ul_s", "dr_s", "dl_s"])
def test_equal_types_share_one_template(rule, endpoint):
    # premises built apart, at the same types: one template object
    def premise():
        return var_node(DynCtx.of(("x", "x'", NAT, DYN)), 0)
    d1, d2 = rule(premise(), endpoint), rule(premise(), endpoint)
    assert d1.premises[0] is d2.premises[0]
    assert d1 == d2 and d1 is not d2
    assert derivation_errors(SIG, d1) == []


def test_skip_marker_with_retract_off():
    names = [n for n, p, ds in theorem_instances(NO_RETRACT, 2)
             if isinstance(ds, str)]
    assert names and set(names) <= {"strict_dn", "cast_l"}


def test_conclusion_equation_renames_right_variables():
    le, _ = derive_theorem(SIG, "identity_up", NAT)
    ctx, lhs, rhs = conclusion_equation(le)
    assert ctx == Context.of(("x", NAT))
    assert lhs == Upcast(NAT, NAT, Var("x"))
    assert rhs == Var("x")


def test_catalog_covers_expected_names():
    expected = {
        "identity_up", "identity_dn", "decompose_up", "decompose_dn",
        "fn_cast_up", "fn_cast_dn", "prod_cast_up", "prod_cast_dn",
        "fun_ext", "strict_up", "strict_dn", "uniqueness",
        "galois_unit", "galois_counit", "cast_congruence",
        "equidyn_iso_1", "equidyn_iso_2", "equidyn_iso_3", "equidyn_iso_4",
        "cast_r", "cast_l", "err_elim",
    }
    assert set(THEOREMS) == expected
    assert set(REDUCTION_THEOREMS) <= expected


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("sig", [SIG, NO_RETRACT, SIG.first_order_dyn()],
                         ids=["retract", "no-retract", "first-order-dyn"])
def test_instances_match_generate_then_filter(sig, size):
    # under first_order_dyn() a function type is not below ?, so the (.., ?)
    # hypotheses of cast_r and cast_l drop tuples
    got = list(theorem_instances(sig, size))
    assert got == list(theorem_instances_reference(sig, size))
    # every parameter fits the size, a skipped theorem's too, which builds
    # nothing whose size could be measured
    assert all(type_size(ty) <= size for _, params, _ in got for ty in params)
    if size == 1:
        assert len(got) == 88


@pytest.mark.parametrize("size", [3, 4])
def test_every_derivation_built_is_kept(monkeypatch, size):
    # types come in odd sizes, so size 4 has the types of size 3 and is
    # where a budget check that is off by one would derive too much
    calls = []
    derive = gtt.theorems.derive_theorem

    def counted(*args):
        calls.append(args[1])
        return derive(*args)
    monkeypatch.setattr(gtt.theorems, "derive_theorem", counted)
    kept = list(theorem_instances(SIG, size))
    assert len(calls) == len(kept) == 2496


def test_wrong_number_of_parameters_is_a_derivation_error():
    with pytest.raises(DerivationError, match="galois_unit expects 2 parameters, got 1"):
        derive_theorem(SIG, "galois_unit", NAT)
    with pytest.raises(DerivationError, match="err_elim expects 3 parameters, got 4"):
        derive_theorem(SIG, "err_elim", "app", NAT, NAT, NAT)


def _outcome_lines(sig):
    """One line per ``derive_theorem`` call: every theorem at every tuple
    of zero to four parameters over five types.  A line is the exception's
    class and message, or the SHA-256 of the derivations as written."""
    words = [parse_type(t) for t in ("Nat", "?", "1", "Nat -> Nat", "? * ?")]
    for name in sorted(THEOREMS):
        for n in range(5):
            for params in itertools.product(words, repeat=n):
                if name == "err_elim" and n == 3:
                    params = ("app",) + params[1:]
                try:
                    text = derivations_to_text(derive_theorem(sig, name, *params))
                except DerivationError as e:
                    yield f"{type(e).__name__}: {e}"
                else:
                    yield hashlib.sha256(text.encode()).hexdigest()


def test_derive_theorem_outcomes_are_pinned():
    # which check fails first, and its message, for every theorem and arity
    lines = [line for sig in (SIG, NO_RETRACT, SIG.first_order_dyn())
             for line in _outcome_lines(sig)]
    assert len(lines) == 51546
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "52fd6046be127b72a701c70f9d4679a90d22de2d4bbc86cdf3677b88054cf3cd")


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_declared_hypotheses_pick_the_reference_tuples(kind):
    # every tuple of the kind's arity over the size-3 types (one of its
    # eliminator shapes first, if it has them), kept when each declared
    # hypothesis holds; a side is a parameter position or a fixed type
    types = enumerate_types(SIG, 3)
    row = KINDS[kind]
    ranges = [row.shapes or types] + [types] * (row.arity - 1)
    kept = [params for params in itertools.product(*ranges)
            if all(tydyn_holds(SIG, *(params[s] if isinstance(s, int) else s
                                      for s in h))
                   for h in row.hypotheses)]
    reference = list(_params_reference(SIG, kind, types))
    assert len(set(reference)) == len(reference)
    assert set(kept) == set(reference)
