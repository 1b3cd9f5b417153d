import itertools
import math
import pathlib
import random

import pytest

from gtt.grammar import parse_signature, parse_term, parse_type
from gtt.syntax import (
    Context, DYN, Downcast, Err, Fn, Lam, NAT, Pair, Prod, UNIT, Upcast, Var,
    num,
)
from gtt.typecheck import DynCtx, Signature, default_signature, enumerate_types
from gtt.dynamism import DynJudgment
from gtt.theorems import theorem_instances
from gtt.elaborate import elaborate
from gtt import model
from gtt.model import (
    ERR_SEM, Coreflection, FnVal, ModelError, NatVal, PairVal, UNIT_SEM,
    check_equipment, check_judgment_semantics, denote_coreflection,
    compile_term, cross_order, derivation_first_order, enumeration,
    first_order, least_value, model_signature, order_at, related_indices,
    tydyn_holds, value_to_text,
)
from gtt.cli import main
import gtt.cli

from oracles import (
    check_equipment_reference, check_judgment_semantics_reference,
    dyn_leq_oracle, enumerate_dyn_reference, eval_term_reference,
    value_leq_at_reference,
)
from termgen import gen_term

SIG = default_signature()
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# the values of ?: the error, leaves and nodes
ERR, L0, L1 = NatVal(None), NatVal(0), NatVal(1)


def _dyn_leq(v, w):
    return order_at(SIG, DYN, 3)(v, w)


# -- the order at ? ----------------------------------------------------------------

def test_tree_leq_examples():
    assert _dyn_leq(ERR, PairVal(L0, ERR))
    assert _dyn_leq(PairVal(L0, ERR), PairVal(L0, L1))
    assert not _dyn_leq(PairVal(ERR, ERR), L0)
    # the replacement oracle agrees on the last one: replacements of a
    # leaf are just the leaf and the error
    assert not dyn_leq_oracle(PairVal(ERR, ERR), L0)


def _depth3_values():
    """The 147 values of ? of depth at most 3 over the leaves 0 and 1."""
    values = enumerate_dyn_reference(3, leaves=(0, 1))
    assert len(values) == 147
    return values


def test_tree_leq_matches_replacement_oracle_depth3():
    values = _depth3_values()
    for a in values:
        for b in values:
            assert _dyn_leq(a, b) == dyn_leq_oracle(a, b), (a, b)


def test_tree_leq_partial_order_depth3():
    values = _depth3_values()
    for a in values:
        assert _dyn_leq(a, a)
    downs = {b: [a for a in values if _dyn_leq(a, b)] for b in values}
    for b in values:
        for a in downs[b]:
            if _dyn_leq(b, a):
                assert a == b  # antisymmetry
            for c in downs[a]:
                assert _dyn_leq(c, b)  # transitivity


def test_dyn_values_are_enumerated_in_the_reference_order():
    for bound, count in [(2, 12), (3, 404)]:
        values = enumeration(SIG, DYN, bound).values
        assert len(values) == count
        assert values == enumerate_dyn_reference(bound)
    assert enumeration(SIG, DYN, 2).values[:6] == [
        ERR, L0, L1, PairVal(ERR, ERR), PairVal(ERR, L0), PairVal(ERR, L1)]
    assert least_value(SIG, DYN) is ERR_SEM


# -- coreflections ------------------------------------------------------------------

def test_nat_tag():
    c = denote_coreflection(SIG, NAT, DYN)
    assert c.up(NatVal(3)) == NatVal(3)
    assert c.dn(PairVal(ERR, ERR)) == NatVal(None)
    assert c.dn(NatVal(7)) == NatVal(7)


def test_pair_embedding_composes():
    c = denote_coreflection(SIG, Prod(NAT, NAT), DYN)
    assert c.up(PairVal(NatVal(0), NatVal(1))) == PairVal(L0, L1)
    assert c.dn(NatVal(5)) == PairVal(NatVal(None), NatVal(None))


def test_unit_embeds_as_error_leaf():
    c = denote_coreflection(SIG, UNIT, DYN)
    assert c.up(UNIT_SEM) == ERR
    assert c.dn(L0) == UNIT_SEM


def test_pair_of_errors_glues_to_error_leaf():
    c = denote_coreflection(SIG, Prod(DYN, DYN), DYN)
    bottom = PairVal(ERR, ERR)
    assert c.up(bottom) == ERR
    assert c.dn(ERR) == bottom
    # every other pair is its own node, and dn takes a node back to it
    for v in enumeration(SIG, Prod(DYN, DYN), 2).values[1:]:
        assert c.up(v) is v and c.dn(v) is v


def test_an_overridden_coreflection_reaches_the_pairs_built_from_it():
    # Nat * Nat <= ? is Nat * Nat <= ? * ? followed by the tag of ? * ?, so
    # a component swap installed for the first reaches the composite, and
    # one installed for Nat * Nat <= Nat * ? reaches
    # Nat * (Nat * Nat) <= ? * (Nat * ?) as a component
    sig = default_signature()
    pair, dyn2 = Prod(NAT, NAT), Prod(DYN, DYN)
    true = denote_coreflection(default_signature(), pair, dyn2)
    sig._model_cache[("coref", pair, dyn2)] = Coreflection(
        lambda v: PairVal(true.up(v).snd, true.up(v).fst), true.dn)
    assert denote_coreflection(sig, pair, DYN).up(PairVal(L0, L1)) == PairVal(L1, L0)
    inner = Prod(NAT, DYN)
    sig._model_cache[("coref", pair, inner)] = Coreflection(
        lambda v: PairVal(v.snd, v.fst), lambda w: w)
    outer = denote_coreflection(sig, Prod(NAT, pair), Prod(DYN, inner))
    assert outer.up(PairVal(L0, PairVal(L0, L1))) == PairVal(L0, PairVal(L1, L0))


def _semantic_identity():
    from gtt.model import FnVal
    return FnVal(lambda v: v)


def test_function_pairs_denote_structurally():
    c = denote_coreflection(SIG, Fn(NAT, NAT), Fn(NAT, DYN))
    lifted = c.up(_semantic_identity())
    assert lifted(NatVal(2)) == NatVal(2)


def test_fn_below_dyn_rejected():
    with pytest.raises(ModelError):
        denote_coreflection(SIG, Fn(NAT, NAT), DYN)


def test_extra_base_needs_codes():
    sig = Signature(base_types=("Nat", "Color"))
    with pytest.raises(ModelError):
        denote_coreflection(sig, parse_type("Color"), DYN)
    coded = Signature(base_types=("Nat", "Color"),
                      base_codes={"Nat": (0, 100), "Color": (100, 200)})
    c = denote_coreflection(coded, parse_type("Color"), DYN)
    assert c.up(NatVal(3)) == NatVal(103)
    assert c.dn(NatVal(3)) == NatVal(None)  # Nat's range, not Color's
    cn = denote_coreflection(coded, NAT, DYN)
    assert cn.up(NatVal(3)) == NatVal(3)


def test_axiom_related_bases_have_no_coreflection():
    # the model has no case for Even <= Nat, which the signature's axiom
    # derives: the open gap of ROADMAP item 4, pinned as it stands
    two = parse_signature((FIXTURES / "two_bases.gttsig").read_text())
    with pytest.raises(ModelError) as error:
        denote_coreflection(two, parse_type("Even"), NAT)
    assert str(error.value) == "no structural coreflection for Even <= Nat"


def test_enumeration_refuses_functions_and_uncoded_bases():
    with pytest.raises(ModelError) as error:
        enumeration(SIG, Fn(NAT, NAT))
    assert str(error.value) == "cannot enumerate a function space"
    with pytest.raises(ModelError) as error:
        enumeration(Signature(base_types=("Nat", "Foo")), parse_type("Foo"))
    assert str(error.value) == "base type Foo has no code range"


# -- evaluation ----------------------------------------------------------------------

def test_eval_retract():
    v = compile_term(SIG, parse_term("dn[? => Nat] up[Nat => ?] 0", SIG))({})
    assert v == NatVal(0)


def test_eval_wrong_tag_errors():
    v = compile_term(SIG, parse_term("dn[? => ? * ?] up[Nat => ?] 0", SIG))({})
    assert v == PairVal(ERR, ERR)
    assert v == least_value(SIG, Prod(DYN, DYN))


def test_eval_error_function():
    f = compile_term(SIG, Err(Fn(NAT, NAT)))({})
    assert f(NatVal(5)) == NatVal(None)


def test_eval_rejects_uninterpreted_symbols():
    sig = Signature(fn_symbols={"f": ((NAT,), NAT)})
    with pytest.raises(ModelError):
        compile_term(sig, parse_term("f(0)", sig))({})


def test_eval_beta_and_pairs():
    t = parse_term("(\\x:Nat * ?. fst x) (1, up[Nat => ?] 2)", SIG)
    assert compile_term(SIG, t)({}) == NatVal(1)


# -- orders -----------------------------------------------------------------------

def test_value_leq_examples():
    assert cross_order(SIG, NAT, NAT)(NatVal(None), NatVal(0))
    assert cross_order(SIG, NAT, DYN)(NatVal(0), L0)
    assert not cross_order(SIG, NAT, DYN)(NatVal(0), L1)


def test_value_leq_functions_pointwise():
    bottom = least_value(SIG, Fn(NAT, NAT))
    ident = _semantic_identity()
    assert cross_order(SIG, Fn(NAT, NAT), Fn(NAT, NAT))(bottom, ident)
    assert not cross_order(SIG, Fn(NAT, NAT), Fn(NAT, NAT))(ident, bottom)


# -- equipment laws ------------------------------------------------------------------

def test_equipment_nat_dyn():
    report = check_equipment(SIG, NAT, DYN, bound=2)
    assert report.passed and report.checks > 0


def test_equipment_prod():
    report = check_equipment(SIG, Prod(NAT, NAT), Prod(DYN, DYN), bound=2)
    assert report.passed


def test_equipment_identity_trivial():
    report = check_equipment(SIG, NAT, NAT, bound=3)
    assert report.passed


def test_equipment_catches_broken_coreflection():
    # a deliberately broken pair: dn loses information
    broken = Coreflection(up=lambda v: ERR, dn=lambda v: NatVal(None))
    SIG._model_cache[("coref", NAT, DYN)] = broken
    try:
        report = check_equipment(SIG, NAT, DYN, bound=2)
        assert not report.passed
        assert report.counterexample
    finally:
        SIG._model_cache.pop(("coref", NAT, DYN))


def _equipment_with(a, b, up, dn):
    sig = default_signature()
    sig._model_cache[("coref", a, b)] = Coreflection(up, dn)
    return check_equipment(sig, a, b, bound=2)


def _not_monotone_up():
    """A coreflection of ``Nat <= ?`` whose maps pass the retraction and
    the deflation laws and whose upcast is not monotone."""
    ups = {None: L0, 0: ERR, 1: L1}
    return Coreflection(
        lambda v: ups[v.n],
        lambda w: {L0: NatVal(None), L1: NatVal(1)}.get(w, NatVal(0)))


def test_equipment_reports_an_embedding_that_does_not_factor():
    # the first component's code shifted by one: a coreflection of its own
    # that passes every law but disagrees with the embedding of Nat into ?
    def shift(v):
        return ERR if v.n is None else NatVal(v.n + 1)

    def unshift(w):
        return NatVal(w.n - 1) if type(w) is NatVal and w.n else ERR
    report = _equipment_with(Prod(NAT, NAT), Prod(DYN, NAT),
                             lambda v: PairVal(shift(v.fst), v.snd),
                             lambda w: PairVal(unshift(w.fst), w.snd))
    assert (report.passed, report.counterexample) == (
        False, "embedding into ? does not factor at (0 , err)")


def test_equipment_needs_function_free_types():
    with pytest.raises(ModelError) as error:
        check_equipment(SIG, Fn(NAT, NAT), Fn(NAT, DYN))
    assert str(error.value) == "equipment checks need function-free types"


def test_equipment_reports_a_map_that_is_not_monotone():
    # both maps pass the retraction and the deflation laws, and then one of
    # them breaks monotonicity first at the reported pair
    c = _not_monotone_up()
    report = _equipment_with(NAT, DYN, c.up, c.dn)
    assert (report.passed, report.checks, report.counterexample) == (
        False, 17, "up not monotone at err <= 0")
    pair = Prod(NAT, NAT)
    report = _equipment_with(
        NAT, pair, lambda v: PairVal(v, NatVal(None)),
        lambda w: w.fst if w.snd == NatVal(None) else NatVal(None))
    assert (report.passed, report.checks, report.counterexample) == (
        False, 34, "dn not monotone at (0 , err) <= (0 , 0)")


def test_a_map_that_is_not_monotone_fails_the_model_battery(monkeypatch, capsys):
    def signature():
        sig = default_signature()
        sig._model_cache[("coref", NAT, DYN)] = _not_monotone_up()
        return sig

    monkeypatch.setattr(gtt.cli, "default_signature", signature)
    assert main(["test-model", "--bound", "2", "--size", "3"]) == 1
    out = capsys.readouterr().out
    assert ("RESULT FAIL equipment Nat <= ? (bound 2)\n"
            "COUNTEREXAMPLE up not monotone at err <= 0\n") in out
    assert out.endswith("RESULT FAIL equipment laws over 39 pairs\n")


def _derivable_pairs(size=3):
    """The pairs of ``test-model``: every derivable ``A <= B`` between
    function-free types of at most the size."""
    msig = model_signature(SIG)
    types = [ty for ty in enumerate_types(SIG, size) if first_order(ty)]
    return [(a, b) for a in types for b in types if tydyn_holds(msig, a, b)]


@pytest.mark.parametrize("bound, size, pairs", [(2, 3, 39), (3, 2, 5)])
def test_equipment_reports_match_the_all_pairs_walk(bound, size, pairs):
    assert len(_derivable_pairs(size)) == pairs
    for a, b in _derivable_pairs(size):
        assert (check_equipment(SIG, a, b, bound)
                == check_equipment_reference(SIG, a, b, bound)), (a, b)


# -- the adjunction and the covers ------------------------------------------------

@pytest.mark.parametrize("bound, compared", [(2, 39), (3, 30)])
def test_related_counts_follow_the_downcasts(bound, compared):
    # sum |down(dn w)| over the values w of B is the number of related
    # pairs, for every ordered pair of function-free types of size at most
    # 3 (at bound 3 where they have at most 10**6 pairs of values); a pair
    # that is not derivable has no coreflection either way
    sig = default_signature()
    types = [ty for ty in enumerate_types(SIG, 3) if first_order(ty)]
    seen = 0
    for a, b in itertools.product(types, repeat=2):
        size = (len(enumeration(sig, a, bound).values)
                * len(enumeration(sig, b, bound).values))
        if size > 10**6:
            continue
        got = _outcome(lambda: model._dn_column(sig, a, b, bound)[1])
        assert got == _outcome(lambda: len(related_indices(sig, a, b, bound))), (a, b)
        seen += not isinstance(got, tuple)
    assert seen == compared


TRUNCATED = parse_signature("basetypes: Nat\nbasecodes:\n  Nat 0 1\n")


def _next_bound(sig, ty, bound):
    """Some values of ``ty`` at ``bound + 1``: all of them at a base type
    and the unit, a leaf beyond the bound and the pairs of about ten values
    at ``?``, and the pairs of about ten such values each at a product."""
    def some(values):
        return values[::len(values) // 10 + 1]
    match ty:
        case Prod(a, b):
            return [PairVal(x, y) for x in some(_next_bound(sig, a, bound))
                    for y in some(_next_bound(sig, b, bound))]
        case _ if ty == DYN:
            values = some(enumeration(sig, DYN, bound).values)
            return [NatVal(bound)] + [PairVal(x, y) for x in values for y in values]
        case _:
            return enumeration(sig, ty, bound + 1).values


@pytest.mark.parametrize("sig", [SIG, TRUNCATED], ids=["default", "Nat-0-1"])
def test_the_enumeration_record_agrees_with_its_values(sig):
    # every function-free type of size at most 3 at bounds 1 to 3, up to
    # 2 * 10**4 values: positions invert the values, a value from the next
    # bound outside them has none, and down-set sizes are counts of the
    # order; under Nat 0 1 the naturals stop at 0 whatever the bound, so
    # only the records of types with ? meet values outside them
    types = [ty for ty in enumerate_types(sig, 3) if first_order(ty)]
    records = reached = 0
    for ty, bound in itertools.product(types, (1, 2, 3)):
        enum = enumeration(sig, ty, bound)
        if len(enum.values) > 2 * 10**4:
            continue
        assert enumeration(sig, ty, bound).values is enum.values
        records += 1
        where = {v: p for p, v in enumerate(enum.values)}
        assert len(where) == len(enum.values)
        assert all(enum.position(v) == p for v, p in where.items()), ty
        beyond = _next_bound(sig, ty, bound)
        for v in beyond:
            assert enum.position(v) == where.get(v), (ty, bound, v)
        reached += any(v not in where for v in beyond)
        leq = order_at(sig, ty, bound)
        assert enum.downs == [sum(map(leq, enum.values, itertools.repeat(w)))
                              for w in enum.values], (ty, bound)
    assert (records, reached) == ((35, 29) if sig is SIG else (35, 17))
    assert enumeration(TRUNCATED, NAT, 3).values == [ERR, L0]
    assert enumeration(TRUNCATED, NAT, 3).position(L1) is None


def test_each_type_and_bound_has_one_enumeration_entry():
    sig = default_signature()
    for a, b in _derivable_pairs(3):
        check_equipment(sig, a, b, 2)
    kinds = {key[0] for key in sig._model_cache if isinstance(key, tuple)}
    assert kinds == {"enumeration", "leq", "coref"}
    assert {key[1:] for key in sig._model_cache if key[0] == "enumeration"} == {
        (ty, 2) for ty in enumerate_types(SIG, 3) if first_order(ty)}


def _closure(n, edges):
    """The reflexive-transitive closure of a relation on ``range(n)``."""
    above = [[] for _ in range(n)]
    for i, k in edges:
        above[i].append(k)
    out = set()
    for start in range(n):
        todo, seen = [start], {start}
        while todo:
            for k in above[todo.pop()]:
                if k not in seen:
                    seen.add(k)
                    todo.append(k)
        out.update((start, k) for k in seen)
    return out


@pytest.mark.parametrize("ty", [DYN, NAT, Prod(DYN, DYN), Prod(NAT, DYN)],
                         ids=str)
def test_covers_generate_the_order(ty):
    values = enumeration(SIG, ty, 2).values
    edges = list(enumeration(SIG, ty, 2).covers())
    order = set(related_indices(SIG, ty, ty, 2))
    assert len(edges) == len(set(edges))
    assert _closure(len(values), edges) == order
    # and each is a cover: distinct, with nothing strictly in between
    for i, k in edges:
        assert i != k and not any((i, m) in order and (m, k) in order
                                  for m in range(len(values)) if m not in (i, k))


def test_dyn_has_1124_covers_at_bound_3():
    edges = list(enumeration(SIG, DYN, 3).covers())
    assert len(edges) == len(set(edges)) == 1124
    leq = order_at(SIG, DYN, 3)
    values = enumeration(SIG, DYN, 3).values
    assert all(leq(values[i], values[k]) for i, k in edges)


# -- judgment semantics ---------------------------------------------------------------

def test_judgment_err_below_zero():
    j = DynJudgment(DynCtx(), Err(NAT), num(0), NAT, NAT)
    assert check_judgment_semantics(SIG, j, 2).passed


def test_judgment_zero_below_err_fails():
    j = DynJudgment(DynCtx(), num(0), Err(NAT), NAT, NAT)
    report = check_judgment_semantics(SIG, j, 2)
    assert not report.passed and report.counterexample


def test_judgment_var_rule():
    j = DynJudgment(DynCtx.of(("x", "x'", NAT, DYN)), Var("x"), Var("x'"), NAT, DYN)
    report = check_judgment_semantics(SIG, j, 2)
    assert report.passed and report.checks > 5


def test_judgment_rejects_function_contexts():
    phi = DynCtx.of(("f", "f", Fn(NAT, NAT), Fn(NAT, NAT)))
    j = DynJudgment(phi, Var("f"), Var("f"), Fn(NAT, NAT), Fn(NAT, NAT))
    with pytest.raises(ModelError):
        check_judgment_semantics(SIG, j, 2)


def test_a_downcast_outside_the_enumeration_takes_the_walk(monkeypatch):
    # dn sends the leaf 1 to 5, which Nat's enumeration at bound 2 lacks:
    # the adjoint shortcut gives way to the walk, which passes
    sig = default_signature()
    true = denote_coreflection(SIG, NAT, DYN)
    sig._model_cache[("coref", NAT, DYN)] = Coreflection(
        true.up, lambda w: NatVal(5) if w == L1 else true.dn(w))
    walks = []
    walk = model._walk_related_pairs
    monkeypatch.setattr(model, "_walk_related_pairs",
                        lambda *args: walks.append(args) or walk(*args))
    j = DynJudgment(DynCtx.of(("x", "y", NAT, DYN)), Var("x"), Var("y"), NAT, DYN)
    report = check_judgment_semantics(sig, j, 2)
    assert (report.passed, report.checks, len(walks)) == (True, 14, 1)


def test_a_non_term_fails_when_evaluated():
    run = compile_term(SIG, NAT)
    with pytest.raises(ModelError) as error:
        run({})
    assert str(error.value) == "cannot evaluate Base(name='Nat')"


def test_model_validates_disjointness_for_grounds():
    for n in range(2):
        t = Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, num(n)))
        assert compile_term(SIG, t)({}) == least_value(SIG, Prod(DYN, DYN))


def test_eval_commutes_with_elaboration():
    rng = random.Random(16)
    types = [NAT, DYN, Prod(NAT, DYN), Prod(DYN, UNIT)]
    seen = 0
    for _ in range(400):
        ty = rng.choice(types)
        t = gen_term(rng, SIG, Context(), ty, size=rng.randint(1, 12),
                     first_order=True)
        try:
            direct = compile_term(SIG, t)({})
        except ModelError:
            continue
        seen += 1
        elaborated = compile_term(SIG, elaborate(SIG, Context(), t))({})
        assert direct == elaborated, (t,)
    assert seen > 200


def test_value_printing():
    assert value_to_text(PairVal(L0, ERR)) == "(0 , err)"
    assert value_to_text(PairVal(PairVal(ERR, L1), L0)) == "((err , 1) , 0)"
    assert value_to_text(NatVal(None)) == "err"
    assert value_to_text(PairVal(NatVal(1), UNIT_SEM)) == "(1 , ())"


# -- the compiled evaluator against the term walker ---------------------------

def _outcome(evaluate):
    try:
        return evaluate()
    except ModelError as e:
        return ("ModelError", str(e))


def test_eval_matches_the_term_walker_on_closed_first_order_terms():
    rng = random.Random(31)
    types = [NAT, DYN, UNIT, Prod(NAT, DYN), Prod(DYN, DYN), Prod(UNIT, NAT)]
    values = 0
    for _ in range(600):
        ty = rng.choice(types)
        t = gen_term(rng, SIG, Context(), ty, size=rng.randint(1, 14),
                     first_order=True)
        got = _outcome(lambda: compile_term(SIG, t)({}))
        want = _outcome(lambda: eval_term_reference(SIG, {}, t))
        assert got == want, t
        if not isinstance(got, tuple):
            values += 1
            for v in enumeration(SIG, ty, 2).values:
                assert (order_at(SIG, ty)(got, v)
                        == value_leq_at_reference(SIG, ty, got, v)), (t, v)
    assert values > 400


def _same_report(j, sig=SIG):
    """The report, or the ``ModelError`` and its message, which must be the
    reference's."""
    got = _outcome(lambda: check_judgment_semantics(sig, j, 2))
    want = _outcome(lambda: check_judgment_semantics_reference(sig, j, 2))
    assert got == want, j
    return got


# Nat and Color with disjoint code ranges: at bound 2, Nat has the values
# err and 0 and Color has err, 0 and 1.  The model does not type its terms,
# so ``up[Nat => ?]`` of a Color variable raises exactly where the variable
# is 1: an evaluation error that depends on the environment.
CODED = Signature(base_types=("Nat", "Color"),
                  base_codes={"Nat": (0, 1), "Color": (1, 3)})
COLOR = parse_type("Color")


def _raising_at_1(x):
    return Upcast(NAT, DYN, Var(x))


def _memo_cases():
    """Two-entry judgments whose left or right term raises in some
    environments only, each with its outcome: the first counterexample, or
    the error when an environment that raises comes first."""
    xy = DynCtx.of(("x", "x'", COLOR, COLOR), ("y", "y'", NAT, NAT))
    yx = DynCtx.of(("y", "y'", NAT, NAT), ("x", "x'", COLOR, COLOR))
    nd = Prod(NAT, DYN)
    error = ("ModelError", "value 1 exceeds the code range of Nat")
    return [
        # the right term raises at x' = 1, after the counterexample at y = 0
        (DynJudgment(xy, Pair(Var("y"), Err(DYN)),
                     Pair(Err(NAT), _raising_at_1("x'")), nd, nd),
         "[x=err, y=0, x'=err, y'=0] gives (0 , err) not below (err , err)"),
        # the right term raises at x' = 1, before the counterexample at x = 0
        (DynJudgment(xy, Pair(Err(NAT), Upcast(COLOR, DYN, Var("x"))),
                     Pair(Var("y'"), _raising_at_1("x'")), nd, nd),
         error),
        # the left term raises at x = 1, after the counterexample at x = 0
        (DynJudgment(yx, Pair(Var("y"), _raising_at_1("x")),
                     Pair(Var("y'"), Err(DYN)), nd, nd),
         "[y=err, x=0, y'=err, x'=0] gives (err , 0) not below (err , err)"),
        # the left term raises at x = 1, before the counterexample at y = 0
        (DynJudgment(yx, Pair(Var("y"), _raising_at_1("x")),
                     Pair(Err(NAT), Upcast(NAT, DYN, num(0))), nd, nd),
         error),
    ]


def _non_theorems():
    """The three of acceptance criterion 5, one whose first
    counterexample shows the order in which environments are tried, and the
    memo cases above."""
    phi = DynCtx.of(("x", "x'", NAT, NAT))
    mismatch_right = Upcast(Prod(DYN, DYN), DYN,
                            Upcast(Prod(NAT, NAT), Prod(DYN, DYN),
                                   Pair(Var("x'"), Var("x'"))))
    phi2 = DynCtx.of(("x", "x'", NAT, NAT), ("y", "y'", NAT, NAT))
    return [(SIG, j) for j in [
        DynJudgment(DynCtx(), num(0), Err(NAT), NAT, NAT),
        DynJudgment(phi, Upcast(NAT, DYN, Var("x")), mismatch_right, DYN, DYN),
        DynJudgment(phi2, Pair(Var("x"), Var("y")), Pair(Var("y'"), Var("x'")),
                    Prod(NAT, NAT), Prod(NAT, NAT)),
        DynJudgment(DynCtx.of(("x", "x'", NAT, NAT), ("y", "y'", DYN, DYN)),
                    Var("y"), Err(DYN), DYN, DYN),
    ]] + [(CODED, j) for j, _ in _memo_cases()]


@pytest.fixture(scope="module")
def corpus_judgments():
    return [d.conclusion for _, _, ds in theorem_instances(SIG, 3)
            for d in ds if derivation_first_order(d)]


def test_reports_match_the_term_walker_on_the_corpus_and_non_theorems(
        corpus_judgments):
    assert len(corpus_judgments) == 1912
    assert sum(_same_report(j).checks for j in corpus_judgments) == 357_244
    for sig, j in _non_theorems():
        outcome = _same_report(j, sig)
        assert isinstance(outcome, tuple) or not outcome.passed, j


def test_reports_match_the_term_walker_on_the_compare_fixtures():
    # every ordered pair of fixture terms that ``compare --semantic``
    # checks (one context, related types), with the judgment it builds
    from gtt.grammar import parse_term_file
    from gtt.typecheck import infer_type
    files = [parse_term_file((FIXTURES / name).read_text(), SIG) for name in
             ["cross_tag.gtt", "err_nat.gtt", "id_fn.gtt", "wrap.gtt", "zero.gtt"]]
    msig = model_signature(SIG)
    outcomes = []
    for (ctx1, t1), (ctx2, t2) in itertools.product(files, repeat=2):
        ty1, ty2 = infer_type(SIG, ctx1, t1), infer_type(SIG, ctx2, t2)
        if ctx1.entries == ctx2.entries and tydyn_holds(msig, ty1, ty2):
            j = DynJudgment(DynCtx.diag(ctx1), t1, t2, ty1, ty2)
            outcome = _same_report(j)
            outcomes.append(outcome[0] if isinstance(outcome, tuple)
                            else outcome.passed)
    assert outcomes == [True, True, True, "ModelError", "ModelError", False, True]


def _uses(j, a, b):
    """Whether checking the judgment applies the coreflection of ``a <= b``."""
    from gtt.grammar import type_to_text
    ta, tb = type_to_text(a), type_to_text(b)
    text = j.describe()
    return ((a, b) in [(tl, tr) for _, _, tl, tr in j.phi]
            or (j.type_left, j.type_right) == (a, b)
            or f"up[{ta} => {tb}]" in text or f"dn[{tb} => {ta}]" in text)


def _perturbed(rng, a, b):
    """The coreflection of ``a <= b`` with one or two of its values at
    bound 2 moved to another value, and unchanged elsewhere."""
    true = denote_coreflection(default_signature(), a, b)
    values_a, values_b = enumeration(SIG, a, 2).values, enumeration(SIG, b, 2).values
    ups = {v: true.up(v) for v in values_a}
    dns = {w: true.dn(w) for w in values_b}
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            ups[rng.choice(values_a)] = rng.choice(values_b)
        else:
            dns[rng.choice(values_b)] = rng.choice(values_a)
    return Coreflection(lambda v: ups.get(v, true.up(v)),
                        lambda w: dns.get(w, true.dn(w)))


def _swap(v):
    """The automorphism of ``?`` that swaps the leaves 0 and 1 and the two
    sides of every node."""
    if type(v) is PairVal:
        return PairVal(_swap(v.snd), _swap(v.fst))
    return NatVal({0: 1, 1: 0}.get(v.n, v.n))


@pytest.mark.parametrize("a, b", [(NAT, DYN), (Prod(DYN, DYN), DYN)], ids=str)
def test_the_shortcut_matches_the_walk_under_every_coreflection_that_passes(
        corpus_judgments, a, b):
    # the judgment check tests one left environment per right one, which is
    # sound for a coreflection: a perturbed one that makes the check and the
    # walk disagree must fail the equipment check, while another coreflection
    # (the true one followed by an automorphism of ?) passes it and changes
    # no report
    rng = random.Random(7)
    judgments = [j for j in corpus_judgments if _uses(j, a, b)][:12]
    true = denote_coreflection(default_signature(), a, b)
    swapped = Coreflection(lambda v: _swap(true.up(v)),
                           lambda w: true.dn(_swap(w)))
    disagreed = 0
    for i in range(16):
        sig = default_signature()
        sig._model_cache[("coref", a, b)] = swapped if i == 0 else _perturbed(rng, a, b)
        passed = check_equipment(sig, a, b, 2).passed
        assert passed or i
        for j in judgments:
            got = _outcome(lambda: check_judgment_semantics(sig, j, 2))
            if got != _outcome(lambda: check_judgment_semantics_reference(sig, j, 2)):
                disagreed += 1
                assert not passed, j
    assert len(judgments) == 12 and disagreed


def test_evaluation_errors_keep_their_pair_under_the_memo():
    for j, want in _memo_cases():
        got = _outcome(lambda: check_judgment_semantics(CODED, j, 2))
        if isinstance(want, tuple):
            assert got == want, j
        else:
            assert not got.passed and got.counterexample == want, j


def test_each_distinct_environment_is_evaluated_once(
        corpus_judgments, monkeypatch):
    # wrap only the two closures that the judgment check compiles itself,
    # not those that compile_term builds for subterms
    compile_term = model.compile_term
    runs = []
    depth = 0

    def counting_compile(sig, t, *binders):
        nonlocal depth
        depth += 1
        try:
            closure = compile_term(sig, t, *binders)
        finally:
            depth -= 1
        if depth:
            return closure
        slot = len(runs)
        runs.append(0)

        def run(env):
            runs[slot] += 1
            return closure(env)
        return run

    monkeypatch.setattr(model, "compile_term", counting_compile)
    checks = sum(check_judgment_semantics(SIG, j, 2).checks
                 for j in corpus_judgments)
    assert len(runs) == 2 * len(corpus_judgments)
    assert checks == 357_244
    # the right side runs once per right environment and the left side once
    # per distinct downcast of one; every related left environment is the
    # downcast of its upcast, so these are the walk's counts too
    downcast_envs = sum(
        math.prod(len({denote_coreflection(SIG, tl, tr).dn(w)
                       for w in enumeration(SIG, tr, 2).values})
                  for _, _, tl, tr in j.phi)
        for j in corpus_judgments)
    right_envs = sum(math.prod(len(enumeration(SIG, tr, 2).values)
                               for _, _, _, tr in j.phi)
                     for j in corpus_judgments)
    assert (downcast_envs, right_envs) == (37_594, 71_152)
    assert (sum(runs[0::2]), sum(runs[1::2])) == (downcast_envs, right_envs)


def test_each_left_value_is_cast_up_once():
    # x, y : Nat <= ? at bound 2 relate err to all 12 values of ? and each
    # of 0 and 1 to its own leaf: 14 * 14 pairs; the 12 * 12 right
    # environments downcast to the 3 * 3 left ones
    a, b = Prod(NAT, NAT), Prod(DYN, DYN)
    j = DynJudgment(DynCtx.of(("x", "x'", NAT, DYN), ("y", "y'", NAT, DYN)),
                    Pair(Var("x"), Var("y")), Pair(Var("x'"), Var("y'")), a, b)
    sig = default_signature()
    real = denote_coreflection(sig, a, b)
    cast = []

    def counting_up(v):
        cast.append(v)
        return real.up(v)

    sig._model_cache[("coref", a, b)] = Coreflection(counting_up, real.dn)
    report = check_judgment_semantics(sig, j, 2)
    assert (report.passed, report.checks) == (True, 196)
    assert len(cast) == len(set(cast)) == 9


def test_evaluation_errors_stay_lazy():
    sig = Signature(fn_symbols={"f": ((NAT,), NAT)})
    lambdas = [
        # a symbol with no meaning, under a binder
        parse_term("\\x:Nat. f(0)", sig),
        # an unbound variable, under a binder
        Lam("x", NAT, Var("y")),
        # a cast with no coreflection in the model, under a binder
        Lam("x", NAT, Upcast(Fn(NAT, NAT), DYN, Lam("z", NAT, Var("z")))),
    ]
    for t in lambdas:
        closure = compile_term(sig, t)({})
        assert isinstance(closure, FnVal)
        with pytest.raises(ModelError) as got:
            closure(NatVal(0))
        with pytest.raises(ModelError) as want:
            eval_term_reference(sig, {}, t)(NatVal(0))
        assert str(got.value) == str(want.value)
