import ast
import dataclasses
import hashlib
import itertools
import pathlib
import random
import re
import sys

import pytest

from gtt.derivio import parse_derivations
from gtt.grammar import parse_type
from gtt.syntax import (
    App, Bound, Context, DYN, Downcast, Err, Fn, FnApp, GttError, Lam, NAT,
    Pair, Prod, Proj, Term, UNIT, UNITVAL, Upcast, Var, num,
)
from gtt.typecheck import DynCtx, Signature, default_signature
from gtt.dynamism import (
    _SCHEMA, Derivation, DynJudgment, check_derivation, derivation_errors,
)
from gtt.theorems import (
    app_mon, comp_node, derive_sequent, dl_node, dr_node, errbot_node,
    fn_beta_node, fn_eta_node, lam_mon, pair_mon, prj_mon, prod_beta_node,
    prod_eta_node, refl_node, retract_node, trans_node, ul_node, ur_node,
    var_node,
)
from perfbench import bench_gen

from oracles import derivation_errors_reference

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SIG = default_signature()
NO_RETRACT = default_signature(retract=False)
NO_DISJ = default_signature(disjointness=False)


# -- primitive rule examples ---------------------------------------------------

def test_errbot_accepts():
    d = errbot_node(Context(), NAT, num(0))
    assert check_derivation(SIG, d)


def test_errbot_wrong_side_rejected():
    # err must be on the left
    j = DynJudgment(DynCtx(), num(0), Err(NAT), NAT, NAT)
    d = Derivation("err-bot", j)
    assert derivation_errors(SIG, d) == [
        "root: err-bot: left side must be the error constant at the judgment type"]


def test_refl_accepts():
    ctx = Context.of(("x", NAT))
    assert check_derivation(SIG, refl_node(ctx, Var("x"), NAT))


def test_var_requires_context_entry():
    phi = DynCtx.of(("x", "x'", NAT, DYN))
    assert check_derivation(SIG, var_node(phi, 0))
    bad = Derivation("var", DynJudgment(phi, Var("x'"), Var("x"), NAT, DYN))
    assert not check_derivation(SIG, bad)


def test_presupposition_failure_reported_with_path():
    # inner premise is ill-typed: unbound variable
    bad_inner = Derivation(
        "refl", DynJudgment(DynCtx(), Var("ghost"), Var("ghost"), NAT, NAT))
    outer = trans_node(bad_inner, bad_inner)
    errs = derivation_errors(SIG, outer)
    assert any(e.startswith("root.0") for e in errs)
    assert any("ghost" in e for e in errs)


def test_cast_rules_accept():
    assert check_derivation(SIG, ur_node(NAT, DYN))
    assert check_derivation(SIG, ul_node(NAT, DYN))
    assert check_derivation(SIG, dl_node(NAT, DYN))
    assert check_derivation(SIG, dr_node(NAT, DYN))


def test_cast_rules_need_derivable_endpoints():
    assert not check_derivation(SIG, ur_node(DYN, NAT))  # ? <= Nat fails


def test_retract_inside_larger_tree_rejected_without_flag():
    rt = retract_node(NAT, DYN)
    wrapped = comp_node(rt, {"x": num(0)}, {"x": num(0)},
                        (refl_node(Context(), num(0), NAT),))
    assert check_derivation(SIG, wrapped)
    assert not check_derivation(NO_RETRACT, wrapped)


def _read_node(text: str, sig: Signature = SIG) -> Derivation:
    """The one derivation written in ``.gttd`` text."""
    d, = parse_derivations(text, sig)
    return d


def _disjoint(target: str, source: str, sig: Signature = SIG) -> Derivation:
    """``dn[? => target] up[source => ?] x <= err[target]``."""
    return _read_node(
        "(disjoint (concl (ctx (x x {%s} {%s})) {dn[? => %s] up[%s => ?] x}"
        " {err[%s]} {%s} {%s}))"
        % (source, source, target, source, target, target, target), sig)


def test_disjoint_node():
    d = _disjoint("? * ?", "Nat")
    assert d.conclusion.left == Downcast(Prod(DYN, DYN), DYN,
                                         Upcast(NAT, DYN, Var("x")))
    assert check_derivation(SIG, d)
    same_tag = _disjoint("Nat", "Nat")
    assert not check_derivation(SIG, same_tag)
    not_ground = _disjoint("Nat * ?", "Nat")
    assert not check_derivation(SIG, not_ground)


def test_beta_eta_rules():
    ctx = Context.of(("u", NAT))
    redex = App(Lam("x", NAT, Var("x")), Var("u"))
    assert check_derivation(SIG, fn_beta_node(ctx, redex, NAT, "fwd"))
    assert check_derivation(SIG, fn_beta_node(ctx, redex, NAT, "bwd"))

    fctx = Context.of(("f", Fn(NAT, DYN)))
    assert check_derivation(SIG, fn_eta_node(fctx, Var("f"), Fn(NAT, DYN), "fwd", "x"))
    assert check_derivation(SIG, fn_eta_node(fctx, Var("f"), Fn(NAT, DYN), "bwd", "x"))

    pctx = Context.of(("p", Prod(NAT, UNIT)))
    redex2 = Proj(2, Pair(Var("p"), UNITVAL))
    assert check_derivation(
        SIG, prod_beta_node(Context.of(("p", NAT)), Proj(1, Pair(Var("p"), num(0))), NAT))
    assert check_derivation(SIG, prod_eta_node(pctx, Var("p"), Prod(NAT, UNIT)))
    fwd = _read_node("(unit-eta (concl (ctx (u u {1} {1})) {u} {()} {1} {1})"
                     " (aux fwd))")
    assert fwd.conclusion.right == UNITVAL
    assert check_derivation(SIG, fwd)
    assert check_derivation(SIG, _read_node(
        "(unit-eta (concl (ctx) {()} {err[1]} {1} {1}) (aux bwd))"))


def test_congruence_rules():
    phi = DynCtx.of(("x", "x'", NAT, DYN))
    inner = var_node(phi, 0)
    lam = lam_mon(inner)
    assert check_derivation(SIG, lam)
    assert lam.conclusion.type_left == Fn(NAT, NAT)

    fphi = DynCtx.of(("f", "f'", Fn(NAT, NAT), Fn(DYN, DYN)),
                     ("x", "x'", NAT, DYN))
    apm = app_mon(var_node(fphi, 0), var_node(fphi, 1))
    assert check_derivation(SIG, apm)

    pm = pair_mon(var_node(phi, 0), var_node(phi, 0))
    assert check_derivation(SIG, pm)

    pphi = DynCtx.of(("p", "p'", Prod(NAT, NAT), Prod(DYN, DYN)))
    assert check_derivation(SIG, prj_mon(var_node(pphi, 0), 1))
    assert check_derivation(SIG, prj_mon(var_node(pphi, 0), 2))


# -- transitivity composition --------------------------------------------------

def test_trans_composes_accepted_derivations():
    d1 = ur_node(NAT, NAT, "x", "x")        # x <= up[Nat => Nat] x
    phi2 = DynCtx.of(("x", "x'", NAT, NAT))
    d2 = ul_node(NAT, NAT, "x", "x'")       # up x <= x'
    t = trans_node(d1, d2)
    assert check_derivation(SIG, t)
    assert t.conclusion.left == Var("x") and t.conclusion.right == Var("x'")


def test_trans_renames_the_middle_context():
    # the premises name the middle variable differently (y and z); the
    # second premise's left side is renamed along the middle context
    d1 = var_node(DynCtx.of(("x", "y", NAT, NAT)), 0)     # x <= y
    d2 = var_node(DynCtx.of(("z", "w", NAT, NAT)), 0)     # z <= w
    t = trans_node(d1, d2)
    assert t.conclusion.phi == DynCtx.of(("x", "w", NAT, NAT))
    assert derivation_errors(SIG, t) == derivation_errors_reference(SIG, t) == []


def test_trans_mismatched_middle_rejected():
    d1 = ur_node(NAT, DYN, "x", "x")     # ... <= up x : Nat <= ?
    d2 = dl_node(NAT, DYN, "x", "x'")    # dn x <= x' : Nat <= ?
    t = trans_node(d1, d2)
    errs = derivation_errors(SIG, t)
    assert any("middle" in e for e in errs)


def test_trans_stored_middle_is_validated():
    d1 = ur_node(NAT, NAT, "x", "x")
    d2 = ul_node(NAT, NAT, "x", "x'")
    good = trans_node(d1, d2)
    tampered = Derivation("trans", good.conclusion, good.premises,
                          aux=(Context.of(("x", DYN)), Var("x"), DYN))
    errs = derivation_errors(SIG, tampered)
    assert any("middle judgment" in e for e in errs)


def test_trans_stored_middle_that_repeats_a_name_is_rejected():
    # renaming pairs the stored middle context with the first premise's right
    # side by position: z, z against z, w maps z to w, and the stored z then
    # matches the premise's w, so only the explicit name check rejects it
    phi1 = DynCtx.of(("x", "z", NAT, NAT), ("y", "w", NAT, NAT))
    phi2 = DynCtx.of(("z", "z'", NAT, NAT), ("w", "w'", NAT, NAT))
    good = trans_node(var_node(phi1, 1), var_node(phi2, 1))
    assert good.aux == ((("z", NAT), ("w", NAT)), Var("w"), NAT)
    assert derivation_errors(SIG, good) == []
    tampered = Derivation("trans", good.conclusion, good.premises,
                          aux=((("z", NAT), ("z", NAT)), Var("z"), NAT))
    assert derivation_errors(SIG, tampered) == [
        "root: trans: stored middle judgment disagrees with the premises"]
    assert _outcome(derivation_errors_reference, SIG, tampered) == (
        "ContextError", "duplicate variable in context: ['z', 'z']")


# -- sequent-style rules ---------------------------------------------------------

def test_ul_s_example():
    phi = DynCtx.of(("x", "x'", NAT, NAT))
    prem = var_node(phi, 0)
    d = derive_sequent("UL_S", prem, DYN)
    # hypothesis Nat <= ? <= Nat fails: conclusion presupposes mid <= right type
    assert not check_derivation(SIG, d)

    prem2 = var_node(DynCtx.of(("x", "x'", NAT, DYN)), 0)
    d2 = derive_sequent("UL_S", prem2, DYN)
    assert check_derivation(SIG, d2)
    assert d2.conclusion.left == Upcast(NAT, DYN, Var("x"))
    assert d2.conclusion.type_left == DYN


def test_ur_s_degenerate_chain_collapses():
    prem = var_node(DynCtx.of(("x", "x'", NAT, NAT)), 0)
    d = derive_sequent("UR_S", prem, NAT)
    assert check_derivation(SIG, d)
    assert d.conclusion.right == Upcast(NAT, NAT, Var("x'"))


def test_dr_s_on_errbot_through_dyn():
    # err[Nat] <= 0 : Nat lifts to err <= dn[? => Nat] (up[Nat => ?] 0)
    prem = errbot_node(Context(), NAT, num(0))
    lifted = derive_sequent("UR_S", prem, DYN)
    d = derive_sequent("DR_S", lifted, NAT)
    assert check_derivation(SIG, d)
    assert d.conclusion.right == Downcast(NAT, DYN, Upcast(NAT, DYN, num(0)))
    assert d.conclusion.left == Err(NAT)


def test_dl_s_side_condition_violation():
    prem = var_node(DynCtx.of(("x", "x'", NAT, NAT)), 0)
    d = derive_sequent("DL_S", prem, DYN)  # ? <= Nat is needed, fails
    assert not check_derivation(SIG, d)
    # valid side conditions still build
    ok = derive_sequent("UR_S", prem, DYN)
    assert check_derivation(SIG, ok)


def test_unknown_sequent_rule():
    prem = var_node(DynCtx.of(("x", "x'", NAT, NAT)), 0)
    with pytest.raises(Exception):
        derive_sequent("XX_S", prem, NAT)


# -- schema fuzzing: single-field corruption is always rejected -----------------

def _corruptions(d: Derivation):
    j = d.conclusion
    yield Derivation(d.rule, DynJudgment(j.phi, j.right, j.left,
                                         j.type_right, j.type_left),
                     d.premises, d.aux)
    yield Derivation(d.rule, DynJudgment(j.phi, j.left, Err(j.type_right),
                                         j.type_left, j.type_right),
                     d.premises, d.aux)
    yield Derivation(d.rule, DynJudgment(j.phi, j.left, j.right,
                                         DYN, j.type_right),
                     d.premises, d.aux)
    if j.phi.entries:
        shrunk = DynCtx(j.phi.entries[:-1])
        yield Derivation(d.rule, DynJudgment(shrunk, j.left, j.right,
                                             j.type_left, j.type_right),
                         d.premises, d.aux)
    if d.premises:
        yield Derivation(d.rule, j, d.premises[:-1], d.aux)


def test_congruence_fuzzing():
    phi = DynCtx.of(("x", "x'", NAT, DYN))
    fphi = DynCtx.of(("f", "f'", Fn(NAT, NAT), Fn(DYN, DYN)),
                     ("x", "x'", NAT, DYN))
    pphi = DynCtx.of(("p", "p'", Prod(NAT, NAT), Prod(DYN, DYN)))
    samples = [
        lam_mon(var_node(phi, 0)),
        app_mon(var_node(fphi, 0), var_node(fphi, 1)),
        pair_mon(var_node(phi, 0), var_node(phi, 0)),
        prj_mon(var_node(pphi, 0), 1),
        ur_node(NAT, DYN),
        dl_node(NAT, DYN),
        errbot_node(Context(), NAT, num(1)),
        fn_beta_node(Context(), App(Lam("x", NAT, Var("x")), num(0)), NAT),
        prod_eta_node(Context.of(("p", Prod(NAT, NAT))), Var("p"), Prod(NAT, NAT)),
    ]
    for d in samples:
        assert check_derivation(SIG, d), d.rule
        for bad in _corruptions(d):
            if bad.conclusion == d.conclusion and bad.premises == d.premises:
                continue
            if d.rule == "err-bot" and isinstance(bad.conclusion.right, Err):
                continue  # err <= err is itself a valid instance
            assert not check_derivation(SIG, bad), (d.rule, bad.conclusion)


# -- term-dynamism axioms --------------------------------------------------------

def test_ax_rule_membership():
    axiom = (Context.of(("x", NAT)), Var("x"), Context.of(("y", DYN)), Var("y"))
    sig = Signature(tmdyn_axioms=(axiom,))
    d = _read_node("(ax (concl (ctx (x y {Nat} {?})) {x} {y} {Nat} {?}) (aux 0))",
                   sig)
    assert d.aux == 0
    assert check_derivation(sig, d)
    # the same conclusion is rejected when the signature lacks the axiom
    assert not check_derivation(SIG, Derivation("ax", d.conclusion, (), 0))


# -- the trusted core's imports -------------------------------------------------

def _imports(nodes):
    """``(level, module)`` of each import statement among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            yield node.level, node.module
        elif isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)


def test_the_checker_imports_only_syntax_typecheck_and_the_standard_library():
    tree = ast.parse((ROOT / "src" / "gtt" / "dynamism.py").read_text())
    top = set(_imports(tree.body))
    assert {m for level, m in top if level} == {"syntax", "typecheck"}
    assert all(m.split(".")[0] in sys.stdlib_module_names
               for level, m in top if not level)
    inner = {(fn.name, imp)
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for imp in _imports(ast.walk(fn))}
    assert inner == {("describe", (1, "grammar"))}


# -- the checker against the plain one -------------------------------------------

def _outcome(check, sig, d):
    try:
        return check(sig, d)
    except GttError as e:
        return type(e).__name__, str(e)


def _agree(sig, derivations):
    for d in derivations:
        assert _outcome(derivation_errors, sig, d) == \
            _outcome(derivation_errors_reference, sig, d), d


def test_checker_agrees_with_the_reference_on_the_corpus_and_its_mutations():
    pool = bench_gen.catalog_pool()
    assert len(pool) == 3847
    _agree(SIG, pool)
    rng = random.Random(11)
    mutants = [bench_gen.mutate(d, rng)[0] for d in pool]
    assert all(derivation_errors(SIG, d) for d in mutants)
    _agree(SIG, mutants)


@pytest.mark.parametrize("name", ["errbot.gttd", "galois_unit.gttd"])
def test_checker_agrees_with_the_reference_on_the_fixtures(name):
    ds = parse_derivations((FIXTURES / name).read_text(), SIG)
    assert ds
    _agree(SIG, ds)


def test_checker_agrees_with_the_reference_on_ill_formed_contexts():
    # names repeated on one side, undeclared base types, and a binder that
    # shadows a context entry
    even = parse_type("Even")
    dup_left = DynCtx.of(("x", "x", NAT, NAT), ("x", "y", NAT, DYN))
    dup_right = DynCtx.of(("x", "y", NAT, NAT), ("z", "y", NAT, DYN))
    undeclared = DynCtx.of(("x", "x", even, even))
    below_dyn = DynCtx.of(("x", "x", even, DYN))
    cases = [var_node(phi, 0)
             for phi in (dup_left, dup_right, undeclared, below_dyn)]
    diag = DynCtx.of(("x", "x", NAT, NAT))
    cases.append(Derivation("refl", DynJudgment(
        diag, Lam("x", DYN, Var("x")), Lam("x", DYN, Var("x")),
        Fn(DYN, DYN), Fn(DYN, DYN))))
    _agree(SIG, cases)


@pytest.mark.parametrize("phi, repeated, last", [
    (DynCtx.of(("x", "x", NAT, NAT), ("x", "y", NAT, DYN)), ["x", "x"], []),
    (DynCtx.of(("x", "y", NAT, NAT), ("z", "y", NAT, DYN)), ["y", "y"],
     ["root: trans: right side does not match second premise"]),
], ids=["left", "right"])
def test_trans_over_premises_that_repeat_a_name_is_rejected(phi, repeated, last):
    # the one input on which the checker parts from the reference: the
    # reference compares ``Context`` objects, whose constructor raises on
    # the repeated name, where the checker compares the entries themselves
    diag = DynCtx.of(("x", "x", NAT, NAT))
    d = Derivation("trans", DynJudgment(diag, Var("x"), Var("x"), NAT, NAT),
                   (var_node(phi, 0), var_node(phi, 0)))
    assert derivation_errors(SIG, d) == [
        "root.0: var: context dynamism presupposition fails",
        "root.1: var: context dynamism presupposition fails",
        "root: trans: left context does not match first premise",
        "root: trans: right context does not match second premise",
        "root: trans: premises do not share the middle context",
    ] + last
    assert _outcome(derivation_errors_reference, SIG, d) == (
        "ContextError", f"duplicate variable in context: {repeated}")


# -- the verdict memo against the plain checker --------------------------------

def _check_twice_shuffled(sig, derivations, seed):
    """Check every derivation twice, in a shuffled order, on one signature,
    against the reference's outcome for it."""
    want = [_outcome(derivation_errors_reference, sig, d) for d in derivations]
    order = list(range(len(derivations))) * 2
    random.Random(seed).shuffle(order)
    for i in order:
        assert _outcome(derivation_errors, sig, derivations[i]) == want[i], \
            derivations[i]
    return want


def _rehinted(x):
    """``x`` with every lambda's hint changed: equal under ``==``, but
    printed apart.  Tuples, such as auxes, are rebuilt item by item."""
    if isinstance(x, Lam):
        return Lam.nameless(x.var + "h", x.annot, _rehinted(x.body))
    if isinstance(x, Term):
        return type(x)(*(_rehinted(getattr(x, f.name))
                         for f in dataclasses.fields(x)))
    if isinstance(x, tuple):
        return tuple(map(_rehinted, x))
    return x


def _rehinted_derivation(d: Derivation) -> Derivation:
    j = d.conclusion
    return Derivation(d.rule, dataclasses.replace(
        j, left=_rehinted(j.left), right=_rehinted(j.right)),
        tuple(map(_rehinted_derivation, d.premises)), _rehinted(d.aux))


def _has_lambda(d: Derivation) -> bool:
    return "\\" in d.conclusion.describe() or any(map(_has_lambda, d.premises))


@pytest.mark.parametrize("retract", [True, False], ids=["retract", "no-retract"])
def test_the_memo_agrees_with_the_plain_checker_on_the_corpus(retract):
    # the size-3 corpus, its mutations, and lambda-hint renamings of its
    # derivations that hold a lambda, on one fresh signature
    sig = default_signature(retract=retract)
    pool = bench_gen.catalog_pool()
    rng = random.Random(18)
    mutants = [bench_gen.mutate(d, rng)[0] for d in pool]
    lambdas = [d for d in pool if _has_lambda(d)]
    renamed = list(map(_rehinted_derivation, lambdas))
    assert len(renamed) == 134
    assert renamed == lambdas and repr(renamed) != repr(lambdas)
    want = _check_twice_shuffled(sig, pool + mutants + renamed, 18)
    assert sum(map(bool, want)) == len(mutants) + (0 if retract else 758)
    new, old = sig._verdicts
    assert len(new) + len(old) <= 4096


def test_a_rejected_verdict_is_not_shared_across_lambda_hints():
    # a typing error prints a binder's hint, which ``==`` ignores
    even = parse_type("Even")

    def ill_formed(hint):
        lam = Lam.nameless(hint, even, Bound(0))
        return refl_node(Context(), lam, Fn(even, even))
    ds = [ill_formed("x"), ill_formed("y")]
    ds.append(trans_node(ds[0], ds[1]))
    ds.append(trans_node(ds[1], ds[0]))
    assert ds[0] == ds[1] and ds[2] == ds[3]
    want = _check_twice_shuffled(default_signature(), ds, 1)
    assert "ill-formed annotation on x" in want[0][0]
    assert "ill-formed annotation on y" in want[1][0]


def test_the_memo_holds_passing_nodes_only():
    sig = default_signature()
    d, = parse_derivations(
        (FIXTURES / "galois_unit_var_err.gttd").read_text(), sig)
    lines = derivation_errors(sig, d)
    new, old = sig._verdicts
    assert len(new) + len(old) == 5  # the fixture's passing nodes
    assert len(lines) == 3 and derivation_errors(sig, d) == lines


def test_paths_at_depth_and_on_a_shared_failing_node():
    # a failing bottom under 300 levels of passing ``trans`` nodes, and one
    # failing object reached as both premises of a node
    zero = refl_node(Context(), num(0), NAT)
    bad = Derivation("refl", DynJudgment(DynCtx(), num(0), num(1), NAT, NAT))
    deep = bad
    for _ in range(300):
        deep = trans_node(zero, deep)
    shared = trans_node(bad, bad)
    want = _check_twice_shuffled(default_signature(), [deep, shared], 4)
    assert want[0] == ["root" + ".1" * 300 + ": refl: sides are not alpha-equal"]
    assert want[1][:2] == ["root.0: refl: sides are not alpha-equal",
                           "root.1: refl: sides are not alpha-equal"]


def test_the_memo_tells_auxes_of_equal_value_and_other_types_apart():
    # 1, True and 1.0 are equal and hash alike; the checker tells them apart
    axiom = (Context.of(("x", NAT)), Var("x"), Context.of(("y", DYN)), Var("y"))
    sig = Signature(tmdyn_axioms=(axiom,))
    ax = Derivation("ax", DynJudgment(
        DynCtx.of(("x", "y", NAT, DYN)), Var("x"), Var("y"), NAT, DYN))
    pair = var_node(DynCtx.of(("p", "p", Prod(NAT, UNIT), Prod(NAT, UNIT))), 0)
    nodes = [ax, prj_mon(pair, 1), prj_mon(pair, 2)]
    ds = [dataclasses.replace(d, aux=aux) for d in nodes for aux in (1, True, 1.0)]
    want = _check_twice_shuffled(sig, ds, 2)
    assert want[:3] == [["root: ax: no term-dynamism axiom with index 1"],
                        ["root: ax: no term-dynamism axiom with index True"],
                        ["root: ax: aux must be an axiom index"]]
    assert want[3:6] == [[]] * 3


def test_an_unhashable_node_is_checked_without_the_memo():
    # a list aux, and a function symbol whose arguments are a list
    d, = parse_derivations((FIXTURES / "galois_unit.gttd").read_text(), SIG)
    mid = d.premises[0]
    listed = dataclasses.replace(d, premises=(
        dataclasses.replace(mid, aux=list(mid.aux)), *d.premises[1:]))
    zero = FnApp("0", [])
    ds = [d, listed, refl_node(Context(), zero, NAT)]
    want = _check_twice_shuffled(default_signature(), ds, 3)
    assert want == [[], ["root.0: trans: aux must be the stored middle judgment"], []]


# -- each rule's shape, under shape faults --------------------------------------

def _shape_battery():
    """One node per primitive rule: the first of each rule in the size-3
    catalog, and by hand ``ax``, ``unit-eta`` and ``disjoint``."""
    first = {}
    for root in bench_gen.catalog_pool():
        for _, node in bench_gen._nodes_with_path(root):
            first.setdefault(node.rule, node)
    first["ax"] = _read_node(
        "(ax (concl (ctx (x y {Nat} {?})) {x} {y} {Nat} {?}) (aux 0))")
    first["unit-eta"] = _read_node(
        "(unit-eta (concl (ctx (u u {1} {1})) {u} {()} {1} {1}) (aux fwd))")
    first["disjoint"] = _disjoint("? * ?", "Nat")
    return [first[rule] for rule in sorted(first)]


def _with_entry(d: Derivation, entry) -> Derivation:
    j = d.conclusion
    phi = DynCtx(j.phi.entries + (entry,))
    return Derivation(d.rule, DynJudgment(phi, j.left, j.right, j.type_left,
                                          j.type_right), d.premises, d.aux)


_EXTRA = refl_node(Context(), num(0), NAT)

# each fault maps (signature flags, node) to a faulty pair
_SHAPE_FAULTS = {
    "extra premise": lambda flags, d: (
        flags, Derivation(d.rule, d.conclusion, d.premises + (_EXTRA,), d.aux)),
    "no premises": lambda flags, d: (
        flags, Derivation(d.rule, d.conclusion, (), d.aux)),
    "diagonal entry": lambda flags, d: (
        flags, _with_entry(d, ("y9", "y9", NAT, NAT))),
    "unused entry": lambda flags, d: (
        flags, _with_entry(d, ("y9'", "y9''", NAT, DYN))),
    "retract off": lambda flags, d: ({**flags, "retract": False}, d),
    "disjointness off": lambda flags, d: ({**flags, "disjointness": False}, d),
}


def test_shape_faults_report_the_pinned_messages():
    # the reference checker shares ``_SCHEMA``'s shape rows, so this pin is
    # what holds the shape checks to the messages each rule gave when it
    # checked its own shape
    axiom = (Context.of(("x", NAT)), Var("x"), Context.of(("y", DYN)), Var("y"))
    combos = [c for k in (0, 1, 2) for c in itertools.combinations(_SHAPE_FAULTS, k)]
    battery = _shape_battery()
    assert len(battery) == 21
    lines = []
    for d in battery:
        sig = Signature(tmdyn_axioms=(axiom,))
        assert derivation_errors(sig, d) == [], d.rule
        for combo in combos:
            flags, bad = {}, d
            for name in combo:
                flags, bad = _SHAPE_FAULTS[name](flags, bad)
            sig = Signature(tmdyn_axioms=(axiom,), **flags)
            lines.append(f"{d.rule} / {' + '.join(combo)}")
            lines.extend(derivation_errors(sig, bad))
    text = "\n".join(lines)
    assert len(lines) == 756
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "52da4b576c14ffc43f8f272d5c1c1d588f81a3c41745f6b5be16db0f7e3d56d8")


# -- every rejection line of the rule checks ------------------------------------

def _concl(d: Derivation, **fields) -> Derivation:
    """``d`` with fields of its conclusion replaced."""
    return dataclasses.replace(d, conclusion=dataclasses.replace(d.conclusion, **fields))


def _node(rule, entries, left, right, tl, tr, premises=(), aux=None) -> Derivation:
    return Derivation(rule, DynJudgment(DynCtx(tuple(entries)), left, right, tl, tr),
                      premises, aux)


def _diag(rule, ctx, left, right, ty, aux="fwd") -> Derivation:
    """A node over the diagonal of ``ctx`` at one type, as conversions are."""
    return _node(rule, DynCtx.diag(ctx).entries, left, right, ty, ty, aux=aux)


_X = Var("x")
_P = Prod(NAT, NAT)
_NAT_FN = Fn(NAT, NAT)
_REFL0 = refl_node(Context(), num(0), NAT)
_VAR_X = var_node(DynCtx.of(("x", "x", NAT, NAT)), 0)
_COMP = comp_node(_VAR_X, {"x": num(0)}, {"x": num(0)}, (_REFL0,))
_UP_ENTRY = ("x", "x", NAT, DYN)  # related types where a rule needs equal ones
_G = Context.of(("g", _NAT_FN))
_DISJ = _node("disjoint", [("x", "x", NAT, NAT)],
              Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, _X)), Err(Prod(DYN, DYN)),
              Prod(DYN, DYN), Prod(DYN, DYN))
_TRANS = trans_node(_REFL0, _REFL0)
_X_CTX = Context.of(("x", NAT))
_ENTRY = ("y", "y", NAT, NAT)  # a well-formed entry that no term mentions
_AX_SIG = Signature(tmdyn_axioms=((_X_CTX, _X, Context.of(("y", DYN)), Var("y")),))
_AX = Derivation("ax", DynJudgment(DynCtx.of(("x", "y", NAT, DYN)), _X, Var("y"),
                                   NAT, DYN), aux=0)
_PRJ = prj_mon(refl_node(Context.of(("p", Prod(NAT, UNIT))), Var("p"),
                         Prod(NAT, UNIT)), 1)
_FN_BETA = fn_beta_node(Context(), App(Lam("x", NAT, _X), num(0)), NAT)
_EVEN_SIG = Signature(base_types=("Nat", "Even"),
                      tydyn_axioms=((parse_type("Even"), NAT),),
                      base_codes={"Nat": (0, 100), "Even": (100, 200)})

# one malformed node per rejection line that a node which passes its
# presupposition can reach, each from a passing node, with every line
# ``derivation_errors`` gives for it; a third item is the signature to
# check it in, where that is not ``SIG``.  The rows of one rule keep their
# order, as the test ids number them.
RULE_ERRORS = [
    (dataclasses.replace(_REFL0, rule="frob"), ["root: unknown rule 'frob'"]),
    (_concl(_REFL0, right=UNITVAL),
     ["root: refl: right term has type 1, judgment claims Nat"]),
    (_node("refl", [_UP_ENTRY], _X, _X, NAT, DYN),
     ["root: refl: context must be diagonal (Gamma <= Gamma)",
      "root: refl: endpoint types must coincide"]),
    (_concl(_REFL0, left=Err(NAT)), ["root: refl: sides are not alpha-equal"]),
    (Derivation("refl", _REFL0.conclusion, (_REFL0,)),
     ["root: refl: takes no premises"]),
    (_concl(_TRANS, left=Err(NAT)),
     ["root: trans: left side does not match first premise"]),
    (Derivation("trans", _REFL0.conclusion, (_REFL0,)),
     ["root: trans: expects exactly two premises"]),
    (dataclasses.replace(_TRANS, premises=(refl_node(_X_CTX, num(0), NAT), _REFL0)),
     ["root: trans: left context does not match first premise",
      "root: trans: premises do not share the middle context",
      "root: trans: stored middle judgment disagrees with the premises"]),
    (dataclasses.replace(_TRANS, premises=(_REFL0, refl_node(_X_CTX, num(0), NAT))),
     ["root: trans: right context does not match second premise",
      "root: trans: premises do not share the middle context"]),
    (dataclasses.replace(_TRANS, premises=(_REFL0, refl_node(Context(), UNITVAL, UNIT))),
     ["root: trans: premises do not share the middle term",
      "root: trans: premises do not share the middle type",
      "root: trans: right side does not match second premise"]),
    (dataclasses.replace(_TRANS, aux=((), num(1), NAT)),
     ["root: trans: stored middle judgment disagrees with the premises"]),
    (dataclasses.replace(_TRANS, aux="mid"),
     ["root: trans: aux must be the stored middle judgment"]),
    (dataclasses.replace(_AX, aux=5), ["root: ax: no term-dynamism axiom with index 5"],
     _AX_SIG),
    (dataclasses.replace(_AX, aux="0"), ["root: ax: aux must be an axiom index"], _AX_SIG),
    (_concl(dataclasses.replace(_AX, aux=None), left=Err(NAT)),
     ["root: ax: conclusion is not a term-dynamism axiom of the signature"], _AX_SIG),
    (dataclasses.replace(_COMP, aux=None),
     ["root: comp: aux must carry the two substitutions"]),
    (dataclasses.replace(_COMP, aux=((("y", num(0)),), (("x", num(0)),))),
     ["root: comp: left substitution does not cover the main premise context"]),
    (dataclasses.replace(_COMP, aux=((("x", num(0)),), ())),
     ["root: comp: right substitution does not cover the main premise context"]),
    (comp_node(refl_node(Context.of(("x", DYN)), num(0), NAT), {"x": num(0)},
               {"x": num(0)}, (_REFL0,)),
     ["root: comp: substitution premise 0 proves the wrong types"]),
    (_concl(_COMP, left=Err(NAT)),
     ["root: comp: left side is not the substituted main premise"]),
    (_concl(_COMP, right=Err(NAT)),
     ["root: comp: right side is not the substituted main premise"]),
    (dataclasses.replace(_COMP, premises=(_concl(_VAR_X, left=Var("y")), _REFL0)),
     ["root.0: var: left term does not type check: unbound variable y",
      "root: comp: substitution failed: unbound variable: y"]),
    (_concl(comp_node(_VAR_X, {"x": UNITVAL}, {"x": UNITVAL},
                      (refl_node(Context(), UNITVAL, UNIT),)),
            type_left=UNIT, type_right=UNIT),
     ["root: comp: substitution premise 0 proves the wrong types",
      "root: comp: types do not match the main premise"]),
    (dataclasses.replace(_COMP, premises=()), ["root: comp: expects a main premise"]),
    (dataclasses.replace(_COMP, premises=(_VAR_X,)),
     ["root: comp: expects 2 premises, got 1"]),
    (dataclasses.replace(_COMP, aux=((("x", num(0)), ("x", num(0))), (("x", num(0)),))),
     ["root: comp: substitution binds a name twice"]),
    (dataclasses.replace(_COMP, premises=(_VAR_X, refl_node(_X_CTX, num(0), NAT))),
     ["root: comp: substitution premise 0 has a different context"]),
    (dataclasses.replace(_COMP, premises=(_VAR_X, refl_node(Context(), num(1), NAT))),
     ["root: comp: substitution premise 0 does not prove the images related"]),
    (_node("ur", [_UP_ENTRY], _X, _X, NAT, DYN),
     ["root: ur: context entry must be diagonal in its type"]),
    (_concl(ur_node(NAT, DYN), left=Err(NAT)),
     ["root: ur: left side must be the context variable"]),
    (_concl(ur_node(NAT, DYN), right=Err(DYN)),
     ["root: ur: right side must be the upcast of the context variable"]),
    (dataclasses.replace(ur_node(NAT, DYN), aux=1), ["root: ur: takes no aux"]),
    (_with_entry(ur_node(NAT, DYN), _ENTRY), ["root: ur: context must be a single entry"]),
    (_concl(ul_node(NAT, DYN), left=Err(DYN)),
     ["root: ul: left side must be the upcast of the context variable"]),
    (_concl(ul_node(NAT, DYN), right=Err(DYN)),
     ["root: ul: right side must be the context variable"]),
    (_node("dl", [_UP_ENTRY], _X, _X, NAT, DYN),
     ["root: dl: context entry must be diagonal in its type"]),
    (_concl(dl_node(NAT, DYN), left=Err(NAT)),
     ["root: dl: left side must be the downcast of the context variable"]),
    (_concl(dl_node(NAT, DYN), right=Err(DYN)),
     ["root: dl: right side must be the context variable"]),
    (_concl(dr_node(NAT, DYN), left=Err(NAT)),
     ["root: dr: left side must be the context variable"]),
    (_concl(dr_node(NAT, DYN), right=Err(NAT)),
     ["root: dr: right side must be the downcast of the context variable"]),
    (_node("retract", [_UP_ENTRY], _X, _X, NAT, DYN),
     ["root: retract: context entry must be diagonal in its type"]),
    (_concl(retract_node(NAT, DYN), left=Err(NAT)),
     ["root: retract: left side must be dn (up x) at the context type"]),
    (_concl(retract_node(NAT, DYN), right=Err(NAT)),
     ["root: retract: right side must be the context variable"]),
    (retract_node(NAT, DYN), ["root: retract: retract axiom is disabled in this signature"],
     NO_RETRACT),
    (_node("err-bot", [], num(0), Err(DYN), NAT, DYN),
     ["root: err-bot: left side must be the error constant at the judgment type",
      "root: err-bot: endpoint types must coincide"]),
    (dataclasses.replace(lam_mon(_VAR_X), premises=(
        _concl(_VAR_X, type_left=DYN, type_right=DYN),)),
     ["root.0: var: left term has type Nat, judgment claims ?",
      "root.0: var: right term has type Nat, judgment claims ?",
      "root: lam-mon: conclusion types are not the expected function types"]),
    (_concl(lam_mon(_VAR_X), left=Lam("x", NAT, Err(NAT))),
     ["root: lam-mon: left side is not the lambda of the premise"]),
    (_concl(lam_mon(_VAR_X), right=Lam("x", NAT, Err(NAT))),
     ["root: lam-mon: right side is not the lambda of the premise"]),
    (_concl(lam_mon(_VAR_X), phi=DynCtx.of(_ENTRY)),
     ["root: lam-mon: premise context must extend the conclusion context by one entry"]),
    (dataclasses.replace(lam_mon(_VAR_X), premises=()),
     ["root: lam-mon: expects one premise"]),
    (Derivation("app-mon", _REFL0.conclusion, (_REFL0, _REFL0)),
     ["root: app-mon: function premise is not at function types"]),
    (Derivation("app-mon", refl_node(_G, App(Var("g"), num(0)), NAT).conclusion,
                (refl_node(_G, Var("g"), _NAT_FN), refl_node(_G, UNITVAL, UNIT))),
     ["root: app-mon: argument premise types do not match the function domains",
      "root: app-mon: left side is not the application of the premises",
      "root: app-mon: right side is not the application of the premises"]),
    (Derivation("app-mon", refl_node(_G, UNITVAL, UNIT).conclusion,
                (refl_node(_G, Var("g"), _NAT_FN), refl_node(_G, num(0), NAT))),
     ["root: app-mon: conclusion types are not the codomains",
      "root: app-mon: left side is not the application of the premises",
      "root: app-mon: right side is not the application of the premises"]),
    (_concl(app_mon(refl_node(_G, Var("g"), _NAT_FN), refl_node(_G, num(0), NAT)),
            left=App(Var("g"), Err(NAT))),
     ["root: app-mon: left side is not the application of the premises"]),
    (_with_entry(app_mon(refl_node(_G, Var("g"), _NAT_FN), refl_node(_G, num(0), NAT)),
                 _ENTRY),
     ["root: app-mon: premises must share the conclusion context"]),
    (Derivation("pair-mon", refl_node(Context(), Pair(num(0), num(0)), _P).conclusion,
                (_REFL0, refl_node(Context(), UNITVAL, UNIT))),
     ["root: pair-mon: conclusion types are not the expected products",
      "root: pair-mon: left side is not the pairing of the premises",
      "root: pair-mon: right side is not the pairing of the premises"]),
    (_concl(pair_mon(_REFL0, _REFL0), left=Pair(Err(NAT), num(0))),
     ["root: pair-mon: left side is not the pairing of the premises"]),
    (_with_entry(pair_mon(_REFL0, _REFL0), _ENTRY),
     ["root: pair-mon: premises must share the conclusion context"]),
    (dataclasses.replace(pair_mon(_REFL0, _REFL0), premises=(_REFL0,)),
     ["root: pair-mon: expects two premises"]),
    (dataclasses.replace(_concl(prj_mon(refl_node(Context.of(("p", _P)), Var("p"), _P), 1),
                                left=Err(NAT)), aux=None),
     ["root: prj-mon: cannot determine the projection index"]),
    (Derivation("prj-mon", refl_node(Context.of(("p", _P)), Proj(1, Var("p")), NAT).conclusion,
                (refl_node(Context.of(("p", _P)), num(0), NAT),), 1),
     ["root: prj-mon: premise is not at product types"]),
    (_with_entry(_PRJ, _ENTRY), ["root: prj-mon: premise must share the conclusion context"]),
    (dataclasses.replace(_PRJ, aux=2),
     ["root: prj-mon: conclusion types are not the projected components",
      "root: prj-mon: left side is not the projection of the premise",
      "root: prj-mon: right side is not the projection of the premise"]),
    (dataclasses.replace(_PRJ, aux=3), ["root: prj-mon: aux must be 1 or 2"]),
    (_node("fn-beta", [], App(Lam("x", NAT, _X), num(0)), Upcast(NAT, DYN, num(0)),
           NAT, DYN, aux="fwd"),
     ["root: fn-beta: endpoint types must coincide",
      "root: fn-beta: contractum is not the substituted body"]),
    (dataclasses.replace(_FN_BETA, aux=None), ["root: fn-beta: aux must be fwd or bwd"]),
    (dataclasses.replace(_REFL0, rule="fn-beta", aux="fwd"),
     ["root: fn-beta: subject is not a beta redex"]),
    (_with_entry(_FN_BETA, _UP_ENTRY), ["root: fn-beta: context must be diagonal"]),
    (dataclasses.replace(_REFL0, rule="fn-eta", aux="fwd"),
     ["root: fn-eta: endpoint types must be one function type"]),
    (dataclasses.replace(fn_eta_node(_G, Var("g"), _NAT_FN, "fwd", "y"), aux=None),
     ["root: fn-eta: aux must be fwd or bwd"]),
    # f 0 <= \y. f y y: the expansion applies f y, which mentions its binder
    (_diag("fn-eta", Context.of(("f", Fn(NAT, _NAT_FN))), App(Var("f"), num(0)),
           Lam.nameless("y", NAT, App(App(Var("f"), Bound(0)), Bound(0))), _NAT_FN),
     ["root: fn-eta: expansion binder captures the subject"]),
    (_diag("fn-eta", Context.of(("g", _NAT_FN), ("h", _NAT_FN)), Var("g"),
           Lam("y", NAT, App(Var("h"), Var("y"))), _NAT_FN),
     ["root: fn-eta: expansion body does not apply the subject"]),
    (_diag("fn-eta", _G, Var("g"), Var("g"), _NAT_FN),
     ["root: fn-eta: expansion side is not an eta expansion"]),
    (_node("prod-beta", [], Proj(1, Pair(num(0), UNITVAL)), Upcast(NAT, DYN, num(0)),
           NAT, DYN, aux="fwd"),
     ["root: prod-beta: endpoint types must coincide",
      "root: prod-beta: contractum is not the projected component"]),
    (dataclasses.replace(prod_beta_node(Context(), Proj(1, Pair(num(0), UNITVAL)), NAT),
                         aux=None),
     ["root: prod-beta: aux must be fwd or bwd"]),
    (_diag("prod-beta", Context(), Proj(1, Pair(num(0), num(1))), num(1), NAT),
     ["root: prod-beta: contractum is not the projected component"]),
    (dataclasses.replace(_REFL0, rule="prod-beta", aux="fwd"),
     ["root: prod-beta: subject is not a projection redex"]),
    (dataclasses.replace(_REFL0, rule="prod-eta", aux="fwd"),
     ["root: prod-eta: endpoint types must be one product type"]),
    (dataclasses.replace(prod_eta_node(Context.of(("p", _P)), Var("p"), _P), aux=None),
     ["root: prod-eta: aux must be fwd or bwd"]),
    (_diag("prod-eta", Context.of(("p", _P), ("q", _P)), Var("p"),
           Pair(Proj(1, Var("q")), Proj(2, Var("q"))), _P),
     ["root: prod-eta: expansion does not project the subject"]),
    (_diag("prod-eta", Context.of(("p", _P)), Var("p"), Var("p"), _P),
     ["root: prod-eta: expansion side is not a product eta expansion"]),
    (dataclasses.replace(_REFL0, rule="unit-eta", aux="fwd"),
     ["root: unit-eta: endpoint types must be the unit type",
      "root: unit-eta: one side must be the unit value"]),
    (_diag("unit-eta", Context.of(("u", UNIT)), Var("u"), UNITVAL, UNIT, aux=None),
     ["root: unit-eta: aux must be fwd or bwd"]),
    (_diag("unit-eta", Context.of(("u", UNIT), ("v", UNIT)), Var("u"), Var("v"), UNIT),
     ["root: unit-eta: one side must be the unit value"]),
    (_concl(_DISJ, phi=DynCtx.of(_UP_ENTRY)),
     ["root: disjoint: context entry must be diagonal in its type"]),
    (_concl(_DISJ, right=Pair(Err(DYN), Err(DYN))),
     ["root: disjoint: conclusion must be the error constant at the target tag"]),
    (_concl(_DISJ, left=Err(Prod(DYN, DYN))),
     ["root: disjoint: left side must be a cross-tag cast through ?"]),
    (_DISJ, ["root: disjoint: disjointness axioms are disabled in this signature"],
     NO_DISJ),
    (_disjoint("? -> Nat", "Nat"), ["root: disjoint: both tags must be ground types"]),
    (_disjoint("Nat", "Even", _EVEN_SIG),
     ["root: disjoint: tags must be distinct unrelated ground types"], _EVEN_SIG),
    (_node("var", [("x", "x'", NAT, NAT), ("y", "y'", NAT, NAT)], _X, Var("y'"),
           NAT, NAT),
     ["root: var: conclusion is not a context entry"]),
    # a rule check tests no type that the presupposition has fixed: each of
    # these nodes breaks one such condition, and the presupposition rejects it
    (_node("var", [("x", "x'", NAT, NAT)], _X, Var("x'"), DYN, DYN),
     ["root: var: left term has type Nat, judgment claims ?",
      "root: var: right term has type Nat, judgment claims ?"]),
    (_concl(ur_node(NAT, DYN), type_left=DYN),
     ["root: ur: left term has type Nat, judgment claims ?"]),
    (_concl(ul_node(NAT, DYN), type_right=NAT),
     ["root: ul: right term has type ?, judgment claims Nat",
      "root: ul: type dynamism presupposition fails: ? <= Nat not derivable"]),
    (_concl(dl_node(NAT, DYN), type_right=NAT),
     ["root: dl: right term has type ?, judgment claims Nat"]),
    (_concl(dr_node(NAT, DYN), type_right=DYN),
     ["root: dr: right term has type Nat, judgment claims ?"]),
    (_concl(retract_node(NAT, DYN), type_right=DYN),
     ["root: retract: right term has type Nat, judgment claims ?"]),
    (_concl(fn_eta_node(_G, Var("g"), _NAT_FN, "fwd", "y"),
            right=Lam("y", UNIT, App(Var("g"), Var("y")))),
     ["root: fn-eta: right term does not type check: "
      "argument type 1 does not match domain Nat"]),
    (_concl(_DISJ, left=Downcast(Prod(DYN, DYN), DYN, Upcast(NAT, DYN, Var("z")))),
     ["root: disjoint: left term does not type check: unbound variable z"]),
]


def test_each_malformed_node_is_made_from_a_passing_one():
    assert derivation_errors(_AX_SIG, _AX) == []
    for d in (_REFL0, _VAR_X, _COMP, _DISJ, _TRANS, _PRJ, _FN_BETA,
              ur_node(NAT, DYN), ul_node(NAT, DYN), dl_node(NAT, DYN),
              dr_node(NAT, DYN), retract_node(NAT, DYN), lam_mon(_VAR_X),
              pair_mon(_REFL0, _REFL0),
              app_mon(refl_node(_G, Var("g"), _NAT_FN), refl_node(_G, num(0), NAT)),
              prj_mon(refl_node(Context.of(("p", _P)), Var("p"), _P), 1),
              fn_eta_node(_G, Var("g"), _NAT_FN, "fwd", "y"),
              prod_beta_node(Context(), Proj(1, Pair(num(0), UNITVAL)), NAT),
              prod_eta_node(Context.of(("p", _P)), Var("p"), _P),
              _diag("unit-eta", Context.of(("u", UNIT)), Var("u"), UNITVAL, UNIT)):
        assert derivation_errors(SIG, d) == [], d.rule


@pytest.mark.parametrize("d, lines, sig", [(*row, SIG)[:3] for row in RULE_ERRORS],
                         ids=[row[0].rule for row in RULE_ERRORS])
def test_rule_errors_are_pinned(d, lines, sig):
    assert derivation_errors(sig, d) == lines


def _messages(node: ast.AST) -> list[tuple[str, str]]:
    """Each message literal under ``node``, with ``{}`` for the holes of an
    f-string, and the pattern it prints: its literal fragments around any
    text.  Docstrings, dict keys and the operands of comparisons are no
    messages."""
    skip = set()
    for n in ast.walk(node):
        if isinstance(n, ast.FunctionDef) and ast.get_docstring(n) is not None:
            skip.add(n.body[0].value)
        elif isinstance(n, ast.Compare):
            skip.update([n.left, *n.comparators])
        elif isinstance(n, ast.Dict):
            skip.update(n.keys)
        elif isinstance(n, ast.JoinedStr):
            skip.update(n.values)
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.JoinedStr):
            parts = [v.value if isinstance(v, ast.Constant) else None for v in n.values]
            out.append(("".join(p if p is not None else "{}" for p in parts),
                        "".join(re.escape(p) if p is not None else ".+" for p in parts)))
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n not in skip):
            out.append((n.value, re.escape(n.value)))
    return out


def test_every_rule_check_message_is_pinned_in_the_table():
    # each message of the shape and rule checks must be printed by some row
    # of RULE_ERRORS, under a rule whose check holds the literal: a check
    # that no node can reach leaves its message out and fails here
    tree = ast.parse((ROOT / "src" / "gtt" / "dynamism.py").read_text())
    rules_of = {}
    for rule, row in _SCHEMA.items():
        rules_of.setdefault(row.check.__name__, set()).add(rule)
    shape = {"_rule_errors", "_PREMISES", "_DISABLED", "_AUX"}
    printed = {}
    for row in RULE_ERRORS:
        for line in row[1]:
            rule, _, message = line.partition(": ")[2].partition(": ")
            printed.setdefault(rule, set()).add(message)
    missing, scanned = [], set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            name = node.targets[0].id if isinstance(node.targets[0], ast.Name) else ""
        else:
            name = getattr(node, "name", "")
        if name not in shape and not name.startswith("_chk_"):
            continue
        scanned.add(name)
        rules = set(_SCHEMA) if name in shape else rules_of[name]
        for text, pattern in _messages(node):
            if not any(re.fullmatch(pattern, m)
                       for rule in rules for m in printed.get(rule, ())):
                missing.append((name, text))
    assert scanned == shape | set(rules_of)
    assert set(_SCHEMA) <= set(printed)
    assert missing == []
