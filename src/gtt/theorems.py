"""Derivation builders and the derived theorems about casts.

This is the one module that builds derivations; ``dynamism`` only checks
them.  It has three layers:

- node builders (``var_node`` ... ``prod_eta_node``), one per primitive
  rule the catalog uses, each computing its node's conclusion from its
  arguments and premises;
- the derived sequent-style cast rules ``ur_s``, ``ul_s``, ``dr_s`` and
  ``dl_s`` (by name through ``derive_sequent``), each a two-step template
  judgment instantiated at its premise by the substitution rule; a
  template depends only on three types and is built once for them
  (within a bounded cache);
- the catalog below.

None of it is trusted.  Every constructor returns a tuple of derivations
(two for equi-dynamism results, one per direction) built purely from the
primitive rules, so ``check_derivation`` is the single source of truth for
their correctness.

The catalog's builders take only their parameters.  A ``KINDS`` row
declares its parameter kind's arity, dynamism hypotheses, builds and
shapes; ``THEOREMS`` gives each theorem its kind and the signature flag it
needs.  ``derive_theorem`` checks a row, and the enumerator joins over it.
A builder called directly checks nothing; ``check_derivation`` decides.

Catalog:

``identity_up/dn(A)``            casts from a type to itself are identity
``decompose_up/dn(A, A', A'')``  casts factor through any middle type
``fn_cast_up/dn(A, B, A', B')``  function casts are the wrapping terms
``prod_cast_up/dn(A0, A1, ...)`` product casts cast componentwise
``fun_ext(A, B, A', B')``        pointwise-related functions are related
``strict_up(A, A')``             upcasts preserve the error constant
``strict_dn(A, A')``             downcasts do too (needs the retract flag)
``uniqueness(A, A')``            the cast rules pin casts up to order-equality
``galois_unit/counit(A, A')``    round trips over- and under-approximate
``cast_congruence(A, A', B, B')``casts are monotone in their endpoints
``equidyn_iso_1..4(A, B)``       mutually dynamic types are isomorphic
``cast_r(A1, A2, B2)``           general-cast right rule via up-then-down
``cast_l(A1, A2, B1)``           and the left rule (needs the retract flag)
``err_elim(shape, ...)``         eliminators applied to errors give errors
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Iterator, NamedTuple

from .syntax import (
    App, Bound, Context, Downcast, DYN, Err, Fn, Lam, Pair, Prod, Proj, Term,
    Type, Upcast, Var, instantiate, substitute, type_size,
)
from .typecheck import DynCtx, Signature, enumerate_types, tydyn_holds
from .dynamism import Derivation, DerivationError, DynJudgment, _rename_along


class FlagRequired(DerivationError):
    def __init__(self, theorem: str, flag: str):
        super().__init__(f"{theorem} requires the {flag} flag")
        self.flag = flag


class HypothesisError(DerivationError):
    pass


# ---------------------------------------------------------------------------
# Node builders: compute conclusions so construction sites stay readable.
# ---------------------------------------------------------------------------

def var_node(phi: DynCtx, index: int) -> Derivation:
    xl, xr, tl, tr = phi.entries[index]
    return Derivation("var", DynJudgment(phi, Var(xl), Var(xr), tl, tr))


def refl_node(ctx: Context, t: Term, ty: Type) -> Derivation:
    return Derivation("refl", DynJudgment(DynCtx.diag(ctx), t, t, ty, ty))


def trans_node(d1: Derivation, d2: Derivation) -> Derivation:
    j1, j2 = d1.conclusion, d2.conclusion
    phi = DynCtx(tuple(
        (e1[0], e2[1], e1[2], e2[3])
        for e1, e2 in zip(j1.phi.entries, j2.phi.entries)))
    middle = tuple((xr, tr) for _, xr, _, tr in j1.phi.entries)
    return Derivation(
        "trans",
        DynJudgment(phi, j1.left, j2.right, j1.type_left, j2.type_right),
        (d1, d2), aux=(middle, j1.right, j1.type_right))


def comp_node(main: Derivation, gamma: dict[str, Term], gamma2: dict[str, Term],
              subst_premises: tuple[Derivation, ...]) -> Derivation:
    mj = main.conclusion
    phi = subst_premises[0].conclusion.phi if subst_premises else DynCtx()
    left = substitute(mj.left, gamma)
    right = substitute(mj.right, gamma2)
    aux = (tuple(sorted(gamma.items())), tuple(sorted(gamma2.items())))
    return Derivation(
        "comp",
        DynJudgment(phi, left, right, mj.type_left, mj.type_right),
        (main, *subst_premises), aux=aux)


def ur_node(low: Type, high: Type, xl: str = "x", xr: str = "x") -> Derivation:
    phi = DynCtx.of((xl, xr, low, low))
    return Derivation("ur", DynJudgment(
        phi, Var(xl), Upcast(low, high, Var(xr)), low, high))


def ul_node(low: Type, high: Type, xl: str = "x", xr: str = "x'") -> Derivation:
    phi = DynCtx.of((xl, xr, low, high))
    return Derivation("ul", DynJudgment(
        phi, Upcast(low, high, Var(xl)), Var(xr), high, high))


def dl_node(low: Type, high: Type, xl: str = "x", xr: str = "x") -> Derivation:
    phi = DynCtx.of((xl, xr, high, high))
    return Derivation("dl", DynJudgment(
        phi, Downcast(low, high, Var(xl)), Var(xr), low, high))


def dr_node(low: Type, high: Type, xl: str = "x", xr: str = "x'") -> Derivation:
    phi = DynCtx.of((xl, xr, low, high))
    return Derivation("dr", DynJudgment(
        phi, Var(xl), Downcast(low, high, Var(xr)), low, low))


def retract_node(low: Type, high: Type, xl: str = "x", xr: str = "x") -> Derivation:
    phi = DynCtx.of((xl, xr, low, low))
    return Derivation("retract", DynJudgment(
        phi, Downcast(low, high, Upcast(low, high, Var(xl))), Var(xr), low, low))


def errbot_node(ctx: Context, ty: Type, t: Term) -> Derivation:
    return Derivation("err-bot", DynJudgment(DynCtx.diag(ctx), Err(ty), t, ty, ty))


def lam_mon(premise: Derivation) -> Derivation:
    p = premise.conclusion
    xl, xr, tl, tr = p.phi.entries[-1]
    phi = DynCtx(p.phi.entries[:-1])
    return Derivation("lam-mon", DynJudgment(
        phi, Lam(xl, tl, p.left), Lam(xr, tr, p.right),
        Fn(tl, p.type_left), Fn(tr, p.type_right)), (premise,))


def app_mon(fn_prem: Derivation, arg_prem: Derivation) -> Derivation:
    pf, pa = fn_prem.conclusion, arg_prem.conclusion
    return Derivation("app-mon", DynJudgment(
        pf.phi, App(pf.left, pa.left), App(pf.right, pa.right),
        pf.type_left.cod, pf.type_right.cod), (fn_prem, arg_prem))


def pair_mon(p1: Derivation, p2: Derivation) -> Derivation:
    j1, j2 = p1.conclusion, p2.conclusion
    return Derivation("pair-mon", DynJudgment(
        j1.phi, Pair(j1.left, j2.left), Pair(j1.right, j2.right),
        Prod(j1.type_left, j2.type_left), Prod(j1.type_right, j2.type_right)),
        (p1, p2))


def prj_mon(premise: Derivation, index: int) -> Derivation:
    p = premise.conclusion
    tl = p.type_left.fst if index == 1 else p.type_left.snd
    tr = p.type_right.fst if index == 1 else p.type_right.snd
    return Derivation("prj-mon", DynJudgment(
        p.phi, Proj(index, p.left), Proj(index, p.right), tl, tr),
        (premise,), aux=index)


def _conversion(rule: str, ctx: Context, subject: Term, other: Term, ty: Type,
                direction: str) -> Derivation:
    """``subject <= other`` forwards, ``other <= subject`` backwards."""
    left, right = (subject, other) if direction == "fwd" else (other, subject)
    return Derivation(rule, DynJudgment(DynCtx.diag(ctx), left, right, ty, ty), aux=direction)


def fn_beta_node(ctx: Context, redex: Term, ty: Type, direction: str = "fwd") -> Derivation:
    contractum = instantiate(redex.fn.body, redex.arg)
    return _conversion("fn-beta", ctx, redex, contractum, ty, direction)


def fn_eta_node(ctx: Context, subject: Term, ty: Fn, direction: str,
                binder: str) -> Derivation:
    expansion = Lam.nameless(binder, ty.dom, App(subject, Bound(0)))
    return _conversion("fn-eta", ctx, subject, expansion, ty, direction)


def prod_beta_node(ctx: Context, redex: Term, ty: Type, direction: str = "fwd") -> Derivation:
    contractum = redex.tup.fst if redex.index == 1 else redex.tup.snd
    return _conversion("prod-beta", ctx, redex, contractum, ty, direction)


def prod_eta_node(ctx: Context, subject: Term, ty: Prod, direction: str = "fwd") -> Derivation:
    expansion = Pair(Proj(1, subject), Proj(2, subject))
    return _conversion("prod-eta", ctx, subject, expansion, ty, direction)


# ---------------------------------------------------------------------------
# Derived sequent-style rules
# ---------------------------------------------------------------------------
#
# Each expands to comp(trans(var-or-primitive, var-or-primitive), premise):
# a two-step template judgment over fresh variables, instantiated at the
# premise's terms by the substitution rule.

@functools.lru_cache(maxsize=4096)
def _template(rule: str, a: Type, b: Type, c: Type) -> Derivation:
    """The two-step template of a sequent rule over ``y``, ``z`` and ``w``.
    It depends only on its three types, so equal templates are one object.
    The bound keeps memory flat: the size-3 catalog needs 692 templates,
    the size-5 one 25,588, of which the 4096 most recent get 97% of the
    hits."""
    match rule:
        case "ur_s":  # y <= z : a <= b, then z <= up z : b <= c
            j1, j2 = var_node(DynCtx.of(("y", "z", a, b)), 0), ur_node(b, c, "z", "z")
        case "ul_s":  # up y <= z : b <= b, then z <= w : b <= c
            j1, j2 = ul_node(a, b, "y", "z"), var_node(DynCtx.of(("z", "w", b, c)), 0)
        case "dr_s":  # y <= z : a <= b, then z <= dn w : b <= b
            j1, j2 = var_node(DynCtx.of(("y", "z", a, b)), 0), dr_node(b, c, "z", "w")
        case "dl_s":  # dn y <= z : a <= b, then z <= w : b <= c
            j1, j2 = dl_node(a, b, "y", "z"), var_node(DynCtx.of(("z", "w", b, c)), 0)
    return trans_node(j1, j2)


def _template_comp(template: Derivation, premise: Derivation) -> Derivation:
    p = premise.conclusion
    (yl, yr, _, _), = template.conclusion.phi.entries
    return comp_node(template, {yl: p.left}, {yr: p.right}, (premise,))


def ur_s(premise: Derivation, higher: Type) -> Derivation:
    """From ``t <= t' : A <= A'`` and ``A' <= A''``: ``t <= up t' : A <= A''``."""
    p = premise.conclusion
    return _template_comp(
        _template("ur_s", p.type_left, p.type_right, higher), premise)


def ul_s(premise: Derivation, mid: Type) -> Derivation:
    """From ``t <= t'' : A <= A''`` with ``A <= mid <= A''``:
    ``up[A => mid] t <= t'' : mid <= A''``."""
    p = premise.conclusion
    return _template_comp(
        _template("ul_s", p.type_left, mid, p.type_right), premise)


def dr_s(premise: Derivation, mid: Type) -> Derivation:
    """From ``t <= t'' : A <= A''`` with ``A <= mid <= A''``:
    ``t <= dn[A'' => mid] t'' : A <= mid``."""
    p = premise.conclusion
    return _template_comp(
        _template("dr_s", p.type_left, mid, p.type_right), premise)


def dl_s(premise: Derivation, low: Type) -> Derivation:
    """From ``t' <= t'' : A' <= A''`` and ``low <= A'``:
    ``dn[A' => low] t' <= t'' : low <= A''``."""
    p = premise.conclusion
    return _template_comp(
        _template("dl_s", low, p.type_left, p.type_right), premise)


_SEQUENT_RULES = {"UR_S": ur_s, "UL_S": ul_s, "DR_S": dr_s, "DL_S": dl_s}


def derive_sequent(rule: str, premise: Derivation, endpoint: Type) -> Derivation:
    """Build one of the four sequent-style cast rules from primitives.  Its
    side conditions are left for ``check_derivation`` to reject."""
    key = rule.upper().replace("-", "_")
    if key not in _SEQUENT_RULES:
        raise DerivationError(f"unknown sequent rule {rule!r}; "
                              f"expected one of {sorted(_SEQUENT_RULES)}")
    return _SEQUENT_RULES[key](premise, endpoint)


def cast_cong_dn(low: Type, high: Type, yl: str = "y", yr: str = "y'") -> Derivation:
    """``y <= y' : high <= high  |-  dn y <= dn y' : low <= low``."""
    return dr_s(dl_s(var_node(DynCtx.of((yl, yr, high, high)), 0), low), low)


def under_dn(low: Type, high: Type, premise: Derivation) -> Derivation:
    """Apply a downcast to both sides of ``t <= t' : high <= high``."""
    return _template_comp(cast_cong_dn(low, high), premise)


# ---------------------------------------------------------------------------
# Individual constructors
# ---------------------------------------------------------------------------

def identity_up(a: Type) -> tuple[Derivation, Derivation]:
    return (ul_node(a, a, "x", "x'"), ur_node(a, a, "x", "x'"))


def identity_dn(a: Type) -> tuple[Derivation, Derivation]:
    return (dl_node(a, a, "x", "x'"), dr_node(a, a, "x", "x'"))


def decompose_up(a: Type, a1: Type, a2: Type) -> tuple[Derivation, Derivation]:
    """``up[A => A''] x`` is order-equal to ``up[A' => A''] (up[A => A'] x)``."""
    x = var_node(DynCtx.of(("x", "x'", a, a)), 0)
    le = ul_s(ur_s(ur_s(x, a1), a2), a2)          # up x <= up (up x)
    ge = ul_s(ul_s(ur_s(x, a2), a1), a2)          # up (up x) <= up x
    return le, ge


def decompose_dn(a: Type, a1: Type, a2: Type) -> tuple[Derivation, Derivation]:
    """``dn[A'' => A] x`` is order-equal to ``dn[A' => A] (dn[A'' => A'] x)``."""
    x = var_node(DynCtx.of(("x", "x'", a2, a2)), 0)
    le = dr_s(dr_s(dl_s(x, a), a1), a)            # dn x <= dn (dn x)
    ge = dr_s(dl_s(dl_s(x, a1), a), a)            # dn (dn x) <= dn x
    return le, ge


def fn_cast_up(a: Type, b: Type, a1: Type, b1: Type) -> tuple[Derivation, Derivation]:
    """``up[A->B => A'->B'] f`` is the wrapper ``\\x':A'. up (f (dn x'))``."""
    f, f1 = Fn(a, b), Fn(a1, b1)
    fctx = Context.of(("f", f))

    # up f <= wrapper
    phi = DynCtx.of(("f", "f", f, f), ("x", "x'", a, a1))
    core = ur_s(app_mon(var_node(phi, 0), dr_s(var_node(phi, 1), a)), b1)
    body = trans_node(fn_eta_node(fctx, Var("f"), f, "fwd", binder="x"),
                      lam_mon(core))
    le = ul_s(body, f1)

    # wrapper <= up f
    phi2 = DynCtx.of(("f", "f", f, f), ("x'", "x'", a1, a1))
    core2 = ul_s(app_mon(ur_s(var_node(phi2, 0), f1), dl_s(var_node(phi2, 1), a)), b1)
    up_f = Upcast(f, f1, Var("f"))
    ge = trans_node(lam_mon(core2), fn_eta_node(fctx, up_f, f1, "bwd", binder="x'"))
    return le, ge


def fn_cast_dn(a: Type, b: Type, a1: Type, b1: Type) -> tuple[Derivation, Derivation]:
    """``dn[A'->B' => A->B] f`` is the wrapper ``\\x:A. dn (f (up x))``."""
    f, f1 = Fn(a, b), Fn(a1, b1)
    fctx = Context.of(("f", f1))

    # dn f <= wrapper
    phi = DynCtx.of(("f", "f", f1, f1), ("x", "x", a, a))
    core = dr_s(app_mon(dl_s(var_node(phi, 0), f), ur_s(var_node(phi, 1), a1)), b)
    dn_f = Downcast(f, f1, Var("f"))
    le = trans_node(fn_eta_node(fctx, dn_f, f, "fwd", binder="x"), lam_mon(core))

    # wrapper <= dn f
    phi2 = DynCtx.of(("f", "f", f1, f1), ("x", "x'", a, a1))
    core2 = dl_s(app_mon(var_node(phi2, 0), ul_s(var_node(phi2, 1), a1)), b)
    ge = dr_s(trans_node(lam_mon(core2),
                         fn_eta_node(fctx, Var("f"), f1, "bwd", binder="x'")), f)
    return le, ge


def prod_cast_up(a0: Type, a1: Type, b0: Type, b1: Type) -> tuple[Derivation, Derivation]:
    """``up[A0*A1 => B0*B1] p`` casts componentwise."""
    p, p1 = Prod(a0, a1), Prod(b0, b1)
    pctx = Context.of(("p", p))
    phi = DynCtx.of(("p", "p", p, p))

    # up p <= (up (fst p), up (snd p))
    comps = pair_mon(ur_s(prj_mon(var_node(phi, 0), 1), b0),
                     ur_s(prj_mon(var_node(phi, 0), 2), b1))
    le = ul_s(trans_node(prod_eta_node(pctx, Var("p"), p, "fwd"), comps), p1)

    # (up (fst p), up (snd p)) <= up p
    up_p = ur_s(var_node(phi, 0), p1)
    comps2 = pair_mon(ul_s(prj_mon(up_p, 1), b0), ul_s(prj_mon(up_p, 2), b1))
    up_term = Upcast(p, p1, Var("p"))
    ge = trans_node(comps2, prod_eta_node(pctx, up_term, p1, "bwd"))
    return le, ge


def prod_cast_dn(a0: Type, a1: Type, b0: Type, b1: Type) -> tuple[Derivation, Derivation]:
    """``dn[B0*B1 => A0*A1] p`` casts componentwise."""
    p, p1 = Prod(a0, a1), Prod(b0, b1)
    pctx = Context.of(("p", p1))
    phi = DynCtx.of(("p", "p", p1, p1))

    # dn p <= (dn (fst p), dn (snd p))
    dn_p = dl_s(var_node(phi, 0), p)
    comps = pair_mon(dr_s(prj_mon(dn_p, 1), a0), dr_s(prj_mon(dn_p, 2), a1))
    dn_term = Downcast(p, p1, Var("p"))
    le = trans_node(prod_eta_node(pctx, dn_term, p, "fwd"), comps)

    # (dn (fst p), dn (snd p)) <= dn p
    comps2 = pair_mon(dl_s(prj_mon(var_node(phi, 0), 1), a0),
                      dl_s(prj_mon(var_node(phi, 0), 2), a1))
    ge = dr_s(trans_node(comps2, prod_eta_node(pctx, Var("p"), p1, "bwd")), p)
    return le, ge


def fun_ext(a: Type, b: Type, a1: Type, b1: Type) -> tuple[Derivation]:
    """Two functions are related when applying them to related inputs
    yields related outputs; instantiated at a pair of function variables."""
    f, f1 = Fn(a, b), Fn(a1, b1)
    phi = DynCtx.of(("f", "f'", f, f1), ("x", "x'", a, a1))
    pointwise = app_mon(var_node(phi, 0), var_node(phi, 1))
    d = trans_node(
        trans_node(fn_eta_node(Context.of(("f", f)), Var("f"), f, "fwd", binder="x"),
                   lam_mon(pointwise)),
        fn_eta_node(Context.of(("f'", f1)), Var("f'"), f1, "bwd", binder="x'"))
    return (d,)


def err_lift(ctx: Context, a: Type, a1: Type, t1: Term) -> Derivation:
    """``err[A] <= t' : A <= A'`` for any ``t' : A'``, via a downcast detour."""
    return trans_node(errbot_node(ctx, a, Downcast(a, a1, t1)),
                      dl_s(refl_node(ctx, t1, a1), a))


def strict_up(a: Type, a1: Type) -> tuple[Derivation, Derivation]:
    """``up err`` is order-equal to ``err``."""
    ctx = Context()
    le = ul_s(err_lift(ctx, a, a1, Err(a1)), a1)
    ge = errbot_node(ctx, a1, Upcast(a, a1, Err(a)))
    return le, ge


def strict_dn(a: Type, a1: Type) -> tuple[Derivation, Derivation]:
    """``dn err`` is order-equal to ``err``; the interesting direction
    composes the retract axiom with upcast strictness."""
    ctx = Context()
    steps = under_dn(a, a1, errbot_node(ctx, a1, Upcast(a, a1, Err(a))))
    collapse = comp_node(retract_node(a, a1, "x", "x"),
                         {"x": Err(a)}, {"x": Err(a)},
                         (refl_node(ctx, Err(a), a),))
    le = trans_node(steps, collapse)
    ge = errbot_node(ctx, a, Downcast(a, a1, Err(a1)))
    return le, ge


def uniqueness(a: Type, a1: Type) -> tuple[Derivation, Derivation]:
    """The characterizing rules pin the casts: any two terms satisfying
    them are order-equal, here witnessed by relating a cast to itself via
    one side's introduction and the other's elimination."""
    up = ul_s(ur_s(var_node(DynCtx.of(("x", "x'", a, a)), 0), a1), a1)
    dn = cast_cong_dn(a, a1, "y", "y'")
    return up, dn


def galois_unit(a: Type, a1: Type) -> tuple[Derivation]:
    """``x <= dn (up x)``."""
    return (dr_s(ur_s(var_node(DynCtx.of(("x", "x'", a, a)), 0), a1), a),)


def galois_counit(a: Type, a1: Type) -> tuple[Derivation]:
    """``up (dn x) <= x``."""
    return (ul_s(dl_s(var_node(DynCtx.of(("x", "x'", a1, a1)), 0), a), a1),)


def cast_congruence(a: Type, a1: Type, b: Type, b1: Type) -> tuple[Derivation, Derivation]:
    """Related inputs give related casts across a dynamism square."""
    up = ul_s(ur_s(var_node(DynCtx.of(("x", "y", a, b)), 0), b1), a1)
    dn = dr_s(dl_s(var_node(DynCtx.of(("x'", "y'", a1, b1)), 0), a), b)
    return up, dn


def equidyn_iso_1(a: Type, b: Type) -> tuple[Derivation, Derivation]:
    """``up[B => A] (up[A => B] x)`` is order-equal to ``x``."""
    x = var_node(DynCtx.of(("x", "x'", a, a)), 0)
    le = ul_s(ul_s(x, b), a)
    ge = ur_s(ur_s(x, b), a)
    return le, ge


def equidyn_iso_2(a: Type, b: Type) -> tuple[Derivation, Derivation]:
    """``dn[B => A] (dn[A => B] x)`` is order-equal to ``x``."""
    x = var_node(DynCtx.of(("x", "x'", a, a)), 0)
    le = dl_s(dl_s(x, b), a)
    ge = dr_s(dr_s(x, b), a)
    return le, ge


def equidyn_iso_3(a: Type, b: Type) -> tuple[Derivation, Derivation]:
    """``dn[B => A] (up[A => B] x)`` is order-equal to ``x``; no retract
    axiom needed because the two types sit below each other."""
    x = var_node(DynCtx.of(("x", "x'", a, a)), 0)
    le = dl_s(ul_s(x, b), a)
    ge = dr_s(ur_s(x, b), a)
    return le, ge


def equidyn_iso_4(a: Type, b: Type) -> tuple[Derivation, Derivation]:
    """``up[B => A] y`` is order-equal to ``dn[A => B] y``."""
    y = var_node(DynCtx.of(("y", "y'", b, b)), 0)
    le = dr_s(ul_s(y, a), a)
    ge = ur_s(dl_s(y, a), a)
    return le, ge


def cast_r(a1: Type, a2: Type, b2: Type) -> tuple[Derivation]:
    """From ``x1 <= x2 : A1 <= A2``, the general cast of the right side to
    ``B2`` (up through ``?`` then down) stays above ``x1``."""
    prem = var_node(DynCtx.of(("x1", "x2", a1, a2)), 0)
    return (dr_s(ur_s(prem, DYN), b2),)


def cast_l(a1: Type, a2: Type, b1: Type) -> tuple[Derivation]:
    """From ``x1 <= x2 : A1 <= A2``, the general cast of the left side to
    ``B1 <= A2`` stays below ``x2``.  Routes the cast through ``A2``
    instead of ``?`` using decomposition and the retract axiom."""

    ctx1 = Context.of(("x1", a1))
    x1 = Var("x1")
    up_a1 = Upcast(a1, DYN, x1)                       # up[A1 => ?] x1
    up_fac = Upcast(a2, DYN, Upcast(a1, a2, x1))  # up[A2 => ?] (up[A1 => A2] x1)

    # dn[? => B1] (up[A1 => ?] x1)  <=  dn[? => B1] (up[A2 => ?] (up[A1 => A2] x1))
    dec_up = comp_node(decompose_up(a1, a2, DYN)[0],
                       {"x": x1}, {"x'": x1}, (refl_node(ctx1, x1, a1),))
    step1 = under_dn(b1, DYN, dec_up)

    # ... <= dn[A2 => B1] (dn[? => A2] (up[A2 => ?] (up[A1 => A2] x1)))
    dec_dn = comp_node(decompose_dn(b1, a2, DYN)[0],
                       {"x": up_fac}, {"x'": up_fac},
                       (refl_node(ctx1, up_fac, DYN),))

    # retract at A2 <= ? collapses the middle round trip under dn[A2 => B1]
    inner = Upcast(a1, a2, x1)
    rt = comp_node(retract_node(a2, DYN, "z", "z"),
                   {"z": inner}, {"z": inner}, (refl_node(ctx1, inner, a2),))
    step3 = under_dn(b1, a2, rt)

    factor = trans_node(trans_node(step1, dec_dn), step3)

    prem = var_node(DynCtx.of(("x1", "x2", a1, a2)), 0)
    core = dl_s(ul_s(prem, a2), b1)
    return (trans_node(factor, core),)


def err_elim(shape: str, a: Type, b: Type) -> tuple[Derivation, Derivation]:
    """Applying or projecting an error gives an error."""
    if shape == "app":
        fty = Fn(a, b)
        ctx = Context.of(("u", a))
        phi = DynCtx.diag(ctx)
        redex = App(Lam("x", a, Err(b)), Var("u"))
        le = trans_node(
            app_mon(errbot_node(ctx, fty, Lam("x", a, Err(b))), var_node(phi, 0)),
            fn_beta_node(ctx, redex, b, "fwd"))
        ge = errbot_node(ctx, b, App(Err(fty), Var("u")))
        return le, ge
    i = 1 if shape == "prj1" else 2
    pty = Prod(a, b)
    ctx = Context()
    target = a if i == 1 else b
    redex = Proj(i, Pair(Err(a), Err(b)))
    le = trans_node(
        prj_mon(errbot_node(ctx, pty, Pair(Err(a), Err(b))), i),
        prod_beta_node(ctx, redex, target, "fwd"))
    ge = errbot_node(ctx, target, Proj(i, Err(pty)))
    return le, ge


# ---------------------------------------------------------------------------
# Catalog and enumeration
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    """A parameter kind, the one statement of its facts.  ``hypotheses``
    are pairs ``(i, j)`` meaning ``p[i] <= p[j]``, in check order, where a
    side is a parameter position or a fixed type; ``builds`` are the
    position pairs a theorem combines into ``a -> b`` or ``a * b``;
    ``shapes`` are the eliminator shapes the first parameter ranges over."""
    arity: int
    hypotheses: tuple = ()
    builds: tuple[tuple[int, int], ...] = ()
    shapes: tuple[str, ...] = ()


KINDS: dict[str, Kind] = {
    "ty": Kind(1),
    "pair": Kind(2, ((0, 1),)),
    "chain": Kind(3, ((0, 1), (1, 2))),
    "pair2": Kind(4, ((0, 2), (1, 3)), builds=((0, 1), (2, 3))),
    "square": Kind(4, ((0, 1), (2, 3), (0, 2), (1, 3))),
    "equi": Kind(2, ((0, 1), (1, 0))),
    "tri_r": Kind(3, ((0, 1), (0, 2), (1, DYN), (2, DYN))),
    "tri_l": Kind(3, ((0, 1), (2, 1), (0, DYN), (2, DYN))),
    "errsh": Kind(3, builds=((1, 2),), shapes=("app", "prj1", "prj2")),
}


class Theorem(NamedTuple):
    kind: str
    build: Callable[..., tuple[Derivation, ...]]
    flag: str | None = None     # the signature flag the theorem needs


THEOREMS: dict[str, Theorem] = {
    "identity_up": Theorem("ty", identity_up),
    "identity_dn": Theorem("ty", identity_dn),
    "decompose_up": Theorem("chain", decompose_up),
    "decompose_dn": Theorem("chain", decompose_dn),
    "fn_cast_up": Theorem("pair2", fn_cast_up),
    "fn_cast_dn": Theorem("pair2", fn_cast_dn),
    "prod_cast_up": Theorem("pair2", prod_cast_up),
    "prod_cast_dn": Theorem("pair2", prod_cast_dn),
    "fun_ext": Theorem("pair2", fun_ext),
    "strict_up": Theorem("pair", strict_up),
    "strict_dn": Theorem("pair", strict_dn, "retract"),
    "uniqueness": Theorem("pair", uniqueness),
    "galois_unit": Theorem("pair", galois_unit),
    "galois_counit": Theorem("pair", galois_counit),
    "cast_congruence": Theorem("square", cast_congruence),
    "equidyn_iso_1": Theorem("equi", equidyn_iso_1),
    "equidyn_iso_2": Theorem("equi", equidyn_iso_2),
    "equidyn_iso_3": Theorem("equi", equidyn_iso_3),
    "equidyn_iso_4": Theorem("equi", equidyn_iso_4),
    "cast_r": Theorem("tri_r", cast_r),
    "cast_l": Theorem("tri_l", cast_l, "retract"),
    "err_elim": Theorem("errsh", err_elim),
}

# The subset whose two sides must also agree under cast elaboration.
REDUCTION_THEOREMS = (
    "identity_up", "identity_dn", "decompose_up", "decompose_dn",
    "fn_cast_up", "fn_cast_dn", "prod_cast_up", "prod_cast_dn",
    "strict_up", "strict_dn",
)


def derive_theorem(sig: Signature, name: str, *params) -> tuple[Derivation, ...]:
    """Check the theorem's arity, then its flag, then its kind's shapes
    and hypotheses in order, and build it."""
    if name not in THEOREMS:
        raise DerivationError(f"unknown theorem {name!r}")
    kind, build, flag = THEOREMS[name]
    row = KINDS[kind]
    if len(params) != row.arity:
        raise DerivationError(f"{name} expects {row.arity} parameters, got {len(params)}")
    if flag and not getattr(sig, flag):
        raise FlagRequired(name, flag)
    if row.shapes and params[0] not in row.shapes:
        raise DerivationError(f"unknown {name} shape {params[0]!r}")
    for a, b in _sides(row.hypotheses, params):
        if not tydyn_holds(sig, a, b):
            from .grammar import type_to_text
            raise HypothesisError(
                f"{name}: {type_to_text(a)} <= {type_to_text(b)} is not derivable")
    return build(*params)


def conclusion_equation(d: Derivation) -> tuple[Context, Term, Term]:
    """A derivation's conclusion as an equation over its left context,
    with right-side variables renamed to their left partners.  Only
    meaningful when the context pairs variables at equal types, as the
    reduction theorems do."""
    j = d.conclusion
    left, right = j.phi.left_ctx(), j.phi.right_ctx()
    return left, j.left, _rename_along(j.right, right, left)


def _sides(pairs, params) -> Iterator[tuple]:
    """Each pair with its parameter positions read off ``params``."""
    for a, b in pairs:
        yield (params[a] if isinstance(a, int) else a,
               params[b] if isinstance(b, int) else b)


def _params_for(sig: Signature, kind: Kind, types: list[Type], size: int
                ) -> Iterator[tuple]:
    """Parameter tuples of one kind, in catalog order, by one join over its
    row.  Positions are bound in the order the hypotheses first name them,
    then the rest.  A position ranges over the types above an earlier
    position when a hypothesis says so, over the shapes if it is the first
    and the kind has them, and over every type otherwise.  Every other
    hypothesis and every build's size budget is tested as soon as all its
    positions are bound."""
    order = list(dict.fromkeys(
        [i for h in kind.hypotheses for i in h if isinstance(i, int)]
        + list(range(kind.arity))))
    above = {a: [b for b in types if tydyn_holds(sig, a, b)] for a in types}
    sizes = {a: type_size(a) for a in types}

    def ready(pairs, k):    # the pairs whose last position is bound at step k
        return [h for h in pairs if order[k] in h
                and all(i in order[:k + 1] for i in h if isinstance(i, int))]
    steps = []
    for k, pos in enumerate(order):
        tests = ready(kind.hypotheses, k)
        low = next((i for i, j in tests if j == pos and isinstance(i, int)), None)
        tests = [h for h in tests if h != (low, pos)]
        fixed = (pos == 0 and kind.shapes) or types
        steps.append((pos, low, fixed, tests, ready(kind.builds, k)))

    def join(p: list, k: int) -> Iterator[tuple]:
        if k == len(steps):
            yield tuple(p)
            return
        pos, low, fixed, tests, budgets = steps[k]
        for t in fixed if low is None else above[p[low]]:
            p[pos] = t
            if (all(sizes[p[i]] + sizes[p[j]] < size for i, j in budgets)
                    and all(tydyn_holds(sig, a, b) for a, b in _sides(tests, p))):
                yield from join(p, k + 1)
    return join([None] * kind.arity, 0)


def theorem_instances(sig: Signature, size: int = 3,
                      names: Iterable[str] | None = None,
                      types: list[Type] | None = None
                      ) -> Iterator[tuple[str, tuple, tuple[Derivation, ...] | str]]:
    """Instantiate every catalog theorem at every hypothesis-satisfying
    parameter tuple whose instantiated conclusions mention only types of
    the given size or smaller.  Given types larger than the size are
    dropped first; the join then yields only the tuples that fit, so every
    derivation built is kept.

    Yields ``(name, params, derivations)``; a flag-gated theorem whose
    flag is off yields the string ``"SKIPPED(flag)"`` instead.
    """
    if types is None:
        types = enumerate_types(sig, size)
    types = [ty for ty in types if type_size(ty) <= size]
    for name in (THEOREMS if names is None else names):
        for params in _params_for(sig, KINDS[THEOREMS[name].kind], types, size):
            try:
                ds = derive_theorem(sig, name, *params)
            except FlagRequired:
                ds = "SKIPPED(flag)"
            yield name, params, ds
