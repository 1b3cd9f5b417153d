"""Term-dynamism judgments, derivation trees and the proof checker.

A judgment ``phi |- t <= t' : A <= A'`` says the left term errors more
than the right but is otherwise equal, relative to a context-dynamism
pairing ``phi``.  Derivations are explicit trees: one node per primitive
rule, every node carrying its full conclusion, so checking is local and
needs no search.

Primitive rules (file-format names in parentheses):

====================  =======================================================
var                   variable lookup in the dynamism context
comp                  substitution into a judgment, one premise per entry
refl                  ``t <= t`` over a diagonal context
trans                 composition through an explicit middle judgment
ax                    membership in the signature's term-dynamism axioms
ur, ul, dl, dr        the four cast rules: an upcast is the least term
                      above its subject, a downcast the greatest below
retract               ``dn (up x) <= x`` (flag-gated)
err-bot               the error constant is least at its type
lam-mon, app-mon,     congruence for lambda, application, pairing and
pair-mon, prj-mon     projection
fn-beta, fn-eta,      beta and eta laws, tagged with a direction since each
prod-beta, prod-eta,  holds as an equi-dynamism
unit-eta
disjoint              cross-tag ground casts error (flag-gated)
====================  =======================================================

The derived sequent-style rules (``ur_s`` etc.) and everything in
``theorems`` expand into these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .syntax import (
    App, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, Pair, Prod,
    Proj, Term, Type, Unit, UNIT, UnitVal, UNITVAL, Upcast, Var, alpha_eq,
    free_vars, fresh_name, subst1, substitute,
)
from .typecheck import (
    DynCtx, Signature, TypeCheckError, check_dynctx_wf, infer_type,
    tydyn_holds,
)


class DerivationError(GttError):
    pass


@dataclass(frozen=True, slots=True)
class DynJudgment:
    phi: DynCtx
    left: Term
    right: Term
    type_left: Type
    type_right: Type

    def describe(self) -> str:
        from .grammar import term_to_text, type_to_text
        return (f"{term_to_text(self.left)} <= {term_to_text(self.right)} : "
                f"{type_to_text(self.type_left)} <= {type_to_text(self.type_right)}")


@dataclass(frozen=True, slots=True)
class Derivation:
    rule: str
    conclusion: DynJudgment
    premises: tuple["Derivation", ...] = ()
    aux: Any = None


RULES = frozenset({
    "var", "comp", "refl", "trans", "ax",
    "ur", "ul", "dl", "dr", "retract", "err-bot",
    "lam-mon", "app-mon", "pair-mon", "prj-mon",
    "fn-beta", "fn-eta", "prod-beta", "prod-eta", "unit-eta",
    "disjoint",
})


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_derivation(sig: Signature, d: Derivation) -> bool:
    return not derivation_errors(sig, d)


def derivation_errors(sig: Signature, d: Derivation) -> list[str]:
    """Every schema or presupposition violation, one line per failure,
    each prefixed with the path of premise indices from the root."""
    errors: list[str] = []
    _check_node(sig, d, "root", errors)
    return errors


def _check_node(sig: Signature, d: Derivation, path: str, errors: list[str]):
    for i, prem in enumerate(d.premises):
        _check_node(sig, prem, f"{path}.{i}", errors)
    pres = _presupposition_errors(sig, d.conclusion)
    if pres:
        errors.extend(f"{path}: {d.rule}: {msg}" for msg in pres)
        return
    if d.rule not in RULES:
        errors.append(f"{path}: unknown rule {d.rule!r}")
        return
    for msg in _SCHEMA[d.rule](sig, d):
        errors.append(f"{path}: {d.rule}: {msg}")


def _presupposition_errors(sig: Signature, j: DynJudgment) -> list[str]:
    out = []
    try:
        if not check_dynctx_wf(sig, j.phi):
            out.append("context dynamism presupposition fails")
            return out
    except GttError as e:
        return [f"bad dynamism context: {e}"]
    try:
        tl = infer_type(sig, j.phi.left_ctx(), j.left)
        if tl != j.type_left:
            out.append(f"left term has type {tl}, judgment claims {j.type_left}")
    except GttError as e:
        out.append(f"left term does not type check: {e}")
    try:
        tr = infer_type(sig, j.phi.right_ctx(), j.right)
        if tr != j.type_right:
            out.append(f"right term has type {tr}, judgment claims {j.type_right}")
    except GttError as e:
        out.append(f"right term does not type check: {e}")
    if not tydyn_holds(sig, j.type_left, j.type_right):
        out.append(f"type dynamism presupposition fails: "
                   f"{j.type_left} <= {j.type_right} not derivable")
    return out


def _single_entry(j: DynJudgment):
    if len(j.phi) != 1:
        return None
    return j.phi.entries[0]


def _chk_var(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    for xl, xr, tl, tr in j.phi:
        if j.left == Var(xl) and j.right == Var(xr):
            if j.type_left != tl or j.type_right != tr:
                return ["variable types disagree with the context entry"]
            return []
    return ["conclusion is not a context entry"]


def _chk_refl(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal (Gamma <= Gamma)")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    if not alpha_eq(j.left, j.right):
        out.append("sides are not alpha-equal")
    return out


def _rename_along(t: Term, src: Context, dst: Context) -> Term:
    """Rename free variables pointwise from one context's names to
    another's; contexts pair positionally."""
    sigma = {x: Var(y) for (x, _), (y, _) in zip(src.entries, dst.entries)}
    for v in free_vars(t):
        sigma.setdefault(v, Var(v))
    return substitute(t, sigma)


def _chk_trans(sig, d):
    if len(d.premises) != 2:
        return ["expects exactly two premises"]
    j = d.conclusion
    j1, j2 = d.premises[0].conclusion, d.premises[1].conclusion
    out = []
    if j1.phi.left_ctx() != j.phi.left_ctx():
        out.append("left context does not match first premise")
    if j2.phi.right_ctx() != j.phi.right_ctx():
        out.append("right context does not match second premise")
    mid1, mid2 = j1.phi.right_ctx(), j2.phi.left_ctx()
    if [ty for _, ty in mid1] != [ty for _, ty in mid2]:
        out.append("premises do not share the middle context")
    elif not alpha_eq(j1.right, _rename_along(j2.left, mid2, mid1)):
        out.append("premises do not share the middle term")
    if j1.type_right != j2.type_left:
        out.append("premises do not share the middle type")
    if not alpha_eq(j1.left, j.left) or j1.type_left != j.type_left:
        out.append("left side does not match first premise")
    if not alpha_eq(j2.right, j.right) or j2.type_right != j.type_right:
        out.append("right side does not match second premise")
    if d.aux is not None:
        if not (isinstance(d.aux, tuple) and len(d.aux) == 3):
            return out + ["aux must be the stored middle judgment"]
        mid_ctx, mid_term, mid_type = d.aux
        if ([ty for _, ty in mid_ctx] != [ty for _, ty in mid1]
                or not alpha_eq(_rename_along(mid_term, mid_ctx, mid1), j1.right)
                or mid_type != j1.type_right):
            out.append("stored middle judgment disagrees with the premises")
    return out


def _chk_ax(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    indices = [d.aux] if isinstance(d.aux, int) else range(len(sig.tmdyn_axioms))
    for i in indices:
        if not 0 <= i < len(sig.tmdyn_axioms):
            return [f"no term-dynamism axiom with index {i}"]
        lctx, lt, rctx, rt = sig.tmdyn_axioms[i]
        if (j.phi.left_ctx() == lctx and j.phi.right_ctx() == rctx
                and alpha_eq(j.left, lt) and alpha_eq(j.right, rt)):
            return []
    return ["conclusion is not a term-dynamism axiom of the signature"]


def _chk_comp(sig, d):
    if not d.premises:
        return ["expects a main premise"]
    main = d.premises[0].conclusion
    j = d.conclusion
    if len(d.premises) != 1 + len(main.phi):
        return [f"expects {1 + len(main.phi)} premises, got {len(d.premises)}"]
    if not (isinstance(d.aux, tuple) and len(d.aux) == 2):
        return ["aux must carry the two substitutions"]
    gamma, gamma2 = (dict(d.aux[0]), dict(d.aux[1]))
    out = []
    if set(gamma) != {xl for xl, _, _, _ in main.phi}:
        out.append("left substitution does not cover the main premise context")
    if set(gamma2) != {xr for _, xr, _, _ in main.phi}:
        out.append("right substitution does not cover the main premise context")
    if out:
        return out
    for i, (xl, xr, tl, tr) in enumerate(main.phi):
        sub = d.premises[1 + i].conclusion
        if sub.phi != j.phi:
            out.append(f"substitution premise {i} has a different context")
        if not alpha_eq(sub.left, gamma[xl]) or not alpha_eq(sub.right, gamma2[xr]):
            out.append(f"substitution premise {i} does not prove the images related")
        if sub.type_left != tl or sub.type_right != tr:
            out.append(f"substitution premise {i} proves the wrong types")
    try:
        if not alpha_eq(j.left, substitute(main.left, gamma)):
            out.append("left side is not the substituted main premise")
        if not alpha_eq(j.right, substitute(main.right, gamma2)):
            out.append("right side is not the substituted main premise")
    except GttError as e:
        out.append(f"substitution failed: {e}")
    if j.type_left != main.type_left or j.type_right != main.type_right:
        out.append("types do not match the main premise")
    return out


def _chk_ur(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    if j.left != Var(xl):
        return ["left side must be the context variable"]
    if j.right != Upcast(tl, j.type_right, Var(xr)):
        return ["right side must be the upcast of the context variable"]
    if j.type_left != tl:
        return ["left type must be the context type"]
    return []


def _chk_ul(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    if j.left != Upcast(tl, tr, Var(xl)):
        return ["left side must be the upcast of the context variable"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    if j.type_left != tr or j.type_right != tr:
        return ["conclusion types must both be the more dynamic endpoint"]
    return []


def _chk_dl(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    if j.left != Downcast(j.type_left, tl, Var(xl)):
        return ["left side must be the downcast of the context variable"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    if j.type_right != tr:
        return ["right type must be the context type"]
    return []


def _chk_dr(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    if j.left != Var(xl):
        return ["left side must be the context variable"]
    if j.right != Downcast(tl, tr, Var(xr)):
        return ["right side must be the downcast of the context variable"]
    if j.type_left != tl or j.type_right != tl:
        return ["conclusion types must both be the less dynamic endpoint"]
    return []


def _chk_retract(sig, d):
    if not sig.retract:
        return ["retract axiom is disabled in this signature"]
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    match j.left:
        case Downcast(lo, hi, Upcast(lo2, hi2, Var(x))) if (
                lo == lo2 == tl and hi == hi2 and x == xl):
            pass
        case _:
            return ["left side must be dn (up x) at the context type"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    if j.type_left != tl or j.type_right != tl:
        return ["conclusion types must both be the context type"]
    return []


def _chk_errbot(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.left != Err(j.type_left):
        out.append("left side must be the error constant at the judgment type")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    return out


def _chk_lam_mon(sig, d):
    if len(d.premises) != 1:
        return ["expects one premise"]
    j = d.conclusion
    p = d.premises[0].conclusion
    if len(p.phi) != len(j.phi) + 1 or p.phi.entries[:-1] != j.phi.entries:
        return ["premise context must extend the conclusion context by one entry"]
    xl, xr, tl, tr = p.phi.entries[-1]
    out = []
    if j.type_left != Fn(tl, p.type_left) or j.type_right != Fn(tr, p.type_right):
        out.append("conclusion types are not the expected function types")
    if not alpha_eq(j.left, Lam(xl, tl, p.left)):
        out.append("left side is not the lambda of the premise")
    if not alpha_eq(j.right, Lam(xr, tr, p.right)):
        out.append("right side is not the lambda of the premise")
    return out


def _chk_app_mon(sig, d):
    if len(d.premises) != 2:
        return ["expects two premises"]
    j = d.conclusion
    pf, pa = d.premises[0].conclusion, d.premises[1].conclusion
    out = []
    if pf.phi != j.phi or pa.phi != j.phi:
        out.append("premises must share the conclusion context")
    if not (isinstance(pf.type_left, Fn) and isinstance(pf.type_right, Fn)):
        return out + ["function premise is not at function types"]
    if pf.type_left.dom != pa.type_left or pf.type_right.dom != pa.type_right:
        out.append("argument premise types do not match the function domains")
    if j.type_left != pf.type_left.cod or j.type_right != pf.type_right.cod:
        out.append("conclusion types are not the codomains")
    if not alpha_eq(j.left, App(pf.left, pa.left)):
        out.append("left side is not the application of the premises")
    if not alpha_eq(j.right, App(pf.right, pa.right)):
        out.append("right side is not the application of the premises")
    return out


def _chk_pair_mon(sig, d):
    if len(d.premises) != 2:
        return ["expects two premises"]
    j = d.conclusion
    p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
    out = []
    if p1.phi != j.phi or p2.phi != j.phi:
        out.append("premises must share the conclusion context")
    if j.type_left != Prod(p1.type_left, p2.type_left) or \
            j.type_right != Prod(p1.type_right, p2.type_right):
        out.append("conclusion types are not the expected products")
    if not alpha_eq(j.left, Pair(p1.left, p2.left)):
        out.append("left side is not the pairing of the premises")
    if not alpha_eq(j.right, Pair(p1.right, p2.right)):
        out.append("right side is not the pairing of the premises")
    return out


def _chk_prj_mon(sig, d):
    if len(d.premises) != 1:
        return ["expects one premise"]
    j = d.conclusion
    p = d.premises[0].conclusion
    i = d.aux if d.aux in (1, 2) else (
        j.left.index if isinstance(j.left, Proj) else None)
    if i not in (1, 2):
        return ["cannot determine the projection index"]
    out = []
    if p.phi != j.phi:
        out.append("premise must share the conclusion context")
    if not (isinstance(p.type_left, Prod) and isinstance(p.type_right, Prod)):
        return out + ["premise is not at product types"]
    want_l = p.type_left.fst if i == 1 else p.type_left.snd
    want_r = p.type_right.fst if i == 1 else p.type_right.snd
    if j.type_left != want_l or j.type_right != want_r:
        out.append("conclusion types are not the projected components")
    if not alpha_eq(j.left, Proj(i, p.left)):
        out.append("left side is not the projection of the premise")
    if not alpha_eq(j.right, Proj(i, p.right)):
        out.append("right side is not the projection of the premise")
    return out


def _oriented(j: DynJudgment, aux) -> tuple[Term, Term] | None:
    if aux == "fwd":
        return j.left, j.right
    if aux == "bwd":
        return j.right, j.left
    return None


def _chk_fn_beta(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    redex, contractum = oriented
    match redex:
        case App(Lam(x, _, body), arg):
            if not alpha_eq(contractum, subst1(body, x, arg)):
                out.append("contractum is not the substituted body")
        case _:
            out.append("subject is not a beta redex")
    return out


def _chk_fn_eta(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.type_left != j.type_right or not isinstance(j.type_left, Fn):
        out.append("endpoint types must be one function type")
        return out
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    subject, expansion = oriented
    match expansion:
        case Lam(y, annot, App(g, Var(y2))) if y == y2:
            if annot != j.type_left.dom:
                out.append("expansion annotates the wrong domain")
            if y in free_vars(g):
                out.append("expansion binder captures the subject")
            elif not alpha_eq(g, subject):
                out.append("expansion body does not apply the subject")
        case _:
            out.append("expansion side is not an eta expansion")
    return out


def _chk_prod_beta(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    redex, contractum = oriented
    match redex:
        case Proj(i, Pair(t1, t2)):
            if not alpha_eq(contractum, t1 if i == 1 else t2):
                out.append("contractum is not the projected component")
        case _:
            out.append("subject is not a projection redex")
    return out


def _chk_prod_eta(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.type_left != j.type_right or not isinstance(j.type_left, Prod):
        out.append("endpoint types must be one product type")
        return out
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    subject, expansion = oriented
    match expansion:
        case Pair(Proj(1, g1), Proj(2, g2)):
            if not (alpha_eq(g1, subject) and alpha_eq(g2, subject)):
                out.append("expansion does not project the subject")
        case _:
            out.append("expansion side is not a product eta expansion")
    return out


def _chk_unit_eta(sig, d):
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal")
    if j.type_left != UNIT or j.type_right != UNIT:
        out.append("endpoint types must be the unit type")
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    _, unit_side = oriented
    if unit_side != UNITVAL:
        out.append("one side must be the unit value")
    return out


def _chk_disjoint(sig, d):
    from .elaborate import _unrelated_grounds, is_ground
    if not sig.disjointness:
        return ["disjointness axioms are disabled in this signature"]
    if d.premises:
        return ["takes no premises"]
    j = d.conclusion
    entry = _single_entry(j)
    if entry is None:
        return ["context must be a single entry"]
    xl, xr, tl, tr = entry
    out = []
    if tl != tr:
        out.append("context entry must be diagonal in its type")
    match j.left:
        case Downcast(g, hi, Upcast(g2, hi2, Var(x))) if hi == DYN and hi2 == DYN:
            if x != xl or g2 != tl:
                out.append("left side must cast the context variable through ?")
            if not (is_ground(g) and is_ground(g2)):
                out.append("both tags must be ground types")
            elif not _unrelated_grounds(sig, g, g2):
                out.append("tags must be distinct unrelated ground types")
            if j.right != Err(g) or j.type_left != g or j.type_right != g:
                out.append("conclusion must be the error constant at the target tag")
        case _:
            out.append("left side must be a cross-tag cast through ?")
    return out


_SCHEMA = {
    "var": _chk_var,
    "comp": _chk_comp,
    "refl": _chk_refl,
    "trans": _chk_trans,
    "ax": _chk_ax,
    "ur": _chk_ur,
    "ul": _chk_ul,
    "dl": _chk_dl,
    "dr": _chk_dr,
    "retract": _chk_retract,
    "err-bot": _chk_errbot,
    "lam-mon": _chk_lam_mon,
    "app-mon": _chk_app_mon,
    "pair-mon": _chk_pair_mon,
    "prj-mon": _chk_prj_mon,
    "fn-beta": _chk_fn_beta,
    "fn-eta": _chk_fn_eta,
    "prod-beta": _chk_prod_beta,
    "prod-eta": _chk_prod_eta,
    "unit-eta": _chk_unit_eta,
    "disjoint": _chk_disjoint,
}


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
    mid = (j1.phi.right_ctx(), j1.right, j1.type_right)
    return Derivation(
        "trans",
        DynJudgment(phi, j1.left, j2.right, j1.type_left, j2.type_right),
        (d1, d2), aux=mid)


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


def ax_node(sig: Signature, index: int) -> Derivation:
    lctx, lt, rctx, rt = sig.tmdyn_axioms[index]
    phi = DynCtx(tuple(
        (xl, xr, tl, tr)
        for (xl, tl), (xr, tr) in zip(lctx.entries, rctx.entries)))
    return Derivation(
        "ax",
        DynJudgment(phi, lt, rt,
                    infer_type(sig, lctx, lt), infer_type(sig, rctx, rt)),
        aux=index)


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


def fn_beta_node(ctx: Context, redex: Term, ty: Type, direction: str = "fwd") -> Derivation:
    contractum = subst1(redex.fn.body, redex.fn.var, redex.arg)
    left, right = (redex, contractum) if direction == "fwd" else (contractum, redex)
    return Derivation("fn-beta", DynJudgment(
        DynCtx.diag(ctx), left, right, ty, ty), aux=direction)


def fn_eta_node(ctx: Context, subject: Term, ty: Fn, direction: str = "fwd",
                binder: str | None = None) -> Derivation:
    y = binder or fresh_name("x", free_vars(subject) | ctx.names())
    expansion = Lam(y, ty.dom, App(subject, Var(y)))
    left, right = (subject, expansion) if direction == "fwd" else (expansion, subject)
    return Derivation("fn-eta", DynJudgment(
        DynCtx.diag(ctx), left, right, ty, ty), aux=direction)


def prod_beta_node(ctx: Context, redex: Term, ty: Type, direction: str = "fwd") -> Derivation:
    pair = redex.tup
    contractum = pair.fst if redex.index == 1 else pair.snd
    left, right = (redex, contractum) if direction == "fwd" else (contractum, redex)
    return Derivation("prod-beta", DynJudgment(
        DynCtx.diag(ctx), left, right, ty, ty), aux=direction)


def prod_eta_node(ctx: Context, subject: Term, ty: Prod, direction: str = "fwd") -> Derivation:
    expansion = Pair(Proj(1, subject), Proj(2, subject))
    left, right = (subject, expansion) if direction == "fwd" else (expansion, subject)
    return Derivation("prod-eta", DynJudgment(
        DynCtx.diag(ctx), left, right, ty, ty), aux=direction)


def unit_eta_node(ctx: Context, subject: Term, direction: str = "fwd") -> Derivation:
    left, right = (subject, UNITVAL) if direction == "fwd" else (UNITVAL, subject)
    return Derivation("unit-eta", DynJudgment(
        DynCtx.diag(ctx), left, right, UNIT, UNIT), aux=direction)


def disjoint_node(target: Type, source: Type, xl: str = "x", xr: str = "x") -> Derivation:
    phi = DynCtx.of((xl, xr, source, source))
    left = Downcast(target, DYN, Upcast(source, DYN, Var(xl)))
    return Derivation("disjoint", DynJudgment(
        phi, left, Err(target), target, target))


# ---------------------------------------------------------------------------
# Derived sequent-style rules
# ---------------------------------------------------------------------------
#
# Each expands to comp(trans(var-or-primitive, var-or-primitive), premise):
# a two-step template judgment over fresh variables, instantiated at the
# premise's terms by the substitution rule.

def _template_comp(template: Derivation, premise: Derivation) -> Derivation:
    p = premise.conclusion
    (yl, yr, _, _), = template.conclusion.phi.entries
    return comp_node(template, {yl: p.left}, {yr: p.right}, (premise,))


def ur_s(premise: Derivation, higher: Type) -> Derivation:
    """From ``t <= t' : A <= A'`` and ``A' <= A''``: ``t <= up t' : A <= A''``."""
    p = premise.conclusion
    a, a1 = p.type_left, p.type_right
    j1 = var_node(DynCtx.of(("y", "z", a, a1)), 0)
    j2 = ur_node(a1, higher, "z", "z")
    return _template_comp(trans_node(j1, j2), premise)


def ul_s(premise: Derivation, mid: Type) -> Derivation:
    """From ``t <= t'' : A <= A''`` with ``A <= mid <= A''``:
    ``up[A => mid] t <= t'' : mid <= A''``."""
    p = premise.conclusion
    a, a2 = p.type_left, p.type_right
    j1 = ul_node(a, mid, "y", "z")
    j2 = var_node(DynCtx.of(("z", "w", mid, a2)), 0)
    return _template_comp(trans_node(j1, j2), premise)


def dr_s(premise: Derivation, mid: Type) -> Derivation:
    """From ``t <= t'' : A <= A''`` with ``A <= mid <= A''``:
    ``t <= dn[A'' => mid] t'' : A <= mid``."""
    p = premise.conclusion
    a, a2 = p.type_left, p.type_right
    j1 = var_node(DynCtx.of(("y", "z", a, mid)), 0)
    j2 = dr_node(mid, a2, "z", "w")
    return _template_comp(trans_node(j1, j2), premise)


def dl_s(premise: Derivation, low: Type) -> Derivation:
    """From ``t' <= t'' : A' <= A''`` and ``low <= A'``:
    ``dn[A' => low] t' <= t'' : low <= A''``."""
    p = premise.conclusion
    a1, a2 = p.type_left, p.type_right
    j1 = dl_node(low, a1, "y", "z")
    j2 = var_node(DynCtx.of(("z", "w", a1, a2)), 0)
    return _template_comp(trans_node(j1, j2), premise)


_SEQUENT_RULES = {"UR_S": ur_s, "UL_S": ul_s, "DR_S": dr_s, "DL_S": dl_s}


def derive_sequent(rule: str, premise: Derivation, endpoint: Type,
                   sig: Signature | None = None) -> Derivation:
    """Build one of the four sequent-style cast rules from primitives.

    With a signature, side conditions are checked eagerly instead of being
    left for ``check_derivation`` to reject."""
    key = rule.upper().replace("-", "_")
    if key not in _SEQUENT_RULES:
        raise DerivationError(f"unknown sequent rule {rule!r}; "
                              f"expected one of {sorted(_SEQUENT_RULES)}")
    if sig is not None:
        p = premise.conclusion
        conditions = {
            "UR_S": ((p.type_right, endpoint),),
            "UL_S": ((p.type_left, endpoint), (endpoint, p.type_right)),
            "DR_S": ((p.type_left, endpoint), (endpoint, p.type_right)),
            "DL_S": ((endpoint, p.type_left),),
        }[key]
        for lo, hi in conditions:
            if not tydyn_holds(sig, lo, hi):
                raise DerivationError(
                    f"{key} side condition fails: {lo} <= {hi} is not derivable")
    return _SEQUENT_RULES[key](premise, endpoint)


def cast_cong_dn(low: Type, high: Type, yl: str = "y", yr: str = "y'") -> Derivation:
    """``y <= y' : high <= high  |-  dn y <= dn y' : low <= low``."""
    return dr_s(dl_s(var_node(DynCtx.of((yl, yr, high, high)), 0), low), low)


def cast_cong_up(low: Type, high: Type, yl: str = "y", yr: str = "y'") -> Derivation:
    """``y <= y' : low <= low  |-  up y <= up y' : high <= high``."""
    return ul_s(ur_s(var_node(DynCtx.of((yl, yr, low, low)), 0), high), high)


def under_dn(low: Type, high: Type, premise: Derivation) -> Derivation:
    """Apply a downcast to both sides of ``t <= t' : high <= high``."""
    return _template_comp(cast_cong_dn(low, high), premise)


def under_up(low: Type, high: Type, premise: Derivation) -> Derivation:
    """Apply an upcast to both sides of ``t <= t' : low <= low``."""
    return _template_comp(cast_cong_up(low, high), premise)
