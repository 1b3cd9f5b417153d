"""Term-dynamism judgments, derivation trees and the proof checker.

A judgment ``phi |- t <= t' : A <= A'`` says the left term errors more
than the right but is otherwise equal, relative to a context-dynamism
pairing ``phi``.  Derivations are explicit trees: one node per primitive
rule, every node carrying its full conclusion, so checking is local and
needs no search.

Primitive rules (file-format names), each with its premise count and the
aux it reads (``-``: none; brackets: it may be absent):

==================  =====  ==========  ====================================
rule                prem.  aux         meaning
==================  =====  ==========  ====================================
var                 0      -           lookup in the dynamism context
comp                1 + n  sub, sub    substitution, a premise per entry
refl                0      -           ``t <= t`` over a diagonal context
trans               2      [mid]       composition through a middle judgment
ax                  0      [index]     a term-dynamism axiom of the signature
ur, ul, dl, dr      0      -           the casts: an upcast is least above
                                       its subject, a downcast greatest below
retract             0      -           ``dn (up x) <= x`` (flag-gated)
err-bot             0      -           the error constant is least at its type
lam-mon, prj-mon    1      prj-mon:    congruence for lambda, projection,
app-mon, pair-mon   2      [1 or 2]    application and pairing
fn-beta, fn-eta,    0      fwd or bwd  beta and eta laws, each an
prod-beta,                             equi-dynamism, so tagged with a
prod-eta, unit-eta                     direction
disjoint            0      -           cross-tag casts error (flag-gated)
==================  =====  ==========  ====================================

Each row of ``_SCHEMA`` is its rule's shape: premise count, gating flag,
context shape (one entry, or diagonal) and aux.  ``_check_node`` checks
the presupposition, then the shape, then the rule's own check; a rule
that reads no aux rejects one.  The presupposition decides every type
that a node's terms fix (each side's type is its term's, over a context
with distinct names on each side), so a rule check compares shapes, plus
the types that its shape leaves open, and never tests a fixed type again.

This module is the trusted core: what must be believed is its judgments,
its presupposition check and ``_SCHEMA``, with what they call in
``syntax`` and ``typecheck``.  Nothing here builds a derivation: the node
builders, sequent rules and cast theorems live in ``theorems``.

The check walks the tree once, premises first, and writes each error
line with its full path (``root.0.1: var: ...``) as it finds it.  Each
passing node is memoized on the ``Signature`` as an opaque token, keyed
exactly: the rule, the conclusion, the premises' tokens by identity, and
the aux's type and value (``1``, ``True`` and ``1.0`` are checked apart).
A failing node, or one whose key cannot be hashed, is checked wherever
it occurs, so its lines print its own lambda hints, which ``==`` ignores.
The memo holds two generations of at most ``_GENERATION`` entries (an
old hit moves to the new one, a full new one drops the old) and only
skips the work of repeated nodes, which the catalog is full of.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from .syntax import (
    App, Bound, Downcast, DYN, Err, Fn, GttError, Lam, Pair, Prod, Proj, Term,
    Type, UNIT, UNITVAL, Upcast, Var, free_vars, instantiate, loose_indices,
    frozen, substitute,
)
from .typecheck import (
    DynCtx, Signature, _infer, _unrelated_grounds, check_dynctx_wf,
    is_ground, tydyn_holds,
)


class DerivationError(GttError):
    pass


@frozen
class DynJudgment:
    """``phi |- left <= right : type_left <= type_right``: term dynamism
    between two terms over a context-dynamism witness."""
    phi: DynCtx
    left: Term
    right: Term
    type_left: Type
    type_right: Type

    def describe(self) -> str:
        from .grammar import term_to_text, type_to_text
        return (f"{term_to_text(self.left)} <= {term_to_text(self.right)} : "
                f"{type_to_text(self.type_left)} <= {type_to_text(self.type_right)}")


@frozen
class Derivation:
    """A derivation tree: the rule that concludes ``conclusion`` from the
    premise derivations, with the rule's extra data in ``aux``."""
    rule: str
    conclusion: DynJudgment
    premises: tuple["Derivation", ...] = ()
    aux: Any = None


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_derivation(sig: Signature, d: Derivation) -> bool:
    return not derivation_errors(sig, d)


def derivation_errors(sig: Signature, d: Derivation) -> list[str]:
    """Every schema or presupposition violation, one line per failure,
    each prefixed with the path of premise indices from the root."""
    out: list[str] = []
    _verdict(sig, d, "root", out)
    return out


# entries per generation of the verdict memo; it holds fewer than twice this
_GENERATION = 2048


def _verdict(sig: Signature, d: Derivation, path: str,
             out: list[str]) -> object | None:
    """Append the error lines of ``d`` at ``path`` to ``out``, its premises'
    first; return the node's memo token if it passes, else ``None``."""
    tokens = []
    for i, p in enumerate(d.premises):
        tokens.append(_verdict(sig, p, f"{path}.{i}", out))
    if None in tokens:  # only passing nodes are memoized
        _check_node(sig, d, path, out)
        return None
    key = (d.rule, d.conclusion, tuple(tokens), type(d.aux), d.aux)
    new, old = sig._verdicts
    try:
        token = new.get(key)
    except TypeError:  # an unhashable conclusion or aux: no memo
        return object() if _check_node(sig, d, path, out) else None
    if token is not None:
        return token
    token = old.get(key)  # a hit in the old generation moves to the new one
    if token is None:
        if not _check_node(sig, d, path, out):
            return None
        token = object()
    new[key] = token
    if len(new) >= _GENERATION:
        sig._verdicts = ({}, new)
    return token


def _check_node(sig: Signature, d: Derivation, path: str,
                out: list[str]) -> bool:
    """Append the node's own error lines to ``out``; whether it has none."""
    errors = _presupposition_errors(sig, d.conclusion)
    if not errors:
        if d.rule not in _SCHEMA:
            out.append(f"{path}: unknown rule {d.rule!r}")
            return False
        errors = _rule_errors(sig, d, _SCHEMA[d.rule])
    out.extend(f"{path}: {d.rule}: {msg}" for msg in errors)
    return not errors


def _presupposition_errors(sig: Signature, j: DynJudgment) -> list[str]:
    """Check the context once, then type each side by the environment walk."""
    if not check_dynctx_wf(sig, j.phi):
        return ["context dynamism presupposition fails"]
    entries = j.phi.entries
    out = []
    try:
        tl = _infer(sig, {xl: ty for xl, _, ty, _ in entries}, j.left)
        if tl != j.type_left:
            out.append(f"left term has type {tl}, judgment claims {j.type_left}")
    except GttError as e:
        out.append(f"left term does not type check: {e}")
    try:
        tr = _infer(sig, {xr: ty for _, xr, _, ty in entries}, j.right)
        if tr != j.type_right:
            out.append(f"right term has type {tr}, judgment claims {j.type_right}")
    except GttError as e:
        out.append(f"right term does not type check: {e}")
    if not tydyn_holds(sig, j.type_left, j.type_right):
        out.append(f"type dynamism presupposition fails: "
                   f"{j.type_left} <= {j.type_right} not derivable")
    return out


class _Rule(NamedTuple):
    """A primitive rule: its shape, then the check of everything else."""
    check: Callable[[Signature, Derivation], list[str]]
    premises: int | None = 0  # None: ``check`` counts them itself
    flag: str | None = None   # the ``Signature`` flag that gates the rule
    ctx: str | None = None    # "single" entry or "diagonal"
    aux: str | None = None    # the aux ``check`` reads; None: no aux


_PREMISES = {0: "takes no premises", 1: "expects one premise",
             2: "expects two premises"}
_DISABLED = {"retract": "retract axiom is disabled in this signature",
             "disjointness": "disjointness axioms are disabled in this signature"}
# what a present aux must be, where the shape checks it; ``check`` checks
# the other forms
_AUX = {None: (lambda a: False, "takes no aux"),
        "index": (lambda a: isinstance(a, int), "aux must be an axiom index"),
        "1 or 2": (lambda a: a in (1, 2), "aux must be 1 or 2")}


def _rule_errors(sig: Signature, d: Derivation, rule: _Rule) -> list[str]:
    """The rule's shape, in a fixed order, then its own check; every shape
    error but a non-diagonal context ends the check."""
    check, premises, flag, ctx, aux = rule
    if flag and not getattr(sig, flag):
        return [_DISABLED[flag]]
    if premises is not None and len(d.premises) != premises:
        return [_PREMISES[premises]]
    if d.aux is not None and aux in _AUX and not _AUX[aux][0](d.aux):
        return [_AUX[aux][1]]
    if ctx == "single" and len(d.conclusion.phi) != 1:
        return ["context must be a single entry"]
    if ctx == "diagonal" and not d.conclusion.phi.is_diagonal():
        return ["context must be diagonal"] + check(sig, d)
    return check(sig, d)


def _chk_var(sig, d):
    j = d.conclusion
    for xl, xr, _, _ in j.phi:
        if j.left == Var(xl) and j.right == Var(xr):
            return []
    return ["conclusion is not a context entry"]


def _chk_refl(sig, d):
    j = d.conclusion
    out = []
    if not j.phi.is_diagonal():
        out.append("context must be diagonal (Gamma <= Gamma)")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    if j.left != j.right:
        out.append("sides are not alpha-equal")
    return out


def _rename_along(t: Term, src, dst) -> Term:
    """Rename free variables pointwise from one context's names to
    another's; the ``(name, type)`` entries pair positionally."""
    sigma = {x: Var(y) for (x, _), (y, _) in zip(src, dst)}
    for v in free_vars(t):
        sigma.setdefault(v, Var(v))
    return substitute(t, sigma)


def _sides(phi: DynCtx):
    """Each side's ``(name, type)`` entries, in which a name may repeat."""
    return (tuple((xl, tl) for xl, _, tl, _ in phi.entries),
            tuple((xr, tr) for _, xr, _, tr in phi.entries))


def _chk_trans(sig, d):
    if len(d.premises) != 2:
        return ["expects exactly two premises"]
    j = d.conclusion
    j1, j2 = d.premises[0].conclusion, d.premises[1].conclusion
    (left, right), (left1, mid1), (mid2, right2) = map(
        _sides, (j.phi, j1.phi, j2.phi))
    out = []
    if left1 != left:
        out.append("left context does not match first premise")
    if right2 != right:
        out.append("right context does not match second premise")
    if [ty for _, ty in mid1] != [ty for _, ty in mid2]:
        out.append("premises do not share the middle context")
    elif j1.right != _rename_along(j2.left, mid2, mid1):
        out.append("premises do not share the middle term")
    if j1.type_right != j2.type_left:
        out.append("premises do not share the middle type")
    if j1.left != j.left or j1.type_left != j.type_left:
        out.append("left side does not match first premise")
    if j2.right != j.right or j2.type_right != j.type_right:
        out.append("right side does not match second premise")
    if d.aux is not None:
        if not (isinstance(d.aux, tuple) and len(d.aux) == 3):
            return out + ["aux must be the stored middle judgment"]
        mid_ctx, mid_term, mid_type = d.aux
        names = [x for x, _ in mid_ctx]  # renaming pairs them by position
        if (len(set(names)) != len(names)
                or [ty for _, ty in mid_ctx] != [ty for _, ty in mid1]
                or _rename_along(mid_term, mid_ctx, mid1) != j1.right
                or mid_type != j1.type_right):
            out.append("stored middle judgment disagrees with the premises")
    return out


def _chk_ax(sig, d):
    j = d.conclusion
    indices = range(len(sig.tmdyn_axioms)) if d.aux is None else [d.aux]
    for i in indices:
        if not 0 <= i < len(sig.tmdyn_axioms):
            return [f"no term-dynamism axiom with index {i}"]
        lctx, lt, rctx, rt = sig.tmdyn_axioms[i]
        if ((lctx.entries, rctx.entries) == _sides(j.phi)
                and j.left == lt and j.right == rt):
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
    if len(gamma) != len(d.aux[0]) or len(gamma2) != len(d.aux[1]):
        return ["substitution binds a name twice"]
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
        if sub.left != gamma[xl] or sub.right != gamma2[xr]:
            out.append(f"substitution premise {i} does not prove the images related")
        if sub.type_left != tl or sub.type_right != tr:
            out.append(f"substitution premise {i} proves the wrong types")
    try:
        if j.left != substitute(main.left, gamma):
            out.append("left side is not the substituted main premise")
        if j.right != substitute(main.right, gamma2):
            out.append("right side is not the substituted main premise")
    except GttError as e:
        out.append(f"substitution failed: {e}")
    if j.type_left != main.type_left or j.type_right != main.type_right:
        out.append("types do not match the main premise")
    return out


def _chk_ur(sig, d):
    j = d.conclusion
    xl, xr, tl, tr = j.phi.entries[0]
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    if j.left != Var(xl):
        return ["left side must be the context variable"]
    if j.right != Upcast(tl, j.type_right, Var(xr)):
        return ["right side must be the upcast of the context variable"]
    return []


def _chk_ul(sig, d):
    j = d.conclusion
    xl, xr, tl, tr = j.phi.entries[0]
    if j.left != Upcast(tl, tr, Var(xl)):
        return ["left side must be the upcast of the context variable"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    return []


def _chk_dl(sig, d):
    j = d.conclusion
    xl, xr, tl, tr = j.phi.entries[0]
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    if j.left != Downcast(j.type_left, tl, Var(xl)):
        return ["left side must be the downcast of the context variable"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    return []


def _chk_dr(sig, d):
    j = d.conclusion
    xl, xr, tl, tr = j.phi.entries[0]
    if j.left != Var(xl):
        return ["left side must be the context variable"]
    if j.right != Downcast(tl, tr, Var(xr)):
        return ["right side must be the downcast of the context variable"]
    return []


def _chk_retract(sig, d):
    j = d.conclusion
    _, xr, tl, tr = j.phi.entries[0]
    if tl != tr:
        return ["context entry must be diagonal in its type"]
    match j.left:
        case Downcast(lo, _, Upcast(_, _, Var(_))) if lo == tl:
            pass
        case _:
            return ["left side must be dn (up x) at the context type"]
    if j.right != Var(xr):
        return ["right side must be the context variable"]
    return []


def _chk_errbot(sig, d):
    j = d.conclusion
    out = []
    if j.left != Err(j.type_left):
        out.append("left side must be the error constant at the judgment type")
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    return out


def _chk_lam_mon(sig, d):
    j = d.conclusion
    p = d.premises[0].conclusion
    if len(p.phi) != len(j.phi) + 1 or p.phi.entries[:-1] != j.phi.entries:
        return ["premise context must extend the conclusion context by one entry"]
    xl, xr, tl, tr = p.phi.entries[-1]
    out = []
    if j.type_left != Fn(tl, p.type_left) or j.type_right != Fn(tr, p.type_right):
        out.append("conclusion types are not the expected function types")
    if j.left != Lam(xl, tl, p.left):
        out.append("left side is not the lambda of the premise")
    if j.right != Lam(xr, tr, p.right):
        out.append("right side is not the lambda of the premise")
    return out


def _chk_app_mon(sig, d):
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
    if j.left != App(pf.left, pa.left):
        out.append("left side is not the application of the premises")
    if j.right != App(pf.right, pa.right):
        out.append("right side is not the application of the premises")
    return out


def _chk_pair_mon(sig, d):
    j = d.conclusion
    p1, p2 = d.premises[0].conclusion, d.premises[1].conclusion
    out = []
    if p1.phi != j.phi or p2.phi != j.phi:
        out.append("premises must share the conclusion context")
    if j.type_left != Prod(p1.type_left, p2.type_left) or \
            j.type_right != Prod(p1.type_right, p2.type_right):
        out.append("conclusion types are not the expected products")
    if j.left != Pair(p1.left, p2.left):
        out.append("left side is not the pairing of the premises")
    if j.right != Pair(p1.right, p2.right):
        out.append("right side is not the pairing of the premises")
    return out


def _chk_prj_mon(sig, d):
    j = d.conclusion
    p = d.premises[0].conclusion
    i = d.aux or (j.left.index if isinstance(j.left, Proj) else None)
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
    if j.left != Proj(i, p.left):
        out.append("left side is not the projection of the premise")
    if j.right != Proj(i, p.right):
        out.append("right side is not the projection of the premise")
    return out


def _oriented(j: DynJudgment, aux) -> tuple[Term, Term] | None:
    if aux not in ("fwd", "bwd"):
        return None
    return (j.left, j.right) if aux == "fwd" else (j.right, j.left)


def _chk_fn_beta(sig, d):
    j = d.conclusion
    out = []
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    redex, contractum = oriented
    match redex:
        case App(Lam(_, _, body), arg):
            if contractum != instantiate(body, arg):
                out.append("contractum is not the substituted body")
        case _:
            out.append("subject is not a beta redex")
    return out


def _chk_fn_eta(sig, d):
    j = d.conclusion
    if j.type_left != j.type_right or not isinstance(j.type_left, Fn):
        return ["endpoint types must be one function type"]
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return ["aux must be fwd or bwd"]
    subject, expansion = oriented
    out = []
    match expansion:
        case Lam(_, _, App(g, Bound(0))):
            if 0 in loose_indices(g):
                out.append("expansion binder captures the subject")
            elif g != subject:
                out.append("expansion body does not apply the subject")
        case _:
            out.append("expansion side is not an eta expansion")
    return out


def _chk_prod_beta(sig, d):
    j = d.conclusion
    out = []
    if j.type_left != j.type_right:
        out.append("endpoint types must coincide")
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return out + ["aux must be fwd or bwd"]
    redex, contractum = oriented
    match redex:
        case Proj(i, Pair(t1, t2)):
            if contractum != (t1 if i == 1 else t2):
                out.append("contractum is not the projected component")
        case _:
            out.append("subject is not a projection redex")
    return out


def _chk_prod_eta(sig, d):
    j = d.conclusion
    if j.type_left != j.type_right or not isinstance(j.type_left, Prod):
        return ["endpoint types must be one product type"]
    oriented = _oriented(j, d.aux)
    if oriented is None:
        return ["aux must be fwd or bwd"]
    subject, expansion = oriented
    match expansion:
        case Pair(Proj(1, g1), Proj(2, g2)):
            if g1 != subject or g2 != subject:
                return ["expansion does not project the subject"]
            return []
        case _:
            return ["expansion side is not a product eta expansion"]


def _chk_unit_eta(sig, d):
    j = d.conclusion
    out = []
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
    j = d.conclusion
    _, _, tl, tr = j.phi.entries[0]
    out = []
    if tl != tr:
        out.append("context entry must be diagonal in its type")
    match j.left:
        case Downcast(g, hi, Upcast(g2, _, Var(_))) if hi == DYN:
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
    "var": _Rule(_chk_var),
    "comp": _Rule(_chk_comp, premises=None, aux="substitutions"),
    "refl": _Rule(_chk_refl),
    "trans": _Rule(_chk_trans, premises=None, aux="middle judgment"),
    "ax": _Rule(_chk_ax, aux="index"),
    "ur": _Rule(_chk_ur, ctx="single"),
    "ul": _Rule(_chk_ul, ctx="single"),
    "dl": _Rule(_chk_dl, ctx="single"),
    "dr": _Rule(_chk_dr, ctx="single"),
    "retract": _Rule(_chk_retract, flag="retract", ctx="single"),
    "err-bot": _Rule(_chk_errbot, ctx="diagonal"),
    "lam-mon": _Rule(_chk_lam_mon, premises=1),
    "app-mon": _Rule(_chk_app_mon, premises=2),
    "pair-mon": _Rule(_chk_pair_mon, premises=2),
    "prj-mon": _Rule(_chk_prj_mon, premises=1, aux="1 or 2"),
    "fn-beta": _Rule(_chk_fn_beta, ctx="diagonal", aux="fwd or bwd"),
    "fn-eta": _Rule(_chk_fn_eta, ctx="diagonal", aux="fwd or bwd"),
    "prod-beta": _Rule(_chk_prod_beta, ctx="diagonal", aux="fwd or bwd"),
    "prod-eta": _Rule(_chk_prod_eta, ctx="diagonal", aux="fwd or bwd"),
    "unit-eta": _Rule(_chk_unit_eta, ctx="diagonal", aux="fwd or bwd"),
    "disjoint": _Rule(_chk_disjoint, flag="disjointness", ctx="single"),
}
