"""Seeded input generation for the ``prove`` and ``normalize`` workloads.

Everything here runs before a measured pass, in the driver process, and
only the files it returns reach the program.  The same seed gives
byte-identical files; the known answer of every item is fixed by
construction and kept on the driver's side.

Costs are stratified so that a different seed changes which inputs are
drawn but hardly the work a pass does: ``.gttd`` files are filled to a
fixed byte schedule, random terms are drawn at a fixed spread of exact
sizes, seeded round-trip types are drawn into one bin of elaborated size,
and the large round trips are a fixed ladder of function towers.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

from gtt.derivio import derivations_to_text
from gtt.dynamism import Derivation
from gtt.elaborate import elaborate
from gtt.grammar import context_to_text, term_to_text, type_to_text
from gtt.syntax import (
    App, Context, DYN, Downcast, Err, Fn, FnApp, Lam, NAT, Pair, Prod, Proj,
    Term, Type, UNIT, UNITVAL, Upcast, Var, term_size,
)
from gtt.theorems import theorem_instances
from gtt.typecheck import default_signature

# The size-3 catalog, as `test-theorems --size 3` and `test-model --bound 2
# --size 3` enumerate it, and the work counts of one pass over it.  The
# model's counts may grow with its coverage but never fall: every
# derivation is either judged or skipped.  The node counts are made in
# traced passes only.
CATALOG_SIZE = 3
MODEL_BOUND = 2
CATALOG_COUNTS = {"theorems.instances": 2496, "theorems.derivations": 3847,
                  "model.equipment_pairs": 39}
CATALOG_MODEL_MIN = {"model.judgments": 1912, "model.env_checks": 357_244,
                     "model.equipment_checks": 23_380}
CATALOG_NODES = {"dynamism.nodes": 76_228, "dynamism.distinct_nodes": 12_772}

# prove: (number of files, target bytes per file), largest first.  The
# largest files hold about 100 derivations, the smallest one to five.  With
# 200 files per pass the p95 tail falls inside the second class, and the
# median inside the smallest.
PROVE_SCHEDULE = ((2, 450_000), (10, 60_000), (28, 16_000), (160, 4_000))
MUTATION_SHARE = 0.3

# normalize: per pass, random terms with a fixed spread of size budgets,
# seeded round trips in one elaborated-size bin, and a fixed ladder of
# function towers.  One item in four of the seeded groups runs with the
# retract axiom off.  The towers carry most of a pass's time and its p95
# tail; they are the same for every seed, because the normalizer's cost
# varies several-fold between types of one elaborated size, which would
# make a pass's time depend on the seed.
NORMALIZE_TERMS = 158
TERM_SIZES = (12, 37)
ROUND_TRIPS = (30, 100, 200)
RETRACT_OFF_EVERY = 4
TOWER_STEPS = {
    "a": lambda t: Fn(Prod(t, NAT), t),
    "b": lambda t: Fn(t, t),
    "d": lambda t: Fn(DYN, Prod(t, NAT)),
    "e": lambda t: Prod(Fn(NAT, t), t),
    "f": lambda t: Fn(NAT, Prod(t, t)),
    "g": lambda t: Fn(t, Prod(NAT, t)),
}
# (tower, height, retract); elaborated sizes from 313 to 4334 nodes.  The
# cheapest rung still costs about twice the dearest seeded item, so the
# p95 tail always falls between two rungs.
TOWER_LADDER = (
    ("a", 4, "off"), ("d", 5, "off"), ("d", 7, "on"), ("f", 3, "off"),
    ("e", 4, "on"), ("d", 6, "off"), ("a", 5, "on"), ("b", 5, "off"),
    ("g", 3, "on"), ("e", 4, "off"), ("d", 7, "off"), ("g", 3, "off"),
)
TERM_CONTEXT = Context.of(("a", NAT), ("b", DYN), ("p", Prod(NAT, DYN)),
                          ("g", Fn(NAT, NAT)))


class Inputs:
    """Generated files (name -> text), the jobs a worker runs over them,
    and the known answer of each job, index for index."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.jobs: list[dict] = []
        self.expected: list = []


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload == "prove":
        return prove_inputs(seed)
    if workload == "normalize":
        return normalize_inputs(seed)
    return Inputs()  # catalog: fixed by its size; the seed changes nothing


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

@functools.cache
def catalog_pool() -> list[Derivation]:
    """Every root derivation of the size-3 catalog, in enumeration order."""
    return [d for _, _, ds in theorem_instances(default_signature(), CATALOG_SIZE)
            if not isinstance(ds, str) for d in ds]


def _nodes_with_path(d: Derivation, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes_with_path(p, path + (i,))


def _replace_at(d: Derivation, path, node: Derivation) -> Derivation:
    if not path:
        return node
    i = path[0]
    premises = list(d.premises)
    premises[i] = _replace_at(premises[i], path[1:], node)
    return replace(d, premises=tuple(premises))


_OTHER_TYPES = (NAT, DYN, UNIT, Prod(NAT, NAT), Fn(DYN, DYN))


def mutate(d: Derivation, rng: random.Random) -> tuple[Derivation, str]:
    """A copy of ``d`` that the checker must reject, and the mutation's name.

    ``type``: the root's left type is replaced, so its presupposition
    fails.  ``drop``: a ``trans`` node loses a premise.  ``err``: a ``var``
    leaf's right side becomes the error constant, which no context entry
    matches."""
    nodes = list(_nodes_with_path(d))
    trans = [(p, n) for p, n in nodes if n.rule == "trans" and len(n.premises) == 2]
    var = [(p, n) for p, n in nodes if n.rule == "var"]
    kinds = ["type"] + (["drop"] if trans else []) + (["err"] if var else [])
    kind = rng.choice(kinds)
    if kind == "type":
        j = d.conclusion
        ty = rng.choice([t for t in _OTHER_TYPES if t != j.type_left])
        return replace(d, conclusion=replace(j, type_left=ty)), kind
    if kind == "drop":
        path, node = rng.choice(trans)
        kept = node.premises[rng.randrange(2)]
        return _replace_at(d, path, replace(node, premises=(kept,))), kind
    path, node = rng.choice(var)
    j = node.conclusion
    return _replace_at(d, path, replace(
        node, conclusion=replace(j, right=Err(j.type_right)))), kind


def prove_inputs(seed: int) -> Inputs:
    rng = random.Random(f"prove:{seed}")
    pool = catalog_pool()
    texts: dict[int, str] = {}

    def text_of(i: int) -> str:
        if i not in texts:
            texts[i] = derivations_to_text([pool[i]])
        return texts[i]

    out = Inputs()
    index = 0
    for count, target in PROVE_SCHEDULE:
        for _ in range(count):
            chosen: list[str] = []
            accept: list[bool] = []
            filled = 0
            while filled < target:
                # draw until a derivation fits the remaining room, so that
                # every file of a class lands near its target size
                room = target - filled + max(500, target // 20)
                for _ in range(40):
                    i = rng.randrange(len(pool))
                    if len(text_of(i)) <= room:
                        break
                text = text_of(i)
                if rng.random() < MUTATION_SHARE:
                    text = derivations_to_text([mutate(pool[i], rng)[0]])
                    accept.append(False)
                else:
                    accept.append(True)
                filled += len(text)
                chosen.append(text)
            name = f"p{index:03d}.gttd"
            # equal to derivations_to_text of the whole list
            text = "\n".join(chosen)
            out.files[name] = text
            out.jobs.append({"file": name})
            out.expected.append({"accept": accept, "text": text})
            index += 1
    return out


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def _fo_type(rng: random.Random, size: int) -> Type:
    """A random function-free type."""
    if size <= 1:
        return rng.choice((NAT, DYN, UNIT))
    left = rng.randint(1, max(1, size - 2))
    return Prod(_fo_type(rng, left), _fo_type(rng, size - 1 - left))


def _term_type(rng: random.Random, size: int) -> Type:
    """A random type of first order: function arguments are function-free."""
    if size <= 1 or rng.random() < 0.3:
        return _fo_type(rng, size)
    left = rng.randint(1, max(1, size - 2))
    return Fn(_fo_type(rng, left), _term_type(rng, size - 1 - left))


def _has_fn(ty: Type) -> bool:
    return isinstance(ty, Fn) or (
        isinstance(ty, Prod) and (_has_fn(ty.fst) or _has_fn(ty.snd)))


def _below(rng: random.Random, ty: Type) -> Type:
    """A random function-free type less dynamic than function-free ``ty``."""
    if ty == DYN:
        return _fo_type(rng, rng.randint(1, 3))
    if isinstance(ty, Prod) and rng.random() < 0.6:
        return Prod(_below(rng, ty.fst), _below(rng, ty.snd))
    return ty


def _above(rng: random.Random, ty: Type) -> Type:
    """A random function-free type more dynamic than function-free ``ty``."""
    if rng.random() < 0.4:
        return DYN
    if isinstance(ty, Prod):
        return Prod(_above(rng, ty.fst), _above(rng, ty.snd))
    return ty


def gen_term(rng: random.Random, ctx: Context, ty: Type, size: int) -> Term:
    """A random well-typed term of type ``ty``, after the test suite's
    ``termgen``.  Casts stay at function-free types and arguments are
    function-free, so every term normalizes, and quickly."""
    here = [name for name, t in ctx if t == ty]
    kinds = (["var"] if here else []) + ["err"]
    if ty == NAT:
        kinds.append("num")
    elif ty == UNIT:
        kinds.append("unit")
    elif isinstance(ty, Fn):
        kinds.append("lam")
    elif isinstance(ty, Prod):
        kinds.append("pair")
    if size > 2:
        compound = ["app", "proj"]
        if not _has_fn(ty):
            compound += ["upcast", "dncast"]
        if isinstance(ty, (Fn, Prod)):
            compound += ["lam" if isinstance(ty, Fn) else "pair"] * 2
        kinds += compound * (3 if size > 6 else 1)
    kind = rng.choice(kinds)
    if kind == "var":
        return Var(rng.choice(here))
    if kind == "num":
        return FnApp(str(rng.randint(0, 3)))
    if kind == "unit":
        return UNITVAL
    if kind == "err":
        return Err(ty)
    if kind == "lam":
        x = f"v{len(ctx)}"
        return Lam(x, ty.dom, gen_term(rng, ctx.extend(x, ty.dom), ty.cod, size - 1))
    if kind == "pair":
        left = rng.randint(1, max(1, size - 2))
        return Pair(gen_term(rng, ctx, ty.fst, left),
                    gen_term(rng, ctx, ty.snd, size - 1 - left))
    if kind == "app":
        arg = _fo_type(rng, rng.randint(1, 3))
        left = rng.randint(1, max(1, size - 2))
        return App(gen_term(rng, ctx, Fn(arg, ty), left),
                   gen_term(rng, ctx, arg, size - 1 - left))
    if kind == "proj":
        other = _fo_type(rng, rng.randint(1, 2))
        index = rng.choice((1, 2))
        pty = Prod(ty, other) if index == 1 else Prod(other, ty)
        return Proj(index, gen_term(rng, ctx, pty, size - 1))
    if kind == "upcast":
        lo = _below(rng, ty)
        return Upcast(lo, ty, gen_term(rng, ctx, lo, size - 1))
    hi = _above(rng, ty)
    return Downcast(ty, hi, gen_term(rng, ctx, hi, size - 1))


def _term_of_size(rng: random.Random, ty: Type, size: int) -> Term:
    """A random term of type ``ty`` with exactly ``size`` nodes if one turns
    up within a few hundred draws, else the closest drawn.  Exact sizes keep
    the median item's cost from depending on the seed."""
    best = None
    for _ in range(400):
        t = gen_term(rng, TERM_CONTEXT, ty, rng.randint(size, 2 * size))
        if best is None or abs(term_size(t) - size) < abs(term_size(best) - size):
            best = t
            if term_size(t) == size:
                break
    return best


def _rt_type(rng: random.Random, size: int) -> Type:
    if size <= 1:
        return rng.choice((NAT, DYN, UNIT))
    left = rng.randint(1, size - 2) if size > 2 else 1
    a, b = _rt_type(rng, left), _rt_type(rng, size - 1 - left)
    return Fn(a, b) if rng.random() < 0.7 else Prod(a, b)


def _unit_like(ty: Type) -> bool:
    """Every term of the type has one eta-long normal form, so a round
    trip there is equal to its subject with or without retract."""
    if ty == UNIT:
        return True
    if isinstance(ty, Fn):
        return _unit_like(ty.cod)
    if isinstance(ty, Prod):
        return _unit_like(ty.fst) and _unit_like(ty.snd)
    return False


def round_trip_type(sig, rng: random.Random, low: int, high: int) -> Type:
    """A higher-order type whose round trip through ``?`` elaborates to
    between ``low`` and ``high`` nodes and stays observable without the
    retract axiom."""
    while True:
        ty = _rt_type(rng, rng.randint(5, 45))
        if _has_fn(ty) and not _unit_like(ty):
            ctx, trip, _ = _round_trip(ty)
            if low <= term_size(elaborate(sig, ctx, trip)) < high:
                return ty


def _term_file(ctx: Context, t: Term) -> str:
    return f"{context_to_text(ctx)} {term_to_text(t)}\n"


def tower(step: str, height: int) -> Type:
    ty = NAT
    for _ in range(height):
        ty = TOWER_STEPS[step](ty)
    return ty


def _round_trip(ty: Type):
    ctx = Context.of(("f", ty))
    return ctx, Downcast(ty, DYN, Upcast(ty, DYN, Var("f"))), Var("f")


def normalize_inputs(seed: int) -> Inputs:
    rng = random.Random(f"normalize:{seed}")
    sig = default_signature()
    low, high = TERM_SIZES
    terms, trips, ladder = [], [], []
    for i in range(NORMALIZE_TERMS):
        # a triple of random terms of one size: the sum of three costs
        # spreads less from seed to seed than one cost does
        size = low + i * (high - low) // NORMALIZE_TERMS
        parts = [(ty, _term_of_size(rng, ty, size))
                 for ty in (_term_type(rng, 1 + (i + k) % 5) for k in range(3))]
        ty = Prod(parts[0][0], Prod(parts[1][0], parts[2][0]))
        t = Pair(parts[0][1], Pair(parts[1][1], parts[2][1]))
        # the identity applied to the term must compare equal to it
        terms.append((TERM_CONTEXT, t, App(Lam("z", ty, Var("z")), t), ty, True))
    count, low, high = ROUND_TRIPS
    for _ in range(count):
        ty = round_trip_type(sig, rng, low, high)
        trips.append((*_round_trip(ty), ty, False))
    for group in (terms, trips):
        off = [i % RETRACT_OFF_EVERY == 0 for i in range(len(group))]
        rng.shuffle(off)
        group[:] = [(*item, "off" if o else "on") for item, o in zip(group, off)]
    for step, height, retract in TOWER_LADDER:
        ty = tower(step, height)
        ladder.append((*_round_trip(ty), ty, False, retract))
    items = terms + trips + ladder
    rng.shuffle(items)
    out = Inputs()
    for n, (ctx, left, right, ty, always_equal, retract) in enumerate(items):
        lname, rname = f"n{n:03d}.gtt", f"n{n:03d}r.gtt"
        out.files[lname] = _term_file(ctx, left)
        out.files[rname] = _term_file(ctx, right)
        out.jobs.append({"left": lname, "right": rname, "retract": retract})
        # a round trip is equal to its subject exactly when retract holds
        out.expected.append({"type": type_to_text(ty),
                             "equal": always_equal or retract == "on"})
    return out
