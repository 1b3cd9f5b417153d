"""Seeded random generators for types, dynamism pairs and well-typed terms."""

from __future__ import annotations

import functools
import random

from gtt.syntax import (
    App, Context, DYN, Downcast, Err, Fn, FnApp, Lam, NAT, Pair, Prod, Proj,
    Term, Type, UNIT, UNITVAL, Upcast, Var,
)
from gtt.typecheck import Signature, tydyn_holds


def gen_type(rng: random.Random, size: int, first_order: bool = False) -> Type:
    atoms = [NAT, DYN, UNIT]
    if size <= 1:
        return rng.choice(atoms)
    kinds = ["atom", "prod"] + ([] if first_order else ["fn"])
    kind = rng.choice(kinds)
    if kind == "atom":
        return rng.choice(atoms)
    budget = size - 1
    left = rng.randint(1, max(1, budget - 1))
    a = gen_type(rng, left, first_order)
    b = gen_type(rng, budget - left, first_order)
    return Fn(a, b) if kind == "fn" else Prod(a, b)


def gen_type_below(rng: random.Random, ty: Type, first_order: bool = False) -> Type:
    """A random type less dynamic than ``ty``."""
    if ty == DYN and rng.random() < 0.7:
        return gen_type(rng, rng.randint(1, 3), first_order)
    match ty:
        case Fn(a, b):
            if rng.random() < 0.6:
                return Fn(gen_type_below(rng, a, first_order),
                          gen_type_below(rng, b, first_order))
        case Prod(a, b):
            if rng.random() < 0.6:
                return Prod(gen_type_below(rng, a, first_order),
                            gen_type_below(rng, b, first_order))
    return ty


def gen_type_above(rng: random.Random, ty: Type) -> Type:
    """A random type more dynamic than ``ty``."""
    roll = rng.random()
    if roll < 0.3:
        return DYN
    match ty:
        case Fn(a, b) if roll < 0.8:
            return Fn(gen_type_above(rng, a), gen_type_above(rng, b))
        case Prod(a, b) if roll < 0.8:
            return Prod(gen_type_above(rng, a), gen_type_above(rng, b))
    return ty


def gen_term(rng: random.Random, sig: Signature, ctx: Context, ty: Type,
             size: int, first_order: bool = False) -> Term:
    """A random well-typed term of the requested type."""
    candidates = []
    here = [name for name, t in ctx if t == ty]
    if here:
        candidates.append("var")
    candidates.append("err")
    if ty == NAT:
        candidates.append("num")
    elif ty == UNIT:
        candidates.append("unit")
    elif isinstance(ty, Fn):
        candidates.append("lam")
    elif isinstance(ty, Prod):
        candidates.append("pair")
    if size > 2:
        compounds = ["app", "proj", "upcast", "dncast"]
        if isinstance(ty, Fn):
            compounds.extend(["lam", "lam"])
        elif isinstance(ty, Prod):
            compounds.extend(["pair", "pair"])
        weight = 3 if size > 6 else 1
        candidates.extend(compounds * weight)

    kind = rng.choice(candidates)
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
        return Lam(x, ty.dom,
                   gen_term(rng, sig, ctx.extend(x, ty.dom), ty.cod,
                            size - 1, first_order))
    if kind == "pair":
        left = rng.randint(1, max(1, size - 2))
        return Pair(gen_term(rng, sig, ctx, ty.fst, left, first_order),
                    gen_term(rng, sig, ctx, ty.snd, size - 1 - left, first_order))
    if kind == "app":
        arg_ty = gen_type(rng, rng.randint(1, 2), first_order)
        left = rng.randint(1, max(1, size - 2))
        fn = gen_term(rng, sig, ctx, Fn(arg_ty, ty), left, first_order)
        arg = gen_term(rng, sig, ctx, arg_ty, size - 1 - left, first_order)
        return App(fn, arg)
    if kind == "proj":
        other = gen_type(rng, rng.randint(1, 2), first_order)
        index = rng.choice((1, 2))
        pty = Prod(ty, other) if index == 1 else Prod(other, ty)
        return Proj(index, gen_term(rng, sig, ctx, pty, size - 1, first_order))
    if kind == "upcast":
        lo = gen_type_below(rng, ty, first_order)
        if first_order and not tydyn_holds(sig.first_order_dyn(), lo, ty):
            lo = ty
        return Upcast(lo, ty, gen_term(rng, sig, ctx, lo, size - 1, first_order))
    if kind == "dncast":
        hi = gen_type_above(rng, ty)
        if first_order and not tydyn_holds(sig.first_order_dyn(), ty, hi):
            hi = ty
        return Downcast(ty, hi, gen_term(rng, sig, ctx, hi, size - 1, first_order))
    raise AssertionError(kind)


def gen_welltyped(rng: random.Random, sig: Signature, size: int,
                  first_order: bool = False, closed: bool = False
                  ) -> tuple[Context, Term, Type]:
    if closed:
        ctx = Context()
    else:
        ctx = Context.of(("a", NAT), ("b", DYN),
                         ("p", Prod(NAT, DYN)), ("g", Fn(NAT, NAT)))
        if first_order:
            ctx = Context.of(("a", NAT), ("b", DYN), ("p", Prod(NAT, DYN)))
    ty = gen_type(rng, rng.randint(1, 4), first_order)
    return ctx, gen_term(rng, sig, ctx, ty, size, first_order), ty


@functools.cache
def normalize_inputs(seed: int):
    """The benchmark's ``normalize`` inputs for ``seed``, made once per
    session: generating them takes seconds."""
    from perfbench.bench_gen import normalize_inputs
    return normalize_inputs(seed)
