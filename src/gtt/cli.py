"""Batch command line front end.

Exit status: 0 for a positive answer, 1 for a negative one (ill typed,
underivable, rejected derivation, semantic counterexample), 2 for usage,
parse or configuration errors and for internal errors.  Reports are line
oriented: ``RESULT``, ``COUNTEREXAMPLE`` and ``SKIPPED`` prefixes,
deterministic for fixed inputs and flags.

A command imports each layer beyond parsing, typing and elaboration
inside its own function, so that a call loads only the layers it runs.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .syntax import GttError, base_names
from .grammar import (
    parse_signature, parse_term_file, parse_type, read_type_pair, term_to_text,
    type_to_text,
)
from .typecheck import (
    DynCtx, Signature, default_signature, enumerate_types, infer_type,
    tydyn_holds,
)
from .elaborate import elaborate, equal_terms, normalize


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_signature(args) -> Signature:
    if getattr(args, "sig", None):
        sig = parse_signature(_read(args.sig))
    else:
        sig = default_signature()
    if getattr(args, "retract", None):
        sig = sig.replace(retract=args.retract == "on")
    if getattr(args, "disjointness", None):
        sig = sig.replace(disjointness=args.disjointness == "on")
    return sig


def _read(path: str) -> str:
    # no newline translation, so that an offset counts the file's characters
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise _Failure(2, f"error: {path} is not UTF-8 text: {e}")


def _emit(args, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _cmd_check(args, sig):
    ctx, term = parse_term_file(_read(args.file), sig)
    try:
        ty = infer_type(sig, ctx, term)
    except GttError as e:
        raise _Failure(1, f"RESULT FAIL ill-typed: {e}")
    _emit(args, [type_to_text(ty)])
    return 0


def _check_declared(sig, text: str, *types):
    """A usage error unless the signature declares every base type in
    ``types``, which were read from ``text``."""
    unknown = sorted(set().union(*map(base_names, types)) - sig.base_types)
    if unknown:
        raise _Failure(2, f"unknown base type {', '.join(unknown)} in {text!r}")


def _cmd_dyncheck(args, sig):
    lines_out = []
    status = 0
    for raw in _read(args.file).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        a, b = read_type_pair(line, "dyncheck")
        _check_declared(sig, line, a, b)
        ok = tydyn_holds(sig, a, b)
        lines_out.append(f"RESULT {'PASS' if ok else 'FAIL'} "
                         f"{type_to_text(a)} <= {type_to_text(b)}")
        status = status or (0 if ok else 1)
    if not lines_out:  # a truncated file must not read as a pass
        raise _Failure(2, "error: no 'A <= B' line in file")
    _emit(args, lines_out)
    return status


def _cmd_prove(args, sig):
    from .derivio import parse_derivations
    from .dynamism import derivation_errors
    ds = parse_derivations(_read(args.file), sig)
    if not ds:  # a truncated `gtt derive > f.gttd` must not read as a pass
        raise _Failure(2, "error: no derivation in file")
    lines = []
    status = 0
    for i, d in enumerate(ds):
        errs = derivation_errors(sig, d)
        if errs:
            status = 1
            lines.append(f"RESULT FAIL derivation {i} ({d.rule})")
            lines.extend(f"  {e}" for e in errs)
        else:
            lines.append(f"RESULT PASS derivation {i} ({d.rule}): "
                         f"{d.conclusion.describe()}")
    _emit(args, lines)
    return status


def _cmd_derive(args, sig):
    from .derivio import derivations_to_text
    from .theorems import derive_theorem
    if args.name in ("ur-s", "ul-s", "dr-s", "dl-s"):
        raise _Failure(2, "sequent rules need a premise derivation; "
                          "use the library API for those")
    # err_elim's first parameter is an eliminator shape; every other is a type
    shape = args.params[:1] if args.name == "err_elim" else []
    words = args.params[len(shape):]
    types = [parse_type(w) for w in words]
    for word, ty in zip(words, types):
        _check_declared(sig, word, ty)
    params = shape + types
    try:
        ds = derive_theorem(sig, args.name, *params)
    except GttError as e:
        raise _Failure(2, f"cannot derive {args.name}: {e}")
    _emit(args, [derivations_to_text(ds).rstrip("\n")])
    return 0


def _cmd_elaborate(args, sig):
    ctx, term = parse_term_file(_read(args.file), sig)
    out = elaborate(sig, ctx, term)
    _emit(args, [term_to_text(out)])
    return 0


def _cmd_normalize(args, sig):
    ctx, term = parse_term_file(_read(args.file), sig)
    out = normalize(sig, elaborate(sig, ctx, term), ctx)
    _emit(args, [term_to_text(out)])
    return 0


def _cmd_eval(args, sig):
    from .model import ModelError, compile_term, value_to_text
    ctx, term = parse_term_file(_read(args.file), sig)
    if len(ctx):
        raise _Failure(2, "eval expects a closed term")
    infer_type(sig, ctx, term)  # an ill-typed term has no value
    try:
        v = compile_term(sig, term)({})
    except ModelError as e:
        raise _Failure(2, f"not evaluable: {e}")
    _emit(args, [value_to_text(v)])
    return 0


def _cmd_compare(args, sig):
    ctx1, t1 = parse_term_file(_read(args.left), sig)
    ctx2, t2 = parse_term_file(_read(args.right), sig)
    if ctx1.entries != ctx2.entries:
        raise _Failure(2, "compared terms must share one context")
    if args.semantic:
        from .dynamism import DynJudgment
        from .model import check_judgment_semantics, model_signature
        ty1 = infer_type(sig, ctx1, t1)
        ty2 = infer_type(sig, ctx2, t2)
        msig = model_signature(sig)
        if not tydyn_holds(msig, ty1, ty2):
            raise _Failure(2, f"types not related: {type_to_text(ty1)} "
                              f"<= {type_to_text(ty2)} fails")
        phi = DynCtx.diag(ctx1)
        report = check_judgment_semantics(
            sig, DynJudgment(phi, t1, t2, ty1, ty2), args.bound)
        _emit(args, report.lines())
        return 0 if report.passed else 1
    ok = equal_terms(sig, t1, t2, ctx1)
    _emit(args, [f"RESULT {'PASS' if ok else 'FAIL'} syntactic comparison"])
    return 0 if ok else 1


def _cmd_test_model(args, sig):
    from .model import check_equipment, first_order, model_signature
    lines = []
    status = 0
    msig = model_signature(sig)
    types = [ty for ty in enumerate_types(sig, args.size) if first_order(ty)]
    pairs = [(a, b) for a in types for b in types if tydyn_holds(msig, a, b)]
    for a, b in pairs:
        report = check_equipment(sig, a, b, args.bound)
        lines.extend(report.lines())
        status = status or (0 if report.passed else 1)
    lines.append(f"RESULT {'PASS' if status == 0 else 'FAIL'} "
                 f"equipment laws over {len(pairs)} pairs")
    _emit(args, lines)
    return status


def _cmd_test_theorems(args, sig):
    from .dynamism import check_derivation
    from .model import check_judgment_semantics, derivation_first_order
    from .theorems import (
        REDUCTION_THEOREMS, conclusion_equation, theorem_instances,
    )
    lines = []
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for name, params, ds in theorem_instances(sig, args.size):
        if isinstance(ds, str):
            counts["skip"] += 1
            lines.append(f"SKIPPED {name} {ds}")
            continue
        ok = all(check_derivation(sig, d) for d in ds)
        if ok and name in REDUCTION_THEOREMS:
            ctx, lhs, rhs = conclusion_equation(ds[0])
            ok = equal_terms(sig, lhs, rhs, ctx)
            if not ok:
                lines.append(f"RESULT FAIL {name} {_words(params)}: sides "
                             "differ after elaboration")
        if ok:
            for d in ds:
                if derivation_first_order(d):
                    report = check_judgment_semantics(sig, d.conclusion, args.bound)
                    if not report.passed:
                        ok = False
                        lines.extend(report.lines())
                        break
        counts["pass" if ok else "fail"] += 1
        if not ok:
            lines.append(f"RESULT FAIL {name} {_words(params)}")
    lines.append(f"RESULT {'PASS' if counts['fail'] == 0 else 'FAIL'} theorems: "
                 f"{counts['pass']} passed, {counts['fail']} failed, "
                 f"{counts['skip']} skipped")
    _emit(args, lines)
    return 0 if counts["fail"] == 0 else 1


def _words(params: tuple) -> str:
    """A theorem's parameters as ``derive`` reads them, one word each."""
    texts = (p if isinstance(p, str) else type_to_text(p) for p in params)
    return " ".join(f"({t})" if " " in t else t for t in texts)


def _count(text: str) -> int:
    """A ``--bound`` or ``--size`` value: a non-negative integer.  Other
    text gets the message argparse gives for ``type=int``."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _common_options() -> argparse.ArgumentParser:
    # shared options, accepted both before and after the subcommand; the
    # SUPPRESS default keeps a subcommand from clobbering a value that was
    # already parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sig", default=argparse.SUPPRESS,
                        help="signature file (.gttsig)")
    common.add_argument("--retract", choices=("on", "off"),
                        default=argparse.SUPPRESS,
                        help="override the retract flag")
    common.add_argument("--disjointness", choices=("on", "off"),
                        default=argparse.SUPPRESS,
                        help="override the disjointness flag")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="also write the report to this file")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = argparse.ArgumentParser(
        prog="gtt", parents=[common],
        description="check gradual typing judgments, derivations and models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="infer the type of a term file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("dyncheck", parents=[common],
                       help="decide 'A <= B' lines")
    p.add_argument("file")
    p.set_defaults(run=_cmd_dyncheck)

    p = sub.add_parser("prove", parents=[common],
                       help="check a derivation file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("derive", parents=[common],
                       help="emit a theorem's derivations")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.set_defaults(run=_cmd_derive)

    p = sub.add_parser("elaborate", parents=[common],
                       help="rewrite casts to ground casts")
    p.add_argument("file")
    p.set_defaults(run=_cmd_elaborate)

    p = sub.add_parser("normalize", parents=[common],
                       help="elaborate and normalize a term")
    p.add_argument("file")
    p.set_defaults(run=_cmd_normalize)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a closed term in the tree model")
    p.add_argument("file")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("compare", parents=[common],
                       help="compare two term files")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--syntactic", action="store_true")
    group.add_argument("--semantic", action="store_true")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(run=_cmd_compare)

    p = sub.add_parser("test-model", parents=[common],
                       help="equipment laws over derivable pairs")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--size", type=_count, default=3)
    p.set_defaults(run=_cmd_test_model)

    p = sub.add_parser("test-theorems", parents=[common],
                       help="derive and cross-check the catalog")
    p.add_argument("--bound", type=_count, default=2)
    p.add_argument("--size", type=_count, default=3)
    p.set_defaults(run=_cmd_test_theorems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sig = _load_signature(args)
        return args.run(args, sig)
    except _Failure as f:
        print(f.args[0], file=sys.stderr if f.code == 2 else sys.stdout)
        return f.code
    except OSError as e:  # a missing, unreadable or unwritable file
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GttError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except Exception as e:
        # a crash is never a negative answer
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
