"""Proof-checking kernel for a call-by-name gradual typing calculus.

Five layers: ``syntax`` (terms, types, substitution), ``typecheck``
(signatures, typing, type dynamism), ``dynamism`` plus ``theorems``
(derivation checking and the derived cast theorems), ``elaborate``
(contract translation and normalization) and ``model`` (the denotational
semantics, in which ``?`` is a sum of the other types' values).  ``cli``
ties them together over text files.

``import gtt`` loads ``syntax``, ``typecheck`` and ``elaborate`` only;
every other name here resolves on first use (PEP 562), loading its layer
then.  ``gtt.elaborate`` is the function, not the module; reach the
module with ``from gtt.elaborate import ...``.
"""

from importlib import import_module as _load

# eager: loading the module binds ``gtt.elaborate`` to it, and only this
# import, run after that, keeps the name the function in every import order
from .elaborate import elaborate, equal_terms, normalize, oblique_cast

_HOME = {
    **dict.fromkeys((
        "App", "Base", "Bound", "Context", "Downcast", "DYN", "Err", "Fn",
        "FnApp", "GttError", "Lam", "NAT", "Pair", "Prod", "Proj", "Term",
        "Type", "Unit", "UNIT", "UnitVal", "UNITVAL", "Upcast", "Var",
        "free_vars", "instantiate", "num", "substitute", "subst1"), "syntax"),
    **dict.fromkeys((
        "DynCtx", "Signature", "check_ctx_dyn", "check_type_wf",
        "default_signature", "infer_type", "tydyn_holds"), "typecheck"),
    **dict.fromkeys((
        "Derivation", "DynJudgment", "check_derivation",
        "derivation_errors"), "dynamism"),
    **dict.fromkeys((
        "derive_sequent", "derive_theorem", "theorem_instances"), "theorems"),
    **dict.fromkeys((
        "Coreflection", "check_equipment", "check_judgment_semantics",
        "denote_coreflection"), "model"),
}
_LAYERS = ("syntax", "typecheck", "dynamism", "theorems", "model")

__all__ = sorted([*_HOME, *_LAYERS, "elaborate", "equal_terms", "normalize",
                  "oblique_cast"])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return _load(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
