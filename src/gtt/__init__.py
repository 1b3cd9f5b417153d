"""Proof-checking kernel for a call-by-name gradual typing calculus.

Five layers: ``syntax`` (terms, types, substitution), ``typecheck``
(signatures, typing, type dynamism), ``dynamism`` plus ``theorems``
(derivation checking and the derived cast theorems), ``elaborate``
(contract translation and normalization) and ``model`` (the denotational
semantics, in which ``?`` is a sum of the other types' values).  ``cli``
ties them together over text files.
"""

from .syntax import (
    App, Base, Bound, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam,
    NAT, Pair, Prod, Proj, Term, Type, Unit, UNIT, UnitVal, UNITVAL, Upcast,
    Var, free_vars, instantiate, num, substitute, subst1,
)
from .typecheck import (
    DynCtx, Signature, check_ctx_dyn, check_type_wf, default_signature,
    infer_type, tydyn_holds,
)
from .dynamism import (
    Derivation, DynJudgment, check_derivation, derivation_errors,
)
from .theorems import derive_sequent, derive_theorem, theorem_instances
from .elaborate import elaborate, equal_terms, normalize, oblique_cast
from .model import (
    Coreflection, check_equipment, check_judgment_semantics,
    denote_coreflection, eval_term, value_leq,
)

__version__ = "0.1.0"
