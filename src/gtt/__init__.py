"""Proof-checking kernel for a call-by-name gradual typing calculus.

Five layers: ``syntax`` (terms, types, substitution), ``typecheck``
(signatures, typing, type dynamism), ``dynamism`` plus ``theorems``
(derivation checking and the derived cast theorems), ``elaborate``
(contract translation and normalization) and ``model`` (the finite-tree
denotational semantics).  ``cli`` ties them together over text files.
"""

from .syntax import (
    App, Base, Context, Downcast, DYN, Err, Fn, FnApp, GttError, Lam, NAT,
    Pair, Prod, Proj, Term, Type, Unit, UNIT, UnitVal, UNITVAL, Upcast, Var,
    alpha_eq, free_vars, num, substitute, subst1,
)
from .typecheck import (
    DynCtx, Signature, check_ctx_dyn, check_type_wf, default_signature,
    infer_type, tydyn_holds,
)
from .dynamism import (
    Derivation, DynJudgment, check_derivation, derivation_errors,
    derive_sequent,
)
from .theorems import derive_theorem, theorem_instances
from .elaborate import elaborate, equal_terms, normalize, oblique_cast
from .model import (
    Coreflection, ErrLeaf, NatLeaf, Node, Tree, check_equipment,
    check_judgment_semantics, denote_coreflection, eval_term, tree_leq,
    value_leq,
)

__version__ = "0.1.0"
