"""Semantics of RDF graphs: model theory, deduction, closure, entailment.

Implements Sections 2.3–2.4 of the paper: interpretations and models,
the 13-rule deductive system (sound and complete, Theorem 2.6), the two
equivalent closure notions, and the map-based entailment procedures.
"""

from .closure import (
    ClosureOracle,
    KERNEL_DISPATCH,
    closure,
    closure_delta,
    rdfs_closure,
    rdfs_closure_arrays,
    rdfs_closure_by_rules,
    rdfs_closure_rows,
)
from .entailment import (
    entailment_plan,
    entailment_witness,
    entails,
    equivalent,
    simple_entails,
    simple_equivalent,
)
from .herbrand import canonical_model, entails_by_model, find_countermodel
from .interpretation import Interpretation, models, satisfies_simple
from .owl_horst import (
    OWL_VOCABULARY,
    owl_closure,
    owl_entails,
    same_as_classes,
)
from .minimal_fragment import (
    is_reflexivity_free,
    reflexivity_padding,
    rho_closure,
    rho_entails,
    rho_equivalent,
)
from .proof import ExistentialStep, Proof, RuleStep, construct_proof
from .rules import ALL_RULES, RULES_BY_NAME, Rule, RuleInstantiation

__all__ = [
    "ALL_RULES",
    "ClosureOracle",
    "KERNEL_DISPATCH",
    "ExistentialStep",
    "Interpretation",
    "Proof",
    "RULES_BY_NAME",
    "Rule",
    "RuleInstantiation",
    "RuleStep",
    "canonical_model",
    "closure",
    "closure_delta",
    "construct_proof",
    "entailment_plan",
    "entailment_witness",
    "entails",
    "entails_by_model",
    "equivalent",
    "find_countermodel",
    "is_reflexivity_free",
    "reflexivity_padding",
    "rho_closure",
    "rho_entails",
    "rho_equivalent",
    "models",
    "OWL_VOCABULARY",
    "owl_closure",
    "owl_entails",
    "same_as_classes",
    "rdfs_closure",
    "rdfs_closure_arrays",
    "rdfs_closure_by_rules",
    "rdfs_closure_rows",
    "satisfies_simple",
    "simple_entails",
    "simple_equivalent",
]
