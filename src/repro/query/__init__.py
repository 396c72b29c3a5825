"""The tableau query language for RDF (Sections 4–6 of the paper).

Queries ``(H, B, P, C)``, matchings against ``nf(D + P)``, union/merge
answer semantics, standard and entailment-based containment, and
redundancy elimination.
"""

from .answers import (
    answer_merge,
    answer_union,
    answers,
    answers_from_valuations,
    identity_query,
    pre_answers,
    pre_answers_from_valuations,
    single_answer,
    skolem_term,
)
from .cache import QueryCache
from .containment import (
    body_substitutions,
    contained_entailment,
    contained_standard,
    premise_elimination,
)
from .matching import (
    iter_matchings,
    matching_plan,
    matching_target,
    satisfies_constraints,
)
from .redundancy import (
    merge_answer_is_lean,
    merge_is_lean_given_answers,
    reduced_answer,
    union_answer_is_lean,
)
from .path_queries import PathAtom, PathQuery, build_path_query, path_atom
from .tableau import PatternGraph, Query, Tableau, head_body_query, pattern
from .unions import UnionQuery, union_contained_entailment, union_contained_standard
from .views import View, ViewCatalog, unfold_query

__all__ = [
    "PathAtom",
    "PathQuery",
    "UnionQuery",
    "build_path_query",
    "path_atom",
    "View",
    "ViewCatalog",
    "unfold_query",
    "union_contained_entailment",
    "union_contained_standard",
    "PatternGraph",
    "Query",
    "QueryCache",
    "Tableau",
    "answer_merge",
    "answer_union",
    "answers",
    "answers_from_valuations",
    "pre_answers_from_valuations",
    "body_substitutions",
    "contained_entailment",
    "contained_standard",
    "head_body_query",
    "identity_query",
    "iter_matchings",
    "matching_plan",
    "matching_target",
    "merge_answer_is_lean",
    "merge_is_lean_given_answers",
    "pattern",
    "pre_answers",
    "premise_elimination",
    "reduced_answer",
    "satisfies_constraints",
    "single_answer",
    "skolem_term",
    "union_answer_is_lean",
]
