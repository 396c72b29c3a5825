"""E6 — Theorem 2.10: RDFS entailment via closure + map.

Series: full entailment checks over generated ontologies (Fig. 1-shaped
schemas with instance data) of growing size, plus the cost split
between the closure computation and the final map search, and the cost
of producing a verifiable proof object (the theorem's poly-size
witness).
"""

import pytest

from repro.core import RDFGraph, Triple, URI
from repro.core.vocabulary import TYPE
from repro.generators import random_schema_with_instances
from repro.semantics import closure, construct_proof, entails, rdfs_closure_by_rules

SIZES = [(4, 3, 6, 10), (8, 6, 12, 20), (12, 9, 24, 40)]


def ontology(spec, seed=13):
    classes, properties, instances, uses = spec
    return random_schema_with_instances(
        classes, properties, instances, uses, blank_probability=0.2, seed=seed
    )


def conclusion(graph):
    """Ask whether some instance has the root class's type."""
    root = URI("class0")
    candidates = [t.s for t in graph.match(p=TYPE)]
    subject = sorted(candidates, key=str)[0]
    return RDFGraph([Triple(subject, TYPE, root)])


@pytest.mark.parametrize("spec", SIZES, ids=[f"G{i}" for i in range(len(SIZES))])
def test_rdfs_entailment(benchmark, spec):
    g = ontology(spec)
    h = conclusion(g)
    benchmark(entails, g, h)


@pytest.mark.parametrize("spec", SIZES, ids=[f"G{i}" for i in range(len(SIZES))])
def test_closure_fast(benchmark, spec):
    g = ontology(spec)
    benchmark(closure, g)


@pytest.mark.parametrize("spec", SIZES[:2], ids=["G0", "G1"])
def test_closure_rule_engine(benchmark, spec):
    # The literal Definition 2.7 engine — the ablation baseline for the
    # staged algorithm (DESIGN.md §5).
    g = ontology(spec)
    benchmark(rdfs_closure_by_rules, g)


@pytest.mark.parametrize("spec", SIZES[:2], ids=["G0", "G1"])
def test_proof_construction(benchmark, spec):
    g = ontology(spec)
    h = conclusion(g)
    if not entails(g, h):
        pytest.skip("instance does not entail the probe")
    proof = benchmark(construct_proof, g, h)
    assert proof is None or proof.verify()


def collect_series():
    import time

    rows = []
    for spec in SIZES:
        g = ontology(spec)
        h = conclusion(g)
        t0 = time.perf_counter()
        verdict = entails(g, h)
        t_ent = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        cl = closure(g)
        t_cl = (time.perf_counter() - t0) * 1e3
        rows.append((len(g), len(cl), verdict, t_ent, t_cl))
    return rows


def collect_ab_series():
    """Closure-kernel timings on the entailment ontologies.

    Rows: (family, |G|, arrays ms).
    """
    import time

    from repro.semantics.closure import rdfs_closure_arrays

    def best_of(fn, graph, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(graph)
            best = min(best, (time.perf_counter() - t0) * 1e3)
        return best

    rows = []
    for spec in SIZES:
        g = ontology(spec)
        rows.append(
            ("schema+instances", len(g), best_of(rdfs_closure_arrays, g))
        )
    return rows
