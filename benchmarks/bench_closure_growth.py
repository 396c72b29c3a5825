"""E8 — Theorem 3.6.3: the closure has size Θ(|G|²).

Series: closure size and computation time for the two quadratic
families (sp chains, property fan-outs) at doubling sizes.  The paper's
claim is the asymptotic *shape*: doubling |G| should roughly quadruple
|cl(G) − G|.
"""

import time

import pytest

from repro.generators import property_fanout, sc_chain_with_instance, sp_chain
from repro.semantics import rdfs_closure
from repro.semantics.closure import rdfs_closure_arrays

CHAIN_SIZES = [8, 16, 32, 64]
FANOUT_SIZES = [4, 8, 16]

#: Extended growth curve for the kernel timings: sp-chain(448) closes
#: to ~101k triples (the 10⁵ target), so these sizes only get
#: REPEATS_LARGE timed runs each.
EXTENDED_CHAIN_SIZES = [128, 256, 448]
REPEATS_LARGE = 2


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_closure_sp_chain(benchmark, n):
    graph = sp_chain(n)
    result = benchmark(rdfs_closure, graph)
    assert len(result) >= n * (n - 1) // 2  # the transitive pairs


@pytest.mark.parametrize("n", CHAIN_SIZES)
def test_closure_sc_chain_with_instance(benchmark, n):
    graph = sc_chain_with_instance(n)
    result = benchmark(rdfs_closure, graph)
    assert len(result) > n


@pytest.mark.parametrize("n", FANOUT_SIZES)
def test_closure_property_fanout(benchmark, n):
    graph = property_fanout(n, n)
    result = benchmark(rdfs_closure, graph)
    # Each of the n·n uses is lifted to the super-property.
    assert len(result) >= 2 * n * n


def collect_series():
    """Size series for the report: (family, |G|, |cl(G)|)."""
    rows = []
    for n in CHAIN_SIZES:
        g = sp_chain(n)
        rows.append(("sp-chain", len(g), len(rdfs_closure(g))))
    for n in CHAIN_SIZES:
        g = sc_chain_with_instance(n)
        rows.append(("sc-chain+instance", len(g), len(rdfs_closure(g))))
    for n in FANOUT_SIZES:
        g = property_fanout(n, n)
        rows.append(("property-fanout", len(g), len(rdfs_closure(g))))
    return rows


def _best_of(fn, graph, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(graph)
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


def collect_ab_series():
    """Closure-kernel timings: (family, |G|, arrays ms).

    Times the arrays kernel on the growth workloads so its speed is a
    committed, reviewable number (the CI perf gate watches the largest
    sp-chain row).
    """
    workloads = [("sp-chain", sp_chain(n)) for n in CHAIN_SIZES]
    workloads += [
        ("property-fanout", property_fanout(n, n)) for n in FANOUT_SIZES
    ]
    rows = []
    for family, g in workloads:
        rows.append((family, len(g), _best_of(rdfs_closure_arrays, g)))
    for n in EXTENDED_CHAIN_SIZES:
        g = sp_chain(n)
        arrays_ms = _best_of(rdfs_closure_arrays, g, repeats=REPEATS_LARGE)
        rows.append(("sp-chain", len(g), arrays_ms))
    return rows


def test_quadratic_shape():
    """Doubling the chain roughly quadruples the derived triples."""
    sizes = {}
    for n in CHAIN_SIZES:
        g = sp_chain(n)
        sizes[n] = len(rdfs_closure(g)) - len(g)
    for small, large in zip(CHAIN_SIZES, CHAIN_SIZES[1:]):
        ratio = sizes[large] / sizes[small]
        assert 2.5 < ratio < 6.0, (small, large, ratio)
