"""Guard overhead A/B: an infinite-budget guard vs no guard at all.

The execution-governance layer (repro.robustness.guard) promises that
its amortized checks keep a *guarded* run with an unlimited budget
within noise of an *unguarded* one — the per-step cost is one ambient
``is not None`` test plus, when a guard is installed, an int add and a
compare.  This benchmark commits that promise as a number the CI perf
gate watches (overhead above 1.1x fails the build).

Two sentinel workloads, one per governed kernel:

* the E4 ``hard/non-3-colorable n=10`` refutation — planner
  backtracking, where every candidate assignment ticks the guard;
* the sp-chain(64) closure — the arrays kernel, where every round
  charges its derived-fact count.

Timings are *interleaved* best-of-N minima: alternating the A and B
runs inside one loop exposes both variants to the same thermal /
scheduling environment, so the ratio is stable even when the absolute
numbers wobble.
"""

import time

from repro.generators import random_digraph, sp_chain
from repro.reductions import DiGraph, encode_graph
from repro.robustness import Budget, guarded
from repro.semantics import simple_entails
from repro.semantics.closure import rdfs_closure_arrays

REPEATS = 7


def _interleaved_best(fn, repeats=REPEATS):
    """(unguarded_ms, guarded_ms): interleaved best-of-*repeats* minima."""
    unlimited = Budget.unlimited()
    best_plain = best_guarded = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best_plain = min(best_plain, (time.perf_counter() - t0) * 1e3)
        with guarded(unlimited):
            t0 = time.perf_counter()
            fn()
            best_guarded = min(best_guarded, (time.perf_counter() - t0) * 1e3)
    return best_plain, best_guarded


def _e4_hard_workload(n=10):
    """The E4 perf-gate sentinel: exhaustive non-3-colorable refutation."""
    base = random_digraph(n, 2 * n, seed=9)
    instance = DiGraph(edges=set(base.edges) | set(DiGraph.complete(4).edges))
    k3 = encode_graph(DiGraph.complete(3))
    pattern = encode_graph(instance.symmetrized())

    def run():
        assert simple_entails(k3, pattern) is False

    return run


def _closure_workload(n=64):
    """The closure perf-gate sentinel: sp-chain(64), arrays kernel."""
    graph = sp_chain(n)

    def run():
        rdfs_closure_arrays(graph)

    return run


def collect_ab_series():
    """Rows of (workload, unguarded ms, guarded ms, overhead ratio)."""
    rows = []
    for name, workload in [
        ("E4 hard n=10 entail", _e4_hard_workload()),
        ("sp-chain(64) closure", _closure_workload()),
    ]:
        plain_ms, guarded_ms = _interleaved_best(workload)
        overhead = guarded_ms / plain_ms if plain_ms else float("inf")
        rows.append((name, plain_ms, guarded_ms, overhead))
    return rows
