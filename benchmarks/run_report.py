#!/usr/bin/env python3
"""Regenerate every experiment series and print the report tables.

This is the harness behind EXPERIMENTS.md: each section corresponds to
one experiment id from DESIGN.md's per-experiment index and prints the
measured rows next to the paper's predicted shape.

Run:  python benchmarks/run_report.py            # full report
      python benchmarks/run_report.py --quick    # CI smoke: E4 + E5 + store

Both modes re-measure the two entailment experiments (E4 hardness, E5
acyclic routing) plus the closure-kernel timings and write
``BENCH_entailment.json`` at the repo root: the pre-planner seed
baselines next to the current run's numbers, so perf regressions in the
matching planner or the closure kernel show up in review
diffs (and trip benchmarks/check_regression.py in CI).  They
also run the mixed insert/delete store workload and write
``BENCH_store.json``: the seed's recompute-on-delete baseline next to
the DRed deletion maintenance numbers, plus the read loop against the
live dataset cache.

After the timed series, one *instrumented* representative pass per
section runs under ``repro.obs.instrumentation()`` (separately, so the
registry/tracer overhead never inflates the reported timings).  The
resulting counter/span snapshots are attached to each bench entry under
a ``"metrics"`` key and also written standalone as
``BENCH_metrics.json``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import bench_acyclic_entailment
from bench_util import atomic_write_json
import bench_closure_ablation
import bench_closure_growth
import bench_containment
import bench_core_hardness
import bench_entailment_hardness
import bench_guard_overhead
import bench_membership
import bench_minimal
import bench_normal_form
import bench_owl
import bench_paths
import bench_query_vs_data_complexity
import bench_redundancy
import bench_rdfs_entailment
import bench_rho
import bench_store
import bench_treewidth


def section(exp_id: str, title: str, prediction: str) -> None:
    print(f"\n{'=' * 72}")
    print(f"{exp_id}: {title}")
    print(f"paper's prediction: {prediction}")
    print("-" * 72)


#: Pre-planner baselines (seed commit, single-run timings on the same
#: workloads) — the "before" column of BENCH_entailment.json.
SEED_BASELINE = {
    "E4": [
        {"family": "easy/blank-chain", "n": 10, "ms": 0.056},
        {"family": "easy/blank-chain", "n": 20, "ms": 0.124},
        {"family": "easy/blank-chain", "n": 40, "ms": 0.080},
        {"family": "hard/non-3-colorable", "n": 6, "ms": 4.792},
        {"family": "hard/non-3-colorable", "n": 8, "ms": 4.122},
        {"family": "hard/non-3-colorable", "n": 10, "ms": 60.030},
    ],
    "E5": [
        {"chain": 4, "yannakakis_ms": 7.503, "backtrack_ms": 0.399},
        {"chain": 8, "yannakakis_ms": 12.721, "backtrack_ms": 0.611},
        {"chain": 16, "yannakakis_ms": 26.676, "backtrack_ms": 1.011},
        {"chain": 32, "yannakakis_ms": 63.876, "backtrack_ms": 2.322},
    ],
}


def entailment_sections():
    """Run + print E4 and E5; return their rows for the JSON artifact."""
    section(
        "E4",
        "simple entailment hardness (Theorem 2.9)",
        "hard (coloring) instances blow up; easy (acyclic) stay flat",
    )
    print(f"{'family':22s} {'n':>4s} {'ms':>10s}")
    e4_rows = bench_entailment_hardness.collect_series()
    for family, n, ms in e4_rows:
        print(f"{family:22s} {n:4d} {ms:10.3f}")

    section(
        "E5",
        "blank-acyclic entailment (Section 2.4)",
        "Yannakakis pipeline polynomial; agrees with backtracking",
    )
    print(f"{'chain':>6s} {'entailed':>9s} {'yannakakis ms':>14s} {'backtrack ms':>13s}")
    e5_rows = bench_acyclic_entailment.collect_series()
    for n, verdict, t_yann, t_back in e5_rows:
        print(f"{n:6d} {str(verdict):>9s} {t_yann:14.3f} {t_back:13.3f}")

    return e4_rows, e5_rows


def _kernel_row(family, size, arr_ms):
    """Print + payload for one closure-kernel row."""
    print(f"{family:20s} {size:6d} {arr_ms:10.3f}")
    return {"family": family, "size": size, "arrays_ms": round(arr_ms, 3)}


def closure_kernel_section():
    """Run + print the closure-kernel timings; return the payload.

    Runs in both full and --quick mode: the committed rows in
    ``BENCH_entailment.json`` are the baseline the CI perf gate
    (benchmarks/check_regression.py) compares fresh runs against.
    """
    section(
        "A3",
        "closure kernel timings (arrays)",
        "time tracks the Θ(|G|²) closure size (Theorem 3.6.3)",
    )
    print(f"{'family':20s} {'|G|':>6s} {'arrays ms':>10s}")
    growth = [
        _kernel_row(*row) for row in bench_closure_growth.collect_ab_series()
    ]
    entailment = [
        _kernel_row(*row) for row in bench_rdfs_entailment.collect_ab_series()
    ]
    return {
        "units": (
            "ms (best of 5 runs each; extended sp-chain sizes best of "
            f"{bench_closure_growth.REPEATS_LARGE})"
        ),
        "growth": growth,
        "entailment": entailment,
    }


def guard_overhead_section():
    """Run + print the guard-overhead A/B; return the payload.

    Runs in both full and --quick mode: the CI gate
    (benchmarks/check_regression.py) fails a fresh run whose
    infinite-budget guarded timing exceeds 1.1x the unguarded one on
    either sentinel workload.
    """
    section(
        "R1",
        "robustness: execution-guard overhead (repro.robustness.guard)",
        "guarded with an unlimited budget within noise (≤1.1x) of unguarded",
    )
    print(
        f"{'workload':22s} {'unguarded ms':>13s} {'guarded ms':>11s} "
        f"{'overhead':>9s}"
    )
    rows = []
    for name, plain_ms, guarded_ms, overhead in (
        bench_guard_overhead.collect_ab_series()
    ):
        print(
            f"{name:22s} {plain_ms:13.3f} {guarded_ms:11.3f} "
            f"{overhead:8.3f}x"
        )
        rows.append(
            {
                "workload": name,
                "unguarded_ms": round(plain_ms, 3),
                "guarded_ms": round(guarded_ms, 3),
                "overhead": round(overhead, 3),
            }
        )
    return {
        "units": (
            "ms (interleaved best of "
            f"{bench_guard_overhead.REPEATS} runs each)"
        ),
        "rows": rows,
    }


def store_section():
    """Run + print the store write-path workload; return the payload."""
    section(
        "A2b",
        "delta-aware store writes (repro.store)",
        "DRed deletion ≪ recompute-on-delete; reads O(1) from the cache",
    )
    payload = bench_store.store_payload()
    delete = payload["delete"]
    print(
        f"closure size {delete['closure_size']}, "
        f"{delete['deletions']} single-triple deletions"
    )
    print(f"{'victim':>7s} {'dred ms':>9s} {'recompute ms':>13s}")
    for i, (dred, rec) in enumerate(
        zip(delete["dred_ms"], delete["seed_recompute_ms"])
    ):
        print(f"{i:7d} {dred:9.3f} {rec:13.3f}")
    print(
        f"median: dred {delete['median_dred_ms']:.3f} ms, "
        f"seed recompute {delete['median_seed_ms']:.3f} ms "
        f"→ speedup {delete['speedup']}x"
    )
    reads = payload["read_loop"]
    print(
        f"read loop ({reads['reads']} dataset() calls after a write): "
        f"first {reads['first_call_ms']:.3f} ms, "
        f"then {reads['cached_avg_us']:.1f} us/call cached "
        f"vs {reads['seed_rebuild_avg_us']:.1f} us/call seed rebuild"
    )
    return payload


def collect_metrics_snapshots():
    """One instrumented representative pass per benchmark section.

    Runs *after* (and apart from) the timed series so the registry and
    tracer never inflate the reported numbers.  Each snapshot pairs the
    counter/gauge/histogram state with the per-span rollup for one
    representative workload:

    * ``E4`` — the hardest non-3-colorable instance (planner
      backtracking under exhaustive refutation);
    * ``E5`` — the longest blank chain through both the Yannakakis
      pipeline and the backtracking solver;
    * ``store`` — materialize, insert stream, one DRed deletion, then a
      short read loop against the dataset cache;
    * ``ingest`` — a smoke-sized bulk load plus the ``arrays`` close
      that ``repro load --close`` runs on the loaded rows.
    """
    from repro import obs
    from repro.generators import blank_chain, random_digraph
    from repro.reductions import DiGraph, encode_graph
    from repro.relational import simple_entails_acyclic
    from repro.semantics import simple_entails
    from repro.store import TripleStore

    def snap(registry, tracer):
        return {"metrics": registry.snapshot(), "spans": tracer.aggregate()}

    snapshots = {}

    with obs.instrumentation() as (registry, tracer):
        n = bench_entailment_hardness.HARD_SIZES[-1]
        base = random_digraph(n, 2 * n, seed=9)
        instance = DiGraph(
            edges=set(base.edges) | set(DiGraph.complete(4).edges)
        )
        k3 = encode_graph(DiGraph.complete(3))
        simple_entails(k3, encode_graph(instance.symmetrized()))
        snapshots["E4"] = snap(registry, tracer)

    with obs.instrumentation() as (registry, tracer):
        g1 = bench_acyclic_entailment.data_graph()
        g2 = blank_chain(
            bench_acyclic_entailment.PATTERN_SIZES[-1], predicate="p0"
        )
        simple_entails_acyclic(g1, g2)
        simple_entails(g1, g2)
        snapshots["E5"] = snap(registry, tracer)

    with obs.instrumentation() as (registry, tracer):
        store = TripleStore()
        store.add_all(bench_store.base_ontology(bench_store.BASE_SPECS[0]))
        store.closure()
        inserts = bench_store.insert_stream(bench_store.INSERTS)
        for t in inserts:
            store.add(t)
        store.remove(inserts[0])
        for _ in range(8):
            store.dataset()
        snapshots["store"] = snap(registry, tracer)

    with obs.instrumentation() as (registry, tracer):
        import os
        import tempfile

        from repro.generators import write_synthetic_ontology
        from repro.ingest import load_ntriples
        from repro.semantics.closure import rdfs_closure_rows

        with tempfile.TemporaryDirectory(prefix="repro-obs-") as tmp:
            path = os.path.join(tmp, "onto.nt")
            write_synthetic_ontology(path, 10_000)
            loaded = load_ntriples(path)
            rdfs_closure_rows(loaded.runs.rows())
        snapshots["ingest"] = snap(registry, tracer)

    return snapshots


def write_metrics_json(snapshots, path: Path) -> None:
    """Standalone instrumentation snapshots, one per bench section."""
    payload = {
        "description": (
            "Observability snapshots from one instrumented representative "
            "pass per benchmark section (repro.obs registry counters and "
            "tracer span rollups; timings are collected separately and "
            "never run instrumented). "
            "Regenerate with: python benchmarks/run_report.py"
        ),
        "sections": snapshots,
    }
    atomic_write_json(path, payload)
    print(f"wrote {path}")


def write_store_json(payload, path: Path, metrics=None) -> None:
    """Seed-vs-current store write numbers as a reviewable artifact."""
    if metrics is not None:
        payload = dict(payload, metrics=metrics)
    atomic_write_json(path, payload)
    print(f"\nwrote {path}")


def write_bench_json(
    e4_rows,
    e5_rows,
    path: Path,
    metrics=None,
    closure_kernel=None,
    guard_overhead=None,
) -> None:
    """Seed-vs-current E4/E5 numbers as a reviewable JSON artifact."""
    payload = {
        "description": (
            "Entailment benchmarks (E4 hardness, E5 acyclic routing): "
            "pre-planner seed baseline vs the current matching planner, "
            "plus the closure-kernel timings. "
            "Regenerate with: python benchmarks/run_report.py"
        ),
        "units": "ms (best of 5 runs for 'current'; seed was single-run)",
        "seed": SEED_BASELINE,
        "current": {
            "E4": [
                {"family": family, "n": n, "ms": round(ms, 3)}
                for family, n, ms in e4_rows
            ],
            "E5": [
                {
                    "chain": n,
                    "yannakakis_ms": round(t_yann, 3),
                    "backtrack_ms": round(t_back, 3),
                }
                for n, _verdict, t_yann, t_back in e5_rows
            ],
        },
    }
    if closure_kernel is not None:
        payload["closure_kernel"] = closure_kernel
    if guard_overhead is not None:
        payload["guard_overhead"] = guard_overhead
    if metrics is not None:
        payload["metrics"] = metrics
    atomic_write_json(path, payload)
    print(f"\nwrote {path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: entailment sections (E4, E5) + store writes",
    )
    args = parser.parse_args(argv)

    root = Path(__file__).parent.parent
    print("Experiment report — Foundations of Semantic Web Databases")
    if args.quick:
        print(
            "(quick mode: entailment + closure kernel + guard overhead "
            "+ store writes)"
        )
        e4_rows, e5_rows = entailment_sections()
        kernel_ab = closure_kernel_section()
        guard_ab = guard_overhead_section()
        store_rows = store_section()
        snapshots = collect_metrics_snapshots()
        write_bench_json(
            e4_rows,
            e5_rows,
            root / "BENCH_entailment.json",
            metrics={k: snapshots[k] for k in ("E4", "E5")},
            closure_kernel=kernel_ab,
            guard_overhead=guard_ab,
        )
        write_store_json(
            store_rows,
            root / "BENCH_store.json",
            metrics=snapshots["store"],
        )
        write_metrics_json(snapshots, root / "BENCH_metrics.json")
        print("\nreport complete.")
        return

    section("E8", "closure growth (Theorem 3.6.3)", "|cl(G)| = Θ(|G|²)")
    print(f"{'family':20s} {'|G|':>6s} {'|cl(G)|':>8s}")
    for family, size, closed in bench_closure_growth.collect_series():
        print(f"{family:20s} {size:6d} {closed:8d}")

    section(
        "E8b",
        "closure membership (Theorem 3.6.4)",
        "oracle ≪ materialization, gap widening with |G|",
    )
    print(f"{'|G|':>6s} {'oracle ms':>10s} {'materialize ms':>15s}")
    for n, t_oracle, t_mat in bench_membership.collect_series():
        print(f"{n:6d} {t_oracle:10.3f} {t_mat:15.3f}")

    e4_rows, e5_rows = entailment_sections()

    section(
        "E6",
        "RDFS entailment (Theorem 2.10)",
        "poly-size witness: closure (quadratic) + map search",
    )
    print(f"{'|G|':>6s} {'|cl|':>6s} {'verdict':>8s} {'entail ms':>10s} {'closure ms':>11s}")
    for size, cl, verdict, t_ent, t_cl in bench_rdfs_entailment.collect_series():
        print(f"{size:6d} {cl:6d} {str(verdict):>8s} {t_ent:10.3f} {t_cl:11.3f}")

    section(
        "E11",
        "leanness / cores (Theorem 3.12)",
        "coNP leanness on cores (odd cycles) costlier than easy refutations",
    )
    print(f"{'family':18s} {'n':>4s} {'ms':>10s}")
    for family, n, ms in bench_core_hardness.collect_series():
        print(f"{family:18s} {n:4d} {ms:10.3f}")

    section(
        "E13",
        "minimal representations (Theorem 3.16)",
        "unique minimum recovered from saturated hierarchies",
    )
    print(f"{'|G|':>6s} {'|min|':>6s} {'ms':>10s}")
    for size, minimum, ms in bench_minimal.collect_series():
        print(f"{size:6d} {minimum:6d} {ms:10.3f}")

    section(
        "E15/E16",
        "normal forms (Theorems 3.19/3.20)",
        "nf = core ∘ closure; closure dominates on ground-heavy data",
    )
    print(f"{'|G|':>6s} {'|cl|':>6s} {'|nf|':>6s} {'closure ms':>11s} {'core ms':>9s}")
    for size, cl, nf, t_cl, t_core in bench_normal_form.collect_series():
        print(f"{size:6d} {cl:6d} {nf:6d} {t_cl:11.3f} {t_core:9.3f}")

    section(
        "E24",
        "containment (Theorems 5.6/5.12)",
        "NP certificates; Ω_q grows with bodies under premises",
    )
    print(f"{'series':14s} {'n':>4s} {'value':>6s} {'ms':>10s}")
    for series, n, value, ms in bench_containment.collect_series():
        print(f"{series:14s} {n:4d} {str(value):>6s} {ms:10.3f}")

    section(
        "E25",
        "query vs data complexity (Theorem 6.1)",
        "polynomial in |D| at fixed q; exponential in |q| at fixed D",
    )
    print(f"{'series':18s} {'n':>6s} {'answers':>8s} {'ms':>12s}")
    for series, n, count, ms in bench_query_vs_data_complexity.collect_series():
        print(f"{series:18s} {n:6d} {count:8d} {ms:12.3f}")

    section(
        "E27",
        "redundancy elimination (Theorems 6.2/6.3)",
        "merge-semantics leanness polynomial; union-semantics coNP",
    )
    print(f"{'workload':12s} {'n':>4s} {'answers':>8s} {'union ms':>10s} {'merge ms':>10s}")
    for workload, n, answers, t_union, t_merge in bench_redundancy.collect_series():
        print(f"{workload:12s} {n:4d} {answers:8d} {t_union:10.3f} {t_merge:10.3f}")

    section(
        "A1",
        "ablation: three closure implementations (DESIGN.md §5)",
        "staged < datalog semi-naive < literal rule engine",
    )
    print(f"{'|G|':>6s} {'staged ms':>10s} {'rule-engine ms':>15s} {'datalog ms':>11s}")
    for size, t_staged, t_rules, t_datalog in bench_closure_ablation.collect_series():
        print(f"{size:6d} {t_staged:10.3f} {t_rules:15.3f} {t_datalog:11.3f}")

    section(
        "A2",
        "ablation: incremental closure maintenance (repro.store)",
        "delta propagation beats per-insert recomputation",
    )
    print(f"{'|base|':>7s} {'inserts':>8s} {'incremental ms':>15s} {'recompute ms':>13s}")
    for size, inserts, t_inc, t_rec in bench_store.collect_series():
        print(f"{size:7d} {inserts:8d} {t_inc:15.3f} {t_rec:13.3f}")

    kernel_ab = closure_kernel_section()
    guard_ab = guard_overhead_section()
    store_rows = store_section()

    section(
        "X1",
        "extension: path queries (repro.navigation)",
        "single-source BFS ≪ all-pairs materialization",
    )
    print(f"{'|G|':>6s} {'pairs':>6s} {'single-src ms':>14s} {'all-pairs ms':>13s}")
    for n, pairs, t_single, t_all in bench_paths.collect_series():
        print(f"{n:6d} {pairs:6d} {t_single:14.3f} {t_all:13.3f}")

    section(
        "X2",
        "extension: bounded-treewidth entailment (§2.4 third case)",
        "polynomial on width-2 cyclic patterns the acyclic pipeline rejects",
    )
    print(f"{'rungs':>6s} {'entailed':>9s} {'treewidth ms':>13s} {'backtrack ms':>13s}")
    for n, verdict, t_tw, t_back in bench_treewidth.collect_series():
        print(f"{n:6d} {str(verdict):>9s} {t_tw:13.3f} {t_back:13.3f}")

    section(
        "X5",
        "extension: the ρdf (reflexivity-free) fragment [31]",
        "ρ-closure smaller and faster; RDFS-cl = ρ-cl ∪ padding",
    )
    print(f"{'|G|':>6s} {'|RDFS-cl|':>10s} {'|ρ-cl|':>7s} {'full ms':>8s} {'ρ ms':>8s}")
    for size, full, rho, t_full, t_rho in bench_rho.collect_series():
        print(f"{size:6d} {full:10d} {rho:7d} {t_full:8.3f} {t_rho:8.3f}")

    section(
        "X6",
        "extension: pD*-lite OWL vocabulary (ter Horst [26])",
        "joint closure stays polynomial; sameAs substitution is the hot spot",
    )
    print(f"{'|G|':>6s} {'|RDFS-cl|':>10s} {'|OWL-cl|':>9s} {'rdfs ms':>8s} {'owl ms':>8s}")
    for size, rdfs_n, owl_n, t_rdfs, t_owl in bench_owl.collect_series():
        print(f"{size:6d} {rdfs_n:10d} {owl_n:9d} {t_rdfs:8.3f} {t_owl:8.3f}")

    snapshots = collect_metrics_snapshots()
    write_bench_json(
        e4_rows,
        e5_rows,
        root / "BENCH_entailment.json",
        metrics={k: snapshots[k] for k in ("E4", "E5")},
        closure_kernel=kernel_ab,
        guard_overhead=guard_ab,
    )
    write_store_json(
        store_rows, root / "BENCH_store.json", metrics=snapshots["store"]
    )
    write_metrics_json(snapshots, root / "BENCH_metrics.json")

    print("\nreport complete.")


if __name__ == "__main__":
    main()
