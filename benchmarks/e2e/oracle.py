"""Set-up check of the generator's expectations against the paper.

The harness compares the program's outputs with values the generator
derived by construction.  Those values are only as good as the
generator's picture of RDFS, so a seeded sample of them is recomputed
here along the **specification path** and never along a fast one:

    dataset at that point of the script
      -> ``rdfs_closure_by_rules``   (the 13-rule system, Definition 2.7)
      -> ``core``                    (Definition 3.18: nf = core(cl))
      -> Definition 4.3 matching     (the generator's plain join, run
                                      over the rule system's normal form)

The dataset is rebuilt by replaying the script's update batches over
the data file — the inputs the program receives — not read from the
generator's model.  The rule engine costs about a millisecond per
input triple *per closure*, so the check is applied only to inputs it
can close within the benchmark's time cap (``MAX_TRIPLES``); larger
ground inputs rely on the by-construction values alone.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Tuple

from repro.minimize.core_graph import core
from repro.rdfio.ntriples import parse_ntriples, serialize_ntriples
from repro.semantics.closure import rdfs_closure_by_rules

import workloads as wl

#: Largest input the rule engine is asked to close (see module docstring).
MAX_TRIPLES = 1500

#: Share of the checkable operations of each kind that is recomputed.
SAMPLE_SHARE = 0.10


def _kind(op: Dict) -> str:
    if op["op"] == "query":
        return "visible" if op["phase"] == "V" else "query"
    return op["op"]


def _triples(graph) -> List[wl.TripleT]:
    return [tuple(line.split()[:3]) for line in serialize_ntriples(graph).splitlines()]


class _Spec:
    """Rule-system closures and normal forms, memoized per dataset."""

    def __init__(self) -> None:
        self._closed: Dict[FrozenSet[str], object] = {}
        self._indexes: Dict[Tuple[FrozenSet[str], str], wl.Index] = {}

    def closed(self, lines: FrozenSet[str], premise: str = ""):
        key = lines | {"PREMISE " + premise}
        graph = self._closed.get(key)
        if graph is None:
            data = parse_ntriples("\n".join(sorted(lines)))
            if premise:
                data = data + parse_ntriples(premise)  # merge: blanks apart
            graph = self._closed[key] = rdfs_closure_by_rules(data)
        return key, graph

    def index(self, lines: FrozenSet[str], premise: str = "", normal_form: bool = True):
        key, graph = self.closed(lines, premise)
        which = "nf" if normal_form else "cl"
        index = self._indexes.get((key, which))
        if index is None:
            if normal_form:
                graph = core(graph)
            index = self._indexes[(key, which)] = wl.Index(_triples(graph))
        return index


def check_sample(w: wl.Workload, seed: int) -> Tuple[int, List[str]]:
    """``(operations checked, mismatch descriptions)`` for workload *w*."""
    if w.input_triples > MAX_TRIPLES:
        return 0, []
    # which operations may be sampled: everything with an expected
    # answer on blank-node data, the post-update answers on ground data
    blank_data = bool(w.sizes["kept_blanks"] or w.sizes["redundant_blanks"])
    first_update = next(
        (i for i, op in enumerate(w.script) if op["op"] == "update"), len(w.script)
    )
    by_kind: Dict[str, List[int]] = {}
    for i, op in enumerate(w.script):
        kind = _kind(op)
        if kind not in ("query", "visible", "premise", "entails"):
            continue
        if blank_data or i > first_update:
            by_kind.setdefault(kind, []).append(i)
    rng = random.Random(seed * 7919 + 13)
    # The last post-update query sees the same dataset as the entailment
    # checks; leaving it out keeps the number of distinct datasets to close
    # — which is what set-up time is made of — the same for every seed.
    if len(by_kind.get("visible", ())) > 1:
        by_kind["visible"].pop()
    chosen = set()
    for kind in sorted(by_kind):
        pool = by_kind[kind]
        chosen.update(rng.sample(pool, math.ceil(SAMPLE_SHARE * len(pool))))

    spec = _Spec()
    state = set(w.data_lines)
    mismatches: List[str] = []
    for i, op in enumerate(w.script):
        if op["op"] == "update":
            state.difference_update(op["remove"])
            state.update(op["add"])
            continue
        if i not in chosen:
            continue
        lines = frozenset(state)
        want = w.expected[i]
        if op["op"] == "entails":
            goal = [tuple(x.split()[:3]) for x in op["goal"].splitlines()]
            got = {"value": wl.entailed(goal, spec.index(lines, normal_form=False))}
        else:
            head, body, premise, bound = wl.parse_query_text(op["query"])
            premise_text = "\n".join(wl.line(t) for t in premise)
            index = spec.index(lines, premise_text)
            n, sha = wl.canonical_digest(wl.answer_lines(head, body, index, bound))
            got = {"n": n, "sha": sha}
        if got != want:
            mismatches.append(f"op {i} ({_kind(op)}): generator {want}, rule system {got}")
    return len(chosen), mismatches
