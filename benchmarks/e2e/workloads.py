"""Seeded input generator for the end-to-end benchmark.

Everything the program under test receives is produced here, from the
seed alone: an N-Triples data file, and a *script* — the ordered query
texts, update batches, entailment goals and containment pairs one
serving process executes.  Beside the script the generator keeps, for
the harness only, the **expected outcome of every operation, derived by
construction**: the family below is regular enough that its RDFS
closure follows from the class tree and property forest directly (tree
ancestors, never a rule engine), so the expected answer of a query is a
small join over that hand-built closure.  ``oracle.py`` cross-checks a
sample of these expectations against the paper's rule system in set-up.

This module imports nothing from ``repro``: the generator must not be
able to agree with the program by sharing its code.

The family (after ``repro.generators.ontology``, plus seeded labels):

* a binary ``sc`` tree over ``classes`` classes rooted at ``c0000``;
* a depth-2 ``sp`` forest: ``props`` leaf properties under ``groups``
  group properties under the root ``related``;
* ``related dom c0000`` and ``related range c0000``;
* ``entities`` entities, each with one ``type`` triple at a leaf class
  and ``degree`` outgoing edges on leaf properties;
* optionally blank-node descriptions: *redundant* ones copy part of an
  entity's description (the core folds them away), *kept* ones point
  at a URI nothing else mentions (so no map can move them).

**The seed changes the inputs, not the amount of work.**  Shapes are
arithmetic (every leaf class has the same number of instances, every
property the same number of edges); the seed permutes entity labels,
shifts the class/property/target assignment, and picks each
operation's constants among alternatives of equal cost.  The *kind* of
operation at each script position and the popularity ranks drawn in the
cached phase are fixed.  Otherwise a run-to-run difference would
measure the draw (how many heavy queries, how many cache misses) and
not the program.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "SIZES",
    "WORKLOADS",
    "Index",
    "Model",
    "Workload",
    "answer_lines",
    "build_workload",
    "canonical_digest",
    "entailed",
    "line",
    "parse_query_text",
    "write_workload",
]

Term = str
TripleT = Tuple[Term, Term, Term]

TYPE, SC, SP, DOM, RANGE = "type", "sc", "sp", "dom", "range"
ROOT_PROPERTY = "related"

#: Why each workload exists (also the ``why`` lines of BENCHMARK.json).
WORKLOADS = {
    "cold_start": (
        "largest ground input: load, open and the cold closure before the "
        "first answer dominate; query and update work is small beside them"
    ),
    "query_mix": (
        "warm reads: many distinct queries with the cache off, then skewed "
        "repeats with it on, so a cache gain that taxes the miss path shows"
    ),
    "update_stream": (
        "durable commits each followed by a query that must see them, with "
        "checkpoints in-run: write cost and the read-after-write refresh"
    ),
    "blank_premise": (
        "blank-node data, premise queries and blank entailment goals: core "
        "and closure do the work, storage almost none"
    ),
}

#: Fixed popularity schedule of the cached phase (see module docstring).
_RANK_SCHEDULE_SEED = 20040614

#: Pinned input sizes.  ``full`` is what BENCHMARK.json's command runs;
#: ``smoke`` keeps the self-test under twenty seconds.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "cold_start": dict(
            classes=255, groups=15, props=63, entities=900, degree=3,
            kept_blanks=0, redundant_blanks=0,
            queries=100, cached_templates=20, cached_draws=120,
            updates=7, premises=5, entails=5, wal_checkpoint_bytes=1 << 23,
        ),
        "query_mix": dict(
            classes=127, groups=9, props=27, entities=700, degree=3,
            kept_blanks=0, redundant_blanks=0,
            queries=150, cached_templates=40, cached_draws=300,
            updates=7, premises=5, entails=5, wal_checkpoint_bytes=1 << 23,
        ),
        "update_stream": dict(
            classes=31, groups=5, props=15, entities=160, degree=3,
            kept_blanks=0, redundant_blanks=0,
            queries=100, cached_templates=20, cached_draws=120,
            updates=40, premises=5, entails=5, wal_checkpoint_bytes=1800,
        ),
        "blank_premise": dict(
            classes=31, groups=5, props=15, entities=140, degree=3,
            kept_blanks=20, redundant_blanks=20,
            queries=100, cached_templates=20, cached_draws=120,
            updates=9, premises=9, entails=25, wal_checkpoint_bytes=1 << 23,
        ),
    },
    "smoke": {
        name: dict(
            classes=15, groups=3, props=6, entities=32, degree=3,
            kept_blanks=blanks, redundant_blanks=blanks,
            queries=12, cached_templates=8, cached_draws=16,
            updates=updates, premises=3, entails=3,
            wal_checkpoint_bytes=1 << 10,
        )
        for name, blanks, updates in (
            ("cold_start", 0, 3),
            ("query_mix", 0, 3),
            ("update_stream", 0, 10),
            ("blank_premise", 4, 5),
        )
    },
}


# ---------------------------------------------------------------------------
# Canonical serialization of outputs
# ---------------------------------------------------------------------------

_BLANK_LABEL = re.compile(r"_:[A-Za-z0-9_.!\-]+")


def canonical_digest(text_or_lines) -> Tuple[int, str]:
    """``(cardinality, sha256)`` of an N-Triples answer, labels erased.

    CONSTRUCT answers are defined up to blank-node renaming, and which
    label survives a core fold or names a Skolem term is the program's
    business.  Every blank label becomes ``_:b`` and the lines are
    sorted *as a multiset*, which is invariant under renaming.  (It
    forgets which blank occurrences co-refer; the workloads keep each
    blank's triples distinguishable by their ground terms.)
    """
    if isinstance(text_or_lines, str):
        lines = text_or_lines.splitlines()
    else:
        lines = list(text_or_lines)
    canon = sorted(_BLANK_LABEL.sub("_:b", row.strip()) for row in lines if row.strip())
    digest = hashlib.sha256("\n".join(canon).encode("utf-8")).hexdigest()
    return len(canon), digest


def line(t: TripleT) -> str:
    """One triple in the N-Triples syntax the program reads and writes."""
    return f"{t[0]} {t[1]} {t[2]} ."


# ---------------------------------------------------------------------------
# The model: dataset + closure by construction
# ---------------------------------------------------------------------------


def _ancestors(edges: Iterable[Tuple[Term, Term]]) -> Dict[Term, Set[Term]]:
    """node -> {node and everything reachable along *edges*}."""
    up: Dict[Term, Set[Term]] = {}
    for child, parent in edges:
        up.setdefault(child, set()).add(parent)
        up.setdefault(parent, set())
    memo: Dict[Term, Set[Term]] = {}

    def reach(node: Term) -> Set[Term]:
        known = memo.get(node)
        if known is None:
            known = memo[node] = {node}
            for parent in up.get(node, ()):
                known |= reach(parent)
        return known

    for node in up:
        reach(node)
    return memo


class Index:
    """Positional indexes over a triple set, for the little join below."""

    def __init__(self, triples: Iterable[TripleT]):
        self.all: List[TripleT] = sorted(triples)
        self.by_s: Dict[Term, List[TripleT]] = {}
        self.by_p: Dict[Term, List[TripleT]] = {}
        self.by_po: Dict[Tuple[Term, Term], List[TripleT]] = {}
        for t in self.all:
            self.by_s.setdefault(t[0], []).append(t)
            self.by_p.setdefault(t[1], []).append(t)
            self.by_po.setdefault((t[1], t[2]), []).append(t)

    def candidates(self, s: Optional[Term], p: Optional[Term], o: Optional[Term]):
        if s is not None:
            return self.by_s.get(s, ())
        if p is not None and o is not None:
            return self.by_po.get((p, o), ())
        if p is not None:
            return self.by_p.get(p, ())
        return self.all


class Model:
    """The generator's own picture of the database.

    ``data`` is the dataset as string triples.  ``folded`` are the
    triples of redundant blank descriptions: they are in the data file,
    but each maps onto an entity's description, so ``nf`` drops them —
    they stay out of :meth:`closure`.
    """

    def __init__(self) -> None:
        self.data: Set[TripleT] = set()
        self.folded: Set[TripleT] = set()
        self._index: Optional[Index] = None

    def copy(self) -> "Model":
        other = Model()
        other.data = set(self.data)
        other.folded = set(self.folded)
        return other

    def add(self, triples: Iterable[TripleT], folded: bool = False) -> None:
        triples = list(triples)
        self.data.update(triples)
        if folded:
            self.folded.update(triples)
        self._index = None

    def remove(self, triples: Iterable[TripleT]) -> None:
        for t in triples:
            self.data.discard(t)
            self.folded.discard(t)
        self._index = None

    def dataset_lines(self) -> List[str]:
        return [line(t) for t in sorted(self.data)]

    def closure(self) -> Set[TripleT]:
        """The instance level of ``nf(data)``, by construction.

        Edges lift to their ``sp`` ancestors; ``dom``/``range`` of any
        property an edge was lifted to type its ends; types lift to
        their ``sc`` ancestors.  Schema-level closure triples (``sc``
        transitivity, the reflexive ``sp``/``sc`` loops) are left out:
        no workload query has a pattern that could match them.
        """
        live = self.data - self.folded
        sp_up = _ancestors((s, o) for s, p, o in live if p == SP)
        sc_up = _ancestors((s, o) for s, p, o in live if p == SC)
        dom: Dict[Term, Set[Term]] = {}
        rng: Dict[Term, Set[Term]] = {}
        for s, p, o in live:
            if p == DOM:
                dom.setdefault(s, set()).add(o)
            elif p == RANGE:
                rng.setdefault(s, set()).add(o)
        out: Set[TripleT] = set()
        typed: Dict[Term, Set[Term]] = {}
        for s, p, o in live:
            if p in (SC, SP, DOM, RANGE):
                continue
            if p == TYPE:
                typed.setdefault(s, set()).add(o)
                continue
            for q in sp_up.get(p, (p,)):
                out.add((s, q, o))
                for c in dom.get(q, ()):
                    typed.setdefault(s, set()).add(c)
                for c in rng.get(q, ()):
                    typed.setdefault(o, set()).add(c)
        for node, classes in typed.items():
            for c in classes:
                for a in sc_up.get(c, (c,)):
                    out.add((node, TYPE, a))
        return out

    def index(self) -> Index:
        if self._index is None:
            self._index = Index(self.closure())
        return self._index


def _is_var(term: Term) -> bool:
    return term.startswith("?")


def _match(body: Sequence[TripleT], index: Index, blanks_as_vars: bool = False):
    """All valuations of *body* into *index* (plain backtracking join)."""

    def is_open(term: Term) -> bool:
        return _is_var(term) or (blanks_as_vars and term.startswith("_:"))

    def bound(term: Term, val: Dict[Term, Term]) -> Optional[Term]:
        if is_open(term):
            return val.get(term)
        return term

    def search(todo: List[TripleT], val: Dict[Term, Term]):
        if not todo:
            yield dict(val)
            return
        # most-bound pattern first
        todo = sorted(
            todo, key=lambda pat: -sum(bound(x, val) is not None for x in pat)
        )
        pat, rest = todo[0], todo[1:]
        s, p, o = (bound(x, val) for x in pat)
        for t in index.candidates(s, p, o):
            added = []
            ok = True
            for want, have, raw in zip((s, p, o), t, pat):
                if want is not None:
                    if want != have:
                        ok = False
                        break
                elif raw in val:
                    if val[raw] != have:
                        ok = False
                        break
                else:
                    val[raw] = have
                    added.append(raw)
            if ok:
                yield from search(rest, val)
            for raw in added:
                del val[raw]

    yield from search(list(body), {})


def answer_lines(
    head: Sequence[TripleT],
    body: Sequence[TripleT],
    index: Index,
    bound_vars: Sequence[Term] = (),
) -> List[str]:
    """``ans∪(q, D)`` as N-Triples lines, for a Definition 4.3 matching.

    A head blank stands for a Skolem term over *all* body variables, so
    each distinct valuation gets its own.
    """
    out: Set[TripleT] = set()
    for n, val in enumerate(_match(body, index)):
        if any(val[x].startswith("_:") for x in bound_vars):
            continue
        for t in head:
            out.add(tuple(
                val[x] if _is_var(x)
                else f"_:sk{n}{x[2:]}" if x.startswith("_:")
                else x
                for x in t
            ))
    return [line(t) for t in out]


def entailed(goal: Sequence[TripleT], index: Index) -> bool:
    """Is there a map of the blank goal into the closure (Theorem 2.8)?"""
    for _ in _match(goal, index, blanks_as_vars=True):
        return True
    return False


# ---------------------------------------------------------------------------
# Query texts
# ---------------------------------------------------------------------------


def _block(triples: Sequence[TripleT]) -> str:
    return "{ " + " ".join(line(t) for t in triples) + " }"


def _query_text(head, body, premise=(), bound_vars=()) -> str:
    text = f"CONSTRUCT {_block(head)} WHERE {_block(body)}"
    if premise:
        text += f" PREMISE {_block(premise)}"
    if bound_vars:
        text += " BOUND " + ", ".join(bound_vars)
    return text


_SECTION = re.compile(r"(CONSTRUCT|WHERE|PREMISE)\s*\{([^}]*)\}")


def parse_query_text(text: str):
    """``(head, body, premise, bound)`` back from :func:`_query_text`.

    Only the generator's own output format; the oracle uses it to
    evaluate a script query over the rule-system normal form.
    """
    parts: Dict[str, List[TripleT]] = {"CONSTRUCT": [], "WHERE": [], "PREMISE": []}
    for name, inner in _SECTION.findall(text):
        tokens = inner.split()
        parts[name] = [
            (tokens[i], tokens[i + 1], tokens[i + 2])
            for i in range(0, len(tokens), 4)
        ]
    bound: List[Term] = []
    if " BOUND " in text:
        bound = [v.strip() for v in text.split(" BOUND ", 1)[1].split(",")]
    return parts["CONSTRUCT"], parts["WHERE"], parts["PREMISE"], bound


# ---------------------------------------------------------------------------
# The workload builder
# ---------------------------------------------------------------------------


class Workload:
    """Generated inputs plus the harness-only expectations."""

    def __init__(self, name: str, seed: int, sizes: Dict[str, int]):
        self.name = name
        self.seed = seed
        self.sizes = dict(sizes)
        self.data_lines: List[str] = []
        #: What one serving process executes, in order.
        self.script: List[Dict] = []
        #: ``expected[i]`` is the outcome of ``script[i]``, or None for
        #: operations with no output (cache switches, updates).
        self.expected: List[Optional[Dict]] = []
        self.input_triples = 0
        #: N-Triples bytes of every update batch (the user's bytes).
        self.update_user_bytes = 0

    def emit(self, op: Dict, expected: Optional[Dict] = None) -> None:
        self.script.append(op)
        self.expected.append(expected)


class _Builder:
    def __init__(self, name: str, seed: int, sizes: Dict[str, int]):
        self.w = Workload(name, seed, sizes)
        self.z = sizes
        self.rng = random.Random(seed)
        self.model = Model()
        n_classes = sizes["classes"]
        self.classes = [f"c{i:04d}" for i in range(n_classes)]
        self.leaves = self.classes[(n_classes - 1) // 2:]
        self.groups = [f"g{j:02d}" for j in range(sizes["groups"])]
        self.props = [f"p{i:03d}" for i in range(sizes["props"])]
        n = sizes["entities"]
        labels = list(range(n))
        self.rng.shuffle(labels)
        self.entities = [f"e{k:06d}" for k in labels]
        self.class_shift = self.rng.randrange(len(self.leaves))
        self.prop_shift = self.rng.randrange(len(self.props))
        # distinct non-zero target offsets, one per out-edge slot
        self.offsets = self.rng.sample(range(1, n), sizes["degree"])
        self.fresh = 0

    # -- the regular instance level -------------------------------------

    def leaf_of(self, k: int) -> Term:
        return self.leaves[(k * 7 + self.class_shift) % len(self.leaves)]

    def prop_of(self, k: int, j: int) -> Term:
        return self.props[(k + 5 * j + self.prop_shift) % len(self.props)]

    def target_of(self, k: int, j: int) -> int:
        return (k + self.offsets[j]) % len(self.entities)

    def entity_triples(self, k: int) -> List[TripleT]:
        e = self.entities[k]
        out = [(e, TYPE, self.leaf_of(k))]
        for j in range(self.z["degree"]):
            out.append((e, self.prop_of(k, j), self.entities[self.target_of(k, j)]))
        return out

    def class_at_depth(self, leaf: Term, depth: int) -> Term:
        """The ancestor of *leaf* at *depth* in the original tree."""
        i = int(leaf[1:])
        chain = [i]
        while i:
            i = (i - 1) // 2
            chain.append(i)
        chain.reverse()  # root first
        return self.classes[chain[min(depth, len(chain) - 1)]]

    def mid_class(self, k: int) -> Term:
        """A class over entity *k* holding ~1/8 of the entities."""
        return self.class_at_depth(self.leaf_of(k), 3)

    def far_class(self, k: int) -> Term:
        """A depth-2 class of the half of the tree entity *k* is not in."""
        across = (k + len(self.leaves) // 2) % len(self.entities)
        return self.class_at_depth(self.leaf_of(across), 2)

    def build_data(self) -> None:
        schema: List[TripleT] = [
            (self.classes[i], SC, self.classes[(i - 1) // 2])
            for i in range(1, len(self.classes))
        ]
        schema += [(g, SP, ROOT_PROPERTY) for g in self.groups]
        schema += [
            (p, SP, self.groups[i % len(self.groups)])
            for i, p in enumerate(self.props)
        ]
        schema += [(ROOT_PROPERTY, DOM, self.classes[0]),
                   (ROOT_PROPERTY, RANGE, self.classes[0])]
        self.model.add(schema)
        for k in range(len(self.entities)):
            self.model.add(self.entity_triples(k))
        for i in range(self.z["kept_blanks"]):
            self.model.add(self.kept_blank(f"_:n{i:04d}", f"u{i:04d}"))
        for i in range(self.z["redundant_blanks"]):
            self.model.add(self.redundant_blank(f"_:r{i:04d}"), folded=True)
        self.w.data_lines = self.model.dataset_lines()
        self.w.input_triples = len(self.w.data_lines)

    def kept_blank(self, label: Term, anchor: Term) -> List[TripleT]:
        """A blank no map can move: only it points at *anchor*."""
        k = self.pick_entity()
        return [(label, TYPE, self.leaf_of(k)), (label, self.prop_of(k, 0), anchor)]

    def redundant_blank(self, label: Term) -> List[TripleT]:
        """A blank copying part of an entity: the core folds it away."""
        while True:
            k = self.pick_entity()
            typed, edge = self.entity_triples(k)[:2]
            if typed in self.model.data and edge in self.model.data:
                return [(label, TYPE, typed[2]), (label, edge[1], edge[2])]

    def pick_entity(self) -> int:
        return self.rng.randrange(len(self.entities))

    # -- query templates ---------------------------------------------------

    def template(self, kind: str):
        """``(head, body, bound)`` of one seeded instance of *kind*."""
        k = self.pick_entity()
        e = self.entities[k]
        p0, p1 = self.prop_of(k, 0), self.prop_of(k, 1)
        mid = self.mid_class(k)
        if kind == "point":
            body = [(e, "?P", "?O")]
            return body, body, ()
        if kind == "class":
            # the head predicate only keeps same-class queries distinct
            tag = f"member{self.rng.randrange(1000):03d}"
            return [("?X", tag, mid)], [("?X", TYPE, mid)], ()
        if kind == "join2":
            return [("?X", p0, "?Y")], [("?X", TYPE, mid), ("?X", p0, "?Y")], ()
        if kind == "bound":
            return ([("?X", p0, "?Y")],
                    [("?X", TYPE, self.leaf_of(k)), ("?X", p0, "?Y")], ("?X",))
        if kind == "chain3":
            t = self.target_of(k, 0)
            z = self.target_of(t, 1)
            return ([("?X", "reaches", "?Z")],
                    [("?X", p0, "?Y"), ("?Y", self.prop_of(t, 1), "?Z"),
                     ("?Z", TYPE, self.mid_class(z))], ())
        if kind == "star":
            body = [("?X", TYPE, mid), ("?X", p0, "?A"), ("?X", p1, "?B")]
            return body[1:], body, ()
        if kind == "skolem":
            return ([("?X", "link", "_:N"), ("_:N", "target", "?Y")],
                    [("?X", TYPE, self.leaf_of(k)), ("?X", p0, "?Y")], ())
        if kind == "heavy":
            g = self.groups[int(p0[1:]) % len(self.groups)]
            body = [("?X", g, "?Y")]
            return body, body, ()
        raise ValueError(kind)

    def distinct_queries(self, kinds: Sequence[str], taken: Set[str]) -> List[Tuple[str, str, tuple]]:
        """One query per entry of *kinds*, pairwise distinct as texts."""
        out = []
        for kind in kinds:
            for _attempt in range(1000):
                head, body, bound = self.template(kind)
                text = _query_text(head, body, bound_vars=bound)
                if text not in taken:
                    break
            else:
                raise RuntimeError(f"cannot draw a fresh {kind!r} query")
            taken.add(text)
            out.append((kind, text, (head, body, bound)))
        return out

    def expect_answer(self, head, body, bound=(), model: Optional[Model] = None) -> Dict:
        index = (model or self.model).index()
        n, sha = canonical_digest(answer_lines(head, body, index, bound))
        return {"n": n, "sha": sha}

    def emit_query(self, phase: str, kind: str, text: str, parts) -> None:
        head, body, bound = parts
        self.w.emit(
            {"op": "query", "phase": phase, "template": kind, "query": text},
            self.expect_answer(head, body, bound),
        )

    # -- phases ---------------------------------------------------------

    #: 100 slots.  Latencies cluster by template (a few joins < ``point``
    #: < ``class`` < ``heavy``); the shares put the 50th and the 90th
    #: percentile in the middle of a cluster (``point``, ``class``), not
    #: on a boundary where a percentile would jump between clusters.
    _MIX = (["join2"] * 10 + ["chain3"] * 8 + ["star"] * 6 + ["skolem"] * 6
            + ["bound"] * 4 + ["point"] * 48 + ["class"] * 14 + ["heavy"] * 4)

    def phase_first(self) -> None:
        kind, text, parts = self.distinct_queries(["join2"], set())[0]
        self.emit_query("first", kind, text, parts)

    def phase_distinct(self) -> None:
        n = self.z["queries"]
        # spread the mix evenly over any n, then fix the order
        kinds = [self._MIX[(i * len(self._MIX)) // n] for i in range(n)]
        random.Random(_RANK_SCHEDULE_SEED).shuffle(kinds)
        for kind, text, parts in self.distinct_queries(kinds, set()):
            self.emit_query("A", kind, text, parts)

    def phase_cached(self) -> None:
        """Skewed repeats over a fixed-size template pool, cache on.

        Every third pool slot is a *contained variant* of the slot
        before it (one variable bound to a constant in head and body),
        which the answer cache can serve by filtering the general
        entry's valuations instead of searching.
        """
        n = self.z["cached_templates"]
        pool: List[Tuple[str, str, tuple]] = []
        pairs: List[Tuple[str, str, bool]] = []
        taken: Set[str] = set()
        cycle = ["join2", None, "point", "star", "class", "chain3"]
        while len(pool) < n:
            kind = cycle[len(pool) % len(cycle)]
            if kind is not None:
                pool.extend(self.distinct_queries([kind], taken))
                continue
            _gk, gtext, (ghead, gbody, _b) = pool[-1]
            index = self.model.index()
            val = next(_match(gbody, index))
            bind = lambda ts: [tuple(val["?Y"] if x == "?Y" else x for x in t) for t in ts]
            head, body = bind(ghead), bind(gbody)
            text = _query_text(head, body)
            taken.add(text)
            pool.append(("contained", text, (head, body, ())))
            pairs.append((text, gtext, True))
            pairs.append((gtext, text, False))
        ranks = list(range(n))
        weights = [1.0 / (r + 1) ** 1.1 for r in ranks]
        draws = random.Random(_RANK_SCHEDULE_SEED).choices(
            ranks, weights, k=self.z["cached_draws"]
        )
        self.w.emit({"op": "cache", "enable": True})
        for r in draws:
            kind, text, parts = pool[r]
            self.emit_query("B", kind, text, parts)
        self.w.emit({"op": "cache", "enable": False})
        for q1, q2, holds in pairs[:8]:
            self.w.emit({"op": "contain", "q1": q1, "q2": q2}, {"value": holds})

    def new_entity(self, n_edges: int) -> Tuple[Term, List[TripleT]]:
        self.fresh += 1
        label = f"n{self.fresh:05d}"
        k = self.pick_entity()
        triples = [(label, TYPE, self.leaf_of(k))]
        for j in range(n_edges):
            other = self.pick_entity()
            triples.append((label, self.prop_of(k, j), self.entities[other]))
        return label, triples

    def phase_updates(self) -> None:
        """{one durable commit -> one query that must see it} cycles."""
        kinds = self.update_kinds()
        deletable = list(range(len(self.entities)))
        self.rng.shuffle(deletable)
        toggled: List[TripleT] = []
        blank_i = 0
        for i, kind in enumerate(kinds):
            add: List[TripleT] = []
            remove: List[TripleT] = []
            folded = False
            if kind == "ins":
                label, add = self.new_entity(7)
                body = [(label, "?P", "?O")]
                query = (body, body, ())
            elif kind == "del":
                k = deletable.pop()
                remove = [t for t in self.entity_triples(k) if t in self.model.data]
                body = [(self.entities[k], "?P", "?O")]
                query = (body, body, ())
            elif kind in ("sc+", "sp+"):
                k = self.pick_entity()
                if kind == "sc+":
                    # graft this leaf under a class of the far branch
                    leaf = self.leaf_of(k)
                    far = self.far_class(k)
                    edge = (leaf, SC, far)
                    body = [("?X", TYPE, far), ("?X", TYPE, leaf)]
                else:
                    p = self.prop_of(k, 0)
                    g = self.groups[(int(p[1:]) + 1) % len(self.groups)]
                    edge = (p, SP, g)
                    body = [("?X", g, "?Y"), ("?X", p, "?Y")]
                add = [edge]
                toggled.append(edge)
                query = (body[:1], body, ())
            elif kind in ("sc-", "sp-"):
                want = SC if kind == "sc-" else SP
                edge = next(t for t in toggled if t[1] == want)
                toggled.remove(edge)
                remove = [edge]
                if want == SC:
                    body = [("?X", TYPE, edge[2]), ("?X", TYPE, edge[0])]
                else:
                    body = [("?X", edge[2], "?Y"), ("?X", edge[0], "?Y")]
                query = (body[:1], body, ())
            elif kind in ("blank_kept", "blank_folded"):
                blank_i += 1
                if kind == "blank_kept":
                    add = self.kept_blank(f"_:m{blank_i:04d}", f"v{blank_i:04d}")
                    body = [("?X", add[1][1], add[1][2]), ("?X", TYPE, "?C")]
                else:
                    add = self.redundant_blank(f"_:q{blank_i:04d}")
                    folded = True
                    body = [("?X", add[1][1], add[1][2]), ("?X", TYPE, add[0][2])]
                query = (body, body, ())
            else:
                raise ValueError(kind)
            self.model.remove(remove)
            self.model.add(add, folded=folded)
            add_lines = [line(t) for t in add]
            remove_lines = [line(t) for t in remove]
            self.w.update_user_bytes += sum(len(x) + 1 for x in add_lines + remove_lines)
            self.w.emit({"op": "update", "kind": kind, "add": add_lines, "remove": remove_lines})
            self.emit_query("V", "visible:" + kind, _query_text(*query[:2]), query)

    def update_kinds(self) -> List[str]:
        n = self.z["updates"]
        if self.z["kept_blanks"]:
            # blank-triple updates, then one schema edge so that every
            # workload has a schema commit to report
            return [("blank_kept", "blank_folded")[i % 2] for i in range(n - 1)] + ["sc+"]
        if n <= 7:
            # mostly instance inserts, so the medians are theirs
            return ["ins", "ins", "del", "ins", "ins", "sc+", "ins"][:n]
        # 70 % instance inserts, 20 % deletes, 10 % schema edges; a
        # schema edge is removed again two schema slots after it went in
        base = ["ins", "ins", "ins", "del", "ins", "ins", "schema", "ins", "del", "ins"]
        schema = ["sc+", "sp+", "sc-", "sp-"]
        out, s = [], 0
        for i in range(n):
            kind = base[i % len(base)]
            if kind == "schema":
                kind = schema[s % len(schema)]
                s += 1
            out.append(kind)
        return out

    def phase_premises(self) -> None:
        """Queries whose PREMISE forces ``nf(D + P)`` to be recomputed."""
        for i in range(self.z["premises"]):
            # two in three assert plain facts, so the median is one of those
            kind = "facts" if i % 3 < 2 else ("sc", "blank")[(i // 3) % 2]
            k = self.pick_entity()
            leaf = self.leaf_of(k)
            p0 = self.prop_of(k, 0)
            if kind == "sc":
                far = self.far_class(k)
                premise = [(leaf, SC, far)]
                body = [("?X", TYPE, far), ("?X", TYPE, leaf)]
                head = body[:1]
            elif kind == "facts":
                x = f"x{i:04d}"
                premise = [(x, TYPE, leaf), (x, p0, self.entities[k])]
                body = [("?X", p0, self.entities[k]), ("?X", TYPE, "?C")]
                head = body
            else:
                premise = self.kept_blank(f"_:h{i:04d}", f"w{i:04d}")
                body = [("?X", premise[1][1], premise[1][2]), ("?X", TYPE, "?C")]
                head = body
            hypothetical = self.model.copy()
            hypothetical.add(premise)
            self.w.emit(
                {"op": "premise", "template": "premise:" + kind,
                 "query": _query_text(head, body, premise=premise)},
                self.expect_answer(head, body, model=hypothetical),
            )

    def phase_entails(self) -> None:
        """``D ⊨ G`` for 1–3-triple blank goals, true and false ones."""
        index = self.model.index()
        for i in range(self.z["entails"]):
            # two in three are of one kind, so the median is one of those
            kind = "pos2" if i % 3 < 2 else ("neg2", "pos3", "pos1", "neg3")[(i // 3) % 4]
            k = self.pick_entity()
            t = self.target_of(k, 0)
            other_leaf = self.leaves[(self.leaves.index(self.leaf_of(k)) + 1) % len(self.leaves)]
            if kind == "pos1":
                goal = [("_:x", TYPE, self.mid_class(k))]
            elif kind == "pos2":
                goal = [("_:x", TYPE, self.leaf_of(k)), ("_:x", self.prop_of(k, 0), "_:y")]
            elif kind == "neg2":
                goal = [("_:x", TYPE, self.leaf_of(k)), ("_:x", TYPE, other_leaf)]
            elif kind == "pos3":
                goal = [("_:x", self.prop_of(k, 0), "_:y"),
                        ("_:y", self.prop_of(t, 1), "_:z"), ("_:z", TYPE, self.classes[0])]
            else:
                goal = [("_:x", self.prop_of(k, 0), "_:y"), ("_:y", TYPE, other_leaf),
                        ("_:y", TYPE, self.leaf_of(t))]
            self.w.emit(
                {"op": "entails", "template": "entails:" + kind,
                 "goal": "\n".join(line(t) for t in goal) + "\n"},
                {"value": entailed(goal, index)},
            )

    def phase_crash_check(self) -> None:
        n, sha = canonical_digest(self.model.dataset_lines())
        self.w.emit({"op": "crash_check"}, {"n": n, "sha": sha})


def build_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """Generate workload *name* from *seed* (deterministic)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    b = _Builder(name, seed, SIZES[scale][name])
    b.build_data()
    b.phase_first()
    b.phase_distinct()
    b.phase_cached()
    b.phase_updates()
    b.phase_premises()
    b.phase_entails()
    b.phase_crash_check()
    return b.w


def write_workload(w: Workload, directory) -> Dict[str, Path]:
    """Write the files the program under test receives."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = directory / "data.nt"
    data.write_text("\n".join(w.data_lines) + "\n", encoding="utf-8")
    script = directory / "script.json"
    script.write_text(
        json.dumps(
            {"wal_checkpoint_bytes": w.sizes["wal_checkpoint_bytes"], "ops": w.script},
            indent=0, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    return {"data": data, "script": script}
