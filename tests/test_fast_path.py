"""The decision fast path against the code it replaced.

``canonical_realization`` sorts once per Havel–Hakimi step and
``find_embedding`` searches on masks with a cached per-pattern plan. The
reference functions below are the earlier implementations, kept
verbatim in substance: a ``min``/``sorted`` Havel–Hakimi and a dict-based
backtracking embedding. Both new functions must give exactly their
output, ``None`` and dict key order included, on every graphic sequence
of length at most 8, and the realizations must agree at lengths 9 and
10 too, where the finish on demands of 0 and 1 and long runs of equal
demands are common.
"""

import hashlib

from conftest import corpus_patterns
from potnum.graphs import SmallGraph, find_embedding
from potnum.oracle import canonical_realization, enumerate_graphic_sequences


def _reference_realization(terms):
    n = len(terms)
    rem = list(terms)
    edges = []
    while True:
        u = min(range(n), key=lambda v: (-rem[v], v), default=None)
        if u is None or rem[u] == 0:
            break
        targets = sorted(
            (v for v in range(n) if v != u and rem[v] > 0),
            key=lambda v: (-rem[v], v),
        )[: rem[u]]
        assert len(targets) == rem[u]
        for v in targets:
            edges.append((u, v))
            rem[v] -= 1
        rem[u] = 0
    return SmallGraph(n, edges)


def _reference_embedding(pattern, host):
    if pattern.k > host.k:
        return None
    pdeg = pattern.degrees()
    hdeg = host.degrees()
    order = []
    placed_mask = 0
    while len(order) < pattern.k:
        u = max(
            (v for v in range(pattern.k) if not (placed_mask >> v) & 1),
            key=lambda v: ((pattern.adj[v] & placed_mask).bit_count(), pdeg[v]),
        )
        order.append(u)
        placed_mask |= 1 << u
    assignment = {}
    used = 0

    def place(depth):
        nonlocal used
        if depth == len(order):
            return True
        u = order[depth]
        for w in range(host.k):
            if (used >> w) & 1 or hdeg[w] < pdeg[u]:
                continue
            if all(
                host.has_edge(assignment[nb], w)
                for nb in range(pattern.k)
                if (pattern.adj[u] >> nb) & 1 and nb in assignment
            ):
                assignment[u] = w
                used |= 1 << w
                if place(depth + 1):
                    return True
                used &= ~(1 << w)
                del assignment[u]
        return False

    return dict(assignment) if place(0) else None


def test_fast_path_matches_reference_up_to_n8():
    patterns = corpus_patterns()
    calls = 0
    for n in range(9):
        for s in enumerate_graphic_sequences(n):
            host = canonical_realization(s).graph
            assert host.adj == _reference_realization(s.terms).adj, s
            for p in patterns:
                got = find_embedding(p, host)
                want = _reference_embedding(p, host)
                assert got == want and list(got or ()) == list(want or ()), (s, p)
                calls += 1
    assert calls == 1707 * len(patterns)


def test_realization_matches_reference_at_n9_and_n10():
    count = 0
    for n in (9, 10):
        for s in enumerate_graphic_sequences(n):
            assert canonical_realization(s).graph.adj == _reference_realization(s.terms).adj, s
            count += 1
    assert count == 4361 + 16016


def test_embeddings_up_to_n8_are_pinned():
    # the embedding, keys in placement order, of every corpus pattern and
    # one-vertex-deleted class in the canonical realization of every
    # graphic sequence of length at most 8, or None: written by the search
    # without symmetry-breaking bounds, which must not move it
    patterns = corpus_patterns()
    digest = hashlib.sha256()
    hits = 0
    for n in range(9):
        for s in enumerate_graphic_sequences(n):
            host = canonical_realization(s).graph
            for p in patterns:
                emb = find_embedding(p, host)
                digest.update(repr(None if emb is None else tuple(emb.items())).encode())
                hits += emb is not None
    assert hits == 24851
    assert digest.hexdigest() == "06c9b3e1f39a79f863611b472af9610dd64cb8d47ee97c59211bf254d4a9a69b"
