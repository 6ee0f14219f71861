"""The decision recursion against the pair of recursions it replaced.

``_decide`` answers in one recursion, with a witness builder or a
``Refutation``. The reference functions below are the earlier pair, kept
in substance: ``_reference_decide`` answered true or false, and
``_reference_certify`` ran the same recursion again to rebuild the
witness. Both call ``oracle._full_search`` and its builder for the full
placement search, and ``_reference_certify`` tries the builder of
``oracle._placement_holds`` on H's plan before it, as the decision's
placement rule does. The merged recursion must give the same answer, the
same embedding (key order included) and the same realization edges on
every graphic sequence of length at most 7, and each refutation must
name the rule that a classification made here assigns it. The reference
recursion also checks that every sequence the σ scan's smallest-term
skip leaves out is potential. Every certificate of a decision in which
the placement rule accepted, at length at most 8, is checked with
networkx.
"""

from conftest import corpus, corpus_patterns, yin_li
from potnum import oracle
from potnum.graphs import SmallGraph, find_embedding
from potnum.oracle import (
    Realization,
    Refutation,
    _d1_classes,
    _decide,
    _full_search,
    _placement_holds,
    _placement_plan,
    canonical_realization,
    enumerate_graphic_sequences,
)
from potnum.sequences import DegreeSequence


def _dominated(terms, h):
    hdegs = sorted(h.degrees(), reverse=True)
    return len(terms) >= h.k and all(terms[i] >= hdegs[i] for i in range(h.k))


def _reference_decide(terms, h):
    n = len(terms)
    if h.edge_count() == 0:
        return n >= h.k
    if not _dominated(terms, h):
        return False
    if yin_li(terms, h.k):
        return True
    if terms[0] == n - 1:
        lay = tuple(t - 1 for t in terms[1:])
        return any(_reference_decide(lay, sub) for sub, _ in _d1_classes(h))
    real = canonical_realization(DegreeSequence(terms))
    if find_embedding(h, real.graph) is not None:
        return True
    return bool(_full_search(terms, h))


def _reference_certify(terms, h):
    n = len(terms)
    seq = DegreeSequence(terms)
    if h.edge_count() == 0:
        return {u: u for u in range(h.k)}, canonical_realization(seq)
    if terms and terms[0] == n - 1:
        lay = tuple(t - 1 for t in terms[1:])
        for sub, deleted in _d1_classes(h):
            if _reference_decide(lay, sub):
                sub_emb, sub_real = _reference_certify(lay, sub)
                edges = [(0, j + 1) for j in range(n - 1)]
                edges += [(u + 1, v + 1) for u, v in sub_real.graph.edges()]
                real = Realization(graph=SmallGraph(n, edges), sequence=seq)
                embedding = {u: 0 if u == deleted else sub_emb[u - (u > deleted)] + 1 for u in range(h.k)}
                return embedding, real
        raise AssertionError("no deleted-subgraph witness")
    real = canonical_realization(seq)
    emb = find_embedding(h, real.graph)
    if emb is not None:
        return emb, real
    return (_placement_holds(terms, _placement_plan(h)) or _full_search(terms, h))()


def test_decide_matches_reference_up_to_n7():
    patterns = corpus_patterns()
    calls = 0
    for n in range(8):
        for s in enumerate_graphic_sequences(n):
            terms = s.terms
            for p in patterns:
                if p.k > n:
                    continue
                calls += 1
                found = _decide(terms, p)
                assert bool(found) == _reference_decide(terms, p), (s, p)
                if not found:
                    assert isinstance(found, Refutation), (s, p)
                    if not _dominated(terms, p):
                        rule = "degree"
                    elif terms[0] == n - 1:
                        rule = "dominating_head"
                    else:
                        rule = "full_search"
                    assert found.rule == rule, (s, p, found)
                    continue
                emb, real = found()
                want_emb, want_real = _reference_certify(terms, p)
                assert list(emb.items()) == list(want_emb.items()), (s, p)
                assert real.graph.edges() == want_real.graph.edges(), (s, p)
    assert (len(patterns), calls) == (17, 8183)


def test_smallest_term_skip_drops_only_potential_sequences(monkeypatch):
    # at length m and sum S, sigma_exact asks the enumerator only for
    # sequences with d_m >= (S - sigma(H, m - 1))/2 + 1, and skips a level
    # whole when m times that bound exceeds S. Every graphic sequence it
    # thus leaves out must be potentially H-graphic by the reference
    # recursion: those below ``min_term`` on the levels scanned, and all of
    # a level skipped above the lowest level scanned. The levels and
    # bounds are read from the enumerator calls of the scan, not from sigma
    scan = oracle.enumerate_graphic_sequences
    asked = {}

    def spy(n, total, *, host, min_term):
        asked.setdefault(n, {})[total] = min_term
        return scan(n, total, host=host, min_term=min_term)

    monkeypatch.setattr(oracle, "enumerate_graphic_sequences", spy)
    checked = 0
    for name, h in corpus().items():
        asked.clear()
        oracle.sigma_exact(h, 9)
        for length in range(h.k + 1, 10):
            # a length where no level is scanned skips every level
            levels = asked.get(length, {})
            for total in range(length * (length - 1), min(levels, default=0) - 1, -2):
                least = levels.get(total, length)
                for s in enumerate_graphic_sequences(length, total):
                    if s.terms[-1] < least:
                        checked += 1
                        assert _reference_decide(s.terms, h), (name, s, least)
    assert checked == 34227


def test_placement_rule_certificates_check_out_with_networkx(monkeypatch):
    # every certificate of a decision in which the placement rule accepted,
    # over every graphic sequence of length at most 8 and the 17 corpus
    # patterns, checked with networkx: the embedding maps H's vertices to
    # distinct positions and H's edges onto realization edges, and the
    # realization's degrees are the sequence. The sweep's full-search calls
    # are a work count: 964 when every miss of the fast path went to the
    # full search, 700 of them true; the rule settles 692 and leaves 272,
    # 8 of them true
    from networkx import Graph

    calls = {"placed": 0, "_full_search": 0}
    holds, search = oracle._placement_holds, oracle._full_search

    def counted_holds(terms, plan):
        found = holds(terms, plan)
        calls["placed"] += found is not None
        return found

    def counted_search(terms, h):
        calls["_full_search"] += 1
        return search(terms, h)

    monkeypatch.setattr(oracle, "_placement_holds", counted_holds)
    monkeypatch.setattr(oracle, "_full_search", counted_search)
    checked = 0
    for n in range(9):
        for s in enumerate_graphic_sequences(n):
            for h in corpus_patterns():
                if h.k > n:
                    continue
                placed = calls["placed"]
                cert = oracle.potentially(s, h)
                if calls["placed"] == placed:
                    continue
                checked += 1
                emb = cert.embedding
                g = Graph()
                g.add_nodes_from(range(n))
                g.add_edges_from(cert.realization.graph.edges())
                assert sorted(emb) == list(range(h.k)) and len(set(emb.values())) == h.k, (s, h)
                assert all(g.has_edge(emb[u], emb[v]) for u, v in h.edges()), (s, h)
                assert [g.degree(v) for v in range(n)] == list(s.terms), (s, h)
    assert (checked, calls["_full_search"]) == (692, 272)
