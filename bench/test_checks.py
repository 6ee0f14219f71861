"""The benchmark's checkers accept right answers and reject corrupted ones.

Run with: python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import CORPUS  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def certificate(terms, name):
    """A true certificate built by the checkers' own means: the Havel–Hakimi
    realization and a networkx embedding of H into it."""
    k, edges = CORPUS[name]
    adj = checks.havel_hakimi(terms)
    host = checks.nx_graph(len(terms), checks.mask_edges(adj))
    match = next(GraphMatcher(host, checks.nx_graph(k, edges)).subgraph_monomorphisms_iter())
    embedding = {u: v for v, u in match.items()}
    return embedding, checks.mask_edges(adj)


def test_enumeration_counts_match_a004251():
    counts = [sum(1 for s in range(0, n * (n - 1) + 1, 2) for _ in checks.graphic_sequences(n, s)) for n in (6, 7, 8)]
    assert counts == [102, 342, 1213]


def test_true_certificate_accepted():
    terms = (9, 5) + (3,) * 8
    embedding, edges = certificate(terms, "split23")
    assert checks.check_certificate(terms, *CORPUS["split23"], embedding, edges) == []


def test_certificate_with_missing_edge_rejected():
    terms = (9, 5) + (3,) * 8
    k, h_edges = CORPUS["split23"]
    embedding, edges = certificate(terms, "split23")
    used = (embedding[h_edges[0][0]], embedding[h_edges[0][1]])
    dropped = [e for e in edges if set(e) != set(used)]
    assert len(dropped) == len(edges) - 1
    assert checks.check_certificate(terms, k, h_edges, embedding, dropped)


def test_embedding_onto_a_non_edge_rejected():
    terms = (4, 4, 1, 1, 1, 1, 1, 1)
    edges = checks.mask_edges(checks.havel_hakimi(terms))
    # K3 on vertices 0, 1, 2: the realization has 0-1 but vertex 2 has degree 1
    problems = checks.check_certificate(terms, *CORPUS["K3"], {0: 0, 1: 1, 2: 2}, edges)
    assert any("misses edges" in p for p in problems)


def test_flipped_answers_rejected():
    # the star 7,1^7 fails degree domination for P4
    assert checks.check_false((7,) + (1,) * 7, "P4") == []
    # 9,5,3^8 is potentially split23-graphic, so False is wrong
    assert checks.check_false((9, 5) + (3,) * 8, "split23")
    # and a True answer for the star cannot produce a valid certificate
    terms = (7,) + (1,) * 7
    edges = checks.mask_edges(checks.havel_hakimi(terms))
    assert checks.check_certificate(terms, *CORPUS["P4"], {0: 1, 1: 0, 2: 2, 3: 3}, edges)


def test_stored_verdict_is_trusted_only_for_its_pair():
    terms = (9, 9) + (2,) * 8
    assert checks.check_false(terms, "C5", proven_false={("C5", "9,9,2^8")}) == []
    assert checks.check_false((9, 5) + (3,) * 8, "split23", proven_false={("C5", "9,9,2^8")})


def test_sigma_checks():
    maximizers = [(9,) + (1,) * 9, (8, 2) + (1,) * 8, (7, 3) + (1,) * 8, (6, 4) + (1,) * 8, (5, 5) + (1,) * 8]
    assert checks.check_sigma("K3", 10, 20, maximizers) == []
    assert checks.check_sigma("K3", 10, 22, maximizers)
    assert checks.check_sigma("K3", 10, 18, maximizers)
    # a maximizer that is in fact potentially H-graphic
    assert checks.check_sigma("K3", 10, 20, maximizers + [(4, 4, 4) + (1,) * 6 + (0,)])


def test_close_to_target_family():
    k, edges = CORPUS["split23"]
    assert checks.target_family(k, edges, 10) == [(9,) + (3,) * 9]
    verdict = {"verdict": "close_to_target", "target": {"sequence": "9,3^9"}, "distance": 0}
    assert checks.check_probe((9,) + (3,) * 9, "split23", verdict, None, None) == []
    outside = {"verdict": "close_to_target", "target": {"sequence": "9,9,2^8"}, "distance": 12}
    assert checks.check_probe((9,) + (3,) * 9, "split23", outside, None, None)


def test_probe_certificate_by_completion():
    terms = (9, 5) + (3,) * 8
    embedding, _ = certificate(terms, "split23")
    emb = {str(u + 1): v + 1 for u, v in embedding.items()}
    verdict = {"verdict": "declared_potential", "verified": True, "embedding": emb}
    assert checks.check_probe(terms, "split23", verdict, None, None) == []
    assert checks.check_probe(terms, "split23", dict(verdict, verified=None), None, None)
    star = (9,) + (1,) * 9
    bad = {"verdict": "found_h", "verified": True, "subgraphOrder": 3,
           "subgraphEdges": [[1, 2], [1, 3], [2, 3]], "embedding": {"1": 1, "2": 2, "3": 3}}
    assert checks.check_probe(star, "K3", bad, None, None)


def test_targets_and_rho_from_definitions():
    k, edges = CORPUS["K3"]
    assert checks.to_text(checks.target(k, edges, 2, 8)) == "7,1^7"
    assert checks.to_text(checks.rho(k, edges, 8)) == "4,4,1^6"


def test_decision_rules():
    k, edges = CORPUS["K4"]
    assert checks.decision_rule((2,) * 8, k, edges) == "degree"
    assert checks.decision_rule((7,) * 8, k, edges) == "yin_li"
    assert checks.decision_rule((3,) * 7 + (1,), k, edges) in ("hh_fast", "full_search")


def test_tail_leaves_ten_samples_above():
    import run

    assert run.tail(list(range(1, 101))) == 90
    assert run.tail(list(range(1, 1001))) == 990
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
