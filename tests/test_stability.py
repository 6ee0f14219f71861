"""Stability classifiers: covers, verdicts, and the derived weak notion."""

from collections import Counter
from itertools import combinations

import pytest

from potnum.graphs import (
    SmallGraph,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    disjoint_union,
    empty_graph,
    friendship_graph,
    path_graph,
)
from potnum.potential import profile, rho
from potnum.stability import (
    CoverUndefinedError,
    classify_sigma,
    classify_weak,
    double_star_cover,
)


# --- double-star cover -------------------------------------------------------


def test_cover_examples():
    assert double_star_cover(cycle_graph(5)) == (1, 1)
    assert double_star_cover(complete_graph(4)) is None
    assert double_star_cover(cycle_graph(6)) is None
    assert double_star_cover(cycle_graph(7)) == (2, 1)
    assert double_star_cover(friendship_graph(2)) == (1, 1)


def _atlas_graphs(max_order):
    """Every graph with an edge on at most ``max_order`` vertices, once up
    to isomorphism: (networkx graph, SmallGraph)."""
    from networkx import graph_atlas_g

    for g in graph_atlas_g()[1:]:
        if g.number_of_edges() and g.number_of_nodes() <= max_order:
            yield g, SmallGraph(g.number_of_nodes(), g.edges())


def test_cover_and_one_edge_set_match_independent_searches():
    # the least b1 for which VF2 finds h inside the host, built in
    # networkx, and the one-edge set by counting edges over every subset
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    checked = 0
    for g, h in _atlas_graphs(6):
        alpha = max(len(c) for c in nx.find_cliques(nx.complement(g)))
        k = h.k
        if k - alpha - 2 < 0 or not profile(h).is_type2:
            continue
        want = None
        for b1 in range((alpha + 1) // 2, alpha + 1):
            star = nx.Graph([(0, 1)] + [(0, 2 + i) for i in range(b1)]
                            + [(1, 2 + b1 + i) for i in range(alpha - b1)])
            host = nx.full_join(nx.complete_graph(k - alpha - 2), star, rename=("c", "s"))
            if GraphMatcher(host, g).subgraph_is_monomorphic():
                want = (b1, alpha - b1)
                break
        one_edge = any(g.subgraph(s).number_of_edges() == 1 for s in combinations(g, alpha + 1))
        v = classify_sigma(h)
        assert double_star_cover(h) == want == v.cover, g.edges()
        if want is None:
            assert v.status == "NotStable", g.edges()
        else:
            assert v.theorem == ("MainHigh" if one_edge else None), g.edges()
        checked += 1
    assert checked == 128


def test_cover_ill_posed():
    with pytest.raises(CoverUndefinedError):
        double_star_cover(complete_graph(2))  # k - alpha - 2 = -1


# --- sigma-stability ----------------------------------------------------------


def test_classify_cliques_not_stable():
    for k in range(3, 9):
        v = classify_sigma(complete_graph(k))
        assert v.status == "NotStable" and v.theorem == "NotStable"
        w = rho(v.graph, k + 3)
        assert w.seq.n == k + 3


def test_classify_type1_stable():
    for h in (complete_split(2, 3), complete_bipartite(2, 3), complete_bipartite(3, 3),
              path_graph(3)):
        v = classify_sigma(h)
        assert (v.status, v.theorem) == ("Stable", "MainLow"), h


def test_classify_type2_stable_via_cover():
    for h, cover in ((cycle_graph(5), (1, 1)), (cycle_graph(7), (2, 1)),
                     (friendship_graph(2), (1, 1))):
        v = classify_sigma(h)
        assert (v.status, v.theorem, v.cover) == ("Stable", "MainHigh", cover), h


def test_classify_c6_not_stable():
    v = classify_sigma(cycle_graph(6))
    assert v.status == "NotStable"


def test_classify_unknown_when_cover_ill_posed():
    # a single edge plus isolated vertices: Type 2 with k - alpha - 2 < 0
    h = disjoint_union(complete_graph(2), empty_graph(2))
    v = classify_sigma(h)
    assert v.status == "Unknown" and v.theorem is None


def test_classify_rejects_edgeless():
    with pytest.raises(ValueError):
        classify_sigma(SmallGraph(4))


# --- weak stability --------------------------------------------------------------


def test_weak_cliques():
    for k in range(3, 7):
        v = classify_weak(complete_graph(k))
        assert (v.status, v.basis) == ("WeaklyStable", "CliqueWeak")


def test_weak_c6_not_weakly_stable():
    v = classify_weak(cycle_graph(6))
    assert (v.status, v.basis) == ("NotWeaklyStable", "RhoDegreeSufficient")
    assert rho(v.graph, 9).seq.n == 9


def test_weak_implied_by_stable():
    for h in (cycle_graph(5), complete_split(2, 3), complete_bipartite(2, 3),
              friendship_graph(2)):
        v = classify_weak(h)
        assert (v.status, v.basis) == ("WeaklyStable", "ImpliedBySigmaStable"), h


def test_weak_unknown_cell():
    h = disjoint_union(complete_graph(2), empty_graph(2))
    assert classify_weak(h).status == "Unknown"


# --- every corpus graph lands in exactly one cell ---------------------------------


def test_decision_procedure_total():
    corpus = [
        complete_graph(3), complete_graph(4), complete_graph(5), complete_graph(6),
        cycle_graph(5), cycle_graph(6), cycle_graph(7), path_graph(3), path_graph(4),
        complete_split(2, 3), complete_bipartite(2, 3), friendship_graph(2),
        disjoint_union(complete_graph(2), empty_graph(2)),
    ]
    for h in corpus:
        v = classify_sigma(h)
        assert v.status in {"Stable", "NotStable", "Unknown"}
        w = classify_weak(h)
        assert w.status in {"WeaklyStable", "NotWeaklyStable", "Unknown"}


# --- the census over the atlas ----------------------------------------------------


def test_stability_census_of_the_atlas():
    sigma, weak = Counter(), Counter()
    for _, h in _atlas_graphs(7):
        v = classify_sigma(h)
        sigma[v.theorem if v.status == "Stable" else v.status] += 1
        weak[classify_weak(h).status] += 1
    assert sigma == {"MainLow": 351, "MainHigh": 671, "NotStable": 213, "Unknown": 10}
    assert weak == {"WeaklyStable": 1027, "NotWeaklyStable": 98, "Unknown": 120}


# --- report shapes ------------------------------------------------------------------


def test_verdict_json_fields():
    d = classify_sigma(complete_graph(3)).to_json_dict()
    assert set(d) == {"status", "theorem", "witnessSequencePattern", "coverB1B2", "note"}
    assert d["witnessSequencePattern"] is not None

    d = classify_sigma(cycle_graph(5)).to_json_dict()
    assert d["coverB1B2"] == [1, 1]
    assert d["witnessSequencePattern"] is None
