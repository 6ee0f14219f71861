"""Stability classifiers: covers, verdicts, and the derived weak notion."""

import pytest

from potnum import stability
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
from potnum.potential import rho
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


def test_cover_search_runs_once_per_graph(monkeypatch):
    # potnum analyze classifies sigma-stability and then weak stability,
    # which reads the sigma verdict: the cover search must not run twice
    calls = []

    def counting_cover(h):
        calls.append(h)
        return double_star_cover(h)

    monkeypatch.setattr(stability, "double_star_cover", counting_cover)
    classify_sigma.cache_clear()
    h = cycle_graph(6)
    assert classify_sigma(h).status == "NotStable"
    assert classify_weak(h).status == "NotWeaklyStable"
    assert calls == [h]


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


# --- report shapes ------------------------------------------------------------------


def test_verdict_json_fields():
    d = classify_sigma(complete_graph(3)).to_json_dict()
    assert set(d) == {"status", "theorem", "witnessSequencePattern", "coverB1B2", "note"}
    assert d["witnessSequencePattern"] is not None

    d = classify_sigma(cycle_graph(5)).to_json_dict()
    assert d["coverB1B2"] == [1, 1]
    assert d["witnessSequencePattern"] is None
